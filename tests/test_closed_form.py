from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _expand, _expand_runs, spider_params
from spidernets import cli, closed_form, graph_core
from spidernets.closed_form import (
    ConsistencyError,
    alpha_runs,
    average_degree_closed,
    closed_form_report,
    delta_groups,
    density_closed,
    diameter_closed,
    gamma_groups,
    h_index_closed,
    max_degree,
    total_distance_closed,
)
from spidernets.spiders import build_spider, edge_count, node_count, normalize, pair_count


class TestDeltaGolden:
    @pytest.mark.parametrize(
        "m,k,l,want",
        [
            (4, 0, 0, (3, 3, 3, 3)),
            (1, 4, 1, (4, 1, 1, 1, 1)),
            (1, 3, 2, (3, 2, 2, 2, 1, 1, 1)),
            (1, 1, 5, (2, 2, 2, 2, 1, 1)),
            (3, 2, 1, (4, 4, 4, 1, 1, 1, 1, 1, 1)),
            (2, 1, 3, (2, 2, 2, 2, 2, 2, 1, 1)),
            (1, 1, 1, (1, 1)),
            (1, 0, 0, (0,)),
            (3, 2, 2, (4, 4, 4) + (2,) * 6 + (1,) * 6),
        ],
    )
    def test_arrays(self, m, k, l, want):
        assert _expand(delta_groups(normalize(m, k, l))) == want

    def test_max_degree_matches_array(self):
        for m, k, l in [(3, 2, 2), (1, 1, 4), (2, 1, 1), (5, 0, 0), (1, 0, 0)]:
            p = normalize(m, k, l)
            assert max_degree(p) == _expand(delta_groups(p))[0]


class TestGammaGolden:
    @pytest.mark.parametrize(
        "m,k,l,want",
        [
            (4, 0, 0, (12, 12, 12, 12)),
            (1, 3, 1, (6, 4, 4, 4)),
            (1, 3, 2, (9, 6, 6, 6, 3, 3, 3)),
            (1, 2, 3, (6, 6, 6, 5, 5, 3, 3)),
            (1, 2, 5, (6,) * 7 + (5, 5, 3, 3)),
            (1, 1, 1, (2, 2)),
            (1, 1, 2, (4, 3, 3)),
            (1, 1, 3, (5, 5, 3, 3)),
            (1, 1, 6, (6, 6, 6, 5, 5, 3, 3)),
            (3, 2, 1, (14, 14, 14, 5, 5, 5, 5, 5, 5)),
            (2, 1, 4, (6,) * 6 + (5, 5, 3, 3)),
            (2, 1, 1, (5, 5, 3, 3)),
            (3, 2, 2, (16,) * 3 + (7,) * 6 + (3,) * 6),
        ],
    )
    def test_arrays(self, m, k, l, want):
        assert _expand(gamma_groups(normalize(m, k, l))) == want


class TestAlphaGolden:
    @pytest.mark.parametrize(
        "m,k,l,want",
        [
            (5, 0, 0, (10, 0, 0, 0)),
            (1, 4, 1, (4, 6, 0, 0)),
            (1, 3, 2, (6, 6, 6, 3, 0, 0)),
            (1, 1, 1, (1,)),
            (1, 1, 2, (2, 1)),
            (1, 1, 4, (4, 3, 2, 1)),
            (2, 1, 2, (5, 4, 3, 2, 1)),
            (2, 2, 1, (5, 6, 4, 0, 0)),
            (3, 1, 2, (9, 9, 9, 6, 3, 0, 0, 0)),
        ],
    )
    def test_arrays(self, m, k, l, want):
        assert _expand_runs(alpha_runs(normalize(m, k, l))) == want

    def test_single_node_rejected(self):
        with pytest.raises(ValueError):
            closed_form_report(normalize(1, 0, 0))


class TestScalars:
    @pytest.mark.parametrize(
        "m,k,l,want",
        [
            (2, 2, 1, 3),
            (1, 3, 2, 4),
            (1, 0, 0, 0),
            (5, 0, 0, 1),
            (1, 1, 5, 5),
            (1, 4, 1, 2),
            (2, 1, 3, 7),
        ],
    )
    def test_diameter(self, m, k, l, want):
        assert diameter_closed(normalize(m, k, l)) == want

    def test_density(self):
        assert density_closed(normalize(4, 0, 0)) == 1
        assert density_closed(normalize(2, 2, 1)) == Fraction(1, 3)
        assert density_closed(normalize(1, 1, 4)) == Fraction(2, 5)

    def test_density_single_node_rejected(self):
        with pytest.raises(ValueError):
            density_closed(normalize(1, 0, 0))

    @pytest.mark.parametrize(
        "m,k,l,want",
        [
            (3, 2, 2, 3),
            (5, 0, 0, 4),
            (1, 0, 0, 0),
            (1, 4, 1, 1),
            (1, 3, 3, 2),
            (1, 1, 4, 2),
            (1, 1, 2, 1),
            (1, 1, 1, 1),
            (2, 1, 5, 2),
        ],
    )
    def test_h_index_regimes(self, m, k, l, want):
        assert h_index_closed(normalize(m, k, l)) == want

    def test_average_degree(self):
        assert average_degree_closed(normalize(4, 0, 0)) == 3
        assert average_degree_closed(normalize(2, 2, 1)) == Fraction(5, 3)
        assert average_degree_closed(normalize(1, 1, 3)) == Fraction(3, 2)

    def test_total_distance(self):
        assert total_distance_closed(normalize(3, 1, 2)) == 93
        assert total_distance_closed(normalize(6, 0, 0)) == 15
        assert total_distance_closed(normalize(1, 1, 4)) == 20

    def test_mean_distance(self):
        for shape, want in (((3, 1, 2), Fraction(93, 36)), ((5, 0, 0), 1)):
            p = normalize(*shape)
            assert Fraction(closed_form_report(p).total_distance, pair_count(p)) == want


class TestOracleEquivalence:
    def grid(self):
        seen = set()
        for m in range(1, 5):
            for k in range(0, 4):
                for l in range(0, 5):
                    p = normalize(m, k, l)
                    if p not in seen and node_count(p) >= 2:
                        seen.add(p)
                        yield p

    def test_every_indicator_matches_brute_force(self):
        for p in self.grid():
            g = build_spider(p)
            oracle = graph_core.all_indicators(g)
            assert _expand(delta_groups(p)) == graph_core.degree_array(g), p
            assert _expand(gamma_groups(p)) == graph_core.gamma_array(g), p
            assert _expand_runs(alpha_runs(p)) == graph_core.alpha_array(g), p
            assert diameter_closed(p) == oracle.diameter, p
            assert density_closed(p) == graph_core.density(g), p
            assert h_index_closed(p) == graph_core.h_index(graph_core.degree_array(g)), p
            assert total_distance_closed(p) == oracle.total_distance, p

    @given(spider_params)
    def test_report_equals_oracle_record(self, p):
        if node_count(p) >= 2:
            closed, oracle = closed_form_report(p), graph_core.all_indicators(build_spider(p))
            assert type(closed) is type(oracle) is graph_core.Indicators
            assert closed == oracle


class TestIdentities:
    @given(spider_params)
    def test_sum_rules(self, p):
        assert sum(_expand(delta_groups(p))) == 2 * edge_count(p)
        if node_count(p) >= 2:
            alpha = _expand_runs(alpha_runs(p))
            assert sum(alpha) == pair_count(p)
            assert total_distance_closed(p) == sum(
                j * a for j, a in enumerate(alpha, start=1)
            )

    @given(spider_params)
    def test_density_equals_edge_ratio(self, p):
        n = node_count(p)
        if n >= 2:
            assert density_closed(p) == Fraction(2 * edge_count(p), n * (n - 1))

    @given(spider_params)
    def test_h_index_consistent_with_delta(self, p):
        assert h_index_closed(p) == graph_core.h_index(_expand(delta_groups(p)))

    @given(spider_params)
    def test_report_builds_for_nontrivial_spiders(self, p):
        if node_count(p) < 2:
            with pytest.raises(ValueError):
                closed_form_report(p)
        else:
            report = closed_form_report(p)
            assert sum(c for _, c in report.delta) == node_count(p)
            assert sum(c for _, c in report.gamma) == node_count(p)
            assert report.alpha == alpha_runs(p)
            assert len(_expand_runs(report.alpha)) == node_count(p) - 1
            assert report.delta == delta_groups(p)
            assert report.gamma == gamma_groups(p)


class TestGroupedForms:
    @given(spider_params)
    def test_groups_are_non_increasing_distinct_and_positive(self, p):
        for groups, most in ((delta_groups(p), 3), (gamma_groups(p), 5)):
            assert 1 <= len(groups) <= most
            values = [v for v, _ in groups]
            assert values == sorted(set(values), reverse=True)
            assert all(c > 0 for _, c in groups)

    @given(spider_params)
    def test_expansions_match_the_oracle(self, p):
        g = build_spider(p)
        assert _expand(delta_groups(p)) == graph_core.degree_array(g)
        assert _expand(gamma_groups(p)) == graph_core.gamma_array(g)
        if node_count(p) >= 2:
            runs = alpha_runs(p)
            alpha = graph_core.alpha_array(g)
            assert len(alpha) == node_count(p) - 1
            assert 1 <= len(runs) <= 4
            assert runs[0][0] == 1 and runs[-1][1] == len(alpha)
            assert all(first <= last for first, last, _, _ in runs)
            assert all(r[1] + 1 == s[0] for r, s in zip(runs, runs[1:]))
            assert _expand_runs(runs) == alpha

    @given(spider_params)
    def test_run_sums_are_pairs_and_total_distance(self, p):
        if node_count(p) >= 2:
            runs = alpha_runs(p)
            alpha = _expand_runs(runs)
            sums = (sum(alpha), sum(j * a for j, a in enumerate(alpha, start=1)))
            assert closed_form._run_sums(runs) == sums
            assert sums == (pair_count(p), total_distance_closed(p))

    @given(
        st.builds(
            normalize,
            st.integers(min_value=1, max_value=10**30),
            st.integers(min_value=0, max_value=10**30),
            st.integers(min_value=0, max_value=10**30),
        )
    )
    def test_step_forms_match_the_grouped_forms_far_past_the_grid(self, p):
        # A ratio step reads the largest degree off the raw checked pairs and
        # divides the weighted distance sums inline; both must still equal the
        # sorted groups and the distance frequencies' sum, which the oracle
        # grid checks only up to m = 6, k = 4, l = 5.
        m, k, l = p.m, p.k, p.l
        assert closed_form.max_degree_at(m, k, l) == closed_form.delta_groups_at(m, k, l)[0][0]
        if node_count(p) >= 2:
            assert closed_form.total_distance_closed_at(m, k, l) == closed_form._run_sums(
                alpha_runs(p)
            )[1]

    def test_alpha_runs_stay_few_on_long_arrays(self):
        runs = alpha_runs(normalize(3, 16666, 2))
        # Greedy runs pair j = 1, 2 and j = 3, 4; the run from j = 5 takes the
        # first zero, at j = 6, as well.
        assert len(runs) == 4 and runs[-1] == (7, 3 * 16666 * 2 + 2, 0, 0)
        # Legs of 10^12 nodes: a per-entry loop would not finish.  Two legs
        # joined by one core edge are a path, whose alpha_j = n - j is one run.
        l = 10**12
        assert alpha_runs(normalize(2, 1, l)) == ((1, 2 * l + 1, 2 * l + 2, -1),)

    def test_single_node_runs_rejected(self):
        with pytest.raises(ValueError):
            alpha_runs(normalize(1, 0, 0))

    def test_corrupted_group_detected(self, monkeypatch):
        real = closed_form._delta_groups

        def shifted(*mkl):
            (core, m), interior, terminal = real(*mkl)
            return [(core + 1, m), interior, terminal]

        monkeypatch.setattr(closed_form, "_delta_groups", shifted)
        with pytest.raises(ConsistencyError):
            closed_form_report(normalize(3, 2, 2))

    # (1, 0) breaks the sum over all pairs; (-5, 2) keeps it on j = 2..3
    # and breaks the distance-weighted sum instead.
    @pytest.mark.parametrize("da,db", [(1, 0), (-5, 2)])
    def test_corrupted_run_detected(self, monkeypatch, da, db):
        real = closed_form._alpha_lines

        def shifted(p):
            lines = real(p)
            first, last, a, b = lines[1]
            lines[1] = (first, last, a + da, b + db)
            return lines

        monkeypatch.setattr(closed_form, "_alpha_lines", shifted)
        with pytest.raises(ConsistencyError):
            closed_form_report(normalize(3, 2, 2))

    def test_report_builds_the_pair_classes_once(self, monkeypatch):
        real, calls = closed_form._pair_classes, []

        def counting(m, k, l):
            calls.append((m, k, l))
            return real(m, k, l)

        monkeypatch.setattr(closed_form, "_pair_classes", counting)
        closed_form_report(normalize(3, 2, 2))
        assert calls == [(3, 2, 2)]

    def test_negative_multiplicity_detected(self, monkeypatch):
        real = closed_form._gamma_groups
        monkeypatch.setattr(
            closed_form, "_gamma_groups", lambda p: real(p) + [(7, 1), (7, -1)]
        )
        with pytest.raises(ConsistencyError):
            gamma_groups(normalize(2, 1, 3))


class TestEdgeCountCrossProducts:
    """The density and average-degree checks compare integer cross-products, exact at any size."""

    @given(
        st.builds(
            normalize,
            st.integers(min_value=1, max_value=10**30),
            st.integers(min_value=0, max_value=10**30),
            st.integers(min_value=0, max_value=10**30),
        )
    )
    def test_equal_to_the_edge_ratios_at_huge_sizes(self, p):
        n, twice_edges = node_count(p), 2 * edge_count(p)
        if n >= 2:
            assert density_closed(p) == Fraction(twice_edges, n * (n - 1))
        assert average_degree_closed(p) == Fraction(twice_edges, n)

    @pytest.mark.parametrize(
        "check, message",
        [
            (density_closed, "density formula disagrees with edge count"),
            (average_degree_closed, "average degree disagrees with edge count"),
        ],
    )
    @pytest.mark.parametrize("shape", [(2, 0, 0), (1, 1, 1), (3, 2, 2), (5, 4, 3)])
    def test_one_edge_too_many_is_detected(self, monkeypatch, check, message, shape):
        real = closed_form.edge_count
        monkeypatch.setattr(closed_form, "edge_count", lambda p: real(p) + 1)
        with pytest.raises(ConsistencyError, match=f"^{message}$"):
            check(normalize(*shape))


class TestDensityTrend:
    @pytest.mark.parametrize("m,k", [(2, 1), (3, 2), (4, 3)])
    def test_density_strictly_decreasing_in_leg_length(self, m, k):
        values = [density_closed(normalize(m, k, l)) for l in range(1, 51)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_density_vanishes_for_long_legs(self):
        assert density_closed(normalize(3, 2, 50)) < Fraction(1, 100)


def _plus(*polys):
    """The sum of coefficient lists."""
    out = [0] * max(map(len, polys))
    for poly in polys:
        for j, c in enumerate(poly):
            out[j] += c
    return out


def _times(p, q):
    """The product of two coefficient lists."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _scaled(c, poly):
    return [c * a for a in poly]


def distance_polynomial(m, k, l):
    """A(x) of the spider (m, k, l) by list arithmetic: coefficient j is the pairs at distance j.

    A = m (k L + k S + C(k,2) L^2) + C(m,2) x B^2 with L = x + ... + x^l (a
    core node to the nodes of one of its legs), S = sum of (l-d) x^d for
    d < l (two nodes inside one leg) and B = 1 + k L (a core node and its legs).
    """
    L = [0] + [1] * l
    S = [0] + [l - d for d in range(1, l)]
    B = _plus([1], _scaled(k, L))
    bundle = _plus(_scaled(k, L), _scaled(k, S), _scaled(k * (k - 1) // 2, _times(L, L)))
    A = _plus(_scaled(m, bundle), _scaled(m * (m - 1) // 2, _times([0, 1], _times(B, B))))
    while len(A) > 1 and A[-1] == 0:
        A.pop()
    return A


def six_numerator_total_distance(m, k, l):
    """The total distance as six distance-weighted pair counts, each a sum over one pair class."""
    within = l * (l - 1) * (l + 4) // 6  # within one leg: distances 2..l
    foreign = l * (l + 3) // 2  # leg to foreign core: 2..l+1
    same = l * (l + 1) * (l + 2) // 3 + 2 * l * (l - 1) * (l + 1) // 3  # two legs, one core
    cross = l * (l + 1) * (2 * l + 7) // 6 + l * (l - 1) * (4 * l + 7) // 6  # two cores
    return (
        m * (m - 1)
        + 2 * m * k * l
        + 2 * k * m * within
        + 2 * k * m * (m - 1) * foreign
        + m * k * (k - 1) * same
        + m * k * k * (m - 1) * cross
    ) // 2


@st.composite
def spiders_up_to_2000_nodes(draw):
    m = draw(st.integers(min_value=1, max_value=50))
    k = draw(st.integers(min_value=0, max_value=10))
    l = draw(st.integers(min_value=0, max_value=(2000 // m - 1) // max(k, 1)))
    return normalize(m, k, l)


class TestDistancePolynomial:
    """Every distance closed form equals its reading of A(x), built here by list arithmetic."""

    def check(self, p):
        A = distance_polynomial(*p)
        if node_count(p) < 2:
            assert A == [0] and p == (1, 0, 0) and diameter_closed(p) == 0
            return
        alpha = _expand_runs(alpha_runs(p))
        assert A == [0] + list(alpha[: len(A) - 1]) and not any(alpha[len(A) - 1:])
        assert sum(A) == pair_count(p)
        assert sum(j * a for j, a in enumerate(A)) == total_distance_closed(p)
        assert len(A) - 1 == diameter_closed(p)

    def test_default_grid(self):
        points = cli.iter_grid(8, 5, 6, 2000)
        assert len(points) == 247
        for p in [normalize(1, 0, 0), *points]:
            self.check(p)

    @settings(deadline=None)
    @given(spiders_up_to_2000_nodes())
    def test_points_up_to_2000_nodes(self, p):
        self.check(p)

    @given(
        st.integers(min_value=1, max_value=10**30),
        st.integers(min_value=0, max_value=10**30),
        st.integers(min_value=0, max_value=10**30),
    )
    def test_total_distance_equals_the_six_numerator_form(self, m, k, l):
        p = normalize(m, k, l)
        if node_count(p) >= 2:
            assert total_distance_closed(p) == six_numerator_total_distance(*p)
