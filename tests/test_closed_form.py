from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import references
from conftest import _expand, _expand_runs, spider_params
from spidernets import cli, closed_form, graph_core, spiders
from spidernets.closed_form import (
    ConsistencyError,
    closed_form_report,
    delta_groups,
    diameter_closed,
    distance_sums,
    gamma_groups,
    h_index_closed,
    max_degree,
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
        assert _expand_runs(closed_form_report(normalize(m, k, l)).alpha) == want

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
        assert closed_form_report(normalize(4, 0, 0)).density == 1
        assert closed_form_report(normalize(2, 2, 1)).density == Fraction(1, 3)
        assert closed_form_report(normalize(1, 1, 4)).density == Fraction(2, 5)

    def test_density_single_node_rejected(self):
        with pytest.raises(ValueError):
            closed_form_report(normalize(1, 0, 0)).density

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
        p = normalize(m, k, l)
        assert h_index_closed(p, delta_groups(p)) == want

    def test_average_degree(self):
        # The mean of the degree groups, (m + 2kl - 1) / (1 + kl).
        for m, k, l, want in ((4, 0, 0, 3), (2, 2, 1, Fraction(5, 3)), (1, 1, 3, Fraction(3, 2))):
            p = normalize(m, k, l)
            assert Fraction(sum(d * c for d, c in delta_groups(p)), node_count(p)) == want

    def test_total_distance(self):
        assert distance_sums(normalize(3, 1, 2))[0] == 93
        assert distance_sums(normalize(6, 0, 0))[0] == 15
        assert distance_sums(normalize(1, 1, 4))[0] == 20

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
            oracle, report = graph_core.all_indicators(g), closed_form_report(p)
            delta = delta_groups(p)
            assert _expand(delta) == references.degree_array(g), p
            assert _expand(gamma_groups(p)) == references.gamma_array(g), p
            assert _expand_runs(report.alpha) == references.alpha_array(g), p
            assert diameter_closed(p) == oracle.diameter, p
            assert report.density == references.density(g), p
            assert h_index_closed(p, delta) == references.h_index(references.degree_array(g)), p
            assert distance_sums(p)[0] == oracle.total_distance, p

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
            alpha = _expand_runs(closed_form_report(p).alpha)
            assert sum(alpha) == pair_count(p)
            assert distance_sums(p)[0] == sum(
                j * a for j, a in enumerate(alpha, start=1)
            )

    @given(spider_params)
    def test_density_equals_edge_ratio(self, p):
        n = node_count(p)
        if n >= 2:
            assert closed_form_report(p).density == Fraction(2 * edge_count(p), n * (n - 1))

    @given(spider_params)
    def test_h_index_consistent_with_delta(self, p):
        delta = delta_groups(p)
        assert h_index_closed(p, delta) == references.h_index(_expand(delta))

    @given(spider_params)
    def test_report_builds_for_nontrivial_spiders(self, p):
        if node_count(p) < 2:
            with pytest.raises(ValueError):
                closed_form_report(p)
        else:
            report = closed_form_report(p)
            assert sum(c for _, c in report.delta) == node_count(p)
            assert sum(c for _, c in report.gamma) == node_count(p)
            assert 1 <= len(report.alpha) <= 4
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
        assert _expand(delta_groups(p)) == references.degree_array(g)
        assert _expand(gamma_groups(p)) == references.gamma_array(g)
        if node_count(p) >= 2:
            runs = closed_form_report(p).alpha
            alpha = references.alpha_array(g)
            assert len(alpha) == node_count(p) - 1
            assert 1 <= len(runs) <= 4
            assert runs[0][0] == 1 and runs[-1][1] == len(alpha)
            assert all(first <= last for first, last, _, _ in runs)
            assert all(r[1] + 1 == s[0] for r, s in zip(runs, runs[1:]))
            assert _expand_runs(runs) == alpha

    @given(spider_params)
    def test_run_sums_are_pairs_and_total_distance(self, p):
        if node_count(p) >= 2:
            runs = closed_form_report(p).alpha
            alpha = _expand_runs(runs)
            sums = (sum(alpha), sum(j * a for j, a in enumerate(alpha, start=1)))
            assert closed_form._run_sums(runs) == sums
            assert sums == (pair_count(p), distance_sums(p)[0])

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
        # A step passes a plain tuple, not a SpiderParams.
        mkl = tuple(p)
        assert max_degree(mkl) == delta_groups(mkl)[0][0]
        if node_count(p) >= 2:
            assert distance_sums(mkl)[0] == closed_form._run_sums(closed_form_report(p).alpha)[1]

    def test_alpha_runs_stay_few_on_long_arrays(self):
        runs = closed_form_report(normalize(3, 16666, 2)).alpha
        # Greedy runs pair j = 1, 2 and j = 3, 4; the run from j = 5 takes the
        # first zero, at j = 6, as well.
        assert len(runs) == 4 and runs[-1] == (7, 3 * 16666 * 2 + 2, 0, 0)
        # Legs of 10^12 nodes: a per-entry loop would not finish.  Two legs
        # joined by one core edge are a path, whose alpha_j = n - j is one run.
        l = 10**12
        assert closed_form_report(normalize(2, 1, l)).alpha == ((1, 2 * l + 1, 2 * l + 2, -1),)

    def test_single_node_runs_rejected(self):
        with pytest.raises(ValueError):
            closed_form_report(normalize(1, 0, 0)).alpha

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
    @pytest.mark.parametrize(
        "da,db,message",
        [
            (1, 0, "distance frequencies do not sum to all pairs"),
            (-5, 2, "total distance disagrees with the distance frequencies"),
        ],
        ids=["1-0", "-5-2"],
    )
    def test_corrupted_run_detected(self, monkeypatch, da, db, message):
        real = closed_form._alpha_lines

        def shifted(p, n):
            lines = real(p, n)
            first, last, a, b = lines[1]
            lines[1] = (first, last, a + da, b + db)
            return lines

        monkeypatch.setattr(closed_form, "_alpha_lines", shifted)
        with pytest.raises(ConsistencyError, match=f"^{message}$"):
            closed_form_report(normalize(3, 2, 2))

    # Each corruption breaks one check of the report and none that runs before it.
    @pytest.mark.parametrize(
        "name, corrupt, message",
        [
            ("_exact", lambda real, num, div: real(num + (div == 6), div),
             "a pair-class term is not an integer"),
            ("_pair_classes", lambda real, p: [(c, s + 1, d) for c, s, d in real(p)],
             "pair classes miss pairs"),
            ("_delta_groups", lambda real, p: real(p) + [(7, 1), (7, -1)],
             "a multiplicity is negative"),
            ("_delta_groups", lambda real, p: real(p) + [(2, 1)], "degree groups miss nodes"),
            ("_delta_groups", lambda real, p: [(v + 1, c) for v, c in real(p)],
             "total degree is not twice the edge count"),
            ("_gamma_groups", lambda real, p: real(p) + [(7, 1)], "gamma groups miss nodes"),
            ("_gamma_groups", lambda real, p: [(v + 1, c) for v, c in real(p)],
             "gamma sum identity failed"),
            ("h_index_of_groups", lambda real, groups: real(groups) + 1,
             "h-index regime disagrees with the degree multiset"),
        ],
        ids=["exact", "pairs", "negative", "delta-nodes", "degree-sum", "gamma-nodes",
             "gamma-sum", "h-index"],
    )
    def test_each_check_fails_alone_with_its_own_message(self, monkeypatch, name, corrupt, message):
        real = getattr(closed_form, name)
        monkeypatch.setattr(closed_form, name, lambda *args: corrupt(real, *args))
        with pytest.raises(ConsistencyError, match=f"^{message}$"):
            closed_form_report(normalize(3, 2, 2))

    def test_report_builds_the_pair_classes_once(self, monkeypatch):
        real, calls = closed_form._pair_classes, []

        def counting(p):
            calls.append(p)
            return real(p)

        monkeypatch.setattr(closed_form, "_pair_classes", counting)
        closed_form_report(normalize(3, 2, 2))
        assert calls == [(3, 2, 2)]

    def test_report_computes_each_checked_term_once(self, monkeypatch):
        names = ("_checked_delta_groups", "_delta_groups", "_run_sums", "pair_count", "node_count")
        calls = dict.fromkeys(names, 0)

        def counting(name, real):
            def counted(*args):
                calls[name] += 1
                return real(*args)

            return counted

        for name in names:
            monkeypatch.setattr(closed_form, name, counting(name, getattr(closed_form, name)))
        # pair_count reads the node count in spiders: count it there with the same counter
        monkeypatch.setattr(spiders, "node_count", closed_form.node_count)
        closed_form_report(normalize(3, 2, 2))
        # _delta_groups runs once for delta and once for gamma's sum identity; node_count once
        # for n and once each in pair_count, delta's node total and gamma's.
        assert calls == dict(zip(names, (1, 2, 1, 1, 4)))

    def test_negative_multiplicity_detected(self, monkeypatch):
        real = closed_form._gamma_groups
        monkeypatch.setattr(
            closed_form, "_gamma_groups", lambda p: real(p) + [(7, 1), (7, -1)]
        )
        with pytest.raises(ConsistencyError):
            gamma_groups(normalize(2, 1, 3))


class TestEdgeCountCrossProducts:
    """The density check compares integer cross-products, exact at any size."""

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
            assert closed_form._density(p, n) == Fraction(twice_edges, n * (n - 1))

    @pytest.mark.parametrize(
        "check, message",
        [(closed_form._density, "density formula disagrees with edge count")],
        # the test ids stay as they were
        ids=["density_closed-density formula disagrees with edge count"],
    )
    @pytest.mark.parametrize("shape", [(2, 0, 0), (1, 1, 1), (3, 2, 2), (5, 4, 3)])
    def test_one_edge_too_many_is_detected(self, monkeypatch, check, message, shape):
        # a report would stop at the degree check first, so the density check runs alone
        real = closed_form.edge_count
        monkeypatch.setattr(closed_form, "edge_count", lambda p: real(p) + 1)
        p = normalize(*shape)
        with pytest.raises(ConsistencyError, match=f"^{message}$"):
            check(p, node_count(p))


class TestDensityTrend:
    @pytest.mark.parametrize("m,k", [(2, 1), (3, 2), (4, 3)])
    def test_density_strictly_decreasing_in_leg_length(self, m, k):
        values = [closed_form_report(normalize(m, k, l)).density for l in range(1, 51)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_density_vanishes_for_long_legs(self):
        assert closed_form_report(normalize(3, 2, 50)).density < Fraction(1, 100)


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
        alpha = _expand_runs(closed_form_report(p).alpha)
        assert A == [0] + list(alpha[: len(A) - 1]) and not any(alpha[len(A) - 1:])
        assert sum(A) == pair_count(p)
        assert sum(j * a for j, a in enumerate(A)) == distance_sums(p)[0]
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
            assert distance_sums(p)[0] == six_numerator_total_distance(*p)
