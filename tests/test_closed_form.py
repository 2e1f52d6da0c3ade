from fractions import Fraction

import pytest
from hypothesis import given

from conftest import spider_params
from spidernets import closed_form, graph_core
from spidernets.closed_form import (
    ConsistencyError,
    _expand,
    alpha_closed,
    alpha_head,
    average_degree_closed,
    closed_form_report,
    delta_closed,
    delta_groups,
    density_closed,
    diameter_closed,
    gamma_closed,
    gamma_groups,
    h_index_closed,
    max_degree,
    mean_distance_closed,
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
        assert delta_closed(normalize(m, k, l)) == want

    def test_max_degree_matches_array(self):
        for m, k, l in [(3, 2, 2), (1, 1, 4), (2, 1, 1), (5, 0, 0), (1, 0, 0)]:
            p = normalize(m, k, l)
            assert max_degree(p) == delta_closed(p)[0]


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
        assert gamma_closed(normalize(m, k, l)) == want


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
        assert alpha_closed(normalize(m, k, l)) == want

    def test_single_node_rejected(self):
        with pytest.raises(ValueError):
            alpha_closed(normalize(1, 0, 0))


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
        assert mean_distance_closed(normalize(3, 1, 2)) == Fraction(93, 36)
        assert mean_distance_closed(normalize(5, 0, 0)) == 1


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
            assert delta_closed(p) == graph_core.degree_array(g), p
            assert gamma_closed(p) == graph_core.gamma_array(g), p
            assert alpha_closed(p) == graph_core.alpha_array(g), p
            assert diameter_closed(p) == graph_core.diameter(g), p
            assert density_closed(p) == graph_core.density(g), p
            assert h_index_closed(p) == graph_core.h_index(graph_core.degree_array(g)), p
            assert total_distance_closed(p) == graph_core.total_distance(g), p


class TestIdentities:
    @given(spider_params)
    def test_sum_rules(self, p):
        assert sum(delta_closed(p)) == 2 * edge_count(p)
        if node_count(p) >= 2:
            alpha = alpha_closed(p)
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
        assert h_index_closed(p) == graph_core.h_index(delta_closed(p))

    @given(spider_params)
    def test_report_builds_for_nontrivial_spiders(self, p):
        if node_count(p) < 2:
            with pytest.raises(ValueError):
                closed_form_report(p)
        else:
            report = closed_form_report(p)
            assert sum(c for _, c in report.delta_groups) == node_count(p)
            assert sum(c for _, c in report.gamma_groups) == node_count(p)
            assert report.alpha_length == node_count(p) - 1
            assert len(report.alpha_head) <= report.alpha_length
            assert _expand(report.delta_groups) == delta_closed(p)
            assert _expand(report.gamma_groups) == gamma_closed(p)


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
            head, length = alpha_head(p)
            alpha = graph_core.alpha_array(g)
            assert length == len(alpha) == node_count(p) - 1
            assert len(head) == min(2 * p.l + 1, length)
            assert alpha == head + (0,) * (length - len(head))

    def test_alpha_head_stays_short_on_long_arrays(self):
        head, length = alpha_head(normalize(3, 16666, 2))
        assert (len(head), length) == (5, 3 * 16666 * 2 + 2)

    def test_single_node_head_rejected(self):
        with pytest.raises(ValueError):
            alpha_head(normalize(1, 0, 0))

    def test_corrupted_group_detected(self, monkeypatch):
        real = closed_form._delta_groups

        def shifted(p):
            (core, m), interior, terminal = real(p)
            return [(core + 1, m), interior, terminal]

        monkeypatch.setattr(closed_form, "_delta_groups", shifted)
        with pytest.raises(ConsistencyError):
            closed_form_report(normalize(3, 2, 2))

    def test_negative_multiplicity_detected(self, monkeypatch):
        real = closed_form._gamma_groups
        monkeypatch.setattr(
            closed_form, "_gamma_groups", lambda p: real(p) + [(7, 1), (7, -1)]
        )
        with pytest.raises(ConsistencyError):
            gamma_groups(normalize(2, 1, 3))


class TestDensityTrend:
    @pytest.mark.parametrize("m,k", [(2, 1), (3, 2), (4, 3)])
    def test_density_strictly_decreasing_in_leg_length(self, m, k):
        values = [density_closed(normalize(m, k, l)) for l in range(1, 51)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_density_vanishes_for_long_legs(self):
        assert density_closed(normalize(3, 2, 50)) < Fraction(1, 100)
