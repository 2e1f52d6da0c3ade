from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spidernets import graph_core
from spidernets.closed_form import ConsistencyError
from spidernets.small_world import (
    _INDICATOR_PAIRS,
    CANONICAL_DIRECTIONS,
    GROWTH_PROBES,
    GrowthDirection,
    SmallWorldNotion,
    classify,
    geometric_steps,
    polynomial_degree,
    ratio_sequence,
    verdict_label,
    verdict_table,
)
from spidernets.spiders import build_spider, node_count, normalize, pair_count

DSWL = SmallWorldNotion.DSWL
DSWA = SmallWorldNotion.DSWA
SWD = SmallWorldNotion.SWD
SWA = SmallWorldNotion.SWA

# (diverges, is_small_world, is_ultra_small) per notion and growth direction
EXPECTED_TABLE = {
    (DSWL, "M"): (True, True, False),
    (DSWL, "K"): (True, True, False),
    (DSWL, "L"): (False, False, False),
    (DSWA, "M"): (True, True, False),
    (DSWA, "K"): (False, False, False),
    (DSWA, "L"): (False, False, False),
    (SWD, "M"): (False, True, True),
    (SWD, "K"): (False, True, True),
    (SWD, "L"): (True, False, False),
    (SWA, "M"): (False, True, True),
    (SWA, "K"): (False, True, True),
    (SWA, "L"): (True, False, False),
}


class TestGrowthDirection:
    def test_params_at_substitutes(self):
        d = GrowthDirection("K", m=2, l=3)
        assert d.params_at(5) == normalize(2, 5, 3)

    def test_params_at_every_slot(self):
        assert GrowthDirection("M", k=2, l=3).params_at(1) == normalize(1, 2, 3)
        assert GrowthDirection("L", m=4, k=1).params_at(7) == normalize(4, 1, 7)

    def test_params_at_rejects_value_below_one(self):
        for d in CANONICAL_DIRECTIONS:
            with pytest.raises(ValueError):
                d.params_at(0)

    def test_fixed_core_too_small(self):
        with pytest.raises(ValueError):
            GrowthDirection("K", m=1, l=1)

    def test_missing_fixed_parameter(self):
        with pytest.raises(ValueError):
            GrowthDirection("M", k=1)

    def test_varying_must_not_be_fixed(self):
        with pytest.raises(ValueError):
            GrowthDirection("M", m=2, k=1, l=1)

    def test_unknown_direction(self):
        with pytest.raises(ValueError):
            GrowthDirection("N", k=1, l=1)


def numerator(notion, p):
    """The notion's indicator for one spider as a reduced Fraction."""
    return Fraction(*_INDICATOR_PAIRS[notion](p))


class TestNumerator:
    def test_largest_degree(self):
        assert numerator(DSWL, normalize(3, 2, 2)) == 4

    def test_average_degree(self):
        assert numerator(DSWA, normalize(2, 2, 1)) == Fraction(5, 3)

    def test_diameter(self):
        assert numerator(SWD, normalize(2, 2, 1)) == 3

    def test_mean_distance_complete(self):
        assert numerator(SWA, normalize(5, 0, 0)) == 1

    def test_matches_oracle_mean_distance_on_grid(self):
        seen = set()
        for m in range(1, 9):
            for k in range(0, 6):
                for l in range(0, 7):
                    p = normalize(m, k, l)
                    if p in seen or not 3 <= node_count(p) <= 2000:
                        continue
                    seen.add(p)
                    oracle = graph_core.all_indicators(build_spider(p))
                    assert numerator(SWA, p) == Fraction(oracle.total_distance, pair_count(p))


class TestRatioSequences:
    def test_largest_degree_grows_with_core(self):
        d = GrowthDirection("M", k=1, l=1)
        ratios = [pt.ratio for pt in ratio_sequence(DSWL, d, (10, 100, 1000))]
        assert ratios[0] < ratios[1] < ratios[2]

    def test_diameter_ratio_shrinks_with_core(self):
        d = GrowthDirection("M", k=1, l=1)
        ratios = [pt.ratio for pt in ratio_sequence(SWD, d, (10, 100, 1000))]
        assert ratios[0] > ratios[1] > ratios[2]

    def test_mean_distance_ratio_grows_with_leg_length(self):
        d = GrowthDirection("L", m=2, k=1)
        ratios = [pt.ratio for pt in ratio_sequence(SWA, d, (10, 100, 1000))]
        assert ratios[0] < ratios[1] < ratios[2]

    def test_steps_must_increase(self):
        d = GrowthDirection("M", k=1, l=1)
        with pytest.raises(ValueError):
            ratio_sequence(DSWL, d, (10, 10, 20))

    def test_node_counts_recorded(self):
        d = GrowthDirection("K", m=2, l=1)
        points = ratio_sequence(SWD, d, (2, 4, 8))
        assert [pt.n for pt in points] == [6, 10, 18]

    def test_geometric_steps_doubling(self):
        assert geometric_steps() == [2 ** i for i in range(1, 13)]

    def test_diameter_ratio_quantified_convergence(self):
        for d in (GrowthDirection("M", k=1, l=1), GrowthDirection("K", m=2, l=1)):
            ratios = [pt.ratio for pt in ratio_sequence(SWD, d, geometric_steps())]
            assert ratios[-1] < 0.5
            assert ratios[-1] < ratios[0] / 2


class TestClassification:
    @pytest.mark.parametrize("notion", list(SmallWorldNotion))
    @pytest.mark.parametrize("direction", CANONICAL_DIRECTIONS)
    def test_expected_cell(self, notion, direction):
        verdict = classify(notion, direction)
        want = EXPECTED_TABLE[(notion, direction.varying)]
        assert (verdict.diverges, verdict.is_small_world, verdict.is_ultra_small) == want
        if not verdict.diverges:
            assert verdict.limit == 0

    def test_verdict_table_has_twelve_cells(self):
        table = verdict_table()
        assert len(table) == 12
        for notion, direction, verdict in table:
            want = EXPECTED_TABLE[(notion, direction.varying)]
            assert (verdict.diverges, verdict.is_small_world, verdict.is_ultra_small) == want

    def test_verdict_invariant_under_fixed_values(self):
        directions = {
            "M": [GrowthDirection("M", k=k, l=l) for k in (1, 2, 3) for l in (1, 2, 3)],
            "K": [GrowthDirection("K", m=m, l=l) for m in (2, 3, 4) for l in (1, 2, 3)],
            "L": [GrowthDirection("L", m=m, k=k) for m in (2, 3, 4) for k in (1, 2, 3)],
        }
        for notion in SmallWorldNotion:
            for varying, cells in directions.items():
                verdicts = {
                    (v.diverges, v.is_small_world, v.is_ultra_small)
                    for v in (classify(notion, d) for d in cells)
                }
                assert verdicts == {EXPECTED_TABLE[(notion, varying)]}

    def test_labels(self):
        assert verdict_label(classify(DSWL, CANONICAL_DIRECTIONS[0])) == (
            "small world (ratio -> +inf)"
        )
        assert verdict_label(classify(SWD, CANONICAL_DIRECTIONS[0])) == (
            "ultra-small world (C=0)"
        )
        assert verdict_label(classify(SWA, CANONICAL_DIRECTIONS[2])) == (
            "not a small world (ratio -> +inf)"
        )
        assert verdict_label(classify(DSWA, CANONICAL_DIRECTIONS[1])) == (
            "not a small world (ratio -> 0)"
        )


fixed_values = st.integers(min_value=2, max_value=1000)
valid_directions = st.one_of(
    st.builds(lambda k, l: GrowthDirection("M", k=k, l=l), fixed_values, fixed_values),
    st.builds(lambda m, l: GrowthDirection("K", m=m, l=l), fixed_values, fixed_values),
    st.builds(lambda m, k: GrowthDirection("L", m=m, k=k), fixed_values, fixed_values),
)


class TestGrowthOrders:
    @given(
        st.lists(st.integers(min_value=-50, max_value=50), min_size=0, max_size=5),
        st.integers(min_value=1, max_value=50),
    )
    def test_degree_of_integer_polynomials(self, lower, lead):
        coeffs = lower + [lead]
        samples = [sum(c * t ** i for i, c in enumerate(coeffs)) for t in GROWTH_PROBES]
        assert polynomial_degree(samples) == len(coeffs) - 1

    @pytest.mark.parametrize(
        "samples",
        [
            [2 ** t for t in GROWTH_PROBES],
            [t ** 6 for t in GROWTH_PROBES],
            [-t for t in GROWTH_PROBES],
            [5 - t * t for t in GROWTH_PROBES],
            [-3] * 7,
            [0] * 7,
        ],
        ids=["2^t", "t^6", "-t", "5-t^2", "-3", "zero"],
    )
    def test_rejects_non_polynomial_or_non_positive_lead(self, samples):
        with pytest.raises(ConsistencyError):
            polynomial_degree(samples)

    @settings(max_examples=200, deadline=None)
    @given(valid_directions)
    def test_classify_never_raises_on_valid_directions(self, direction):
        for notion in SmallWorldNotion:
            verdict = classify(notion, direction)
            want = EXPECTED_TABLE[(notion, direction.varying)]
            assert (verdict.diverges, verdict.is_small_world, verdict.is_ultra_small) == want
