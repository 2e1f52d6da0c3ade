import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spidernets import closed_form, graph_core, spiders
from spidernets.closed_form import ConsistencyError
from spidernets.small_world import (
    _INDICATOR_PAIRS,
    CANONICAL_DIRECTIONS,
    GROWTH_PROBES,
    GrowthDirection,
    SmallWorldNotion,
    SmallWorldVerdict,
    _newton_form,
    _newton_value,
    classify,
    geometric_steps,
    ratio_steps,
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
    def test_params_at_rejects_value_below_one(self):
        # a value enters the varying slot only through ratio_steps
        for d in CANONICAL_DIRECTIONS:
            for notion in SmallWorldNotion:
                with pytest.raises(ValueError, match="must be >= 1, got 0$"):
                    ratio_steps(notion, d, [0])

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

    def test_replace_and_make_are_checked(self):
        d = GrowthDirection("M", k=1, l=1)
        with pytest.raises(ValueError, match="fixed L must be >= 1, got 0"):
            d._replace(l=0)
        with pytest.raises(ValueError, match="varying parameter M must not be fixed"):
            GrowthDirection._make(("M", 2, 1, 1))
        assert d._replace(k=3) == GrowthDirection("M", k=3, l=1)

    def test_copy_and_pickle_give_an_equal_record(self):
        for d in CANONICAL_DIRECTIONS:
            for twin in (copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
                assert type(twin) is GrowthDirection and twin == d


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


def ratios(notion, direction, steps):
    return [ratio for _, _, ratio, _ in ratio_steps(notion, direction, steps)]


class TestRatioSequences:
    @pytest.mark.parametrize(
        "direction, steps, triples",
        [
            (GrowthDirection("M", k=2, l=3), [1, 4], [(1, 2, 3), (4, 2, 3)]),
            (GrowthDirection("K", m=2, l=3), [1, 5], [(2, 1, 3), (2, 5, 3)]),
            (GrowthDirection("L", m=4, k=1), [1, 7], [(4, 1, 1), (4, 1, 7)]),
        ],
        ids=["M", "K", "L"],
    )
    def test_each_slot_receives_the_step(self, direction, steps, triples):
        # the step fills the varying slot: n is the node count of that triple
        for notion in SmallWorldNotion:
            points = list(ratio_steps(notion, direction, steps))
            assert [n for n, _, _, _ in points] == list(map(node_count, triples))
            assert [pair for _, pair, _, _ in points] == list(map(_INDICATOR_PAIRS[notion], triples))

    def test_largest_degree_grows_with_core(self):
        d = GrowthDirection("M", k=1, l=1)
        found = ratios(DSWL, d, (10, 100, 1000))
        assert found[0] < found[1] < found[2]

    def test_diameter_ratio_shrinks_with_core(self):
        d = GrowthDirection("M", k=1, l=1)
        found = ratios(SWD, d, (10, 100, 1000))
        assert found[0] > found[1] > found[2]

    def test_mean_distance_ratio_grows_with_leg_length(self):
        d = GrowthDirection("L", m=2, k=1)
        found = ratios(SWA, d, (10, 100, 1000))
        assert found[0] < found[1] < found[2]

    def test_first_step_must_be_at_least_one(self):
        # at the call, before the first step; the message names the first step
        for d in CANONICAL_DIRECTIONS:
            for steps, first in (((0, 1, 2), 0), ([0, 5], 0), (iter([-3]), -3)):
                with pytest.raises(ValueError, match=rf"must be >= 1, got {first}$"):
                    ratio_steps(SWD, d, steps)

    def test_steps_must_increase(self):
        # at the call, before the first step
        d = GrowthDirection("M", k=1, l=1)
        for steps in ((10, 10, 20), [1, 3, 2], iter([5, 4])):
            with pytest.raises(ValueError, match="strictly increasing"):
                ratio_steps(DSWL, d, steps)

    def test_node_counts_recorded(self):
        d = GrowthDirection("K", m=2, l=1)
        points = ratio_steps(SWD, d, (2, 4, 8))
        assert [n for n, _, _, _ in points] == [6, 10, 18]

    @pytest.mark.parametrize("notion", list(SmallWorldNotion))
    @pytest.mark.parametrize("direction", CANONICAL_DIRECTIONS)
    def test_each_point_carries_its_log(self, notion, direction):
        steps = [*range(1, 40), *geometric_steps()[5:], 2**64, 3**50]
        for point in ratio_steps(notion, direction, steps):
            assert type(point) is tuple and len(point) == 4
            n, (p, q), ratio, log_n = point
            assert log_n == math.log(n)
            assert ratio == p / q / log_n

    def test_geometric_steps_doubling(self):
        assert geometric_steps() == [2 ** i for i in range(1, 13)]

    def test_diameter_ratio_quantified_convergence(self):
        for d in (GrowthDirection("M", k=1, l=1), GrowthDirection("K", m=2, l=1)):
            found = ratios(SWD, d, geometric_steps())
            assert found[-1] < 0.5
            assert found[-1] < found[0] / 2


class TestEveryCheckAtEveryStep:
    """A formula that goes wrong at a single step of a long sequence is caught there."""

    STEPS = range(2, 2002)

    def test_degree_groups(self, monkeypatch):
        real = closed_form._delta_groups

        def wrong_at_1500(p):
            (core, count), interior, terminal = real(p)
            return [(core + (p[0] == 1500), count), interior, terminal]

        monkeypatch.setattr(closed_form, "_delta_groups", wrong_at_1500)
        self.assert_caught_at_1500(DSWL, GrowthDirection("M", k=2, l=3), "total degree")

    def test_weighted_distance_sums(self, monkeypatch):
        # At l = 1500 the leg term of A'(1) is l(l+1)(l+2)/6; one more in its
        # numerator leaves a remainder that its own divisibility check must see.
        real = closed_form._exact

        def wrong_at_1500(numerator, divisor):
            return real(numerator + (numerator == 1500 * 1501 * 1502), divisor)

        monkeypatch.setattr(closed_form, "_exact", wrong_at_1500)
        self.assert_caught_at_1500(SWA, GrowthDirection("L", m=2, k=1), "not an integer")

    # The other three numerators, each at the one step of its direction where it
    # takes the value below: l(l+1), k(k-1) and m(m-1).
    @pytest.mark.parametrize(
        "direction, value",
        [
            (GrowthDirection("L", m=2, k=1), 1500 * 1501),
            (GrowthDirection("K", m=2, l=1), 1500 * 1499),
            (GrowthDirection("M", k=1, l=1), 1500 * 1499),
        ],
        ids=["half", "leg-pairs", "core-pairs"],
    )
    def test_pair_class_numerators(self, monkeypatch, direction, value):
        real = closed_form._exact

        def wrong_at_1500(numerator, divisor):
            return real(numerator + (numerator == value), divisor)

        monkeypatch.setattr(closed_form, "_exact", wrong_at_1500)
        self.assert_caught_at_1500(SWA, direction, "not an integer")

    # One more pair in any class term of A(1) misses pair_count's count.
    @pytest.mark.parametrize("row", [0, 1, 2])
    def test_pair_class_pairs(self, monkeypatch, row):
        real = closed_form._pair_classes

        def wrong_at_1500(p):
            rows = list(real(p))
            count, pairs, distance = rows[row]
            rows[row] = (count, pairs + (p[1] == 1500), distance)
            return rows

        monkeypatch.setattr(closed_form, "_pair_classes", wrong_at_1500)
        self.assert_caught_at_1500(SWA, GrowthDirection("K", m=2, l=2), "pair classes miss pairs")

    def test_degree_group_node_total(self, monkeypatch):
        real = closed_form._delta_groups

        def wrong_at_1500(p):
            core, (degree, count), terminal = real(p)
            return [core, (degree, count + (p[0] == 1500)), terminal]

        monkeypatch.setattr(closed_form, "_delta_groups", wrong_at_1500)
        self.assert_caught_at_1500(DSWL, GrowthDirection("M", k=2, l=3), "miss nodes")

    def test_negative_multiplicity(self, monkeypatch):
        real = closed_form._delta_groups

        def wrong_at_1500(p):
            # (7, 1) and (7, -1) leave the node total and degree sum as they were.
            return real(p) + [(7, 1), (7, -1)] * (p[0] == 1500)

        monkeypatch.setattr(closed_form, "_delta_groups", wrong_at_1500)
        self.assert_caught_at_1500(DSWL, GrowthDirection("M", k=2, l=3), "multiplicity is negative")

    def test_pair_count_expansion(self, monkeypatch):
        real = spiders.node_count

        def wrong_at_1500(p):
            return real(p) + (p[2] == 1500)

        # Of the SWA step, only pair_count looks the node count up in
        # spiders; the other forms keep their own n, and the expansion differs.
        monkeypatch.setattr(spiders, "node_count", wrong_at_1500)
        self.assert_caught_at_1500(SWA, GrowthDirection("L", m=2, k=1), "pair count expansion")

    def assert_caught_at_1500(self, notion, direction, match):
        with pytest.raises(ConsistencyError, match=match):
            list(ratio_steps(notion, direction, self.STEPS))
        rest = [t for t in self.STEPS if t != 1500]
        assert len(list(ratio_steps(notion, direction, rest))) == 1999


class TestClassification:
    @pytest.mark.parametrize("notion", list(SmallWorldNotion))
    @pytest.mark.parametrize("direction", CANONICAL_DIRECTIONS)
    def test_expected_cell(self, notion, direction):
        verdict = classify(notion, direction)
        want = EXPECTED_TABLE[(notion, direction.varying)]
        assert (verdict.diverges, verdict.is_small_world, verdict.is_ultra_small) == want
        assert verdict.notion is notion
        if not verdict.diverges:
            # A finite ratio tends to 0: the indicator stays bounded while ln(n) grows.
            near, far = ratios(notion, direction, [2**12, 2**64])
            assert far < near / 2

    def test_verdict_is_its_notion_and_divergence(self):
        assert list(SmallWorldVerdict._fields) == ["notion", "diverges"]
        for notion in SmallWorldNotion:
            degree = notion in (DSWL, DSWA)
            for diverges in (False, True):
                verdict = SmallWorldVerdict(notion, diverges)
                assert verdict.is_small_world == (diverges if degree else not diverges)
                assert verdict.is_ultra_small == (not degree and not diverges)

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


class TestFarPointCheck:
    """The interpolants through t = 2..8 must give the closed forms at both far points."""

    def test_a_term_from_t_2_40_on(self, monkeypatch):
        # From M = 2**40 on, the mean distance grows like M / 2 and SWA's ratio diverges.
        real = _INDICATOR_PAIRS[SWA]

        def wrong(p):
            total, pairs = real(p)
            m = p[0]
            return total + m**3 * (m >= 2**40), pairs

        monkeypatch.setitem(_INDICATOR_PAIRS, SWA, wrong)
        with pytest.raises(ConsistencyError, match="SWA vs M: the closed forms far out"):
            classify(SWA, GrowthDirection("M", k=1, l=1))

    @pytest.mark.parametrize("side", [0, 1], ids=["P", "Q"])
    @pytest.mark.parametrize("notion", list(SmallWorldNotion))
    def test_a_term_zero_at_every_probe(self, monkeypatch, notion, side):
        # (t - 2)(t - 3)...(t - 8) leaves every probe, and so both degrees, as they were.
        real = _INDICATOR_PAIRS[notion]

        def wrong(p):
            pair = list(real(p))
            pair[side] += math.prod(p[2] - t for t in GROWTH_PROBES)
            return tuple(pair)

        direction = GrowthDirection("L", m=2, k=1)
        monkeypatch.setitem(_INDICATOR_PAIRS, notion, wrong)
        with pytest.raises(ConsistencyError, match="closed forms far out"):
            classify(notion, direction)


fixed_values = st.integers(min_value=2, max_value=1000)
valid_directions = st.one_of(
    st.builds(lambda k, l: GrowthDirection("M", k=k, l=l), fixed_values, fixed_values),
    st.builds(lambda m, l: GrowthDirection("K", m=m, l=l), fixed_values, fixed_values),
    st.builds(lambda m, k: GrowthDirection("L", m=m, k=k), fixed_values, fixed_values),
)


def polynomial_degree(samples) -> int:
    """Degree of a polynomial with positive lead, from its values at consecutive integers."""
    return _newton_form(samples)[0]


class TestGrowthOrders:
    @given(
        st.lists(st.integers(min_value=-50, max_value=50), min_size=0, max_size=5),
        st.integers(min_value=1, max_value=50),
    )
    def test_degree_of_integer_polynomials(self, lower, lead):
        coeffs = lower + [lead]
        samples = [sum(c * t ** i for i, c in enumerate(coeffs)) for t in GROWTH_PROBES]
        assert polynomial_degree(samples) == len(coeffs) - 1

    @given(
        st.lists(st.integers(min_value=-50, max_value=50), min_size=0, max_size=5),
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=-(10**40), max_value=10**40),
    )
    def test_newton_form_gives_the_polynomial_at_any_t(self, lower, lead, t):
        coeffs = lower + [lead]

        def poly(x):
            return sum(c * x ** i for i, c in enumerate(coeffs))

        column = _newton_form([poly(x) for x in GROWTH_PROBES])[1]
        assert _newton_value(column, t) == poly(t)

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

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=2, max_value=10**300), st.integers(min_value=2, max_value=10**300))
    @example(10**20, 10**20)
    def test_classify_answers_fixed_values_up_to_10_300(self, a, b):
        # DSWA's ratio along M turns near M = K * L, past t = 2**128 from K = L = 10**20 on.
        for direction in (
            GrowthDirection("M", k=a, l=b),
            GrowthDirection("K", m=a, l=b),
            GrowthDirection("L", m=a, k=b),
        ):
            for notion in SmallWorldNotion:
                verdict = classify(notion, direction)
                want = EXPECTED_TABLE[(notion, direction.varying)]
                assert (verdict.diverges, verdict.is_small_world, verdict.is_ultra_small) == want
