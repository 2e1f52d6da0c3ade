"""Small-world classification of growing spider families.

A growth direction sends one of the three parameters to infinity while the
other two stay fixed (fixed core size at least 2, fixed leg count and length
at least 1, so the general-case indicator formulas apply).  Four notions are
tested, each comparing an indicator against ln(n):

* DSWL: largest degree / ln(n) must diverge;
* DSWA: average degree / ln(n) must diverge;
* SWD: diameter / ln(n) must converge to a finite C >= 0;
* SWA: mean distance / ln(n) must converge to a finite C >= 0.

A converging SWD or SWA ratio with C = 0 is an ultra-small world.

Classification is analytic and exact: each indicator is an integer ratio
P / Q of closed forms that are polynomials in the growing parameter t, so
comparing their degrees decides whether it outgrows the logarithm.  The
degrees are read off exact forward differences of P and Q at t = 2..8.  A
ratio sequence at doubling steps corroborates every verdict numerically:
the first 12 doublings (t up to 4096), then one more doubling at a time
until the trend shows, for at most 128 doublings plus the bit length of the
family's node count at t = 1.

A ratio sequence keeps each indicator as the unreduced integer pair (P, Q)
of its closed forms, reduced to lowest terms only for output.
``_INDICATOR_PAIRS`` gives each notion's (P, Q) as closed forms of the ints
(m, k, l), run at every step with every check they make: DSWL's three
degree checks; for SWA, (A'(1), A(1)) of ``distance_sums_at`` with its four
divisibility checks and A(1) against ``pair_count_at`` and its expansion;
none beyond the formulas for DSWA and SWD.  Each step yields one
``RatioPoint`` with n and ln(n).  ``classify`` reads the same table.
"""

from __future__ import annotations

import itertools
import math
import operator
from enum import Enum
from typing import NamedTuple

from spidernets.closed_form import (
    ConsistencyError,
    diameter_closed_at,
    distance_sums_at,
    max_degree_at,
)
from spidernets.spiders import (
    SpiderParams,
    edge_count_at,
    node_count,
    node_count_at,
)

GROWTH_PROBES = range(2, 9)  # seven samples pin down degrees up to 5
STEP_COUNT = 12
MAX_DOUBLINGS = 128


class SmallWorldNotion(Enum):
    DSWL = "DSWL"
    DSWA = "DSWA"
    SWD = "SWD"
    SWA = "SWA"


DEGREE_NOTIONS = frozenset({SmallWorldNotion.DSWL, SmallWorldNotion.DSWA})


class _GrowthFields(NamedTuple):
    varying: str
    m: int | None
    k: int | None
    l: int | None


class GrowthDirection(_GrowthFields):
    """One parameter grows without bound; the other two are held fixed.

    The varying slot is None; fixed slots must satisfy the general-case
    preconditions (m >= 2, k >= 1, l >= 1) so that the core degree and the
    terminal-to-terminal diameter formulas stay valid along the sequence.
    A named tuple; ``_make``, ``_replace``, copying and unpickling check it too.
    """

    __slots__ = ()

    def __new__(
        cls, varying: str, m: int | None = None, k: int | None = None, l: int | None = None
    ):
        if varying not in ("M", "K", "L"):
            raise ValueError(f"varying must be M, K, or L, got {varying!r}")
        fixed = {"M": m, "K": k, "L": l}
        if fixed.pop(varying) is not None:
            raise ValueError(f"varying parameter {varying} must not be fixed")
        minima = {"M": 2, "K": 1, "L": 1}
        for name, value in fixed.items():
            if value is None:
                raise ValueError(f"fixed parameter {name} missing")
            if value < minima[name]:
                raise ValueError(f"fixed {name} must be >= {minima[name]}, got {value}")
        return super().__new__(cls, varying, m, k, l)

    @classmethod
    def _make(cls, iterable):
        """Through ``__new__``, so ``_replace`` checks too; the inherited ``_make`` skips it."""
        return cls(*iterable)

    def params_at(self, value: int) -> SpiderParams:
        """Substitute a concrete value into the varying slot.

        Every slot is then at least 1, so the parameters are already in
        normalized form.
        """
        if value < 1:
            raise ValueError(f"parameter value must be >= 1, got {value}")
        if self.varying == "M":
            return SpiderParams(value, self.k, self.l)
        if self.varying == "K":
            return SpiderParams(self.m, value, self.l)
        return SpiderParams(self.m, self.k, value)

    def describe_fixed(self) -> str:
        parts = [
            f"{name}={value}"
            for name, value in (("M", self.m), ("K", self.k), ("L", self.l))
            if value is not None
        ]
        return ", ".join(parts)


CANONICAL_DIRECTIONS = (
    GrowthDirection("M", k=1, l=1),
    GrowthDirection("K", m=2, l=1),
    GrowthDirection("L", m=2, k=1),
)


class RatioPoint(NamedTuple):
    """One sample along a growth direction: the exact indicator and its ratio to ln(n).

    ``pair`` is the indicator as the unreduced integer ratio (P, Q) of its
    closed forms, and ``log_n`` is math.log(n), the float that ``ratio`` =
    P / Q / ``log_n`` divides by.  A named tuple, so it is immutable and
    cheap to make once per step.
    """

    n: int
    pair: tuple[int, int]
    ratio: float
    log_n: float


class SmallWorldVerdict(NamedTuple):
    """Outcome of one limit test: whether the notion's ratio to ln(n) diverges.

    A ratio that does not diverge tends to 0, because every indicator is a
    rational function of the growing parameter.  Degree notions ask for a
    diverging ratio, distance notions for a finite one, and a finite one is
    then ultra-small.
    """

    notion: SmallWorldNotion
    diverges: bool

    @property
    def is_small_world(self) -> bool:
        return self.diverges == (self.notion in DEGREE_NOTIONS)

    @property
    def is_ultra_small(self) -> bool:
        return not self.diverges and self.notion not in DEGREE_NOTIONS


# Each notion's indicator as an integer ratio P / Q of closed forms of (m, k, l).
_INDICATOR_PAIRS = {
    SmallWorldNotion.DSWL: lambda m, k, l: (max_degree_at(m, k, l), 1),
    SmallWorldNotion.DSWA: lambda m, k, l: (2 * edge_count_at(m, k, l), node_count_at(m, k, l)),
    SmallWorldNotion.SWD: lambda m, k, l: (diameter_closed_at(m, k, l), 1),
    SmallWorldNotion.SWA: distance_sums_at,
}


def ratio_sequence(
    notion: SmallWorldNotion, direction: GrowthDirection, steps
) -> list[RatioPoint]:
    """Sample indicator / ln(n) at strictly increasing parameter values.

    The steps are checked once: strictly increasing, the first at least 1.
    ``GrowthDirection`` has checked the fixed slots, so each step is a valid
    normalized spider, and the notion's closed forms run straight on its
    ints (m, k, l), every consistency check included.  Each point keeps the
    pair (P, Q) as it comes and ln(n), taken once, and its ratio is
    P / Q / ln(n); int true division is correctly rounded, so this equals
    float(Fraction(P, Q)) / ln(n) bit for bit.  Every spider of a growth
    direction has n >= 2, so ln(n) > 0.
    """
    steps = list(steps)
    if not all(map(operator.lt, steps, steps[1:])):
        raise ValueError("steps must be strictly increasing")
    if steps and steps[0] < 1:
        raise ValueError(f"parameter value must be >= 1, got {steps[0]}")
    indicator_pair = _INDICATOR_PAIRS[notion]
    log = math.log
    # The varying slot is the one left None; the fixed ones repeat.
    slots = (
        steps if fixed is None else itertools.repeat(fixed)
        for fixed in (direction.m, direction.k, direction.l)
    )
    make_point = tuple.__new__  # RatioPoint without its Python-level __new__, twice as fast
    points = []
    for m, k, l in zip(*slots):
        n = node_count_at(m, k, l)
        pair = indicator_pair(m, k, l)
        log_n = log(n)
        points.append(make_point(RatioPoint, (n, pair, pair[0] / pair[1] / log_n, log_n)))
    return points


def geometric_steps() -> list[int]:
    """Doubling parameter values 2, 4, ..., 2**STEP_COUNT."""
    return [2 ** i for i in range(1, STEP_COUNT + 1)]


def polynomial_degree(samples) -> int:
    """Degree of a polynomial with positive lead, from its values at consecutive integers.

    A polynomial of degree d has constant d-th forward differences, d! times
    its leading coefficient, and vanishing higher ones, so the degree is the
    highest order with a nonzero difference.  Raises ConsistencyError unless
    the last difference (the 6th for seven samples) vanishes and the top
    nonzero difference is positive.
    """
    rows = [list(samples)]
    while len(rows[-1]) > 1:
        row = rows[-1]
        rows.append([b - a for a, b in zip(row, row[1:])])
    if rows[-1][0] != 0:
        raise ConsistencyError("growth samples are not a polynomial of low enough degree")
    degree = max((d for d, row in enumerate(rows) if any(row)), default=None)
    if degree is None or rows[degree][0] <= 0:
        raise ConsistencyError("growth polynomial must have a positive lead")
    return degree


def _shows_trend(ratios: list[float], rising: bool) -> bool:
    """The last four ratios strictly monotone in the expected direction.

    The last ratio must also lie past the first.
    """
    if not rising:
        ratios = [-r for r in ratios]
    tail = ratios[-4:]
    return all(a < b for a, b in zip(tail, tail[1:])) and ratios[-1] > ratios[0]


def classify(notion: SmallWorldNotion, direction: GrowthDirection) -> SmallWorldVerdict:
    """Decide one cell of the verdict table.

    The indicator is P / Q for closed forms P and Q that are polynomials in
    the growing parameter t, so it outgrows ln(n) exactly when deg P > deg Q;
    otherwise it tends to a finite constant and its ratio to ln(n) vanishes.
    The degrees come from exact forward differences at t = 2..8.  The ratios
    at t = 2, 4, ..., 2**STEP_COUNT, extended one doubling at a time where
    they do not yet show it, must show the matching monotone trend; otherwise
    the formulas and the asymptotics disagree and we fail loudly.  A trend
    can turn as late as t near the product of the fixed values (DSWA along M
    turns near M = K * L), so the walk stops after MAX_DOUBLINGS doublings
    plus the bit length of the node count at t = 1.
    """
    pairs = [pt.pair for pt in ratio_sequence(notion, direction, GROWTH_PROBES)]
    diverges = polynomial_degree(p for p, _ in pairs) > polynomial_degree(q for _, q in pairs)
    horizon = MAX_DOUBLINGS + node_count(direction.params_at(1)).bit_length()
    ratios = [pt.ratio for pt in ratio_sequence(notion, direction, geometric_steps())]
    while not _shows_trend(ratios, diverges):
        if len(ratios) == horizon:
            trend = "rising" if diverges else "falling"
            raise ConsistencyError(
                f"{notion.value} vs {direction.varying}: expected {trend} ratios"
            )
        step = 2 ** (len(ratios) + 1)
        ratios += [pt.ratio for pt in ratio_sequence(notion, direction, [step])]
    return SmallWorldVerdict(notion, diverges)


def verdict_table():
    """All 12 (notion, growth direction) verdicts with canonical fixed values."""
    return [
        (notion, direction, classify(notion, direction))
        for notion in SmallWorldNotion
        for direction in CANONICAL_DIRECTIONS
    ]


def verdict_label(verdict: SmallWorldVerdict) -> str:
    """Human-readable verdict line fragment."""
    if verdict.diverges:
        if verdict.is_small_world:
            return "small world (ratio -> +inf)"
        return "not a small world (ratio -> +inf)"
    if verdict.is_ultra_small:
        return "ultra-small world (C=0)"
    return "not a small world (ratio -> 0)"
