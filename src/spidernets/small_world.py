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
the first 12 doublings (t up to 4096), then one more doubling at a time, up
to t = 2**128, until the trend shows.

A ratio sequence keeps each indicator as the unreduced integer pair (P, Q)
of its closed forms; it is reduced to lowest terms only for output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from spidernets.closed_form import (
    ConsistencyError,
    diameter_closed,
    max_degree,
    total_distance_closed,
)
from spidernets.spiders import SpiderParams, edge_count, node_count, pair_count

GROWTH_PROBES = range(2, 9)  # seven samples pin down degrees up to 5
STEP_COUNT = 12
MAX_DOUBLINGS = 128


class SmallWorldNotion(Enum):
    DSWL = "DSWL"
    DSWA = "DSWA"
    SWD = "SWD"
    SWA = "SWA"


DEGREE_NOTIONS = frozenset({SmallWorldNotion.DSWL, SmallWorldNotion.DSWA})
DISTANCE_NOTIONS = frozenset({SmallWorldNotion.SWD, SmallWorldNotion.SWA})


@dataclass(frozen=True)
class GrowthDirection:
    """One parameter grows without bound; the other two are held fixed.

    The varying slot is None; fixed slots must satisfy the general-case
    preconditions (m >= 2, k >= 1, l >= 1) so that the core degree and the
    terminal-to-terminal diameter formulas stay valid along the sequence.
    """

    varying: str
    m: int | None = None
    k: int | None = None
    l: int | None = None

    def __post_init__(self):
        if self.varying not in ("M", "K", "L"):
            raise ValueError(f"varying must be M, K, or L, got {self.varying!r}")
        fixed = {"M": self.m, "K": self.k, "L": self.l}
        if fixed.pop(self.varying) is not None:
            raise ValueError(f"varying parameter {self.varying} must not be fixed")
        minima = {"M": 2, "K": 1, "L": 1}
        for name, value in fixed.items():
            if value is None:
                raise ValueError(f"fixed parameter {name} missing")
            if value < minima[name]:
                raise ValueError(f"fixed {name} must be >= {minima[name]}, got {value}")

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


@dataclass(frozen=True)
class RatioPoint:
    """One sample along a growth direction: the exact indicator and its ratio to ln(n).

    ``pair`` is the indicator as the unreduced integer ratio (P, Q) of its
    closed forms.
    """

    n: int
    pair: tuple[int, int]
    ratio: float


@dataclass(frozen=True)
class SmallWorldVerdict:
    """Outcome of one limit test.

    ``limit`` is the ratio's limit when finite (None when it diverges); for
    spiders a finite limit is always 0 because every indicator is a rational
    function of the growing parameter.
    """

    diverges: bool
    limit: Fraction | None
    is_small_world: bool
    is_ultra_small: bool


# Each notion's indicator as an integer ratio P / Q of closed forms.
_INDICATOR_PAIRS = {
    SmallWorldNotion.DSWL: lambda p: (max_degree(p), 1),
    SmallWorldNotion.DSWA: lambda p: (2 * edge_count(p), node_count(p)),
    SmallWorldNotion.SWD: lambda p: (diameter_closed(p), 1),
    SmallWorldNotion.SWA: lambda p: (total_distance_closed(p), pair_count(p)),
}


def ratio_sequence(
    notion: SmallWorldNotion, direction: GrowthDirection, steps
) -> list[RatioPoint]:
    """Sample indicator / ln(n) at strictly increasing parameter values.

    Each point keeps the closed forms' pair (P, Q) as it comes and takes the
    ratio as P / Q / ln(n); int true division is correctly rounded, so this
    equals float(Fraction(P, Q)) / ln(n) bit for bit.  A growth direction's
    spiders have at least 2 nodes, so every indicator is defined and
    ln(n) > 0.
    """
    steps = list(steps)
    if any(a >= b for a, b in zip(steps, steps[1:])):
        raise ValueError("steps must be strictly increasing")
    indicator_pair = _INDICATOR_PAIRS[notion]
    points = []
    for value in steps:
        p = direction.params_at(value)
        n = node_count(p)
        pair = indicator_pair(p)
        points.append(RatioPoint(n, pair, pair[0] / pair[1] / math.log(n)))
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
    at t = 2, 4, ..., 2**STEP_COUNT, extended one doubling at a time up to
    t = 2**MAX_DOUBLINGS where they do not yet show it, must show the
    matching monotone trend; otherwise the formulas and the asymptotics
    disagree and we fail loudly.
    """
    indicator_pair = _INDICATOR_PAIRS[notion]
    pairs = [indicator_pair(direction.params_at(t)) for t in GROWTH_PROBES]
    diverges = polynomial_degree(p for p, _ in pairs) > polynomial_degree(q for _, q in pairs)
    limit = None if diverges else Fraction(0)
    is_small_world = diverges if notion in DEGREE_NOTIONS else not diverges
    verdict = SmallWorldVerdict(
        diverges=diverges,
        limit=limit,
        is_small_world=is_small_world,
        is_ultra_small=notion in DISTANCE_NOTIONS and not diverges,
    )
    ratios = [pt.ratio for pt in ratio_sequence(notion, direction, geometric_steps())]
    while not _shows_trend(ratios, diverges):
        if len(ratios) == MAX_DOUBLINGS:
            trend = "rising" if diverges else "falling"
            raise ConsistencyError(
                f"{notion.value} vs {direction.varying}: expected {trend} ratios"
            )
        step = 2 ** (len(ratios) + 1)
        ratios += [pt.ratio for pt in ratio_sequence(notion, direction, [step])]
    return verdict


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
