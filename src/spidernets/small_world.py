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

Classification is analytic and exact: each indicator is a ratio of
polynomials in the growing parameter, so comparing polynomial degrees
decides whether it outgrows the logarithm.  A geometric-step ratio sequence
corroborates every verdict numerically.
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
    mean_distance_closed,
    average_degree_closed,
    total_distance_expression,
)
from spidernets.spiders import SpiderParams, node_count, normalize

NODE_CAP = 10_000_000
STEP_COUNT = 12


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
        """Substitute a concrete value into the varying slot."""
        if value < 1:
            raise ValueError(f"parameter value must be >= 1, got {value}")
        slots = {"M": self.m, "K": self.k, "L": self.l}
        slots[self.varying] = value
        return normalize(slots["M"], slots["K"], slots["L"])

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
    """One sample along a growth direction: the exact indicator and its ratio to ln(n)."""

    n: int
    numerator: Fraction
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


class _Poly:
    """Dense polynomial with Fraction coefficients, just enough for growth orders."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def variable(cls) -> "_Poly":
        return cls((0, 1))

    @classmethod
    def const(cls, value) -> "_Poly":
        return cls((value,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lead(self) -> Fraction:
        return self.coeffs[-1]

    def _coerce(self, other):
        if isinstance(other, _Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return _Poly.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        size = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (Fraction(0),) * (size - len(self.coeffs))
        b = other.coeffs + (Fraction(0),) * (size - len(other.coeffs))
        return _Poly([x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return _Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return _Poly(out)

    __rmul__ = __mul__


def numerator(notion: SmallWorldNotion, p: SpiderParams) -> Fraction:
    """The notion's indicator for one concrete spider, exact."""
    if node_count(p) < 3:
        raise ValueError("small-world indicators need at least 3 nodes")
    if notion is SmallWorldNotion.DSWL:
        return Fraction(max_degree(p))
    if notion is SmallWorldNotion.DSWA:
        return average_degree_closed(p)
    if notion is SmallWorldNotion.SWD:
        return Fraction(diameter_closed(p))
    return mean_distance_closed(p)


def ratio_sequence(
    notion: SmallWorldNotion, direction: GrowthDirection, steps
) -> list[RatioPoint]:
    """Sample indicator / ln(n) at strictly increasing parameter values."""
    steps = list(steps)
    if any(a >= b for a, b in zip(steps, steps[1:])):
        raise ValueError("steps must be strictly increasing")
    points = []
    for value in steps:
        p = direction.params_at(value)
        n = node_count(p)
        num = numerator(notion, p)
        points.append(RatioPoint(n, num, float(num) / math.log(n)))
    return points


def geometric_steps(
    direction: GrowthDirection, base: int = 2, count: int = STEP_COUNT
) -> list[int]:
    """Doubling parameter values, capped so node counts stay tractable."""
    steps = []
    for i in range(1, count + 1):
        value = base * 2 ** (i - 1)
        if node_count(direction.params_at(value)) > NODE_CAP:
            break
        steps.append(value)
    return steps


def _numerator_polynomials(notion: SmallWorldNotion, direction: GrowthDirection):
    """The indicator as a ratio of polynomials in the growing parameter."""
    t = _Poly.variable()
    m = t if direction.varying == "M" else _Poly.const(direction.m)
    k = t if direction.varying == "K" else _Poly.const(direction.k)
    l = t if direction.varying == "L" else _Poly.const(direction.l)
    if notion is SmallWorldNotion.DSWL:
        # The core degree m - 1 + k is the maximum in every valid regime.
        return m + k - 1, _Poly.const(1)
    if notion is SmallWorldNotion.DSWA:
        return m + 2 * k * l - 1, 1 + k * l
    if notion is SmallWorldNotion.SWD:
        return 2 * l + 1, _Poly.const(1)
    n = m * (1 + k * l)
    return total_distance_expression(m, k, l), n * (n - 1) * Fraction(1, 2)


def classify(notion: SmallWorldNotion, direction: GrowthDirection) -> SmallWorldVerdict:
    """Decide one cell of the verdict table.

    The analytic verdict compares polynomial degrees: an indicator of
    positive degree outgrows ln(n); one of degree <= 0 tends to a finite
    constant, so its ratio to ln(n) vanishes.  A doubling-step ratio
    sequence must show the matching monotone trend, otherwise the formulas
    and the asymptotics disagree and we fail loudly.
    """
    num, den = _numerator_polynomials(notion, direction)
    if num.lead <= 0 or den.lead <= 0:
        raise ConsistencyError("indicator polynomials must have positive leads")
    diverges = num.degree > den.degree
    limit = None if diverges else Fraction(0)
    is_small_world = diverges if notion in DEGREE_NOTIONS else not diverges
    verdict = SmallWorldVerdict(
        diverges=diverges,
        limit=limit,
        is_small_world=is_small_world,
        is_ultra_small=notion in DISTANCE_NOTIONS and not diverges,
    )
    ratios = [pt.ratio for pt in ratio_sequence(notion, direction, geometric_steps(direction))]
    tail = ratios[-4:]
    rising = all(a < b for a, b in zip(tail, tail[1:]))
    falling = all(a > b for a, b in zip(tail, tail[1:]))
    if diverges and not (rising and ratios[-1] > ratios[0]):
        raise ConsistencyError(f"{notion.value} vs {direction.varying}: expected rising ratios")
    if not diverges and not (falling and ratios[-1] < ratios[0]):
        raise ConsistencyError(f"{notion.value} vs {direction.varying}: expected falling ratios")
    return verdict


def verdict_table():
    """All 12 (notion, growth direction) verdicts with canonical fixed values."""
    return [
        (notion, direction, classify(notion, direction))
        for notion in SmallWorldNotion
        for direction in CANONICAL_DIRECTIONS
    ]


def verdict_label(notion: SmallWorldNotion, verdict: SmallWorldVerdict) -> str:
    """Human-readable verdict line fragment."""
    if verdict.diverges:
        if verdict.is_small_world:
            return "small world (ratio -> +inf)"
        return "not a small world (ratio -> +inf)"
    if verdict.is_ultra_small:
        return "ultra-small world (C=0)"
    if verdict.is_small_world:
        return f"small world (C={verdict.limit})"
    return "not a small world (ratio -> 0)"
