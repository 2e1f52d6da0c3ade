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

Classification is exact: each indicator is an integer ratio P / Q of closed
forms that are polynomials in the growing parameter t, and it outgrows the
logarithm exactly when deg P > deg Q.  The degrees are read off exact
forward differences of P and Q at t = 2..8, whose Newton interpolants must
give both closed forms at two far points.  Their 6th difference must vanish,
so that proves the verdict if P and Q are polynomials of degree at most 5;
it does not prove that they are.

A ratio sequence keeps each indicator as the unreduced integer pair (P, Q)
of its closed forms, reduced to lowest terms only for output.
``_INDICATOR_PAIRS`` gives each notion's (P, Q) as closed forms of the
triple (m, k, l), run at every step with every check they make: DSWL's
three degree checks; for SWA, (A'(1), A(1)) of ``distance_sums`` with its
four divisibility checks and A(1) against ``pair_count`` and its expansion;
none beyond the formulas for DSWA and SWD.  ``_ratio_steps`` yields one step
at a time, for a list or a CSV.  ``classify`` reads the same table.
"""

from __future__ import annotations

import itertools
import math
import operator
from enum import Enum
from typing import NamedTuple

from spidernets.closed_form import ConsistencyError, diameter_closed, distance_sums, max_degree
from spidernets.spiders import SpiderParams, edge_count, node_count

GROWTH_PROBES = range(2, 9)  # seven samples pin down degrees up to 5
STEP_COUNT = 12


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
    SmallWorldNotion.DSWL: lambda p: (max_degree(p), 1),
    SmallWorldNotion.DSWA: lambda p: (2 * edge_count(p), node_count(p)),
    SmallWorldNotion.SWD: lambda p: (diameter_closed(p), 1),
    SmallWorldNotion.SWA: distance_sums,
}


def ratio_sequence(notion: SmallWorldNotion, direction: GrowthDirection, steps) -> list[RatioPoint]:
    """Sample indicator / ln(n) at strictly increasing parameter values: ``_ratio_steps``."""
    return list(map(RatioPoint._make, _ratio_steps(notion, direction, steps)))


def _ratio_steps(notion: SmallWorldNotion, direction: GrowthDirection, steps):
    """Each step's (n, pair, ratio, log_n), the fields of a ``RatioPoint``, as it is asked for.

    The steps are checked at the call: strictly increasing, the first at
    least 1.  ``GrowthDirection`` has checked the fixed slots, so the
    notion's closed forms run straight on each step's tuple (m, k, l), every
    check included.  A point keeps the pair (P, Q) as it comes and ln(n),
    taken once; its ratio P / Q / ln(n) is correctly rounded int true
    division, float(Fraction(P, Q)) / ln(n) bit for bit; n >= 2, so ln(n) > 0.
    """
    steps = list(steps)
    if not all(map(operator.lt, steps, steps[1:])):
        raise ValueError("steps must be strictly increasing")
    if steps and steps[0] < 1:
        raise ValueError(f"parameter value must be >= 1, got {steps[0]}")
    indicator_pair = _INDICATOR_PAIRS[notion]
    log = math.log
    # The varying slot is the one left None; the fixed ones repeat.
    slots = [
        steps if fixed is None else itertools.repeat(fixed)
        for fixed in (direction.m, direction.k, direction.l)
    ]

    def points():
        for p in zip(*slots):
            n = node_count(p)
            pair = indicator_pair(p)
            log_n = log(n)
            yield n, pair, pair[0] / pair[1] / log_n, log_n

    return points()


def geometric_steps() -> list[int]:
    """Doubling parameter values 2, 4, ..., 2**STEP_COUNT."""
    return [2 ** i for i in range(1, STEP_COUNT + 1)]


def _newton_form(samples) -> tuple[int, list[int]]:
    """Degree and Newton coefficients of a polynomial, from its values at t0, t0 + 1, ...

    The coefficients are the forward differences at t0, and the polynomial is
    the sum of coefficient j times C(t - t0, j).  Degree d means constant,
    nonzero d-th differences (d! times the lead) and vanishing higher ones.
    Raises ConsistencyError unless the last difference (the 6th for seven
    samples) vanishes and the top nonzero one is positive.
    """
    column, row = [], list(samples)
    while row:
        column.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    if column[-1] != 0:
        raise ConsistencyError("growth samples are not a polynomial of low enough degree")
    degree = max((d for d, difference in enumerate(column) if difference), default=None)
    if degree is None or column[degree] <= 0:
        raise ConsistencyError("growth polynomial must have a positive lead")
    return degree, column


def _newton_value(column: list[int], t: int) -> int:
    """The polynomial with these Newton coefficients at the probes, at t."""
    value, binomial, x = 0, 1, t - GROWTH_PROBES[0]
    for j, coefficient in enumerate(column):
        value += coefficient * binomial
        binomial = binomial * (x - j) // (j + 1)  # C(x, j + 1), exactly
    return value


def classify(notion: SmallWorldNotion, direction: GrowthDirection) -> SmallWorldVerdict:
    """Decide one cell of the verdict table.

    The indicator is P / Q for closed forms P and Q that are polynomials in
    the growing parameter t, so it outgrows ln(n) exactly when deg P > deg Q;
    otherwise it tends to a constant and its ratio to ln(n) vanishes.  The
    forward differences of (P, Q) at t = 2..8, in ints, give both degrees
    and both Newton interpolants.  These must give P and Q exactly at T and
    T + 1, where T = 2**64 * n(1)**2 (n(1) the node count at t = 1) lies past
    every product of the fixed values and so past any case split that
    compares t with them; otherwise ConsistencyError.  The seven probes, whose
    6th difference must vanish, pin down a polynomial of degree at most 5, so
    if P and Q are such polynomials for t >= 2, the verdict is proved, and a
    term that vanishes at the probes but acts at T or T + 1 is caught.  The
    check does not prove that they are: a fault that acts only between t = 8
    and T, or vanishes at both far points, passes.
    """
    indicator_pair = _INDICATOR_PAIRS[notion]
    probes = [indicator_pair(direction.params_at(t)) for t in GROWTH_PROBES]
    (p_degree, p_column), (q_degree, q_column) = map(_newton_form, zip(*probes))
    far = 2**64 * node_count(direction.params_at(1)) ** 2
    for t in (far, far + 1):
        p, q = indicator_pair(direction.params_at(t))
        if (_newton_value(p_column, t), _newton_value(q_column, t)) != (p, q):
            raise ConsistencyError(
                f"{notion.value} vs {direction.varying}: the closed forms far out"
                " are not the polynomials through t = 2..8"
            )
    return SmallWorldVerdict(notion, p_degree > q_degree)


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
