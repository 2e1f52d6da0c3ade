"""Exact indicator formulas for spider graphs.

Every function here returns exactly what the brute-force machinery in
``graph_core`` produces on the constructed graph, without building it.  The
distance bookkeeping works by classifying unordered node pairs:

* core-core pairs and core-to-adjacent-leg pairs are at distance 1;
* pairs inside one leg (including its core node) are at distance q - p;
* leg-leg pairs in the same bundle meet at their shared core node, so the
  distance is p + q;
* leg-leg pairs in different bundles cross two core nodes: p + q + 1;
* a leg node and a foreign core node are at distance p + 1.

Degree and gamma multisets are computed as (value, count) groups and the
alpha array as its head up to distance 2L+1 plus its length n-1; the
``*_closed`` functions expand them to full arrays.  Each function asserts its
own counting identities (node totals, sum rules) before returning and raises
ConsistencyError on any disagreement, so a wrong formula can never propagate
silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from spidernets.graph_core import h_index
from spidernets.spiders import (
    ConsistencyError,
    SpiderParams,
    edge_count,
    node_count,
    pair_count,
)


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise ConsistencyError(message)


def _groups(pairs) -> tuple[tuple[int, int], ...]:
    """(value, count) pairs as non-increasing groups, equal values merged.

    Groups with count 0 are dropped; a negative count is a formula error.
    """
    merged: dict[int, int] = {}
    for value, count in pairs:
        _check(count >= 0, "a multiplicity is negative")
        if count:
            merged[value] = merged.get(value, 0) + count
    return tuple(sorted(merged.items(), reverse=True))


def _expand(groups) -> tuple[int, ...]:
    """The array that non-increasing (value, count) groups stand for."""
    values: list[int] = []
    for value, count in groups:
        values += [value] * count
    return tuple(values)


def _delta_groups(p: SpiderParams):
    """Degree multiset: core nodes, interior leg nodes, terminal leg nodes."""
    m, k, l = p.m, p.k, p.l
    return [(m - 1 + k, m), (2, k * m * (l - 1)), (1, k * m)]


def delta_groups(p: SpiderParams) -> tuple[tuple[int, int], ...]:
    """Degree multiset as non-increasing (degree, count) groups, at most 3."""
    groups = _groups(_delta_groups(p))
    _check(sum(c for _, c in groups) == node_count(p), "degree groups miss nodes")
    _check(
        sum(v * c for v, c in groups) == 2 * edge_count(p),
        "total degree is not twice the edge count",
    )
    return groups


def delta_closed(p: SpiderParams) -> tuple[int, ...]:
    """Degrees sorted non-increasing, from the multiset alone."""
    return _expand(delta_groups(p))


def max_degree(p: SpiderParams) -> int:
    """Largest degree, without materializing the array."""
    return delta_groups(p)[0][0]


def _gamma_groups(p: SpiderParams):
    """Own degree plus neighbor degrees per node, as (value, count) pairs.

    Needs genuine case dispatch on the leg length: the neighbors of a leg
    node change character at l = 1 and l = 2, and interior degree-6 nodes
    only appear from l = 3 on.
    """
    m, k, l = p.m, p.k, p.l
    if k == 0:
        return [(m * (m - 1), m)]
    if l == 1:
        return [(m * (m - 1 + k) + k, m), (m + k, m * k)]
    if l == 2:
        return [(m * (m - 1 + k) + 2 * k, m), (m + k + 2, m * k), (3, m * k)]
    return [
        (m * (m - 1 + k) + 2 * k, m),
        (m + k + 3, m * k),
        (6, (l - 3) * m * k),
        (5, m * k),
        (3, m * k),
    ]


def gamma_groups(p: SpiderParams) -> tuple[tuple[int, int], ...]:
    """Gamma multiset as non-increasing (value, count) groups, at most 5."""
    groups = _groups(_gamma_groups(p))
    _check(sum(c for _, c in groups) == node_count(p), "gamma groups miss nodes")
    # Summing gamma over nodes counts each degree once plus once per neighbor.
    degree_square_sum = sum(count * value * value for value, count in _delta_groups(p))
    _check(
        sum(v * c for v, c in groups) == 2 * edge_count(p) + degree_square_sum,
        "gamma sum identity failed",
    )
    return groups


def gamma_closed(p: SpiderParams) -> tuple[int, ...]:
    """Own degree plus neighbor degrees per node, sorted non-increasing."""
    return _expand(gamma_groups(p))


def _pairs_summing_to(l: int, s: int) -> int:
    """Number of position pairs (p, q) in [1, l]^2 with p + q = s."""
    return max(0, min(s - 1, 2 * l + 1 - s))


def alpha_head(p: SpiderParams) -> tuple[tuple[int, ...], int]:
    """Distance frequencies for j = 1..min(2L+1, n-1), and the length n-1.

    No two nodes are farther apart than 2L+1, so every entry past the head
    is zero.  One uniform formula covers all normalized parameters; groups
    that do not apply contribute zero through their pair counts.
    """
    n = node_count(p)
    if n < 2:
        raise ValueError("distance frequencies need at least 2 nodes")
    m, k, l = p.m, p.k, p.l
    same_bundle_leg_pairs = m * (k * (k - 1) // 2)
    cross_bundle_leg_pairs = (m * (m - 1) // 2) * k * k
    head = [m * (m - 1) // 2 + m * k * l]
    for j in range(2, min(2 * l + 1, n - 1) + 1):
        within_leg = k * m * (l - (j - 1)) if j <= l else 0
        same_bundle = same_bundle_leg_pairs * _pairs_summing_to(l, j)
        cross_bundle = cross_bundle_leg_pairs * _pairs_summing_to(l, j - 1)
        to_foreign_core = k * m * (m - 1) if j <= l + 1 else 0
        head.append(within_leg + same_bundle + cross_bundle + to_foreign_core)
    _check(sum(head) == pair_count(p), "distance frequencies do not sum to all pairs")
    return tuple(head), n - 1


def alpha_closed(p: SpiderParams) -> tuple[int, ...]:
    """Distance frequencies over unordered pairs, entries for j = 1..n-1."""
    head, length = alpha_head(p)
    return head + (0,) * (length - len(head))


def diameter_closed(p: SpiderParams) -> int:
    """Largest distance: terminal to terminal across the core in the general case."""
    if p.m > 1:
        return 2 * p.l + 1
    if p.k > 1:
        return 2 * p.l
    if p.k == 1:
        return p.l
    return 0


def density_closed(p: SpiderParams) -> Fraction:
    """Exact density from the parameters, cross-checked against edge counts."""
    n = node_count(p)
    if n < 2:
        raise ValueError("density needs at least 2 nodes")
    m, k, l = p.m, p.k, p.l
    value = Fraction(2 * k * l + m - 1, m * (1 + k * l) ** 2 - (1 + k * l))
    _check(
        value == Fraction(2 * edge_count(p), n * (n - 1)),
        "density formula disagrees with edge count",
    )
    return value


def _h_from_groups(groups) -> int:
    """h-index of a value multiset given as non-increasing (value, count) groups."""
    h = 0
    rank = 0
    for value, count in groups:
        rank += count
        h = max(h, min(value, rank))
    return h


def h_index_closed(p: SpiderParams) -> int:
    """h-index of the degree array, by parameter regime."""
    m, k, l = p.m, p.k, p.l
    if k == 0:
        value = m - 1
    elif m > 1:
        value = m
    elif k > 1:
        value = 1 if l == 1 else 2
    else:
        value = 2 if l > 2 else 1
    _check(
        value == _h_from_groups(delta_groups(p)),
        "h-index regime disagrees with the degree multiset",
    )
    return value


def average_degree_closed(p: SpiderParams) -> Fraction:
    """Mean degree (m + 2kl - 1) / (1 + kl), exact."""
    value = Fraction(p.m + 2 * p.k * p.l - 1, 1 + p.k * p.l)
    _check(
        value == Fraction(2 * edge_count(p), node_count(p)),
        "average degree disagrees with edge count",
    )
    return value


def _weighted_distance_sums(l):
    """Six distance-weighted pair counts inside and between legs.

    In order: within one leg (distances 2..l weighted by occurrences); leg to
    foreign core (distances 2..l+1); same-bundle leg pairs split into the
    rising part (distances 2..l+1, multiplicity s-1) and the falling part
    (distances l+2..2l, multiplicity 2l+1-s); cross-bundle leg pairs likewise
    (distances 3..l+2 and l+3..2l+1, shifted by the extra core hop).

    Works for any arithmetic that supports + and * with Fractions, so the
    asymptotics code can evaluate it on polynomials.
    """
    within = l * (l - 1) * (l + 4) * Fraction(1, 6)
    foreign_core = l * (l + 3) * Fraction(1, 2)
    same_rising = l * (l + 1) * (l + 2) * Fraction(1, 3)
    same_falling = l * (l - 1) * (l + 1) * Fraction(2, 3)
    cross_rising = l * (l + 1) * (2 * l + 7) * Fraction(1, 6)
    cross_falling = l * (l - 1) * (4 * l + 7) * Fraction(1, 6)
    return within, foreign_core, same_rising, same_falling, cross_rising, cross_falling


def total_distance_expression(m, k, l):
    """Sum of all pair distances as a single expression in m, k, l.

    Accepts plain integers (returns a Fraction) or polynomial-like values.
    """
    within, foreign, same_r, same_f, cross_r, cross_f = _weighted_distance_sums(l)
    half = Fraction(1, 2)
    return (
        m * (m - 1) * half
        + m * k * l
        + k * m * within
        + k * m * (m - 1) * foreign
        + m * k * (k - 1) * half * (same_r + same_f)
        + m * k * k * (m - 1) * half * (cross_r + cross_f)
    )


def total_distance_closed(p: SpiderParams) -> int:
    """Exact total distance over unordered pairs."""
    if node_count(p) < 2:
        raise ValueError("total distance needs at least 2 nodes")
    for piece in _weighted_distance_sums(p.l):
        _check(piece.denominator == 1, "weighted distance sum is not an integer")
    total = total_distance_expression(p.m, p.k, p.l)
    _check(total.denominator == 1, "total distance is not an integer")
    return int(total)


def mean_distance_closed(p: SpiderParams) -> Fraction:
    """Average distance over unordered pairs, exact."""
    return Fraction(total_distance_closed(p), pair_count(p))


@dataclass(frozen=True)
class ClosedFormReport:
    """All closed-form indicators of one spider, in grouped form.

    ``delta_groups`` and ``gamma_groups`` are non-increasing (value, count)
    groups; the alpha array is ``alpha_head`` followed by zeros up to
    ``alpha_length`` = n - 1 entries.
    """

    delta_groups: tuple[tuple[int, int], ...]
    gamma_groups: tuple[tuple[int, int], ...]
    alpha_head: tuple[int, ...]
    alpha_length: int
    diameter: int
    density: Fraction
    h_index: int
    average_degree: Fraction
    total_distance: int


def closed_form_report(p: SpiderParams) -> ClosedFormReport:
    """Evaluate every closed form and verify they agree with each other."""
    if node_count(p) < 2:
        raise ValueError("indicator report needs at least 2 nodes")
    # The h-index cross-check expands the degree array first, so a spider
    # too large to list fails here at once, before the O(L) alpha head.
    delta = delta_groups(p)
    h = h_index_closed(p)
    _check(h == h_index(_expand(delta)), "h-index disagrees with the degree array")
    alpha, length = alpha_head(p)
    total = total_distance_closed(p)
    _check(
        total == sum(j * a for j, a in enumerate(alpha, start=1)),
        "total distance disagrees with the distance frequencies",
    )
    return ClosedFormReport(
        delta_groups=delta,
        gamma_groups=gamma_groups(p),
        alpha_head=alpha,
        alpha_length=length,
        diameter=diameter_closed(p),
        density=density_closed(p),
        h_index=h,
        average_degree=average_degree_closed(p),
        total_distance=total,
    )
