"""Exact indicator formulas for spider graphs.

``closed_form_report`` returns exactly the indicator record that
``graph_core.all_indicators`` computes on the constructed graph, without
building it.  The distance bookkeeping works by classifying unordered node
pairs:

* core-core pairs and core-to-adjacent-leg pairs are at distance 1;
* pairs inside one leg (including its core node) are at distance q - p;
* leg-leg pairs in the same bundle meet at their shared core node, so the
  distance is p + q;
* leg-leg pairs in different bundles cross two core nodes: p + q + 1;
* a leg node and a foreign core node are at distance p + 1.

Degree and gamma multisets are computed as (value, count) groups and the
alpha array as at most 4 linear runs, alpha_j = a + b*j on a range of j, so
``closed_form_report`` costs the same at every n; no array of length n is
ever built here.  The groups and runs go through
``graph_core.value_groups`` and ``graph_core.linear_runs``, the same
canonical forms the oracle's ``graph_core.Indicators`` record uses, so
``closed_form_report`` returns that record and it equals the oracle's field
by field.  Each function asserts its own counting identities (node totals,
sum rules, evaluated as sums of arithmetic series on the runs) before
returning and raises ConsistencyError on any disagreement, so a wrong
formula can never propagate silently.  The density and the average degree
are checked against the edge count as exact integer cross-products,
top * n(n-1) == 2E * bottom and top * n == 2E * bottom, which hold exactly
when the fractions are equal since both denominators are positive; only
the value returned is built as a ``Fraction``.

The forms a small-world indicator uses (the degree groups and the largest
degree, the diameter and the total distance) are functions of the three
ints (m, k, l), named ``..._at``, and so are ``spiders``' node, edge and
pair counts; each function of a ``SpiderParams`` with the same name is a
one-line adapter onto them.  A ratio sequence thus steps over ints and runs
the same checks as a report: the largest degree is read off the checked
degree pairs unsorted, and the total distance checks each of its six
divisions and its halving inline.
"""

from __future__ import annotations

from fractions import Fraction

from spidernets.graph_core import Indicators, h_index_of_groups, linear_runs, value_groups
from spidernets.spiders import (
    ConsistencyError,
    SpiderParams,
    edge_count,
    edge_count_at,
    node_count,
    node_count_at,
    pair_count,
)


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise ConsistencyError(message)


def _sums(pairs) -> tuple[int, int]:
    """Sums of count and of value * count over formula pairs; a negative count is a formula error.

    Merging equal values changes neither sum, so they are taken over the raw
    pairs, before ``value_groups``.
    """
    count_sum = value_sum = 0
    for value, count in pairs:
        if count < 0:
            raise ConsistencyError("a multiplicity is negative")
        count_sum += count
        value_sum += value * count
    return count_sum, value_sum


def _delta_groups(m: int, k: int, l: int):
    """Degree multiset: core nodes, interior leg nodes, terminal leg nodes."""
    return [(m - 1 + k, m), (2, k * m * (l - 1)), (1, k * m)]


def _checked_delta_groups(m: int, k: int, l: int):
    """``_delta_groups`` of (m, k, l) after delta's three checks, as raw (degree, count) pairs."""
    pairs = _delta_groups(m, k, l)
    nodes, degree_sum = _sums(pairs)
    _check(nodes == node_count_at(m, k, l), "degree groups miss nodes")
    _check(degree_sum == 2 * edge_count_at(m, k, l), "total degree is not twice the edge count")
    return pairs


def delta_groups(p: SpiderParams) -> tuple[tuple[int, int], ...]:
    """Degree multiset as non-increasing (degree, count) groups, at most 3."""
    return delta_groups_at(*p)


def delta_groups_at(m: int, k: int, l: int) -> tuple[tuple[int, int], ...]:
    """``delta_groups`` of the spider (m, k, l)."""
    return value_groups(_checked_delta_groups(m, k, l))


def max_degree(p: SpiderParams) -> int:
    """Largest degree, without materializing the array."""
    return max_degree_at(*p)


def max_degree_at(m: int, k: int, l: int) -> int:
    """``max_degree`` of the spider (m, k, l), read off the checked pairs without sorting them."""
    return max(value for value, count in _checked_delta_groups(m, k, l) if count)


def _gamma_groups(p: SpiderParams):
    """Own degree plus neighbor degrees per node, as (value, count) pairs.

    Needs genuine case dispatch on the leg length: the neighbors of a leg
    node change character at l = 1 and l = 2, and interior degree-6 nodes
    only appear from l = 3 on.
    """
    m, k, l = p
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
    pairs = _gamma_groups(p)
    nodes, gamma_sum = _sums(pairs)
    _check(nodes == node_count(p), "gamma groups miss nodes")
    # Summing gamma over nodes counts each degree once plus once per neighbor.
    degree_square_sum = sum(count * value * value for value, count in _delta_groups(*p))
    _check(
        gamma_sum == 2 * edge_count(p) + degree_square_sum,
        "gamma sum identity failed",
    )
    return value_groups(pairs)


def _alpha_lines(p: SpiderParams):
    """Distance frequencies as lines (first, last, a, b): alpha_j = a + b*j.

    Counting pairs at distance j >= 2 by class: within one leg k*m*(L+1-j)
    up to j = L+1; leg to foreign core k*m*(m-1) up to j = L+1; same-bundle
    leg pairs j-1 per pair of legs, rising up to L+1 and falling as 2L+1-j
    after; and cross-bundle leg pairs, one core hop longer, rising as j-2 up
    to L+2 and falling as 2L+2-j after.  So alpha is linear on 2..L+1 and on
    L+2..2L+1, and zero beyond the diameter.  Ranges may be empty or reach
    past n-1, where they hold only zeros.
    """
    m, k, l = p
    legs = k * m
    same = m * (k * (k - 1) // 2)
    cross = (m * (m - 1) // 2) * k * k
    return [
        (1, 1, m * (m - 1) // 2 + legs * l, 0),
        (2, l + 1, legs * (l + 1) - same - 2 * cross + legs * (m - 1), same + cross - legs),
        (l + 2, 2 * l + 1, same * (2 * l + 1) + cross * (2 * l + 2), -same - cross),
        (2 * l + 2, node_count(p) - 1, 0, 0),
    ]


def alpha_runs(p: SpiderParams) -> tuple[tuple[int, int, int, int], ...]:
    """Distance frequencies for j = 1..n-1 as at most 4 canonical linear runs.

    A run (first, last, a, b) stands for alpha_j = a + b*j at
    j = first..last; the runs are ``linear_runs`` of the lines, clipped to
    j <= n-1, so they follow each other without gaps and end at n-1.
    """
    n = node_count(p)
    if n < 2:
        raise ValueError("distance frequencies need at least 2 nodes")
    runs = linear_runs(
        (first, min(last, n - 1), a, b)
        for first, last, a, b in _alpha_lines(p)
        if first <= min(last, n - 1)
    )
    _check(_run_sums(runs)[0] == pair_count(p), "distance frequencies do not sum to all pairs")
    return runs


def _run_sums(runs) -> tuple[int, int]:
    """Sums of alpha_j and of j * alpha_j over linear runs, as arithmetic series."""
    pairs = total = 0
    for first, last, a, b in runs:
        count = last - first + 1
        j_sum = (first + last) * count // 2
        j_square_sum = (
            last * (last + 1) * (2 * last + 1) - (first - 1) * first * (2 * first - 1)
        ) // 6
        pairs += a * count + b * j_sum
        total += a * j_sum + b * j_square_sum
    return pairs, total


def diameter_closed(p: SpiderParams) -> int:
    """Largest distance: terminal to terminal across the core in the general case."""
    return diameter_closed_at(*p)


def diameter_closed_at(m: int, k: int, l: int) -> int:
    """``diameter_closed`` of the spider (m, k, l)."""
    if m > 1:
        return 2 * l + 1
    if k > 1:
        return 2 * l
    if k == 1:
        return l
    return 0


def density_closed(p: SpiderParams) -> Fraction:
    """Exact density from the parameters, cross-checked against edge counts."""
    n = node_count(p)
    if n < 2:
        raise ValueError("density needs at least 2 nodes")
    m, k, l = p
    top, bottom = 2 * k * l + m - 1, m * (1 + k * l) ** 2 - (1 + k * l)
    _check(
        top * n * (n - 1) == 2 * edge_count(p) * bottom,
        "density formula disagrees with edge count",
    )
    return Fraction(top, bottom)


def h_index_closed(p: SpiderParams) -> int:
    """h-index of the degree array, by parameter regime."""
    return _h_index_checked(p, delta_groups(p))


def _h_index_checked(p: SpiderParams, delta) -> int:
    """h-index by parameter regime, checked against the degree groups delta of p."""
    m, k, l = p
    if k == 0:
        value = m - 1
    elif m > 1:
        value = m
    elif k > 1:
        value = 1 if l == 1 else 2
    else:
        value = 2 if l > 2 else 1
    _check(
        value == h_index_of_groups(delta),
        "h-index regime disagrees with the degree multiset",
    )
    return value


def average_degree_closed(p: SpiderParams) -> Fraction:
    """Mean degree (m + 2kl - 1) / (1 + kl), exact."""
    m, k, l = p
    top, bottom = m + 2 * k * l - 1, 1 + k * l
    _check(
        top * node_count(p) == 2 * edge_count(p) * bottom,
        "average degree disagrees with edge count",
    )
    return Fraction(top, bottom)


def _weighted_distance_numerators(l: int):
    """Six distance-weighted pair counts inside and between legs, times 6, 2, 3, 3, 6 and 6."""
    return (
        l * (l - 1) * (l + 4),  # within one leg: distances 2..l
        l * (l + 3),  # leg to foreign core: 2..l+1
        l * (l + 1) * (l + 2),  # same-bundle leg pairs rising: 2..l+1, multiplicity s-1
        2 * l * (l - 1) * (l + 1),  # and falling: l+2..2l, multiplicity 2l+1-s
        l * (l + 1) * (2 * l + 7),  # cross-bundle leg pairs, one core hop longer: 3..l+2
        l * (l - 1) * (4 * l + 7),  # and l+3..2l+1
    )


def total_distance_closed(p: SpiderParams) -> int:
    """Exact total distance over unordered pairs."""
    return total_distance_closed_at(*p)


def total_distance_closed_at(m: int, k: int, l: int) -> int:
    """``total_distance_closed`` of the spider (m, k, l)."""
    if node_count_at(m, k, l) < 2:
        raise ValueError("total distance needs at least 2 nodes")
    within, foreign, same_r, same_f, cross_r, cross_f = _weighted_distance_numerators(l)
    # Six remainders, each checked: one check on their sum would miss errors that cancel.
    within, r1 = divmod(within, 6)
    foreign, r2 = divmod(foreign, 2)
    same_r, r3 = divmod(same_r, 3)
    same_f, r4 = divmod(same_f, 3)
    cross_r, r5 = divmod(cross_r, 6)
    cross_f, r6 = divmod(cross_f, 6)
    _check(not (r1 or r2 or r3 or r4 or r5 or r6), "weighted distance sum is not an integer")
    total, odd = divmod(
        m * (m - 1)
        + 2 * m * k * l
        + 2 * k * m * within
        + 2 * k * m * (m - 1) * foreign
        + m * k * (k - 1) * (same_r + same_f)
        + m * k * k * (m - 1) * (cross_r + cross_f),
        2,
    )
    _check(not odd, "total distance is not an integer")
    return total


def closed_form_report(p: SpiderParams) -> Indicators:
    """Evaluate every closed form, verify they agree with each other, and return the record.

    The record is in the canonical form of ``graph_core.all_indicators``, so
    it equals the oracle's record of ``build_spider(p)`` field by field.
    """
    if node_count(p) < 2:
        raise ValueError("indicator report needs at least 2 nodes")
    alpha = alpha_runs(p)
    total = total_distance_closed(p)
    _check(
        total == _run_sums(alpha)[1],
        "total distance disagrees with the distance frequencies",
    )
    average_degree_closed(p)  # run for its own check; the record has no such field
    delta = delta_groups(p)
    return Indicators(
        delta=delta,
        gamma=gamma_groups(p),
        alpha=alpha,
        density=density_closed(p),
        diameter=diameter_closed(p),
        h_index=_h_index_checked(p, delta),
        total_distance=total,
    )
