"""Exact indicator formulas for spider graphs.

``closed_form_report`` returns exactly the indicator record that
``graph_core.all_indicators`` computes on the constructed graph, without
building it.  Its distance indicators are read off one polynomial, the sum
of x^d over unordered node pairs at distance d (Wilf, generatingfunctionology):

    A(x) = m k Q(x) + m C(k,2) L(x)^2 + C(m,2) x B(x)^2,

with L = x + ... + x^l, Q = L + sum of (l-d) x^d for d < l, and B = 1 + k L.
Its terms are plain integer expressions in (m, k, l):

* m k Q: two nodes of one leg, its core node included, q - p apart;
* m C(k,2) L^2: nodes of two legs of one core node, p + q apart;
* C(m,2) x B^2: two nodes under different core nodes, p + 1 + q apart.

A(1) is the pair count and A'(1) the total distance, from the rows (count,
P(1), P'(1)) of ``_pair_classes``; the coefficients of A, in ``_alpha_lines``,
are the distance frequencies alpha_j, and deg A the diameter.  Degree and gamma
multisets are (value, count) groups and alpha at most 4 linear runs, the
canonical forms (``graph_core.value_groups``, ``linear_runs``) of the
oracle's ``Indicators`` record, so the records are equal field by field and
no array of length n is built.  The checks, each a ConsistencyError:

* degree groups: no negative count, the node total, twice the edge count;
* gamma groups: no negative count, the node total, the sum identity;
* A: each exact division on its own numerator, A(1) = ``pair_count``, and
  in a report, from that A(1) and one pass over the runs, sum alpha_j = A(1)
  and sum j alpha_j = A'(1);
* density: an integer cross-product with the edge count;
* h-index: its regime against the report's own degree groups ``delta``.

Every form takes the triple p, a ``SpiderParams`` or a plain (m, k, l)
tuple, and only unpacks it, so a small-world step runs the same function,
with the same checks, on the ints of its step.
"""

from __future__ import annotations

from fractions import Fraction

from spidernets.graph_core import Indicators, h_index_of_groups, linear_runs, value_groups
from spidernets.spiders import ConsistencyError, SpiderParams, edge_count, node_count, pair_count


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


def _delta_groups(p: SpiderParams):
    """Degree multiset: core nodes, interior leg nodes, terminal leg nodes."""
    m, k, l = p
    return [(m - 1 + k, m), (2, k * m * (l - 1)), (1, k * m)]


def _checked_delta_groups(p: SpiderParams):
    """``_delta_groups`` of p after delta's three checks, as raw (degree, count) pairs."""
    pairs = _delta_groups(p)
    nodes, degree_sum = _sums(pairs)
    _check(nodes == node_count(p), "degree groups miss nodes")
    _check(degree_sum == 2 * edge_count(p), "total degree is not twice the edge count")
    return pairs


def delta_groups(p: SpiderParams) -> tuple[tuple[int, int], ...]:
    """Degree multiset as non-increasing (degree, count) groups, at most 3."""
    return value_groups(_checked_delta_groups(p))


def max_degree(p: SpiderParams) -> int:
    """Largest degree, read off the checked pairs without sorting them."""
    (core, _), (two, interior), (one, terminals) = _checked_delta_groups(p)
    return max(core, interior and two, terminals and one)  # a leg degree where it has nodes


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
    degree_square_sum = sum(count * value * value for value, count in _delta_groups(p))
    _check(
        gamma_sum == 2 * edge_count(p) + degree_square_sum,
        "gamma sum identity failed",
    )
    return value_groups(pairs)


def _exact(numerator: int, divisor: int) -> int:
    """numerator / divisor, which must leave no remainder."""
    quotient, remainder = divmod(numerator, divisor)
    if remainder:
        raise ConsistencyError("a pair-class term is not an integer")
    return quotient


def _pair_classes(p: SpiderParams):
    """The terms Q, L^2 and x B^2 of A(x) as rows (count, P(1), P'(1)), summed for A(1), A'(1)."""
    m, k, l = p
    half = _exact(l * (l + 1), 2)  # Q(1) = L'(1)
    legs, cores = _exact(k * (k - 1), 2), _exact(m * (m - 1), 2)  # C(k,2), C(m,2)
    b = 1 + k * l  # B(1)
    return (
        (m * k, half, _exact(l * (l + 1) * (l + 2), 6)),
        (m * legs, l * l, l * l * (l + 1)),
        (cores, b * b, b * (b + 2 * k * half)),
    )


def _alpha_lines(p: SpiderParams):
    """Distance frequencies as lines (first, last, a, b), alpha_j = a + b*j: A's coefficients.

    A term is count times a P with coefficients (c, a, b, a', b'): c at x,
    a + b*j at x^j for j = 2..l+1 and a' + b'*j for j = l+2..2l+1, none past
    x^(2l+1).  The counts are taken here, so a report builds ``_pair_classes``
    once.  Ranges may be empty or reach past n-1, where they hold only zeros.
    """
    m, k, l = p
    c1, c2, c3, kk = m * k, m * (k * (k - 1) // 2), m * (m - 1) // 2, k * k
    q, s = (l, l + 1, -1, 0, 0), (0, -1, 1, 2 * l + 1, -1)
    t = (1, 2 * (k - kk), kk, 2 * kk * (l + 1), -kk)
    c, a, b, a2, b2 = [c1 * x + c2 * y + c3 * z for x, y, z in zip(q, s, t)]
    end = node_count(p) - 1
    return [(1, 1, c, 0), (2, l + 1, a, b), (l + 2, 2 * l + 1, a2, b2), (2 * l + 2, end, 0, 0)]


def _alpha_runs(p: SpiderParams, n: int, pairs: int):
    """The lines clipped to j <= n-1 as runs, and their sum of j*alpha_j; alpha sums to pairs."""
    runs = linear_runs(
        (first, min(last, n - 1), a, b)
        for first, last, a, b in _alpha_lines(p)
        if first <= min(last, n - 1)
    )
    run_pairs, run_total = _run_sums(runs)
    _check(run_pairs == pairs, "distance frequencies do not sum to all pairs")
    return runs, run_total


def alpha_runs(p: SpiderParams) -> tuple[tuple[int, int, int, int], ...]:
    """Distance frequencies for j = 1..n-1 as at most 4 canonical linear runs.

    A run (first, last, a, b) stands for alpha_j = a + b*j at
    j = first..last; the runs are ``linear_runs`` of the lines, clipped to
    j <= n-1, so they follow each other without gaps and end at n-1.
    """
    n = node_count(p)
    if n < 2:
        raise ValueError("distance frequencies need at least 2 nodes")
    return _alpha_runs(p, n, pair_count(p))[0]


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
    """Largest distance: deg A, the largest degree of a present term.

    x B(x)^2 (two core nodes) has degree 2l+1, terminal to terminal across
    the core, L(x)^2 (two legs at one core node) 2l and Q(x) (one leg) l;
    with none present, a single node, 0.
    """
    m, k, l = p
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


def _h_index_regime(p: SpiderParams, delta) -> int:
    """h-index of the degree array by parameter regime, checked against the groups delta."""
    m, k, l = p
    if k == 0:
        value = m - 1
    elif m > 1:
        value = m
    elif k > 1:
        value = 1 if l == 1 else 2
    else:
        value = 2 if l > 2 else 1
    _check(value == h_index_of_groups(delta), "h-index regime disagrees with the degree multiset")
    return value


def h_index_closed(p: SpiderParams) -> int:
    """h-index of the degree array, by parameter regime, checked against ``delta_groups``."""
    return _h_index_regime(p, delta_groups(p))


def total_distance_closed(p: SpiderParams) -> int:
    """Exact total distance over unordered pairs: A'(1) of ``distance_sums``."""
    return distance_sums(p)[0]


def distance_sums(p: SpiderParams) -> tuple[int, int]:
    """(A'(1), A(1)), the total distance and the pair count.

    A(1) = 0 is fewer than 2 nodes, a ValueError; else it must be ``pair_count``.
    """
    (c1, p1, d1), (c2, p2, d2), (c3, p3, d3) = _pair_classes(p)
    pairs = c1 * p1 + c2 * p2 + c3 * p3
    if not pairs:
        raise ValueError("total distance needs at least 2 nodes")
    _check(pairs == pair_count(p), "pair classes miss pairs")
    return c1 * d1 + c2 * d2 + c3 * d3, pairs


def closed_form_report(p: SpiderParams) -> Indicators:
    """Evaluate every closed form, verify they agree with each other, and return the record.

    The record is in the canonical form of ``graph_core.all_indicators``, so
    it equals the oracle's record of ``build_spider(p)`` field by field.
    """
    n = node_count(p)
    if n < 2:
        raise ValueError("indicator report needs at least 2 nodes")
    total, pairs = distance_sums(p)
    alpha, run_total = _alpha_runs(p, n, pairs)
    _check(run_total == total, "total distance disagrees with the distance frequencies")
    delta = delta_groups(p)
    return Indicators(
        delta=delta,
        gamma=gamma_groups(p),
        alpha=alpha,
        density=density_closed(p),
        diameter=diameter_closed(p),
        h_index=_h_index_regime(p, delta),
        total_distance=total,
    )
