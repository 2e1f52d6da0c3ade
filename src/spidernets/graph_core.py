"""Undirected simple graphs with brute-force network indicators.

Everything here is computed directly from the adjacency structure, so results
can serve as ground truth for the analytic formulas in ``closed_form``.  The
distance indicators all come from one distance histogram per graph, counted
in two parts.  The nodes of degree at most 1 are peeled until only the
2-core is left, and each pendant tree is folded into its 2-core node as a
depth histogram, one 64-bit lane per depth.  A leaf is only counted by its
parent and a walk up a chain appends one lane per node; where a node has
several children, big-int products of their histograms count the pairs
between their subtrees; and the pairs of a node and its ancestors come from
one suffix sum over the roots' lanes.  The pairs between the trees of two
2-core nodes come from one bit-parallel sweep over the 2-core, which
advances a BFS from every 2-core node together, one level per pass over the
adjacency, with the sources packed as bits of Python ints.  A tree has an
empty 2-core and runs no sweep; a spider with a core of m >= 3 nodes sweeps
just those m.  The count is exact on every graph and uses no symmetry of
it.  Density is an exact fraction, never a float, so cross-checks are exact
equality.  All functions are pure and safe to call concurrently.

``all_indicators`` returns ``Indicators``, the one record of a graph's
indicators, a named tuple shared with ``closed_form``: degree and gamma
multisets as merged (value, count) groups and alpha as canonical linear
runs, so two records of the same graph are equal field by field whichever
side computed them.  It reads the distance histogram only up to the
diameter and sorts no array of length n.  Plain per-source BFS and the full
sorted arrays are not kept here; the tests hold them as references.
"""

from __future__ import annotations

import itertools
import operator
import sys
from array import array
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

# A depth histogram walked up a chain is an int up to 32 lanes and a
# bytearray that grows in place beyond (``_distance_lanes``).
_SHORT_BITS = 64 * 31
_LANE_ONE = (1).to_bytes(8, "big")


class Graph(NamedTuple):
    """Undirected simple graph: node count plus a sorted neighbor tuple per node.

    A named tuple of two fields, so ``len(g)`` is 2; the node count is ``g.n``.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def num_edges(self) -> int:
        return sum(map(len, self.adjacency)) // 2


class Indicators(NamedTuple):
    """The indicators of a connected graph with n >= 2, in canonical form.

    ``delta`` and ``gamma`` are the degree and gamma multisets as
    ``value_groups``; ``alpha`` holds the pairs at each distance j = 1..n-1
    as ``linear_runs``.
    """

    delta: tuple[tuple[int, int], ...]
    gamma: tuple[tuple[int, int], ...]
    alpha: tuple[tuple[int, int, int, int], ...]
    density: Fraction
    diameter: int
    h_index: int
    total_distance: int


def value_groups(pairs) -> tuple[tuple[int, int], ...]:
    """(value, count) pairs as non-increasing groups, equal values merged.

    Groups whose count sums to 0 are dropped.
    """
    merged: dict[int, int] = {}
    for value, count in pairs:
        merged[value] = merged.get(value, 0) + count
    return tuple(sorted([group for group in merged.items() if group[1]], reverse=True))


def linear_runs(runs) -> tuple[tuple[int, int, int, int], ...]:
    """The greedy-left maximal linear runs of the array that runs stand for.

    A run (first, last, a, b) stands for the entries a + b*j at
    j = first..last, none when last < first; the runs follow each other
    without gaps.  Each output run reaches as far as the entries stay on one
    line, and a run of one entry, only ever the last, has b = 0, so every
    split of an array into linear runs gives the same output.  Each input
    run is merged in one step: if its first entry lies on the last output
    line, the line extends over the run when the slopes match or the run
    has one entry, else it ends at that entry and the rest starts anew.
    """
    out: list[tuple[int, int, int, int]] = []
    for first, last, a, b in runs:
        if last < first:
            continue
        if out:
            start, end, a0, b0 = out[-1]
            value = a + b * first
            if start == end:  # any two entries lie on one line
                b0 = value - a0
                a0 -= b0 * start
            if a0 + b0 * first == value:
                if b0 == b or last == first:
                    out[-1] = (start, last, a0, b0)
                    continue
                out[-1] = (start, first, a0, b0)
                first += 1
        out.append((first, last, a, b) if last > first else (first, first, a + b * first, 0))
    return tuple(out)


def _distance_lanes(g: Graph) -> list[int]:
    """Ordered pairs at each distance 0..D, for D the largest finite distance.

    Nodes of degree at most 1 are peeled from a queue until only the 2-core
    is left (the k-core peel of Seidman 1983 and Batagelj & Zaversnik 2003).
    A peeled node has at most one unpeeled neighbor, its parent; a node left
    with none is the root of a tree component, and each 2-core node is the
    root of its pendant tree.  W_v, the depth histogram of v's pendant
    subtree, has one 64-bit lane per depth, 1 at depth 0 for v itself.

    - A leaf only adds 1 to its parent's count of leaf children.
    - A node u whose only child was just folded, and which has one
      neighbor left, is not queued: the walk goes on up to it at once, with
      its W the child's one lane deeper plus its own lane 0.  So a chain
      costs O(1) per node.  W is an int up to 32 lanes and beyond that a
      bytearray of big-endian lanes with lane 0 last, so the new lane is
      appended in place and ``int.from_bytes(..., "big")`` gives the int.
    - Any other W_u, shifted one lane deeper, joins ``weight[p]``, the lanes
      of p's children folded so far (lane 0 empty).  If that is C != 0, the
      big-int product C * (W_u << 64) convolves the lanes (Kronecker
      substitution): it counts by distance the pairs of a node of u's
      subtree and a node of an earlier child's.  ``_with_leaves`` adds p's
      leaves and p itself when p is peeled or reaches the sweep.
    - A node at depth d below its root has one ancestor at each distance
      1..d, so the pairs of a node and its ancestor at distance j are the
      nodes at depth >= j: one suffix sum over the lanes of the roots' W.
    - The pairs between the trees of two 2-core nodes come from
      ``_core_pairs``, which gets the 2-core's W as ints.

    Only a node with a second child copies lanes and multiplies: on a
    spider, each core node for its k - 1 later legs, O(n) words in all.  A
    tree copies at most about n^2 / 2 words, as when each node of a
    caterpillar's spine has a leaf.  Every lane is at most n^2, so lanes
    stay below 2^64 while n < 2^32; the node caps keep n far below that.
    """
    n = g.n
    adjacency = g.adjacency
    degree = list(map(len, adjacency))
    peeled = [False] * n
    leaves = [0] * n
    weight = [0] * n
    roots = []
    cross = 0
    queue = [u for u in range(n) if degree[u] <= 1]
    for u in queue:  # grows while it is read: a node joins it on dropping to degree 1
        if weight[u] or leaves[u]:
            w, pairs = _with_leaves(weight[u], leaves[u])
            weight[u] = 0
            cross += pairs
        else:  # a leaf, or an isolated node
            peeled[u] = True
            if not degree[u]:
                roots.append(u)
                weight[u] = 1
                continue
            for p in adjacency[u]:
                if not peeled[p]:
                    break
            degree[p] -= 1
            if degree[p] != 1 or weight[p] or leaves[p]:
                leaves[p] += 1
                if degree[p] == 1:
                    queue.append(p)
                continue
            u, w = p, 1 << 64 | 1  # u is p's only child: walk on
        while True:  # w is W_u
            peeled[u] = True
            if not degree[u]:
                roots.append(u)
                weight[u] = w if w.__class__ is int else int.from_bytes(w, "big")
                break
            for p in adjacency[u]:
                if not peeled[p]:
                    break
            degree[p] -= 1
            c = weight[p]
            if not c and degree[p] == 1 and not leaves[p]:  # u is p's only child: walk on
                if w.__class__ is not int:
                    w += _LANE_ONE
                elif w.bit_length() <= _SHORT_BITS:
                    w = w << 64 | 1
                else:
                    w = bytearray(w.to_bytes(-(-w.bit_length() // 64) * 8, "big")) + _LANE_ONE
                u = p
                continue
            if w.__class__ is not int:
                w = int.from_bytes(w, "big")
            w <<= 64
            if c:
                cross += c * w
                w += c
            weight[p] = w
            if degree[p] == 1:
                queue.append(p)
            break
    core = [u for u in range(n) if not peeled[u]] if False in peeled else []
    for u in core:
        weight[u], pairs = _with_leaves(weight[u], leaves[u])
        cross += pairs
    depths = _lanes(sum(map(weight.__getitem__, itertools.chain(roots, core))))
    above = list(itertools.accumulate(reversed(depths[1:])))
    above.reverse()  # above[j - 1]: the nodes at depth >= j
    total = n + 2 * (cross + (_wide_lanes(above) << 64))
    if core:
        total += _core_pairs(adjacency, core, weight)
    return _lanes(total)


def _with_leaves(lanes: int, leaves: int) -> tuple[int, int]:
    """W of a node from the lanes of its children other than leaves and its count of leaves.

    Also returns the pairs its leaves add, in lanes: a leaf and a node at
    depth j of another child are j + 1 apart, and two leaves are 2 apart.
    """
    pairs = (leaves * lanes + (leaves * (leaves - 1) // 2 << 64)) << 64
    return lanes + (leaves << 64 | 1), pairs


def _core_pairs(adjacency, core: list[int], weight: list[int]) -> int:
    """Ordered pairs between the trees of distinct 2-core nodes, by distance, in 64-bit lanes.

    A node x in a's tree and y in b's tree are d_x + d(a, b) + d_y apart, so
    the pairs add up to the sum of W_a * W_b << 64 * d(a, b) over a != b.
    One bit-parallel BFS runs from every 2-core node at once, with Python
    ints as bitsets over the node ids.  At level j, ``ring[u]`` holds the
    nodes at distance exactly j from u and ``unseen[u]`` the 2-core nodes
    farther than j.  The nodes at distance j+1 from u are the nodes of its
    neighbors' rings that u has not seen yet; a peeled neighbor's ring stays
    empty, since no path between 2-core nodes enters a pendant tree.  So
    each level is one pass over the adjacency of the nodes whose rings still
    grow.  A node leaves the pass once it has seen every 2-core node, at its
    eccentricity: its last ring stays for its neighbors to read, and its
    next would be empty.  On a complete core that is after one pass.  A node
    that never sees them all, on a disconnected 2-core, leaves when its ring
    comes out empty.  The 2-core nodes are grouped into classes of equal
    W, and each new ring adds popcount(ring & class mask) to its level's
    tally for the pair of its source's class and that class.  Each class
    pair then adds W_a * W_b times its tallies as lanes.  The grouping only
    regroups the sum, so the count is exact on every graph; the number of
    classes sets only the cost.  A spider's 2-core has one class.
    """
    classes: dict[int, int] = {}  # W -> mask of its 2-core nodes
    for u in core:
        classes[weight[u]] = classes.get(weight[u], 0) | 1 << u
    masks = list(classes.values())
    k = len(masks)
    first = {w: k * c for c, w in enumerate(classes)}
    row = {u: first[weight[u]] for u in core}  # where u's class row starts in a tally
    everyone = sum(masks)
    n = len(adjacency)
    ring = [0] * n
    unseen = [0] * n
    for u in core:
        ring[u] = 1 << u
        unseen[u] = everyone ^ ring[u]
    tallies = []  # level j = 1, 2, ...: k * k counts, source class major
    active = core
    while active:
        next_ring = [0] * n
        growing = []
        tally = [0] * (k * k)
        for u in active:
            r = 0
            for v in adjacency[u]:
                r |= ring[v]
            r &= unseen[u]
            if r:
                next_ring[u] = r
                unseen[u] ^= r
                base = row[u]
                for c, mask in enumerate(masks):
                    tally[base + c] += (r & mask).bit_count()
                if unseen[u]:
                    growing.append(u)
        ring, active = next_ring, growing
        tallies.append(tally)
    pairs = 0
    for i, (wa, wb) in enumerate(itertools.product(classes, repeat=2)):
        pairs += wa * wb * _wide_lanes([0] + [tally[i] for tally in tallies])
    return pairs


def _wide_lanes(values) -> int:
    """Non-negative values below 2^64 as a Python int, one 64-bit lane each, the first lowest."""
    return int.from_bytes(array("Q", values), sys.byteorder)


def _lanes(value: int) -> list[int]:
    """The 64-bit lanes of a non-negative int, the lowest first, up to its highest non-zero one."""
    return list(array("Q", value.to_bytes(8 * -(-value.bit_length() // 64), sys.byteorder)))


def h_index_of_groups(groups) -> int:
    """The largest h such that at least h entries are >= h, of the array that groups stand for.

    The (value, count) groups must be in non-increasing value order with
    non-negative values and counts; a group with count 0 stands for no
    entries, and no entries have h-index 0.  Runs group by group, in time
    linear in the number of groups.
    """
    groups = [(value, count) for value, count in groups if count]
    if any(count < 0 for _, count in groups):
        raise ValueError("h-index group counts must be non-negative")
    for (a, _), (b, _) in zip(groups, groups[1:]):
        if a < b:
            raise ValueError("h-index input must be sorted non-increasing")
    if groups and groups[-1][0] < 0:
        raise ValueError("h-index input must be non-negative")
    h = 0
    for value, count in groups:
        if value < h + count:
            # Entries of this group qualify up to rank value; no later one does.
            return max(h, value)
        h += count
    return h


def all_indicators(g: Graph) -> Indicators:
    """Compute the full indicator record for a connected graph with n >= 2.

    Only the distance lanes up to the diameter d are read: every alpha entry
    past it is 0, one run.  Up to d, each stretch of equal differences is
    one run, found without a Python step per entry.  The degree and gamma
    multisets are counted without sorting n values; a ``Counter`` already
    holds them merged and without zero counts, so its items are their
    groups once sorted.  The density takes 2E from the same degree list.
    """
    n = g.n
    if n <= 1:
        raise ValueError("density needs at least 2 nodes")
    degree = list(map(len, g.adjacency))
    counts = _distance_lanes(g)
    if sum(counts) < n * n:
        raise ValueError("distance indicators need a connected graph")
    alpha = [c // 2 for c in counts[1:]]
    d = len(alpha)
    runs, j = [], 1
    for b, steps in itertools.groupby(map(operator.sub, alpha[1:], alpha)):
        last = j + len(list(steps)) - 1
        runs.append((j, last, alpha[j - 1] - b * j, b))
        j = last + 1
    neighbor_degrees = map(sum, map(map, itertools.repeat(degree.__getitem__), g.adjacency))
    gamma = Counter(map(operator.add, degree, neighbor_degrees))
    delta = tuple(sorted(Counter(degree).items(), reverse=True))
    return Indicators(
        delta=delta,
        gamma=tuple(sorted(gamma.items(), reverse=True)),
        alpha=linear_runs(runs + [(d, d, alpha[-1], 0), (d + 1, n - 1, 0, 0)]),
        density=Fraction(sum(degree), n * (n - 1)),
        diameter=d,
        h_index=h_index_of_groups(delta),
        total_distance=sum(map(operator.mul, alpha, range(1, d + 1))),
    )
