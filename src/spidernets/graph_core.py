"""Undirected simple graphs with brute-force network indicators.

Everything here is computed directly from the adjacency structure, so results
can serve as ground truth for the analytic formulas in ``closed_form``.  The
distance indicators all come from one distance histogram per graph, counted
in two parts.  The nodes of degree at most 1 are peeled until only the
2-core is left, and each pendant tree is folded into its 2-core node as a
depth histogram, one 64-bit lane of a Python int per depth; one big-int
product per peeled node counts the pairs whose path tops out at its parent.
The pairs between the trees of two 2-core nodes come from one bit-parallel
sweep over the 2-core, which advances a BFS from every 2-core node together,
one level per pass over the adjacency, with the sources packed as bits of
Python ints.  A tree has an empty 2-core and runs no sweep; a spider with a
core of m >= 3 nodes sweeps just those m.  The count is exact on every
graph and uses no symmetry of it.  ``bfs_distances`` and
``all_pairs_distances`` are the plain BFS that tests check it against.
Density is an exact fraction, never a float, so cross-checks are exact
equality.  All functions are pure and safe to call concurrently.

``all_indicators`` returns ``Indicators``, the one record of a graph's
indicators, shared with ``closed_form``: degree and gamma multisets as
merged (value, count) groups and alpha as canonical linear runs, so two
records of the same graph are equal field by field whichever side computed
them.  ``degree_array`` and ``h_index`` work on full arrays and serve as the
tests' references.
"""

from __future__ import annotations

import itertools
import sys
from array import array
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction

UNREACHABLE = -1


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph: node count plus a sorted neighbor tuple per node."""

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def num_edges(self) -> int:
        return sum(map(len, self.adjacency)) // 2

    def degree(self, u: int) -> int:
        return len(self.adjacency[u])


@dataclass(frozen=True)
class Indicators:
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
    return tuple(group for group in sorted(merged.items(), reverse=True) if group[1])


def linear_runs(runs) -> tuple[tuple[int, int, int, int], ...]:
    """The greedy-left maximal linear runs of the array that runs stand for.

    A run (first, last, a, b) stands for the entries a + b*j at
    j = first..last, none when last < first; the runs follow each other
    without gaps.  Each output run reaches as far as the entries stay on one
    line, and a run of one entry, only ever the last, has b = 0, so every
    split of an array into linear runs gives the same output.  Only the
    first three entries of an input run are placed one by one: the output
    run that holds the second and third lies on the input run's line, so
    the rest extend it.
    """
    out: list[tuple[int, int, int, int]] = []
    for first, last, a, b in runs:
        for j in range(first, min(last, first + 2) + 1):
            value = a + b * j
            if out:
                start, end, a0, b0 = out[-1]
                if start == end:  # any two entries lie on one line
                    b0 = value - a0
                    a0 -= b0 * start
                if a0 + b0 * j == value:
                    out[-1] = (start, j, a0, b0)
                    continue
            out.append((j, j, value, 0))
        if last > first + 2:
            out[-1] = (out[-1][0], last) + out[-1][2:]
    return tuple(out)


def build_graph(n: int, edges) -> Graph:
    """Build a simple graph from unordered node pairs.

    Duplicate pairs collapse to a single edge.  Raises ValueError for
    out-of-range node ids or self-loops.
    """
    if n < 0:
        raise ValueError(f"node count must be non-negative, got {n}")
    neighbor_sets: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for {n} nodes")
        if u == v:
            raise ValueError(f"self-loop at node {u} is not allowed")
        neighbor_sets[u].add(v)
        neighbor_sets[v].add(u)
    return Graph(n, tuple(tuple(sorted(s)) for s in neighbor_sets))


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Geodesic distances from one node; UNREACHABLE marks disconnected nodes."""
    dist = [UNREACHABLE] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in g.adjacency[u]:
            if dist[v] == UNREACHABLE:
                dist[v] = du + 1
                queue.append(v)
    return dist


def is_connected(g: Graph) -> bool:
    """True when every node is reachable from node 0 (vacuously for n <= 1)."""
    if g.n <= 1:
        return True
    return UNREACHABLE not in bfs_distances(g, 0)


def all_pairs_distances(g: Graph) -> list[list[int]]:
    """n x n matrix of BFS distances with UNREACHABLE markers."""
    return [bfs_distances(g, u) for u in range(g.n)]


def degree_array(g: Graph) -> tuple[int, ...]:
    """Node degrees sorted non-increasing."""
    return tuple(sorted((len(nbrs) for nbrs in g.adjacency), reverse=True))


def gamma_array(g: Graph) -> tuple[int, ...]:
    """Per node, own degree plus the degrees of all neighbors, sorted non-increasing."""
    degree = list(map(len, g.adjacency))
    values = [d + sum(map(degree.__getitem__, nbrs)) for d, nbrs in zip(degree, g.adjacency)]
    return tuple(sorted(values, reverse=True))


def alpha_array(g: Graph) -> tuple[int, ...]:
    """Unordered node pairs at each distance j = 1..n-1, at index j-1.

    Ordered pairs are counted by distance with ``_ordered_pairs`` and
    halved; they sum to n * n only on a connected graph.  A single node
    yields ().
    """
    n = g.n
    if n <= 1:
        return ()
    counts = _ordered_pairs(g)
    if sum(counts) < n * n:
        raise ValueError("distance indicators need a connected graph")
    return tuple(c // 2 for c in counts[1:n])


def _ordered_pairs(g: Graph) -> list[int]:
    """Ordered pairs at each distance 0..n-1: pendant trees folded into weights, the 2-core searched.

    Nodes of degree at most 1 are peeled from a queue until only the 2-core
    is left (the k-core peel of Seidman 1983 and Batagelj & Zaversnik 2003).
    A peeled node has at most one unpeeled neighbor, its parent; a node left
    with none is the root of a tree component.  W_v, the depth histogram of
    v's pendant subtree, is a Python int with one 64-bit lane per depth,
    starting at 1 for v itself.  When u is peeled into p, with S = W_u << 64,
    the big-int product W_p * S convolves the lanes (Kronecker substitution):
    it counts by distance the pairs of a node of u's subtree and a node of
    the part of p's subtree folded so far, which are the pairs whose path
    tops out at p.  Then S joins W_p.  The pairs between the trees of two
    2-core nodes come from ``_core_pairs``.  Each fold builds a new int, so
    a bare path copies about n^2 / 2 words in all, but in C-speed int
    operations.  Every lane is at most n^2, so lanes stay below 2^64 while
    n < 2^32; the node caps keep n far below that.
    """
    n = g.n
    adjacency = g.adjacency
    degree = list(map(len, adjacency))
    weight = [1] * n
    peeled = [False] * n
    queue = [u for u in range(n) if degree[u] <= 1]
    tree_pairs = 0
    for u in queue:  # grows while it is read: a node joins it on dropping to degree 1
        peeled[u] = True
        if degree[u]:
            for p in adjacency[u]:
                if not peeled[p]:
                    break
            s = weight[u] << 64
            weight[u] = 0  # folded into p: a path holds O(n) words, not n^2 / 4
            tree_pairs += weight[p] * s
            weight[p] += s
            degree[p] -= 1
            if degree[p] == 1:
                queue.append(p)
    core = [u for u in range(n) if not peeled[u]]
    total = n + 2 * tree_pairs + (_core_pairs(adjacency, core, weight) if core else 0)
    counts = list(array("Q", total.to_bytes(8 * -(-total.bit_length() // 64), sys.byteorder)))
    return counts + [0] * (n - len(counts))


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
    grow, and a node whose ring comes out empty has reached its eccentricity
    and leaves the pass.  The 2-core nodes are grouped into classes of equal
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


def density(g: Graph) -> Fraction:
    """Edges present over the n(n-1)/2 possible, as an exact fraction."""
    if g.n <= 1:
        raise ValueError("density needs at least 2 nodes")
    return Fraction(2 * g.num_edges, g.n * (g.n - 1))


def h_index(values) -> int:
    """Largest h such that at least h entries are >= h.

    Input must be sorted non-increasing with non-negative entries; the empty
    array has h-index 0.
    """
    values = tuple(values)
    for a, b in zip(values, values[1:]):
        if a < b:
            raise ValueError("h-index input must be sorted non-increasing")
    if values and values[-1] < 0:
        raise ValueError("h-index input must be non-negative")
    h = 0
    for rank, value in enumerate(values, start=1):
        if value >= rank:
            h = rank
        else:
            break
    return h


def h_index_of_groups(groups) -> int:
    """``h_index`` of the array that (value, count) groups stand for, run by run.

    The groups must be in non-increasing value order with non-negative
    values and counts; a group with count 0 stands for no entries.  Same
    rule and same errors as ``h_index`` on the expanded array, in time
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
    """Compute the full indicator record for a connected graph with n >= 2."""
    delta = value_groups(Counter(map(len, g.adjacency)).items())
    alpha = alpha_array(g)
    d = max((j for j, a in enumerate(alpha, start=1) if a), default=0)
    # Every entry past the diameter is 0: one run, so the entries placed one
    # by one are only those up to the diameter.
    runs = [(j, j, a, 0) for j, a in enumerate(alpha[:d], start=1)]
    return Indicators(
        delta=delta,
        gamma=value_groups(Counter(gamma_array(g)).items()),
        alpha=linear_runs(runs + [(d + 1, len(alpha), 0, 0)]),
        density=density(g),
        diameter=d,
        h_index=h_index_of_groups(delta),
        total_distance=sum(j * a for j, _, a, _ in runs),
    )
