"""Undirected simple graphs with brute-force network indicators.

Everything here is computed directly from the adjacency structure, so results
can serve as ground truth for the analytic formulas in ``closed_form``.  The
distance indicators all come from one distance histogram per graph, counted
by one of two BFS schemes: one sweep that advances a BFS from every source
together, one level per pass over the adjacency, with the sources packed as
bits of Python ints, or one BFS per source.  Per-source BFS shares
distances across bridges: a node joined to its DFS parent by a bridge is one
step nearer than its parent to its own side of the bridge and one step
farther from the rest, so it takes its distance histogram from its parent's
by counting only its own side, and only the other nodes run a BFS.  The
sweep's cost follows the diameter; per-source BFS's follows the nodes that
run a BFS and the sizes of the shared subtrees, which is one step per leaf
but still n^2 / 2 on a bare path.  Neither scheme uses any symmetry of the
graph.  ``bfs_distances`` and ``all_pairs_distances`` are the plain BFS
that tests check both against.  Density and mean distance are exact
fractions, never floats, so cross-checks are exact equality.  All functions
are pure and safe to call concurrently.

``Indicators`` is the one record of a graph's indicators, shared with
``closed_form``: degree and gamma multisets as merged (value, count) groups
and alpha as canonical linear runs, so two records of the same graph are
equal field by field whichever side computed them.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

UNREACHABLE = -1


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph: node count plus a sorted neighbor tuple per node."""

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

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
    values = [
        len(nbrs) + sum(len(g.adjacency[v]) for v in nbrs) for nbrs in g.adjacency
    ]
    return tuple(sorted(values, reverse=True))


def neighboring_index(g: Graph) -> int:
    """Sum of all gamma values."""
    return sum(gamma_array(g))


# The oracle's cost model, in nanoseconds per step as fitted on a shared
# 2-vCPU VM under Python 3.11.7 (the timings are in CHANGES.md).  The
# bit-parallel sweep runs about (D + 1) * (n + 2E) steps of SWEEP_STEP_NS plus
# SWEEP_WORD_NS per 64-bit word of an n-bit int; per-source BFS runs at most
# n * (n + 2E) steps of SOURCE_STEP_NS.  Only the ratio of the sweep's step to
# the per-source step steers the choice.  SWEEP_STEP_NS + 4 * SWEEP_WORD_NS
# <= SOURCE_STEP_NS, so graphs of up to 256 nodes take the sweep unprobed.
SWEEP_STEP_NS = 70.0
SWEEP_WORD_NS = 3.7
SOURCE_STEP_NS = 85.0


def alpha_array(g: Graph) -> tuple[int, ...]:
    """Unordered node pairs at each distance j = 1..n-1, at index j-1.

    Ordered pairs are counted by distance with the BFS scheme that
    ``_pick_scheme`` picks, and halved; they sum to n * n only on a
    connected graph.  A single node yields ().  Graphs of up to 256 nodes
    take the bit-parallel sweep.  Larger graphs on which at least half the
    nodes share a row across a bridge take per-source BFS, where a shared
    node counts the lanes of its subtree instead of running a BFS (one on a
    star's leaf, n^2 / 2 in all on a bare path); the rest take the cheaper
    scheme by the cost model, since the sweep's time follows the diameter.
    Neither scheme uses any symmetry of the graph.
    """
    n = g.n
    if n <= 1:
        return ()
    forest = None if _sweep_step(n) <= SOURCE_STEP_NS else _bridge_forest(g)
    sweep, row0 = _pick_scheme(g, forest)
    if sweep:
        counts = _ordered_pairs_by_sweep(g)
    else:
        counts = _ordered_pairs_by_source(g, row0, forest)
    if sum(counts) < n * n:
        raise ValueError("distance indicators need a connected graph")
    return tuple(c // 2 for c in counts[1:n])


def _sweep_step(n: int) -> float:
    return SWEEP_STEP_NS + SWEEP_WORD_NS * -(-n // 64)


def _pick_scheme(g: Graph, forest: _Forest | None = None) -> tuple[bool, list[int] | None]:
    """Whether to run the sweep rather than per-source BFS, and the probe's row.

    When the sweep is estimated no dearer than per-source BFS even at the
    worst case D = n - 1, it runs unprobed and the row is None.  Otherwise,
    when at least half the nodes share a row across a bridge, per-source BFS
    runs unprobed: a shared node then costs the lanes of its subtree and
    O(D) word operations instead of a BFS, which beats the sweep on a star
    and stays quadratic on a bare path, but the nodes that do run a BFS are
    not weighed against the sweep.  Otherwise both estimates share the factor
    n + 2E, so the sweep wins when (D + 1) * sweep_step <= n *
    SOURCE_STEP_NS: one BFS from node 0 gives its eccentricity e and its
    level sizes (the row), and d(u, v) <= d(u, 0) + d(0, v) <= 2e bounds
    the diameter.  ``forest`` is ``_bridge_forest(g)`` if the caller has it.
    """
    n = g.n
    sweep_step = _sweep_step(n)
    if sweep_step <= SOURCE_STEP_NS:
        return True, None
    if forest is None:
        forest = _bridge_forest(g)
    if 2 * sum(forest.shared) >= n:
        return False, None
    row0 = [0] * n
    diameter_bound = min(2 * _add_level_sizes(g, 0, row0), n - 1)
    return (diameter_bound + 1) * sweep_step <= n * SOURCE_STEP_NS, row0


def _ordered_pairs_by_sweep(g: Graph) -> list[int]:
    """Ordered pairs at each distance 0..n-1, by one bit-parallel BFS from every source.

    Python ints serve as bitsets over the nodes.  At level j, ``ring[u]``
    holds the nodes at distance exactly j from u and ``unseen[u]`` those
    farther than j.  The nodes at distance j+1 from u are the nodes of its
    neighbors' rings that u has not seen yet, so each level is one pass over
    the adjacency of the nodes whose rings still grow, and the popcounts of
    the new rings sum to the ordered pairs at distance j+1.  A node whose
    ring comes out empty has reached its eccentricity and leaves the pass.
    Three lists of n n-bit ints are held.
    """
    n = g.n
    adjacency = g.adjacency
    everyone = (1 << n) - 1
    ring = [1 << u for u in range(n)]
    unseen = [everyone ^ bit for bit in ring]
    counts = [n]
    active = range(n)
    while active:
        next_ring = [0] * n
        growing = []
        pairs = 0
        for u in active:
            r = 0
            for v in adjacency[u]:
                r |= ring[v]
            r &= unseen[u]
            if r:
                next_ring[u] = r
                unseen[u] ^= r
                pairs += r.bit_count()
                growing.append(u)
        ring, active = next_ring, growing
        counts.append(pairs)
    return counts[:n] + [0] * (n - len(counts))


class _Forest(NamedTuple):
    """A DFS forest of a graph, one tree per connected component."""

    order: list[int]  # nodes in preorder, tree by tree
    pre: list[int]  # each node's index in order
    parent: list[int]  # tree parent, -1 at roots
    size: list[int]  # nodes in each node's subtree
    shared: list[bool]  # whether the tree edge to the parent is a bridge


def _bridge_forest(g: Graph) -> _Forest:
    """DFS forest from nodes 0, 1, ... in turn, with its bridges by Tarjan's low points.

    low[u] is the least preorder index that a back edge from u's subtree
    reaches; the tree edge (p, u) is a bridge exactly when low[u] > pre[p].
    """
    n = g.n
    adjacency = g.adjacency
    pre = [-1] * n
    low = [0] * n
    parent = [-1] * n
    order: list[int] = []
    for root in range(n):
        if pre[root] >= 0:
            continue
        pre[root] = low[root] = len(order)
        order.append(root)
        stack = [(root, iter(adjacency[root]))]
        while stack:
            u, neighbors = stack[-1]
            for v in neighbors:
                if pre[v] < 0:
                    parent[v] = u
                    pre[v] = low[v] = len(order)
                    order.append(v)
                    stack.append((v, iter(adjacency[v])))
                    break
                if v != parent[u] and pre[v] < low[u]:
                    low[u] = pre[v]
            else:
                stack.pop()
                p = parent[u]
                if p >= 0 and low[u] < low[p]:
                    low[p] = low[u]
    size = [1] * n
    for u in reversed(order):
        if parent[u] >= 0:
            size[parent[u]] += size[u]
    shared = [parent[u] >= 0 and low[u] > pre[parent[u]] for u in range(n)]
    return _Forest(order, pre, parent, size, shared)


def _ordered_pairs_by_source(
    g: Graph, row0: list[int] | None = None, forest: _Forest | None = None
) -> list[int]:
    """Ordered pairs at each distance 0..n-1, by BFS per source, histograms shared across bridges.

    Removing a bridge (p, u) leaves u's DFS subtree on u's side, so u is one
    step nearer than p to the nodes of its subtree and one step farther from
    every other node.  With R the histogram of p's distances over u's
    subtree, u's distance histogram is H_u[x] = H_p[x-1] - R[x-1] + R[x+1].
    A histogram is a Python int with one 64-bit lane per distance, so that
    update is a shift, a subtraction and an addition at C speed; all of
    them add into one int, at most n^2 per lane, merged into the counts at
    the end.  p's distances are held as a row: one 16-bit lane (32-bit
    above 65535 nodes) per node of the tree.  Each tree numbers its nodes
    by preorder, so u's subtree is one run of lanes, R counts that run's
    size[u] lanes, and u's row is p's row plus 1 in every lane, minus 2 in
    the run.  Only a node with a child that shares its row builds one.
    Nodes whose tree edge is not a bridge run a BFS: level-synchronous, or
    one that fills the row and the histogram when a child shares them.  So
    a shared node costs size[u] lane counts and O(D) word operations
    instead of a BFS: one lane on a star's leaf, n^2 / 2 in all on a bare
    path.  Children are visited largest subtree last, so a row stays held
    only while a smaller sibling's subtree runs: at most about log2(n) rows
    at once.  ``row0``, when given, holds source 0's level sizes from an
    earlier BFS, which is not run again unless a child of node 0 needs its
    row.
    """
    n = g.n
    order, pre, parent, size, shared = forest or _bridge_forest(g)
    typecode = _lane_typecode(n)
    step = array(typecode).itemsize
    width = 8 * step
    children: list[list[int]] = [[] for _ in range(n)]
    for u in order:
        if parent[u] >= 0:
            children[parent[u]].append(u)
    counts = [0] * n
    held: dict[int, tuple[bytes, int]] = {}  # row bytes and histogram
    waiting = [0] * n  # children that have yet to take a node's row
    histograms = 0
    for root in order:
        if parent[root] >= 0:
            continue
        base, lanes = pre[root], size[root]
        tree = order[base:base + lanes]
        ones = ((1 << width * lanes) - 1) // ((1 << width) - 1)
        stack = [root]
        while stack:
            u = stack.pop()
            kids = sorted(children[u], key=size.__getitem__, reverse=True)
            waiting[u] = sum(shared[c] for c in kids)
            if shared[u]:
                p = parent[u]
                row_bytes, hist = held[p]
                start = pre[u] - base
                inside = _run_histogram(
                    memoryview(row_bytes)[step * start:step * (start + size[u])].cast(typecode)
                )
                hist = ((hist - inside) << 64) + (inside >> 64)
                waiting[p] -= 1
                if not waiting[p]:
                    del held[p]
                if waiting[u]:
                    run = ones >> width * (lanes - size[u]) << width * start
                    row = int.from_bytes(row_bytes, sys.byteorder) + ones - (run << 1)
                    row_bytes = row.to_bytes(lanes * step, sys.byteorder)
            elif waiting[u]:
                dist = bfs_distances(g, u)
                distances = array(typecode, [dist[x] for x in tree])
                tally = Counter(distances)  # a BFS's distances are 0..ecc, no gaps
                hist = _wide_lanes(map(tally.__getitem__, range(len(tally))))
                row_bytes = distances.tobytes()
            else:
                if u == 0 and row0 is not None:
                    counts = [c + r for c, r in zip(counts, row0)]
                else:
                    _add_level_sizes(g, u, counts)
                hist = 0
            histograms += hist
            if waiting[u]:
                held[u] = (row_bytes, hist)
            stack.extend(kids)
    words = -(-histograms.bit_length() // 64)
    for d, c in enumerate(array("Q", histograms.to_bytes(8 * words, sys.byteorder))):
        counts[d] += c
    return counts


def _run_histogram(lanes) -> int:
    """The histogram of a shared node's run in its parent's row, one interpreted step per lane.

    The run is the node's subtree, joined to the parent only by their bridge,
    so a distance in it is 1 plus a path inside the subtree: at most the
    run's length.  The histogram is a Python int with one 64-bit lane per
    distance.
    """
    tally = [0] * (len(lanes) + 1)
    for d in lanes:
        tally[d] += 1
    return _wide_lanes(tally)


def _wide_lanes(values) -> int:
    """Non-negative values below 2^64 as a Python int, one 64-bit lane each, the first lowest."""
    return int.from_bytes(array("Q", values), sys.byteorder)


def _lane_typecode(n: int) -> str:
    """The array typecode of a row's lanes: 16 bits hold distances of up to 65535 nodes."""
    return "H" if n <= 0xFFFF else "I"


def _add_level_sizes(g: Graph, source: int, counts: list[int]) -> int:
    """Add the nodes at each distance j from source to counts[j]; return source's eccentricity."""
    adjacency = g.adjacency
    seen = [False] * g.n
    seen[source] = True
    frontier = [source]
    level = 0
    while frontier:
        counts[level] += len(frontier)
        level += 1
        nxt = []
        for u in frontier:
            for v in adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    nxt.append(v)
        frontier = nxt
    return level - 1


def _diameter_of(alpha: tuple[int, ...]) -> int:
    return max((j for j, a in enumerate(alpha, start=1) if a), default=0)


def _total_of(alpha: tuple[int, ...]) -> int:
    return sum(j * a for j, a in enumerate(alpha, start=1))


def diameter(g: Graph) -> int:
    """Largest geodesic distance; 0 for a single node."""
    if g.n == 0:
        raise ValueError("diameter of the empty graph is undefined")
    return _diameter_of(alpha_array(g))


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


def total_distance(g: Graph) -> int:
    """Sum of geodesic distances over unordered node pairs (the Wiener index)."""
    return _total_of(alpha_array(g))


def mean_distance(g: Graph) -> Fraction:
    """Average distance over unordered node pairs, exact."""
    if g.n <= 1:
        raise ValueError("mean distance needs at least 2 nodes")
    return Fraction(total_distance(g), g.n * (g.n - 1) // 2)


def all_indicators(g: Graph) -> Indicators:
    """Compute the full indicator record for a connected graph with n >= 2."""
    delta = degree_array(g)
    alpha = alpha_array(g)
    d = _diameter_of(alpha)
    # Every entry past the diameter is 0: one run, so the entries placed one
    # by one are only those up to the diameter.
    runs = [(j, j, a, 0) for j, a in enumerate(alpha[:d], start=1)]
    return Indicators(
        delta=value_groups(Counter(delta).items()),
        gamma=value_groups(Counter(gamma_array(g)).items()),
        alpha=linear_runs(runs + [(d + 1, len(alpha), 0, 0)]),
        density=density(g),
        diameter=d,
        h_index=h_index(delta),
        total_distance=_total_of(alpha),
    )
