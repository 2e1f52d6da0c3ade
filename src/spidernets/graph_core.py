"""Undirected simple graphs with brute-force network indicators.

Everything here is computed directly from the adjacency structure, so results
can serve as ground truth for the analytic formulas in ``closed_form``.  The
distance indicators all come from one distance histogram per graph.  Up to
``SWEEP_MAX_NODES`` nodes it comes from one sweep that advances a BFS from
every source together, one level per pass over the adjacency, with the
sources packed as bits of Python ints; larger graphs run one BFS per source.
Neither uses any symmetry of the graph.  ``bfs_distances`` and
``all_pairs_distances`` are the plain BFS that tests check both against.
Density and mean distance are exact fractions, never floats, so cross-checks
are exact equality.  All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

from collections import deque
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
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def degree(self, u: int) -> int:
        return len(self.adjacency[u])


@dataclass(frozen=True)
class IndicatorArrays:
    """Every brute-force indicator of a connected graph in one record."""

    delta: tuple[int, ...]
    gamma: tuple[int, ...]
    alpha: tuple[int, ...]
    density: Fraction
    diameter: int
    h_index: int
    neighboring_index: int
    total_distance: int


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


# The largest graph the bit-parallel sweep takes: four 64-bit words per
# bitset, which covers every graph of the default verify grid (n <= 248).
SWEEP_MAX_NODES = 256


def alpha_array(g: Graph) -> tuple[int, ...]:
    """Unordered node pairs at each distance j = 1..n-1, at index j-1.

    Ordered pairs are counted by distance with one of two BFS schemes and
    halved; they sum to n * n only on a connected graph.  A single node
    yields ().  Graphs of at most ``SWEEP_MAX_NODES`` nodes take the
    bit-parallel sweep, whose steps are (diameter + 1) * (n + 2E) operations
    on n-bit ints; larger graphs take one BFS per source, n * (n + 2E) steps
    whatever their shape.  Up to that size even a bare path, the widest
    diameter, sweeps about as fast as per-source BFS; above it the sweep's
    time on graphs of one size swings with the diameter (30x across spiders
    of 1000 nodes) and on long chains falls behind (2.5x at n = 4000).
    """
    n = g.n
    if n <= 1:
        return ()
    if n <= SWEEP_MAX_NODES:
        counts = _ordered_pairs_by_sweep(g)
    else:
        counts = _ordered_pairs_by_source(g)
    if sum(counts) < n * n:
        raise ValueError("distance indicators need a connected graph")
    return tuple(c // 2 for c in counts[1:n])


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
    return counts + [0] * (n - len(counts))


def _ordered_pairs_by_source(g: Graph) -> list[int]:
    """Ordered pairs at each distance 0..n-1, by one level-synchronous BFS per source."""
    adjacency = g.adjacency
    counts = [0] * g.n
    for source in range(g.n):
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
    return counts


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


def total_distance(g: Graph) -> int:
    """Sum of geodesic distances over unordered node pairs (the Wiener index)."""
    return _total_of(alpha_array(g))


def mean_distance(g: Graph) -> Fraction:
    """Average distance over unordered node pairs, exact."""
    if g.n <= 1:
        raise ValueError("mean distance needs at least 2 nodes")
    return Fraction(total_distance(g), g.n * (g.n - 1) // 2)


def all_indicators(g: Graph) -> IndicatorArrays:
    """Compute the full indicator record for a connected graph with n >= 2."""
    delta = degree_array(g)
    gamma = gamma_array(g)
    alpha = alpha_array(g)
    return IndicatorArrays(
        delta=delta,
        gamma=gamma,
        alpha=alpha,
        density=density(g),
        diameter=_diameter_of(alpha),
        h_index=h_index(delta),
        neighboring_index=sum(gamma),
        total_distance=_total_of(alpha),
    )
