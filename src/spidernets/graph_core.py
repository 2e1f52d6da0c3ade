"""Undirected simple graphs with brute-force network indicators.

Everything here is computed directly from the adjacency structure, so results
can serve as ground truth for the analytic formulas in ``closed_form``.  The
distance indicators all come from one BFS sweep per graph.  Density and mean
distance are exact fractions, never floats, so cross-checks are exact
equality.  All functions are pure and safe to call concurrently.
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


def alpha_array(g: Graph) -> tuple[int, ...]:
    """Unordered node pairs at each distance j = 1..n-1, at index j-1.

    One level-synchronous BFS per source counts ordered pairs by level; they
    sum to n * n only on a connected graph.  A single node yields ().
    """
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
    if sum(counts) < g.n * g.n:
        raise ValueError("distance indicators need a connected graph")
    return tuple(c // 2 for c in counts[1:])


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
