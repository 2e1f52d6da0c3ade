"""Brute-force references that the tests compare ``spidernets`` against.

Each works on full arrays or plain per-source BFS, the slow and obvious way:
``build_graph`` from an edge list, ``bfs_distances`` and
``all_pairs_distances`` (``UNREACHABLE`` marks a node out of reach),
``is_connected``, the sorted ``degree_array``, ``gamma_array`` and
``alpha_array``, ``density`` and ``h_index``.  ``ordered_pairs`` pads the
oracle's own distance lanes to length n, for the tests that pin them.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from spidernets.graph_core import Graph, _distance_lanes

UNREACHABLE = -1


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

    Ordered pairs are counted by distance with ``ordered_pairs`` and
    halved; they sum to n * n only on a connected graph.  A single node
    yields ().
    """
    n = g.n
    if n <= 1:
        return ()
    counts = ordered_pairs(g)
    if sum(counts) < n * n:
        raise ValueError("distance indicators need a connected graph")
    return tuple(c // 2 for c in counts[1:n])


def ordered_pairs(g: Graph) -> list[int]:
    """Ordered pairs at each distance 0..n-1: ``_distance_lanes`` padded with zeros to length n."""
    counts = _distance_lanes(g)
    return counts + [0] * (g.n - len(counts))


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
