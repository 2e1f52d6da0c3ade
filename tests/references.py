"""Brute-force references that the tests compare ``spidernets`` against.

Each works on full arrays or plain per-source BFS, the slow and obvious way:
``build_graph`` from an edge list, ``bfs_distances`` and
``all_pairs_distances`` (``UNREACHABLE`` marks a node out of reach),
``is_connected``, the sorted ``degree_array``, ``gamma_array`` and
``alpha_array``, ``density`` and ``h_index``.  ``ordered_pairs`` pads the
oracle's own distance lanes to length n, for the tests that pin them.
``linear_runs_by_entry`` gives ``graph_core.linear_runs`` placing entries
one at a time.  ``export_graph`` serializes any graph, with the node roles
of ``spider_roles`` for a dot file, as one string.
"""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction

from spidernets.graph_core import Graph, _distance_lanes
from spidernets.spiders import EXPORT_FORMATS

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


def linear_runs_by_entry(runs) -> tuple[tuple[int, int, int, int], ...]:
    """``graph_core.linear_runs``, with each input run's entries placed one by one.

    Only the first three entries of an input run are placed: the output run
    that holds the second and third lies on the input run's line, so the
    rest extend it.
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


def spider_roles(p) -> list[str]:
    """Each node's role by the id scheme: the m core nodes, then each leg's l nodes outward."""
    m, k, l = p
    return ["core"] * m + (["leg"] * (l - 1) + ["terminal"]) * (m * k)


def export_graph(g: Graph, fmt: str, roles) -> str:
    """The export of g as one string: each edge from its adjacency tuples, each role from roles.

    Formats: "edge-list" ("u v" per line with u < v, sorted), "dot"
    (undirected block, node role attributes) and "adjacency-csv" (n rows of
    comma-separated 0/1, no header).
    """
    if fmt == "edge-list":
        lines = (f"{u} {v}\n" for u in range(g.n) for v in g.adjacency[u] if u < v)
    elif fmt == "dot":
        nodes = (f'  {u} [role="{roles[u]}"];\n' for u in range(g.n))
        edges = (f"  {u} -- {v};\n" for u in range(g.n) for v in g.adjacency[u] if u < v)
        lines = itertools.chain(["graph spider {\n"], nodes, edges, ["}\n"])
    elif fmt == "adjacency-csv":
        lines = adjacency_rows(g)
    else:
        raise ValueError(f"unknown export format {fmt!r}; expected one of {EXPORT_FORMATS}")
    return "".join(lines)


def adjacency_rows(g: Graph):
    """The 0/1 adjacency matrix of g, one comma-separated row per node, each ending in a newline."""
    zeros = ["0"] * g.n
    for nbrs in g.adjacency:
        cells = zeros.copy()
        for v in nbrs:
            cells[v] = "1"
        yield ",".join(cells) + "\n"
