"""Spider graph construction and serialization.

A spider takes a complete graph of m nodes (the core) and attaches k chains
(the legs) of l nodes each to every core node, so it interpolates between a
chain and a complete graph.  It has m + m*k*l nodes and
m*(m-1)/2 + m*k*l edges.

Node ids are deterministic so tests and exports are reproducible: core nodes
take ids 0..m-1, and the leg node at position p (1-based, counted outward
from the core) of leg j of core node c takes id

    m + c*k*l + j*l + (p - 1)

Position p = 1 touches the core; position p = l is the leg's terminal node.

``build_spider`` fills each node's sorted neighbor tuple straight from this
scheme, with no edge list, neighbor sets or sorting; tests pin it to
``graph_core.build_graph`` on the scheme's edge list.  ``export_size``
sizes an export from (m, k, l) before anything is built.
"""

from __future__ import annotations

from dataclasses import dataclass

from spidernets.graph_core import Graph

EXPORT_FORMATS = ("edge-list", "dot", "adjacency-csv")


class ConsistencyError(RuntimeError):
    """An internal counting identity failed; the formula is wrong."""


@dataclass(frozen=True)
class SpiderParams:
    """Normalized spider parameters: core size m, legs per core node k, leg length l."""

    m: int
    k: int
    l: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"core size must be >= 1, got {self.m}")
        if self.k < 0 or self.l < 0:
            raise ValueError(f"leg count and length must be >= 0, got k={self.k} l={self.l}")
        if (self.k == 0) != (self.l == 0):
            raise ValueError(
                f"k={self.k} l={self.l} not normalized: no legs means zero of both"
            )


@dataclass(frozen=True)
class NodeLabel:
    """Structural role of a node id: kind is "core" or "leg".

    Core labels carry only the core index; leg labels carry the core node,
    the leg index within that node's bundle, and the 1-based position.
    """

    kind: str
    core: int
    leg: int | None = None
    pos: int | None = None


def normalize(m: int, k: int, l: int) -> SpiderParams:
    """Collapse k = 0 or l = 0 to the no-legs form (k = l = 0)."""
    if m < 1:
        raise ValueError(f"core size must be >= 1, got {m}")
    if k < 0 or l < 0:
        raise ValueError(f"leg count and length must be >= 0, got k={k} l={l}")
    if k == 0 or l == 0:
        return SpiderParams(m, 0, 0)
    return SpiderParams(m, k, l)


def node_count(p: SpiderParams) -> int:
    return p.m + p.m * p.k * p.l


def edge_count(p: SpiderParams) -> int:
    return p.m * (p.m - 1) // 2 + p.m * p.k * p.l


def pair_count(p: SpiderParams) -> int:
    """Number of unordered node pairs, n(n-1)/2.

    Also checked against the expanded form
    m(m-1) - mkl + 2 m^2 k l + m^2 k^2 l^2 of n(n-1).
    """
    n = node_count(p)
    m, k, l = p.m, p.k, p.l
    expanded = m * (m - 1) - m * k * l + 2 * m * m * k * l + m * m * k * k * l * l
    if n * (n - 1) != expanded:
        raise ConsistencyError("pair count expansion mismatch")
    return n * (n - 1) // 2


def node_label(p: SpiderParams, node_id: int) -> NodeLabel:
    """Decode a node id into its structural label."""
    n = node_count(p)
    if not 0 <= node_id < n:
        raise ValueError(f"node id {node_id} out of range for {n} nodes")
    if node_id < p.m:
        return NodeLabel("core", node_id)
    offset = node_id - p.m
    core, rest = divmod(offset, p.k * p.l)
    leg, pos0 = divmod(rest, p.l)
    return NodeLabel("leg", core, leg, pos0 + 1)


def label_id(p: SpiderParams, label: NodeLabel) -> int:
    """Inverse of node_label."""
    if label.kind == "core":
        if not 0 <= label.core < p.m:
            raise ValueError(f"core index {label.core} out of range")
        return label.core
    if label.kind != "leg":
        raise ValueError(f"unknown label kind {label.kind!r}")
    if not (0 <= label.core < p.m and 0 <= label.leg < p.k and 1 <= label.pos <= p.l):
        raise ValueError(f"leg label {label} out of range")
    return p.m + label.core * p.k * p.l + label.leg * p.l + (label.pos - 1)


def node_role(p: SpiderParams, node_id: int) -> str:
    """Role string for exports: "core", "leg", or "terminal"."""
    label = node_label(p, node_id)
    if label.kind == "core":
        return "core"
    return "terminal" if label.pos == p.l else "leg"


def build_spider(p: SpiderParams) -> Graph:
    """Construct the spider as a Graph, its neighbor tuples filled straight from the id scheme.

    Core node c is adjacent to the other core ids, then to the first node
    of each of its legs, m + c*k*l + j*l; a leg node to the nodes before and
    after it, a terminal node to the one before it, and the only node of a
    leg of length 1 to its core node.  Every tuple comes out sorted, so no
    edge list is made and nothing is sorted.
    """
    m, k, l = p.m, p.k, p.l
    span = k * l  # leg nodes per core node
    core = tuple(range(m))
    # l = 0 only together with k = 0: the range of first leg nodes is empty.
    adjacency = [
        core[:c] + core[c + 1:] + tuple(range(m + c * span, m + (c + 1) * span, l or 1))
        for c in range(m)
    ]
    if l == 1:
        for c in range(m):
            adjacency += [(c,)] * k
    elif l:
        for c in range(m):
            for first in range(m + c * span, m + (c + 1) * span, l):
                last = first + l - 1
                adjacency.append((c, first + 1))
                adjacency += zip(range(first, last - 1), range(first + 2, last + 1))
                adjacency.append((last - 1,))
    g = Graph(node_count(p), tuple(adjacency))
    if g.num_edges != edge_count(p):
        raise ConsistencyError("spider edge count mismatch")
    return g


def export_graph(g: Graph, fmt: str, roles=None) -> str:
    """Serialize a graph deterministically.

    Formats: "edge-list" ("u v" per line with u < v, sorted), "dot"
    (undirected block, node role attributes when roles are given), and
    "adjacency-csv" (n rows of comma-separated 0/1, no header).
    """
    if fmt == "edge-list":
        lines = [
            f"{u} {v}"
            for u in range(g.n)
            for v in g.adjacency[u]
            if u < v
        ]
        return "".join(line + "\n" for line in lines)
    if fmt == "dot":
        out = ["graph spider {"]
        for u in range(g.n):
            if roles is not None:
                out.append(f'  {u} [role="{roles[u]}"];')
            else:
                out.append(f"  {u};")
        for u in range(g.n):
            for v in g.adjacency[u]:
                if u < v:
                    out.append(f"  {u} -- {v};")
        out.append("}")
        return "".join(line + "\n" for line in out)
    if fmt == "adjacency-csv":
        rows = []
        for u in range(g.n):
            nbrs = set(g.adjacency[u])
            rows.append(",".join("1" if v in nbrs else "0" for v in range(g.n)))
        return "".join(row + "\n" for row in rows)
    raise ValueError(f"unknown export format {fmt!r}; expected one of {EXPORT_FORMATS}")


def export_size(p: SpiderParams, fmt: str) -> int:
    """Characters of ``export_spider(p, fmt)``, counted from (m, k, l) before anything is built.

    Exact for "adjacency-csv": n rows of n digits, each followed by a comma
    or a newline.  For "edge-list" and "dot" an upper bound that writes
    every id at the width of the largest one and every role as "terminal",
    within twice the true size (tests check it on the default grid and on
    stars and paths up to 20,000 nodes).
    """
    n, e = node_count(p), edge_count(p)
    width = len(str(n - 1))
    if fmt == "edge-list":
        return e * (2 * width + 2)  # "u v\n"
    if fmt == "dot":
        # "graph spider {\n" and "}\n", '  u [role="terminal"];\n', "  u -- v;\n"
        return 17 + n * (width + 22) + e * (2 * width + 8)
    if fmt == "adjacency-csv":
        return 2 * n * n
    raise ValueError(f"unknown export format {fmt!r}; expected one of {EXPORT_FORMATS}")


def export_spider(p: SpiderParams, fmt: str) -> str:
    """Build and serialize a spider, attaching roles for the dot format."""
    g = build_spider(p)
    roles = [node_role(p, u) for u in range(g.n)] if fmt == "dot" else None
    return export_graph(g, fmt, roles)
