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
scheme, with no edge list, neighbor sets or sorting.  ``export_spider``
writes a spider lazily, as chunks of whole lines; its edge lists and dot
files come from the same scheme with no graph built.  ``export_size``
sizes an export from (m, k, l) before anything is built, with
``decimal_digits``, which counts digits without making a string;
``decimal_text`` names an int in an error message by that count past
``SHOWN`` digits.  The node, edge and pair counts take the triple p, a
``SpiderParams`` (a named tuple of (m, k, l) that checks its values however
it is made) or a plain (m, k, l) tuple, and only unpack it.
"""

from __future__ import annotations

import itertools
import operator
from typing import NamedTuple

from spidernets.graph_core import Graph

EXPORT_FORMATS = ("edge-list", "dot", "adjacency-csv")
# Characters in one chunk of an export or of a report row (cli): both are
# made and written as such chunks, never as one string.
CHUNK = 2**16
# Digits of an int, or characters of an argument, that an error message shows.
SHOWN = 50


class ConsistencyError(RuntimeError):
    """An internal counting identity failed; the formula is wrong."""


class _SpiderFields(NamedTuple):
    m: int
    k: int
    l: int


class SpiderParams(_SpiderFields):
    """Normalized spider parameters: core size m, legs per core node k, leg length l.

    A named tuple, so ``m, k, l = p`` unpacks it.  Every way of making one,
    ``_make``, ``_replace``, copying and unpickling included, checks it.
    """

    __slots__ = ()

    def __new__(cls, m: int, k: int, l: int):
        _check_ranges(m, k, l)
        if (k == 0) != (l == 0):
            k, l = decimal_text(k), decimal_text(l)
            raise ValueError(f"k={k} l={l} not normalized: no legs means zero of both")
        return super().__new__(cls, m, k, l)

    @classmethod
    def _make(cls, iterable):
        """Through ``__new__``, so ``_replace`` checks too; the inherited ``_make`` skips it."""
        return cls(*iterable)


def _check_ranges(m: int, k: int, l: int) -> None:
    """ValueError unless m >= 1 and k, l >= 0, naming the values by ``decimal_text``."""
    if m < 1:
        raise ValueError(f"core size must be >= 1, got {decimal_text(m)}")
    if k < 0 or l < 0:
        raise ValueError(
            f"leg count and length must be >= 0, got k={decimal_text(k)} l={decimal_text(l)}"
        )


def normalize(m: int, k: int, l: int) -> SpiderParams:
    """Collapse k = 0 or l = 0 to the no-legs form (k = l = 0)."""
    _check_ranges(m, k, l)
    if k == 0 or l == 0:
        return SpiderParams(m, 0, 0)
    return SpiderParams(m, k, l)


def node_count(p: SpiderParams) -> int:
    m, k, l = p
    return m + m * k * l


def edge_count(p: SpiderParams) -> int:
    m, k, l = p
    return m * (m - 1) // 2 + m * k * l


def pair_count(p: SpiderParams) -> int:
    """Number of unordered node pairs, n(n-1)/2.

    Also checked against the expanded form
    m(m-1) - mkl + 2 m^2 k l + m^2 k^2 l^2 of n(n-1).
    """
    m, k, l = p
    n = node_count(p)
    expanded = m * (m - 1) - m * k * l + 2 * m * m * k * l + m * m * k * k * l * l
    if n * (n - 1) != expanded:
        raise ConsistencyError("pair count expansion mismatch")
    return n * (n - 1) // 2


def build_spider(p: SpiderParams) -> Graph:
    """Construct the spider as a Graph, its neighbor tuples filled straight from the id scheme.

    Core node c is adjacent to the other core ids, then to the first node
    of each of its legs, m + c*k*l + j*l; a leg node to the nodes before and
    after it, a terminal node to the one before it, and the only node of a
    leg of length 1 to its core node.  Every tuple comes out sorted, so no
    edge list is made and nothing is sorted.  The leg rows are made in bulk,
    with no Python step per leg: every leg node's row as (u - 1, u + 1) by
    one ``zip`` of two ranges, then each leg's first and terminal rows by
    two extended-slice assignments, one every l rows.
    """
    m, k, l = p
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
        end = m + m * span  # one past the last leg node
        legs = list(zip(range(m - 1, end - 1), range(m + 1, end + 1)))
        owners = itertools.chain.from_iterable(map(itertools.repeat, range(m), itertools.repeat(k)))
        legs[0::l] = zip(owners, range(m + 1, end, l))  # (c, first + 1)
        legs[l - 1::l] = zip(range(m + l - 2, end, l))  # (last - 1,)
        adjacency += legs
    g = Graph(node_count(p), tuple(adjacency))
    if g.num_edges != edge_count(p):
        raise ConsistencyError("spider edge count mismatch")
    return g


def _adjacency_rows(g: Graph):
    """The 0/1 adjacency matrix of g, one comma-separated row per node, each ending in a newline."""
    zeros = ["0"] * g.n
    for nbrs in g.adjacency:
        cells = zeros.copy()
        for v in nbrs:
            cells[v] = "1"
        yield ",".join(cells) + "\n"


def _chunks(lines, per: int):
    """Consecutive lines joined into chunks of per lines each, the last one possibly shorter."""
    lines = iter(lines)
    while chunk := "".join(itertools.islice(lines, per)):
        yield chunk


def decimal_digits(value: int) -> int:
    """Decimal digits of a non-negative int, counted without converting it to a string.

    So it also counts values past Python's int-to-str digit limit.  The
    estimate from the bit length is off by at most one either way.
    """
    digits = int((value.bit_length() - 1) * 0.3010299956639812) + 1  # log10(2)
    if value >= 10**digits:
        return digits + 1
    if digits > 1 and value < 10 ** (digits - 1):
        return digits - 1
    return digits


def decimal_text(value: int) -> str:
    """An int for an error message: its digits up to ``SHOWN`` of them, else "a N-digit integer".

    So a message stays one short line, also past Python's int-to-str digit limit.
    """
    digits = decimal_digits(abs(value))
    if digits <= SHOWN:
        return str(value)
    return f"a {digits}-digit {'negative ' if value < 0 else ''}integer"


def export_size(p: SpiderParams, fmt: str) -> int:
    """Characters of the export of p in fmt, counted from (m, k, l) before anything is built.

    Exact for "adjacency-csv": n rows of n digits, each followed by a comma
    or a newline.  For "edge-list" and "dot" an upper bound that writes
    every id at the width of the largest one and every role as "terminal",
    within twice the true size (tests check it on the default grid and on
    stars and paths up to 20,000 nodes).
    """
    n, e = node_count(p), edge_count(p)
    width = decimal_digits(n - 1)
    if fmt == "edge-list":
        return e * (2 * width + 2)  # "u v\n"
    if fmt == "dot":
        # "graph spider {\n" and "}\n", '  u [role="terminal"];\n', "  u -- v;\n"
        return 17 + n * (width + 22) + e * (2 * width + 8)
    if fmt == "adjacency-csv":
        return 2 * n * n
    raise ValueError(f"unknown export format {fmt!r}; expected one of {EXPORT_FORMATS}")


def export_spider(p: SpiderParams, fmt: str):
    """Serialize a spider deterministically, as an iterator of text chunks.

    Formats: "edge-list" ("u v" per line with u < v, sorted), "dot"
    (undirected block, each node with its role) and "adjacency-csv" (n rows
    of comma-separated 0/1, no header, read off ``build_spider``, built now).
    Each chunk is whole lines, as many as fit in CHUNK characters at the
    longest line's length, or one line when that is longer; joined, the
    chunks are the file.  An unknown format is rejected before the first chunk.
    """
    if fmt not in EXPORT_FORMATS:
        raise ValueError(f"unknown export format {fmt!r}; expected one of {EXPORT_FORMATS}")
    m, k, l = p
    n = node_count(p)
    if fmt == "adjacency-csv":
        return _chunks(_adjacency_rows(build_spider(p)), max(1, CHUNK // (2 * n)))
    # No graph: core node c joins the core ids above c, then the first node of each of its
    # legs; a leg node joins the next id unless it is its leg's terminal, every l-th leg node.
    firsts = range(m, n, l or 1)  # k per core node
    above = (itertools.chain(range(c + 1, m), firsts[c * k:(c + 1) * k]) for c in range(m))
    successors = map(operator.mod, range(1, n - m + 1), itertools.repeat(l))  # 0 at a terminal
    edges = itertools.chain(
        itertools.chain.from_iterable(map(zip, map(itertools.repeat, range(m)), above)),
        itertools.compress(zip(range(m, n), itertools.count(m + 1)), successors),
    )
    width = decimal_digits(n - 1)  # of the largest id: it sets how many lines a chunk holds
    if fmt == "edge-list":
        return _chunks((f"{u} {v}\n" for u, v in edges), max(1, CHUNK // (2 * width + 2)))
    lines = itertools.chain(
        ["graph spider {\n"],
        (f'  {u} [role="core"];\n' for u in range(m)),
        (f'  {u} [role="{"leg" if (u - m + 1) % l else "terminal"}"];\n' for u in range(m, n)),
        (f"  {u} -- {v};\n" for u, v in edges),
        ["}\n"],
    )
    longest = 2 * width + 14 + (8 if k else 4)  # '  u [role="terminal"];\n' or "  u -- v;\n"
    return _chunks(lines, max(1, CHUNK // longest))
