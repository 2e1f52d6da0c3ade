"""Independent checks of spidernets CLI output.

Nothing here imports spidernets.  Each checker recomputes what it needs from
the spider's definition: the documented node-id scheme, its own BFS, node and
edge counts, and the growth orders of the paper's indicators.  A checker
raises CheckError on the first property the output breaks.
"""

from __future__ import annotations

import math
import re
from collections import Counter, deque
from fractions import Fraction


class CheckError(Exception):
    """An output broke a property the benchmark checks."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------- spiders


def normalized(m: int, k: int, l: int) -> tuple[int, int, int]:
    """A spider with no legs or legs of length 0 is the bare core."""
    return (m, 0, 0) if k == 0 or l == 0 else (m, k, l)


def counts(m: int, k: int, l: int) -> tuple[int, int, int]:
    """Nodes, edges and unordered node pairs."""
    n = m * (1 + k * l)
    return n, m * (m - 1) // 2 + m * k * l, n * (n - 1) // 2


def spider_adjacency(m: int, k: int, l: int) -> list[list[int]]:
    """Adjacency lists under the documented id scheme.

    Core nodes are 0..m-1; the leg node at position p (1-based, outward) of
    leg j of core node c is m + c*k*l + j*l + (p-1).
    """
    n = m * (1 + k * l)
    adjacency = [[] for _ in range(n)]

    def link(u: int, v: int) -> None:
        adjacency[u].append(v)
        adjacency[v].append(u)

    for u in range(m):
        for v in range(u + 1, m):
            link(u, v)
    for c in range(m):
        for j in range(k):
            previous = c
            for p in range(1, l + 1):
                node = m + c * k * l + j * l + (p - 1)
                link(previous, node)
                previous = node
    return adjacency


def bfs(adjacency: list[list[int]], source: int) -> list[int]:
    """Distances from source to every node."""
    dist = [-1] * len(adjacency)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    require(min(dist) >= 0, "own BFS: the spider is not connected")
    return dist


def bfs_indicators(m: int, k: int, l: int) -> dict:
    """Every report indicator of one spider, by BFS from every node."""
    adjacency = spider_adjacency(m, k, l)
    n = len(adjacency)
    histogram = [0] * n
    for source in range(n):
        for d in bfs(adjacency, source):
            histogram[d] += 1
    # Each unordered pair was seen from both ends; index 0 counts sources.
    alpha = [count // 2 for count in histogram[1:]]
    degrees = sorted((len(a) for a in adjacency), reverse=True)
    gamma = sorted(
        (len(a) + sum(len(adjacency[v]) for v in a) for a in adjacency), reverse=True
    )
    total = sum(j * a for j, a in enumerate(alpha, start=1))
    return {
        "delta": degrees,
        "gamma": gamma,
        "alpha": alpha,
        "diameter": max(j for j, a in enumerate(alpha, start=1) if a),
        "density": Fraction(sum(degrees), n * (n - 1)),
        "h-index": h_index(degrees),
        "neighboring-index": sum(gamma),
        "mean-distance": Fraction(total, n * (n - 1) // 2),
    }


def orbit_mean_distance(m: int, k: int, l: int) -> Fraction:
    """Mean distance by BFS from one node of each orbit of the spider's symmetries.

    Every core node is alike, and so is every leg node at one position p of
    any leg: m sources stand for the core and m*k for each position.
    """
    m, k, l = normalized(m, k, l)
    adjacency = spider_adjacency(m, k, l)
    n = len(adjacency)
    total = m * sum(bfs(adjacency, 0))
    for p in range(1, l + 1):
        total += m * k * sum(bfs(adjacency, m + p - 1))
    return Fraction(total, n * (n - 1))


def orbit_bfs_cost(m: int, k: int, l: int) -> int:
    """Node and edge visits of ``orbit_mean_distance``."""
    m, k, l = normalized(m, k, l)
    n, edges, _ = counts(m, k, l)
    return (l + 1) * (n + 2 * edges)


def h_index(values) -> int:
    """Largest h with at least h entries >= h."""
    ranked = sorted(values, reverse=True)
    return sum(1 for rank, value in enumerate(ranked, start=1) if value >= rank)


def diameter(m: int, k: int, l: int) -> int:
    """Longest geodesic: terminal to terminal, across a core edge when m > 1."""
    if k == 0:
        return 1 if m > 1 else 0
    if m > 1:
        return 2 * l + 1
    return 2 * l if k > 1 else l


def max_degree(m: int, k: int, l: int) -> int:
    """A core node has m-1 core neighbours and k legs; leg nodes have at most 2."""
    legs = 0 if k == 0 else (2 if l >= 2 else 1)
    return max(m - 1 + k, legs)


def degree_multiset(m: int, k: int, l: int) -> Counter:
    """Degrees: m core nodes, m*k*(l-1) interior leg nodes, m*k terminals."""
    multiset = Counter({m - 1 + k: m})
    multiset[2] += m * k * (l - 1)
    multiset[1] += m * k
    return +multiset


def fraction(text: str) -> Fraction:
    match = re.fullmatch(r"(-?\d+)/(\d+)", text)
    require(match is not None, f"{text!r} is not a p/q fraction")
    return Fraction(int(match.group(1)), int(match.group(2)))


def integers(text: str) -> list[int]:
    require(re.fullmatch(r"\d+( \d+)*", text) is not None, "array row is not integers")
    return [int(t) for t in text.split(" ")]


# ------------------------------------------------------------------ verify


def grid_points(mmax: int, kmax: int, lmax: int, cap: int) -> list[tuple[int, int, int]]:
    """Distinct normalized (m, k, l) in the grid with 2 <= nodes <= cap."""
    points = {
        normalized(m, k, l)
        for m in range(1, mmax + 1)
        for k in range(kmax + 1)
        for l in range(lmax + 1)
    }
    return sorted(p for p in points if 2 <= counts(*p)[0] <= cap)


def check_verify(stdout: str, points) -> None:
    lines = stdout.splitlines()
    require(not any(line.startswith("MISMATCH") for line in lines), "verify reported a MISMATCH")
    require(
        lines == [f"{len(points)} parameter points verified"],
        f"verify output {lines[-3:]!r} is not the line for {len(points)} points",
    )


# ------------------------------------------------------------------ report

ROWS = (
    "delta", "gamma", "alpha", "density", "diameter", "h-index",
    "neighboring-index", "mean-distance",
)


def report_rows(stdout: str, m: int, k: int, l: int, flag: str | None) -> dict[str, str]:
    """The indicator rows of a report, after checking its header lines."""
    n, edges, pairs = counts(m, k, l)
    lines = stdout.split("\n")
    header = [f"spider M={m} K={k} L={l}", f"nodes: {n}", f"edges: {edges}", f"pairs: {pairs}"]
    require(lines[:4] == header, f"report header {lines[:4]!r} is not {header!r}")
    require(len(lines) == 4 + len(ROWS) + 1 and lines[-1] == "", "report has the wrong line count")
    rows = {}
    for name, line in zip(ROWS, lines[4:]):
        label, sep, value = line.partition(": ")
        require(label == name and sep, f"expected row {name!r}, got {line[:40]!r}")
        if flag is not None:
            value, sep, mark = value.rpartition("  ")
            require(sep and mark == f"[{flag}]", f"row {name} is flagged {mark[:20]!r}")
        rows[name] = value
    return rows


def format_value(value) -> str:
    if isinstance(value, list):
        return " ".join(map(str, value))
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def check_report_both(stdout: str, shape, oracle: dict) -> None:
    """Every row is MATCH and equals the benchmark's own BFS of the shape."""
    rows = report_rows(stdout, *shape, flag="MATCH")
    for name in ROWS:
        require(rows[name] == format_value(oracle[name]), f"{name} differs from own BFS")


def check_report_closed(stdout: str, shape) -> None:
    """Lengths, sum identities, the degree multiset and the diameter case formula."""
    m, k, l = shape
    n, edges, pairs = counts(m, k, l)
    rows = report_rows(stdout, m, k, l, flag=None)
    delta, gamma, alpha = (integers(rows[name]) for name in ("delta", "gamma", "alpha"))
    require((len(delta), len(gamma), len(alpha)) == (n, n, n - 1), "array lengths are not n, n, n-1")
    for name, values in (("delta", delta), ("gamma", gamma)):
        require(all(a >= b for a, b in zip(values, values[1:])), f"{name} is not non-increasing")
    require(sum(delta) == 2 * edges, "sum of delta is not 2E")
    require(Counter(delta) == degree_multiset(m, k, l), "delta multiset is wrong")
    require(sum(alpha) == pairs, "sum of alpha is not n(n-1)/2")
    square_sum = sum(d * d for d in delta)
    require(sum(gamma) == 2 * edges + square_sum, "sum of gamma is not 2E + sum of squared degrees")
    require(int(rows["neighboring-index"]) == sum(gamma), "neighboring-index is not sum of gamma")
    require(int(rows["diameter"]) == diameter(m, k, l), "diameter breaks the case formula")
    last = max(j for j, a in enumerate(alpha, start=1) if a)
    require(last == diameter(m, k, l), "alpha ends at another distance than the diameter")
    mean = fraction(rows["mean-distance"])
    require(sum(j * a for j, a in enumerate(alpha, start=1)) == mean * pairs,
            "sum of j*alpha_j is not mean distance times pairs")
    require(fraction(rows["density"]) == Fraction(2 * edges, n * (n - 1)), "density is not 2E/(n(n-1))")
    require(int(rows["h-index"]) == h_index(delta), "h-index does not match delta")


# ------------------------------------------------------------- asymptotics

NOTIONS = ("DSWL", "DSWA", "SWD", "SWA")
DEGREE_NOTIONS = ("DSWL", "DSWA")

# Exponent of t in each indicator as the varying parameter t grows with the
# other two fixed (M >= 2, K >= 1, L >= 1).  N = M(1+KL) is polynomial in t,
# so indicator / ln N diverges exactly when the exponent is positive.
GROWTH_EXPONENT = {
    # Largest degree: the core degree M-1+K.
    ("DSWL", "M"): 1, ("DSWL", "K"): 1, ("DSWL", "L"): 0,
    # Average degree (M-1+2KL)/(1+KL): grows with M, tends to 2 in K and L.
    ("DSWA", "M"): 1, ("DSWA", "K"): 0, ("DSWA", "L"): 0,
    # Diameter 2L+1.
    ("SWD", "M"): 0, ("SWD", "K"): 0, ("SWD", "L"): 1,
    # Mean distance: at most the diameter, and at least a fixed share of L
    # because most pairs sit on legs of different core nodes.
    ("SWA", "M"): 0, ("SWA", "K"): 0, ("SWA", "L"): 1,
}


def expected_label(notion: str, vary: str) -> str:
    diverges = GROWTH_EXPONENT[notion, vary] > 0
    if notion in DEGREE_NOTIONS:
        return "small world (ratio -> +inf)" if diverges else "not a small world (ratio -> 0)"
    return "not a small world (ratio -> +inf)" if diverges else "ultra-small world (C=0)"


VERDICT_LINE = re.compile(r"(\w+) vary ([MKL]) \(([^)]*)\): (.+)")


def check_verdict_table(stdout: str) -> None:
    lines = stdout.splitlines()
    cells = []
    for line in lines:
        match = VERDICT_LINE.fullmatch(line)
        require(match is not None, f"unexpected verdict line {line!r}")
        notion, vary, _, label = match.groups()
        require(notion in NOTIONS, f"unknown notion in {line!r}")
        require(label == expected_label(notion, vary), f"wrong verdict: {line!r}")
        cells.append((notion, vary))
    require(sorted(cells) == sorted(GROWTH_EXPONENT), "verdict table does not list the 12 cells once each")


def cell_params(vary: str, fixed: dict[str, int], step: int) -> tuple[int, int, int]:
    values = dict(fixed, **{vary: step})
    return normalized(values["M"], values["K"], values["L"])


def numerator(notion: str, m: int, k: int, l: int) -> Fraction | None:
    """The benchmark's own value of the notion's indicator; None for SWA."""
    n, edges, _ = counts(m, k, l)
    if notion == "DSWL":
        return Fraction(max_degree(m, k, l))
    if notion == "DSWA":
        return Fraction(2 * edges, n)
    if notion == "SWD":
        return Fraction(diameter(m, k, l))
    return None


def close(text: str, value: float) -> bool:
    return math.isclose(float(text), value, rel_tol=1e-5)


# Largest ``orbit_bfs_cost`` of one SWA step checked by BFS, about 0.4 s.
BFS_BUDGET = 5_000_000


def swa_bfs_steps(steps, vary: str, fixed: dict[str, int]) -> set[int]:
    """Indices of the steps whose SWA numerator is compared with a BFS.

    The first three, and then every halving of the index from the last step
    whose BFS costs at most BFS_BUDGET: spread along the whole range the
    checks can afford, with a total cost below two budgets.
    """
    affordable = [i for i, step in enumerate(steps)
                  if orbit_bfs_cost(*cell_params(vary, fixed, step)) <= BFS_BUDGET]
    chosen = set(affordable[:3])
    i = affordable[-1] if affordable else 0
    while i >= 3:
        chosen.add(i)
        i //= 2
    return chosen & set(affordable)


def check_cell(stdout: str, csv: str, notion: str, vary: str, fixed: dict[str, int], steps) -> None:
    """One cell's verdict line and its ratio-sequence CSV.

    SWA numerators must lie between 1 and the diameter at every step, and
    equal the benchmark's own BFS at the steps ``swa_bfs_steps`` picks.
    """
    described = ", ".join(f"{name}={fixed[name]}" for name in "MKL" if name in fixed)
    line = f"{notion} vary {vary} ({described}): {expected_label(notion, vary)}"
    require(stdout == line + "\n", f"verdict output {stdout[:80]!r} is not {line!r}")
    rows = csv.split("\n")
    require(rows[0] == "step,N,numerator,lnN,ratio" and rows[-1] == "", "CSV header or end is wrong")
    rows = rows[1:-1]
    require(len(rows) == len(steps), f"CSV has {len(rows)} rows for {len(steps)} steps")
    bfs_steps = swa_bfs_steps(steps, vary, fixed) if notion == "SWA" else set()
    for i, (step, row) in enumerate(zip(steps, rows)):
        fields = row.split(",")
        require(len(fields) == 5 and fields[0] == str(step), f"CSV row {row!r} is not for step {step}")
        m, k, l = cell_params(vary, fixed, step)
        n = counts(m, k, l)[0]
        require(fields[1] == str(n), f"CSV row {row!r}: N is not M(1+KL) = {n}")
        value = fraction(fields[2])
        own = numerator(notion, m, k, l)
        if own is not None:
            require(value == own, f"CSV row {row!r}: numerator is not {own}")
        else:
            require(1 <= value <= diameter(m, k, l), f"CSV row {row!r}: mean distance out of range")
            if i in bfs_steps:
                require(value == orbit_mean_distance(m, k, l),
                        f"CSV row {row!r}: mean distance differs from own BFS")
        require(close(fields[3], math.log(n)), f"CSV row {row!r}: lnN is not ln {n}")
        require(close(fields[4], float(value) / math.log(n)), f"CSV row {row!r}: ratio is not numerator/lnN")
