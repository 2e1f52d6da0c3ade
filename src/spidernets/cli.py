"""Command-line front end: report, verify, asymptotics, export.

Output is deterministic (sorted edges, exact fractions as p/q, floats with 6
significant digits) so files and stdout are stable across runs and suitable
for golden-file comparison.

Exit codes: 0 ok, 1 verification mismatch (a closed form that disagrees with
the oracle or fails its own consistency check), 2 usage error, 3 I/O failure,
4 resource guard (oracle requested beyond the node cap or its BFS work
bound, a closed report or an export above the output budget, out of
memory, or a result too large to index).  A report or export that exits
4 prints nothing to stdout and writes no file.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from fractions import Fraction

from spidernets import closed_form, graph_core, small_world, spiders

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_RESOURCE = 4

NODE_CAP_ENV = "SPIDERNETS_NODE_CAP"
REPORT_CAP_DEFAULT = 20000
VERIFY_CAP_DEFAULT = 2000
# Characters a report's delta, gamma and alpha rows, or an export, may take
# (128 MiB), counted from groups and runs or from (m, k, l) before anything
# is built.
OUTPUT_BUDGET = 2**27


def _node_cap(cap: int | None, fallback: int) -> int:
    """The --cap value, else SPIDERNETS_NODE_CAP when set, else the fallback."""
    name = "--cap"
    if cap is None:
        raw = os.environ.get(NODE_CAP_ENV)
        if raw is None:
            return fallback
        name = NODE_CAP_ENV
        try:
            cap = int(raw)
        except ValueError:
            raise ValueError(f"{NODE_CAP_ENV} must be an integer, got {raw!r}") from None
    if cap < 0:
        raise ValueError(f"{name} must be non-negative, got {cap}")
    return cap


def format_fraction(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def format_runs(groups) -> str:
    """Each value of the (value, count) groups count times, space-separated, in group order."""
    return "".join((str(v) + " ") * c for v, c in groups)[:-1]


def format_linear_runs(runs) -> str:
    """The entries a + b*j of linear runs (first, last, a, b) at j = first..last, space-separated.

    A run's entries are one range, or one repeated string when b is 0, so
    no Python code runs per entry.
    """
    return "".join(
        " ".join(map(str, range(a + b * first, a + b * (last + 1), b))) + " "
        if b
        else (str(a) + " ") * (last - first + 1)
        for first, last, a, b in runs
    )[:-1]


def _linear_run_chars(first: int, last: int, a: int, b: int) -> int:
    """Characters of a + b*j for j = first..last, with one separator each.

    The values of a run are non-negative and monotone in j, so those of at
    least d + 1 digits, the ones >= 10**d, are a prefix or a suffix of it.
    """
    count = last - first + 1
    chars = 2 * count
    threshold = 10
    while threshold <= max(a + b * first, a + b * last):
        if b > 0:
            chars += last + 1 - max(first, -((a - threshold) // b))
        elif b < 0:
            chars += min(last, (a - threshold) // -b) + 1 - first
        else:
            chars += count
        threshold *= 10
    return chars


def array_row_chars(report: graph_core.Indicators) -> int:
    """Characters of the delta, gamma and alpha row values, one separator after each.

    Counted from the groups and runs alone, in time linear in their number
    and in the digits of their values.
    """
    return sum(
        count * (len(str(value)) + 1)
        for groups in (report.delta, report.gamma)
        for value, count in groups
    ) + sum(_linear_run_chars(*run) for run in report.alpha)


def _print_counts(p: spiders.SpiderParams) -> None:
    print(f"spider M={p.m} K={p.k} L={p.l}")
    print(f"nodes: {spiders.node_count(p)}")
    print(f"edges: {spiders.edge_count(p)}")
    print(f"pairs: {spiders.pair_count(p)}")


def cmd_export(args) -> int:
    p = spiders.normalize(args.m, args.k, args.l)
    size = spiders.export_size(p, args.format)
    if size > OUTPUT_BUDGET:
        print(
            f"error: {args.format} export needs up to {size} characters, "
            f"above the output budget {OUTPUT_BUDGET}",
            file=sys.stderr,
        )
        return EXIT_RESOURCE
    text = spiders.export_spider(p, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _rows(record: graph_core.Indicators, pairs: int) -> dict[str, str]:
    """The report rows of an indicator record, for a graph with this many node pairs."""
    return {
        "delta": format_runs(record.delta),
        "gamma": format_runs(record.gamma),
        "alpha": format_linear_runs(record.alpha),
        "density": format_fraction(record.density),
        "diameter": str(record.diameter),
        "h-index": str(record.h_index),
        "neighboring-index": str(sum(v * c for v, c in record.gamma)),
        "mean-distance": format_fraction(Fraction(record.total_distance, pairs)),
    }


def oracle_refusal(p: spiders.SpiderParams, cap: int) -> str | None:
    """Why the oracle would exceed its budget for a node cap on p, or None.

    The budget is cap nodes and the BFS work of a tree on cap nodes.
    Per-source BFS visits n nodes and 2E adjacency entries once per source,
    n * (n + 2E) steps; a tree has E = n - 1, and a dense core of far fewer
    nodes can reach the same work.  ``graph_core.alpha_array`` folds the
    pendant trees into depth histograms, which copies at most n^2 / 2
    words, and sweeps only the 2-core, at most (D + 1) * (n + 2E) *
    ceil(n / 64) word operations for a 2-core of diameter D.  A spider's
    2-core is empty or its complete core, D = 1, so that budget still
    bounds the folded oracle.  The sweep holds up to 3 * n^2 / 8 bytes of bitsets
    (150 MB at n = 20000); running out of memory exits 4.
    """
    n = spiders.node_count(p)
    if n > cap:
        return f"{n} nodes, above the cap {cap}"
    work, work_cap = n * (n + 2 * spiders.edge_count(p)), cap * (3 * cap - 2)
    if work > work_cap:
        return f"{work} BFS steps, above the {work_cap} of a {cap}-node tree"
    return None


def cmd_report(args) -> int:
    """Print a report; every row is computed before the first line is printed."""
    p = spiders.normalize(args.m, args.k, args.l)
    cap = _node_cap(args.cap, REPORT_CAP_DEFAULT)
    if args.source in ("oracle", "both"):
        need = oracle_refusal(p, cap)
        if need:
            print(f"error: oracle computation needs {need}", file=sys.stderr)
            return EXIT_RESOURCE
    if spiders.node_count(p) < 2:
        _print_counts(p)
        print("single node: distance indicators are undefined")
        gamma = closed_form.gamma_groups(p)
        print(f"delta: {format_runs(closed_form.delta_groups(p))}")
        print(f"gamma: {format_runs(gamma)}")
        print(f"diameter: {closed_form.diameter_closed(p)}")
        print(f"h-index: {closed_form.h_index_closed(p)}")
        print(f"neighboring-index: {sum(v * c for v, c in gamma)}")
        return EXIT_OK
    rows, pairs = [], spiders.pair_count(p)
    if args.source != "oracle":
        report = closed_form.closed_form_report(p)
        size = array_row_chars(report)
        if size > OUTPUT_BUDGET:
            print(
                f"error: report needs {size} characters of arrays, "
                f"above the output budget {OUTPUT_BUDGET}",
                file=sys.stderr,
            )
            return EXIT_RESOURCE
        rows.append(_rows(report, pairs))
    if args.source != "closed":
        oracle = graph_core.all_indicators(spiders.build_spider(p))
        rows.append(_rows(oracle, pairs))
    _print_counts(p)
    for name, value in rows[0].items():
        if len(rows) == 2:
            print(f"{name}: {value}  [{'MATCH' if value == rows[1][name] else 'MISMATCH'}]")
        else:
            print(f"{name}: {value}")
    return EXIT_OK


def iter_grid(mmax: int, kmax: int, lmax: int, node_cap: int):
    """Distinct normalized parameters in the grid with at least 2 nodes, sorted.

    Points that ``oracle_refusal`` refuses under node_cap are dropped.  Node
    count and BFS work grow with m, with k when l >= 1 and with l when
    k >= 1, so each loop ends at its first refused point.  k = 0 or l = 0
    is the bare core, which ``normalize`` folds to one point per m.
    """
    points = []
    for m in range(1, mmax + 1):
        core = spiders.normalize(m, 0, 0)
        if oracle_refusal(core, node_cap):
            break
        if m >= 2:
            points.append(core)
        for k in range(1, kmax + 1 if lmax else 1):
            if oracle_refusal(spiders.normalize(m, k, 1), node_cap):
                break
            for l in range(1, lmax + 1):
                p = spiders.normalize(m, k, l)
                if oracle_refusal(p, node_cap):
                    break
                points.append(p)
    return points


def compare_point(p: spiders.SpiderParams) -> list[str]:
    """Mismatch descriptions between closed forms and the brute-force oracle, field by field."""
    prefix = f"M={p.m} K={p.k} L={p.l}"
    try:
        closed = closed_form.closed_form_report(p)
    except closed_form.ConsistencyError as exc:
        return [f"{prefix} internal consistency: {exc}"]
    oracle = graph_core.all_indicators(spiders.build_spider(p))
    return [
        f"{prefix} {field.name.replace('_', '-')}: "
        f"closed={getattr(closed, field.name)} oracle={getattr(oracle, field.name)}"
        for field in dataclasses.fields(closed)
        if getattr(closed, field.name) != getattr(oracle, field.name)
    ]


def cmd_verify(args) -> int:
    cap = _node_cap(args.cap, VERIFY_CAP_DEFAULT)
    points = iter_grid(args.mmax, args.kmax, args.lmax, cap)
    if not points:
        raise ValueError(
            f"the grid has no parameter point with at least 2 nodes within the cap {cap}"
        )
    failures = 0
    for p in points:
        for line in compare_point(p):
            failures += 1
            print(f"MISMATCH {line}")
    print(f"{len(points)} parameter points verified")
    if failures:
        print(f"{failures} mismatches found")
        return EXIT_MISMATCH
    return EXIT_OK


def _parse_fix(text: str) -> dict[str, int]:
    fixed = {}
    if not text:
        return fixed
    for part in text.split(","):
        name, _, raw = part.partition("=")
        name = name.strip().upper()
        if name not in ("M", "K", "L") or not raw.strip():
            raise ValueError(f"cannot parse fixed parameter {part!r}; expected e.g. K=1")
        if name in fixed:
            raise ValueError(f"fixed parameter {name} given more than once")
        fixed[name] = int(raw)
    return fixed


def _parse_steps(text: str) -> list[int]:
    if not text.strip():
        raise ValueError("--steps needs at least one value")
    return [int(s) for s in text.split(",")]


def _direction_from_args(args) -> small_world.GrowthDirection:
    fixed = _parse_fix(args.fix or "")
    return small_world.GrowthDirection(
        args.vary,
        m=fixed.get("M"),
        k=fixed.get("K"),
        l=fixed.get("L"),
    )


def _verdict_line(
    notion: small_world.SmallWorldNotion,
    direction: small_world.GrowthDirection,
    verdict: small_world.SmallWorldVerdict,
) -> str:
    label = small_world.verdict_label(verdict)
    return f"{notion.value} vary {direction.varying} ({direction.describe_fixed()}): {label}"


def _write_ratio_csv(path: str, steps, points) -> None:
    """One row per point; each pair (P, Q) reduced to lowest terms as p/q."""
    rows = ["step,N,numerator,lnN,ratio\n"]
    for value, pt in zip(steps, points):
        top, bottom = pt.pair
        common = math.gcd(top, bottom)
        rows.append(
            f"{value},{pt.n},{top // common}/{bottom // common},"
            f"{math.log(pt.n):.6g},{pt.ratio:.6g}\n"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(rows))


def cmd_asymptotics(args) -> int:
    if args.all:
        if args.notion or args.vary or args.fix or args.steps is not None or args.out_csv:
            raise ValueError("--all cannot be combined with single-cell options")
        if args.csv_dir:
            os.makedirs(args.csv_dir, exist_ok=True)
        steps = small_world.geometric_steps()
        for notion, direction, verdict in small_world.verdict_table():
            print(_verdict_line(notion, direction, verdict))
            if args.csv_dir:
                _write_ratio_csv(
                    os.path.join(args.csv_dir, f"{notion.value}_vary_{direction.varying}.csv"),
                    steps,
                    small_world.ratio_sequence(notion, direction, steps),
                )
        return EXIT_OK
    if args.csv_dir:
        raise ValueError("--csv-dir needs --all; write one cell with --out-csv")
    if not args.notion or not args.vary:
        raise ValueError("either --all or both --notion and --vary are required")
    if args.steps is not None and not args.out_csv:
        raise ValueError("--steps needs --out-csv")
    notion = small_world.SmallWorldNotion(args.notion)
    direction = _direction_from_args(args)
    verdict = small_world.classify(notion, direction)
    if args.out_csv:
        if args.steps is not None:
            steps = _parse_steps(args.steps)
        else:
            steps = small_world.geometric_steps()
        _write_ratio_csv(args.out_csv, steps, small_world.ratio_sequence(notion, direction, steps))
    print(_verdict_line(notion, direction, verdict))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spidernets",
        description="Spider graphs: generation, exact indicators, and small-world asymptotics.",
        epilog=(
            "exit codes: 0 ok, 1 verification mismatch, 2 usage, 3 I/O, "
            f"4 resource guard; {NODE_CAP_ENV} overrides the default node caps"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(sp):
        sp.add_argument("-M", dest="m", type=int, required=True, help="core size (>= 1)")
        sp.add_argument("-K", dest="k", type=int, required=True, help="legs per core node (>= 0)")
        sp.add_argument("-L", dest="l", type=int, required=True, help="leg length (>= 0)")

    rep = sub.add_parser("report", help="print all indicators for one spider")
    add_params(rep)
    rep.add_argument("--source", choices=("closed", "oracle", "both"), default="both")
    rep.add_argument(
        "--cap",
        type=int,
        help=(
            "largest node count allowed for oracle computation, whose BFS work "
            "may not exceed that of a tree on this many nodes "
            f"(default {REPORT_CAP_DEFAULT})"
        ),
    )
    rep.set_defaults(func=cmd_report)

    ver = sub.add_parser("verify", help="sweep a grid and compare closed forms to brute force")
    ver.add_argument("--Mmax", dest="mmax", type=int, default=8)
    ver.add_argument("--Kmax", dest="kmax", type=int, default=5)
    ver.add_argument("--Lmax", dest="lmax", type=int, default=6)
    ver.add_argument(
        "--cap",
        type=int,
        help=(
            "largest node count in the grid; points whose BFS work exceeds that "
            f"of a tree on this many nodes are dropped too (default {VERIFY_CAP_DEFAULT})"
        ),
    )
    ver.set_defaults(func=cmd_verify)

    asym = sub.add_parser("asymptotics", help="classify growing spider families")
    asym.add_argument("--notion", choices=[n.value for n in small_world.SmallWorldNotion])
    asym.add_argument("--vary", choices=("M", "K", "L"))
    asym.add_argument("--fix", help="fixed parameters, e.g. K=1,L=1")
    asym.add_argument(
        "--steps",
        help="comma-separated increasing parameter values for --out-csv (default 2,4,...,4096)",
    )
    asym.add_argument("--out-csv", dest="out_csv", help="write the ratio sequence as CSV")
    asym.add_argument("--all", action="store_true", help="print the full 12-cell verdict table")
    asym.add_argument(
        "--csv-dir",
        dest="csv_dir",
        help="with --all, also write each cell's ratio sequence to DIR/<notion>_vary_<M|K|L>.csv",
    )
    asym.set_defaults(func=cmd_asymptotics)

    exp = sub.add_parser("export", help="write a spider graph file")
    add_params(exp)
    exp.add_argument("--format", choices=spiders.EXPORT_FORMATS, default="edge-list")
    exp.add_argument("--out", help="output path (stdout when omitted)")
    exp.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except closed_form.ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError:
        print("error: out of memory (resource guard)", file=sys.stderr)
        return EXIT_RESOURCE
    except OverflowError as exc:
        print(f"error: result too large ({exc}) (resource guard)", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
