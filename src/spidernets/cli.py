"""Command-line front end: generate, report, verify, asymptotics, export.

Output is deterministic (sorted edges, exact fractions as p/q, floats with 6
significant digits) so files and stdout are stable across runs and suitable
for golden-file comparison.

Exit codes: 0 ok, 1 verification mismatch, 2 usage error, 3 I/O failure,
4 resource guard (oracle requested beyond the node cap or its BFS work
bound, out of memory, or a result too large to index).
"""

from __future__ import annotations

import argparse
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


def format_array(values) -> str:
    return " ".join(str(v) for v in values)


def format_runs(groups) -> str:
    """format_array of the expanded (value, count) groups, built run by run."""
    return "".join((str(v) + " ") * c for v, c in groups)[:-1]


def _print_counts(p: spiders.SpiderParams) -> None:
    print(f"spider M={p.m} K={p.k} L={p.l}")
    print(f"nodes: {spiders.node_count(p)}")
    print(f"edges: {spiders.edge_count(p)}")
    print(f"pairs: {spiders.pair_count(p)}")


def cmd_generate(args) -> int:
    p = spiders.normalize(args.m, args.k, args.l)
    _print_counts(p)
    if args.out:
        text = spiders.export_spider(p, args.format)
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {args.format} to {args.out}")
    return EXIT_OK


def cmd_export(args) -> int:
    p = spiders.normalize(args.m, args.k, args.l)
    text = spiders.export_spider(p, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _closed_rows(p: spiders.SpiderParams) -> dict[str, str]:
    report = closed_form.closed_form_report(p)
    head = report.alpha_head
    return {
        "delta": format_runs(report.delta_groups),
        "gamma": format_runs(report.gamma_groups),
        "alpha": format_array(head) + " 0" * (report.alpha_length - len(head)),
        "density": format_fraction(report.density),
        "diameter": str(report.diameter),
        "h-index": str(report.h_index),
        "neighboring-index": str(sum(v * c for v, c in report.gamma_groups)),
        "mean-distance": format_fraction(
            Fraction(report.total_distance, spiders.pair_count(p))
        ),
    }


def _oracle_rows(g: graph_core.Graph) -> dict[str, str]:
    ind = graph_core.all_indicators(g)
    return {
        "delta": format_array(ind.delta),
        "gamma": format_array(ind.gamma),
        "alpha": format_array(ind.alpha),
        "density": format_fraction(ind.density),
        "diameter": str(ind.diameter),
        "h-index": str(ind.h_index),
        "neighboring-index": str(ind.neighboring_index),
        "mean-distance": format_fraction(
            Fraction(ind.total_distance, g.n * (g.n - 1) // 2)
        ),
    }


ROW_ORDER = (
    "delta",
    "gamma",
    "alpha",
    "density",
    "diameter",
    "h-index",
    "neighboring-index",
    "mean-distance",
)


def cmd_report(args) -> int:
    p = spiders.normalize(args.m, args.k, args.l)
    cap = _node_cap(args.cap, REPORT_CAP_DEFAULT)
    n = spiders.node_count(p)
    if args.source in ("oracle", "both"):
        # A BFS from every node visits n nodes and 2E adjacency entries per
        # source; dense graphs get at most the work of a tree on cap nodes.
        work, work_cap = n * (n + 2 * spiders.edge_count(p)), cap * (3 * cap - 2)
        need = None
        if n > cap:
            need = f"{n} nodes, above the cap {cap}"
        elif work > work_cap:
            need = f"{work} BFS steps, above the {work_cap} of a {cap}-node tree"
        if need:
            print(f"error: oracle computation needs {need}", file=sys.stderr)
            return EXIT_RESOURCE
    _print_counts(p)
    if n < 2:
        print("single node: distance indicators are undefined")
        gamma = closed_form.gamma_groups(p)
        print(f"delta: {format_runs(closed_form.delta_groups(p))}")
        print(f"gamma: {format_runs(gamma)}")
        print(f"diameter: {closed_form.diameter_closed(p)}")
        print(f"h-index: {closed_form.h_index_closed(p)}")
        print(f"neighboring-index: {sum(v * c for v, c in gamma)}")
        return EXIT_OK
    if args.source == "closed":
        rows = _closed_rows(p)
        for name in ROW_ORDER:
            print(f"{name}: {rows[name]}")
    elif args.source == "oracle":
        rows = _oracle_rows(spiders.build_spider(p))
        for name in ROW_ORDER:
            print(f"{name}: {rows[name]}")
    else:
        closed_rows = _closed_rows(p)
        oracle_rows = _oracle_rows(spiders.build_spider(p))
        for name in ROW_ORDER:
            flag = "MATCH" if closed_rows[name] == oracle_rows[name] else "MISMATCH"
            print(f"{name}: {closed_rows[name]}  [{flag}]")
    return EXIT_OK


def iter_grid(mmax: int, kmax: int, lmax: int, node_cap: int):
    """Distinct normalized parameters in the grid with 2 <= nodes <= cap."""
    seen = set()
    points = []
    for m in range(1, mmax + 1):
        for k in range(0, kmax + 1):
            for l in range(0, lmax + 1):
                p = spiders.normalize(m, k, l)
                if p in seen:
                    continue
                seen.add(p)
                if 2 <= spiders.node_count(p) <= node_cap:
                    points.append(p)
    points.sort(key=lambda p: (p.m, p.k, p.l))
    return points


def compare_point(p: spiders.SpiderParams) -> list[str]:
    """Mismatch descriptions between closed forms and the brute-force oracle."""
    ind = graph_core.all_indicators(spiders.build_spider(p))
    prefix = f"M={p.m} K={p.k} L={p.l}"
    mismatches = []
    try:
        pairs = (
            ("delta", closed_form.delta_closed(p), ind.delta),
            ("gamma", closed_form.gamma_closed(p), ind.gamma),
            ("alpha", closed_form.alpha_closed(p), ind.alpha),
            ("diameter", closed_form.diameter_closed(p), ind.diameter),
            ("density", closed_form.density_closed(p), ind.density),
            ("h-index", closed_form.h_index_closed(p), ind.h_index),
            ("total-distance", closed_form.total_distance_closed(p), ind.total_distance),
        )
    except closed_form.ConsistencyError as exc:
        return [f"{prefix} internal consistency: {exc}"]
    for name, closed_value, oracle_value in pairs:
        if closed_value == oracle_value:
            continue
        if isinstance(closed_value, tuple):
            index = next(
                (
                    i
                    for i, (a, b) in enumerate(zip(closed_value, oracle_value))
                    if a != b
                ),
                min(len(closed_value), len(oracle_value)),
            )
            mismatches.append(
                f"{prefix} {name}: first difference at index {index} "
                f"(closed={closed_value[index] if index < len(closed_value) else 'missing'}, "
                f"oracle={oracle_value[index] if index < len(oracle_value) else 'missing'})"
            )
        else:
            mismatches.append(
                f"{prefix} {name}: closed={closed_value} oracle={oracle_value}"
            )
    return mismatches


def cmd_verify(args) -> int:
    cap = _node_cap(args.cap, VERIFY_CAP_DEFAULT)
    points = iter_grid(args.mmax, args.kmax, args.lmax, cap)
    if not points:
        raise ValueError(f"the grid has no parameter point with 2 <= nodes <= {cap}")
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
        fixed[name] = int(raw)
    return fixed


def _direction_from_args(args) -> small_world.GrowthDirection:
    fixed = _parse_fix(args.fix or "")
    if args.vary in fixed:
        raise ValueError(f"varying parameter {args.vary} must not be fixed")
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
    label = small_world.verdict_label(notion, verdict)
    return f"{notion.value} vary {direction.varying} ({direction.describe_fixed()}): {label}"


def cmd_asymptotics(args) -> int:
    if args.all:
        if args.notion or args.vary or args.fix or args.steps or args.out_csv:
            raise ValueError("--all cannot be combined with single-cell options")
        for notion, direction, verdict in small_world.verdict_table():
            print(_verdict_line(notion, direction, verdict))
        return EXIT_OK
    if not args.notion or not args.vary:
        raise ValueError("either --all or both --notion and --vary are required")
    notion = small_world.SmallWorldNotion(args.notion)
    direction = _direction_from_args(args)
    if args.steps:
        steps = [int(s) for s in args.steps.split(",")]
    else:
        steps = small_world.geometric_steps(direction)
    points = small_world.ratio_sequence(notion, direction, steps)
    verdict = small_world.classify(notion, direction)
    if args.out_csv:
        with open(args.out_csv, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("step,N,numerator,lnN,ratio\n")
            for value, pt in zip(steps, points):
                fh.write(
                    f"{value},{pt.n},{format_fraction(pt.numerator)},"
                    f"{math.log(pt.n):.6g},{pt.ratio:.6g}\n"
                )
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

    gen = sub.add_parser("generate", help="build a spider and print its counts")
    add_params(gen)
    gen.add_argument("--format", choices=spiders.EXPORT_FORMATS, default="edge-list")
    gen.add_argument("--out", help="also write the graph to this file")
    gen.set_defaults(func=cmd_generate)

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
        "--cap", type=int, help=f"largest node count in the grid (default {VERIFY_CAP_DEFAULT})"
    )
    ver.set_defaults(func=cmd_verify)

    asym = sub.add_parser("asymptotics", help="classify growing spider families")
    asym.add_argument("--notion", choices=[n.value for n in small_world.SmallWorldNotion])
    asym.add_argument("--vary", choices=("M", "K", "L"))
    asym.add_argument("--fix", help="fixed parameters, e.g. K=1,L=1")
    asym.add_argument("--steps", help="comma-separated increasing parameter values")
    asym.add_argument("--out-csv", dest="out_csv", help="write the ratio sequence as CSV")
    asym.add_argument("--all", action="store_true", help="print the full 12-cell verdict table")
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
