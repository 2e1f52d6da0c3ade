"""Command-line front end: report, verify, asymptotics, export.

Output is deterministic (sorted edges, exact fractions as p/q, floats with 6
significant digits) so files and stdout are stable across runs and suitable
for golden-file comparison.  Report rows and exports are made and written
in chunks of bounded length, never as one string per row or per file.
``main`` parses argv with the parser of the command it names, and again with
the top-level parser when it names none or leaves arguments over.  An error
names an int past 50 digits by its digit count, and an argument past 50
characters by its first 50 and its length.

Exit codes: 0 ok, 1 verification mismatch (a closed form that disagrees with
the oracle or fails its own consistency check), 2 usage error, 3 I/O failure,
4 resource guard (oracle requested beyond the node cap or its BFS work
bound, a closed report or an export above the output budget, out of
memory, a result too large to index or to write in decimal, or an integer
option with more digits than Python reads).  A report
or export that exits 4 prints nothing to stdout and writes no file.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from fractions import Fraction

from spidernets import closed_form, graph_core, small_world, spiders

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_RESOURCE = 4

REPORT_CAP_DEFAULT = 20000
VERIFY_CAP_DEFAULT = 2000
# Characters a report's delta, gamma and alpha rows, or an export, may take
# (128 MiB), counted from groups and runs or from (m, k, l) before anything
# is built.
OUTPUT_BUDGET = 2**27


def _decimal(value: int) -> str:
    """str(value); past Python's int-to-str digit limit an OverflowError, a resource guard."""
    try:
        return str(value)
    except ValueError:
        raise OverflowError(
            f"a {spiders.decimal_digits(value)}-digit integer, past Python's limit "
            f"of {sys.get_int_max_str_digits()} digits for integer string conversion"
        ) from None


class _InputTooLarge(OverflowError):
    """An integer input past Python's int-string digit limit: a resource guard, not a usage error."""


# What int() reads as a base-10 integer; it fails on such text only past the digit limit.
_INTEGER = re.compile(r"\s*[+-]?(\d(?:_?\d)*)\s*")


def _parse_int(text: str, error: str, name: str) -> int:
    """int(text), or ValueError(error) when text is not an integer.

    An integer past Python's int-string digit limit is ``_InputTooLarge``,
    named by name and its digit count.
    """
    try:
        return int(text)
    except ValueError:
        match = _INTEGER.fullmatch(text)
        if match:
            digits = len(match[1]) - match[1].count("_")
            raise _InputTooLarge(
                f"{name} is a {digits}-digit integer, past Python's limit of "
                f"{sys.get_int_max_str_digits()} digits for integer string conversion"
            ) from None
        raise ValueError(error) from None


def _int_option(name: str):
    """``_parse_int`` as the argparse type of the option name; ``_InputTooLarge`` passes argparse.

    argparse words a ValueError by the type's name: "invalid int value: 'text'".
    """

    def parse(text: str) -> int:
        return _parse_int(text, "not an integer", name)

    parse.__name__ = "int"
    return parse


def _shown(text: str, form=repr) -> str:
    """form(text); past ``spiders.SHOWN`` characters, form of the first ones and the length."""
    if len(text) <= spiders.SHOWN:
        return form(text)
    return f"{form(text[: spiders.SHOWN])}... ({len(text)} characters)"


class _Parser(argparse.ArgumentParser):
    """argparse's parser; errors show a bad value and the unrecognized arguments by ``_shown``."""

    def _get_values(self, action, arg_strings):
        try:
            return super()._get_values(action, arg_strings)
        except argparse.ArgumentError as exc:
            message = exc.message
            for text in arg_strings:
                message = message.replace(repr(text), _shown(text), 1)
            raise argparse.ArgumentError(action, message) from None

    def parse_args(self, args=None, namespace=None):
        args, rest = self.parse_known_args(args, namespace)
        if rest:
            self.error("unrecognized arguments: " + _shown(" ".join(rest), str))
        return args


def format_fraction(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _equal_chunks(value: int, count: int) -> list[str]:
    """count entries of value, each followed by a space, as chunks.

    Every full chunk holds as many whole entries as fit in
    ``spiders.CHUNK`` characters (one, when an entry is longer) and is one
    object repeated; one shorter chunk holds the rest.
    """
    unit = str(value) + " "
    per = max(1, spiders.CHUNK // len(unit))
    full, rest = divmod(count, per)
    chunks = [unit * per] * full if full else []
    if rest:
        chunks.append(unit * rest)
    return chunks


def _row(chunks: list[str]) -> list[str]:
    """The chunks of a row with the space after its last entry removed."""
    if chunks:
        chunks[-1] = chunks[-1][:-1]
    return chunks


def format_runs(groups) -> list[str]:
    """Each value of the (value, count) groups count times, space-separated, in group order.

    As chunks that join to the row text, each at most ``spiders.CHUNK``
    characters or one entry.
    """
    return _row([chunk for value, count in groups for chunk in _equal_chunks(value, count)])


def format_linear_runs(runs) -> list[str]:
    """The entries a + b*j of linear runs (first, last, a, b) at j = first..last, space-separated.

    As chunks that join to the row text, each at most ``spiders.CHUNK``
    characters or one entry.  A run with b = 0 is chunked as equal entries;
    any other is joined from ranges of as many entries as its widest one
    allows, so no Python code runs per entry.
    """
    chunks = []
    for first, last, a, b in runs:
        if not b:
            chunks += _equal_chunks(a, last - first + 1)
            continue
        width = spiders.decimal_digits(max(a + b * first, a + b * last)) + 1
        per = max(1, spiders.CHUNK // width)
        for j in range(first, last + 1, per):
            end = min(j + per, last + 1)
            chunks.append(" ".join(map(str, range(a + b * j, a + b * end, b))) + " ")
    return _row(chunks)


def _linear_run_chars(first: int, last: int, a: int, b: int) -> int:
    """Characters of a + b*j for j = first..last, with one separator each.

    The values of a run are non-negative and monotone in j, so those of at
    least d + 1 digits, the ones >= T = 10**d, are a prefix or a suffix of
    it, which ends at the floor quotient q of T - a by b.  Every value has
    at least as many digits as the least one, so only the thresholds
    between the least and the greatest value are counted.  From T to 10*T,
    T - a becomes 10*(T - a) + 9*a, so each quotient follows from the last
    one and from that of 9*a, taken once: no long division is left per
    threshold, only one with a quotient below 11.
    """
    count = last - first + 1
    low, high = sorted((a + b * first, a + b * last))
    digits = spiders.decimal_digits(low)
    chars = count * (digits + 1)
    threshold = 10**digits
    if threshold > high:  # also every run with b = 0, whose values are all equal
        return chars
    q, r = divmod(threshold - a, b)
    q_nine, r_nine = divmod(9 * a, b)
    while threshold <= high:
        if b > 0:  # values >= threshold at j >= ceil((threshold - a) / b)
            chars += last + 1 - max(first, q + (r != 0))
        else:  # values >= threshold at j <= floor((threshold - a) / b)
            chars += min(last, q) + 1 - first
        threshold *= 10
        carry, r = divmod(10 * r + r_nine, b)
        q = 10 * q + q_nine + carry
    return chars


def array_row_chars(report: graph_core.Indicators) -> int:
    """Characters of the delta, gamma and alpha row values, one separator after each.

    Counted from the groups and runs alone, in time linear in their number
    and in the digits of their values.
    """
    return sum(
        count * (spiders.decimal_digits(value) + 1)
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
            f"error: {args.format} export needs up to {spiders.decimal_text(size)} characters, "
            f"above the output budget {OUTPUT_BUDGET}",
            file=sys.stderr,
        )
        return EXIT_RESOURCE
    chunks = spiders.export_spider(p, args.format)  # only adjacency-csv builds a graph, here
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)
    return EXIT_OK


def _rows(record: graph_core.Indicators, pairs: int) -> dict[str, list[str]]:
    """The report rows of an indicator record, as chunks, for a graph with this many node pairs.

    Groups and runs are canonical (``value_groups``, ``linear_runs``) and
    each row renders its key of ``_row_keys``, so two records give a row the
    same text exactly when they give it equal keys.
    """
    delta, gamma, alpha, density, diameter, h_index, gamma_sum, total = _row_keys(record)
    return {
        "delta": format_runs(delta),
        "gamma": format_runs(gamma),
        "alpha": format_linear_runs(alpha),
        "density": [format_fraction(density)],
        "diameter": [str(diameter)],
        "h-index": [str(h_index)],
        "neighboring-index": [str(gamma_sum)],
        "mean-distance": [format_fraction(Fraction(total, pairs))],
    }


def _row_keys(r: graph_core.Indicators) -> tuple:
    """What each row of ``_rows`` renders of the record, in row order; the pair count is shared."""
    gamma_sum = sum(v * c for v, c in r.gamma)
    return r.delta, r.gamma, r.alpha, r.density, r.diameter, r.h_index, gamma_sum, r.total_distance


def _write_row(name: str, chunks: list[str], end: str = "\n") -> None:
    """Write "name: ", the row's chunks one by one, then end."""
    out = sys.stdout
    out.write(f"{name}: ")
    out.writelines(chunks)
    out.write(end)


def oracle_refusal(p: spiders.SpiderParams, cap: int) -> str | None:
    """Why the oracle would exceed its budget for a node cap on p, or None.

    The budget is cap nodes and the BFS work of a tree on cap nodes.
    Per-source BFS visits n nodes and 2E adjacency entries once per source,
    n * (n + 2E) steps; a tree has E = n - 1, and a dense core of far fewer
    nodes can reach the same work.  ``graph_core.all_indicators`` folds the
    pendant trees into depth histograms, where a chain step appends one
    lane and only a node with a second child copies lanes and multiplies:
    O(n) words on a spider's legs, at most n^2 / 2 on any tree.  It sweeps
    only the 2-core, in at most D passes of (n + 2E) * ceil(n / 64) word
    operations for a connected 2-core of diameter D, since a node leaves
    the sweep once it has seen every 2-core node.  A spider's 2-core is
    empty or its complete core, D = 1, one pass, so that budget still
    bounds the folded oracle.  The sweep holds up to 3 * n^2 / 8 bytes of
    bitsets (150 MB at n = 20000); running out of memory exits 4.
    """
    n = spiders.node_count(p)
    if n > cap:
        return f"{spiders.decimal_text(n)} nodes, above the cap {cap}"
    work, work_cap = n * (n + 2 * spiders.edge_count(p)), cap * (3 * cap - 2)
    if work > work_cap:
        return f"{spiders.decimal_text(work)} BFS steps, above the {work_cap} of a {cap}-node tree"
    return None


def cmd_report(args) -> int:
    """Print a report; every row is computed, as chunks, before the first line is printed."""
    p = spiders.normalize(args.m, args.k, args.l)
    if args.cap < 0:
        raise ValueError(f"--cap must be non-negative, got {args.cap}")
    if args.source in ("oracle", "both"):
        need = oracle_refusal(p, args.cap)
        if need:
            print(f"error: oracle computation needs {need}", file=sys.stderr)
            return EXIT_RESOURCE
    if spiders.node_count(p) < 2:
        _print_counts(p)
        print("single node: distance indicators are undefined")
        gamma, delta = closed_form.gamma_groups(p), closed_form.delta_groups(p)
        _write_row("delta", format_runs(delta))
        _write_row("gamma", format_runs(gamma))
        print(f"diameter: {closed_form.diameter_closed(p)}")
        print(f"h-index: {closed_form.h_index_closed(p, delta)}")
        print(f"neighboring-index: {sum(v * c for v, c in gamma)}")
        return EXIT_OK
    records, pairs = [], spiders.pair_count(p)
    if args.source != "oracle":
        report = closed_form.closed_form_report(p)
        size = array_row_chars(report)
        if size > OUTPUT_BUDGET:
            print(
                f"error: report needs {spiders.decimal_text(size)} characters of arrays, "
                f"above the output budget {OUTPUT_BUDGET}",
                file=sys.stderr,
            )
            return EXIT_RESOURCE
        records.append(report)
    if args.source != "closed":
        records.append(graph_core.all_indicators(spiders.build_spider(p)))
    rows = _rows(records[0], pairs)
    matches = [a == b for a, b in zip(*map(_row_keys, records))] if len(records) == 2 else []
    ends = [f"  [{'MATCH' if match else 'MISMATCH'}]\n" for match in matches] or ["\n"] * len(rows)
    _print_counts(p)
    for (name, chunks), end in zip(rows.items(), ends):
        _write_row(name, chunks, end)
    return EXIT_OK if all(matches) else EXIT_MISMATCH


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
    m, k, l = p
    prefix = f"M={m} K={k} L={l}"
    try:
        closed = closed_form.closed_form_report(p)
    except closed_form.ConsistencyError as exc:
        return [f"{prefix} internal consistency: {exc}"]
    oracle = graph_core.all_indicators(spiders.build_spider(p))
    if closed == oracle:
        return []
    return [
        f"{prefix} {name.replace('_', '-')}: closed={ours} oracle={theirs}"
        for name, ours, theirs in zip(graph_core.Indicators._fields, closed, oracle)
        if ours != theirs
    ]


def cmd_verify(args) -> int:
    if args.cap < 0:
        raise ValueError(f"--cap must be non-negative, got {args.cap}")
    points = iter_grid(args.mmax, args.kmax, args.lmax, args.cap)
    if not points:
        raise ValueError(
            f"the grid has no parameter point with at least 2 nodes within the cap {args.cap}"
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


def _parse_fix(text: str | None) -> dict[str, int]:
    """``--fix`` as keyword arguments of ``GrowthDirection``: {"k": 1, "l": 1} for K=1,L=1."""
    fixed = {}
    for part in text.split(",") if text else ():
        name, _, raw = part.partition("=")
        name = name.strip().lower()
        error = f"cannot parse fixed parameter {_shown(part)}; expected e.g. K=1"
        if name not in ("m", "k", "l") or not raw.strip():
            raise ValueError(error)
        if name in fixed:
            raise ValueError(f"fixed parameter {name.upper()} given more than once")
        fixed[name] = _parse_int(raw, error, f"--fix {name.upper()}")
    return fixed


def _parse_steps(text: str) -> list[int]:
    if not text.strip():
        raise ValueError("--steps needs at least one value")
    entries = text.split(",")
    try:
        return list(map(int, entries))
    except ValueError:  # name the first entry that is not an integer
        for i, entry in enumerate(entries, start=1):
            error = f"--steps entry {_shown(entry)} is not an integer"
            _parse_int(entry, error, f"--steps entry {i}")
        raise


_RATIO_ROW = "%d,%d,%d/%d,%.6g,%.6g\n"
# Rows per % call: bounds the value list, the repeated pattern and each block's text.
_RATIO_BLOCK = 4096


def _ratio_rows(values: list) -> str:
    """The rows of a block of six values per row, formatted by one % call.

    Past the int-to-str digit limit, the first of n, p and q, row by row,
    that cannot be written is named by ``_decimal``'s OverflowError.
    """
    try:
        return _RATIO_ROW * (len(values) // 6) % tuple(values)
    except ValueError:
        for row in range(0, len(values), 6):
            for big in values[row + 1 : row + 4]:
                _decimal(big)
        raise


def _write_ratio_csv(path: str, steps, points) -> None:
    """One row per point (n, pair, ratio, log_n), read as it comes, each pair (P, Q) as p/q.

    Each row's six values, the step, n, p, q in lowest terms, the point's
    ln(n) and its ratio, are collected for a block of ``_RATIO_BLOCK`` rows,
    and the block is formatted by one % call; %d and %.6g give the text of
    str and format(x, ".6g").  Every block is formatted before the file is
    opened, so a point that fails a check, or a row past the int-to-str
    digit limit, writes no file; the first of its n, p and q that is past
    the limit is named, as ``_decimal`` names it.
    """
    blocks, values, gcd = ["step,N,numerator,lnN,ratio\n"], [], math.gcd
    for step, (n, (top, bottom), ratio, log_n) in zip(steps, points):
        common = gcd(top, bottom)
        values += step, n, top // common, bottom // common, log_n, ratio
        if len(values) == 6 * _RATIO_BLOCK:
            blocks.append(_ratio_rows(values))
            values = []
    blocks.append(_ratio_rows(values))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(blocks)


def cmd_asymptotics(args) -> int:
    """Print each cell's verdict line, after writing its CSV when one is asked for."""
    steps = small_world.geometric_steps()
    if args.all:
        if args.notion or args.vary or args.fix or args.steps is not None or args.out_csv:
            raise ValueError("--all cannot be combined with single-cell options")
        if args.csv_dir:
            os.makedirs(args.csv_dir, exist_ok=True)
        cells = [
            (n, d, v, args.csv_dir and os.path.join(args.csv_dir, f"{n.value}_vary_{d.varying}.csv"))
            for n, d, v in small_world.verdict_table()
        ]
    else:
        if args.csv_dir:
            raise ValueError("--csv-dir needs --all; write one cell with --out-csv")
        if not args.notion or not args.vary:
            raise ValueError("either --all or both --notion and --vary are required")
        if args.steps is not None and not args.out_csv:
            raise ValueError("--steps needs --out-csv")
        notion = small_world.SmallWorldNotion(args.notion)
        direction = small_world.GrowthDirection(args.vary, **_parse_fix(args.fix))
        cells = [(notion, direction, small_world.classify(notion, direction), args.out_csv)]
        if args.steps is not None:
            steps = _parse_steps(args.steps)
    for notion, direction, verdict, path in cells:
        if path:
            _write_ratio_csv(path, steps, small_world.ratio_steps(notion, direction, steps))
        label = small_world.verdict_label(verdict)
        print(f"{notion.value} vary {direction.varying} ({direction.describe_fixed()}): {label}")
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser; it reads no run-time state, so main reuses one instance."""
    parser = _Parser(
        prog="spidernets",
        description="Spider graphs: generation, exact indicators, and small-world asymptotics.",
        epilog="exit codes: 0 ok, 1 verification mismatch, 2 usage, 3 I/O, 4 resource guard",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # each command's own parser, for main's dispatch

    def add_params(sp):
        for flag, text in (
            ("-M", "core size (>= 1)"),
            ("-K", "legs per core node (>= 0)"),
            ("-L", "leg length (>= 0)"),
        ):
            sp.add_argument(
                flag, dest=flag[1].lower(), type=_int_option(flag), required=True, help=text
            )

    rep = sub.add_parser("report", help="print all indicators for one spider")
    add_params(rep)
    rep.add_argument("--source", choices=("closed", "oracle", "both"), default="both")
    rep.add_argument(
        "--cap",
        type=_int_option("--cap"),
        default=REPORT_CAP_DEFAULT,
        help=(
            "largest node count for the oracle, whose BFS work may not exceed that of a tree "
            "on this many nodes; --source closed runs at any cap, 0 too (default %(default)s)"
        ),
    )
    rep.set_defaults(func=cmd_report)

    ver = sub.add_parser("verify", help="sweep a grid and compare closed forms to brute force")
    ver.add_argument("--Mmax", dest="mmax", type=_int_option("--Mmax"), default=8)
    ver.add_argument("--Kmax", dest="kmax", type=_int_option("--Kmax"), default=5)
    ver.add_argument("--Lmax", dest="lmax", type=_int_option("--Lmax"), default=6)
    ver.add_argument(
        "--cap",
        type=_int_option("--cap"),
        default=VERIFY_CAP_DEFAULT,
        help=(
            "largest node count in the grid; points whose BFS work exceeds a tree's on this many "
            "nodes are dropped too; an empty grid (--cap 0) is a usage error (default %(default)s)"
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


def _parse(argv) -> argparse.Namespace:
    """argv by its command's parser; by the top-level one when it names none or leaves some over."""
    parser = _build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    args, rest = command.parse_known_args(argv[1:]) if command else (None, argv)
    return args if command and not rest else parser.parse_args(argv)  # passes _InputTooLarge on


def main(argv=None) -> int:
    """Run the command of argv (default ``sys.argv[1:]``) as ``_parse`` reads it; its exit code."""
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        return args.func(args)
    except closed_form.ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        message = str(exc)
        if isinstance(exc.filename, str):
            message = message.replace(repr(exc.filename), _shown(exc.filename), 1)
        print(f"error: {message}", file=sys.stderr)
        return EXIT_IO
    except MemoryError:
        print("error: out of memory (resource guard)", file=sys.stderr)
        return EXIT_RESOURCE
    except _InputTooLarge as exc:
        print(f"error: {exc} (resource guard)", file=sys.stderr)
        return EXIT_RESOURCE
    except OverflowError as exc:
        print(f"error: result too large ({exc}) (resource guard)", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
