"""Mutation score of one spidernets module, judged by the command line.

Run from the root of a checkout:

    python3 tools/mutants.py closed_form

Each mutant changes one AST node of ``src/spidernets/<module>.py``: a
``+`` becomes ``-`` and a ``-`` ``+``, a ``*`` becomes ``+``, a ``//``
becomes ``*``, a comparison is flipped (``<`` to ``>=``, ``==`` to ``!=``,
and so on) or an int constant grows by one.  A site is the node's index in
``ast.walk`` order, so exactly one node changes, even where several share a
source position.  The mutated module is written into a copy of ``src/`` and
the commands of the module's judge run on it from the root of the checkout,
one child process at a time, with a timeout and an address-space limit set
on that child only.  A mutant is killed as soon as a command's exit code or
stdout differs from its run on the unmutated copy, or when one runs out of
time; the commands after it do not run.  The result goes to
``MUTANTS.json``: per module, the judge, the counts and every mutant with
its line and outcome, a survivor with the reason in ``EQUIVALENT`` when one
is given there.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPIDERNETS = ["-m", "spidernets.cli"]
# pytest's own pythonpath (pyproject.toml) would put the unmutated src/ first; "{src}" is
# the mutated copy.  -qq prints no timings, so stdout compares.
PYTEST = ["-m", "pytest", "-qq", "-x", "-p", "no:cacheprovider", "-o", "pythonpath={src}"]
# Each module's judge: Python commands, as arguments, run one after another with the
# mutated copy of src/ first on PYTHONPATH.  The single node is the one diameter case
# that verify's grid, from two nodes up, never reaches.  closed_form's tests reach what no
# command does: max_degree, which only the small-world steps call, and each check's failure.
# The short cells write their CSV to stdout, so the judge reaches the ratio steps that
# --all never runs.  spiders' exports cover a spider with legs longer than 1, a star, a
# complete graph and the single node in every format.
JUDGES = {
    "closed_form": [
        [*SPIDERNETS, "verify"],
        [*SPIDERNETS, "report", "--source", "closed", "-M", "1", "-K", "0", "-L", "0"],
        [*PYTEST, "tests/test_closed_form.py"],
    ],
    "graph_core": [[*SPIDERNETS, "verify"], [*PYTEST, "tests/test_graph_core.py"]],
    "small_world": [
        [*SPIDERNETS, "asymptotics", "--all"],
        *(
            [*SPIDERNETS, "asymptotics", "--notion", notion, "--vary", vary, "--fix", fixed,
             "--steps", "1,2,3,5,8,13,21", "--out-csv", "/dev/stdout"]
            for notion, vary, fixed in (
                ("DSWL", "M", "K=2,L=3"),
                ("DSWA", "K", "M=3,L=2"),
                ("SWD", "L", "M=2,K=2"),
                ("SWA", "L", "M=3,K=2"),
            )
        ),
    ],
    "spiders": [
        *(
            [*SPIDERNETS, "export", "-M", m, "-K", k, "-L", l, "--format", fmt]
            for m, k, l in (("3", "2", "4"), ("1", "1", "1"), ("4", "0", "0"), ("1", "0", "0"))
            for fmt in ("edge-list", "dot", "adjacency-csv")
        ),
        [*SPIDERNETS, "report", "-M", "3", "-K", "2", "-L", "4"],
        [*PYTEST, "tests/test_spiders.py"],
    ],
}
# Why a surviving mutant is equivalent, by (module, line of code, mutation): it changes
# no result of any input, only the path or the cost.
_FAR = (
    "the far points stay past n(1)**2, so past every product of the fixed values; the"
    " closed forms are the interpolants at any two such points, so the verdict is the same"
)
_PACKING = "only the lines per chunk of an export change; joined, the chunks are the same file"
_SHORTER = "zip and compress stop at their shortest input, which this range outlasts"
_NO_LEGS = "l = 0 only with k = 0, and then the range is empty at any step"
EQUIVALENT = {
    (
        "closed_form",
        "return [(1, 1, c, 0), (2, l + 1, a, b), (l + 2, 2 * l + 1, a2, b2),"
        " (2 * l + 2, n - 1, 0, 0)]",
        "- -> +",
    ): "the report clips every line to j <= n - 1, so a line that ends past it holds only zeros",
    ("closed_form", "if first <= min(last, n - 1)", "- -> +"):
        "a line that starts past n - 1 stands for no entry, clipped to n - 1 or not",
    ("small_world", "far = 2**64 * next(walk)[0] ** 2", "* -> +"): _FAR,
    ("small_world", "far = 2**64 * next(walk)[0] ** 2", "2 -> 3"): _FAR,
    ("small_world", "far = 2**64 * next(walk)[0] ** 2", "64 -> 65"): _FAR,
    ("small_world", "far_points = (far, far + 1)", "1 -> 2"): _FAR,
    ("graph_core", "_SHORT_BITS = 64 * 31", "* -> +"):
        "the threshold only picks an int or a bytearray for the same lanes",
    ("graph_core", "_SHORT_BITS = 64 * 31", "64 -> 65"):
        "the threshold only picks an int or a bytearray for the same lanes",
    ("graph_core", "_SHORT_BITS = 64 * 31", "31 -> 32"):
        "the threshold only picks an int or a bytearray for the same lanes",
    ("graph_core", "weight[u] = 0", "0 -> 1"):
        "a peeled node that is not a root is never read again",
    ("graph_core", "weight[u] = 1", "1 -> 2"):
        "lane 0 of a root is never read: the n pairs at distance 0 are counted as n",
    ("graph_core", "elif w.bit_length() <= _SHORT_BITS:", "<= -> >"):
        "the test only picks an int or a bytearray for the same lanes",
    (
        "graph_core",
        'w = bytearray(w.to_bytes(-(-w.bit_length() // 64) * 8, "big")) + _LANE_ONE',
        "8 -> 9",
    ): "leading zero bytes leave the value that int.from_bytes reads unchanged",
    (
        "graph_core",
        'w = bytearray(w.to_bytes(-(-w.bit_length() // 64) * 8, "big")) + _LANE_ONE',
        "// -> *",
    ): "leading zero bytes leave the value that int.from_bytes reads unchanged",
    ("graph_core", "unseen = [0] * n", "0 -> 1"):
        "unseen is read only for 2-core nodes, each of which is set before the sweep",
    ("graph_core", "if any(count < 0 for _, count in groups):", "0 -> 1"):
        "groups of count 0 are already dropped, so count < 1 means count < 0",
    ("graph_core", "total_distance=sum(map(operator.mul, alpha, range(1, d + 1))),", "1 -> 2"):
        "the d + 1 bound: map stops at the d entries of alpha",
    ("spiders", "CHUNK = 2**16", "16 -> 17"): _PACKING,
    (
        "spiders",
        "core[:c] + core[c + 1:] + tuple(range(m + c * span, m + (c + 1) * span, l or 1))",
        "1 -> 2",
    ): _NO_LEGS,
    ("spiders", "firsts = range(m, n, l or 1)  # k per core node", "1 -> 2"): _NO_LEGS,
    **{
        ("spiders", "legs = list(zip(range(m - 1, end - 1), range(m + 1, end + 1)))", mutation):
            _SHORTER
        for mutation in ("- -> +", "1 -> 2")
    },
    **{
        (
            "spiders",
            "successors = map(operator.mod, range(1, n - m + 1), itertools.repeat(l))"
            "  # 0 at a terminal",
            mutation,
        ): _SHORTER
        for mutation in ("- -> +", "1 -> 2")
    },
    (
        "spiders",
        "digits = int((value.bit_length() - 1) * 0.3010299956639812) + 1  # log10(2)",
        "1 -> 2",
    ): "the estimate stays within one digit of the count, and the two corrections fix either side",
    ("spiders", "return f\"a {digits}-digit {'negative ' if value < 0 else ''}integer\"", "0 -> 1"):
        "only values of more than SHOWN digits reach this test, and none of them is 0",
    (
        "spiders",
        "return _chunks(_adjacency_rows(build_spider(p)), max(1, CHUNK // (2 * n)))",
        "2 -> 3",
    ): _PACKING,
    (
        "spiders",
        "width = decimal_digits(n - 1)  # of the largest id: it sets how many lines a chunk holds",
        "1 -> 2",
    ): _PACKING,
    (
        "spiders",
        'return _chunks((f"{u} {v}\\n" for u, v in edges), max(1, CHUNK // (2 * width + 2)))',
        "2 -> 3",
    ): _PACKING,
}
TIMEOUT_S = 60
ADDRESS_SPACE = 2**31  # bytes a judge may map

_BINARY = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add, ast.FloorDiv: ast.Mult}
_FLIPPED = {
    ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
_SYMBOL = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//", ast.Lt: "<", ast.GtE: ">=",
    ast.Gt: ">", ast.LtE: "<=", ast.Eq: "==", ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not",
    ast.In: "in", ast.NotIn: "not in",
}


class Mutant(NamedTuple):
    site: int  # index of the changed node in ast.walk order
    slot: int  # which operator of a chained comparison; 0 otherwise
    line: int
    mutation: str  # e.g. "- -> +" or "6 -> 7"


def _label(op, table) -> str:
    return f"{_SYMBOL[type(op)]} -> {_SYMBOL[table[type(op)]]}"


def _is_int(node) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is int


def mutants(source: str) -> list[Mutant]:
    """Every mutant of source, by line."""
    found = []
    for site, node in enumerate(ast.walk(ast.parse(source))):
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            found.append(Mutant(site, 0, node.lineno, _label(node.op, _BINARY)))
        elif isinstance(node, ast.Compare):
            for slot, op in enumerate(node.ops):
                found.append(Mutant(site, slot, node.lineno, _label(op, _FLIPPED)))
        elif _is_int(node):
            found.append(Mutant(site, 0, node.lineno, f"{node.value} -> {node.value + 1}"))
    return sorted(found, key=lambda mutant: (mutant.line, mutant.site, mutant.slot))


def mutate(source: str, mutant: Mutant) -> str:
    """source with the one node of mutant changed, as ``ast.unparse`` writes it."""
    tree = ast.parse(source)
    node = next(node for site, node in enumerate(ast.walk(tree)) if site == mutant.site)
    if isinstance(node, ast.BinOp):
        node.op = _BINARY[type(node.op)]()
    elif isinstance(node, ast.Compare):
        node.ops[mutant.slot] = _FLIPPED[type(node.ops[mutant.slot])]()
    else:
        node.value += 1
    return ast.unparse(tree)


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def label(command: list[str]) -> str:
    """A judge command as it reads in MUTANTS.json."""
    if command[:2] == SPIDERNETS:
        return " ".join(["spidernets", *command[2:]])
    return " ".join(["python", *command]).replace("{src}", "<copy>/src")


def judge(commands: list[list[str]], src: str, timeout: float, baseline=()):
    """[(exit code, stdout)] of the Python commands with src first on PYTHONPATH, or "timeout".

    The list stops at the first command whose outcome differs from the baseline's.
    """
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    outcomes = []
    for i, command in enumerate(commands):
        try:
            done = subprocess.run(
                [sys.executable, *(arg.replace("{src}", src) for arg in command)],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
                preexec_fn=_limit_address_space,
            )
        except subprocess.TimeoutExpired:
            return "timeout"
        outcomes.append((done.returncode, done.stdout))
        if baseline and outcomes[-1] != baseline[i]:
            break
    return outcomes


def score(module: str, chosen=None, command=None, timeout: float = TIMEOUT_S) -> dict:
    """Judge every mutant of module, or the chosen ones, by command; the MUTANTS.json entry.

    A command is the arguments of a Python process.  Without one, the
    module's judge in ``JUDGES`` judges.
    """
    commands = [command] if command else JUDGES[module]
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(
            os.path.join(ROOT, "src"), src, ignore=shutil.ignore_patterns("__pycache__")
        )
        path = os.path.join(src, "spidernets", f"{module}.py")
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        lines = source.splitlines()
        baseline = judge(commands, src, timeout)
        if baseline == "timeout" or any(code != 0 for code, _ in baseline):
            raise SystemExit(f"the judge fails on the unmutated {module}: {baseline!r}")
        rows = []
        for mutant in mutants(source) if chosen is None else chosen:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(mutate(source, mutant))
            outcome = judge(commands, src, timeout, baseline)
            if outcome != "timeout":
                outcome = "survived" if outcome == baseline else "killed"
            code = lines[mutant.line - 1].strip()
            rows.append({**mutant._asdict(), "code": code, "outcome": outcome})
            reason = EQUIVALENT.get((module, code, mutant.mutation))
            if outcome == "survived" and reason:
                rows[-1]["equivalent"] = reason
    killed = sum(row["outcome"] != "survived" for row in rows)
    return {
        "judge": "; ".join(map(label, commands)),
        "mutants": len(rows),
        "killed": killed,
        "timeouts": sum(row["outcome"] == "timeout" for row in rows),
        "survivors": [row for row in rows if row["outcome"] == "survived"],
        "sites": rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", choices=sorted(JUDGES))
    parser.add_argument("--out", default=os.path.join(ROOT, "MUTANTS.json"))
    args = parser.parse_args(argv)
    results = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            results = json.load(fh)
    for module in args.modules:
        results[module] = score(module)
        print(f"{module}: {results[module]['killed']} of {results[module]['mutants']} killed")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
