"""Mutation score of one spidernets module, judged by the command line.

Run from the root of a checkout:

    python3 tools/mutants.py closed_form

Each mutant changes one AST node of ``src/spidernets/<module>.py``: a
``+`` becomes ``-`` and a ``-`` ``+``, a ``*`` becomes ``+``, a ``//``
becomes ``*``, a comparison is flipped (``<`` to ``>=``, ``==`` to ``!=``,
and so on) or an int constant grows by one.  A site is the node's index in
``ast.walk`` order, so exactly one node changes, even where several share a
source position.  The mutated module is written into a copy of ``src/`` and
the commands of the module's judge run on it, each in one child process at
a time, with a timeout and an address-space limit set on that child only.
A mutant is killed when any command's exit code or stdout differs from its
run on the unmutated copy, or when one runs out of time.  The result goes to
``MUTANTS.json``: per module, the judge, the counts and every mutant with
its line and outcome.  Only the standard library is used.
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
# Each module's judge: spidernets commands, as arguments, run one after another with the
# mutated copy of src/ first on PYTHONPATH.  The short cells write their CSV to stdout, so
# the judge reaches the ratio steps that --all never runs.
JUDGES = {
    "closed_form": [["verify"]],
    "small_world": [
        ["asymptotics", "--all"],
        *(
            ["asymptotics", "--notion", notion, "--vary", vary, "--fix", fixed,
             "--steps", "1,2,3,5,8,13,21", "--out-csv", "/dev/stdout"]
            for notion, vary, fixed in (
                ("DSWL", "M", "K=2,L=3"),
                ("DSWA", "K", "M=3,L=2"),
                ("SWD", "L", "M=2,K=2"),
                ("SWA", "L", "M=3,K=2"),
            )
        ),
    ],
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


def judge(commands: list[list[str]], src: str, timeout: float):
    """[(exit code, stdout)] of the commands with src first on PYTHONPATH, or "timeout"."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    outcomes = []
    for command in commands:
        try:
            done = subprocess.run(
                command, env=env, capture_output=True, text=True, timeout=timeout,
                preexec_fn=_limit_address_space,
            )
        except subprocess.TimeoutExpired:
            return "timeout"
        outcomes.append((done.returncode, done.stdout))
    return outcomes


def score(module: str, chosen=None, command=None, timeout: float = TIMEOUT_S) -> dict:
    """Judge every mutant of module, or the chosen ones, by command; the MUTANTS.json entry.

    Without a command, the module's judge in ``JUDGES`` judges.
    """
    if command:
        commands, label = [command], " ".join(command)
    else:
        commands = [[sys.executable, "-m", "spidernets.cli", *args] for args in JUDGES[module]]
        label = "; ".join(" ".join(["spidernets", *args]) for args in JUDGES[module])
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
            outcome = judge(commands, src, timeout)
            if outcome != "timeout":
                outcome = "survived" if outcome == baseline else "killed"
            code = lines[mutant.line - 1].strip()
            rows.append({**mutant._asdict(), "code": code, "outcome": outcome})
    killed = sum(row["outcome"] != "survived" for row in rows)
    return {
        "judge": label,
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
