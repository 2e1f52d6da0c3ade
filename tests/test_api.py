"""The package's exports and imports.

``__all__`` lists exactly what ``__init__`` imports, once, in order, and
importing the command line loads neither ``dataclasses`` nor ``inspect``.
"""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import spidernets


def imported_names():
    tree = ast.parse(inspect.getsource(spidernets))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]


def test_all_is_sorted_without_duplicates():
    assert spidernets.__all__ == sorted(set(spidernets.__all__))


def test_all_equals_the_imported_names():
    names = imported_names()
    assert len(names) == len(set(names))
    assert set(spidernets.__all__) == set(names)


def test_every_name_resolves():
    for name in spidernets.__all__:
        assert getattr(spidernets, name) is not None, name


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # Only modules that importing spidernets.cli adds count, so a Python that
    # loads them at start-up or with the modules the program does use passes.
    probe = (
        "import sys; import argparse, array, fractions, typing, enum; "
        "before = set(sys.modules); import spidernets.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == "[]\n"
