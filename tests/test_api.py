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
from spidernets import closed_form, graph_core, small_world, spiders


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


def test_the_library_holds_no_test_reference_and_one_name_per_closed_form():
    references = {
        "UNREACHABLE", "_ordered_pairs", "all_pairs_distances", "alpha_array", "bfs_distances",
        "build_graph", "degree_array", "density", "gamma_array", "h_index", "is_connected",
    }
    assert references.isdisjoint(vars(graph_core))
    for module in (closed_form, small_world, spiders):
        names = [name for name, value in vars(module).items() if inspect.isfunction(value)]
        assert not [name for name in names if name.endswith("_at")], module.__name__
        assert "_h_index_checked" not in names
    # one walk along a growth direction, ratio_steps, one total distance, distance_sums, one
    # alpha and density, fields of closed_form_report, and one h-index form, h_index_closed
    gone = {
        "total_distance_closed", "ratio_sequence", "RatioPoint",
        "alpha_runs", "density_closed", "_alpha_runs", "_h_index_regime",
    }
    assert gone.isdisjoint(vars(closed_form)) and gone.isdisjoint(vars(small_world))
    assert gone.isdisjoint(vars(spidernets))
    assert not hasattr(small_world.GrowthDirection, "params_at")


def test_no_module_reads_a_private_name_of_another():
    # cli and spiders share CHUNK and SHOWN, and the CSV walks ratio_steps, by public names
    src = Path(spidernets.__file__).parent
    reach_ins = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "spidernets":
                modules.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("spidernets."):
                reach_ins += [
                    f"{path.stem}: {node.module}.{alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
        reach_ins += [
            f"{path.stem}: {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
        ]
    assert reach_ins == []


def test_every_public_closed_form_is_read_by_another_module():
    # a public form that only the tests call is a second way to the same quantity
    src = Path(spidernets.__file__).parent
    defined = {
        name for name, value in vars(closed_form).items()
        if inspect.isfunction(value) and value.__module__ == closed_form.__name__
        and not name.startswith("_")
    }
    read = set()
    for path in sorted(src.glob("*.py")):
        if path.stem in ("__init__", "closed_form"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "spidernets.closed_form":
                read.update(alias.name for alias in node.names)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "closed_form"
            ):
                read.add(node.attr)
    assert sorted(defined - read) == []


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
