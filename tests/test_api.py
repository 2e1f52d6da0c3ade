"""The package's exports: ``__all__`` lists exactly what ``__init__`` imports, once, in order."""

import ast
import inspect

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
