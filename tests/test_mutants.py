"""tools/mutants.py on fixed sites of closed_form and small_world: killed, equivalent, out of time."""

import ast
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"
_spec = importlib.util.spec_from_file_location("mutants", SCRIPT)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def source(module: str) -> str:
    return (SCRIPT.parents[1] / "src" / "spidernets" / f"{module}.py").read_text(encoding="utf-8")


SOURCE = source("closed_form")


def site(code: str, mutation: str, module: str = "closed_form"):
    """The one mutant of module with this mutation on the line that holds code."""
    text = source(module)
    lines = text.splitlines()
    (found,) = [
        m for m in mutants.mutants(text) if code in lines[m.line - 1] and m.mutation == mutation
    ]
    return found


def test_each_mutant_changes_one_node():
    # operators share one node object per kind, and a chained comparison has several
    source = "x = (a - 1) - (b - 1) * 2 // 3 + 1\nif a < b <= 2 == c:\n    x += 1\n"
    found = mutants.mutants(source)
    assert len({(m.site, m.slot) for m in found}) == len(found) == 16
    for m in found:
        pairs = zip(ast.walk(ast.parse(source)), ast.walk(ast.parse(mutants.mutate(source, m))))
        changed = [
            a for a, b in pairs
            if type(a) is not type(b) or isinstance(a, ast.Constant) and a.value != b.value
        ]
        assert len(changed) == 1, m
    closed_form = mutants.mutants(SOURCE)
    assert len({(m.site, m.slot) for m in closed_form}) == len(closed_form)


def test_verify_kills_a_wrong_divisor_and_not_the_clip_of_empty_runs():
    divisor = site("_exact(l * (l + 1) * (l + 2), 6)", "6 -> 7")
    # a line that starts past n - 1 stands for no entry, clipped to n - 1 or not
    clip = site("if first <= min(last, n - 1)", "- -> +")
    result = mutants.score("closed_form", [divisor, clip])
    assert result["judge"].split("; ")[0] == "spidernets verify"
    assert [row["outcome"] for row in result["sites"]] == ["killed", "survived"]
    assert (result["mutants"], result["killed"], result["timeouts"]) == (2, 1, 0)
    assert result["survivors"] == [result["sites"][1]]


def test_the_single_node_report_kills_the_single_node_diameter():
    # verify's grid starts at two nodes; the judge's second command reports one
    single_node = site("    return 0", "0 -> 1")
    result = mutants.score("closed_form", [single_node])
    assert result["judge"].split("; ")[1] == "spidernets report --source closed -M 1 -K 0 -L 0"
    assert [row["outcome"] for row in result["sites"]] == ["killed"]


def test_graph_core_is_judged_by_its_tests_on_the_mutated_copy():
    # without the override, pytest would import the unmutated src/ of pyproject.toml
    assert list(map(mutants.label, mutants.JUDGES["graph_core"])) == [
        "spidernets verify",
        "python -m pytest -qq -x -p no:cacheprovider -o pythonpath=<copy>/src"
        " tests/test_graph_core.py",
    ]


def test_closed_form_is_judged_last_by_its_tests():
    # max_degree, which only the small-world steps call, is reached only by the tests
    assert mutants.label(mutants.JUDGES["closed_form"][-1]) == (
        "python -m pytest -qq -x -p no:cacheprovider -o pythonpath=<copy>/src"
        " tests/test_closed_form.py"
    )


def test_spiders_is_judged_by_its_exports_then_its_tests():
    judges = list(map(mutants.label, mutants.JUDGES["spiders"]))
    assert judges[0] == "spidernets export -M 3 -K 2 -L 4 --format edge-list"
    assert len(judges) == 14 and judges[-2] == "spidernets report -M 3 -K 2 -L 4"
    assert judges[-1] == (
        "python -m pytest -qq -x -p no:cacheprovider -o pythonpath=<copy>/src"
        " tests/test_spiders.py"
    )


def test_a_judge_past_its_timeout_kills():
    single_node = site("    return 0", "0 -> 1")
    # the judge sleeps past the timeout only when a single node's diameter is not 0
    sleeper = (
        "import time, spidernets.closed_form as c; c.diameter_closed((1, 0, 0)) and time.sleep(30)"
    )
    result = mutants.score("closed_form", [single_node], ["-c", sleeper], timeout=1)
    assert [row["outcome"] for row in result["sites"]] == ["timeout"]
    assert (result["killed"], result["timeouts"]) == (1, 1)


def test_asymptotics_kills_a_flipped_far_point_check():
    # classify then raises on every cell, since the closed forms are the interpolants
    check = site(") != pair:", "!= -> ==", "small_world")
    result = mutants.score("small_world", [check])
    judges = result["judge"].split("; ")
    assert judges[0] == "spidernets asymptotics --all"
    assert [judge.split()[3] for judge in judges[1:5]] == ["DSWL", "DSWA", "SWD", "SWA"]
    assert all(judge.endswith(" --out-csv /dev/stdout") for judge in judges[1:5])
    assert judges[5:] == [
        "python -m pytest -qq -x -p no:cacheprovider -o pythonpath=<copy>/src"
        " tests/test_small_world.py"
    ]
    assert [row["outcome"] for row in result["sites"]] == ["killed"]


def test_a_line_is_keyed_by_its_function_and_its_code_without_comment():
    text = (
        "x = 1  # a\n"
        "def f():\n"
        "    s = '#' + 'b'  # c\n"
        "    def g():\n"
        "        return s  # d\n"
        "    return g\n"
    )
    assert mutants.contexts(text) == [
        ("<module>", "x = 1"),
        ("f", "def f():"),
        ("f", "s = '#' + 'b'"),
        ("g", "def g():"),
        ("g", "return s"),
        ("f", "return g"),
    ]
    # identical lines of two functions get a key each
    spiders = source("spiders")
    width = [
        function for function, code in mutants.contexts(spiders)
        if code == "width = decimal_digits(n - 1)"
    ]
    assert width == ["export_size", "export_spider"]


def test_every_equivalent_key_names_a_live_mutant():
    # a key that names no mutant argues for nothing: its line moved, changed or went
    live = set()
    for module in {key[0] for key in mutants.EQUIVALENT}:
        text = source(module)
        context = mutants.contexts(text)
        live |= {(module, *context[m.line - 1], m.mutation) for m in mutants.mutants(text)}
    assert sorted(set(mutants.EQUIVALENT) - live) == []
