import argparse
import contextlib
import io
import itertools
import math
import os
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import _expand, _expand_runs, format_array, spider_params
from spidernets import cli, closed_form, graph_core, small_world, spiders


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    """The retired ``generate`` command's checks.

    Its counts come from ``report --source closed``, its file from ``export --out``.
    """

    def test_counts_announced(self, capsys):
        code, out, _ = run(capsys, "report", "-M", "2", "-K", "2", "-L", "1", "--source", "closed")
        assert code == 0
        assert "nodes: 6" in out and "edges: 5" in out and "pairs: 15" in out

    def test_degenerate_spider(self, capsys):
        code, out, _ = run(capsys, "report", "-M", "1", "-K", "0", "-L", "0", "--source", "closed")
        assert code == 0
        assert "nodes: 1" in out and "edges: 0" in out

    def test_invalid_core_size(self, capsys):
        code, _, err = run(capsys, "report", "-M", "0", "-K", "1", "-L", "1")
        assert code == 2
        assert "error" in err

    def test_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "h.edges"
        code, out, _ = run(
            capsys, "export", "-M", "1", "-K", "1", "-L", "1", "--out", str(out_path)
        )
        assert code == 0
        assert out_path.read_text() == "0 1\n"
        assert out == ""

    def test_failed_build_writes_no_file(self, capsys, monkeypatch, tmp_path):
        def exhausted(p):
            raise MemoryError

        monkeypatch.setattr(spiders, "build_spider", exhausted)
        out_path = tmp_path / "h.edges"
        code, out, err = run(
            capsys, "export", "-M", "2", "-K", "2", "-L", "1", "--out", str(out_path)
        )
        assert (code, out, out_path.exists()) == (4, "", False)
        assert err.startswith("error:") and err.count("\n") == 1

    def test_unwritable_path(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "export", "-M", "1", "-K", "1", "-L", "1",
            "--out", str(tmp_path / "missing" / "h.edges"),
        )
        assert code == 3
        assert "error" in err


class TestReport:
    def test_both_sources_match(self, capsys):
        code, out, _ = run(capsys, "report", "-M", "2", "-K", "2", "-L", "1")
        assert code == 0
        assert "alpha: 5 6 4 0 0  [MATCH]" in out
        assert "MISMATCH" not in out

    def test_complete_graph(self, capsys):
        code, out, _ = run(capsys, "report", "-M", "4", "-K", "0", "-L", "0")
        assert code == 0
        assert "density: 1/1" in out
        assert "diameter: 1" in out

    def test_closed_only(self, capsys):
        code, out, _ = run(
            capsys, "report", "-M", "1", "-K", "3", "-L", "1", "--source", "closed"
        )
        assert code == 0
        assert "delta: 3 1 1 1" in out
        assert "h-index: 1" in out
        assert "MATCH" not in out

    def test_oracle_cap_guard(self, capsys):
        code, _, err = run(
            capsys, "report", "-M", "2", "-K", "2", "-L", "1", "--cap", "3"
        )
        assert code == 4
        assert "cap" in err

    @pytest.mark.parametrize("raw", ["3", "abc", "-5"])
    def test_cap_env_var_ignored(self, capsys, monkeypatch, raw):
        """The retired SPIDERNETS_NODE_CAP neither sets a cap nor is rejected."""
        argv = ("report", "-M", "2", "-K", "2", "-L", "1")
        _, expected, _ = run(capsys, *argv)
        monkeypatch.setenv("SPIDERNETS_NODE_CAP", raw)
        assert run(capsys, *argv) == (0, expected, "")

    def test_closed_source_ignores_cap(self, capsys):
        code, out, _ = run(
            capsys, "report", "-M", "2", "-K", "2", "-L", "1",
            "--cap", "3", "--source", "closed",
        )
        assert code == 0
        assert "alpha: 5 6 4 0 0" in out

    def test_negative_cap_rejected(self, capsys):
        code, _, err = run(capsys, "report", "-M", "2", "-K", "2", "-L", "1", "--cap", "-1")
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    def test_out_of_memory_is_resource_guard(self, capsys, monkeypatch):
        def exhausted(p):
            raise MemoryError

        monkeypatch.setattr(closed_form, "closed_form_report", exhausted)
        code, _, err = run(
            capsys, "report", "-M", "2", "-K", "2", "-L", "1", "--source", "closed"
        )
        assert code == 4
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("source", ["oracle", "both"])
    def test_out_of_memory_prints_no_partial_report(self, capsys, monkeypatch, source):
        def exhausted(g):
            raise MemoryError

        monkeypatch.setattr(graph_core, "all_indicators", exhausted)
        code, out, err = run(
            capsys, "report", "-M", "2", "-K", "2", "-L", "1", "--source", source
        )
        assert code == 4
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_output_budget_refuses_before_allocating(self, capsys):
        tracemalloc.start()
        try:
            code, out, err = run(
                capsys, "report", "-M", "1", "-K", "1", "-L", "1000000000000", "--source", "closed"
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 4
        assert out == ""
        assert err.startswith("error:") and "budget" in err and err.count("\n") == 1
        assert peak < 2**20

    @pytest.mark.parametrize("m,k,l", [(1, 2000, 2000), (1, 1000, 10000), (4, 255, 980)])
    def test_output_budget_admits_large_reports(self, m, k, l):
        report = closed_form.closed_form_report(spiders.normalize(m, k, l))
        assert cli.array_row_chars(report) <= cli.OUTPUT_BUDGET

    def test_long_leg_alpha_row(self, capsys):
        code, out, _ = run(capsys, "report", "-M", "2", "-K", "1", "-L", "20000", "--source", "closed")
        assert code == 0
        alpha = _expand_runs(closed_form.alpha_runs(spiders.normalize(2, 1, 20000)))
        assert f"\nalpha: {format_array(alpha)}\n" in out

    @pytest.mark.parametrize("source", ["closed", "both"])
    def test_failed_consistency_check_is_mismatch(self, capsys, monkeypatch, source):
        real = closed_form._delta_groups

        def shifted(*mkl):
            (core, m), interior, terminal = real(*mkl)
            return [(core + 1, m), interior, terminal]

        monkeypatch.setattr(closed_form, "_delta_groups", shifted)
        code, _, err = run(
            capsys, "report", "-M", "3", "-K", "2", "-L", "2", "--source", source
        )
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1

    def test_mismatch_row_exits_1(self, capsys, monkeypatch):
        argv = ("report", "-M", "3", "-K", "2", "-L", "2")
        code, matched, _ = run(capsys, *argv)
        assert code == 0 and "\ndiameter: 5  [MATCH]\n" in matched
        real = closed_form.diameter_closed
        monkeypatch.setattr(closed_form, "diameter_closed", lambda p: real(p) + 1)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (1, "")
        assert out == matched.replace("diameter: 5  [MATCH]", "diameter: 6  [MISMATCH]")

    def test_single_node(self, capsys):
        code, out, _ = run(capsys, "report", "-M", "1", "-K", "0", "-L", "0")
        assert code == 0
        assert "delta: 0" in out
        assert "distance indicators are undefined" in out

    def test_overflowing_spider_is_resource_guard(self, capsys):
        huge = "10000000000"
        code, _, err = run(
            capsys, "report", "-M", "1", "-K", huge, "-L", huge, "--source", "closed"
        )
        assert code == 4
        assert err.startswith("error:") and err.count("\n") == 1

    def test_dense_oracle_work_guard(self, capsys):
        code, out, err = run(capsys, "report", "-M", "30", "-K", "0", "-L", "0", "--cap", "40")
        assert code == 4
        assert out == ""
        assert err.startswith("error:") and "40-node tree" in err

    def test_tree_sized_oracle_work_allowed(self, capsys):
        code, out, _ = run(capsys, "report", "-M", "2", "-K", "2", "-L", "1", "--cap", "6")
        assert code == 0
        assert "MISMATCH" not in out

    @pytest.mark.parametrize(
        "m,k,l",
        [
            (1, 0, 0),
            (5, 0, 0),
            (1, 3, 1),
            (3, 2, 1),
            (1, 2, 2),
            (3, 2, 2),
            (1, 1, 6),
            (1, 3, 4),
            (2, 2, 3),
        ],
    )
    def test_closed_rows_equal_oracle_rows(self, capsys, m, k, l):
        shape = ("-M", str(m), "-K", str(k), "-L", str(l))
        code, closed, _ = run(capsys, "report", *shape, "--source", "closed")
        assert code == 0
        code, oracle, _ = run(capsys, "report", *shape, "--source", "oracle")
        assert code == 0
        assert closed == oracle


runs = st.lists(
    st.tuples(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=4)),
    max_size=6,
).map(lambda groups: sorted(groups, key=lambda group: group[0], reverse=True))


@given(runs)
@example([(7, 3)])
@example([(5, 0), (3, 2)])
@example([(4, 1), (4, 2), (1, 0)])
def test_run_formatter_matches_expanded_array(groups):
    assert "".join(cli.format_runs(groups)) == format_array(_expand(groups))


@st.composite
def linear_runs(draw):
    """Runs (first, last, a, b) that follow each other from j = 1, values non-negative."""
    runs = []
    first = 1
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        last = first + draw(st.integers(min_value=0, max_value=30))
        b = draw(st.integers(min_value=-10**7, max_value=10**7))
        low = draw(st.integers(min_value=0, max_value=10**9))
        runs.append((first, last, low - b * (last if b < 0 else first), b))
        first = last + 1
    return runs


@given(linear_runs())
@example([(1, 1, 45, 0), (2, 3, 7, 2), (4, 9, 99, -11), (10, 12, 0, 0)])
# values that cross dozens of powers of ten within one run
@example([(1, 40, 1, 10**59)])
@example([(1, 40, 43 * 10**59, -(10**59))])
@example([(1, 30, 7 * 10**45 + 3, 10**50 + 1), (31, 60, 10**52 + 12345, -(10**50) + 7)])
def test_linear_run_formatter_and_size(runs):
    text = "".join(cli.format_linear_runs(runs))
    assert text == format_array(_expand_runs(runs))
    assert sum(cli._linear_run_chars(*run) for run in runs) == len(text) + bool(runs)


@given(runs, linear_runs())
@example([(7, 100_000)], [(1, 100_000, 3, 7)])
@example(
    [(123_456, 9000), (5, 0), (3, 70_000)],
    [(1, 30_000, 10**9 + 30_000, -1), (30_001, 30_002, 0, 0)],
)
@example([(10**40, 3000)], [(1, 5000, 10**45, 10**40), (5001, 9000, 10**20, 0)])
def test_row_chunks_join_to_the_row_and_stay_bounded(groups, runs):
    for chunks, values in [
        (cli.format_runs(groups), _expand(groups)),
        (cli.format_linear_runs(runs), _expand_runs(runs)),
    ]:
        assert "".join(chunks) == format_array(values)
        bound = max(spiders._CHUNK, max((len(str(v)) for v in values), default=0) + 1)
        assert all(len(chunk) <= bound for chunk in chunks)


@pytest.fixture
def no_int_str_limit():
    """No limit on int-to-str conversion, then the old limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(old)


def test_entries_longer_than_a_chunk_are_one_chunk_each(no_int_str_limit):
    value = 10**spiders._CHUNK
    chunks = cli.format_runs([(value, 3)]) + cli.format_linear_runs([(1, 3, value, 1)])
    digits = spiders._CHUNK + 1
    assert [len(chunk) for chunk in chunks] == [digits + 1, digits + 1, digits] * 2


def test_repeated_entries_share_one_chunk_object():
    chunks = cli.format_runs([(7, 100_000)])
    per = spiders._CHUNK // 2
    assert len(chunks) == 100_000 // per + 1
    assert chunks[0] == "7 " * per and len({id(chunk) for chunk in chunks[:-1]}) == 1
    assert chunks[-1] == "7 " * (100_000 % per - 1) + "7"


class _CharCount(io.TextIOBase):
    """A text sink that keeps only the number of characters written to it."""

    chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)


def test_closed_report_writes_a_million_node_report_in_bounded_memory():
    sink = _CharCount()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(["report", "--source", "closed", "-M", "3", "-K", "1042", "-L", "320"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, sink.chars) == (0, 6_016_852)
    assert peak < 2 * 2**20


@given(spider_params)
def test_array_row_chars_counts_the_printed_rows(p):
    if spiders.node_count(p) >= 2:
        report = closed_form.closed_form_report(p)
        rows = cli._rows(report, spiders.pair_count(p))
        assert cli.array_row_chars(report) == sum(
            len("".join(rows[name])) + 1 for name in ("delta", "gamma", "alpha")
        )


@pytest.fixture
def int_str_limit():
    """Python's default limit of 4,300 digits on int-to-str conversion, then the old limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python converts ints of any length to strings")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


NINES, SHORTER_NINES = "9" * 3000, "9" * 2500


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--source", "closed", "-M", NINES, "-K", "1", "-L", "1"],
        ["report", "--source", "closed", "-M", "2", "-K", NINES, "-L", NINES],
        ["report", "-M", "2", "-K", NINES, "-L", NINES],
        ["export", "-M", NINES, "-K", "1", "-L", "1"],
        ["export", "-M", "2", "-K", NINES, "-L", NINES],
        ["asymptotics", "--notion", "SWA", "--vary", "L", "--fix", f"M=2,K={SHORTER_NINES}"],
    ],
    ids=["report-rows", "report-budget-message", "report-oracle-refusal", "export-budget-message",
         "export-size", "asymptotics-csv"],
)
def test_values_past_the_int_str_limit_are_a_resource_guard(capsys, tmp_path, int_str_limit, argv):
    # each of these inputs has fewer than 4,300 digits, but a count or a
    # ratio it derives has more; none may reach Python's own conversion error
    out_path = tmp_path / "cell.csv"
    if argv[0] == "asymptotics":
        argv = argv + ["--out-csv", str(out_path)]
    code, out, err = run(capsys, *argv)
    assert (code, out, out_path.exists()) == (4, "", False)
    assert err.startswith("error:") and err.count("\n") == 1
    assert "set_int_max_str_digits" not in err


def test_a_late_csv_row_past_the_int_str_limit_is_a_resource_guard(capsys, tmp_path, int_str_limit):
    # the row at K = 1 fits; at K = 10**2200 the pair count has 4,401 digits,
    # and that row alone must stop the whole file, named by its digit count
    out_path = tmp_path / "cell.csv"
    code, out, err = run(
        capsys,
        "asymptotics", "--notion", "SWA", "--vary", "K", "--fix", "M=2,L=1",
        "--steps", "1,1" + "0" * 2200, "--out-csv", str(out_path),
    )
    assert (code, out, out_path.exists()) == (4, "", False)
    assert err.startswith("error:") and err.count("\n") == 1
    assert "a 4401-digit integer, past Python's limit of 4300 digits" in err


ONES = "1" * 4301


@pytest.mark.parametrize(
    "argv, name",
    [
        (["report", "--source", "closed", "-M", ONES, "-K", "1", "-L", "1"], "-M"),
        (["report", "-M", "2", "-K", ONES, "-L", "1"], "-K"),
        (["report", "-M", "2", "-K", "1", "-L", f" -{ONES} "], "-L"),
        (["report", "-M", "2", "-K", "1", "-L", "1", "--cap", ONES], "--cap"),
        (["export", "-M", "2", "-K", "1", "-L", ONES], "-L"),
        (["verify", "--Mmax", ONES], "--Mmax"),
        (["verify", "--Kmax", ONES], "--Kmax"),
        (["verify", "--Lmax", "+" + ONES], "--Lmax"),
        (["verify", "--cap", ONES[:-1] + "_1"], "--cap"),
        (["asymptotics", "--notion", "SWD", "--vary", "M", "--fix", f"K={ONES},L=1"], "--fix K"),
        (["asymptotics", "--notion", "SWD", "--vary", "M", "--fix", "K=1,L=1", "--steps",
          f"2,{ONES},8"], "--steps entry 2"),
    ],
    ids=["report-M", "report-K", "report-L-negative", "report-cap", "export-L", "verify-Mmax",
         "verify-Kmax", "verify-Lmax-signed", "verify-cap-underscore", "asymptotics-fix",
         "asymptotics-steps"],
)
def test_integer_options_past_the_int_str_limit_are_a_resource_guard(
    capsys, tmp_path, int_str_limit, argv, name
):
    # one line that names the option and its digit count, without its digits
    out_path = tmp_path / "cell.csv"
    if argv[0] == "asymptotics":
        argv = argv + ["--out-csv", str(out_path)]
    code, out, err = run(capsys, *argv)
    assert (code, out, out_path.exists()) == (4, "", False)
    assert err == (
        f"error: {name} is a 4301-digit integer, past Python's limit of 4300 digits "
        "for integer string conversion (resource guard)\n"
    )


@pytest.mark.parametrize("text", ["1__1" + ONES, ONES + "x", "_" + ONES])
def test_long_non_integers_stay_usage_errors(capsys, int_str_limit, text):
    # int() refuses these for their length before it reads them, yet they
    # are not integers: argparse's own usage error, exit 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["report", "-M", text, "-K", "1", "-L", "1"])
    assert exc.value.code == 2
    assert "argument -M: invalid int value" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, shown",
    [
        ("abc", "'abc'"),
        ("", "''"),
        ("1" * 49 + "x", repr("1" * 49 + "x")),
        ("1" * 50 + "x", f"'{'1' * 50}'... (51 characters)"),
        (ONES + "x", f"'{'1' * 50}'... (4302 characters)"),
    ],
    ids=["short", "empty", "fifty", "fifty-one", "long"],
)
def test_non_integer_values_are_shown_up_to_fifty_characters(capsys, int_str_limit, text, shown):
    # up to 50 characters, argparse's own text; past that, the first 50 and the length
    with pytest.raises(SystemExit) as exc:
        cli.main(["report", "-M", text, "-K", "1", "-L", "1"])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and len(err.encode()) < 1024
    assert err.splitlines()[-1] == (
        f"spidernets report: error: argument -M: invalid int value: {shown}"
    )


_LONG_X, _X50 = "x" * 5000, "x" * 50


@pytest.mark.parametrize(
    "argv, line",
    [
        (["report", "-M", "1", "-K", "1", "-L", "1", "--source", _LONG_X],
         f"spidernets report: error: argument --source: invalid choice: '{_X50}'... "
         "(5000 characters) (choose from "),
        (["export", "-M", "1", "-K", "1", "-L", "1", "--format", _LONG_X],
         f"spidernets export: error: argument --format: invalid choice: '{_X50}'... "
         "(5000 characters) (choose from "),
        (["asymptotics", "--notion", _LONG_X],
         f"spidernets asymptotics: error: argument --notion: invalid choice: '{_X50}'... "
         "(5000 characters) (choose from "),
        ([_LONG_X],
         f"spidernets: error: argument command: invalid choice: '{_X50}'... "
         "(5000 characters) (choose from "),
        (["report", "-M", "1", "-K", "1", "-L", "1", _LONG_X],
         f"spidernets: error: unrecognized arguments: {_X50}... (5000 characters)"),
        (["asymptotics", "--notion", "SWD", "--vary", "M", "--fix", "K=" + _LONG_X],
         f"error: cannot parse fixed parameter 'K={_X50[2:]}'... (5002 characters); "
         "expected e.g. K=1"),
        (["asymptotics", "--notion", "SWD", "--vary", "M", "--fix", "K=1,L=1",
          "--steps", "2," + _LONG_X, "--out-csv", "@/c.csv"],
         f"error: --steps entry '{_X50}'... (5000 characters) is not an integer"),
    ],
    ids=["source", "format", "notion", "command", "unrecognized", "fix", "steps"],
)
def test_long_values_are_echoed_by_their_first_fifty_characters(argv, line):
    # the first 50 characters and the length, as for a non-integer option
    code, err = check_argv(argv)
    assert code == 2 and len(err.encode()) < 1024
    assert err.splitlines()[-1].startswith(line)


@pytest.mark.parametrize("value", ["bogus", "-", _X50, "'\"" * 25])
def test_values_up_to_fifty_characters_read_as_argparse_words_them(value):
    # a plain argparse parser with the same option and prog gives the same last line
    plain = argparse.ArgumentParser(prog="spidernets report")
    plain.add_argument("--source", choices=("closed", "oracle", "both"))
    _, _, want = _outcome(plain.parse_args, ["--source=" + value])
    code, err = check_argv([*_REPORT, "--source=" + value])
    assert code == 2 and err.splitlines()[-1] == want.splitlines()[-1]
    top = argparse.ArgumentParser(prog="spidernets")
    _, _, want = _outcome(top.parse_args, [value])
    code, err = check_argv([*_REPORT, value])
    assert code == 2 and err.splitlines()[-1] == want.splitlines()[-1]


@pytest.mark.parametrize(
    "argv, code, text",
    [
        (["report", "-M", "1" * 4300, "-K", "4", "-L", "2"], 4,
         "error: oracle computation needs a 4300-digit integer nodes, above the cap 20000"),
        (["report", "-M", "3", "-K", "-2", "-L", "1" * 4300], 2,
         "error: leg count and length must be >= 0, got k=-2 l=a 4300-digit integer"),
    ],
    ids=["oracle-refusal", "negative-leg-count"],
)
def test_values_past_fifty_digits_are_named_by_their_digit_count(
    capsys, int_str_limit, argv, code, text
):
    assert run(capsys, *argv) == (code, "", text + "\n")
    assert len(text.encode()) <= 200


@pytest.mark.parametrize(
    "argv",
    [["export", "-M", "1", "-K", "1", "-L", "1", "--out"], ["asymptotics", "--all", "--csv-dir"]],
    ids=["export", "asymptotics"],
)
def test_a_long_path_is_echoed_by_its_first_fifty_characters(capsys, tmp_path, argv):
    path = str(tmp_path / ("d" * 5000))
    code, out, err = run(capsys, *argv, path)
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1 and len(err.encode()) < 1024
    assert err.startswith("error: ") and f"{path[:50]!r}... (" in err


class TestVerify:
    def test_small_grid_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--Mmax", "1", "--Kmax", "1", "--Lmax", "1")
        assert code == 0
        assert "parameter points verified" in out

    def test_default_grid_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--Mmax", "4", "--Kmax", "3", "--Lmax", "3")
        assert code == 0
        assert "MISMATCH" not in out

    @pytest.mark.parametrize(
        "options", [("--Mmax", "0"), ("--cap", "-1"), ("--cap", "1")]
    )
    def test_empty_or_negative_grid_rejected(self, capsys, options):
        code, out, err = run(capsys, "verify", *options)
        assert code == 2
        assert "verified" not in out
        assert err.startswith("error:") and err.count("\n") == 1

    def test_cap_env_var_leaves_default_grid_whole(self, capsys, monkeypatch):
        monkeypatch.setenv("SPIDERNETS_NODE_CAP", "20")
        assert run(capsys, "verify") == (0, "247 parameter points verified\n", "")

    def test_oracle_work_bound_drops_dense_points(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--Mmax", "50", "--Kmax", "0", "--Lmax", "0", "--cap", "30"
        )
        assert code == 0
        assert out == "12 parameter points verified\n"
        assert [p.m for p in cli.iter_grid(50, 0, 0, 30)] == list(range(2, 14))

    def test_default_grid_takes_the_bit_parallel_sweep(self):
        args = cli._build_parser().parse_args(["verify"])
        points = cli.iter_grid(args.mmax, args.kmax, args.lmax, args.cap)
        assert len(points) == 247
        # a spider with m >= 3 sweeps its core of m nodes, whose pendant
        # trees all weigh the same; one with m <= 2 is a tree and sweeps nothing
        for p in points:
            with mock.patch.object(
                graph_core, "_core_pairs", wraps=graph_core._core_pairs
            ) as sweep:
                graph_core.alpha_array(spiders.build_spider(p))
            calls = [call.args for call in sweep.call_args_list]
            if p.m <= 2:
                assert calls == []
            else:
                ((_, core, weight),) = calls
                assert core == list(range(p.m))
                assert len({weight[u] for u in core}) == 1
        assert any(p.m <= 2 for p in points) and any(p.m >= 3 for p in points)

    def test_wider_grid_matches_oracle(self):
        points = cli.iter_grid(12, 6, 8, 2000)
        assert len(points) == 587
        assert max(spiders.node_count(p) for p in points) == 588
        assert [line for p in points for line in cli.compare_point(p)] == []

    def test_corrupted_formula_detected(self, capsys, monkeypatch):
        real = closed_form.diameter_closed
        monkeypatch.setattr(closed_form, "diameter_closed", lambda p: real(p) + 1)
        code, out, _ = run(capsys, "verify", "--Mmax", "2", "--Kmax", "1", "--Lmax", "1")
        assert code == 1
        assert "MISMATCH" in out and "diameter" in out

    def test_corrupted_gamma_groups_detected(self, capsys, monkeypatch):
        real = closed_form._gamma_groups

        def spread(p):
            # Two nodes of the last group move one up and one down: the node
            # total and the gamma sum identity still hold.
            *rest, (value, count) = real(p)
            if count < 2:
                return rest + [(value, count)]
            return rest + [(value, count - 2), (value + 1, 1), (value - 1, 1)]

        monkeypatch.setattr(closed_form, "_gamma_groups", spread)
        code, out, _ = run(capsys, "verify", "--Mmax", "2", "--Kmax", "1", "--Lmax", "2")
        assert code == 1
        mismatches = [line for line in out.splitlines() if line.startswith("MISMATCH")]
        assert mismatches and all(" gamma: closed=" in line for line in mismatches)

    def test_corrupted_alpha_lines_detected(self, capsys, monkeypatch):
        real = closed_form._alpha_lines

        def bent(p):
            # +1, -2, +1 at j = 1, 2, 3 keeps the sums of alpha_j and j * alpha_j.
            alpha = [a + b * j for first, last, a, b in real(p) for j in range(first, last + 1)]
            alpha = alpha[: spiders.node_count(p) - 1]
            if len(alpha) >= 3 and alpha[1] >= 2:
                alpha[0:3] = alpha[0] + 1, alpha[1] - 2, alpha[2] + 1
            return [(j, j, value, 0) for j, value in enumerate(alpha, start=1)]

        monkeypatch.setattr(closed_form, "_alpha_lines", bent)
        code, out, _ = run(capsys, "verify", "--Mmax", "2", "--Kmax", "1", "--Lmax", "2")
        assert code == 1
        mismatches = [line for line in out.splitlines() if line.startswith("MISMATCH")]
        assert mismatches and all(" alpha: closed=" in line for line in mismatches)

    def test_mismatch_lines_follow_the_record_field_order(self, capsys, monkeypatch):
        def skewed(p):
            return graph_core.Indicators(
                ((9, 1),), ((8, 1),), ((1, 1, 7, 0),), Fraction(1, 7), 6, 5, 4
            )

        monkeypatch.setattr(closed_form, "closed_form_report", skewed)
        assert run(capsys, "verify", "--Mmax", "2", "--Kmax", "0", "--Lmax", "0") == (
            1,
            "MISMATCH M=2 K=0 L=0 delta: closed=((9, 1),) oracle=((1, 2),)\n"
            "MISMATCH M=2 K=0 L=0 gamma: closed=((8, 1),) oracle=((2, 2),)\n"
            "MISMATCH M=2 K=0 L=0 alpha: closed=((1, 1, 7, 0),) oracle=((1, 1, 1, 0),)\n"
            "MISMATCH M=2 K=0 L=0 density: closed=1/7 oracle=1\n"
            "MISMATCH M=2 K=0 L=0 diameter: closed=6 oracle=1\n"
            "MISMATCH M=2 K=0 L=0 h-index: closed=5 oracle=1\n"
            "MISMATCH M=2 K=0 L=0 total-distance: closed=4 oracle=1\n"
            "1 parameter points verified\n"
            "7 mismatches found\n",
            "",
        )

    @pytest.mark.parametrize(
        "field, wrong, line",
        [
            ("delta", ((9, 1),), "delta: closed=((9, 1),) oracle=((1, 2),)"),
            ("gamma", ((8, 1),), "gamma: closed=((8, 1),) oracle=((2, 2),)"),
            ("alpha", ((1, 1, 7, 0),), "alpha: closed=((1, 1, 7, 0),) oracle=((1, 1, 1, 0),)"),
            ("density", Fraction(1, 7), "density: closed=1/7 oracle=1"),
            ("diameter", 6, "diameter: closed=6 oracle=1"),
            ("h_index", 5, "h-index: closed=5 oracle=1"),
            ("total_distance", 4, "total-distance: closed=4 oracle=1"),
        ],
    )
    def test_a_record_off_in_one_field_gives_one_mismatch_line(
        self, capsys, monkeypatch, field, wrong, line
    ):
        real = closed_form.closed_form_report
        monkeypatch.setattr(
            closed_form, "closed_form_report", lambda p: real(p)._replace(**{field: wrong})
        )
        assert run(capsys, "verify", "--Mmax", "2", "--Kmax", "0", "--Lmax", "0") == (
            1,
            f"MISMATCH M=2 K=0 L=0 {line}\n1 parameter points verified\n1 mismatches found\n",
            "",
        )

    @settings(max_examples=50)
    @given(
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=60),
    )
    def test_pruned_grid_equals_brute_force(self, mmax, kmax, lmax, cap):
        grid = {
            spiders.normalize(m, k, l)
            for m in range(1, mmax + 1)
            for k in range(kmax + 1)
            for l in range(lmax + 1)
        }
        want = sorted(
            (p for p in grid if spiders.node_count(p) >= 2 and not cli.oracle_refusal(p, cap)),
            key=lambda p: (p.m, p.k, p.l),
        )
        assert cli.iter_grid(mmax, kmax, lmax, cap) == want

    @pytest.mark.parametrize("bounds,count", [((2, 1, 3_000_000), 74), ((10**9,) * 3, 443)])
    def test_huge_grid_bounds_stop_at_the_cap(self, monkeypatch, bounds, count):
        real = spiders.normalize
        calls = []

        def counting(m, k, l):
            calls.append((m, k, l))
            assert len(calls) <= 2000, "iter_grid walks past the refused points"
            return real(m, k, l)

        monkeypatch.setattr(spiders, "normalize", counting)
        assert len(cli.iter_grid(*bounds, 50)) == count


def _per_row_ratio_csv(steps, points) -> str:
    """A ratio CSV as one f-string per row, the writer's text before it formatted blocks."""
    rows = ["step,N,numerator,lnN,ratio\n"]
    for step, (n, (top, bottom), ratio, log_n) in zip(steps, points):
        common = math.gcd(top, bottom)
        rows.append(f"{step},{n},{top // common}/{bottom // common},{log_n:.6g},{ratio:.6g}\n")
    return "".join(rows)


_BIG = st.integers(min_value=1, max_value=10**300)


@st.composite
def _ratio_points(draw):
    """Rows of the writer: steps, node counts, pairs that share factors, any two doubles."""
    points = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        common, top, bottom = draw(_BIG), draw(st.integers(0, 10**300)), draw(_BIG)
        pair, ratio, log_n = (common * top, common * bottom), draw(st.floats()), draw(st.floats())
        points.append(small_world.RatioPoint(draw(_BIG), pair, ratio, log_n))
    return draw(st.lists(_BIG, min_size=len(points), max_size=len(points))), points


@settings(max_examples=300, deadline=None)
@given(_ratio_points(), st.integers(min_value=1, max_value=5))
@example(([1, 2], [small_world.RatioPoint(2, (6, 4), -0.0, 5e-324)] * 2), 1)
@example(([7], [small_world.RatioPoint(3, (0, 9), math.inf, math.nan)]), 4096)
def test_ratio_csv_equals_the_per_row_text(tmp_path_factory, rows, block):
    steps, points = rows
    path = tmp_path_factory.getbasetemp() / "ratio-property.csv"
    with mock.patch.object(cli, "_RATIO_BLOCK", block):
        cli._write_ratio_csv(str(path), steps, points)
    assert path.read_bytes() == _per_row_ratio_csv(steps, points).encode()


def test_ratio_csv_of_more_rows_than_a_block(tmp_path):
    steps = list(range(1, 2 * cli._RATIO_BLOCK + 2))
    direction = small_world.GrowthDirection("L", m=3, k=2)
    points = small_world.ratio_sequence(small_world.SmallWorldNotion.SWA, direction, steps)
    cli._write_ratio_csv(str(tmp_path / "cell.csv"), steps, points)
    assert (tmp_path / "cell.csv").read_text() == _per_row_ratio_csv(steps, points)


def test_a_csv_row_past_the_int_str_limit_in_a_later_block(capsys, tmp_path, int_str_limit):
    # with one row per block, the first block is formatted before the second fails
    out_path = tmp_path / "cell.csv"
    with mock.patch.object(cli, "_RATIO_BLOCK", 1):
        code, out, err = run(
            capsys,
            "asymptotics", "--notion", "SWA", "--vary", "K", "--fix", "M=2,L=1",
            "--steps", "1,2,1" + "0" * 2200, "--out-csv", str(out_path),
        )
    assert (code, out, out_path.exists()) == (4, "", False)
    assert err.count("\n") == 1 and "a 4401-digit integer, past Python's limit" in err


def _degree_sum_wrong_at_1500(real):
    def wrong(m, k, l):
        (core, count), interior, terminal = real(m, k, l)
        return [(core + (m == 1500), count), interior, terminal]

    return wrong


def _leg_term_wrong_at_1500(real):
    def wrong(numerator, divisor):
        return real(numerator + (numerator == 1500 * 1501 * 1502), divisor)

    return wrong


# A check that fails at one step of a streamed sequence fails the command there.
@pytest.mark.parametrize(
    "attribute, wrong, cell, match",
    [
        ("_delta_groups", _degree_sum_wrong_at_1500, ("DSWL", "M", "K=2,L=3"), "total degree"),
        ("_exact", _leg_term_wrong_at_1500, ("SWA", "L", "M=2,K=1"), "not an integer"),
    ],
    ids=["DSWL", "SWA"],
)
def test_a_step_fault_midway_writes_no_csv(
    capsys, monkeypatch, tmp_path, attribute, wrong, cell, match
):
    monkeypatch.setattr(closed_form, attribute, wrong(getattr(closed_form, attribute)))
    notion, vary, fixed = cell
    out_path = tmp_path / "cell.csv"
    code, out, err = run(
        capsys,
        "asymptotics", "--notion", notion, "--vary", vary, "--fix", fixed,
        "--steps", ",".join(map(str, range(2, 2002))), "--out-csv", str(out_path),
    )
    assert (code, out, out_path.exists()) == (1, "", False)
    assert err.count("\n") == 1 and match in err


class TestAsymptotics:
    def test_single_cell_verdict(self, capsys):
        code, out, _ = run(
            capsys, "asymptotics", "--notion", "SWD", "--vary", "M", "--fix", "K=1,L=1"
        )
        assert code == 0
        assert "ultra-small world (C=0)" in out

    def test_not_small_world_cell(self, capsys):
        code, out, _ = run(
            capsys, "asymptotics", "--notion", "DSWA", "--vary", "K", "--fix", "M=2,L=2"
        )
        assert code == 0
        assert "not a small world" in out

    def test_full_table(self, capsys):
        code, out, _ = run(capsys, "asymptotics", "--all")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 12
        assert lines[0] == "DSWL vary M (K=1, L=1): small world (ratio -> +inf)"
        assert lines[-1] == "SWA vary L (M=2, K=1): not a small world (ratio -> +inf)"

    def test_csv_output(self, capsys, tmp_path):
        csv_path = tmp_path / "ratios.csv"
        code, _, _ = run(
            capsys,
            "asymptotics", "--notion", "SWD", "--vary", "M",
            "--fix", "K=1,L=1", "--steps", "2,4,8", "--out-csv", str(csv_path),
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "step,N,numerator,lnN,ratio"
        assert len(lines) == 4
        node_counts = [int(line.split(",")[1]) for line in lines[1:]]
        assert node_counts == sorted(node_counts) and len(set(node_counts)) == 3
        assert lines[1].split(",")[2] == "3/1"

    def test_csv_row_of_a_two_node_spider(self, capsys, tmp_path):
        # M = 1 with K = L = 1 is a single edge: mean distance 1, ln 2 > 0
        csv_path = tmp_path / "swa.csv"
        code, _, err = run(
            capsys,
            "asymptotics", "--notion", "SWA", "--vary", "M", "--fix", "K=1,L=1",
            "--steps", "1,2", "--out-csv", str(csv_path),
        )
        assert (code, err) == (0, "")
        assert csv_path.read_text().splitlines()[1] == "1,2,1/1,0.693147,1.4427"

    def test_csv_computes_each_numerator_once(self, capsys, monkeypatch, tmp_path):
        notion = small_world.SmallWorldNotion.SWA
        real_pair, real_classify = small_world._INDICATOR_PAIRS[notion], small_world.classify
        real_log = math.log
        calls = {"all": 0, "classify": 0, "log": 0, "classify log": 0}

        def counting_pair(m, k, l):
            calls["all"] += 1
            return real_pair(m, k, l)

        def counting_log(x):
            calls["log"] += 1
            return real_log(x)

        def counting_classify(notion, direction):
            before, logs_before = calls["all"], calls["log"]
            verdict = real_classify(notion, direction)
            calls["classify"] += calls["all"] - before
            calls["classify log"] += calls["log"] - logs_before
            return verdict

        monkeypatch.setitem(small_world._INDICATOR_PAIRS, notion, counting_pair)
        monkeypatch.setattr(small_world, "classify", counting_classify)
        monkeypatch.setattr(math, "log", counting_log)
        steps = ",".join(str(s) for s in range(1, 51))
        code, _, _ = run(
            capsys,
            "asymptotics", "--notion", "SWA", "--vary", "L", "--fix", "M=2,K=1",
            "--steps", steps, "--out-csv", str(tmp_path / "swa.csv"),
        )
        assert code == 0
        assert calls["classify"] > 0
        assert calls["all"] - calls["classify"] == 50
        # one ln(n) per step, for the ratio; the CSV reuses it
        assert calls["log"] - calls["classify log"] == 50

    @pytest.mark.parametrize("notion", list(small_world.SmallWorldNotion))
    @pytest.mark.parametrize("vary", ["M", "K", "L"])
    def test_csv_rows_equal_reduced_fractions(self, capsys, tmp_path, notion, vary):
        fixed = {name: value for name, value in (("M", 4), ("K", 2), ("L", 2)) if name != vary}
        direction = small_world.GrowthDirection(
            vary, m=fixed.get("M"), k=fixed.get("K"), l=fixed.get("L")
        )
        steps = [1, 2, 3, 5, 8, 13, 100, 1001]
        csv_path = tmp_path / "cell.csv"
        code, _, _ = run(
            capsys,
            "asymptotics", "--notion", notion.value, "--vary", vary,
            "--fix", ",".join(f"{name}={value}" for name, value in fixed.items()),
            "--steps", ",".join(map(str, steps)), "--out-csv", str(csv_path),
        )
        assert code == 0
        points = small_world.ratio_sequence(notion, direction, steps)
        expected, denominators = ["step,N,numerator,lnN,ratio"], set()
        for step, pt in zip(steps, points):
            p = direction.params_at(step)
            n = spiders.node_count(p)
            fraction = Fraction(*small_world._INDICATOR_PAIRS[notion](p.m, p.k, p.l))
            ratio = float(fraction) / math.log(n)
            expected.append(
                f"{step},{n},{cli.format_fraction(fraction)},{math.log(n):.6g},{ratio:.6g}"
            )
            assert (pt.n, pt.ratio) == (n, ratio)
            assert Fraction(*pt.pair) == fraction
            denominators.add(fraction.denominator)
        assert csv_path.read_text().split("\n") == expected + [""]
        if notion in (small_world.SmallWorldNotion.DSWA, small_world.SmallWorldNotion.SWA):
            assert max(denominators) > 1

    def test_invalid_cell(self, capsys):
        code, _, err = run(
            capsys, "asymptotics", "--notion", "SWD", "--vary", "M", "--fix", "K=0,L=1"
        )
        assert code == 2
        assert "error" in err
        code, out, err = run(
            capsys, "asymptotics", "--notion", "SWD", "--vary", "M", "--fix", "M=2,K=1,L=1"
        )
        assert (code, out, err) == (2, "", "error: varying parameter M must not be fixed\n")

    def test_ratio_minimum_past_twelve_doublings(self, capsys):
        # The ratio falls until M ~ 460 and has risen for only two of the
        # doublings up to M = 4096.
        code, out, err = run(
            capsys, "asymptotics", "--notion", "DSWA", "--vary", "M", "--fix", "K=30,L=100"
        )
        assert (code, err) == (0, "")
        assert out == "DSWA vary M (K=30, L=100): small world (ratio -> +inf)\n"

    def test_ratio_minimum_past_128_doublings(self, capsys):
        # The ratio turns near M = K * L = 10**40, past t = 2**128.
        code, out, err = run(
            capsys,
            "asymptotics", "--notion", "DSWA", "--vary", "M",
            "--fix", "K=100000000000000000000,L=100000000000000000000",
        )
        assert (code, err) == (0, "")
        assert out.endswith("): small world (ratio -> +inf)\n")

    def test_unwritable_csv(self, capsys, tmp_path):
        code, out, err = run(
            capsys,
            "asymptotics", "--notion", "SWD", "--vary", "M", "--fix", "K=1,L=1",
            "--out-csv", str(tmp_path / "missing" / "swd.csv"),
        )
        assert (code, out) == (3, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_all_writes_each_csv_before_its_line(self, capsys, tmp_path):
        # The first cell's CSV path is a directory, so its write fails before any line.
        (tmp_path / "DSWL_vary_M.csv").mkdir()
        code, out, err = run(capsys, "asymptotics", "--all", "--csv-dir", str(tmp_path))
        assert (code, out) == (3, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_repeated_fixed_parameter_rejected(self, capsys):
        code, out, err = run(
            capsys, "asymptotics", "--notion", "SWD", "--vary", "M", "--fix", "K=1,K=5,L=1"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "K" in err

    def test_steps_need_csv(self, capsys):
        code, out, err = run(
            capsys,
            "asymptotics", "--notion", "SWD", "--vary", "M", "--fix", "K=1,L=1",
            "--steps", "3,7,9",
        )
        assert (code, out) == (2, "")
        assert "--out-csv" in err

    @pytest.mark.parametrize("steps", ["", " "])
    def test_empty_steps_rejected(self, capsys, tmp_path, steps):
        csv_path = tmp_path / "ratios.csv"
        code, out, err = run(
            capsys,
            "asymptotics", "--notion", "SWD", "--vary", "M", "--fix", "K=1,L=1",
            "--steps", steps, "--out-csv", str(csv_path),
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert not csv_path.exists()

    @pytest.mark.parametrize("entry", ["", "x", "2.5", "1e3"])
    def test_steps_entry_not_an_integer(self, capsys, tmp_path, entry):
        csv_path = tmp_path / "ratios.csv"
        code, out, err = run(
            capsys,
            "asymptotics", "--notion", "SWD", "--vary", "M", "--fix", "K=1,L=1",
            "--steps", f"2,{entry},9", "--out-csv", str(csv_path),
        )
        assert (code, out, err) == (2, "", f"error: --steps entry {entry!r} is not an integer\n")
        assert not csv_path.exists()

    @pytest.mark.parametrize(
        "steps, message",
        [
            ("0,1,2", "parameter value must be >= 1, got 0"),
            ("1,3,2", "steps must be strictly increasing"),
            ("10,10,20", "steps must be strictly increasing"),
        ],
    )
    def test_steps_checked_before_the_first_row(self, capsys, tmp_path, steps, message):
        csv_path = tmp_path / "ratios.csv"
        code, out, err = run(
            capsys,
            "asymptotics", "--notion", "SWD", "--vary", "M", "--fix", "K=1,L=1",
            "--steps", steps, "--out-csv", str(csv_path),
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not csv_path.exists()

    @pytest.mark.parametrize("value", ["", "x", "2.5", "1e3"])
    def test_fixed_value_not_an_integer(self, capsys, value):
        code, out, err = run(
            capsys, "asymptotics", "--notion", "SWD", "--vary", "M", "--fix", f"K={value},L=1"
        )
        expected = f"error: cannot parse fixed parameter 'K={value}'; expected e.g. K=1\n"
        assert (code, out, err) == (2, "", expected)

    def test_integers_past_the_digit_limit_are_not_called_non_integers(
        self, capsys, tmp_path, int_str_limit
    ):
        digits, csv_path = "1" * 4301, str(tmp_path / "ratios.csv")
        for argv in (["--fix", "K=1,L=1", "--steps", f"2,{digits}"], ["--fix", f"K={digits},L=1"]):
            code, out, err = run(
                capsys,
                "asymptotics", "--notion", "SWD", "--vary", "M", *argv, "--out-csv", csv_path,
            )
            assert (code, out) == (4, "")
            assert err.startswith("error:") and err.count("\n") == 1
            assert "not an integer" not in err and "cannot parse" not in err

    def test_all_rejects_empty_steps(self, capsys):
        code, out, err = run(capsys, "asymptotics", "--all", "--steps", "")
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    def test_all_csv_dir(self, capsys, tmp_path):
        csv_dir = tmp_path / "cells"
        code, out, _ = run(capsys, "asymptotics", "--all", "--csv-dir", str(csv_dir))
        assert code == 0
        assert len(out.splitlines()) == 12
        files = sorted(csv_dir.iterdir())
        assert len(files) == 12
        assert files[0].name == "DSWA_vary_K.csv"
        for path in files:
            lines = path.read_text().splitlines()
            assert lines[0] == "step,N,numerator,lnN,ratio"
            assert [int(line.split(",")[0]) for line in lines[1:]] == [
                2 ** i for i in range(1, 13)
            ]

    def test_csv_dir_needs_all(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "asymptotics", "--notion", "SWD", "--vary", "M", "--fix", "K=1,L=1",
            "--csv-dir", str(tmp_path / "cells"),
        )
        assert code == 2
        assert not (tmp_path / "cells").exists()

    def test_all_excludes_cell_options(self, capsys):
        code, _, err = run(capsys, "asymptotics", "--all", "--notion", "SWD")
        assert code == 2

    def test_missing_selectors(self, capsys):
        code, _, err = run(capsys, "asymptotics", "--notion", "SWD")
        assert code == 2


class TestExport:
    def test_edge_list_stdout(self, capsys):
        code, out, _ = run(capsys, "export", "-M", "1", "-K", "1", "-L", "1")
        assert code == 0
        assert out == "0 1\n"

    def test_adjacency_symmetric(self, capsys):
        code, out, _ = run(
            capsys, "export", "-M", "2", "-K", "2", "-L", "1", "--format", "adjacency-csv"
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()]
        assert len(rows) == 6
        for i in range(6):
            for j in range(6):
                assert rows[i][j] == rows[j][i]

    def test_dot_terminal_roles(self, capsys):
        code, out, _ = run(
            capsys, "export", "-M", "1", "-K", "1", "-L", "3", "--format", "dot"
        )
        assert code == 0
        assert out.count('role="terminal"') == 1
        assert out.count('role="core"') == 1

    def test_triangle_edge_list(self, capsys):
        code, out, _ = run(
            capsys, "export", "-M", "3", "-K", "0", "-L", "0", "--format", "edge-list"
        )
        assert code == 0
        assert out.splitlines() == ["0 1", "0 2", "1 2"]

    def test_file_output(self, capsys, tmp_path):
        out_path = tmp_path / "g.csv"
        code, out, _ = run(
            capsys,
            "export", "-M", "2", "-K", "2", "-L", "1",
            "--format", "adjacency-csv", "--out", str(out_path),
        )
        assert code == 0
        assert out == ""
        assert len(out_path.read_text().splitlines()) == 6

    @pytest.mark.parametrize("command", ["export"])
    @pytest.mark.parametrize(
        "fmt,shape",
        [
            ("adjacency-csv", ("1", "1", "8192")),
            ("edge-list", ("10", "1000000000", "1000000000")),
            ("dot", ("100000", "0", "0")),
        ],
    )
    def test_output_budget_refuses_before_building(self, capsys, tmp_path, command, fmt, shape):
        out_path = tmp_path / "g.out"
        m, k, l = shape
        with mock.patch.object(spiders, "build_spider", side_effect=AssertionError("built")):
            code, out, err = run(
                capsys, command, "-M", m, "-K", k, "-L", l, "--format", fmt, "--out", str(out_path)
            )
            assert (code, out, out_path.exists()) == (4, "", False)
            assert err.startswith("error:") and "budget" in err and err.count("\n") == 1
            code, out, _ = run(capsys, command, "-M", m, "-K", k, "-L", l, "--format", fmt)
        assert (code, out) == (4, "")

    @pytest.mark.parametrize("fmt", spiders.EXPORT_FORMATS)
    def test_output_budget_admits_an_export_of_its_size(self, capsys, monkeypatch, fmt):
        argv = ["export", "-M", "2", "-K", "2", "-L", "1", "--format", fmt]
        monkeypatch.setattr(cli, "OUTPUT_BUDGET", spiders.export_size(spiders.normalize(2, 2, 1), fmt))
        code, out, _ = run(capsys, *argv)
        assert code == 0 and 0 < len(out) <= cli.OUTPUT_BUDGET
        monkeypatch.setattr(cli, "OUTPUT_BUDGET", cli.OUTPUT_BUDGET - 1)
        assert run(capsys, *argv)[:2] == (4, "")


class TestDeterminism:
    def test_repeat_invocations_identical(self, capsys):
        _, first, _ = run(capsys, "report", "-M", "3", "-K", "2", "-L", "2")
        _, second, _ = run(capsys, "report", "-M", "3", "-K", "2", "-L", "2")
        assert first == second
        _, first, _ = run(capsys, "asymptotics", "--all")
        _, second, _ = run(capsys, "asymptotics", "--all")
        assert first == second

    def test_reused_parser_matches_a_fresh_one(self, capsys):
        """One parser serves every main call; no call's options leak into the next."""
        report = ("report", "-M", "2", "-K", "2", "-L", "1")
        calls = [
            (*report, "--cap", "3"),
            report,
            ("verify", "--Mmax", "2", "--Kmax", "1", "--Lmax", "1"),
        ]
        cli._build_parser.cache_clear()
        reused = [run(capsys, *argv) for argv in calls]
        assert cli._build_parser.cache_info().misses == 1
        fresh = []
        for argv in calls:
            cli._build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert reused == fresh
        assert [code for code, _, _ in reused] == [4, 0, 0]


class TestReportMarks:
    """``report --source both`` marks each row from the fields that row renders."""

    @pytest.mark.parametrize(
        "wrong, row",
        [
            (lambda r: r._replace(gamma=((sum(v * c for v, c in r.gamma), 1),)), "gamma"),
            (lambda r: r._replace(total_distance=r.total_distance + 1), "mean-distance"),
            (lambda r: r._replace(h_index=r.h_index + 1), "h-index"),
        ],
        ids=["gamma-same-sum", "total-distance", "h-index"],
    )
    def test_only_the_row_of_a_wrong_field_mismatches(self, capsys, monkeypatch, wrong, row):
        true_indicators = graph_core.all_indicators
        monkeypatch.setattr(graph_core, "all_indicators", lambda g: wrong(true_indicators(g)))
        code, out, err = run(capsys, "report", "-M", "3", "-K", "2", "-L", "2")
        marks = {
            line.partition(":")[0]: line.rpartition("  ")[2]
            for line in out.splitlines()
            if line.endswith("]")
        }
        assert (code, err, len(marks)) == (1, "", 8)
        assert {name for name, mark in marks.items() if mark != "[MATCH]"} == {row}
        assert marks[row] == "[MISMATCH]"


def _outcome(call, argv):
    """(result, stdout, stderr) of call(argv); a SystemExit or _InputTooLarge is its result."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call(list(argv))
        except SystemExit as exc:
            result = ("SystemExit", exc.code)
        except cli._InputTooLarge as exc:
            result = ("_InputTooLarge", str(exc))
    return result, out.getvalue(), err.getvalue()


def _top_level(argv):
    """argv parsed by the top-level parser alone, less the ``command`` it records."""
    args = cli._build_parser().parse_args(argv)
    del args.command
    return args


def check_argv(argv):
    """The checks of one argv, with each "@" in it standing for a fresh temporary directory.

    ``cli._parse``, which hands argv to the parser of the command it names,
    gives what the top-level parser gives: the same namespace, or the same
    exit, stdout and stderr.  ``main`` then lets no exception but SystemExit
    out, exits 0-4, writes no output and no file for a report or export
    that exits 4, and writes no stderr line longer than 200 bytes.
    """
    with tempfile.TemporaryDirectory() as tmp:
        argv = [arg.replace("@", tmp) for arg in argv]
        assert _outcome(cli._parse, argv) == _outcome(_top_level, argv)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in range(5)
        if code == 4 and argv[:1] in (["report"], ["export"]):
            assert out.getvalue() == "" and os.listdir(tmp) == []
        assert all(len(line.encode()) <= 200 for line in err.getvalue().splitlines())
        return code, err.getvalue()


_REPORT = ("report", "-M", "1", "-K", "1", "-L", "1")
_BOGUS = [*_REPORT, "--bogus"]


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["--help"],
        ["bogus"],
        ["rep", "-M", "1"],
        ["--", *_REPORT],
        ["-x", *_REPORT],
        ["report"],
        ["report", "-h"],
        ["report", "-h", "--bogus"],
        ["verify", "-h"],
        ["asymptotics", "-h"],
        ["export", "-h"],
        [*_REPORT, "--source=closed"],
        [*_REPORT, "--sou", "closed"],
        [*_REPORT, "--source", "bogus"],
        [*_REPORT, "--"],
        [*_REPORT, "--", "x"],
        ["report", "--", "-M", "1", "-K", "1", "-L", "1"],
        ["report", "-M", "-1", "-K", "1", "-L", "1"],
        ["report", "-M", "2", "-K", "-1", "-L", "-3"],
        ["report", "-M", "2", "-K", "1"],
        _BOGUS,
        [*_REPORT, "extra", "--x"],
        [*_REPORT, "report"],
        ["report", "-M", "1" * 60, "-K", "1", "-L", "1"],
        ["report", "-M", "1" * 4300, "-K", "4", "-L", "2"],
        ["report", "-M", "3", "-K", "-2", "-L", "1" * 4300],
        ["report", "-M", "1" * 4301 + "x", "-K", "1", "-L", "1"],
        ["report", "-M", "1" * 4301, "-K", "1", "-L", "1"],
        ["export", "-M", "2", "-K", "1" * 2000, "-L", "1", "--out", "@/g.txt"],
        ["export", "-M", "2", "-K", "1", "-L", "2", "--format", "dot", "--out", "@/g.dot"],
        ["verify", "--Mmax", "3", "--Kmax", "2", "--Lmax", "2"],
        ["verify", "--Mmax", "3", "--bogus"],
        ["asymptotics", "--all"],
        ["asymptotics", "--notion", "SWD", "--vary", "M", "--fix", "K=1,L=1", "--steps", "2,4",
         "--out-csv", "@/c.csv"],
    ],
)
def test_argv_dispatch_matches_the_top_level_parser(int_str_limit, argv):
    code, err = check_argv(argv)
    if argv == _BOGUS:  # under the top-level usage, not the report usage
        assert code == 2
        assert err.startswith("usage: spidernets [-h] {report,")
        assert err.splitlines()[-1] == "spidernets: error: unrecognized arguments: --bogus"


_SMALL = st.integers(min_value=-1, max_value=6).map(str)
# Tokens past the 50 characters an error message shows; none is an integer, so none
# is a node count or a cap.
_LONG = st.sampled_from(["x" * 51, "1" * 60 + "x", "-" + "y" * 60, "z" * 5000])
# Mostly small integers.  Report and export stay cheap at 10**9, by a budget, the cap or
# normalization; verify's grid would not, so verify takes small values only.
_VALUE = _SMALL | _SMALL | _LONG | st.sampled_from(
    ["abc", "1x", "", " 3 ", "+2", "1_0", "1000000000"]
)
# Each command's options: its spellings and the values it takes (None: a flag).
_OPTIONS = {
    "report": [
        (["-M"], _VALUE), (["-K"], _VALUE), (["-L"], _VALUE),
        (["--source", "--sou"], st.sampled_from(["closed", "oracle", "both", "x"]) | _LONG),
        (["--cap"], _VALUE),
    ],
    "export": [
        (["-M"], _VALUE), (["-K"], _VALUE), (["-L"], _VALUE),
        (["--format"], st.sampled_from([*spiders.EXPORT_FORMATS, "png"]) | _LONG),
        (["--out"], st.just("@/g.txt")),
    ],
    "verify": [
        (["--Mmax"], st.integers(min_value=-1, max_value=3).map(str)),
        (["--Kmax", "--K"], _SMALL), (["--Lmax"], _SMALL), (["--cap"], _SMALL),
    ],
    "asymptotics": [
        (["--notion"], st.sampled_from(["SWD", "SWA", "DSWL", "x"]) | _LONG),
        (["--vary"], st.sampled_from(["M", "K", "L", "x"]) | _LONG),
        (["--fix"], st.sampled_from(["K=1,L=1", "M=2,K=1", "M=2,L=1", "K=x", "", "K=1,K=2"])
         | _LONG.map("K=1,".__add__)),
        (["--steps"], st.sampled_from(["2,4,8", "1", "", "x", "3,2"]) | _LONG.map("2,".__add__)),
        (["--out-csv"], st.just("@/c.csv")),
        (["--all"], None),
        (["--csv-dir"], st.just("@/cells")),
    ],
}
_JUNK = _LONG | st.sampled_from(
    ["--bogus", "-h", "--", "x", "-1", "--cap", "3", "--all", "-M", "="]
)


@st.composite
def argvs(draw):
    """An argv: a command (or none, or not one), some of its options in any order, some junk."""
    command = draw(st.sampled_from([*_OPTIONS, "bogus", "-h", "--"]) | _LONG)
    groups = []
    for spellings, values in _OPTIONS.get(command, []):
        if spellings[0] == "--Mmax" or draw(st.integers(0, 9)):  # keep verify's grid small
            flag = draw(st.sampled_from(spellings))
            value = [] if values is None else [draw(values)]
            if value and draw(st.integers(0, 5)) == 0:
                groups.append([f"{flag}={value[0]}"])
            else:
                groups.append([flag, *value])
    argv = [command, *itertools.chain.from_iterable(draw(st.permutations(groups)))]
    for junk in draw(st.lists(_JUNK, max_size=2)) if draw(st.integers(0, 2)) == 0 else ():
        argv.insert(draw(st.integers(0, len(argv))), junk)
    return argv


@settings(max_examples=150, deadline=None)
@given(argvs())
def test_random_argv_dispatch_matches_the_top_level_parser(argv):
    check_argv(argv)
