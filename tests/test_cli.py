import pathlib
import runpy
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from spidernets import cli, closed_form, small_world
from spidernets.closed_form import _expand

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_counts_announced(self, capsys):
        code, out, _ = run(capsys, "generate", "-M", "2", "-K", "2", "-L", "1")
        assert code == 0
        assert "nodes: 6" in out and "edges: 5" in out and "pairs: 15" in out

    def test_degenerate_spider(self, capsys):
        code, out, _ = run(capsys, "generate", "-M", "1", "-K", "0", "-L", "0")
        assert code == 0
        assert "nodes: 1" in out and "edges: 0" in out

    def test_invalid_core_size(self, capsys):
        code, _, err = run(capsys, "generate", "-M", "0", "-K", "1", "-L", "1")
        assert code == 2
        assert "error" in err

    def test_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "h.edges"
        code, out, _ = run(
            capsys, "generate", "-M", "1", "-K", "1", "-L", "1", "--out", str(out_path)
        )
        assert code == 0
        assert out_path.read_text() == "0 1\n"
        assert str(out_path) in out

    def test_unwritable_path(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "generate", "-M", "1", "-K", "1", "-L", "1",
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

    def test_cap_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.NODE_CAP_ENV, "3")
        code, _, _ = run(capsys, "report", "-M", "2", "-K", "2", "-L", "1")
        assert code == 4

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

    @pytest.mark.parametrize("raw", ["abc", "-5"])
    def test_bad_cap_env_var_rejected(self, capsys, monkeypatch, raw):
        monkeypatch.setenv(cli.NODE_CAP_ENV, raw)
        code, _, err = run(capsys, "report", "-M", "2", "-K", "2", "-L", "1")
        assert code == 2
        assert err.startswith("error:") and cli.NODE_CAP_ENV in err
        assert err.count("\n") == 1

    def test_out_of_memory_is_resource_guard(self, capsys, monkeypatch):
        def exhausted(p):
            raise MemoryError

        monkeypatch.setattr(closed_form, "closed_form_report", exhausted)
        code, _, err = run(
            capsys, "report", "-M", "2", "-K", "2", "-L", "1", "--source", "closed"
        )
        assert code == 4
        assert err.startswith("error:") and err.count("\n") == 1

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
    assert cli.format_runs(groups) == cli.format_array(_expand(groups))


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

    @pytest.mark.parametrize("mmax,code", [("0", 2), ("1", 0)])
    def test_script_runs_the_verify_command(self, capsys, monkeypatch, mmax, code):
        argv = ["verify_grid.py", "--mmax", mmax, "--kmax", "1", "--lmax", "1"]
        monkeypatch.setattr(sys, "argv", argv)
        with pytest.raises(SystemExit) as exited:
            runpy.run_path(str(SCRIPTS / "verify_grid.py"), run_name="__main__")
        assert exited.value.code == code
        out = capsys.readouterr().out
        assert ("parameter points verified" in out) == (code == 0)

    def test_corrupted_formula_detected(self, capsys, monkeypatch):
        real = closed_form.diameter_closed
        monkeypatch.setattr(closed_form, "diameter_closed", lambda p: real(p) + 1)
        code, out, _ = run(capsys, "verify", "--Mmax", "2", "--Kmax", "1", "--Lmax", "1")
        assert code == 1
        assert "MISMATCH" in out and "diameter" in out


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

    def test_csv_computes_each_numerator_once(self, capsys, monkeypatch, tmp_path):
        real_numerator, real_classify = small_world.numerator, small_world.classify
        calls = {"all": 0, "classify": 0}

        def counting_numerator(notion, p):
            calls["all"] += 1
            return real_numerator(notion, p)

        def counting_classify(notion, direction):
            before = calls["all"]
            verdict = real_classify(notion, direction)
            calls["classify"] += calls["all"] - before
            return verdict

        monkeypatch.setattr(small_world, "numerator", counting_numerator)
        monkeypatch.setattr(small_world, "classify", counting_classify)
        steps = ",".join(str(s) for s in range(1, 51))
        code, _, _ = run(
            capsys,
            "asymptotics", "--notion", "SWA", "--vary", "L", "--fix", "M=2,K=1",
            "--steps", steps, "--out-csv", str(tmp_path / "swa.csv"),
        )
        assert code == 0
        assert calls["classify"] > 0
        assert calls["all"] - calls["classify"] == 50

    def test_invalid_cell(self, capsys):
        code, _, err = run(
            capsys, "asymptotics", "--notion", "SWD", "--vary", "M", "--fix", "K=0,L=1"
        )
        assert code == 2
        assert "error" in err

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


class TestDeterminism:
    def test_repeat_invocations_identical(self, capsys):
        _, first, _ = run(capsys, "report", "-M", "3", "-K", "2", "-L", "2")
        _, second, _ = run(capsys, "report", "-M", "3", "-K", "2", "-L", "2")
        assert first == second
        _, first, _ = run(capsys, "asymptotics", "--all")
        _, second, _ = run(capsys, "asymptotics", "--all")
        assert first == second
