import math
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

        def shifted(p):
            (core, m), interior, terminal = real(p)
            return [(core + 1, m), interior, terminal]

        monkeypatch.setattr(closed_form, "_delta_groups", shifted)
        code, _, err = run(
            capsys, "report", "-M", "3", "-K", "2", "-L", "2", "--source", source
        )
        assert code == 1
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
    assert cli.format_runs(groups) == format_array(_expand(groups))


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
def test_linear_run_formatter_and_size(runs):
    text = cli.format_linear_runs(runs)
    assert text == format_array(_expand_runs(runs))
    assert sum(cli._linear_run_chars(*run) for run in runs) == len(text) + bool(runs)


@given(spider_params)
def test_array_row_chars_counts_the_printed_rows(p):
    if spiders.node_count(p) >= 2:
        report = closed_form.closed_form_report(p)
        rows = cli._rows(report, spiders.pair_count(p))
        assert cli.array_row_chars(report) == sum(
            len(rows[name]) + 1 for name in ("delta", "gamma", "alpha")
        )


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

    def test_oracle_work_bound_drops_dense_points(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--Mmax", "50", "--Kmax", "0", "--Lmax", "0", "--cap", "30"
        )
        assert code == 0
        assert out == "12 parameter points verified\n"
        assert [p.m for p in cli.iter_grid(50, 0, 0, 30)] == list(range(2, 14))

    def test_default_grid_takes_the_bit_parallel_sweep(self):
        args = cli._build_parser().parse_args(["verify"])
        points = cli.iter_grid(args.mmax, args.kmax, args.lmax, cli.VERIFY_CAP_DEFAULT)
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
        calls = {"all": 0, "classify": 0}

        def counting_pair(p):
            calls["all"] += 1
            return real_pair(p)

        def counting_classify(notion, direction):
            before = calls["all"]
            verdict = real_classify(notion, direction)
            calls["classify"] += calls["all"] - before
            return verdict

        monkeypatch.setitem(small_world._INDICATOR_PAIRS, notion, counting_pair)
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
            fraction = Fraction(*small_world._INDICATOR_PAIRS[notion](p))
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
