"""Benchmark of the spidernets command line, one workload per invocation.

Run from the root of a spidernets checkout:

    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 20 --trace 0

The workload runs in its own worker process (worker.py), which calls
``spidernets.cli.main`` in-process: closed loop, one caller, one thread.
Each run attempts whole rounds of the workload's operations until
``--seconds`` have passed, checks every output with checks.py outside the
timed region, and prints one JSON object as the last line of stdout.  With
``--trace 0`` it holds the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  See README.md for the workloads, metrics
and reference figures.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import checks
import refspeed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join("perfbench", "out")
SETUP_STARTS = 11


@dataclass
class Call:
    """One CLI invocation and how to check its output."""

    argv: list[str]
    check: Callable[[str, str], None]  # (stdout, csv text) -> raises CheckError
    csv: str | None = None


@dataclass
class Op:
    """One operation of a workload round: the CLI calls a user makes for one answer.

    Its time is the sum of its calls' times; it fails when any call exits
    with another code than 0 or any check rejects a call's output.
    """

    calls: list[Call]
    work: int


# ---------------------------------------------------------------- workloads
#
# Each workload function draws its inputs from the seeded rng and returns
# one round.  Draws are kept narrow so that every seed gives about the same
# amount of work; the README lists the ranges.


def verify_grid(rng: random.Random, run_dir: str) -> list[Op]:
    """The default verification grid; the seed does not change it."""
    mmax, kmax, lmax, cap = 8, 5, 6, 2000
    points = checks.grid_points(mmax, kmax, lmax, cap)
    argv = ["verify", "--Mmax", str(mmax), "--Kmax", str(kmax), "--Lmax", str(lmax), "--cap", str(cap)]
    work = sum(checks.counts(*p)[2] for p in points)
    return [Op([Call(argv, lambda out, _: checks.check_verify(out, points))], work)]


def _report_both_shapes(rng: random.Random) -> list[tuple[int, int, int]]:
    """Core-heavy, many short legs, few long legs; each with n near 1000."""
    m = rng.randint(20, 25)
    kl = round(1000 / m) - 1
    k = rng.choice([d for d in range(2, kl // 2 + 1) if kl % d == 0] or [1])
    core_heavy = (m, k, kl // k)
    short = rng.choice([2, 3])
    short_legs = (2, round(499 / short), short)
    legs = rng.choice([2, 3])
    long_legs = (2, legs, round(499 / legs))
    return [core_heavy, short_legs, long_legs]


def report_both(rng: random.Random, run_dir: str) -> list[Op]:
    oracles: dict = {}

    def check(shape):
        def run(out, _):
            if shape not in oracles:
                oracles[shape] = checks.bfs_indicators(*shape)
            checks.check_report_both(out, shape, oracles[shape])
        return run

    return [
        Op([Call(_report_argv(shape, "both"), check(shape))], checks.counts(*shape)[2])
        for shape in _report_both_shapes(rng)
    ]


def _report_argv(shape, source: str) -> list[str]:
    m, k, l = shape
    return ["report", "-M", str(m), "-K", str(k), "-L", str(l), "--source", source]


def _report_closed_shapes(rng: random.Random) -> list[tuple[int, int, int]]:
    """A ladder near 10^4 (M=1, L=1), 10^5 (M>1, L=2) and 10^6 (L>=3) nodes."""
    small = (1, 10_000 + rng.randint(-100, 100), 1)
    m = rng.randint(2, 5)
    medium = (m, round((100_000 / m - 1) / 2), 2)
    # Long legs keep the number of legs, and so of distinct multi-digit
    # gamma values the output holds, small: peak memory then depends on n
    # alone.
    m, l = rng.randint(1, 4), rng.randint(200, 1000)
    large = (m, round((1_000_000 / m - 1) / l), l)
    return [small, medium, large]


def report_closed(rng: random.Random, run_dir: str) -> list[Op]:
    return [
        Op([Call(_report_argv(shape, "closed"),
                 lambda out, _, shape=shape: checks.check_report_closed(out, shape))],
           checks.counts(*shape)[0])
        for shape in _report_closed_shapes(rng)
    ]


ASYMPTOTIC_STEPS = list(range(2, 2002))
FIXED_RANGES = {"M": (2, 8), "K": (1, 8), "L": (1, 8)}


def asymptotics_scan(rng: random.Random, run_dir: str) -> list[Op]:
    """One operation: the verdict table, then every cell as a dense ratio sequence to CSV.

    The 13 calls cost from 10 ms to 0.3 s each, so a median over calls would
    fall on the cheap cells and hide the SWA cells that take most of the time.
    """
    calls = [Call(["asymptotics", "--all"], lambda out, _: checks.check_verdict_table(out))]
    steps = ",".join(map(str, ASYMPTOTIC_STEPS))
    for notion in checks.NOTIONS:
        for vary in "MKL":
            fixed = {name: rng.randint(*FIXED_RANGES[name]) for name in "MKL" if name != vary}
            csv = os.path.join(run_dir, f"{notion}-{vary}.csv")
            argv = ["asymptotics", "--notion", notion, "--vary", vary,
                    "--fix", ",".join(f"{k}={v}" for k, v in fixed.items()),
                    "--steps", steps, "--out-csv", csv]

            def check(out, text, notion=notion, vary=vary, fixed=fixed):
                checks.check_cell(out, text, notion, vary, fixed, ASYMPTOTIC_STEPS)

            calls.append(Call(argv, check, csv))
    return [Op(calls, len(ASYMPTOTIC_STEPS) * (len(calls) - 1))]


WORKLOADS = {
    "verify-grid": verify_grid,
    "report-both": report_both,
    "report-closed": report_closed,
    "asymptotics-scan": asymptotics_scan,
}


# ------------------------------------------------------------------ running


def child_env(root: str) -> dict[str, str]:
    """The caller's environment, with this checkout's sources first on the path.

    SPIDERNETS_NODE_CAP is removed: every workload passes its caps in argv.
    """
    env = {k: v for k, v in os.environ.items() if k != "SPIDERNETS_NODE_CAP"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(root, "src"), env.get("PYTHONPATH")]))
    return env


# A fresh interpreter that imports spidernets.cli between two speed
# measurements of its own, then prints three clock readings and both speeds.
SETUP_PROBE = (
    "import sys, time; a = time.perf_counter(); sys.path.insert(0, {bench!r}); import refspeed; "
    "sa = refspeed.bracket_speed(); b = time.perf_counter(); import spidernets.cli; "
    "c = time.perf_counter(); print(a, b, c, sa, refspeed.bracket_speed())"
)


def measure_setup(env: dict[str, str]) -> list[float]:
    """Scaled seconds to start an interpreter and import spidernets.cli.

    The time runs from the spawn to the end of the import, without the
    probe's own speed measurement.  perf_counter is the system-wide
    monotonic clock, so readings compare across processes.  The speed comes
    from the new process itself, which may run on another core than this one.
    """
    command = [sys.executable, "-c", SETUP_PROBE.format(bench=BENCH_DIR)]
    subprocess.run(command, env=env, check=True, capture_output=True)  # writes the bytecode cache
    values = []
    for _ in range(SETUP_STARTS):
        spawned = time.perf_counter()
        probe = subprocess.run(command, env=env, check=True, capture_output=True, text=True)
        started, before_import, imported, speed_before, speed_after = map(float, probe.stdout.split())
        raw = started - spawned + imported - before_import
        values.append(refspeed.scaled_seconds(raw, speed_before, speed_after))
    return values


class Worker:
    """The worker process; answers one request at a time."""

    def __init__(self, env: dict[str, str]):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )

    def request(self, **request) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class Run:
    """Executes and checks operations; accumulates what the metrics need."""

    def __init__(self, worker: Worker):
        self.worker = worker
        self.records: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self._verdicts: dict = {}

    def attempt(self, op: Op, executions: list[tuple[str, bool]]) -> list[list[dict]]:
        """One attempt of an operation, executed once per (mode, keep) pair.

        The attempt fails when any of its executions fails.  Returns the
        replies of each execution.
        """
        results = [self.execute(op, mode, keep) for mode, keep in executions]
        self.attempted += 1
        self.failed += not all(ok for ok, _ in results)
        return [replies for _, replies in results]

    def execute(self, op: Op, mode: str, keep: bool) -> tuple[bool, list[dict]]:
        """Run every call of one operation; returns whether all passed, and the replies."""
        replies, errors = [], []
        for call in op.calls:
            reply = self.worker.request(argv=call.argv, mode=mode, keep=keep)
            reply["csv_bytes"] = os.path.getsize(call.csv) if call.csv and os.path.exists(call.csv) else 0
            error = self._check(call, reply)
            if error:
                errors.append(error)
                print(f"FAILED: {' '.join(call.argv)[:120]}: {error}", file=sys.stderr)
            replies.append(reply)
        self.records.append({
            "argv": " ".join(op.calls[0].argv)[:120], "mode": mode, "ok": not errors, "work": op.work,
            "raw_s": sum(r["raw_s"] for r in replies), "scaled_s": sum(r["scaled_s"] for r in replies),
            "calls": [{"code": r["code"], "raw_s": r["raw_s"], "scaled_s": r["scaled_s"],
                       "speeds": r["speeds"]} for r in replies],
        })
        return not errors, replies

    def _check(self, call: Call, reply: dict) -> str | None:
        if reply["code"] != 0:
            return f"exit code {reply['code']}: {reply['stderr'][-2000:]}"
        stdout = reply["stdout"]
        csv = ""
        if call.csv:
            if not os.path.exists(call.csv):
                return f"no CSV written to {call.csv}"
            with open(call.csv, encoding="utf-8") as fh:
                csv = fh.read()
        # A byte-identical output of the same call reuses the verdict.
        digest = hashlib.sha256((stdout + "\0" + csv).encode()).hexdigest()
        key = (tuple(call.argv), digest)
        if key not in self._verdicts:
            try:
                call.check(stdout, csv)
                self._verdicts[key] = None
            except checks.CheckError as exc:
                self._verdicts[key] = f"check rejected the output: {exc}"
        return self._verdicts[key]


def end_to_end(records: list[dict], setup: list[float], max_rss_mb: float) -> dict:
    scaled = [r["scaled_s"] for r in records]
    work = sum(r["work"] for r in records)
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "latency_s.p50": {"value": statistics.median(scaled), "unit": "s"},
        "work_per_s": {"value": work / sum(scaled), "unit": "work/s"},
        "peak_rss_mb": {"value": max_rss_mb, "unit": "MB"},
    }


def per_layer(traced: list[list[dict]], untraced: list[list[dict]], peak_bytes: int, rows: int) -> dict:
    """Per-operation means over the traced executions, scaled like every time."""
    ops = len(traced)
    times: dict[str, float] = {}
    counts: dict[str, float] = {}

    def add(table, name, value):
        table[name] = table.get(name, 0) + value

    for reply in itertools.chain.from_iterable(traced):
        layers, scale = reply["layers"], reply["scaled_s"] / reply["raw_s"]
        for layer, busy in layers["busy_s"].items():
            add(times, f"{layer}.busy_s", busy * scale)
        for name, seconds in layers["inclusive_s"].items():
            add(times, name, seconds * scale)
        for name, calls in layers["calls"].items():
            add(counts, name, calls)
        add(times, "cli.self_s", (reply["raw_s"] - layers["top_level_s"]) * scale)
        add(counts, "graph_nodes", layers["graph_nodes"])
        add(counts, "elements", layers["elements"])
        add(counts, "output_bytes", len(reply["stdout"].encode()) + reply["csv_bytes"])

    def time_of(name):
        return times.get(name, 0.0) / ops

    def count_of(name):
        return counts.get(name, 0) / ops

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    def scaled_total(executions):
        return sum(r["scaled_s"] for r in itertools.chain.from_iterable(executions))

    metrics = {
        "spiders.build_spider_s": (time_of("spiders.build_spider"), "s"),
        "spiders.build_spider_calls": (count_of("spiders.build_spider"), "count"),
        "graph_core.busy_s": (time_of("graph_core.busy_s"), "s"),
        "graph_core.alpha_s": (time_of("graph_core.alpha_array"), "s"),
        "graph_core.diameter_s": (time_of("graph_core.diameter"), "s"),
        "graph_core.total_distance_s": (time_of("graph_core.total_distance"), "s"),
        "graph_core.mean_distance_s": (time_of("graph_core.mean_distance"), "s"),
        "graph_core.bfs_calls": (count_of("graph_core.bfs_distances"), "count"),
        "graph_core.sweep_yield": (
            ratio(counts.get("graph_nodes", 0), counts.get("graph_core.bfs_distances", 0)), "ratio"),
        "closed_form.busy_s": (time_of("closed_form.busy_s"), "s"),
        "closed_form.delta_s": (time_of("closed_form.delta_closed"), "s"),
        "closed_form.gamma_s": (time_of("closed_form.gamma_closed"), "s"),
        "closed_form.alpha_s": (time_of("closed_form.alpha_closed"), "s"),
        "closed_form.total_distance_s": (time_of("closed_form.total_distance_closed"), "s"),
        "closed_form.elements": (count_of("elements"), "count"),
        "closed_form.peak_traced_mb": (peak_bytes / 2**20, "MB"),
        "small_world.busy_s": (time_of("small_world.busy_s"), "s"),
        "small_world.classify_s": (time_of("small_world.classify"), "s"),
        "small_world.ratio_sequence_s": (time_of("small_world.ratio_sequence"), "s"),
        "small_world.numerator_calls": (count_of("small_world.numerator"), "count"),
        "small_world.numerator_yield": (ratio(rows, counts.get("small_world.numerator", 0)), "ratio"),
        "cli.self_s": (time_of("cli.self_s"), "s"),
        "cli.output_bytes": (count_of("output_bytes"), "bytes"),
        "trace.overhead_s": ((scaled_total(traced) - scaled_total(untraced)) / ops, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def measure(args, root: str) -> tuple[dict, Run]:
    rng = random.Random(args.seed)
    run_dir = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    ops = WORKLOADS[args.workload](rng, run_dir)
    env = child_env(root)
    setup = [] if args.trace else measure_setup(env)
    worker = Worker(env)
    try:
        run = Run(worker)
        traced, untraced, peak_bytes, rows = [], [], 0, 0
        deadline = time.perf_counter() + args.seconds
        first_round = True
        while first_round or time.perf_counter() < deadline:
            for op in ops:
                if not args.trace:
                    run.attempt(op, [("plain", False)])
                    continue
                # Traced and untraced runs of the same operation, back to
                # back, give the tracing overhead.
                executions = [("plain", False), ("spans", first_round)]
                plain, spans, *malloc = run.attempt(op, executions + [("malloc", False)] * first_round)
                untraced.append(plain)
                traced.append(spans)
                rows += op.work if any(call.csv for call in op.calls) else 0
                for replies in malloc:
                    peak_bytes = max([peak_bytes] + [r["closed_form_peak_bytes"] for r in replies])
            if first_round:
                # Each operation has now run once in a fresh process, as a
                # CLI user runs it.  Later rounds only add heap fragmentation
                # from repeating calls in one process: the high-water mark
                # after all rounds varied by up to 8% from run to run.
                max_rss_mb = worker.request(max_rss=True)["max_rss_mb"]
            first_round = False
        worker.request(finish=os.path.join(run_dir, "spans.jsonl") if args.trace else None)
    finally:
        worker.close()
        for call in itertools.chain.from_iterable(op.calls for op in ops):
            if call.csv and os.path.exists(call.csv):
                os.remove(call.csv)
    if args.trace:
        metrics = per_layer(traced, untraced, peak_bytes, rows)
    else:
        metrics = end_to_end(run.records, setup, max_rss_mb)
    with open(os.path.join(run_dir, "run.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "argv": [call.argv[:9] for op in ops for call in op.calls],
                   "setup_s": setup, "metrics": metrics, "operations": run.records}, fh, indent=1)
    return metrics, run


def result(run: Run, metrics: dict) -> dict:
    """The result line: correct only when no operation failed.

    Every workload keeps clear of the program's known faults, so a failed
    operation, by exit code or by a rejected check, is a wrong answer.
    """
    return {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "spidernets", "cli.py")):
        print("error: run from the root of a spidernets checkout; src/spidernets/cli.py is missing",
              file=sys.stderr)
        return 2
    metrics, run = measure(args, root)
    raw = [r["raw_s"] for r in run.records if r["mode"] == "plain"]
    print(f"{args.workload} seed {args.seed}: {run.attempted} operations, "
          f"raw median {statistics.median(raw):.4f} s")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    summary = result(run, metrics)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
