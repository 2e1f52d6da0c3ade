"""Benchmark worker: runs spidernets CLI operations in-process, one at a time.

``run.py`` starts this script with the checkout root as working directory.
It reads one JSON request per line on stdin and answers each with one JSON
line on stdout.  The parent checks an answer while the worker waits for the
next request, so checking never overlaps a timed operation.

Requests:

* ``{"argv": [...], "mode": "plain" | "spans" | "malloc", "keep": bool}``
  runs ``spidernets.cli.main(argv)`` timed against the host's speed
  (refspeed.py).  ``spans`` wraps the public functions of every library layer
  and records one span per call; ``malloc`` measures the peak memory that
  ``closed_form`` allocates with tracemalloc.  ``keep`` keeps the spans for
  the trace file.
* ``{"max_rss": true}`` answers with the process's peak resident memory.
* ``{"finish": path-or-null}`` writes the kept spans to ``path``, one JSON
  list ``[call, name, start, end, parent]`` per line, where ``call`` numbers
  the kept calls and ``parent`` is the index of the enclosing span within
  that call (-1 for none); then it answers and exits.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import json
import os
import resource
import sys
import time
import tracemalloc
import traceback
from collections import Counter, defaultdict

import refspeed

LAYERS = ("spiders", "graph_core", "closed_form", "small_world")


def _import_program():
    """Import the spidernets package from this checkout's ``src``."""
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    cli = importlib.import_module("spidernets.cli")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"spidernets imported from {cli.__file__}, not from {src}")
    package = sys.modules["spidernets"]
    layers = {name: importlib.import_module(f"spidernets.{name}") for name in LAYERS}
    return package, cli, layers


class _Patch:
    """Every binding of some functions in the package's module namespaces.

    ``apply`` points each binding at the function's wrapper and ``restore``
    points it back, so untraced operations run the program unmodified.
    """

    def __init__(self, modules, wrappers: dict):
        self._bindings = [
            (module, attr, value, wrappers[value])
            for module in modules
            for attr, value in vars(module).items()
            if inspect.isfunction(value) and value in wrappers
        ]

    def apply(self) -> None:
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)


def _public_functions(layers):
    """(layer name, function name, function) for every public function a layer defines."""
    for layer, module in layers.items():
        for name, value in vars(module).items():
            if (
                inspect.isfunction(value)
                and value.__module__ == module.__name__
                and not name.startswith("_")
            ):
                yield layer, name, value


class SpanTracer:
    """Records a span (name, start, end, parent) around every library call.

    Also counts, at the same boundaries, the nodes of every graph that
    ``graph_core.build_graph`` returns and the entries of every tuple a
    ``closed_form`` function returns.
    """

    def __init__(self, modules, layers):
        self.spans: list = []
        self.graph_nodes = 0
        self.elements = 0
        self._stack: list[int] = []
        wrappers = {
            fn: self._wrap(layer, f"{layer}.{name}", fn)
            for layer, name, fn in _public_functions(layers)
        }
        self.patch = _Patch(modules, wrappers)

    def reset(self) -> None:
        self.spans = []
        self.graph_nodes = 0
        self.elements = 0

    def _wrap(self, layer: str, name: str, fn):
        stack = self._stack
        clock = time.perf_counter
        counts_graphs = name == "graph_core.build_graph"
        counts_elements = layer == "closed_form"

        def traced(*args, **kwargs):
            spans = self.spans
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if counts_graphs:
                self.graph_nodes += result.n
            elif counts_elements and isinstance(result, tuple):
                self.elements += len(result)
            return result

        return traced

    def summary(self) -> dict:
        """Busy (self) time per layer, inclusive time and calls per function."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child_s[parent] += end - start
        busy = defaultdict(float)
        inclusive = defaultdict(float)
        calls = Counter()
        top_level_s = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            seconds = end - start
            busy[name.partition(".")[0]] += seconds - child_s[i]
            inclusive[name] += seconds
            calls[name] += 1
            if parent < 0:
                top_level_s += seconds
        return {
            "busy_s": dict(busy),
            "inclusive_s": dict(inclusive),
            "calls": dict(calls),
            "top_level_s": top_level_s,
            "graph_nodes": self.graph_nodes,
            "elements": self.elements,
        }


class ClosedFormMemory:
    """Peak memory that ``closed_form`` allocates during one outermost call.

    tracemalloc runs only while a ``closed_form`` function is on the stack,
    so the rest of the program is not slowed or counted.
    """

    def __init__(self, modules, layers):
        self.peak_bytes = 0
        self._depth = 0
        wrappers = {
            fn: self._wrap(fn)
            for layer, _, fn in _public_functions(layers)
            if layer == "closed_form"
        }
        self.patch = _Patch(modules, wrappers)

    def _wrap(self, fn):
        def measured(*args, **kwargs):
            self._depth += 1
            if self._depth == 1:
                tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                if self._depth == 0:
                    self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()

        return measured


def run_cli(main, argv) -> dict:
    """Run one CLI command with its output captured, timed against the host's speed.

    The reference computations run before and after the call, never inside
    it, so that neither their time nor their allocations fall inside it.
    """
    out, err = io.StringIO(), io.StringIO()
    speed_before = refspeed.bracket_speed()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code = None
            err.write(traceback.format_exc())
        raw = time.perf_counter() - start
    speed_after = refspeed.bracket_speed()
    return {
        "code": code,
        "raw_s": raw,
        "scaled_s": refspeed.scaled_seconds(raw, speed_before, speed_after),
        "speeds": [speed_before, speed_after],
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
    }


def serve(requests, replies) -> None:
    package, cli, layers = _import_program()
    modules = [package, cli, *layers.values()]
    tracer = SpanTracer(modules, layers)
    memory = ClosedFormMemory(modules, layers)
    kept = []
    for line in requests:
        request = json.loads(line)
        if "max_rss" in request:
            max_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            replies.write(json.dumps({"max_rss_mb": max_rss_kb / 1024}) + "\n")
            replies.flush()
            continue
        if "finish" in request:
            if request["finish"]:
                with open(request["finish"], "w", encoding="utf-8") as fh:
                    for op, spans in kept:
                        for span in spans:
                            fh.write(json.dumps([op, *span]) + "\n")
            replies.write("{}\n")
            replies.flush()
            return
        mode = request["mode"]
        patch = {"spans": tracer.patch, "malloc": memory.patch}.get(mode)
        tracer.reset()
        memory.peak_bytes = 0
        if patch:
            patch.apply()
        try:
            reply = run_cli(cli.main, request["argv"])
        finally:
            if patch:
                patch.restore()
        if mode == "spans":
            reply["layers"] = tracer.summary()
            if request.get("keep"):
                kept.append((len(kept), tracer.spans))
        elif mode == "malloc":
            reply["closed_form_peak_bytes"] = memory.peak_bytes
        replies.write(json.dumps(reply) + "\n")
        replies.flush()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
