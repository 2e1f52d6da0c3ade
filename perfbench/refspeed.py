"""Reference computation that tracks the speed of the host.

The benchmark runs on shared machines whose speed drifts in phases that
last from a fraction of a second to several seconds: the same computation
can take 1.7 times as long from one phase to the next.  Every timed
operation is bracketed by a fixed pure-Python reference computation, run
outside the operation, and its time is scaled by the mean of the speeds
measured before and after it, so that it is reported in seconds of a nominal
host on which one reference computation takes exactly ``NOMINAL_S``.

This module imports nothing but ``time``, so that a freshly started
interpreter can load it without a cost worth timing.
"""

from __future__ import annotations

import time

# One reference computation at nominal speed.
NOMINAL_S = 0.002
# Reference computations run back to back before and after an operation;
# odd, so that their median is one of them.
BRACKET_RUNS = 5

_ITERATIONS = 3_000
_VALUES = 3_000


def reference_work() -> int:
    """A fixed mix of the interpreter work the workloads do.

    A loop of integer arithmetic, list indexing and dict updates, as in BFS
    sweeps; then building, formatting, joining and sorting a few thousand
    fresh objects, as in the closed forms and the report output.  The second
    part tracks the phases in which allocation-heavy code slows more than a
    tight loop does.  Returns a checksum so nothing is optimised away.
    """
    counts = [0] * 512
    seen = {}
    x = 1
    for i in range(_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        j = x & 511
        counts[j] += 1
        if counts[j] == 1:
            seen[j] = i
    values = [(i * 7919) % 100_003 for i in range(_VALUES)]
    text = " ".join([str(v) for v in values])
    values.sort(reverse=True)
    return len(text.split()) + len(seen) + sum(counts) + values[0]


def bracket_speed() -> float:
    """Nominal seconds per real second, from a few reference runs now.

    The median of several short runs ignores a run that the scheduler
    interrupted.
    """
    durations = []
    for _ in range(BRACKET_RUNS):
        start = time.perf_counter()
        reference_work()
        durations.append(time.perf_counter() - start)
    return NOMINAL_S / sorted(durations)[BRACKET_RUNS // 2]


def scaled_seconds(raw: float, speed_before: float, speed_after: float) -> float:
    """Nominal seconds of an operation that took ``raw`` real seconds."""
    return raw * (speed_before + speed_after) / 2
