"""A fixed reference load that measures how fast the machine runs Python now.

The benchmark's host is a shared virtual machine whose speed drifts by up to
a factor of two over seconds to minutes. Every timed command is bracketed by
runs of `reference()`, and the times a run measures are rescaled to the
reference speed:

    scaled = measured * NOMINAL_MS / reference_ms

where reference_ms is the median time of all the reference runs made in that
run. The measured times are medians over the run as well, so both average
over the same stretch of time. After a command, reference runs take at
least SHARE of its time, so that the samples spread over the run in
proportion to the time the commands take.

The reference is the benchmark's own code, so a change to the program moves
scaled times exactly as it moves raw ones; a change in machine speed moves
both the commands and the reference and cancels out. The load mixes what
the program does: parsing comma-separated integers, modular arithmetic, dict
lookups on tuple keys, building lists of tuples, sorting and JSON rendering.
"""

from __future__ import annotations

import json
import math
import statistics
import time

# Reference runs before each timed command, and at least as many after it.
REPS = 2
SHARE = 0.1
# The reference speed: the speed at which one reference() call takes
# NOMINAL_MS. Scaled times read as milliseconds at that speed.
NOMINAL_MS = 25.0

_TEXT = ",".join(str((i * 7919) % 30030) for i in range(4000))


def reference() -> int:
    """About 25 ms of mixed pure-Python work on a 2.1 GHz Xeon core."""
    xs = [int(t) for t in _TEXT.split(",")]
    seen: dict[tuple[int, int], int] = {}
    pairs = []
    acc = 0
    for i, x in enumerate(xs * 3):
        key = (x % 97, i % 13)
        seen[key] = seen.get(key, 0) + x
        a, b = x, 30030
        while b:
            a, b = b, a % b
        acc += a
        pairs.append((x * x % 1009, i))
    pairs.sort()
    text = json.dumps({"pairs": pairs[:3000], "acc": acc, "n": len(seen)})
    return len(text)


def time_reference(reps: int = REPS) -> list[float]:
    """Milliseconds of `reps` reference runs."""
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        reference()
        out.append((time.perf_counter() - t0) * 1000.0)
    return out


def reps_after(ms: float) -> int:
    """Reference runs to make after a command that took `ms`."""
    return max(REPS, math.ceil(SHARE * ms / NOMINAL_MS))


def speed_factor(reference_ms: list[float]) -> float:
    """The factor that rescales times measured alongside these reference runs."""
    return NOMINAL_MS / statistics.median(reference_ms)
