"""Runs one pass of a workload: its command lines, in this interpreter, in order.

Reads {"src": DIR, "commands": [[ARG, ...], ...], "trace": BOOL} as JSON on
stdin and calls `zerosum.cli.main(argv)` for each command, with stdout and
stderr captured. Writes one JSON line per command, {"rc", "ms", "ref_ms",
"out", "err"}, then a last line {"maxrss_kb", "trace"}. Latency runs from the
call with argv to the rendered JSON; "ref_ms" holds the times of the
reference runs (reference.py) just before and just after it. With "trace"
set, spans.Tracer wraps the program's layer boundaries first and its summary
is the "trace" value.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback

from reference import reps_after, time_reference

WARMUP = ["solve-cyclic", "--n", "12", "--seq", ",".join(["1"] * 12), "--json"]


def run_command(call, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    rc = None
    gc.collect()
    ref_ms = time_reference()
    gc.collect()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = call(argv)
    except Exception:
        # A crash is one failed command; the pass goes on.
        err.write(traceback.format_exc())
    ms = (time.perf_counter() - t0) * 1000.0
    ref_ms += time_reference(reps_after(ms))
    return {"rc": rc, "ms": ms, "ref_ms": ref_ms, "out": out.getvalue(), "err": err.getvalue()[-4000:]}


def main() -> int:
    task = json.load(sys.stdin)
    sys.path.insert(0, task["src"])
    from zerosum import cli

    run_command(cli.main, WARMUP)
    tracer = None
    call = cli.main
    if task["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

        def call(argv):
            return tracer.call_root(cli.main, argv)

    for argv in task["commands"]:
        sys.stdout.write(json.dumps(run_command(call, argv)) + "\n")
        sys.stdout.flush()
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    summary = tracer.summary() if tracer is not None else None
    sys.stdout.write(json.dumps({"maxrss_kb": maxrss_kb, "trace": summary}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
