"""zerosum benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds `src/zerosum`. The workload's
command list (workloads.py) is built from the seed and run in passes, each
pass in a fresh interpreter (worker.py), one command at a time: a closed
loop with one client. Passes repeat until S seconds have gone, at least one
pass of each kind. Every output is checked by check.py, which does not import
the program. Times are rescaled to a fixed reference speed (reference.py),
so that the drift of a shared machine's speed cancels out.

--trace 0 reports the end-to-end metrics, measured untraced. --trace 1
alternates untraced and traced passes (spans.py) and reports per-layer
metrics, with the traced/untraced overhead. Human-readable detail goes
first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from check import check  # noqa: E402
from reference import NOMINAL_MS, speed_factor, time_reference  # noqa: E402
from workloads import WORKLOADS, FamilyError, argv_digest, build  # noqa: E402

# The run must end well inside 180 s; no pass starts after this.
RUN_LIMIT_S = 170.0
SETUP_LAUNCHES = 9
# Untraced runs run a command that takes longer than this share of --seconds
# only in the first pass, where it is checked but not timed: one sample of a
# long command on a machine whose speed drifts cannot give a steady time. The
# only such command takes about 25 s; the next longest takes about 3 s.
ONCE_SHARE = 0.5
SETUP_CODE = "import sys; sys.path.insert(0, 'src'); import zerosum.cli as c; c.build_parser()"

# Spans predicted to dominate each workload's traced run: together they should
# hold more self time than any module (layer) outside the group.
PREDICTED_DOMINANT = {
    "maxorder-cyclic": ("engine.merge", "engine.init"),  # merges plus placement
    "elementary": ("base_cases", "cli.parse", "cli.render", "cli.main"),
    "planner-adversarial": ("engine.solve",),  # planning: solve_to_root's self time
    "oracle-crosscheck": ("oracle.dp",),
}


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def measure_setup() -> tuple[float, float]:
    """Median time, raw and scaled, of a fresh interpreter importing zerosum.cli and building its parser."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    times, ref_ms = [], []
    for i in range(SETUP_LAUNCHES + 1):
        ref_ms += time_reference()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"cannot import zerosum.cli: {proc.stderr.strip()[-2000:]}")
        if i:  # the first launch also writes bytecode caches
            times.append(elapsed)
    ref_ms += time_reference()
    raw = statistics.median(times)
    return raw, raw * speed_factor(ref_ms)


def run_pass(commands, indices, traced: bool, timeout: float) -> dict:
    """Runs the commands at `indices` in a fresh worker."""
    task = {"src": str(SRC), "commands": [list(commands[i].argv) for i in indices], "trace": traced}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=json.dumps(task),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"a pass did not finish within {timeout:.0f} s") from None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) != len(indices) + 1:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    tail = json.loads(lines[-1])
    return {
        "indices": list(indices),
        "records": [json.loads(line) for line in lines[:-1]],
        "maxrss_kb": tail["maxrss_kb"],
        "trace": tail["trace"],
        "traced": traced,
    }


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def check_passes(commands, passes) -> dict:
    """Check every output; certificates must repeat exactly across passes."""
    attempted = failed = 0
    wrong = False
    problems: list[str] = []
    certs: list[set[str]] = [set() for _ in commands]
    failing: set[int] = set()
    for pas in passes:
        for i, rec in zip(pas["indices"], pas["records"]):
            cmd = commands[i]
            attempted += 1
            verdict, found, cert = check(cmd.argv, cmd.expect_exit, rec["rc"], rec["out"])
            certs[i].add(_digest(cert))
            if verdict != "ok":
                failed += 1
                failing.add(i)
                wrong |= verdict == "wrong"
                err = rec["err"].strip().splitlines()
                note = f" ({err[-1]})" if err else ""
                msg = f"{verdict}: {cmd.argv[0]} {' '.join(cmd.argv[1:3])}: {'; '.join(found)}{note}"
                if msg not in problems:
                    problems.append(msg)
    if any(len(c) > 1 for c in certs):
        wrong = True
        problems.append("wrong: certificates differ between passes over the same inputs")
    return {
        "attempted": attempted,
        "failed": failed,
        "ok_frac": 1.0 - len(failing) / len(commands),
        "correct": not wrong,
        "problems": problems,
        "cert_digest": _digest([sorted(c) for c in certs]),
    }


def wall_s(pas) -> float:
    """Raw wall time of one pass's commands."""
    return sum(r["ms"] for r in pas["records"]) / 1000.0


def passes_factor(passes, once=frozenset()) -> float:
    """Rescales times measured in these passes to the reference speed."""
    return speed_factor([ms for p in passes for i, r in zip(p["indices"], p["records"]) if i not in once
                         for ms in r["ref_ms"]])


def command_medians(passes, once=frozenset(), scaled: bool = True) -> list[float]:
    """Median latency in ms over the passes of each command not in `once`, scaled to the reference speed."""
    factor = passes_factor(passes, once) if scaled else 1.0
    samples: dict[int, list[float]] = {}
    for p in passes:
        for i, r in zip(p["indices"], p["records"]):
            if i not in once:
                samples.setdefault(i, []).append(r["ms"])
    return [factor * statistics.median(samples[i]) for i in sorted(samples)]


def end_to_end(passes, once, setup_s: float, verdicts) -> dict:
    """wall_s is the list's wall time with each command at its median latency,
    which a slow spell of a shared machine moves less than a pass total;
    op_p50_ms is the median of those latencies. Times are scaled to the
    reference speed; the commands in `once` are not timed."""
    medians = command_medians(passes, once)
    n = len(passes[0]["indices"])  # the first pass runs the whole list
    return {
        "wall_s": (sum(medians) / 1000.0, "s"),
        "op_p50_ms": (statistics.median(medians), "ms"),
        "ok_frac": (verdicts["ok_frac"], "fraction"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (statistics.median(p["maxrss_kb"] for p in passes if len(p["indices"]) == n) / 1024.0, "MB"),
    }


def _layer_values(pas) -> dict:
    t = pas["trace"]
    self_ms, incl, calls, eng = t["self_ms"], t["incl_ms"], t["calls"], t["engine"]
    merges = eng["merges"]
    return {
        "cli.parse_ms": (self_ms.get("cli.parse", 0.0), "ms"),
        "cli.render_ms": (self_ms.get("cli.render", 0.0), "ms"),
        "cli.json_bytes": (sum(len(r["out"].encode()) for r in pas["records"]), "bytes"),
        "cli.main_self_ms": (self_ms.get("cli.main", 0.0), "ms"),
        "groups.decompose_ms": (self_ms.get("groups.decompose", 0.0), "ms"),
        "groups.encode_ms": (self_ms.get("groups.encode", 0.0), "ms"),
        "groups.element_order_calls": (calls.get("groups.element_order", 0), "count"),
        "groups.element_order_ms": (self_ms.get("groups.element_order", 0.0), "ms"),
        "groups.add_elements_calls": (calls.get("groups.add_elements", 0), "count"),
        "groups.add_elements_ms": (self_ms.get("groups.add_elements", 0.0), "ms"),
        "lattice.build_ms": (self_ms.get("lattice.build", 0.0), "ms"),
        "lattice.build_calls": (calls.get("lattice.build", 0), "count"),
        "engine.init_self_ms": (self_ms.get("engine.init", 0.0), "ms"),
        "engine.merges": (merges, "count"),
        "engine.merge_self_ms": (self_ms.get("engine.merge", 0.0), "ms"),
        "engine.us_per_merge": (incl.get("engine.merge", 0.0) * 1000.0 / merges if merges else 0.0, "us"),
        "engine.kept_per_consumed": (eng["selected"] / eng["consumed"] if eng["consumed"] else 0.0, "ratio"),
        "engine.useful_merge_frac": (eng["useful"] / merges if merges else 0.0, "fraction"),
        "base_cases.calls": (calls.get("base_cases", 0), "count"),
        "base_cases.vectors": (t["items"]["base_cases.vectors"], "count"),
        "base_cases.ms": (self_ms.get("base_cases", 0.0), "ms"),
        "engine.plan_ms": (self_ms.get("engine.solve", 0.0), "ms"),
        "engine.fallback_ops": (eng["fallback"], "count"),
        "engine.trivial_ops": (eng["trivial"], "count"),
        "engine.certify_ms": (self_ms.get("engine.certify", 0.0), "ms"),
        "oracle.dp_calls": (calls.get("oracle.dp", 0), "count"),
        "oracle.dp_items": (t["items"]["oracle.dp_items"], "count"),
        "oracle.dp_ms": (self_ms.get("oracle.dp", 0.0), "ms"),
    }


def per_layer(untraced, traced, out_lines: list[str], workload: str) -> tuple[dict, bool]:
    """Medians over traced passes; counts must repeat exactly across them."""
    per_pass = [_layer_values(p) for p in traced]
    counts = [{k: v for k, (v, unit) in vals.items() if unit != "ms" and unit != "us"} for vals in per_pass]
    counts_repeat = all(c == counts[0] for c in counts)
    metrics = {
        name: (counts[0][name] if name in counts[0] else statistics.median(v[name][0] for v in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    overhead = sum(command_medians(traced)) / sum(command_medians(untraced)) - 1
    metrics["trace.overhead_frac"] = (overhead, "fraction")

    self_ms: dict[str, list[float]] = {}
    for p in traced:
        for layer, ms in p["trace"]["self_ms"].items():
            self_ms.setdefault(layer, []).append(ms)
    med = {layer: statistics.median(v) for layer, v in self_ms.items()}
    total = sum(med.values()) or 1.0
    out_lines.append(f"per-layer self time, median of {len(traced)} traced passes "
                     f"(trace.overhead_frac {overhead:.3f}):")
    for layer, ms in sorted(med.items(), key=lambda kv: -kv[1]):
        out_lines.append(f"  {layer:24s} {ms:11.2f} ms  {100 * ms / total:5.1f}%")
    predicted = PREDICTED_DOMINANT[workload]
    by_module: dict[str, float] = {}
    for layer, ms in med.items():
        if layer not in predicted:
            module = layer.split(".")[0]
            by_module[module] = by_module.get(module, 0.0) + ms
    group = sum(med.get(layer, 0.0) for layer in predicted)
    rival = max(by_module, key=by_module.get)
    verdict = "matches" if group > by_module[rival] else "DOES NOT MATCH"
    out_lines.append(f"predicted dominant {' + '.join(predicted)}: {100 * group / total:.1f}% of self time; "
                     f"largest other layer {rival}: {100 * by_module[rival] / total:.1f}%; {verdict}")
    out_lines.append(f"engine counter digest: {_digest(counts[0])}"
                     f" ({'repeats' if counts_repeat else 'DIFFERS'} across traced passes)")
    t = traced[0]["trace"]
    for target in t["absent"]:
        out_lines.append(f"trace target absent: {target}")
    for note in t["notes"]:
        out_lines.append(f"trace note: {note}")
    return metrics, counts_repeat


def recorded_digest(workload: str, seed: int) -> str | None:
    with open(HERE / "argv_digests.json", encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def measure(commands, args, started: float, lines: list[str]) -> tuple[list, list, frozenset]:
    """Runs untraced (and with --trace 1, alternately traced) passes until --seconds have gone.

    Returns the untraced and traced passes and the indices of the commands
    that ran only in the first pass.
    """
    untraced, traced = [], []
    everything = range(len(commands))
    repeat, once_s = everything, 0.0
    measure_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - measure_start - once_s
        have_all = untraced and (traced or not args.trace)
        if have_all and not repeat:
            break
        if have_all and elapsed >= args.seconds:
            break
        slowest = max((wall_s(p) for p in untraced + traced), default=0.0)
        remaining = RUN_LIMIT_S - (time.perf_counter() - started)
        if have_all and 1.5 * slowest > remaining:
            lines.append(f"stopped after {elapsed:.1f} s: another pass would overrun the run limit")
            break
        want_traced = bool(args.trace) and len(traced) < len(untraced)
        indices = repeat if untraced and not args.trace else everything
        pas = run_pass(commands, indices, want_traced, timeout=max(remaining, 1.0))
        (traced if want_traced else untraced).append(pas)
        if len(untraced) == 1 and not traced and not args.trace:
            # A command longer than a share of the measuring time runs once;
            # its time does not count against the measuring time.
            long_ms = ONCE_SHARE * args.seconds * 1000.0
            repeat = [i for i, r in zip(pas["indices"], pas["records"]) if r["ms"] <= long_ms]
            once_s = sum(r["ms"] for r in pas["records"] if r["ms"] > long_ms) / 1000.0
    return untraced, traced, frozenset(everything) - frozenset(repeat)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "zerosum" / "cli.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'zerosum' / 'cli.py'} is missing")

    commands = build(args.workload, args.seed)
    digest = argv_digest(commands)
    expected = recorded_digest(args.workload, args.seed)
    if expected is not None and expected != digest:
        raise BenchError(f"inputs for seed {args.seed} changed: digest {digest}, recorded {expected}")
    lines = [f"workload {args.workload}, seed {args.seed}: {len(commands)} commands, argv digest {digest}"
             + ("" if expected is None else " (matches the recorded digest)")]

    setup_raw_s, setup_s = (None, None) if args.trace else measure_setup()
    untraced, traced, once = measure(commands, args, started, lines)

    verdicts = check_passes(commands, untraced + traced)
    lat = sorted(r["ms"] for p in untraced for r in p["records"])
    ref = [ms for p in untraced for r in p["records"] for ms in r["ref_ms"]]
    lines.append(f"{len(untraced)} untraced and {len(traced)} traced passes; "
                 f"untraced raw wall per pass: {', '.join(f'{wall_s(p):.3f}' for p in untraced)} s")
    lines.append(f"raw command latency over {len(lat)} untraced commands: "
                 f"p50 {statistics.median(lat):.1f} ms, max {lat[-1]:.1f} ms")
    lines.append(f"reference: {len(ref)} runs, median {statistics.median(ref):.2f} ms, nominal {NOMINAL_MS:.2f} ms, "
                 f"quartiles {', '.join(f'{q:.2f}' for q in statistics.quantiles(ref, n=4))} ms")
    if setup_s is not None:
        lines.append(f"setup: raw median {setup_raw_s:.4f} s, scaled {setup_s:.4f} s")
    medians = command_medians(untraced, once)
    raw_medians = command_medians(untraced, once, scaled=False)
    lines.append(f"unscaled: wall_s {sum(raw_medians) / 1000.0:.4f} s, op_p50_ms {statistics.median(raw_medians):.2f} ms")
    lines.append("per-command median scaled latency: " + ", ".join(f"{ms:.1f}" for ms in medians) + " ms")
    for i in sorted(once):
        lines.append(f"command {i + 1} ran once and is not timed: {untraced[0]['records'][i]['ms']:.1f} ms unscaled")
    lines.append(f"certificate digest {verdicts['cert_digest']} (reported, not gated)")
    lines.extend(verdicts["problems"])

    correct = verdicts["correct"]
    if args.trace:
        metrics, counts_repeat = per_layer(untraced, traced, lines, args.workload)
        correct = correct and counts_repeat
    else:
        metrics = end_to_end(untraced, once, setup_s, verdicts)
    for line in lines:
        print(line)
    result = {
        "correct": correct,
        "attempted": verdicts["attempted"],
        "failed": verdicts["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # On SIGTERM, unwind so that subprocess.run kills and waits for the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except (BenchError, FamilyError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
