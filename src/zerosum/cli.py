"""Command-line front end: solver, verifier, and oracles with stable JSON output.

Output contract: human-readable text by default, `--json` switches to a fixed
key order so identical invocations are byte-identical. Timing is text-only.
Exit codes: 0 pass, 1 infeasible or verification failure, 2 malformed input,
3 internal invariant violation (a bug, never an infeasible input).
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import struct
import sys
import time
from bisect import bisect_left
from itertools import accumulate, chain
from json.encoder import encode_basestring_ascii
from operator import mod
from typing import Any, Iterable, NamedTuple, Sequence

from .engine import MoveLog, extract_certificate, initial_configuration, solve_to_root, verify_certificate
from .errors import EXIT_FAIL, EXIT_INPUT_ERROR, EXIT_INTERNAL_ERROR, EXIT_PASS, InputError, InternalInvariantError
from .groups import PrimaryDecomposition, encode_sequence, parse_group_spec, parse_ints, primary_decomposition, residues
from .lattice import build_lattice
from .oracle import (
    check_dp_work, davenport_constant, dp_min_cost_zero_sum, lattice_graph, path_graph, pebbling_number, solvable,
    weighted_boolean_cube,
)

MASK64 = (1 << 64) - 1
LANES = 256  # draws one SplitMix64.draw block computes together, in 4 KiB ints
STRESS_BLOCK = 1 << 12  # coordinates (trials x |G| x rank) `stress` draws and encodes together, at least one trial
# Elements one stress run draws and solves, trials x |G|: 3 trials of Z_2^18 took 8.8-10.6 s (2-core x86_64 VM).
MAX_STRESS_ELEMENTS = 1_000_000
# |G| of a solve: peaks take about 194 bytes per element at rank 1 (2 GB at the bound), 320 on Z_2^18 (18 a coordinate).
MAX_SOLVE_ELEMENTS = 10_000_000
WRITE_BLOCK = 1 << 16  # characters per write of a report to stdout, and the most in one rendered piece of an echo or int list
DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))  # b"7".translate(DIGIT_VALUES) == b"\x07"


class SplitMix64:
    """SplitMix64 generator (Steele, Lea, and Flood's 2014 mixer).

    state = (state + 0x9E3779B97F4A7C15) mod 2^64, then the output is the
    state passed through two xor-shift multiplies:
    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
    z *= 0x94D049BB133111EB; z ^= z >> 31.
    A draw below n is that output mod n and advances the state exactly once,
    so stress runs replay identically for a given seed across platforms.
    `draw` steps up to LANES states at once as the 128-bit lanes of one int:
    each shift is masked to the lanes' low 64 bits, and a product of two
    64-bit values fits its lane.
    """

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def draw(self, moduli: Sequence[int]) -> list[int]:
        """A draw below n for each n in `moduli`, in order: the values and state of one step per draw."""
        state, out = self.state, []
        for lo in range(0, len(moduli), LANES):
            ones, steps, mask = _lanes(n := min(LANES, len(moduli) - lo))
            z = (state * ones + steps) & mask
            z = ((z ^ z >> 30) & mask) * 0xBF58476D1CE4E5B9 & mask
            z = ((z ^ z >> 27) & mask) * 0x94D049BB133111EB & mask
            lows = struct.unpack(f"<{2 * n}Q", ((z ^ z >> 31) & mask).to_bytes(16 * n, "little"))[::2]
            out += map(mod, lows, moduli[lo:lo + n])
            state = (state + 0x9E3779B97F4A7C15 * n) & MASK64
        self.state = state
        return out


@functools.lru_cache(maxsize=4)
def _lanes(n: int) -> tuple[int, int, int]:
    """`SplitMix64.draw`'s constants for n lanes: lane i holds 1, (i + 1) * 0x9E3779B97F4A7C15 and 2^64 - 1."""
    ones = int.from_bytes((b"\x01" + bytes(15)) * n, "little")
    steps = b"".join([(i * 0x9E3779B97F4A7C15).to_bytes(16, "little") for i in range(1, n + 1)])
    return ones, int.from_bytes(steps, "little"), ones * MASK64


class RunReport(NamedTuple):
    """Everything one command run produced. `main` adds the command name to
    the JSON and the elapsed time to the text only."""

    inputs: dict[str, Any]
    results: dict[str, Any]
    lines: list[str]
    exit_code: int = EXIT_PASS
    moves: MoveLog | None = None


def parse_raw_sequence(value: str, rank: int, from_file: bool = False, flat: bool = False) -> tuple[bytes | list, list | None]:
    """The coordinates of every element, laid end to end, and the echo's
    texts or None, from inline text or from the file named by `value` if
    from_file; flat marks solve-cyclic's integer form (rank 1), whose rank
    error names the part.

    Files hold one comma-separated tuple per line (blank lines skipped).
    Inline text separates elements with ';'; for rank-1 groups plain commas
    also work. Single ASCII digits, each separator where the rank puts it
    (one newline may end a file), are read as one bytes; else a text whose
    separators alone make rows is read by one json.loads, if it holds `rank`
    ints a row. Either way a text without JSON whitespace or "-0" is its own
    texts (';' between elements); else the echo spells the ints. Otherwise
    each part is read alone, blanks skipped, the first bad part named, then
    the first part of another length. A file that cannot be opened or is not
    UTF-8 is an InputError.
    """
    if from_file:
        try:
            with open(value, encoding="utf-8") as fh:
                body = fh.read().removesuffix("\n")
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read sequence file {value!r}: {exc}") from None
        sep = "\n"
    else:
        body = value.strip()
        if not body:
            raise InputError("empty sequence")
        sep = ";" if ";" in body or rank > 1 else ","
    texts = [body if sep == ";" else body.replace(sep, ";")]  # if canonical: its elements' texts
    k = (len(body) + 1) // (2 * rank)  # elements, if all are single digits: the separators then fix len(body)
    if k and body.isascii() and body[1::2] == (("," * (rank - 1) + sep) * k)[:-1] and (digits := body[::2]).isdigit():
        return digits.encode().translate(DIGIT_VALUES), texts
    if "[" not in body and (rank > 1 or sep == "," or "," not in body):  # so only separators make rows
        src = f"[{body.replace(sep, ',')}]" if rank == 1 else f"[[{body.replace(sep, '],[')}]]"
        try:
            rows = json.loads(src)
        except ValueError:  # without '[' nothing nests, so nothing recurses
            rows = []
        ints = rows if rank == 1 else list(chain.from_iterable(rows))
        if set(map(type, ints)) == {int} and (rank == 1 or set(map(len, rows)) == {rank}):
            return ints, None if "-0" in src or any(map(src.__contains__, " \t\n\r")) else texts
    parts = [p for p in map(str.strip, body.splitlines() if from_file else body.split(sep)) if p]
    if not parts:
        raise InputError("sequence has no elements")
    out = []
    for part in parts:
        try:
            out.append(list(map(int, map(str.strip, part.split(",")))))
        except ValueError:
            raise InputError(f"bad element {part!r} in sequence") from None
    wrong = next((r for r in out if len(r) != rank), None)
    if wrong is not None:
        raise InputError(f"cyclic sequence elements are single integers, got {wrong}" if flat
                         else f"element needs {rank} coordinates for this group, got {len(wrong)}")
    return list(chain.from_iterable(out)), None


class SequenceEcho(NamedTuple):
    """A sequence's JSON echo from canonical element texts ("3,0,1"), read once: its rows, or its ints if flat."""

    texts: Iterable[str]
    flat: bool = False


def sequence_argument(args, rank: int, flat: bool = False) -> tuple[bytes | list[int], SequenceEcho | None]:
    """The sequence of --seq or --seq-file, and under --json its echo (else None): the parser's texts, or the ints'."""
    from_file = args.seq_file is not None
    ints, texts = parse_raw_sequence(args.seq_file if from_file else args.seq, rank, from_file, flat)
    return ints, SequenceEcho(texts or map(",".join, zip(*[iter(map(str, ints))] * rank)), flat) if args.json else None


def parse_indices(value: str) -> list[int]:
    return parse_ints([t.strip() for t in value.split(",") if t.strip()], "bad index {!r}")


def _group_label(dec: PrimaryDecomposition) -> str:
    return "Z(" + ")+Z(".join(str(n) for n in dec.spec.cyclic_orders) + ")"


def _solve_group(text: str) -> PrimaryDecomposition:
    """The group of a solve, refused before its sequence is read if |G| is above MAX_SOLVE_ELEMENTS."""
    dec = primary_decomposition(parse_group_spec(text))
    if dec.group_order > MAX_SOLVE_ELEMENTS:
        raise InputError(f"a solve reads |G| = {dec.group_order} elements, above the bound {MAX_SOLVE_ELEMENTS}")
    return dec


def _solve_sequence(dec: PrimaryDecomposition, cols, lattice=None):
    conf = initial_configuration(dec, cols, lattice=lattice)
    return conf, extract_certificate(solve_to_root(conf), dec, cols)


def cmd_solve(args) -> RunReport:
    dec = _solve_group(args.group)
    ints, echo = sequence_argument(args, rank := dec.spec.rank)
    conf, cert = _solve_sequence(dec, encode_sequence([ints[f::rank] for f in range(rank)], dec))
    results = {
        "group_order": dec.group_order,
        "exponent": dec.exponent,
        "indices": list(cert.indices),
        "sum_is_zero": True,
        "ord_cost": cert.ord_cost,
        "bound": cert.bound,
        "length_bound_ok": True,
    }
    lines = [
        f"group {_group_label(dec)}: |G|={dec.group_order}, N={dec.exponent}",
        f"K = {list(cert.indices)}",
        "sum over K: identity",
        f"order cost: {cert.ord_cost}/{cert.bound} (reciprocal sum <= 1)",
        f"moves applied: {len(conf.move_log)}, fallback fired: {'yes' if conf.fallback_fired else 'no'}",
        "verify: PASS",
    ]
    return _solve_report({"group": args.group, "sequence": echo}, results, lines, conf, args)


def _solve_report(inputs, results, lines: list[str], conf, args) -> RunReport:
    """A verified solve's report: the move counters end its results, and
    --trace adds the move log to the JSON, or under text output to the text."""
    results.update(moves_applied=len(conf.move_log), fallback_fired=conf.fallback_fired, verified=True)
    if args.trace and not args.json:
        lines += ["trace:"] + [f"  at divisor {d}: consume {len(c)} pebbles {list(c)} (weight {w}, prime {p}), "
                               f"keep {list(s)} -> pebble {q}" for d, p, w, c, s, q in conf.move_log]
    return RunReport(inputs, results, lines, moves=conf.move_log if args.trace and args.json else None)


def cmd_solve_cyclic(args) -> RunReport:
    if args.n < 1:
        raise InputError(f"modulus must be positive, got {args.n}")
    dec = _solve_group(str(args.n))
    integers, echo = sequence_argument(args, 1, flat=True)
    conf, cert = _solve_sequence(dec, [residues(integers, args.n)])
    gcd_terms = [math.gcd(integers[k - 1], args.n) for k in cert.indices]
    if sum(gcd_terms) != cert.ord_cost:
        raise InternalInvariantError(f"gcd form disagrees with the order-cost form: {conf.context()}")
    residue_sum = sum(integers[k - 1] for k in cert.indices) % args.n
    if residue_sum:
        raise InternalInvariantError(f"certificate indices do not sum to 0 mod n: {conf.context()}")
    results = {
        "n": args.n,
        "indices": list(cert.indices),
        "residue_sum_mod_n": residue_sum,
        "gcd_terms": gcd_terms,
        "gcd_sum": sum(gcd_terms),
        "bound": args.n,
    }
    lines = [
        f"group Z({args.n})",
        f"K = {list(cert.indices)}",
        f"sum over K: 0 (mod {args.n})",
        f"gcd terms: {gcd_terms}, sum {sum(gcd_terms)} <= {args.n}",
        "verify: PASS",
    ]
    return _solve_report({"n": args.n, "sequence": echo}, results, lines, conf, args)


def cmd_verify(args) -> RunReport:
    dec = primary_decomposition(parse_group_spec(args.group))
    ints, echo = sequence_argument(args, rank := dec.spec.rank)
    indices = parse_indices(args.indices)
    verdict = verify_certificate(dec, encode_sequence([ints[f::rank] for f in range(rank)], dec), indices)
    return RunReport(
        inputs={"group": args.group, "sequence": echo, "indices": indices},
        results={"indices": indices, "passed": verdict.passed, "failures": list(verdict.failures)},
        lines=[f"K = {indices}", f"verify: {'PASS' if verdict.passed else 'FAIL'}"]
        + [f"  {f}" for f in verdict.failures],
        exit_code=EXIT_PASS if verdict.passed else EXIT_FAIL,
    )


def cmd_oracle(args) -> RunReport:
    dec = primary_decomposition(parse_group_spec(args.group))
    check_dp_work(dec, 1)  # |G| > MAX_DP_WORK puts every input over the bound: refused unread
    ints, echo = sequence_argument(args, rank := dec.spec.rank)
    check_dp_work(dec, len(ints) // rank)  # and the length, before any encoding
    result = dp_min_cost_zero_sum(dec, encode_sequence([ints[f::rank] for f in range(rank)], dec))
    if result.feasible:
        lines = [
            f"min order cost: {result.min_cost}/{dec.exponent}",
            f"witness K = {list(result.indices)}",
            f"qualifies (cost <= {dec.exponent}): {'yes' if result.qualifies else 'no'}",
        ]
    else:
        lines = ["infeasible: no nonempty zero-sum subsequence"]
    return RunReport(
        inputs={"group": args.group, "sequence": echo},
        results={
            "feasible": result.feasible,
            "min_cost": result.min_cost,
            "witness": list(result.indices),
            "qualifies": result.qualifies,
            "bound": dec.exponent,
        },
        lines=lines,
        exit_code=EXIT_PASS if result.feasible else EXIT_FAIL,
    )


def parse_graph_argument(text: str):
    kind, sep, rest = text.partition(":")
    if not sep or not rest.strip():
        raise InputError(f"graph spec {text!r} is not kind:args")
    if kind == "lattice":
        return lattice_graph(primary_decomposition(parse_group_spec(rest)))
    if kind not in ("cube", "path"):
        raise InputError(f"unknown graph kind {kind!r}; use cube:, path:, or lattice:")
    weights = parse_ints(rest.split(","), "bad weight {!r} in graph spec")
    return weighted_boolean_cube(weights) if kind == "cube" else path_graph(weights)


def cmd_pebbling_number(args) -> RunReport:
    graph = parse_graph_argument(args.graph)
    result = pebbling_number(graph)
    if solvable(graph, result.witness, result.witness_target):
        raise InternalInvariantError(f"pebbling witness is solvable; scan is broken: graph {graph.name}, "
                                     f"witness {list(result.witness)}, target {result.witness_target}")
    return RunReport(
        inputs={"graph": args.graph},
        results={
            "graph": graph.name,
            "vertices": graph.num_vertices,
            "edges": len(graph.edges),
            "pebbling_number": result.number,
            "witness_distribution": list(result.witness),
            "witness_target": result.witness_target,
            "witness_unsolvable": True,
        },
        lines=[
            f"graph {graph.name}: {graph.num_vertices} vertices, {len(graph.edges)} edges",
            f"pebbling number: {result.number}",
            f"witness: {list(result.witness)} cannot reach vertex {result.witness_target}",
        ],
    )


def cmd_stress(args) -> RunReport:
    if args.trials < 0:
        raise InputError(f"trial count must be nonnegative, got {args.trials}")
    if args.oracle_limit < 0:
        raise InputError(f"oracle limit must be nonnegative, got {args.oracle_limit}")
    dec = primary_decomposition(parse_group_spec(args.group))
    if args.trials * dec.group_order > MAX_STRESS_ELEMENTS:
        raise InputError(
            f"stress draws trials x |G| = {args.trials} x {dec.group_order} elements, "
            f"above the bound {MAX_STRESS_ELEMENTS}"
        )
    if args.trials > 0 and args.oracle_limit > 0:
        check_dp_work(dec, dec.group_order)
    lattice, tables = build_lattice(dec), {}  # one lattice, and the DP's shift tables, for every trial
    rng = SplitMix64(args.seed)
    failures: list[str] = []
    fallback_count = 0
    total_moves = 0
    oracle_checked = min(args.trials, args.oracle_limit)  # the leading trials
    orders, rank, size = dec.spec.cyclic_orders, dec.spec.rank, dec.group_order
    per = max(1, STRESS_BLOCK // (size * rank))  # trials a block holds
    for trial in range(args.trials):
        if trial % per == 0:  # row-major: |G| elements of rank coordinates a trial, trials end to end
            draws = rng.draw(orders * (size * min(per, args.trials - trial)))
            block = encode_sequence([draws[f::rank] for f in range(rank)], dec)
        cols = [col[(at := trial % per * size):at + size] for col in block]
        conf, cert = _solve_sequence(dec, cols, lattice=lattice)
        fallback_count += 1 if conf.fallback_fired else 0
        total_moves += len(conf.move_log)
        if trial < oracle_checked:
            oracle = dp_min_cost_zero_sum(dec, cols, cert.ord_cost, tables)  # exact unless it matches the certificate
            if not oracle.feasible or not oracle.qualifies:
                failures.append(f"trial {trial}: oracle found no qualifying subsequence")
            elif cert.ord_cost < oracle.min_cost:
                failures.append(f"trial {trial}: certificate cost {cert.ord_cost} "
                                f"below the oracle minimum {oracle.min_cost}")
    passed = args.trials - len(failures)
    return RunReport(
        inputs={
            "group": args.group,
            "trials": args.trials,
            "seed": args.seed,
            "oracle_limit": args.oracle_limit,
        },
        results={
            "trials": args.trials,
            "passed": passed,
            "failed": len(failures),
            "failures": failures[:10],
            "oracle_checked": oracle_checked,
            "fallback_fired": fallback_count,
            "total_moves": total_moves,
        },
        lines=[
            f"group {_group_label(dec)}: {args.trials} trials, seed {args.seed}",
            f"passed {passed}/{args.trials}, oracle cross-checked {oracle_checked}",
            f"fallback fired in {fallback_count} trials, {total_moves} moves total",
        ]
        + [f"  {f}" for f in failures[:10]],
        exit_code=EXIT_PASS if not failures else EXIT_FAIL,
    )


def cmd_davenport(args) -> RunReport:
    dec = primary_decomposition(parse_group_spec(args.group))
    value = davenport_constant(dec, weighted=args.weighted)
    kind = "weighted Davenport constant" if args.weighted else "Davenport constant"
    return RunReport(
        inputs={"group": args.group, "weighted": args.weighted},
        results={"group_order": dec.group_order, "weighted": args.weighted, "davenport": value},
        lines=[f"group {_group_label(dec)}: {kind} = {value}"],
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing only fills a new
    Namespace, and no argument has a mutable default."""
    parser = argparse.ArgumentParser(
        prog="zerosum",
        description="Zero-sum subsequences with bounded order-reciprocal sum, "
        "by pebbling the divisor lattice; plus brute-force oracles.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p, func):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(func=func)

    def sequence(p, what="elements"):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--seq", help=f"{what}, inline")
        src.add_argument("--seq-file", help=f"{what}, one per line in a file")

    p = sub.add_parser("solve", help="find and verify a bounded zero-sum subsequence")
    p.add_argument("--group", required=True, help="cyclic factor orders, e.g. 9,3")
    sequence(p)
    p.add_argument("--trace", action="store_true", help="include the move log")
    common(p, cmd_solve)

    p = sub.add_parser("solve-cyclic", help="integer form over Z_n with gcd costs")
    p.add_argument("--n", required=True, type=int, help="modulus")
    sequence(p, "n integers")
    p.add_argument("--trace", action="store_true", help="include the move log")
    common(p, cmd_solve_cyclic)

    p = sub.add_parser("verify", help="check a claimed index set independently")
    p.add_argument("--group", required=True)
    sequence(p)
    p.add_argument("--indices", required=True, help="1-based, comma separated")
    common(p, cmd_verify)

    p = sub.add_parser("oracle", help="exact minimum order cost by dynamic programming")
    p.add_argument("--group", required=True)
    sequence(p, "elements, any number")
    common(p, cmd_oracle)

    p = sub.add_parser("pebbling-number", help="exact pebbling number of a small graph")
    p.add_argument("--graph", required=True, help='"cube:w1,..", "path:w1,..", or "lattice:SPEC"')
    common(p, cmd_pebbling_number)

    p = sub.add_parser("stress", help="randomized solve/verify/oracle battery")
    p.add_argument("--group", required=True)
    p.add_argument("--trials", required=True, type=int)
    p.add_argument("--seed", type=int, default=0, help="SplitMix64 seed")
    p.add_argument(
        "--oracle-limit",
        type=int,
        default=50,
        help="cross-check at most this many leading trials against the DP oracle",
    )
    common(p, cmd_stress)

    p = sub.add_parser("davenport", help="Davenport constant by multiset search")
    p.add_argument("--group", required=True)
    p.add_argument("--weighted", action="store_true", help="require cost within the budget")
    common(p, cmd_davenport)

    return parser


def _render(value: Any, indent: str, out: list[str]) -> None:
    """Appends the text of `json.dumps(value, indent=2)` at `indent` to `out`, for a
    report (str keys only), a `SequenceEcho` as its list of rows (of ints, if flat) and
    a `MoveLog` as its `MoveRecord`s' dicts, in chunks that no wrapper copies. A dict
    is its keys around its values' chunks, a non-empty list or tuple of plain ints a
    flat `SequenceEcho` of their texts, a `MoveLog` one %-format per move (consumed
    and selected ids are never empty), any other list or tuple its items' chunks, and
    any other value goes to `json.dumps`. A `SequenceEcho` is its texts joined by ';',
    cut every `step` characters, each piece made rows by two `str.replace` calls. They
    act per character, so a cut anywhere gives the same text, and a character grows at
    most len(between)-fold, so a piece is at most WRITE_BLOCK characters (one
    character's growth if WRITE_BLOCK is less)."""
    inner = indent + "  "
    if isinstance(value, (list, tuple)) and set(map(type, value)) == {int}:  # so not empty; one scan
        value = SequenceEcho(map(str, value), flat=True)
    if type(value) is SequenceEcho:  # never empty; a flat one is one row at `indent`, and its texts hold no ','
        start, end = (f"\n{inner}", "") if value.flat else (f"\n{inner}[\n{inner}  ", f"\n{inner}]")  # a row's
        text, between = ";".join(value.texts), f"{end},{start}"
        out.append(f"[{start}")
        for pos in range(0, len(text), step := max(WRITE_BLOCK // len(between), 1)):
            out.append(text[pos : pos + step].replace(",", f",\n{inner}  ").replace(";", between))
        out.append(f"{end}\n{indent}]")
    elif type(value) is MoveLog:  # a move's template is made once per count of consumed and selected ids
        key, ids, forms = f"\n{inner}  ", f",\n{inner}    ".join, {}
        for n, (d, p, w, c, s, q) in enumerate(value):
            if (counts := (len(c), len(s))) not in forms:
                forms[counts] = (f'%s\n{inner}{{{key}"vertex_divisor": %d,{key}"prime": %d,{key}"weight": %d,'
                                 f'{key}"consumed": [\n{inner}    {ids(["%d"] * len(c))}{key}],{key}"selected": [\n'
                                 f'{inner}    {ids(["%d"] * len(s))}{key}],{key}"new_id": %d\n{inner}}}')
            out.append(forms[counts] % ("," if n else "[", d, p, w, *c, *s, q))
        out.append(f"\n{indent}]" if value else "[]")
    elif isinstance(value, dict) and value:
        for n, (k, v) in enumerate(value.items()):
            out.append(f"{',' if n else '{'}\n{inner}{encode_basestring_ascii(k)}: ")
            _render(v, inner, out)
        out.append(f"\n{indent}}}")
    elif isinstance(value, (list, tuple)) and value:
        for n, x in enumerate(value):
            out.append(f"{',' if n else '['}\n{inner}")
            _render(x, inner, out)
        out.append(f"\n{indent}]")
    else:
        out.append(json.dumps(value))


def write_chunks(chunks: list[str]) -> None:
    """Writes `chunks` to stdout in pieces: the chunks up to the one that brings a
    piece to WRITE_BLOCK characters, but a chunk that long alone, uncopied."""
    ends, start = list(accumulate(map(len, chunks), initial=0)), 0  # ends[k]: characters before chunk k
    while start < len(chunks):
        stop = min(bisect_left(ends, ends[start] + WRITE_BLOCK, start + 1), len(chunks))
        stop -= stop - start > 1 and ends[stop] - ends[stop - 1] >= WRITE_BLOCK
        sys.stdout.write("".join(chunks[start:stop]))
        start = stop


def main(argv=None) -> int:
    # A command leaves no reference cycles: the argument parser, which holds
    # some, is built once per process and kept, the merge tree, the elements
    # and the report hold none, and the recursive searches are module-level
    # functions, not closures that call themselves (an argument error or
    # --help leaves argparse's help formatter, a fixed few dozen objects).
    # So the cyclic collector would only rescan live objects; reference
    # counting frees the rest. The caller's setting is restored.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return EXIT_PASS if exc.code in (0, None) else EXIT_INPUT_ERROR
        started = time.perf_counter()
        try:
            report = args.func(args)
        except InputError as exc:
            print(f"input error: {exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR
        except InternalInvariantError as exc:
            print(f"internal invariant violation: {exc}", file=sys.stderr)
            return EXIT_INTERNAL_ERROR
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        try:
            if args.json:
                envelope = {"command": args.cmd, "inputs": report.inputs, "results": report.results}
                if report.moves is not None:
                    envelope["moves"] = report.moves
                envelope["exit_code"] = report.exit_code
                _render(envelope, "", chunks := [])
                chunks.append("\n")
            else:
                chunks = [line + "\n" for line in report.lines] + [f"elapsed {elapsed_ms:.1f} ms\n"]
            write_chunks(chunks)
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader stopped early (`| head`); drop the rest of the output
            # and keep the interpreter's final flush from failing again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return report.exit_code
    finally:
        if gc_was_enabled:
            gc.enable()


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
