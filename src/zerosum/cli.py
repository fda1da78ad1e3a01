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
import sys
import time
from json.encoder import encode_basestring_ascii
from typing import Any, NamedTuple, Sequence

from .engine import (
    extract_certificate,
    initial_configuration,
    solve_to_root,
    verify_certificate,
)
from .errors import (
    EXIT_FAIL,
    EXIT_INPUT_ERROR,
    EXIT_INTERNAL_ERROR,
    EXIT_PASS,
    InputError,
    InternalInvariantError,
)
from .groups import (
    PrimaryDecomposition,
    elements_from_coords,
    encode_sequence,
    parse_group_spec,
    primary_decomposition,
)
from .lattice import build_lattice
from .oracle import (
    check_dp_work,
    davenport_constant,
    dp_min_cost_zero_sum,
    lattice_graph,
    path_graph,
    pebbling_number,
    solvable,
    weighted_boolean_cube,
)

MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 generator (Steele, Lea, and Flood's 2014 mixer).

    state = (state + 0x9E3779B97F4A7C15) mod 2^64, then the output is the
    state passed through two xor-shift multiplies:
    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
    z *= 0x94D049BB133111EB; z ^= z >> 31.
    below(n) is next64() mod n; every draw advances the state exactly once,
    so stress runs replay identically for a given seed across platforms.
    """

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def draw(self, moduli: Sequence[int]) -> list[int]:
        """next64() mod n for each n in `moduli`, in order, with the step inlined."""
        state, out = self.state, []
        for n in moduli:
            state = (state + 0x9E3779B97F4A7C15) & MASK64
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
            out.append((z ^ (z >> 31)) % n)
        self.state = state
        return out

    def next64(self) -> int:
        return self.draw((1 << 64,))[0]

    def below(self, n: int) -> int:
        if n < 1:
            raise InputError(f"cannot draw below {n}")
        return self.draw((n,))[0]


class RunReport(NamedTuple):
    """Everything one command run produced. `main` adds the command name to
    the JSON and the elapsed time to the text only."""

    inputs: dict[str, Any]
    results: dict[str, Any]
    lines: list[str]
    exit_code: int = EXIT_PASS
    moves: list[dict] | None = None


def parse_raw_sequence(value: str, rank: int, from_file: bool = False) -> list[list[int]]:
    """Element tuples from inline text, or from the file named by `value` if from_file.

    Files hold one comma-separated tuple per line (blank lines skipped).
    Inline text separates elements with ';'; for rank-1 groups plain commas
    also work, since each element is a single integer.
    """
    if from_file:
        try:
            with open(value, encoding="utf-8") as fh:
                parts = [ln.strip() for ln in fh.read().splitlines()]
        except OSError as exc:
            raise InputError(f"cannot read sequence file {value!r}: {exc}") from None
        parts = [p for p in parts if p]
    else:
        s = value.strip()
        if not s:
            raise InputError("empty sequence")
        sep = ";" if ";" in s or rank > 1 else ","
        parts = [p.strip() for p in s.split(sep) if p.strip()]
    if not parts:
        raise InputError("sequence has no elements")
    out = []
    for part in parts:
        try:
            out.append(list(map(int, map(str.strip, part.split(",")))))
        except ValueError:
            raise InputError(f"bad element {part!r} in sequence") from None
    return out


def sequence_argument(args, rank: int) -> list[list[int]]:
    """The raw sequence given by --seq (inline) or --seq-file (a path)."""
    if args.seq_file is not None:
        return parse_raw_sequence(args.seq_file, rank, from_file=True)
    return parse_raw_sequence(args.seq, rank)


def cyclic_sequence_argument(args) -> list[int]:
    """The integers of solve-cyclic's --seq or --seq-file.

    Inline text without ';' is read with one split and one int pass. Blank
    parts, ';', a file or a bad part go through `parse_raw_sequence`, which
    skips the blanks and names the bad part; int() allows the same padding
    that parse_raw_sequence strips, so both ways read the same integers.
    """
    if args.seq_file is None and ";" not in args.seq:
        try:
            return list(map(int, args.seq.split(",")))
        except ValueError:
            pass
    raw = sequence_argument(args, rank=1)
    for r in raw:
        if len(r) != 1:
            raise InputError(f"cyclic sequence elements are single integers, got {r}")
    return [r[0] for r in raw]


def parse_indices(value: str) -> list[int]:
    toks = [t.strip() for t in value.split(",") if t.strip()]
    out = []
    for tok in toks:
        try:
            out.append(int(tok))
        except ValueError:
            raise InputError(f"bad index {tok!r}") from None
    return out


def _group_label(dec: PrimaryDecomposition) -> str:
    return "Z(" + ")+Z(".join(str(n) for n in dec.spec.cyclic_orders) + ")"


def _solve_sequence(dec: PrimaryDecomposition, elements, lattice=None):
    conf = initial_configuration(dec, elements, lattice=lattice)
    root = solve_to_root(conf)
    cert = extract_certificate(root, dec, elements)
    verdict = verify_certificate(dec, elements, cert.indices)
    if not verdict.passed:
        raise InternalInvariantError(
            "certificate failed independent verification: " + "; ".join(verdict.failures)
        )
    return conf, cert


def cmd_solve(args) -> RunReport:
    dec = primary_decomposition(parse_group_spec(args.group))
    raw = sequence_argument(args, dec.spec.rank)
    conf, cert = _solve_sequence(dec, encode_sequence(raw, dec))
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
    return _solve_report({"group": args.group, "sequence": raw}, results, lines, conf, args.trace)


def _solve_report(inputs, results, lines: list[str], conf, trace: bool) -> RunReport:
    """A verified solve's report: the move counters end its results, and
    --trace adds the move log to the JSON and the text."""
    results.update(moves_applied=len(conf.move_log), fallback_fired=conf.fallback_fired, verified=True)
    moves = None
    if trace:
        moves = [m._asdict() for m in conf.move_log]
        lines += ["trace:"] + [
            f"  at divisor {m.vertex_divisor}: consume {len(m.consumed)} pebbles "
            f"{list(m.consumed)} (weight {m.weight}, prime {m.prime}), "
            f"keep {list(m.selected)} -> pebble {m.new_id}"
            for m in conf.move_log
        ]
    return RunReport(inputs, results, lines, moves=moves)


def cmd_solve_cyclic(args) -> RunReport:
    if args.n < 1:
        raise InputError(f"modulus must be positive, got {args.n}")
    dec = primary_decomposition(parse_group_spec(str(args.n)))
    integers = cyclic_sequence_argument(args)
    elements = elements_from_coords(dec, zip(map(args.n.__rmod__, integers)))
    conf, cert = _solve_sequence(dec, elements)
    gcd_terms = [math.gcd(integers[k - 1], args.n) for k in cert.indices]
    if sum(gcd_terms) != cert.ord_cost:
        raise InternalInvariantError("gcd form disagrees with the order-cost form")
    residue_sum = sum(integers[k - 1] for k in cert.indices) % args.n
    if residue_sum:
        raise InternalInvariantError("certificate indices do not sum to 0 mod n")
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
    return _solve_report({"n": args.n, "sequence": integers}, results, lines, conf, args.trace)


def cmd_verify(args) -> RunReport:
    dec = primary_decomposition(parse_group_spec(args.group))
    raw = sequence_argument(args, dec.spec.rank)
    elements = encode_sequence(raw, dec)
    indices = parse_indices(args.indices)
    verdict = verify_certificate(dec, elements, indices)
    return RunReport(
        inputs={"group": args.group, "sequence": raw, "indices": indices},
        results={"indices": indices, "passed": verdict.passed, "failures": list(verdict.failures)},
        lines=[f"K = {indices}", f"verify: {'PASS' if verdict.passed else 'FAIL'}"]
        + [f"  {f}" for f in verdict.failures],
        exit_code=EXIT_PASS if verdict.passed else EXIT_FAIL,
    )


def cmd_oracle(args) -> RunReport:
    dec = primary_decomposition(parse_group_spec(args.group))
    raw = sequence_argument(args, dec.spec.rank)
    result = dp_min_cost_zero_sum(dec, encode_sequence(raw, dec))
    if result.feasible:
        lines = [
            f"min order cost: {result.min_cost}/{dec.exponent}",
            f"witness K = {list(result.indices)}",
            f"qualifies (cost <= {dec.exponent}): {'yes' if result.qualifies else 'no'}",
        ]
    else:
        lines = ["infeasible: no nonempty zero-sum subsequence"]
    return RunReport(
        inputs={"group": args.group, "sequence": raw},
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
    if kind == "cube":
        return weighted_boolean_cube(_parse_weights(rest))
    if kind == "path":
        return path_graph(_parse_weights(rest))
    if kind == "lattice":
        return lattice_graph(primary_decomposition(parse_group_spec(rest)))
    raise InputError(f"unknown graph kind {kind!r}; use cube:, path:, or lattice:")


def _parse_weights(text: str) -> list[int]:
    out = []
    for tok in text.split(","):
        try:
            out.append(int(tok.strip()))
        except ValueError:
            raise InputError(f"bad weight {tok!r} in graph spec") from None
    return out


def cmd_pebbling_number(args) -> RunReport:
    graph = parse_graph_argument(args.graph)
    result = pebbling_number(graph)
    if solvable(graph, result.witness, result.witness_target):
        raise InternalInvariantError("pebbling witness is solvable; scan is broken")
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
    dec = primary_decomposition(parse_group_spec(args.group))
    if args.trials > 0 and args.oracle_limit > 0:
        check_dp_work(dec, dec.group_order)
    lattice = build_lattice(dec)
    rng = SplitMix64(args.seed)
    failures: list[str] = []
    fallback_count = 0
    total_moves = 0
    oracle_checked = 0
    orders = dec.spec.cyclic_orders
    for trial in range(args.trials):
        draws = rng.draw(orders * dec.group_order)  # row-major: |G| elements of rank coordinates
        elements = encode_sequence(list(zip(*[iter(draws)] * len(orders))), dec)
        conf, cert = _solve_sequence(dec, elements, lattice=lattice)
        fallback_count += 1 if conf.fallback_fired else 0
        total_moves += len(conf.move_log)
        if trial < args.oracle_limit:
            oracle = dp_min_cost_zero_sum(dec, elements)
            oracle_checked += 1
            if not oracle.feasible or not oracle.qualifies:
                failures.append(f"trial {trial}: oracle found no qualifying subsequence")
            elif cert.ord_cost < oracle.min_cost:
                failures.append(
                    f"trial {trial}: certificate cost {cert.ord_cost} "
                    f"below the oracle minimum {oracle.min_cost}"
                )
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


def render_json(value: Any, indent: str = "") -> str:
    """The text of `json.dumps(value, indent=2)` for a report (str keys only).

    Dicts, lists and tuples recurse, a list or tuple of plain ints is joined
    in one step, a plain int is its repr, a key goes through the string
    encoder `json.dumps` itself uses, and every other value is left to
    `json.dumps`; the indented encoder is pure Python, and an input echo can
    hold 10^5 integers and a move log 10^5 dicts.
    """
    if type(value) is int:
        return int.__repr__(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        body = (",\n" + inner).join(
            [encode_basestring_ascii(k) + ": " + render_json(v, inner) for k, v in value.items()]
        )
        return "{\n" + inner + body + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        if set(map(type, value)) == {int}:
            body = (",\n" + inner).join(map(int.__repr__, value))
        else:
            body = (",\n" + inner).join([render_json(x, inner) for x in value])
        return "[\n" + inner + body + "\n" + indent + "]"
    return json.dumps(value)


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
                print(render_json(envelope))
            else:
                for line in report.lines:
                    print(line)
                print(f"elapsed {elapsed_ms:.1f} ms")
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
