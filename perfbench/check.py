"""Independent checker for `zerosum --json` outputs.

Imports nothing from `zerosum`: every claim in an output is recomputed from
the command line that produced it, using only the documented input format
(elements separated by ';', coordinates by ','; rank 1 also takes plain
commas) and the definition of a certificate: the selected elements sum to
zero in every cyclic factor, and their order cost, the sum of N / ord(g) for
the group exponent N, is at most N.
"""

from __future__ import annotations

import json
import math


def _flag(argv, name: str) -> str:
    return argv[list(argv).index(name) + 1]


def parse_sequence(text: str, rank: int) -> list[list[int]]:
    if ";" in text or rank > 1:
        parts = [p for p in text.split(";") if p.strip()]
    else:
        parts = [p for p in text.split(",") if p.strip()]
    return [[int(t) for t in part.split(",")] for part in parts]


def _lcm(xs) -> int:
    out = 1
    for x in xs:
        out = out * x // math.gcd(out, x)
    return out


def _order(g, factors) -> int:
    """Order of g in Z_n1 + ... + Z_nr: the lcm of the factor-wise orders."""
    return _lcm(n // math.gcd(x, n) for x, n in zip(g, factors))


def _index_problems(indices, length: int) -> list[str]:
    if not indices:
        return ["empty index set"]
    if len(set(indices)) != len(indices):
        return ["repeated index"]
    if any(not isinstance(k, int) or not 1 <= k <= length for k in indices):
        return ["index out of range"]
    return []


def _check_solve(argv, doc) -> list[str]:
    factors = [int(t) for t in _flag(argv, "--group").split(",")]
    seq = parse_sequence(_flag(argv, "--seq"), len(factors))
    res = doc["results"]
    if doc["inputs"]["sequence"] != seq:
        return ["echoed sequence differs from the input"]
    indices = res["indices"]
    bad = _index_problems(indices, len(seq))
    if bad:
        return bad
    out = []
    for f, n in enumerate(factors):
        if sum(seq[k - 1][f] for k in indices) % n:
            out.append(f"selection does not sum to zero in factor {f} (Z_{n})")
    big_n = _lcm(factors)
    cost = sum(big_n // _order(seq[k - 1], factors) for k in indices)
    if cost > big_n:
        out.append(f"order cost {cost} exceeds N = {big_n}")
    if res["ord_cost"] != cost or res["bound"] != big_n:
        out.append("reported cost or bound differs from the recomputed one")
    return out


def _check_solve_cyclic(argv, doc) -> list[str]:
    n = int(_flag(argv, "--n"))
    seq = [x[0] for x in parse_sequence(_flag(argv, "--seq"), 1)]
    res = doc["results"]
    if doc["inputs"]["sequence"] != seq or doc["inputs"]["n"] != n:
        return ["echoed input differs from the input"]
    indices = res["indices"]
    bad = _index_problems(indices, len(seq))
    if bad:
        return bad
    out = []
    if sum(seq[k - 1] for k in indices) % n:
        out.append(f"selection does not sum to 0 mod {n}")
    gcds = [math.gcd(seq[k - 1], n) for k in indices]
    if sum(gcds) > n:
        out.append(f"gcd sum {sum(gcds)} exceeds n = {n}")
    if res["gcd_terms"] != gcds or res["gcd_sum"] != sum(gcds) or res["bound"] != n:
        out.append("reported gcd terms, sum or bound differ from the recomputed ones")
    return out


def _check_stress(argv, doc) -> list[str]:
    trials = int(_flag(argv, "--trials"))
    limit = int(_flag(argv, "--oracle-limit"))
    res = doc["results"]
    out = []
    if res["failed"] != 0 or res["passed"] != trials or res["trials"] != trials:
        out.append(f"stress reports {res['failed']} failed of {res['trials']} trials")
    if res["oracle_checked"] != min(trials, limit):
        out.append(f"oracle checked {res['oracle_checked']} trials, expected {min(trials, limit)}")
    return out


def _check_oracle_infeasible(argv, doc) -> list[str]:
    res = doc["results"]
    if res["feasible"] is not False or res["witness"]:
        return ["oracle reports a zero-sum subsequence in a zero-sum-free input"]
    return []


def _certificate(argv, doc):
    """The part of an output that names its answer, for digests across versions."""
    res = doc["results"]
    if argv[0] in ("solve", "solve-cyclic"):
        return res["indices"]
    if argv[0] == "oracle":
        return [res["feasible"], res["witness"]]
    return [res["passed"], res["failed"], res["oracle_checked"]]


def check(argv, expect_exit: int, rc, stdout: str) -> tuple[str, list[str], object]:
    """Verdict on one command, its problems, and its certificate (or None).

    The verdict is "ok", "failed" (no answer) or "wrong" (a bad answer).
    `rc` is None when the command raised instead of returning an exit code.
    Exit codes 0 and 1 are answers; 2 and 3 are refusals, which on the valid
    inputs of every workload count as failures.
    """
    if rc not in (0, 1):
        return "failed", [f"exit {rc}, expected {expect_exit}"], None
    if rc != expect_exit:
        return "wrong", [f"exit {rc}, expected {expect_exit}"], None
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "wrong", ["output is not JSON"], None
    if not isinstance(doc, dict) or doc.get("exit_code") != rc or doc.get("command") != argv[0]:
        return "wrong", ["JSON command or exit_code field disagrees with the run"], None
    try:
        if argv[0] == "solve":
            problems = _check_solve(argv, doc)
        elif argv[0] == "solve-cyclic":
            problems = _check_solve_cyclic(argv, doc)
        elif argv[0] == "stress":
            problems = _check_stress(argv, doc)
        elif argv[0] == "oracle" and expect_exit == 1:
            problems = _check_oracle_infeasible(argv, doc)
        else:
            problems = [f"no check for command {argv[0]!r}"]
        cert = _certificate(argv, doc)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        return "wrong", [f"output lacks an expected field: {exc!r}"], None
    return ("wrong" if problems else "ok"), problems, cert
