"""Seeded command lists for the benchmark workloads.

Each workload is a fixed list of `zerosum` command lines built from one
SplitMix64 stream, so a seed names the same argv on every checkout. Every
generator asserts the property that makes its family do the intended work
before any command runs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 (Steele, Lea and Flood, 2014); constants in README.md."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next64() % n


@dataclass(frozen=True)
class Command:
    """One command line and the outcome a correct program gives for it.

    `expect_exit` is derived from the input family alone: 0 for every valid
    solve or stress input, 1 only for a provably zero-sum-free oracle input.
    """

    argv: tuple[str, ...]
    expect_exit: int = 0


class FamilyError(ValueError):
    """A generated input lacks the property its workload is built on."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise FamilyError(what)


def _shuffle(rng: SplitMix64, xs: list) -> None:
    for i in range(len(xs) - 1, 0, -1):
        j = rng.below(i + 1)
        xs[i], xs[j] = xs[j], xs[i]


def _with_gcd(rng: SplitMix64, n: int, g: int) -> int:
    """Uniform residue a in [0, n) with gcd(a, n) == g, by rejection."""
    while True:
        a = rng.below(n)
        if math.gcd(a, n) == g:
            return a


def _join(xs) -> str:
    return ",".join(str(x) for x in xs)


def _cyclic(n: int, seq: list[int]) -> Command:
    return Command(("solve-cyclic", "--n", str(n), "--seq", _join(seq), "--json"))


def maxorder_cyclic(rng: SplitMix64) -> list[Command]:
    """|G| units over Z_30030, Z_16384, Z_30030: every pebble starts at the top vertex."""
    out = []
    for n in (30030, 16384, 30030):
        seq = [_with_gcd(rng, n, 1) for _ in range(n)]
        _require(all(math.gcd(a, n) == 1 for a in seq), f"Z_{n}: an element has order below {n}")
        out.append(_cyclic(n, seq))
    return out


def elementary(rng: SplitMix64) -> list[Command]:
    """Zero-free sequences of |G| vectors over Z_2^14, Z_3^9, Z_2^14."""
    out = []
    for p, d in ((2, 14), (3, 9), (2, 14)):
        size = p**d
        seq = []
        for _ in range(size):
            code = 1 + rng.below(size - 1)
            vec = []
            for _ in range(d):
                code, digit = divmod(code, p)
                vec.append(digit)
            seq.append(vec)
        _require(all(any(v) for v in seq), f"Z_{p}^{d}: the sequence contains the identity")
        group = _join([p] * d)
        text = ";".join(_join(v) for v in seq)
        out.append(Command(("solve", "--group", group, "--seq", text, "--json")))
    return out


# (n, stray values): the rest of the |G| terms are units, so every profile
# puts n - len(strays) pebbles on the top vertex and greedy planning stalls.
PLANNER_PROFILES = (
    (60, (15,)),
    (72, (9,)),
    (90, (45,)),
    (120, (3,)),
    (210, (5,)),
    (210, (7,)),
    (210, (105, 70)),
)


def _order_profile(n: int, seq: list[int]) -> dict[int, int]:
    prof: dict[int, int] = {}
    for a in seq:
        o = n // math.gcd(a, n)
        prof[o] = prof.get(o, 0) + 1
    return prof


def planner_adversarial(rng: SplitMix64) -> list[Command]:
    """Each stray profile twice, then Z_210 `105` followed by 209 ones."""
    out = []
    for n, strays in PLANNER_PROFILES * 2:
        seq = [_with_gcd(rng, n, math.gcd(s, n)) for s in strays]
        seq += [_with_gcd(rng, n, 1) for _ in range(n - len(strays))]
        _shuffle(rng, seq)
        _require(
            _order_profile(n, seq) == _order_profile(n, list(strays) + [1] * (n - len(strays))),
            f"Z_{n}: profile differs from strays {strays}",
        )
        out.append(_cyclic(n, seq))
    # Valid input that the budgeted fallback search cannot plan; kept
    # literal so the reproduction matches the documented defect.
    seq = [105] + [1] * 209
    _require(_order_profile(210, seq) == {2: 1, 210: 209}, "Z_210: literal profile changed")
    out.append(_cyclic(210, seq))
    return out


# (group, trials): every trial is cross-checked by the DP oracle.
STRESS_GROUPS = (("60", 8), ("60", 8), ("6,6", 50), ("2,2,2,2,2", 80), ("9,3", 80), ("120", 1))
LK_MODULUS = 2310


def oracle_crosscheck(rng: SplitMix64) -> list[Command]:
    """`stress` with every trial oracle-checked, and a zero-sum-free oracle input."""
    out = []
    for group, trials in STRESS_GROUPS:
        seed = rng.next64()
        out.append(
            Command(
                (
                    "stress", "--group", group, "--trials", str(trials),
                    "--seed", str(seed), "--oracle-limit", str(trials), "--json",
                )
            )
        )
    n = LK_MODULUS
    u = _with_gcd(rng, n, 1)
    seq = [u] * (n - 1)
    # n - 1 copies of a unit: every partial sum k*u with 0 < k < n is nonzero.
    _require(math.gcd(u, n) == 1 and len(seq) == n - 1, "Lemke-Kleitman family broken")
    out.append(Command(("oracle", "--group", str(n), "--seq", _join(seq), "--json"), expect_exit=1))
    return out


WORKLOADS = {
    "maxorder-cyclic": maxorder_cyclic,
    "elementary": elementary,
    "planner-adversarial": planner_adversarial,
    "oracle-crosscheck": oracle_crosscheck,
}


def build(workload: str, seed: int) -> list[Command]:
    return WORKLOADS[workload](SplitMix64(seed))


def argv_digest(commands: list[Command]) -> str:
    blob = json.dumps([[list(c.argv), c.expect_exit] for c in commands]).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
