"""Golden output: the exact bytes of `--json --trace` for four fixed solves.

The three greedy-path digests were recorded from the engine before its
merge-tree rewrite, and the Z_12 one from the level-elimination planner, so
any change to a pebble id, a consumed or selected set, a move's order or a
certificate fails here. The inputs are drawn with the CLI's SplitMix64, so
they are the same on every platform.
"""

from __future__ import annotations

import hashlib
import json
import math

import pytest

from zerosum.cli import SplitMix64, main


def _max_order_cyclic(n: int, seed: int) -> str:
    """n units of Z_n: every pebble starts at the top vertex."""
    rng = SplitMix64(seed)
    seq: list[int] = []
    while len(seq) < n:
        a = rng.below(n)
        if math.gcd(a, n) == 1:
            seq.append(a)
    return ",".join(map(str, seq))


def _zero_free_z2(dim: int, seed: int) -> str:
    """2**dim nonzero vectors of Z_2^dim: no pebble starts at the root."""
    rng = SplitMix64(seed)
    codes = [1 + rng.below(2**dim - 1) for _ in range(2**dim)]
    return ";".join(",".join(str((c >> b) & 1) for b in range(dim)) for c in codes)


def _max_order_4_2_2(seed: int) -> str:
    """16 elements of order 4 in Z_4 + Z_2 + Z_2; the last move merges 8 pebbles in dimension 3."""
    rng = SplitMix64(seed)
    return ";".join(
        f"{2 * rng.below(2) + 1},{rng.below(2)},{rng.below(2)}" for _ in range(16)
    )


# name: (argv, SHA-256 of the `--json --trace` output, what the case is there to exercise)
CASES = {
    "max-order Z_2310": (
        ["solve-cyclic", "--n", "2310", "--seq", _max_order_cyclic(2310, 11)],
        "775d13b08ad7e35bba479359dad70d4866e2432fb835e63b3cfbe660ccb02881",
        lambda r: {m["prime"] for m in r["moves"]} == {2, 3, 5, 7, 11},
    ),
    "zero-free Z_2^10": (
        ["solve", "--group", ",".join(["2"] * 10), "--seq", _zero_free_z2(10, 12)],
        "766220a1bd254772392e9b450f719467cb091f9063bac4df65cdd9fc3330301f",
        lambda r: r["moves"][0]["weight"] == 1024,
    ),
    "max-order Z_4+Z_2+Z_2": (
        ["solve", "--group", "4,2,2", "--seq", _max_order_4_2_2(13)],
        "bc041c1f25669cd1f667dd11d3a3adda0e9a6819aaccf8407bff8dc05d954cce",
        lambda r: max(m["weight"] for m in r["moves"]) == 8,
    ),
    "Z_12 fallback": (
        ["solve-cyclic", "--n", "12", "--seq", "7,7,10,3,5,7,5,3,5,2,1,9"],
        "321edc4745243e89f4578b5b7ffe7c1f2cbda15bc22fff6b91d24e485f0a2209",
        lambda r: r["results"]["fallback_fired"] is True,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_trace_bytes_are_pinned(capsys, name):
    argv, digest, exercises_its_path = CASES[name]
    assert main(argv + ["--json", "--trace"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["results"]["moves_applied"] == len(report["moves"]) >= 1
    assert exercises_its_path(report)
    assert hashlib.sha256(out.encode()).hexdigest() == digest
