"""Golden output: the exact bytes of `--json --trace` for fixed solves, of
`--json` for one command of every kind, and of the text output of every kind.

The three greedy-path digests were recorded from the engine before its
merge-tree rewrite, and the Z_12 one from the level-elimination planner, so
any change to a pebble id, a consumed or selected set, a move's order or a
certificate fails here. The Z_3^6 solve and the per-command digests were
recorded before the elementary path and the JSON renderer were rewritten to
work a whole sequence at a time, so they pin those rewrites to the old bytes.
The Z_2048 and Z_2187 solves were recorded before pebbles became table rows;
their moves below the top vertex divide by residual moduli above 1, so they pin
the `x // m % p` reduction and the consumed-pebble check over long runs (every
move of the squarefree Z_2310 solve divides by 1). The inputs are drawn with
the CLI's SplitMix64, so they are the same on every platform. The Z_30030
solve was recorded before a run's moves were made from one base-case pass and
prefix sums; its first run makes 15,015 moves, the benchmark's largest.
"""

from __future__ import annotations

import hashlib
import json
import math
import re

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


def _zero_free_z3(dim: int, seed: int) -> str:
    """3**dim nonzero vectors of Z_3^dim, with both leading entries 1 and 2."""
    rng = SplitMix64(seed)
    vecs = []
    for _ in range(3**dim):
        c = 1 + rng.below(3**dim - 1)
        vecs.append([c // 3**b % 3 for b in range(dim)])
    assert {next(x for x in v if x) for v in vecs} == {1, 2}
    return ";".join(",".join(map(str, v)) for v in vecs)


def _uniform(orders: tuple[int, ...], length: int, seed: int) -> str:
    """length elements drawn uniformly from the group with these factor orders."""
    rng = SplitMix64(seed)
    return ";".join(",".join(str(rng.below(n)) for n in orders) for _ in range(length))


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
    "max-order Z_2048": (
        ["solve-cyclic", "--n", "2048", "--seq", _max_order_cyclic(2048, 17)],
        "033af7b8eb0d62ec76864b49174111275167ee16f2fc4fb183189012728062ed",
        lambda r: len(r["moves"]) == 2047 and {m["weight"] for m in r["moves"]} == {2},
    ),
    "max-order Z_2187": (
        ["solve-cyclic", "--n", "2187", "--seq", _max_order_cyclic(2187, 17)],
        "ecb2815919ec96abee09a2d6e398fb156ce45034009d26c5054a91def1816481",
        lambda r: len(r["moves"]) == 1093 and {m["weight"] for m in r["moves"]} == {3},
    ),
    "max-order Z_30030": (
        ["solve-cyclic", "--n", "30030", "--seq", _max_order_cyclic(30030, 19)],
        "6b59a7a2f843e9f4de1197fd8e621a6e031152ef109b4c7c8d2d853959e6bbd4",
        lambda r: [m["weight"] for m in r["moves"] if m["vertex_divisor"] == 30030] == [2] * 15015,
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
    "zero-free Z_3^6": (
        ["solve", "--group", ",".join(["3"] * 6), "--seq", _zero_free_z3(6, 14)],
        "542d3dd76ea774bc5bee6043d4042b8d6b8738cacbf1e3a7cf9e1961b30e83bf",
        lambda r: r["moves"][0]["weight"] == 729 and len(r["moves"][0]["selected"]) <= 3,
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


# name: (argv, SHA-256 of the `--json` output, exit code): one case for each
# command kind, so the renderer is pinned on every report shape. The two runs of
# repeated elements were recorded before a repeated DP item read only the sums
# its previous copy improved: the Z_60 witness (50, 7 and three of the ten 1s)
# takes several copies from one run plus a sum reached before it, and 2309
# copies of a unit of Z_2310 have no zero-sum subsequence. The two uniform
# sequences were recorded before the DP stopped at its cost floor and numbered
# its sums over the invariant factors: on Z_60, items 19 and 43 (29 and 31)
# reach cost 2 at item 43 and 17 items follow; on Z_12 + Z_6, items 11 and 18
# ((5, 5) and (7, 1)) reach it at item 18 and 54 items follow.
COMMANDS = {
    "solve-cyclic Z_2310": (
        ["solve-cyclic", "--n", "2310", "--seq", _max_order_cyclic(2310, 15)],
        "e8520c184072d68f7782b5db6354e93497d6c0a65a2b0a554f67e4e9c7f9135b",
        0,
    ),
    "stress 6,6": (
        ["stress", "--group", "6,6", "--trials", "20", "--oracle-limit", "20"],
        "d9b2fe8aa430677c64f76fe363305a1f053a1364eab0116cd6e5b779edccad4a",
        0,
    ),
    "infeasible oracle Z_210": (
        ["oracle", "--group", "210", "--seq", ",".join(["11"] * 209)],
        "33e59f66abdef6686a34856706df8bafba820d789f61c265c59c13f1bb7edeb7",
        1,
    ),
    "feasible oracle Z_60": (
        ["oracle", "--group", "60", "--seq", ",".join(["50", "7"] + ["1"] * 10 + ["30", "30"])],
        "b1766d85be31999d7d215398fe940f0e562034d68d5ef1590fe15b3ff1cedf96",
        0,
    ),
    "uniform oracle Z_60": (
        ["oracle", "--group", "60", "--seq", _uniform((60,), 60, 14)],
        "3495563ba8ab43900947bcef5d9c70f6358aa8d467f0776e6eb0d537cad00226",
        0,
    ),
    "uniform oracle Z_12+Z_6": (
        ["oracle", "--group", "12,6", "--seq", _uniform((12, 6), 72, 5)],
        "4a6a58fcc1830fd058fb7717db5dabdd8a587af862ac5137fea92ce6ec60e7fd",
        0,
    ),
    "infeasible oracle Z_2310": (
        ["oracle", "--group", "2310", "--seq", ",".join(["13"] * 2309)],
        "ebb400d125c42314bb4e1f3ab61aee1d18b7e6097a6ac0ccbe015ed875f60bcc",
        1,
    ),
    "failing verify Z_3^6": (
        ["verify", "--group", ",".join(["3"] * 6), "--seq", _zero_free_z3(6, 16), "--indices", "1,2,3"],
        "cc29f5609814eb49c4fba8bf8f3e1f30e07ca2e7d6b5ba3b236e0907c0e3c7a8",
        1,
    ),
    "weighted davenport 3,3": (
        ["davenport", "--group", "3,3", "--weighted"],
        "40c81805f48a3c8da7a8102d12fb52691226df112861a67212471216ae655958",
        0,
    ),
    "pebbling-number cube:2,3": (
        ["pebbling-number", "--graph", "cube:2,3"],
        "da7feea424c47a1ec0d049b537d34c48e9fc823e90b1d24c9feb55819ba32aba",
        0,
    ),
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_json_bytes_are_pinned_for_every_command(capsys, name):
    argv, digest, exit_code = COMMANDS[name]
    assert main(argv + ["--json"]) == exit_code
    out = capsys.readouterr().out
    assert json.loads(out)["exit_code"] == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# --seq (or the --seq-file lines) given to `solve-cyclic --json`: (modulus,
# source, exit code, SHA-256 of stdout or "" for none, stderr), recorded
# before solve-cyclic read its integers with one split.
PARSE_CASES = {
    "blank part": ("4", "1,,1,1,1", 0, "2af2c9ec78c1be167853ace3e93540e94374f937c3b10e30bc7826109077107d", ""),
    "spaces": ("4", " 1 , 1,1 ,1 ", 0, "2af2c9ec78c1be167853ace3e93540e94374f937c3b10e30bc7826109077107d", ""),
    "semicolons": ("4", "1;1;1;1", 0, "2af2c9ec78c1be167853ace3e93540e94374f937c3b10e30bc7826109077107d", ""),
    "pair among singles": (
        "3", "1,2;3", 2, "", "input error: cyclic sequence elements are single integers, got [1, 2]\n"
    ),
    "trailing semicolon": (
        "3", "1,2,3;", 2, "", "input error: cyclic sequence elements are single integers, got [1, 2, 3]\n"
    ),
    "bad part": ("2", "1,x", 2, "", "input error: bad element 'x' in sequence\n"),
    "inner space": ("3", "1,2 3,4", 2, "", "input error: bad element '2 3' in sequence\n"),
    "empty": ("2", "", 2, "", "input error: empty sequence\n"),
    "only commas": ("4", ",,", 2, "", "input error: sequence has no elements\n"),
    "negatives first": ("4", "-1,-3,-5,2", 0, "c21bbec5d219edc62a7602a582c71cc8415f7a964f2c1b2e3b63d6328766f29d", ""),
    "negatives": ("4", "3,-1,-5,-6", 0, "82b8b058512ea3cce63a5b17f20aca6f9164f0179c768cbfa9cc5cd4da22c310", ""),
    "underscore": ("3", "1_0,2,3", 0, "63f3494c0be0ae302020fab230c99f8eb037240f116aba3ef87a071581b146fc", ""),
    "file": ("4", "3\n\n -1 \n5\n 6\n", 0, "5e155f49be73c2d719f8dac3a02aa842a86f545cc375dfb29c94b07e262f5eed", ""),
    "file pair": (
        "3", "1\n2,3\n", 2, "", "input error: cyclic sequence elements are single integers, got [2, 3]\n"
    ),
}


@pytest.mark.parametrize("name", sorted(PARSE_CASES))
def test_solve_cyclic_parsing_is_pinned(capsys, tmp_path, name):
    n, text, exit_code, digest, err = PARSE_CASES[name]
    if name.startswith("file"):
        path = tmp_path / "seq.txt"
        path.write_text(text, encoding="utf-8")
        source = ["--seq-file", str(path)]
    else:
        source = ["--seq=" + text]
    assert main(["solve-cyclic", "--n", n, *source, "--json"]) == exit_code
    captured = capsys.readouterr()
    assert captured.err == err
    assert (hashlib.sha256(captured.out.encode()).hexdigest() if captured.out else "") == digest


# name: (argv, exit code, SHA-256 of the text stdout without its `elapsed` line,
# stderr), recorded before the commands returned their reports as one record:
# one command of each kind, both solves again with --trace, a passing and a
# failing verify (two failure lines), an infeasible oracle and an input error.
TEXT_CASES = {
    "solve Z_4+Z_2+Z_2 --trace": (
        ["solve", "--group", "4,2,2", "--seq", _max_order_4_2_2(13), "--trace"],
        0,
        "c80fb85d884683543b70fbec5a45e6c2bcc75a672fe0f72e75e16042c6bbc0d8",
        "",
    ),
    "solve Z_3^3": (
        ["solve", "--group", "3,3,3", "--seq", _zero_free_z3(3, 14)],
        0,
        "4feae8694bb0317977e21a54e1b2b990834db4ae29bcfd7f31c967968e17350d",
        "",
    ),
    "solve-cyclic Z_12 fallback --trace": (
        ["solve-cyclic", "--n", "12", "--seq", "7,7,10,3,5,7,5,3,5,2,1,9", "--trace"],
        0,
        "a141da53b8601d18f8b93f7e0c0156a1e280f62c0e83be7c199b0606d6ecda33",
        "",
    ),
    "solve-cyclic Z_2310": (
        ["solve-cyclic", "--n", "2310", "--seq", _max_order_cyclic(2310, 15)],
        0,
        "b33bc82414e82ac0058d32fe4268a0b417a66a526cd9950fc25ce13ff7f04972",
        "",
    ),
    "passing verify Z_6": (
        ["verify", "--group", "6", "--seq", "1,2,3,4,5,0", "--indices", "1,5"],
        0,
        "fe632edea9b613c55b68f6aedbcea6ebdb12fca90480c94dedb1c86f84613728",
        "",
    ),
    "failing verify Z_6": (
        ["verify", "--group", "6", "--seq", "3,3,2,4,5,0", "--indices", "1,2,3"],
        1,
        "44282937a4ab38ab80385daaf4f1563ac09fbd23da09f4895d7617a49167de95",
        "",
    ),
    "feasible oracle Z_60": (
        ["oracle", "--group", "60", "--seq", ",".join(["50", "7"] + ["1"] * 10 + ["30", "30"])],
        0,
        "58a9172295b02aab56197f8de01983a2f401a9cba5fa07b641ce11195b550d7e",
        "",
    ),
    "infeasible oracle Z_210": (
        ["oracle", "--group", "210", "--seq", ",".join(["11"] * 209)],
        1,
        "754287dda2f21abc812d8fbab0217de9529dffd84a075084a4eddd14b6703ea1",
        "",
    ),
    "pebbling-number lattice:12": (
        ["pebbling-number", "--graph", "lattice:12"],
        0,
        "4cedd4074feb2529f70f276a03a64f7f64bdbde6a7ae68249c1c9b0958c6a830",
        "",
    ),
    "stress 6,6": (
        ["stress", "--group", "6,6", "--trials", "20", "--oracle-limit", "20"],
        0,
        "cf0d27a9dc844eca623ed81e0d76b7ecfcd4c55938882931afed33c53d398137",
        "",
    ),
    "davenport 4,2": (
        ["davenport", "--group", "4,2"],
        0,
        "3e2445839c070e87255b49e0578e17d9c4302c6466510aa0beacd16d8af942a2",
        "",
    ),
    "index out of range": (
        ["verify", "--group", "6", "--seq", "1,2,3,4,5,0", "--indices", "1,7"],
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "input error: index 7 outside 1..6\n",
    ),
}

ELAPSED_LINE = re.compile(r"elapsed \d+\.\d ms\n")


@pytest.mark.parametrize("name", sorted(TEXT_CASES))
def test_text_output_is_pinned_for_every_command(capsys, name):
    argv, exit_code, digest, err = TEXT_CASES[name]
    assert main(argv) == exit_code
    captured = capsys.readouterr()
    lines = captured.out.splitlines(keepends=True)
    kept = "".join(line for line in lines if not ELAPSED_LINE.fullmatch(line))
    # A report ends in its one timing line; an input error prints no report.
    assert len(lines) - kept.count("\n") == (exit_code != 2)
    assert not lines or ELAPSED_LINE.fullmatch(lines[-1])
    assert captured.err == err
    assert hashlib.sha256(kept.encode()).hexdigest() == digest
