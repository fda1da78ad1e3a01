"""Command-line behavior: parsing rules, exit codes, JSON stability."""

from __future__ import annotations

import argparse
import ast
import contextlib
import gc
import importlib
import io
import json
import math
import operator
import os
import pathlib
import re
import shlex
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zerosum
from zerosum import InputError, InternalInvariantError, cli, engine
from zerosum.cli import SplitMix64, main, parse_indices, parse_raw_sequence
from zerosum.oracle import OracleResult

CLI = [sys.executable, "-m", "zerosum.cli"]
# Child interpreters import the same package as the tests, installed or not.
SRC = os.path.dirname(os.path.dirname(os.path.abspath(zerosum.__file__)))
CLI_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
}


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, env=CLI_ENV)


def run_json(capsys, *args):
    code = main(list(args) + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_splitmix64_reference_values():
    # First three outputs for seed 1234567; fixed by the documented algorithm.
    rng = SplitMix64(1234567)
    got = rng.draw((1 << 64,) * 3)
    assert got == [6457827717110365317, 3203168211198807973, 9817491932198370423]


def test_splitmix64_draws_replay_for_a_seed():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert [a.draw((10,))[0] for _ in range(8)] == [b.draw((10,))[0] for _ in range(8)]
    assert a.draw((1,)) == [0]


def test_splitmix64_one_draw_matches_a_draw_per_modulus():
    # stress draws a block of trials' coordinates in one call; the values
    # and the state after them are those of one draw per coordinate.
    moduli = (9, 3) * 27 + (1, 2**64, 2310)
    a, b = SplitMix64(2024), SplitMix64(2024)
    assert a.draw(moduli) == [b.draw((n,))[0] for n in moduli]
    assert a.state == b.state
    assert a.draw(()) == [] and a.state == b.state


def _splitmix64_steps(state, moduli):
    """The documented SplitMix64 step, one draw at a time: `draw`'s reference."""
    out = []
    for n in moduli:
        state = (state + 0x9E3779B97F4A7C15) % 2**64
        z = (state ^ state >> 30) * 0xBF58476D1CE4E5B9 % 2**64
        z = (z ^ z >> 27) * 0x94D049BB133111EB % 2**64
        out.append((z ^ z >> 31) % n)
    return out, state


# At, before and across the 2^64 wrap: the first step, the 100th and the
# (LANES + 7)th (in a second block) wrap the state to 0.
WRAP_SEEDS = [0, 1, 2**64 - 1, 2**64, -1, 2**64 - 0x9E3779B97F4A7C15, -100 * 0x9E3779B97F4A7C15 % 2**64,
              -(cli.LANES + 7) * 0x9E3779B97F4A7C15 % 2**64]


@pytest.mark.parametrize("seed", WRAP_SEEDS)
def test_packed_draw_matches_one_step_per_draw(seed):
    lanes = cli.LANES
    mixed = (1, 2, 3, 7, 60, 256, 257, 2310, 2**32 + 15, 2**63 + 1, 2**64)
    for length in (0, 1, lanes - 1, lanes, lanes + 1, 3 * lanes + 5):
        for moduli in ((1,) * length, (2**64,) * length, (mixed * (length // len(mixed) + 1))[:length]):
            rng = SplitMix64(seed)
            assert rng.draw(moduli) == _splitmix64_steps(seed % 2**64, moduli)[0]
            assert rng.state == (seed + length * 0x9E3779B97F4A7C15) % 2**64


def test_packed_draw_state_after_each_call():
    # Calls of every block shape in a row: each starts where the last left off.
    rng, state = SplitMix64(2**64 - 5 * 0x9E3779B97F4A7C15), 2**64 - 5 * 0x9E3779B97F4A7C15
    for length in (3, 0, cli.LANES + 1, 1, cli.LANES - 1, 2 * cli.LANES, 54):
        moduli = [2**64 - k for k in range(length)]
        want, state = _splitmix64_steps(state, moduli)
        assert rng.draw(moduli) == want and rng.state == state


def _parsed(*args, **kwargs):
    """`parse_raw_sequence`'s coordinates as a list, and its texts, if any,
    as one text per element (the echo joins them with ';')."""
    ints, texts = parse_raw_sequence(*args, **kwargs)
    return list(ints), texts and ";".join(texts).split(";")


def test_parse_raw_sequence_rank1_commas():
    # Single digits: the text comes back as the element texts.
    assert _parsed("1,1,1,1", rank=1) == ([1, 1, 1, 1], ["1", "1", "1", "1"])
    assert _parsed("0;1;2", rank=1) == ([0, 1, 2], ["0", "1", "2"])
    # So does a canonical text of any digit count ("-3", "300"); a token that
    # is not canonical ("+1") leaves the texts to the echo.
    assert _parsed("-3", rank=1) == ([-3], ["-3"])
    assert _parsed("-3,300", rank=1) == ([-3, 300], ["-3", "300"])
    assert _parsed("+1,300", rank=1) == ([1, 300], None)
    # A small token reads as the very object int() returns.
    ints, _ = parse_raw_sequence("0,7,256", 1, flat=True)
    assert all(map(operator.is_, ints, map(int, ["0", "7", "256"])))


def test_parse_raw_sequence_rank2():
    # The coordinates come laid end to end, element after element.
    assert _parsed("1,0;0,1;1,1;1,0", rank=2) == ([1, 0, 0, 1, 1, 1, 1, 0], ["1,0", "0,1", "1,1", "1,0"])
    # A single inline element for a rank-2 group needs no separator.
    assert _parsed("1,0", rank=2) == ([1, 0], ["1,0"])
    # Padding sends the text to the per-part reader, which returns no texts.
    assert _parsed("1, 0;0,1", rank=2) == ([1, 0, 0, 1], None)


def test_parse_raw_sequence_from_file(tmp_path):
    from zerosum import InputError

    path = tmp_path / "seq.txt"
    path.write_text("1,0\n\n0,1\n1,1\n1,0\n")
    assert _parsed(str(path), rank=2, from_file=True) == ([1, 0, 0, 1, 1, 1, 1, 0], None)
    path.write_text("1,0\r\n0,1\r\n1,1\r\n1,0\r\n")
    rows = ["1,0", "0,1", "1,1", "1,0"]
    assert _parsed(str(path), rank=2, from_file=True) == ([1, 0, 0, 1, 1, 1, 1, 0], rows)
    # Inline text is never taken for a path, even when a file of that name exists.
    with pytest.raises(InputError):
        parse_raw_sequence(str(path), rank=2)
    with pytest.raises(InputError):
        parse_raw_sequence(str(tmp_path / "missing.txt"), rank=1, from_file=True)


def test_single_digit_texts_read_as_bytes(tmp_path):
    # One ASCII digit per coordinate, each separator where the rank puts it:
    # the coordinates come as one bytes, and the texts as the text itself
    # with ';' between elements.
    assert parse_raw_sequence("1,0,9", 1) == (b"\x01\x00\x09", ["1;0;9"])
    assert parse_raw_sequence("1;0;9", 1, flat=True) == (b"\x01\x00\x09", ["1;0;9"])
    assert parse_raw_sequence(" 7\t", 1) == (b"\x07", ["7"])  # the whole value is stripped first
    assert parse_raw_sequence("1,0,2;0,1,2", 3) == (bytes([1, 0, 2, 0, 1, 2]), ["1,0,2;0,1,2"])
    path = tmp_path / "seq.txt"
    for body in ("1,0\n0,9\n", "1,0\n0,9"):  # with and without the last newline
        path.write_text(body)
        assert parse_raw_sequence(str(path), 2, from_file=True) == (bytes([1, 0, 0, 9]), ["1,0;0,9"])
        path.write_text(body.replace(",", "\n"))
        assert parse_raw_sequence(str(path), 1, from_file=True) == (bytes([1, 0, 0, 9]), ["1;0;0;9"])
    # Text mode reads CRLF line ends as newlines, so a CRLF file is the same text.
    path.write_bytes(b"1,0\r\n0,9\r\n")
    assert parse_raw_sequence(str(path), 2, from_file=True) == (bytes([1, 0, 0, 9]), ["1,0;0,9"])


@pytest.mark.parametrize(
    "text, rank, expected",
    [
        ("10,1;1,1", 2, ([10, 1, 1, 1], ["10,1;1,1"])),  # a two-digit token: canonical, its own texts
        ("+1,1;1,1", 2, ([1, 1, 1, 1], None)),
        ("1, 1;1,1", 2, ([1, 1, 1, 1], None)),  # padding inside the text
        ("1,\uff13;1,1", 2, ([1, 3, 1, 1], None)),  # a non-ASCII digit
        ("1,1;;1,1", 2, ([1, 1, 1, 1], None)),  # a blank element
        ("1;1;", 1, ([1, 1], None)),  # a trailing separator
        ("1,1;1,0,", 2, "bad element '1,0,' in sequence"),
        ("1,1;1", 2, "element needs 2 coordinates for this group, got 1"),  # a short element
        ("1;1,0", 1, "cyclic sequence elements are single integers, got [1, 0]"),
        ("1\n1", 1, "bad element '1\\n1' in sequence"),
    ],
)
def test_other_texts_read_as_before(text, rank, expected, tmp_path):
    # Anything else takes the one-split or per-part reader as before: a list of
    # ints and no texts, or its error; inline and as a file of lines (where a
    # last ';' or a newline would be a line end, inline only).
    group = {1: "4", 2: "4,2"}[rank]
    path = tmp_path / "seq.txt"
    path.write_text(text.replace(";", "\n"))
    sources = [(text, False)] if text.endswith(";") or "\n" in text else [(text, False), (str(path), True)]
    for value, from_file in sources:
        if isinstance(expected, str):
            with pytest.raises(InputError) as exc:
                parse_raw_sequence(value, rank, from_file, rank == 1)
            assert str(exc.value) == expected
        else:
            ints, texts = parse_raw_sequence(value, rank, from_file, rank == 1)
            assert (type(ints), ints, texts) == (list, *expected)
            _assert_echo_matches_rows(["oracle", "--group", group, "--seq-file" if from_file else "--seq", value])
    path.write_text("1,0\n\n0,1\n")  # a blank line
    assert parse_raw_sequence(str(path), 2, from_file=True) == ([1, 0, 0, 1], None)


def test_parse_raw_sequence_rejects_junk():
    from zerosum import InputError

    with pytest.raises(InputError):
        parse_raw_sequence("", rank=1)
    with pytest.raises(InputError):
        parse_raw_sequence("1,x,3", rank=1)
    with pytest.raises(InputError):
        parse_indices("1,two")


def _per_part_parse(value: str, rank: int, from_file: bool = False) -> list[list[int]]:
    """The per-part reader that `parse_raw_sequence` was before its one-split
    path, verbatim."""
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


def _per_part_flat(value: str, rank: int, from_file: bool = False) -> list[int]:
    """`_per_part_parse`'s rows laid end to end, after the rank check that
    `encode_sequence` made on them before it took columns, verbatim."""
    raws = _per_part_parse(value, rank, from_file)
    for raw in raws:
        if len(raw) != rank:
            raise InputError(f"element needs {rank} coordinates for this group, got {len(raw)}")
    return [x for raw in raws for x in raw]


def _per_part_cyclic(args) -> list[int]:
    """solve-cyclic's reader before it folded into `parse_raw_sequence`, verbatim
    but for `_per_part_parse` in place of `sequence_argument`."""
    if args.seq_file is None and ";" not in args.seq:
        try:
            return list(map(int, args.seq.split(",")))
        except ValueError:
            pass
    if args.seq_file is not None:
        raw = _per_part_parse(args.seq_file, 1, from_file=True)
    else:
        raw = _per_part_parse(args.seq, 1)
    for r in raw:
        if len(r) != 1:
            raise InputError(f"cyclic sequence elements are single integers, got {r}")
    return [r[0] for r in raw]


def _read_ints(value: str, rank: int, from_file: bool = False) -> list[int]:
    """`parse_raw_sequence`'s coordinates as a list, once its element texts,
    where it returns them, are checked to be the canonical texts of those
    coordinates."""
    ints, texts = _parsed(value, rank, from_file)
    if texts is not None:
        assert texts == [",".join(map(str, ints[k : k + rank])) for k in range(0, len(ints), rank)]
    return ints


def _cyclic_ints(args) -> list[int]:
    return list(cli.sequence_argument(argparse.Namespace(json=False, **vars(args)), 1, True)[0])


def _outcome(read, *args):
    """repr of what `read` returns (so lists and tuples differ), or its
    InputError text; every value read must be an exact int, not a subclass."""
    try:
        got = read(*args)
    except InputError as exc:
        return f"InputError: {exc}"
    assert {type(x) for row in (got if got and type(got[0]) is list else [got]) for x in row} <= {int}
    return repr(got)


# Canonical tokens of one and three digits ("0", "256", "257"), and texts int()
# reads that are not canonical ("00", "+1", " 1", "-0", "1_0", Arabic-Indic 3).
SMALL_INT_TOKENS = ["0", "256", "257", "00", "+1", " 1", "-0", "1_0", "\u0663"]


def _token_texts(tok: str) -> list[str]:
    """`tok` as the first token and as the last of a text of each rank, and beside blanks."""
    out = [f"{tok};;1", f"1;{tok},,1", f"{tok},1;;1,1"]
    for r in (1, 2, 3):
        row, pad = ",".join(["1"] * r), ["2"] * (r - 1)
        out += [",".join([tok] + pad) + f";{row};{row}", f"{row};{row};" + ",".join(pad + [tok])]
    return out


# str.strip's padding (none lies above U+3000); int() strips all of it but \x1c-\x1f.
_PAD = [chr(c) for c in range(0x3001) if chr(c).isspace()]
PARSE_CORPUS = (
    ["", " ", "\t", ";", " ; ", ";;", ",", "1", "1,0", "1,0,2", "1,0;0,1", "1;2;3", "1,2,3"]
    + ["1,0;;0,1", "1,0;0,1;", ";1,0", "1;;2;", "1,,2", "1,2,", ",1", "1,0; ;0,1", "1;\t;2"]
    + [" 1 , 0 ;\t0,1\t", "1\t,\t2", "\t3\t", "1 ,2 ;3 ,4", "1 2", "1\t2;3,4"]
    + ["+1", "+1,-1", "1_0", "1_0,2", "1__0", "_1", "1_", "\u0661\u0662", "\uff11,\uff12", "\u00b2", "0x1", "1.0"]
    + ["1,0;1;0,1", "1,0,1;0,1", "1;1,0;0,1", "1,0;1;x,1", "x;1,0,0", "1,0,0;x", "1,0;y;1", "9" * 5000]
    + [",".join(map(str, range(-40, 40))), ";".join(map(str, range(40))), ";".join(f"{k},{-k},{k % 7}" for k in range(40))]
    + [f"{c}1{c},{c}0{c};{c}2,3{c}" for c in _PAD] + [f"1{c}" for c in _PAD] + ["\x1c1,2", "1,2\x1f"]
    + [text for tok in SMALL_INT_TOKENS for text in _token_texts(tok)]
)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_parse_raw_sequence_matches_the_per_part_reader(rank, tmp_path):
    # The one-split reader gives the per-part reader's rows laid end to end,
    # or its error or the rank error, for inline text and for the same text
    # as a file with one part per line.
    path = tmp_path / "seq.txt"
    for text in PARSE_CORPUS:
        assert _outcome(_read_ints, text, rank) == _outcome(_per_part_flat, text, rank), text
        path.write_text(text.replace(";", "\n"), encoding="utf-8")
        assert _outcome(_read_ints, str(path), rank, True) == _outcome(
            _per_part_flat, str(path), rank, True
        ), text
        if rank == 1:
            for args in (argparse.Namespace(seq=text, seq_file=None), argparse.Namespace(seq=None, seq_file=str(path))):
                assert _outcome(_cyclic_ints, args) == _outcome(_per_part_cyclic, args), text


@given(st.text(alphabet="019,; \t\n+-_x\u0661\x1c", max_size=24), st.sampled_from([1, 2, 3]))
@settings(max_examples=400)
def test_parse_raw_sequence_matches_the_per_part_reader_on_any_text(text, rank):
    assert _outcome(_read_ints, text, rank) == _outcome(_per_part_flat, text, rank)
    if rank == 1:
        args = argparse.Namespace(seq=text, seq_file=None)
        assert _outcome(_cyclic_ints, args) == _outcome(_per_part_cyclic, args)


# Texts beside the JSON reader's edges: tokens json.loads refuses or reads as
# no int, padding and line ends inside, a 4,300-digit int (the most int() and
# json.loads read) and one of 4,301 digits, and rows cut or joined wrongly.
AWKWARD_TOKENS = ["+1", "01", " 1", "1 ", "1\t", "-0", "-3", "1_0", "\uff13", "1.0", "1e3", "true", "null", '"1"',
                  "[1]", "1],[2", "9" * 4300, "9" * 4301]
AWKWARD_TEXTS = ["1 ,2", "1,\t2", "1\t,2", "1,\r2", "1\r,2", "1,\n2", "1\n,2", "1\n2", "1;\n;2", "1,;2", "1;;2", "1,2;",
                 "1;2;", ";1", "1,2;3", "1,2;3,4,5", "1,2,3;4,5", "1,,2;3,4", "-0,0;0,-0", "10,-3;257,0", "1],[2;3,4",
                 "[1,2];[3,4]", "1,2],[3,4"]


def _assert_reads_as_per_part(text, rank, path, crlf=False):
    """`text` inline and as a file (';' as line ends, CRLF if `crlf`) reads
    as the per-part reader reads it, ints or error text, and for rank 1 so
    does solve-cyclic's reader."""
    assert _outcome(_read_ints, text, rank) == _outcome(_per_part_flat, text, rank), (text, rank)
    path.write_bytes(text.replace(";", "\r\n" if crlf else "\n").encode())
    assert _outcome(_read_ints, str(path), rank, True) == _outcome(_per_part_flat, str(path), rank, True), (text, rank)
    if rank == 1:
        for args in (argparse.Namespace(seq=text, seq_file=None), argparse.Namespace(seq=None, seq_file=str(path))):
            assert _outcome(_cyclic_ints, args) == _outcome(_per_part_cyclic, args), (text, args)


@pytest.mark.parametrize("block", [1, 17, cli.WRITE_BLOCK])
def test_json_reader_matches_the_per_part_reader_on_awkward_texts(block, tmp_path):
    # The same ints or the same error text as reading each part alone, for
    # inline text, LF and CRLF files; and an echo, rows or solve-cyclic's flat
    # list, byte-equal to json.dumps of what was read, cut at any block size.
    path = tmp_path / "seq.txt"
    texts = [(t, r) for tok in AWKWARD_TOKENS for t in _token_texts(tok) for r in (1, 2, 3)]
    texts += [(t, r) for t in AWKWARD_TEXTS for r in (1, 2, 3)]
    echoed = 0
    with mock.patch.object(cli, "WRITE_BLOCK", block):
        for text, rank in texts:
            if block == cli.WRITE_BLOCK:
                _assert_reads_as_per_part(text, rank, path, crlf=len(text) % 2 == 0)
            group = {1: "6", 2: "6,2", 3: "2,2,2"}[rank]
            echoed += bool(_assert_echo_matches_rows(["oracle", "--group", group, "--seq", text]))
            if rank == 1:  # solve-cyclic over Z_n, n the count of what was read
                try:
                    n = str(len(_per_part_cyclic(argparse.Namespace(seq=text, seq_file=None))))
                except InputError:
                    n = "1"
                echoed += bool(_assert_echo_matches_rows(["solve-cyclic", "--n", n, "--seq", text]))
    assert echoed > 100  # most texts fit one rank only


def test_solve_json_shape(capsys):
    code, doc = run_json(capsys, "solve", "--group", "4", "--seq", "1,1,1,1")
    assert code == 0
    assert doc["exit_code"] == 0
    assert doc["results"]["indices"] == [1, 2, 3, 4]
    assert doc["results"]["ord_cost"] == 4
    assert doc["results"]["verified"] is True
    assert "moves" not in doc


def test_solve_trace_includes_moves(capsys):
    code, doc = run_json(capsys, "solve", "--group", "4", "--seq", "1,1,1,1", "--trace")
    assert code == 0
    assert len(doc["moves"]) == 3
    assert doc["moves"][0] == {
        "vertex_divisor": 4,
        "prime": 2,
        "weight": 2,
        "consumed": [1, 2],
        "selected": [1, 2],
        "new_id": 5,
    }


def test_solve_multi_factor(capsys):
    code, doc = run_json(capsys, "solve", "--group", "2,2", "--seq", "1,0;0,1;1,1;1,0")
    assert code == 0
    assert len(doc["results"]["indices"]) <= 2


def test_solve_zero_element(capsys):
    code, doc = run_json(capsys, "solve", "--group", "5", "--seq", "0,1,2,3,4")
    assert code == 0
    assert doc["results"]["indices"] == [1]


def test_solve_from_file(tmp_path, capsys):
    path = tmp_path / "seq.txt"
    path.write_text("1\n1\n1\n1\n")
    code, doc = run_json(capsys, "solve", "--group", "4", "--seq-file", str(path))
    assert code == 0
    assert doc["results"]["indices"] == [1, 2, 3, 4]
    assert doc["inputs"]["sequence"] == [[1], [1], [1], [1]]


def test_seq_file_on_every_sequence_command(tmp_path, capsys):
    path = tmp_path / "seq.txt"
    path.write_text("".join(f"{a}\n" for a in (1, 5, 3, 7, 2, 4, 6, 9, 10, 11, 8, 0)))
    code, doc = run_json(
        capsys, "verify", "--group", "12", "--seq-file", str(path), "--indices", "12"
    )
    assert code == 0
    assert doc["inputs"]["sequence"][11] == [0]
    code, doc = run_json(capsys, "solve-cyclic", "--n", "12", "--seq-file", str(path))
    assert code == 0
    assert doc["results"]["indices"] == [12]
    code, doc = run_json(capsys, "oracle", "--group", "12", "--seq-file", str(path))
    assert code == 0
    assert doc["results"]["min_cost"] == 2
    assert doc["results"]["witness"] == [2, 4]


def test_seq_and_seq_file_are_exclusive(tmp_path, capsys):
    path = tmp_path / "seq.txt"
    path.write_text("1\n1\n1\n1\n")
    assert main(["solve", "--group", "4", "--seq", "1,1,1,1", "--seq-file", str(path)]) == 2
    capsys.readouterr()
    assert main(["oracle", "--group", "4"]) == 2
    capsys.readouterr()
    assert main(["solve", "--group", "4", "--seq-file", str(tmp_path / "missing.txt")]) == 2
    assert "cannot read sequence file" in capsys.readouterr().err


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_seq_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys, json_flag):
    # A byte that is not UTF-8 is unreadable input (exit 2), not a traceback (exit 1).
    path = tmp_path / "seq.txt"
    path.write_bytes(b"\xff\n1\n1\n1\n")
    for argv in (["solve", "--group", "4"], ["solve-cyclic", "--n", "4"], ["oracle", "--group", "4"],
                 ["verify", "--group", "4", "--indices", "1"]):
        assert main(argv + ["--seq-file", str(path)] + json_flag) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"input error: cannot read sequence file {str(path)!r}: "), argv


def test_solve_cyclic_examples(capsys):
    code, doc = run_json(capsys, "solve-cyclic", "--n", "4", "--seq", "1,1,1,1")
    assert code == 0
    assert doc["results"]["indices"] == [1, 2, 3, 4]
    assert doc["results"]["gcd_sum"] == 4

    code, doc = run_json(capsys, "solve-cyclic", "--n", "3", "--seq", "0,5,7")
    assert code == 0
    assert doc["results"]["indices"] == [1]

    code, doc = run_json(capsys, "solve-cyclic", "--n", "6", "--seq", "2,3,2,3,2,3")
    assert code == 0
    assert doc["results"]["gcd_sum"] <= 6
    assert doc["results"]["residue_sum_mod_n"] == 0


def test_solve_cyclic_plans_where_greedy_stalls(capsys):
    # One stray pebble at divisor 2 and the rest at the top vertex of Z_210: the
    # greedy pass stalls and level elimination plans, where the old budgeted
    # search gave up with exit 3.
    seq = ",".join(["105"] + ["1"] * 209)
    code, doc = run_json(capsys, "solve-cyclic", "--n", "210", "--seq", seq)
    assert code == 0
    assert doc["results"]["fallback_fired"] is True
    indices = ",".join(map(str, doc["results"]["indices"]))
    code, doc = run_json(capsys, "verify", "--group", "210", "--seq", seq, "--indices", indices)
    assert code == 0 and doc["results"]["passed"]


def test_solve_cyclic_accepts_any_integers(capsys):
    # '=' keeps argparse from reading the leading minus as an option.
    code, doc = run_json(capsys, "solve-cyclic", "--n", "5", "--seq=-7,23,104,-1,0")
    assert code == 0
    assert doc["results"]["gcd_sum"] <= 5


def test_verify_round_trip(capsys):
    code, doc = run_json(
        capsys, "verify", "--group", "2,2", "--seq", "1,0;0,1;1,1;1,0", "--indices", "1,4"
    )
    assert code == 0
    assert doc["results"]["passed"] is True


def test_verify_order_condition_fails(capsys):
    code, doc = run_json(
        capsys, "verify", "--group", "2,2", "--seq", "1,0;0,1;1,1;1,0", "--indices", "1,2,3"
    )
    assert code == 1
    assert doc["results"]["passed"] is False
    assert doc["results"]["failures"]


def test_oracle_exit_codes(capsys):
    code, doc = run_json(capsys, "oracle", "--group", "4", "--seq", "1,1,1")
    assert code == 1
    assert doc["results"]["feasible"] is False

    code, doc = run_json(capsys, "oracle", "--group", "6", "--seq", "2,3,2,3,2,3")
    assert code == 0
    assert doc["results"]["min_cost"] == 6
    assert doc["results"]["qualifies"] is True


def test_pebbling_number_cli(capsys):
    for spec, expect in (("cube:2,2", 4), ("lattice:4", 4), ("path:3", 3)):
        code, doc = run_json(capsys, "pebbling-number", "--graph", spec)
        assert code == 0
        assert doc["results"]["pebbling_number"] == expect
        assert doc["results"]["witness_unsolvable"] is True


def test_pebbling_number_past_the_scan_bound_exits_2_at_once(capsys):
    # Pebbling number 128: the path's weight product already exceeds the bound 64.
    started = time.perf_counter()
    assert main(["pebbling-number", "--graph", "path:2,2,2,2,2,2,2"]) == 2
    err = capsys.readouterr().err
    assert err == "input error: pebbling number is at least 128, above the scan bound 64\n"
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize(
    "graph, final_round, pebbles, vertices",
    [
        ("path:2,2,2,2,2,2", 131115985, 64, 7),
        ("cube:2,2,2,2", 300540195, 16, 16),
        ("lattice:30", 10295472, 30, 8),
        ("lattice:24", 2629575, 24, 8),
    ],
)
def test_pebbling_number_refuses_an_oversized_scan_at_once(capsys, graph, final_round, pebbles, vertices):
    # Each lies under the scan bound of 64 pebbles, but its final round alone
    # has C(pebbles + vertices - 1, vertices - 1) distributions.
    started = time.perf_counter()
    assert main(["pebbling-number", "--graph", graph]) == 2
    assert capsys.readouterr().err == (
        f"input error: pebbling scan would visit at least {final_round} distributions "
        f"of {pebbles} pebbles on {vertices} vertices, above the bound 100000\n"
    )
    assert time.perf_counter() - started < 1.0


def test_davenport_cli(capsys):
    for group, expect in (("6", 6), ("2,2", 3), ("1", 1)):
        code, doc = run_json(capsys, "davenport", "--group", group)
        assert code == 0
        assert doc["results"]["davenport"] == expect
    code, doc = run_json(capsys, "davenport", "--group", "2,2", "--weighted")
    assert code == 0
    assert doc["results"]["davenport"] == 4


def test_davenport_work_bound_exits_2_at_once(capsys):
    for extra in ([], ["--weighted"]):
        started = time.perf_counter()
        assert main(["davenport", "--group", "32", *extra]) == 2
        assert time.perf_counter() - started < 2.0
        assert "work bound of 4000000 sums extended" in capsys.readouterr().err


def test_stress_draw_bound_exits_2_before_the_first_draw(capsys, monkeypatch):
    started = time.perf_counter()
    assert main(["stress", "--group", "100000007", "--trials", "1", "--oracle-limit", "0"]) == 2
    assert "trials x |G| = 1 x 100000007 elements, above the bound 1000000" in capsys.readouterr().err
    assert time.perf_counter() - started < 1.0
    assert main(["stress", "--group", "100000007", "--trials", "0"]) == 0
    monkeypatch.setattr(cli, "MAX_STRESS_ELEMENTS", 60)
    assert main(["stress", "--group", "30", "--trials", "3", "--oracle-limit", "0"]) == 2
    assert "above the bound 60" in capsys.readouterr().err
    assert main(["stress", "--group", "30", "--trials", "2", "--oracle-limit", "0"]) == 0
    capsys.readouterr()


def test_stress_zero_trials_is_vacuous(capsys):
    code, doc = run_json(capsys, "stress", "--group", "2,2,2", "--trials", "0", "--seed", "7")
    assert code == 0
    assert doc["results"]["trials"] == 0
    assert doc["results"]["failed"] == 0


def test_stress_small_battery(capsys):
    code, doc = run_json(capsys, "stress", "--group", "12", "--trials", "40", "--seed", "7")
    assert code == 0
    assert doc["results"]["passed"] == 40
    assert doc["results"]["oracle_checked"] == 40


def test_stress_catches_a_certificate_below_the_oracle_minimum(monkeypatch, capsys):
    # Each trial's certificate claims one below the exact minimum. The DP stops
    # at the claimed cost only when it reaches it, so here it runs exact; on
    # Z_8 at seed 2 three claims (3, 3 and 5) lie above the floor of 2.
    minima = []

    def too_cheap(root, dec, cols):
        minima.append(zerosum.dp_min_cost_zero_sum(dec, cols).min_cost)
        return engine.extract_certificate(root, dec, cols)._replace(ord_cost=minima[-1] - 1)

    monkeypatch.setattr(cli, "extract_certificate", too_cheap)
    code, doc = run_json(capsys, "stress", "--group", "8", "--trials", "8", "--seed", "2")
    assert code == 1 and doc["results"]["failed"] == 8 and minima == [2, 2, 4, 4, 2, 2, 2, 6]
    assert doc["results"]["failures"] == [
        f"trial {t}: certificate cost {m - 1} below the oracle minimum {m}" for t, m in enumerate(minima)
    ]


def test_stress_reports_an_oracle_without_a_qualifying_subsequence(monkeypatch, capsys):
    # The theorem makes both verdicts unreachable; a stand-in DP reaches
    # them: infeasible on trial 0, and a minimum above N (not qualifying) on
    # trial 2, so only the oracle-checked trials among the first three fail.
    verdicts = iter([OracleResult(False, None, (), False), OracleResult(True, 2, (1, 2), True),
                     OracleResult(True, 13, (1,), False)])
    seen = []
    monkeypatch.setattr(cli, "dp_min_cost_zero_sum", lambda dec, cols, stop, tables: seen.append(stop) or next(verdicts))
    code, doc = run_json(capsys, "stress", "--group", "12", "--trials", "4", "--seed", "5", "--oracle-limit", "3")
    assert code == 1 and len(seen) == 3
    assert doc["results"]["failures"] == [f"trial {t}: oracle found no qualifying subsequence" for t in (0, 2)]
    assert doc["results"]["passed"] == 2 and doc["results"]["failed"] == 2


def test_stress_json_is_byte_identical(capsys):
    args = ["stress", "--group", "2,2,2", "--trials", "25", "--seed", "11", "--json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("group, trials, oracle_limit", [("6,6", 130, 70), ("300", 31, 4), ("1", 7, 7)])
def test_stress_trials_are_the_same_for_any_block_size(monkeypatch, capsys, group, trials, oracle_limit):
    # stress draws and encodes STRESS_BLOCK coordinates at a time; one trial
    # a block, three (a remainder over `trials`) and the default give the
    # same JSON. Z_6+Z_6 spans several default blocks, Z_300 has list
    # columns, and Z_1 no invariant factor.
    dec = zerosum.primary_decomposition(zerosum.parse_group_spec(group))
    rank, coords = dec.spec.rank, dec.group_order * dec.spec.rank
    argv = ["stress", "--group", group, "--trials", str(trials), "--seed", str(2**64 - 1),
            "--oracle-limit", str(oracle_limit), "--json"]
    solve, seen = cli._solve_sequence, []
    monkeypatch.setattr(cli, "_solve_sequence", lambda dec, cols, **kw: seen.append(cols) or solve(dec, cols, **kw))
    outs = []
    for block in (1, 3 * coords, cli.STRESS_BLOCK):
        monkeypatch.setattr(cli, "STRESS_BLOCK", block)
        seen.clear()
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]
    # The default run's trials hold the one-step reference draws, |G| x rank a trial in turn.
    draws, _ = _splitmix64_steps(2**64 - 1, dec.spec.cyclic_orders * (dec.group_order * trials))
    assert [list(map(list, cols)) for cols in seen] == [
        list(map(list, zerosum.encode_sequence([draws[lo + f:lo + coords:rank] for f in range(rank)], dec)))
        for lo in range(0, len(draws), coords)
    ]


def test_solve_json_is_byte_identical(capsys):
    seq = ";".join(f"{i % 9},{(i * 5) % 3}" for i in range(27))
    args = ["solve", "--group", "9,3", "--seq", seq, "--json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_a_solve_rechecks_its_certificate_once(monkeypatch, capsys):
    # extract_certificate recomputes the sum and cost of K from the elements;
    # _solve_sequence does not recompute them a second time.
    monkeypatch.delenv("ZEROSUM_DEBUG", raising=False)
    calls = []
    recompute = engine._recompute
    monkeypatch.setattr(engine, "_recompute", lambda *args: calls.append(args[2]) or recompute(*args))
    assert main(["solve", "--group", "6,2", "--seq", ";".join(["1,1"] * 12), "--json"]) == 0
    indices = json.loads(capsys.readouterr().out)["results"]["indices"]
    assert calls == [tuple(indices)]
    calls.clear()
    assert main(["stress", "--group", "6,2", "--trials", "3", "--oracle-limit", "0"]) == 0
    capsys.readouterr()
    assert len(calls) == 3


def test_solve_cyclic_cross_check_reports_the_configuration(monkeypatch, capsys):
    # A certificate whose order cost disagrees with the gcd form is a solver
    # bug: exit 3, with the group and count profile of the finished solve.
    extract = cli.extract_certificate

    def off_by_one(*args):
        cert = extract(*args)
        return cert._replace(ord_cost=cert.ord_cost + 1)

    monkeypatch.setattr(cli, "extract_certificate", off_by_one)
    assert main(["solve-cyclic", "--n", "8", "--seq", "4,4,4,4,4,4,2,2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "internal invariant violation: gcd form disagrees with the order-cost form: group 8, count profile 1:1 2:5\n"
    )


def test_pebbling_witness_check_names_the_graph_witness_and_target(monkeypatch, capsys):
    monkeypatch.setattr(cli, "solvable", lambda *args: True)
    assert main(["pebbling-number", "--graph", "path:2,3"]) == 3
    assert capsys.readouterr().err == (
        "internal invariant violation: pebbling witness is solvable; scan is broken: "
        "graph path:2,3, witness [5, 0, 0], target 2\n"
    )


def test_exit_code_input_errors(capsys):
    assert main(["solve", "--group", "x", "--seq", "1"]) == 2
    capsys.readouterr()
    assert main(["solve", "--group", "4", "--seq", "1,1,1"]) == 2
    capsys.readouterr()
    assert main(["verify", "--group", "4", "--seq", "1,1,1,1", "--indices", "9"]) == 2
    capsys.readouterr()
    assert main(["pebbling-number", "--graph", "torus:2"]) == 2
    capsys.readouterr()
    assert main(["pebbling-number", "--graph", "cube:1,2"]) == 2
    capsys.readouterr()
    assert main(["davenport", "--group", "32"]) == 2
    capsys.readouterr()
    assert main(["stress", "--group", "4", "--trials", "-1"]) == 2
    capsys.readouterr()
    assert main(["stress", "--group", "4", "--trials", "2", "--oracle-limit", "-1"]) == 2
    assert "oracle limit must be nonnegative, got -1" in capsys.readouterr().err


def test_oracle_work_bound_exits_2_at_once(capsys):
    started = time.perf_counter()
    assert main(["oracle", "--group", "100000007", "--seq", "1,2"]) == 2
    assert "above the bound" in capsys.readouterr().err
    assert main(["stress", "--group", "3000", "--trials", "1"]) == 2
    assert "above the bound" in capsys.readouterr().err
    assert time.perf_counter() - started < 1.0
    # Without oracle checks the stress battery has no DP to bound.
    assert main(["stress", "--group", "3000", "--trials", "0"]) == 0
    capsys.readouterr()


def test_oracle_refuses_an_over_bound_input_before_reading_or_encoding_it(monkeypatch, capsys, tmp_path):
    # With |G| above MAX_DP_WORK every nonempty input is over the bound, so
    # the file is never opened: a missing one gives the DP-work error.
    assert main(["oracle", "--group", "9699690", "--seq-file", str(tmp_path / "missing.txt")]) == 2
    err = capsys.readouterr().err
    assert "zero-sum DP work" in err and "above the bound 8000000" in err and "cannot read" not in err
    # Otherwise the parsed length is checked before the sequence is encoded.
    calls = []
    encode = cli.encode_sequence
    monkeypatch.setattr(cli, "encode_sequence", lambda *args: calls.append(args) or encode(*args))
    monkeypatch.setattr("zerosum.oracle.MAX_DP_WORK", 11)
    assert main(["oracle", "--group", "4", "--seq", "1,1,1"]) == 2
    assert "3 items x |G| = 4 is 12, above the bound 11" in capsys.readouterr().err
    assert calls == []
    assert main(["oracle", "--group", "4", "--seq", "1,3"]) == 0
    capsys.readouterr()
    assert len(calls) == 1 and list(map(list, calls[0][0])) == [[1, 3]]


def test_solve_refuses_an_oversized_group_before_reading_the_sequence(capsys, tmp_path):
    # A solve reads |G| elements, so with |G| above MAX_SOLVE_ELEMENTS the
    # file is never opened: a missing one gives the bound's error.
    missing = str(tmp_path / "missing.txt")
    for argv, order in [
        (["solve-cyclic", "--n", "2147483647"], 2147483647),
        (["solve", "--group", "4096,4097"], 4096 * 4097),
    ]:
        assert main([*argv, "--seq-file", missing]) == 2
        err = capsys.readouterr().err
        assert err == f"input error: a solve reads |G| = {order} elements, above the bound 10000000\n"
    # At or below the bound the sequence is read as before.
    for n in ("12", "10000000"):
        assert main(["solve-cyclic", "--n", n, "--seq-file", missing]) == 2
        assert "cannot read sequence file" in capsys.readouterr().err


@pytest.mark.parametrize("refused, message", [
    (lambda: main(["solve-cyclic", "--n", "0", "--seq", "1"]), "modulus must be positive, got 0"),
    (lambda: zerosum.group_spec(()), "group spec needs at least one cyclic factor"),
    (lambda: zerosum.weighted_boolean_cube(()), "cube needs at least one weight"),
    (lambda: zerosum.path_graph(()), "path needs at least one weight"),
], ids=["solve-cyclic-n-0", "group_spec", "weighted_boolean_cube", "path_graph"])
def test_empty_or_zero_inputs_are_refused_as_input_errors(capsys, refused, message):
    # A command exits 2 with the message on stderr; a library call raises it.
    try:
        assert refused() == 2
    except InputError as exc:
        assert str(exc) == message
    else:
        assert capsys.readouterr().err == f"input error: {message}\n"


@pytest.mark.parametrize("cmd", [["solve", "--group", "4,2"], ["solve-cyclic", "--n", "8"]])
def test_trace_builds_only_the_form_main_prints(cmd):
    # --json prints the move log and text output the trace lines; the report
    # holds only the one that is printed.
    seq = ";".join(["1,1"] * 8) if cmd[0] == "solve" else ",".join(["1"] * 8)
    for extra in ([], ["--json"]):
        args = cli.build_parser().parse_args(cmd + ["--seq", seq, "--trace"] + extra)
        report = args.func(args)
        assert report.results["moves_applied"] > 0
        if extra:
            assert "trace:" not in report.lines and len(report.moves) == report.results["moves_applied"]
        else:
            assert report.moves is None and "trace:" in report.lines


def test_a_traced_solve_without_moves_prints_an_empty_move_log(capsys):
    # The sequence holds the identity, so the solve makes no move.
    assert main(["solve", "--group", "2,2", "--seq", "1,0;0,1;1,1;0,0", "--trace", "--json"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["moves"] == [] and doc["results"]["moves_applied"] == 0
    assert out == json.dumps(doc, indent=2) + "\n"


def test_argparse_failures_map_to_input_error(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    assert main(["solve", "--group", "4"]) == 2
    capsys.readouterr()
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_subprocess_entry_points():
    done = run_cli("solve", "--group", "4", "--seq", "1,1,1,1")
    assert done.returncode == 0
    assert "verify: PASS" in done.stdout
    assert "elapsed" in done.stdout

    done = run_cli("oracle", "--group", "4", "--seq", "1,1,1")
    assert done.returncode == 1
    assert "infeasible" in done.stdout

    done = run_cli("solve", "--group", "4", "--seq", "nope")
    assert done.returncode == 2
    assert "input error" in done.stderr


def test_closed_pipe_exits_cleanly():
    # The trace runs to over 200 kB, more than a pipe buffer holds after the reader leaves.
    seq = ",".join(["1"] * 2000)
    # A Z_2^12 solve's JSON echoes 4,096 rows in about 0.6 MB, written a block at
    # a time, so the pipe closes between two writes of the echo.
    z2 = ";".join(",".join(str((k >> j) & 1) for j in range(12)) for k in range(4096))
    for argv in (["solve-cyclic", "--n", "2000", "--seq", seq, "--trace", "--json"],
                 ["solve-cyclic", "--n", "2000", "--seq", seq, "--trace"],
                 ["solve", "--group", ",".join(["2"] * 12), "--seq", z2, "--json"]):
        proc = subprocess.Popen(
            CLI + argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=CLI_ENV,
        )
        proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == 0
        assert "Traceback" not in err and "BrokenPipeError" not in err


def test_console_script_installed():
    done = subprocess.run(
        ["zerosum", "solve", "--group", "2,2", "--seq", "1,0;0,1;1,1;1,0", "--json"],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0
    doc = json.loads(done.stdout)
    assert doc["results"]["verified"] is True


# Report-shaped values: str keys; nested dicts, lists and tuples, empty ones
# at any depth; ints of any sign and size; all-int, all-bool and mixed lists;
# None; strings with quotes, backslashes, control and non-ASCII characters;
# input echoes, as rows or flat, at any depth.
_texts = st.text() | st.text(alphabet='"\\/\x00\x08\t\n\x1f\x7f\u00e9\u2028\U0001f600 ab')
_ints = st.integers() | st.integers(-(10**40), 10**40)


@st.composite
def _sequence_echoes(draw):
    """A `SequenceEcho` of rows of one rank, or a flat one (rank 1), its
    canonical element texts joined by ';' a few rows to a text, as the parser
    gives them."""
    rank = draw(st.integers(1, 3))
    flat = rank == 1 and draw(st.booleans())
    rows = draw(st.lists(st.lists(st.integers(-300, 300), min_size=rank, max_size=rank), min_size=1, max_size=6))
    texts = [",".join(map(str, row)) for row in rows]
    cuts = sorted(draw(st.sets(st.integers(1, len(texts) - 1)))) if len(texts) > 1 else []
    return cli.SequenceEcho([";".join(texts[a:b]) for a, b in zip([0, *cuts], [*cuts, len(texts)])], flat)


_leaves = (
    st.none()
    | st.booleans()
    | _ints
    | _texts
    | st.lists(_ints)
    | st.lists(st.booleans())
    | st.lists(_ints | st.booleans())
    | st.lists(_ints).map(tuple)
    | _sequence_echoes()
)
_reports = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(_texts, inner, max_size=5),
    max_leaves=25,
)


def _plain(value):
    """`value` as `json.dumps` takes it: a `SequenceEcho` as its list of rows,
    or of ints if flat, read from its canonical texts."""
    if type(value) is cli.SequenceEcho:
        rows = [list(map(int, row.split(","))) for row in ";".join(value.texts).split(";")]
        return [x for (x,) in rows] if value.flat else rows
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(map(_plain, value))
    return value


def render_json(value) -> str:
    """`_render`'s chunks for `value` at the top level, joined."""
    cli._render(value, "", out := [])
    return "".join(out)


@given(_reports, st.sampled_from([1, 2, 3, 17, 100, 1000, cli.WRITE_BLOCK]))
@settings(max_examples=200)
def test_render_json_matches_indented_dumps(value, block):
    # An echo is cut into pieces of about `block` characters, whatever its depth.
    expected = json.dumps(_plain(value), indent=2)
    with mock.patch.object(cli, "WRITE_BLOCK", block):
        assert render_json(value) == expected


def test_render_json_edge_shapes():
    for value in [[], {}, (), [[]], {"a": {}}, [[], {}, ()], {"": [True, 1]}, [0, -1, 2**70], "é\"\\"]:
        assert render_json(value) == json.dumps(value, indent=2)
    # Flat int lists, each written as a flat echo of its ints' texts, and the
    # shapes next to them that must not take it: a bool prints `true`, not `1`.
    for value in [[0, -1, -(2**70), 2**70, 10**40, -(10**40)], (0, -7, 10**40), [1, True], [True, 1]]:
        assert render_json(value) == json.dumps(value, indent=2)
    # Lists of int rows, which recurse into one flat echo per row (lengths,
    # lists and tuples mixed), and the shapes next to them: an empty row, a bool.
    for value in [
        [[1], []], [[1, 2], (3,)], [[True], [1]], [[1, True], [2, 3]], [[0, 0], [0, 0]], [[2**70]],
        [[1, 2, 3], [4], (5, 6), [7, 8, 9, 10], (11,)], [[0], [-1], (2**70,), [10**40]], {"s": [[-1, 0], (5,)]},
    ]:
        assert render_json(value) == json.dumps(value, indent=2)


def test_render_json_templates_at_scale():
    # A 30,030-int list, alone and nested.
    flat = [k * 7919 % 30030 - 15015 for k in range(30030)]
    for value in (flat, {"sequence": flat}):
        assert render_json(value) == json.dumps(value, indent=2)


class _RecordingSink(io.StringIO):
    """A stdout that keeps the length of every write."""

    def __init__(self):
        super().__init__()
        self.writes: list[int] = []

    def write(self, text):
        self.writes.append(len(text))
        return super().write(text)


def _assert_echo_matches_rows(argv) -> list[int]:
    """`main`'s --json output for argv is json.dumps of its envelope with the
    input echo as the rows of the parsed coordinates, one list per element
    (for solve-cyclic the ints as one list); input that the parser refuses
    prints nothing. Returns the write lengths."""
    with contextlib.redirect_stdout(_RecordingSink()) as sink, contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + ["--json"])
    out = sink.getvalue()
    if code == 2:
        assert out == ""
        return sink.writes
    doc = json.loads(out)
    args = cli.build_parser().parse_args(argv)
    if args.cmd == "solve-cyclic":  # a flat list
        rows = list(cli.sequence_argument(args, 1, True)[0])
    else:
        rank = zerosum.parse_group_spec(args.group).rank
        ints = cli.sequence_argument(args, rank)[0]
        rows = [list(row) for row in zip(*[iter(ints)] * rank)]
    assert doc["inputs"]["sequence"] == rows
    _assert_same_text(out, json.dumps({**doc, "inputs": {**doc["inputs"], "sequence": rows}}, indent=2) + "\n")
    return sink.writes


def _assert_same_text(out: str, expected: str) -> None:
    if out != expected:  # named by the first difference: pytest's diff of megabyte texts takes minutes
        at = next(k for k, (a, b) in enumerate(zip(out + "\0", expected + "\1")) if a != b)
        near = slice(max(at - 40, 0), at + 40)
        pytest.fail(f"output differs at char {at}: {out[near]!r} != {expected[near]!r}")


# Tokens that int() reads but that are not single digits: not canonical, negative or large.
ECHO_TOKENS = ["01", "+1", " 1", "-0", "-3", "257", str(2**70)]


def _echo_cases(tmp_path):
    """Commands whose echo comes from each of the parser's three sources: a
    text read as bytes, a canonical text read as JSON, and ints spelled when
    rendered."""
    texts = ["1,0;0,1;1,1;1,0"] + [f"1,0;0,{tok};1,1;{tok},0" for tok in ECHO_TOKENS]
    for text in texts:
        yield ["solve", "--group", "2,2", "--seq", text]
        yield ["verify", "--group", "2,2", "--seq", text, "--indices", "1,2,3"]
        yield ["oracle", "--group", "4,2", "--seq", text]
    # Rank 1, split by ',' and by ';', canonical and not; tokens of two and three digits.
    for text in ["1,1,1,1", "1;1;1;1", "1,01,-3,257", f"1;+1;-0;{2**70}", "10,1,200,3", "10;1;200;3"]:
        yield ["solve", "--group", "4", "--seq", text]
        yield ["oracle", "--group", "6", "--seq", text]
    yield ["oracle", "--group", "12,2", "--seq", "10,1;11,0;1,1;0,1;5,0"]
    # Files: blank lines, CRLF line ends, a trailing newline, padding.
    path = tmp_path / "seq.txt"
    for body in ["1,0\n\n0,1\n1,1\n\n1,0\n", "1,0\r\n0,1\r\n1,1\r\n1,0\r\n", "1,0\n0,1\n1,1\n1,0",
                 " 1,0\n0 ,1\n01,1\n1,+0\n"]:
        path.write_bytes(body.encode())
        yield ["solve", "--group", "2,2", "--seq-file", str(path)]
        yield ["verify", "--group", "2,2", "--seq-file", str(path), "--indices", "2"]
        yield ["oracle", "--group", "2,2", "--seq-file", str(path)]


def test_sequence_echo_matches_the_rows_of_the_parsed_ints(tmp_path):
    for argv in _echo_cases(tmp_path):
        _assert_echo_matches_rows(argv)


def _echo_source(argv) -> str:
    """Which of the parser's three sources an echo comes from: a text read as
    bytes, a canonical text read as JSON, or ints spelled when rendered."""
    args = cli.build_parser().parse_args(argv)
    value = args.seq_file if args.seq_file is not None else args.seq
    ints, texts = parse_raw_sequence(value, zerosum.parse_group_spec(args.group).rank, args.seq_file is not None)
    return "bytes" if type(ints) is bytes else "ints" if texts is None else "text"


@pytest.mark.parametrize("block", [1, 2, 3, 17, 100, 1000])
def test_sequence_echo_matches_the_rows_in_pieces_of_any_size(tmp_path, block):
    # WRITE_BLOCK also sets where an echo is cut: in pieces of one character
    # (blocks below the row separator's length) or of a few, a cut falls
    # inside a token, before and after a separator, and every write is small.
    cases = list(_echo_cases(tmp_path))
    assert {_echo_source(argv) for argv in cases} == {"bytes", "text", "ints"}
    with mock.patch.object(cli, "WRITE_BLOCK", block):
        for argv in cases:
            _assert_echo_matches_rows(argv)


def test_sequence_echo_at_scale():
    # The echo of a Z_2^14 verify, 16,384 rows of 14, from the text itself
    # (read as bytes) and, with one token not a single digit, from the ints.
    text = ";".join(",".join(str((k >> j) & 1) for j in range(14)) for k in range(16384))
    group = ",".join(["2"] * 14)
    _assert_echo_matches_rows(["verify", "--group", group, "--seq", text, "--indices", "1"])
    _assert_echo_matches_rows(["verify", "--group", group, "--seq", "01" + text[1:], "--indices", "1"])


_ECHO_GROUPS = {1: "6", 2: "3,2", 3: "2,2,2"}


@st.composite
def _echo_inputs(draw):
    """(group, text): rows of the group's rank, half of them single digits
    without padding (a text read as bytes), the rest of tokens of any length,
    canonical or not, or padded; or now and then any text at all."""
    rank = draw(st.sampled_from(sorted(_ECHO_GROUPS)))
    if draw(st.integers(0, 4)) == 0:
        return _ECHO_GROUPS[rank], draw(st.text(alphabet="0129,; \t\n+-", max_size=30))
    if draw(st.booleans()):  # single digits, no padding: the text read as bytes
        pad, core = st.just(""), st.sampled_from("0123456789")
    else:
        pad = st.sampled_from(["", "", "", " ", "\t"])
        core = st.sampled_from(["0", "1", "2", "9", "256"] + ECHO_TOKENS) | st.integers(-300, 300).map(str)
    token = st.tuples(pad, core, pad)
    rows = draw(st.lists(st.lists(token.map("".join), min_size=rank, max_size=rank), min_size=1, max_size=6))
    sep = draw(st.sampled_from([",", ";"])) if rank == 1 else ";"
    return _ECHO_GROUPS[rank], sep.join(map(",".join, rows))


@given(_echo_inputs())
@settings(max_examples=150, deadline=None)
def test_sequence_echo_matches_the_rows_on_any_text(case):
    group, text = case
    _assert_echo_matches_rows(["oracle", "--group", group, "--seq", text])


@given(_echo_inputs(), st.sampled_from([1, 2, 3, 17, 100, 1000]))
@settings(max_examples=100, deadline=None)
def test_sequence_echo_matches_the_rows_on_any_text_in_pieces_of_any_size(case, block):
    group, text = case
    with mock.patch.object(cli, "WRITE_BLOCK", block):
        _assert_echo_matches_rows(["oracle", "--group", group, "--seq", text])


def test_main_writes_a_report_in_pieces_of_about_one_block():
    # A Z_2^14 solve's JSON, 2.8 MB, and a Z_30030 solve-cyclic's trace, as
    # 21,185 lines of text and in its 5.1 MB JSON: no write is over two
    # blocks, and each write but the last is a block or more, so there are
    # about as many writes as blocks.
    block = cli.WRITE_BLOCK
    z2 = ";".join(",".join(str((k >> j) & 1) for j in range(14)) for k in range(16384))
    writes = _assert_echo_matches_rows(["solve", "--group", ",".join(["2"] * 14), "--seq", z2])
    assert sum(writes) > 40 * block
    assert max(writes) <= 2 * block and len(writes) <= sum(writes) // block + 2
    units = [k for k in range(1, 30030) if math.gcd(k, 30030) == 1]
    argv = ["solve-cyclic", "--n", "30030", "--seq", ",".join(str(units[k * 7919 % len(units)]) for k in range(30030)),
            "--trace"]
    with contextlib.redirect_stdout(_RecordingSink()) as sink:
        assert main(argv) == 0
    *lines, elapsed = sink.getvalue().split("\n")[:-1]
    args = cli.build_parser().parse_args(argv)
    assert lines == args.func(args).lines and len(lines) > 20_000
    assert elapsed.startswith("elapsed ") and elapsed.endswith(" ms")
    writes = sink.writes
    assert sum(writes) > 30 * block
    assert max(writes) <= 2 * block and len(writes) <= sum(writes) // block + 2
    with contextlib.redirect_stdout(_RecordingSink()) as sink:
        assert main(argv + ["--json"]) == 0
    writes = sink.writes
    assert sum(writes) > 70 * block
    assert max(writes) <= 2 * block and len(writes) <= sum(writes) // block + 2
    _assert_same_text(out := sink.getvalue(), json.dumps(json.loads(out), indent=2) + "\n")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["solve", "--group", "4", "--seq", "1,1,1,1"], 0),
        (["solve", "--group", "4", "--seq", "1,1,1"], 2),
        (["solve", "--group", "4", "--seq", "1,2,3,1"], 3),
        (["nosuch"], 2),
    ],
)
@pytest.mark.parametrize("caller_enabled", [True, False])
def test_main_pauses_gc_and_restores_the_callers_setting(monkeypatch, capsys, argv, code, caller_enabled):
    seen = []
    solve = cli.solve_to_root

    def solve_seeing_gc(conf):
        seen.append(gc.isenabled())
        if conf.cols[0][2] == 2:
            raise InternalInvariantError("forced for the test")
        return solve(conf)

    monkeypatch.setattr(cli, "solve_to_root", solve_seeing_gc)
    was = gc.isenabled()
    try:
        gc.enable() if caller_enabled else gc.disable()
        assert main(argv) == code
        assert gc.isenabled() is caller_enabled
    finally:
        gc.enable() if was else gc.disable()
    capsys.readouterr()
    assert seen == ([False] if code in (0, 3) else [])


def test_main_restores_gc_when_a_command_crashes(monkeypatch):
    def crash(conf):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(cli, "solve_to_root", crash)
    assert gc.isenabled()
    with pytest.raises(RuntimeError):
        main(["solve", "--group", "4", "--seq", "1,1,1,1"])
    assert gc.isenabled()


def _peak_rss_kb(argv: list[str], pause_gc: bool = True) -> int:
    """ru_maxrss (kB) of a fresh interpreter running one `main(argv)`.

    With pause_gc false, `main`'s call to gc.disable is a no-op, so the
    collector runs as it would without the pause. Linux keeps the high-water
    mark across exec, so the measured interpreter is started from a small
    one, not from the test process.
    """
    body = (
        "import contextlib, gc, io, resource\n"
        "from zerosum.cli import main\n"
        + ("" if pause_gc else "gc.disable = lambda: None\n")
        + "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    launcher = (
        "import subprocess, sys\n"
        "sys.exit(subprocess.run([sys.executable, '-c', sys.argv[1]]).returncode)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", launcher, body], capture_output=True, text=True, env=CLI_ENV
    )
    assert done.returncode == 0, done.stderr
    return int(done.stdout)


def _stress_peak_rss_kb(trials: int) -> int:
    return _peak_rss_kb(
        ["stress", "--group", "60", "--trials", str(trials), "--oracle-limit", "0", "--json"]
    )


def test_stress_memory_does_not_grow_with_trials_while_gc_is_paused():
    # Reference counting alone frees each trial's merge tree.
    assert abs(_stress_peak_rss_kb(1000) - _stress_peak_rss_kb(10)) <= 2048


def test_pebbling_scan_memory_is_the_same_with_gc_paused():
    # cube:2,2,2 makes thousands of solvability searches; were the search a
    # closure that calls itself, each would leave a reference cycle, about
    # 15 MB in all with the collector paused.
    argv = ["pebbling-number", "--graph", "cube:2,2,2", "--json"]
    assert abs(_peak_rss_kb(argv) - _peak_rss_kb(argv, pause_gc=False)) <= 2048


def _cyclic_garbage(argv: list[str]) -> int:
    """Objects in reference cycles that one `main(argv)` call leaves behind,
    once the process has its argument parser."""
    cli.build_parser()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        main(argv)
        gc.collect()
        return len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


_STALL_210 = ",".join(["105"] + ["1"] * 209)
_ONES_210 = ",".join(["1"] * 210)
_ALL_210 = ",".join(map(str, range(1, 211)))
_Z2_4 = ";".join(",".join(str(i >> b & 1) for b in range(4)) for i in range(1, 16)) + ";1,0,0,0"


@pytest.mark.parametrize(
    "small, large",
    [
        (
            ["solve", "--group", "4", "--seq", "1,1,1,1", "--trace"],
            ["solve", "--group", "210", "--seq", _STALL_210, "--trace"],
        ),
        (["solve", "--group", "2", "--seq", "1,1"], ["solve", "--group", "2,2,2,2", "--seq", _Z2_4]),
        (
            ["solve-cyclic", "--n", "4", "--seq", "1,1,1,1"],
            ["solve-cyclic", "--n", "210", "--seq", _STALL_210],
        ),
        (
            ["verify", "--group", "4", "--seq", "1,1,1,1", "--indices", "1,2,3,4"],
            ["verify", "--group", "210", "--seq", _ONES_210, "--indices", _ALL_210],
        ),
        (["oracle", "--group", "4", "--seq", "1,1,1,1"], ["oracle", "--group", "210", "--seq", _ONES_210]),
        (["stress", "--group", "6", "--trials", "1"], ["stress", "--group", "60", "--trials", "40"]),
        (["davenport", "--group", "2"], ["davenport", "--group", "3,3"]),
        (["davenport", "--group", "2", "--weighted"], ["davenport", "--group", "2,4", "--weighted"]),
        (["pebbling-number", "--graph", "path:2"], ["pebbling-number", "--graph", "cube:2,2,2"]),
    ],
)
def test_commands_leave_no_cycles_that_grow_with_their_input(capsys, small, large):
    # The parser is built once per process, and no command leaves cyclic
    # garbage after that, so pausing the collector costs no memory.
    assert _cyclic_garbage(small) == 0
    assert _cyclic_garbage(large) == 0
    capsys.readouterr()


def test_one_parser_serves_every_call(capsys):
    # An argparse error, --help and an input error leave nothing in the shared
    # parser that changes a later call's output.
    assert cli.build_parser() is cli.build_parser()
    calls = [
        (["solve", "--group"], 2),
        (["--help"], 0),
        (["solve", "--group", "4", "--seq", "1,1,1"], 2),
        (["solve", "--group", "210", "--seq", _STALL_210, "--trace", "--json"], 0),
    ]
    seen = []
    for argv, code in calls + calls:
        assert main(argv) == code
        seen.append(capsys.readouterr())
    assert seen[:4] == seen[4:]
    assert json.loads(seen[3].out)["results"]["fallback_fired"] is True


def test_startup_imports_neither_dataclasses_nor_inspect():
    # Both cost about 9 ms at every launch; the records are NamedTuples
    # instead. Only what zerosum imports counts: the modules a bare
    # interpreter holds under the same environment (a site .pth file may
    # import some) are taken away.
    probe = "import sys\n{}print(sorted(sys.modules))\n"
    modules = []
    for code in (probe.format(""), probe.format("import zerosum.cli\nzerosum.cli.build_parser()\n")):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=CLI_ENV)
        assert done.returncode == 0, done.stderr
        modules.append(set(ast.literal_eval(done.stdout)))
    added = modules[1] - modules[0]
    assert "zerosum.cli" in added
    assert not {"dataclasses", "inspect"} & added, sorted(added)


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _readme_block(heading: str, fence: str = "```") -> str:
    """The first code block under the README's `## heading`, opened by `fence`."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return text.split(f"## {heading}\n\n{fence}\n", 1)[1].split("```", 1)[0]


def test_readme_command_line_block_runs_and_names_every_subcommand(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "seq.txt").write_text("1\n3\n5\n7\n9\n", encoding="utf-8")
    argvs = [shlex.split(line, comments=True) for line in _readme_block("Command line").splitlines()]
    for argv in argvs:
        assert argv[0] == "zerosum"
        assert main(argv[1:]) == 0, (argv, capsys.readouterr())
    capsys.readouterr()
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert {argv[1] for argv in argvs} == set(sub.choices)


def test_readme_library_block_runs_and_every_exported_name_resolves():
    # The "Library" block is run as written, so the README cannot describe
    # a signature the package no longer has.
    exec(compile(_readme_block("Library", "```python"), "README.md", "exec"), {})
    missing = [name for name in zerosum.__all__ if not hasattr(zerosum, name)]
    assert not missing


def _readme() -> str:
    with open(README, encoding="utf-8") as fh:
        return fh.read()


PACKAGE = pathlib.Path(zerosum.__file__).parent


def _code_names(text: str) -> set[str]:
    """The parts with an underscore or in camel case of every backticked Python
    name in `text`: bare (`MoveLog`), called (`draw(moduli)`) or dotted
    (`conf.move_log`, `MoveLog.__iter__`)."""
    spans = re.findall(r"`([A-Za-z_][\w.]*\w)(?:\([^`]*\))?`", text)
    return {n for span in spans for n in span.split(".") if "_" in n or re.search("[a-z][A-Z]", n)}


def _imported_modules() -> list:
    """Every module that a file of src/zerosum/ imports, other than the package's own."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names.add(node.module)
    return [importlib.import_module(name) for name in sorted(names)]


def test_readme_names_only_code_that_exists():
    # Every such name in the README is defined in the package (a def, a
    # class, a NamedTuple field, a module-level assignment or a `self.`
    # assignment) or is an attribute of a module the package imports, so
    # prose cannot outlive the code it describes.
    assert _code_names("`below(n)`, `conf.move_log`, `MoveLog.__iter__`, `best[s]`, `a=b`") == {
        "move_log", "MoveLog", "__iter__"}
    names = _code_names(_readme())
    source = "".join(p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py")))
    assert {"invariant_factors", "level_moduli", "MAX_DP_WORK"} <= names and len(names) >= 30
    # A NamedTuple field is an indented annotation that does not end in a
    # comma, as a parameter of a wrapped signature does.
    forms = [r"^\s*(def|class)\s+{}\b", r"^{}\s*(:[^=\n]*)?=", r"^    {}: .*[^,\n]$", r"\bself\.{}\b[\w., ]*=(?!=)"]
    modules = _imported_modules()
    assert any(hasattr(m, "encode_basestring_ascii") for m in modules)  # json.encoder, a submodule
    missing = [n for n in sorted(names) if not any(re.search(f.format(re.escape(n)), source, re.M) for f in forms)
               and not any(hasattr(m, n) for m in modules)]
    assert not missing


def test_readme_describes_every_option_and_every_work_bound():
    text = _readme()
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {o for parser in sub.choices.values() for action in parser._actions for o in action.option_strings}
    assert {"-h", "--help", "--json", "--seq-file", "--oracle-limit"} <= options
    missing = [o for o in sorted(options) if not re.search(rf"(?<![\w-]){re.escape(o)}(?![\w-])", text)]
    assert not missing
    # Each module-level MAX_* constant, by name and value on one line.
    bounds = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module("zerosum" if path.stem == "__init__" else f"zerosum.{path.stem}")
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                bounds.update((t.id, getattr(module, t.id)) for t in node.targets
                              if isinstance(t, ast.Name) and t.id.startswith("MAX_"))
    assert len(bounds) >= 8
    lines = text.splitlines()
    missing = [n for n, v in sorted(bounds.items()) if not any(f"`{n}`" in line and f"{v:,}" in line for line in lines)]
    assert not missing


def test_readme_names_only_files_that_exist():
    # Files and tests named as the source of a figure or a contract.
    root = pathlib.Path(README).parent
    refs = set(re.findall(r"BENCH_\d+\.json|CHANGES\.md|ROADMAP\.md|(?:tests|src/zerosum|perfbench)/[\w./]*\w(?:::\w+)?",
                          _readme()))
    assert len(refs) >= 10
    missing = []
    for ref in sorted(refs):
        path, _, test = ref.partition("::")
        if not (root / path).is_file() or test and not re.search(rf"^def {test}\(", (root / path).read_text("utf-8"), re.M):
            missing.append(ref)
    assert not missing


def test_readme_names_every_slow_test():
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    done = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q", "-m", "slow", "-p", "no:cacheprovider",
                           tests_dir], capture_output=True, text=True, env=CLI_ENV, cwd=os.path.dirname(tests_dir))
    ids = [line for line in done.stdout.splitlines() if "::" in line]
    assert len(ids) >= 3, done.stdout
    text = _readme()
    missing = []
    for node_id in ids:  # a parametrized case is named by its test and by its backticked parameter
        test, _, param = node_id.partition("[")
        if test not in text or param and f"`{param[:-1]}`" not in text:
            missing.append(node_id)
    assert not missing
