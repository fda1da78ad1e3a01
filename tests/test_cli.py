"""Command-line behavior: parsing rules, exit codes, JSON stability."""

from __future__ import annotations

import argparse
import gc
import json
import os
import shlex
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zerosum
from zerosum import InternalInvariantError, cli
from zerosum.cli import SplitMix64, main, parse_indices, parse_raw_sequence, render_json

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
    got = [rng.next64() for _ in range(3)]
    assert got == [6457827717110365317, 3203168211198807973, 9817491932198370423]


def test_splitmix64_below_advances_state():
    a = SplitMix64(42)
    b = SplitMix64(42)
    seq_a = [a.below(10) for _ in range(8)]
    seq_b = [b.below(10) for _ in range(8)]
    assert seq_a == seq_b
    assert a.below(1) == 0


def test_splitmix64_draw_matches_below_calls():
    # stress draws a trial's |G| x rank coordinates in one call; the values
    # and the state after them are those of one below() call per coordinate.
    moduli = (9, 3) * 27 + (1, 2**64, 2310)
    a, b = SplitMix64(2024), SplitMix64(2024)
    assert a.draw(moduli) == [b.below(n) for n in moduli]
    assert a.state == b.state
    assert a.draw(()) == [] and a.state == b.state


def test_parse_raw_sequence_rank1_commas():
    assert parse_raw_sequence("1,1,1,1", rank=1) == [[1], [1], [1], [1]]
    assert parse_raw_sequence("0;1;2", rank=1) == [[0], [1], [2]]
    assert parse_raw_sequence("-3", rank=1) == [[-3]]


def test_parse_raw_sequence_rank2():
    assert parse_raw_sequence("1,0;0,1;1,1;1,0", rank=2) == [
        [1, 0],
        [0, 1],
        [1, 1],
        [1, 0],
    ]
    # A single inline element for a rank-2 group needs no separator.
    assert parse_raw_sequence("1,0", rank=2) == [[1, 0]]


def test_parse_raw_sequence_from_file(tmp_path):
    from zerosum import InputError

    path = tmp_path / "seq.txt"
    path.write_text("1,0\n\n0,1\n1,1\n1,0\n")
    assert parse_raw_sequence(str(path), rank=2, from_file=True) == [
        [1, 0],
        [0, 1],
        [1, 1],
        [1, 0],
    ]
    # Inline text is never taken for a path, even when a file of that name exists.
    with pytest.raises(InputError):
        parse_raw_sequence(str(path), rank=2)
    with pytest.raises(InputError):
        parse_raw_sequence(str(tmp_path / "missing.txt"), rank=1, from_file=True)


def test_parse_raw_sequence_rejects_junk():
    from zerosum import InputError

    with pytest.raises(InputError):
        parse_raw_sequence("", rank=1)
    with pytest.raises(InputError):
        parse_raw_sequence("1,x,3", rank=1)
    with pytest.raises(InputError):
        parse_indices("1,two")


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


def test_stress_json_is_byte_identical(capsys):
    args = ["stress", "--group", "2,2,2", "--trials", "25", "--seed", "11", "--json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_solve_json_is_byte_identical(capsys):
    seq = ";".join(f"{i % 9},{(i * 5) % 3}" for i in range(27))
    args = ["solve", "--group", "9,3", "--seq", seq, "--json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second


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
    for extra in (["--json"], []):
        proc = subprocess.Popen(
            CLI + ["solve-cyclic", "--n", "2000", "--seq", seq, "--trace"] + extra,
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
# None; strings with quotes, backslashes, control and non-ASCII characters.
_texts = st.text() | st.text(alphabet='"\\/\x00\x08\t\n\x1f\x7f\u00e9\u2028\U0001f600 ab')
_ints = st.integers() | st.integers(-(10**40), 10**40)
_leaves = (
    st.none()
    | st.booleans()
    | _ints
    | _texts
    | st.lists(_ints)
    | st.lists(st.booleans())
    | st.lists(_ints | st.booleans())
    | st.lists(_ints).map(tuple)
)
_reports = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(_texts, inner, max_size=5),
    max_leaves=25,
)


@given(_reports)
@settings(max_examples=200)
def test_render_json_matches_indented_dumps(value):
    assert render_json(value) == json.dumps(value, indent=2)


def test_render_json_edge_shapes():
    for value in [[], {}, (), [[]], {"a": {}}, [[], {}, ()], {"": [True, 1]}, [0, -1, 2**70], "é\"\\"]:
        assert render_json(value) == json.dumps(value, indent=2)


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
        if conf.elements[1].coords == (2,):
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
    # instead.
    code = (
        "import sys, zerosum.cli\n"
        "zerosum.cli.build_parser()\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=CLI_ENV)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _readme_command_lines() -> list[list[str]]:
    """The argv of each line of the README's "Command line" block."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines()]


def test_readme_command_line_block_runs_and_names_every_subcommand(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "seq.txt").write_text("1\n3\n5\n7\n9\n", encoding="utf-8")
    argvs = _readme_command_lines()
    for argv in argvs:
        assert argv[0] == "zerosum"
        assert main(argv[1:]) == 0, (argv, capsys.readouterr())
    capsys.readouterr()
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert {argv[1] for argv in argvs} == set(sub.choices)
