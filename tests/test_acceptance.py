"""Acceptance gate: ten numbered criteria, one printed pass/fail line each.

Each test prints its verdict past pytest's capture so the gate reads straight
off the terminal. Runtime ceilings are asserted where the criteria fix them.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from itertools import product

from zerosum import (
    build_lattice,
    dp_min_cost_zero_sum,
    dual_partition,
    element_from_index,
    element_order,
    extract_certificate,
    group_spec,
    initial_configuration,
    lattice_graph,
    parse_group_spec,
    pebbling_number,
    primary_decomposition,
    residual_exponents,
    residual_exponents_by_recursion,
    solvable,
    solve_to_root,
    to_primary_coordinates,
    verify_certificate,
    weighted_boolean_cube,
    well_placed,
)
from zerosum.cli import SplitMix64, build_parser
from zerosum.oracle import davenport_constant

PARSER = build_parser()


def run_command(*argv):
    args = PARSER.parse_args(list(argv))
    return args.func(args)


@contextmanager
def criterion(capsys, num, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[criterion {num:2d}] FAIL  {label}", flush=True)
        raise
    with capsys.disabled():
        print(f"[criterion {num:2d}] PASS  {label}", flush=True)


def _dec(text):
    return primary_decomposition(parse_group_spec(text))


def _all_length4_sequences(factor_sizes):
    element_pool = list(product(*[range(n) for n in factor_sizes]))
    return list(product(element_pool, repeat=4))


def _inline(seq):
    return ";".join(",".join(map(str, el)) for el in seq)


def test_criterion_01_main_theorem_exhaustive(capsys):
    with criterion(capsys, 1, "every length-4 sequence over Z_4 and Z_2+Z_2 solves (< 5 s)"):
        started = time.perf_counter()
        total = 0
        for group_text, sizes in (("4", (4,)), ("2,2", (2, 2))):
            sequences = _all_length4_sequences(sizes)
            assert len(sequences) == 256
            for seq in sequences:
                report = run_command("solve", "--group", group_text, "--seq", _inline(seq))
                assert report.exit_code == 0
                assert report.results["verified"] is True
                assert report.results["sum_is_zero"] is True
                assert report.results["ord_cost"] <= report.results["bound"]
                total += 1
        elapsed = time.perf_counter() - started
        assert total == 512
        assert elapsed < 5.0, f"exhaustive sweep took {elapsed:.1f} s"


STRESS_GROUPS = ("12", "8", "2,2,2", "9,3", "4,2", "6,2")
ENGINE_TRIALS = 1000


def _engine_trials(group_text, kind, seed):
    """Seeded sequences that cannot solve without a move, each solved and verified.

    "zero-free" draws every element from the non-identity ones, so no pebble
    starts at the root; "max-order" draws only elements of order N, so every
    pebble starts at the top vertex.
    """
    dec = _dec(group_text)
    lattice = build_lattice(dec)
    pool = [element_from_index(dec, i) for i in range(1, dec.group_order)]
    if kind == "max-order":
        pool = [g for g in pool if element_order(g) == dec.exponent]
    rng = SplitMix64(seed)
    for _ in range(ENGINE_TRIALS):
        els = [pool[rng.below(len(pool))] for _ in range(dec.group_order)]
        conf = initial_configuration(dec, els, lattice=lattice)
        cert = extract_certificate(solve_to_root(conf), dec, els)
        assert verify_certificate(dec, els, cert.indices).passed
        assert len(conf.move_log) >= 1, (group_text, kind)


def test_criterion_02_main_theorem_randomized(capsys):
    label = (
        f"1000 uniform, {ENGINE_TRIALS} zero-free and {ENGINE_TRIALS} max-order seeded trials "
        "on each of six groups, all verified (< 60 s)"
    )
    with criterion(capsys, 2, label):
        started = time.perf_counter()
        for group_text in STRESS_GROUPS:
            report = run_command(
                "stress",
                "--group",
                group_text,
                "--trials",
                "1000",
                "--seed",
                "7",
                "--oracle-limit",
                "0",
            )
            assert report.exit_code == 0
            assert report.results["passed"] == 1000
            assert report.results["failed"] == 0
            _engine_trials(group_text, "zero-free", 7)
            _engine_trials(group_text, "max-order", 7)
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"randomized battery took {elapsed:.1f} s"


def test_criterion_03_oracle_concordance(capsys):
    with criterion(capsys, 3, "DP oracle agrees on all 512 exhaustive and 204 random instances"):
        for group_text, sizes in (("4", (4,)), ("2,2", (2, 2))):
            dec = _dec(group_text)
            lattice = build_lattice(dec)
            for seq in _all_length4_sequences(sizes):
                els = [to_primary_coordinates(el, dec) for el in seq]
                conf = initial_configuration(dec, els, lattice=lattice)
                cert = extract_certificate(solve_to_root(conf), dec, els)
                oracle = dp_min_cost_zero_sum(dec, els)
                assert oracle.feasible and oracle.qualifies
                assert oracle.min_cost <= dec.exponent
                assert cert.ord_cost >= oracle.min_cost
        checked = 0
        for group_text in STRESS_GROUPS:
            report = run_command(
                "stress",
                "--group",
                group_text,
                "--trials",
                "34",
                "--seed",
                "7",
                "--oracle-limit",
                "34",
            )
            assert report.exit_code == 0
            assert report.results["failed"] == 0
            checked += report.results["oracle_checked"]
        assert checked >= 200


def test_criterion_04_cyclic_gcd_form(capsys):
    with criterion(capsys, 4, "gcd-form certificates over Z_n, n = 2..12, 200 trials each"):
        rng = SplitMix64(41)
        for n in range(2, 13):
            for _ in range(200):
                values = [rng.below(6 * n) - 2 * n for _ in range(n)]
                report = run_command(
                    "solve-cyclic", "--n", str(n), "--seq=" + ",".join(map(str, values))
                )
                assert report.exit_code == 0
                assert report.results["residue_sum_mod_n"] == 0
                assert report.results["gcd_sum"] <= n


def test_criterion_05_cube_pebbling_products(capsys):
    with criterion(capsys, 5, "pebbling number of weighted cubes equals the weight product (< 120 s)"):
        started = time.perf_counter()
        cases = [(w,) for w in (2, 3, 4)]
        cases += [(a, b) for a in (2, 3, 4) for b in (2, 3, 4)]
        cases += [(2, 2, 2)]
        for weights in cases:
            expect = 1
            for w in weights:
                expect *= w
            graph = weighted_boolean_cube(weights)
            result = pebbling_number(graph)
            assert result.number == expect, (weights, result.number)
            assert sum(result.witness) == expect - 1
            assert not solvable(graph, result.witness, result.witness_target)
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0, f"cube scan took {elapsed:.1f} s"


def test_criterion_06_lattice_pebbling_is_group_order(capsys):
    with criterion(capsys, 6, "pebbling number of L(G) equals |G| for six small groups"):
        for group_text in ("2", "3", "4", "2,2", "6", "8"):
            dec = _dec(group_text)
            result = pebbling_number(lattice_graph(dec))
            assert result.number == dec.group_order, (group_text, result.number)


def test_criterion_07_worked_example_fidelity(capsys):
    with criterion(capsys, 7, "worked partition and residual tables reproduce entry-for-entry"):
        assert dual_partition((5, 2, 2, 1)) == (4, 3, 1, 1, 1)

        single = ((5, 2, 2, 1),)
        ladder = {
            0: (5, 2, 2, 1),
            1: (4, 1, 1, 0),
            2: (3, 0, 0, 0),
            3: (2, 0, 0, 0),
            4: (1, 0, 0, 0),
            5: (0, 0, 0, 0),
        }
        for u, row in ladder.items():
            assert residual_exponents(single, (u,)) == (row,)

        rows = ((5, 4, 3, 1), (2, 2), (3,), (4, 1, 1))
        assert dual_partition(rows[0]) == (4, 3, 3, 2, 1)
        table = {
            (0, 0, 0, 0): ((5, 4, 3, 1), (2, 2), (3,), (4, 1, 1)),
            (1, 0, 0, 0): ((4, 3, 2, 0), (2, 2), (3,), (4, 1, 1)),
            (1, 1, 0, 0): ((4, 3, 2, 0), (1, 1), (3,), (4, 1, 1)),
            (1, 1, 0, 1): ((4, 3, 2, 0), (1, 1), (3,), (3, 0, 0)),
            (2, 1, 0, 1): ((3, 2, 1, 0), (1, 1), (3,), (3, 0, 0)),
            (3, 1, 0, 1): ((2, 1, 0, 0), (1, 1), (3,), (3, 0, 0)),
            (5, 2, 3, 4): ((0, 0, 0, 0), (0, 0), (0,), (0, 0, 0)),
        }
        for u, expect in table.items():
            assert residual_exponents(rows, u) == expect


def test_criterion_08_cyclic_tightness(capsys):
    with criterion(capsys, 8, "n-1 ones over Z_n are infeasible (oracle exit 1) for n = 2..10"):
        for n in range(2, 11):
            report = run_command("oracle", "--group", str(n), "--seq", ",".join(["1"] * (n - 1)))
            assert report.exit_code == 1
            assert report.results["feasible"] is False


def test_criterion_09_structural_properties(capsys):
    with criterion(capsys, 9, "duality, residual recursion, weight products, move invariants"):
        rng = SplitMix64(5150)

        # Dual involution and total preservation on random partitions.
        for _ in range(300):
            parts = tuple(
                sorted((1 + rng.below(8) for _ in range(1 + rng.below(6))), reverse=True)
            )
            dual = dual_partition(parts)
            assert dual_partition(dual) == parts
            assert sum(dual) == sum(parts)

        # Residual recursion agrees with the closed form under any descent order.
        for _ in range(300):
            rows = tuple(
                tuple(sorted((1 + rng.below(4) for _ in range(1 + rng.below(4))), reverse=True))
                for _ in range(1 + rng.below(3))
            )
            u = tuple(rng.below(row[0] + 1) for row in rows)
            descent = [i for i, ui in enumerate(u) for _ in range(ui)]
            for _ in range(3):
                for j in range(len(descent) - 1, 0, -1):
                    k = rng.below(j + 1)
                    descent[j], descent[k] = descent[k], descent[j]
                got = residual_exponents_by_recursion(rows, u, descent=tuple(descent))
                assert got == residual_exponents(rows, u)

        # Level weights multiply out to the group order.
        for _ in range(200):
            orders = [1 + rng.below(12) for _ in range(1 + rng.below(3))]
            dec = primary_decomposition(group_spec(orders))
            lattice = build_lattice(dec)
            prod = 1
            for row in lattice.level_weights:
                for w in row:
                    prod *= w
            assert prod == dec.group_order

        # Well-placedness holds after every logged move: replay the exhaustive
        # sweep and a slice of the stress groups with full recomputation on.
        for group_text, sizes in (("4", (4,)), ("2,2", (2, 2))):
            dec = _dec(group_text)
            lattice = build_lattice(dec)
            for seq in _all_length4_sequences(sizes):
                els = [to_primary_coordinates(el, dec) for el in seq]
                conf = initial_configuration(dec, els, lattice=lattice, debug=True)
                root = solve_to_root(conf)
                assert well_placed(root.val, root.ord_cost, root.vertex.u, dec)
        for group_text in STRESS_GROUPS:
            spec = parse_group_spec(group_text)
            dec = primary_decomposition(spec)
            lattice = build_lattice(dec)
            trial_rng = SplitMix64(7)
            for _ in range(25):
                els = [
                    to_primary_coordinates(
                        tuple(trial_rng.below(nf) for nf in spec.cyclic_orders), dec
                    )
                    for _ in range(dec.group_order)
                ]
                conf = initial_configuration(dec, els, lattice=lattice, debug=True)
                root = solve_to_root(conf)
                assert well_placed(root.val, root.ord_cost, root.vertex.u, dec)
                for peb in conf.live_pebbles():
                    assert well_placed(peb.val, peb.ord_cost, peb.vertex.u, dec)


def test_criterion_10_davenport_constants(capsys):
    with criterion(capsys, 10, "Davenport constants match n for Z_n (n <= 8) and 3 for Z_2+Z_2"):
        for n in range(1, 9):
            dec = _dec(str(n))
            value = davenport_constant(dec)
            assert value == n
            assert value == 1 + (n - 1)
        dec = _dec("2,2")
        value = davenport_constant(dec)
        assert value == 3
        assert value == 1 + (2 - 1) + (2 - 1)
