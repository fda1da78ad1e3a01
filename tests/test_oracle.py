"""Oracle cross-checks: DP vs naive enumeration, pebbling numbers, Davenport."""

from __future__ import annotations

import functools
import itertools
import math

import pytest

from zerosum import (
    InputError,
    InternalInvariantError,
    WeightedGraph,
    add_elements,
    davenport_constant,
    dp_min_cost_zero_sum,
    element_from_index,
    identity,
    element_order,
    lattice_graph,
    parse_group_spec,
    path_graph,
    pebbling_number,
    primary_decomposition,
    solvable,
    to_primary_coordinates,
    weighted_boolean_cube,
)
from zerosum.cli import SplitMix64
from zerosum import oracle
from zerosum.groups import element_columns, element_costs
from zerosum.oracle import (
    MAX_DP_WORK,
    OracleResult,
    _shift_table,
    check_dp_work,
    pebbling_lower_bound,
)


def _dec(text: str):
    return primary_decomposition(parse_group_spec(text))


def _els(dec, raws):
    return [to_primary_coordinates((r,) if isinstance(r, int) else tuple(r), dec) for r in raws]


def _cost(dec, g):
    return dec.exponent // element_order(dec, g)


def _naive_min_cost(dec, elements):
    best = None
    for size in range(1, len(elements) + 1):
        for combo in itertools.combinations(range(len(elements)), size):
            total = identity(dec)
            cost = 0
            for i in combo:
                total = add_elements(dec, total, elements[i])
                cost += _cost(dec, elements[i])
            if total == identity(dec) and (best is None or cost < best):
                best = cost
    return best


def test_dp_feasible_sample():
    dec = _dec("6")
    result = dp_min_cost_zero_sum(dec, _els(dec, [2, 3, 2, 3, 2, 3]))
    assert result.feasible
    assert result.min_cost == 6
    assert result.qualifies
    total = identity(dec)
    for k in result.indices:
        total = add_elements(dec, total, _els(dec, [2, 3, 2, 3, 2, 3])[k - 1])
    assert total == identity(dec)


def test_dp_infeasible_sample():
    dec = _dec("4")
    result = dp_min_cost_zero_sum(dec, _els(dec, [1, 1, 1]))
    assert not result.feasible
    assert result.min_cost is None
    assert result.indices == ()
    assert not result.qualifies


def test_dp_zero_element_costs_full_budget():
    dec = _dec("9")
    result = dp_min_cost_zero_sum(dec, _els(dec, [4, 0, 7]))
    assert result.feasible
    assert result.min_cost == 9
    assert result.indices == (2,)
    assert result.qualifies


def test_dp_empty_sequence_is_infeasible():
    dec = _dec("4")
    assert not dp_min_cost_zero_sum(dec, []).feasible


def test_dp_witness_is_deterministic():
    dec = _dec("8")
    els = _els(dec, [4, 4, 2, 6, 4, 4, 1, 3])
    a = dp_min_cost_zero_sum(dec, els)
    b = dp_min_cost_zero_sum(dec, els)
    assert a == b


def test_dp_rejects_foreign_elements():
    dec = _dec("4")
    with pytest.raises(InputError):
        dp_min_cost_zero_sum(dec, [identity(_dec("2,2"))])


def test_dp_matches_naive_enumeration_battery():
    # Seeded random sequences of length <= 12 over groups of order <= 16.
    rng = SplitMix64(2024)
    for text in ("2", "3", "4", "2,2", "6", "8", "9", "3,3", "12", "4,2", "2,2,2", "16", "4,4"):
        dec = _dec(text)
        for _ in range(6):
            length = 1 + rng.below(12)
            els = [
                element_from_index(dec, rng.below(dec.group_order))
                for _ in range(length)
            ]
            got = dp_min_cost_zero_sum(dec, els)
            want = _naive_min_cost(dec, els)
            if want is None:
                assert not got.feasible
            else:
                assert got.feasible
                assert got.min_cost == want
                cost = sum(_cost(dec, els[k - 1]) for k in got.indices)
                assert cost == want
                total = identity(dec)
                for k in got.indices:
                    total = add_elements(dec, total, els[k - 1])
                assert total == identity(dec)


FROZEN_GROUPS = ("60", "6,6", "2,2,2,2,2", "9,3", "120")
FROZEN_FAMILIES = ("uniform", "zero-free", "few-values")

# (feasible, min_cost, witness) for each instance of _frozen_battery(), in
# order, as the (element, exact cost)-state DP computed them before the DP was
# keyed by element alone.
FROZEN_WITNESSES = [
    (False, None, ()),
    (True, 2, (2, 5)),
    (True, 4, (15, 22, 29)),
    (True, 2, (5, 27)),
    (True, 2, (2, 12)),
    (True, 2, (1, 14)),
    (True, 2, (21, 27)),
    (True, 2, (6, 24)),
    (True, 36, (1, 2, 6, 10, 11, 16)),
    (True, 24, (2, 3, 4, 5, 7, 8, 10)),
    (True, 10, (2, 5, 6, 7, 8, 9, 12, 14, 16, 17)),
    (True, 16, (1, 2, 3, 5, 6, 10)),
    (True, 2, (2, 15)),
    (True, 2, (7, 15)),
    (True, 2, (6, 8)),
    (True, 2, (1, 7)),
    (True, 6, (3, 4, 7)),
    (True, 4, (4, 6, 9)),
    (True, 2, (2, 4)),
    (True, 2, (16, 21)),
    (True, 6, (2, 4, 5, 6, 7, 12)),
    (True, 6, (1, 2, 3, 4)),
    (True, 4, (1, 2, 5, 7)),
    (True, 6, (2, 3)),
    (False, None, ()),
    (True, 2, (2, 6)),
    (True, 2, (1, 3)),
    (True, 2, (3, 10)),
    (False, None, ()),
    (True, 2, (2, 5)),
    (True, 2, (2, 7)),
    (True, 2, (1, 4)),
    (True, 2, (2, 3)),
    (True, 2, (2,)),
    (True, 2, (2, 3)),
    (True, 2, (2, 3)),
    (True, 2, (6, 8)),
    (True, 2, (5, 9)),
    (True, 2, (2, 12)),
    (True, 2, (8, 10)),
    (True, 2, (2, 11)),
    (True, 2, (1, 7)),
    (True, 2, (5, 10)),
    (True, 2, (13, 15)),
    (False, None, ()),
    (True, 9, (2, 4, 5)),
    (True, 9, (3, 4, 5)),
    (True, 5, (2, 3, 4, 9, 11)),
    (True, 2, (4, 9)),
    (True, 2, (8, 12)),
    (True, 2, (11, 26)),
    (True, 2, (32, 37)),
    (True, 24, (1, 4, 7)),
    (True, 4, (2, 10, 12)),
    (True, 2, (10, 19)),
    (True, 2, (20, 23)),
    (True, 20, (1, 2, 4, 5, 6, 9, 10, 12, 13)),
    (True, 24, (2, 4, 5, 6, 7, 10, 17, 20, 23)),
    (True, 18, (1, 3, 4, 5, 7, 8, 9, 10, 11, 12, 13, 14, 15, 18, 21, 25, 29, 37)),
    (True, 30, (1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 13)),
]


def _frozen_battery():
    """Seeded instances, four per group and family; lengths up to |G| + 2."""
    rng = SplitMix64(3020)
    for text in FROZEN_GROUPS:
        dec = _dec(text)
        n = dec.group_order
        for family in FROZEN_FAMILIES:
            for length in (1 + rng.below(n + 2), 1 + rng.below(n + 2), n, n + 2):
                if family == "uniform":
                    idx = [rng.below(n) for _ in range(length)]
                elif family == "zero-free":
                    idx = [1 + rng.below(n - 1) for _ in range(length)]
                else:
                    pool = [rng.below(n) for _ in range(3)]
                    idx = [pool[rng.below(3)] for _ in range(length)]
                yield dec, [element_from_index(dec, i) for i in idx]


def test_dp_reproduces_frozen_witnesses():
    got = [
        (r.feasible, r.min_cost, r.indices)
        for r in (dp_min_cost_zero_sum(dec, els) for dec, els in _frozen_battery())
    ]
    assert got == FROZEN_WITNESSES


def _component_index(dec, g):
    """Mixed-radix index of the primary components, in `moduli` order."""
    idx = 0
    for mods in dec.moduli:
        for x, q in zip(g, mods):
            idx = idx * q + x % q
    return idx


def _component_shift_table(dec, g):
    """table[s] is the _component_index of s + g: a mixed-radix product of
    per-component rotations, as the DP built it before sums were numbered
    over the invariant factors."""
    table = [0]
    for mods in dec.moduli:
        for x, m in zip(g, mods):
            x %= m
            rot = [*range(x, m), *range(x)]
            table = [hi + r for hi in (a * m for a in table) for r in rot]
    return table


def _per_item_dp(dec, elements):
    """The DP as it stood before repeated items read only the sums their
    previous copy improved: every item snapshots `best` and relaxes every
    reached sum. Kept verbatim but for its cost line (now `element_costs`),
    with its component-order index and tables, as the reference for the
    equivalence test."""
    elements = list(elements)
    check_dp_work(dec, len(elements))
    costs = element_costs(dec, element_columns(dec, elements))
    unreached = sum(costs) + 1
    best = [unreached] * dec.group_order
    reached: list[int] = []
    parent: dict[tuple[int, int], tuple[int | None, int]] = {}
    table_of = table = None
    for k, (g, c) in enumerate(zip(elements, costs), start=1):
        gi = _component_index(dec, g)
        if gi != table_of:
            table_of, table = gi, _component_shift_table(dec, g)
        before = best[:]
        fresh = []
        if c < best[gi]:
            if best[gi] == unreached:
                fresh.append(gi)
            best[gi] = c
            parent[(gi, c)] = (None, k)
        for s in reached:
            t = table[s]
            cost = before[s] + c
            if cost < best[t]:
                if best[t] == unreached:
                    fresh.append(t)
                best[t] = cost
                parent[(t, cost)] = (s, k)
        reached += fresh
    if best[0] == unreached:
        return OracleResult(False, None, (), False)
    out = []
    s, cost = 0, best[0]
    while s is not None:
        s, k = parent[(s, cost)]
        out.append(k)
        cost -= costs[k - 1]
    out.sort()
    return OracleResult(True, best[0], tuple(out), best[0] <= dec.exponent)


def _full_run_dp(dec, elements):
    """The DP as it stood before it stopped at its cost floor: it reads every
    item. Kept verbatim but for its cost line (now `element_costs`), with its
    component-order index and tables, as the reference for the
    stop-equivalence test."""
    elements = list(elements)
    check_dp_work(dec, len(elements))
    costs = element_costs(dec, element_columns(dec, elements))
    unreached = sum(costs) + 1
    best = [unreached] * dec.group_order
    reached: list[int] = []
    parent: dict[tuple[int, int], tuple[int | None, int]] = {}
    table_of = table = None
    changed: list[int] = []
    for k, (g, c) in enumerate(zip(elements, costs), start=1):
        gi = _component_index(dec, g)
        if gi != table_of:
            table_of, table = gi, _component_shift_table(dec, g)
            sources, before = reached, best[:]
        else:
            sources, before = changed, {s: best[s] for s in changed}
        fresh = []
        changed = []
        if c < best[gi]:
            if best[gi] == unreached:
                fresh.append(gi)
            best[gi] = c
            parent[(gi, c)] = (None, k)
            changed.append(gi)
        for s in sources:
            t = table[s]
            cost = before[s] + c
            if cost < best[t]:
                if best[t] == unreached:
                    fresh.append(t)
                best[t] = cost
                parent[(t, cost)] = (s, k)
                changed.append(t)
        reached += fresh
    if best[0] == unreached:
        return OracleResult(False, None, (), False)
    out = []
    s, cost = 0, best[0]
    while s is not None:
        s, k = parent[(s, cost)]
        out.append(k)
        cost -= costs[k - 1]
    out.sort()
    return OracleResult(True, best[0], tuple(out), best[0] <= dec.exponent)


RUN_GROUPS = ("12", "60", "6,6", "2,2,2,2,2", "9,3", "8,4", "5,5", "4,2,2", "27", "210")


def _run_battery():
    """Seeded sequences made of runs of 1-10 copies, per group: the empty
    sequence, then lengths up to |G| + 10 (80 on Z_210), with run elements
    drawn half the time from a pool of the identity and three fixed elements."""
    rng = SplitMix64(4096)
    for text in RUN_GROUPS:
        dec = _dec(text)
        n = dec.group_order
        pool = [0] + [rng.below(n) for _ in range(3)]
        yield dec, []
        for _ in range(60):
            length = 1 + rng.below(min(n + 10, 80))
            idx: list[int] = []
            while len(idx) < length:
                gi = pool[rng.below(len(pool))] if rng.below(2) else rng.below(n)
                idx += [gi] * (1 + rng.below(10))
            yield dec, [element_from_index(dec, i) for i in idx]


def test_run_aware_dp_matches_per_item_dp():
    seen = {"runs of the identity": 0, "feasible": 0, "infeasible": 0}
    for dec, els in _run_battery():
        got = dp_min_cost_zero_sum(dec, els)
        assert got == _per_item_dp(dec, els)
        seen["feasible" if got.feasible else "infeasible"] += 1
        zero = identity(dec)
        seen["runs of the identity"] += any(a == b == zero for a, b in zip(els, els[1:]))
    assert min(seen.values()) >= 30, seen


STOP_GROUPS = ("1", "2", "3", "12", "60", "6,6", "2,2,2,2,2", "9,3", "8,4", "5,5", "2,4,6", "27", "210")


def _stop_battery():
    """Seeded sequences per group of three kinds: uniform of length |G| to
    |G| + 2, zero-free (no identity; uniform again on Z_1) of length up to
    |G| + 2, and runs of 1-10 copies up to the same length, 80 on Z_210."""
    rng = SplitMix64(5150)
    for text in STOP_GROUPS:
        dec = _dec(text)
        n = dec.group_order
        yield "uniform", dec, []
        for _ in range(8):
            for family in ("uniform", "zero-free", "runs"):
                if family == "uniform":
                    length = n + rng.below(3)
                else:
                    length = 1 + rng.below(min(n + 2, 80) if family == "runs" else n + 2)
                idx: list[int] = []
                while len(idx) < length:
                    gi = rng.below(n) if family != "zero-free" or n == 1 else 1 + rng.below(n - 1)
                    idx += [gi] * (1 + rng.below(10) if family == "runs" else 1)
                yield family, dec, [element_from_index(dec, i) for i in idx]


def test_stopping_dp_matches_full_run_dp():
    uniform = stopped = 0
    for family, dec, els in _stop_battery():
        got = dp_min_cost_zero_sum(dec, els)
        assert got == _full_run_dp(dec, els), (dec.spec, family, els)
        # The stop fires at the item that first brings the zero sum to its
        # floor, which is the last item of the witness.
        if family == "uniform":
            uniform += 1
            stopped += got.feasible and got.min_cost <= min(2, dec.exponent) and got.indices[-1] < len(els)
    assert stopped >= 0.7 * uniform, (stopped, uniform)


def _row_major_index(dec, g):
    idx = 0
    for x, n in zip(g, dec.invariant_factors):
        idx = idx * n + x
    return idx


def test_shift_table_matches_group_addition():
    # Sums are numbered row-major over the invariant factors; table[0] is the
    # index of the item itself.
    for text in ("1", "12", "9,3", "2,4,2", "6,6", "2,4,6"):
        dec = _dec(text)
        elements = [element_from_index(dec, i) for i in range(dec.group_order)]
        index = functools.partial(_row_major_index, dec)
        assert sorted(map(index, elements)) == list(range(dec.group_order))
        by_index = sorted(elements, key=index)
        for g in elements:
            assert _shift_table(dec, g) == [index(add_elements(dec, s, g)) for s in by_index]


def test_dp_work_bound():
    big = _dec("100003")
    with pytest.raises(InputError, match="above the bound"):
        dp_min_cost_zero_sum(big, _els(big, [1]) * (MAX_DP_WORK // big.group_order + 1))
    # A full-length stress trial over Z_2310 stays within the bound.
    dec = _dec("2310")
    assert dp_min_cost_zero_sum(dec, _els(dec, [1] * 2310)).feasible


def test_tightness_for_cyclic_groups():
    # n-1 copies of a unit of Z_n admit no zero-sum subsequence at all.
    for n, unit in [(n, 1) for n in range(2, 11)] + [(210, 11), (2310, 13)]:
        dec = _dec(str(n))
        result = dp_min_cost_zero_sum(dec, _els(dec, [unit] * (n - 1)))
        assert not result.feasible


def test_theorem_guarantee_on_full_length_sequences():
    rng = SplitMix64(99)
    for text in ("4", "2,2", "6", "8", "9", "12"):
        dec = _dec(text)
        for _ in range(10):
            els = [
                element_from_index(dec, rng.below(dec.group_order))
                for _ in range(dec.group_order)
            ]
            result = dp_min_cost_zero_sum(dec, els)
            assert result.feasible and result.qualifies


def test_graph_validation():
    with pytest.raises(InputError):
        WeightedGraph(2, ((0, 1, 1),))
    with pytest.raises(InputError):
        WeightedGraph(2, ((0, 0, 2),))
    with pytest.raises(InputError):
        WeightedGraph(3, ((0, 1, 2),))
    with pytest.raises(InputError):
        WeightedGraph(2, ((0, 1, 2), (1, 0, 3)))
    with pytest.raises(InputError):
        WeightedGraph(2, ((0, 2, 2),))
    with pytest.raises(InputError):
        WeightedGraph(0, ())


def test_cube_and_path_shapes():
    cube = weighted_boolean_cube((2, 3))
    assert cube.num_vertices == 4
    weights = sorted(w for _, _, w in cube.edges)
    assert weights == [2, 2, 3, 3]
    path = path_graph((2, 2, 2))
    assert path.num_vertices == 4
    assert path.edges == ((0, 1, 2), (1, 2, 2), (2, 3, 2))


def test_lattice_graph_matches_engine_lattice():
    dec = _dec("12")
    g = lattice_graph(dec)
    assert g.num_vertices == 6
    assert sorted(w for _, _, w in g.edges) == [2, 2, 2, 2, 3, 3, 3]


def test_solvable_basics():
    g = path_graph((3,))
    assert solvable(g, (0, 1), 1)
    assert solvable(g, (3, 0), 1)
    assert not solvable(g, (2, 0), 1)
    assert solvable(g, (0, 3), 0)
    with pytest.raises(InputError):
        solvable(g, (1,), 0)
    with pytest.raises(InputError):
        solvable(g, (1, -1), 0)
    with pytest.raises(InputError):
        solvable(g, (1, 1), 2)


def test_solvable_antipodal_cube():
    g = weighted_boolean_cube((2, 2))
    assert solvable(g, (4, 0, 0, 0), 3)
    assert not solvable(g, (3, 0, 0, 0), 3)


def test_solvable_crosses_edges_both_ways():
    g = path_graph((2, 3))
    # Moving toward either end works: weights apply per edge, not per direction.
    assert solvable(g, (0, 0, 3), 1)
    assert solvable(g, (2, 0, 0), 1)
    assert solvable(g, (6, 0, 0), 2)


def test_pebbling_single_vertex():
    g = WeightedGraph(1, ())
    result = pebbling_number(g)
    assert result.number == 1
    assert result.witness == (0,)


def test_pebbling_known_cubes():
    for weights, expect in (((2,), 2), ((3,), 3), ((2, 2), 4), ((2, 3), 6)):
        result = pebbling_number(weighted_boolean_cube(weights))
        assert result.number == expect


def test_pebbling_witness_is_unsolvable_and_tight():
    g = weighted_boolean_cube((2, 2))
    result = pebbling_number(g)
    assert sum(result.witness) == result.number - 1
    assert not solvable(g, result.witness, result.witness_target)


def test_pebbling_path_weights():
    assert pebbling_number(path_graph((2, 2))).number == 4
    assert pebbling_number(path_graph((3,))).number == 3


def test_pebbling_lattice_equals_group_order_small():
    for text in ("2", "4", "2,2", "6"):
        dec = _dec(text)
        assert pebbling_number(lattice_graph(dec)).number == dec.group_order


def test_pebbling_lower_bound_never_exceeds_the_number():
    star = WeightedGraph(4, ((0, 1, 2), (0, 2, 2), (0, 3, 2)))
    graphs = [weighted_boolean_cube(w) for w in ((2,), (3,), (2, 2), (2, 3))]
    graphs += [path_graph(w) for w in ((2, 2), (3,))]
    graphs += [lattice_graph(_dec(text)) for text in ("2", "4", "2,2", "6")]
    for graph in graphs + [star]:
        assert pebbling_lower_bound(graph) <= pebbling_number(graph).number, graph.name
    # Leaf to leaf of the star costs 4, but its pebbling number is 5.
    assert (pebbling_lower_bound(star), pebbling_number(star).number) == (4, 5)
    assert pebbling_lower_bound(path_graph((2,) * 7)) == 128


def test_pebbling_number_past_the_scan_bound_is_input_error():
    star = WeightedGraph(4, ((0, 1, 2), (0, 2, 2), (0, 3, 2)))
    with pytest.raises(InputError, match="exceeds the scan bound 4"):
        pebbling_number(star, max_total=4)
    with pytest.raises(InputError, match="at least 8, above the scan bound 7"):
        pebbling_number(path_graph((2, 2, 2)), max_total=7)


def test_pebbling_scan_bound_counts_the_final_round(monkeypatch):
    # cube:2,2,2 has pebbling lower bound 8 on 8 vertices: its final round
    # visits at least C(8 + 7, 7) = 6435 distributions.
    cube = weighted_boolean_cube((2, 2, 2))
    monkeypatch.setattr(oracle, "MAX_PEBBLING_DISTRIBUTIONS", 6434)
    with pytest.raises(InputError, match="at least 6435 distributions of 8 pebbles on 8 vertices, above the bound 6434"):
        pebbling_number(cube)
    monkeypatch.setattr(oracle, "MAX_PEBBLING_DISTRIBUTIONS", 6435)
    assert pebbling_number(cube).number == 8


def test_davenport_cyclic():
    for n in range(1, 9):
        assert davenport_constant(_dec(str(n))) == n


def test_davenport_rank_two():
    assert davenport_constant(_dec("2,2")) == 3
    assert davenport_constant(_dec("2,4")) == 5
    assert davenport_constant(_dec("3,3")) == 5
    assert davenport_constant(_dec("2,2,2")) == 4


def test_davenport_matches_rank_formula():
    # 1 + sum(n_i - 1) over the component orders, exact on these cases.
    cases = {"2,2": (2, 2), "2,4": (2, 4), "3,3": (3, 3), "8": (8,)}
    for text, parts in cases.items():
        assert davenport_constant(_dec(text)) == 1 + sum(n - 1 for n in parts)


def test_davenport_weighted_small():
    assert davenport_constant(_dec("1"), weighted=True) == 1
    assert davenport_constant(_dec("2"), weighted=True) == 2
    assert davenport_constant(_dec("3"), weighted=True) == 3
    assert davenport_constant(_dec("4"), weighted=True) == 4
    assert davenport_constant(_dec("2,2"), weighted=True) == 4


def test_davenport_weighted_at_least_plain():
    for text in ("2", "3", "4", "2,2", "6", "2,4", "2,2,2"):
        dec = _dec(text)
        plain = davenport_constant(dec)
        weighted = davenport_constant(dec, weighted=True)
        assert plain <= weighted <= dec.group_order


def test_davenport_bounds(monkeypatch):
    # Z_32 passes the work bound inside the walk, Z_1000000 before it starts.
    for text in ("32", "1000000"):
        for weighted in (False, True):
            with pytest.raises(InputError, match="work bound of 4000000 sums extended"):
                davenport_constant(_dec(text), weighted=weighted)
    # The walk over Z_4 extends 55 sums, the empty sums included.
    monkeypatch.setattr(oracle, "MAX_DAVENPORT_WORK", 54)
    with pytest.raises(InputError, match="work bound of 54 "):
        davenport_constant(_dec("4"))
    monkeypatch.setattr(oracle, "MAX_DAVENPORT_WORK", 55)
    assert davenport_constant(_dec("4")) == 4


def _some_sequence_lacks(dec, length, budget):
    """True iff some sequence of the given length has no nonempty zero-sum
    subsequence of order cost at most budget."""
    for combo in itertools.combinations_with_replacement(range(dec.group_order), length):
        best = _naive_min_cost(dec, [element_from_index(dec, i) for i in combo])
        if best is None or best > budget:
            return True
    return False


def test_davenport_brute_force_cross_check():
    # Independent check of the multiset search: over all sequences of length
    # D-1 some zero-sum-free one exists, and none exists at length D.
    for text in ("4", "2,2", "5"):
        dec = _dec(text)
        d = davenport_constant(dec)
        assert _some_sequence_lacks(dec, d - 1, math.inf) or d == 1
        assert not _some_sequence_lacks(dec, d, math.inf)


def test_davenport_weighted_brute_force_cross_check():
    # As above for D_w: the zero-sum must also cost at most N.
    for text in ("4", "2,2", "5"):
        dec = _dec(text)
        d = davenport_constant(dec, weighted=True)
        assert _some_sequence_lacks(dec, d - 1, dec.exponent)
        assert not _some_sequence_lacks(dec, d, dec.exponent)
