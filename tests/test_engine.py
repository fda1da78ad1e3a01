"""Pebble merging: hand traces, invariants under random inputs, verification."""

from __future__ import annotations

import copy
import functools
import math
import random
import tracemalloc
from fractions import Fraction
from operator import itemgetter, mod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerosum import (
    InputError,
    InternalInvariantError,
    add_elements,
    build_lattice,
    dp_min_cost_zero_sum,
    element_from_index,
    element_order,
    extract_certificate,
    identity,
    initial_configuration,
    merge_step,
    parse_group_spec,
    primary_decomposition,
    solve_to_root,
    to_primary_coordinates,
    verify_certificate,
    well_placed,
)
import zerosum.engine
from zerosum import MoveRecord
from zerosum.base_cases import _elementary_block, _vectors
from zerosum.cli import main
from zerosum.engine import _Run, _debug_check, _eliminate_plan, _greedy_plan, _leaves, _recompute
from zerosum.groups import encode_sequence, residues

small_group_texts = st.sampled_from(["2", "3", "4", "2,2", "5", "6", "8", "9", "3,3", "12", "4,2", "2,2,2"])


def _dec(text: str):
    return primary_decomposition(parse_group_spec(text))


def _elements(dec, raws):
    """The sequence of `raws` (ints, or tuples of user coordinates) as one column per invariant factor."""
    rows = [tuple(r) if isinstance(r, (list, tuple)) else (r,) for r in raws]
    return encode_sequence([[r[f] for r in rows] for f in range(dec.spec.rank)], dec)


def _columns(dec, els):
    """Element tuples as the sequence's columns."""
    return [[g[j] for g in els] for j in range(len(dec.invariant_factors))]


def _row(cols, k):
    """Element k (0-based) of the sequence `cols`, as a tuple."""
    return tuple(col[k] for col in cols)


def _cost(dec, g):
    return dec.exponent // element_order(dec, g)


def _debugged(conf, debug=True):
    """`conf` with the debug recheck set to `debug`."""
    conf.debug = debug
    return conf


def _solve(text, raws):
    dec = _dec(text)
    els = _elements(dec, raws)
    conf = initial_configuration(dec, els)
    root = solve_to_root(conf)
    cert = extract_certificate(root, dec, els)
    return dec, els, conf, cert


def test_initial_configuration_checks_length():
    dec = _dec("4")
    with pytest.raises(InputError):
        initial_configuration(dec, _elements(dec, [1, 1, 1]))


def test_initial_configuration_rejects_foreign_elements():
    dec = _dec("4")
    other = _dec("2,2")
    els = _columns(other, [identity(other)] * 4)  # two columns, Z_2 + Z_2's shape
    with pytest.raises(InputError, match="not one equal-length column per invariant factor"):
        initial_configuration(dec, els)
    # The certificate check refuses them too, rather than reading one
    # coordinate of each and passing.
    with pytest.raises(InputError):
        verify_certificate(dec, els, [1])


@pytest.mark.parametrize("text, cols", [("4", []), ("4", [[1] * 4, [1] * 4]), ("2,2", [[1] * 4, [1] * 3])])
def test_a_sequence_of_another_shape_is_refused(text, cols):
    # Too few or too many columns, or columns of unequal length: the solver
    # and the DP oracle refuse them before reading a coordinate.
    dec = _dec(text)
    with pytest.raises(InputError, match="not one equal-length column per invariant factor"):
        initial_configuration(dec, cols)
    with pytest.raises(InputError, match="not one equal-length column per invariant factor"):
        dp_min_cost_zero_sum(dec, cols)


def test_initial_configuration_refuses_a_lattice_without_the_order_vertex():
    # Z_2's lattice has vertices of divisor 1 and 2 only: an element of Z_4 of
    # order 4 has no vertex there, which is a bug in the caller, not an input.
    dec = _dec("4")
    # Nothing is placed yet, so the count profile reads "(none)".
    message = r"element order 4 does not divide the exponent 2 of the lattice: group 4, count profile \(none\)$"
    with pytest.raises(InternalInvariantError, match=message):
        initial_configuration(dec, _elements(dec, [2, 1, 2, 2]), lattice=build_lattice(_dec("2")))


def test_initial_configuration_checks_every_pebble_against_its_vertex_rule():
    # A pebble's vertex is chosen by its order, so the lattice's own rules
    # always pass; tightened rules show that every rule is read, and that the
    # least misplaced id over all rules and vertices is named.
    dec = _dec("4")
    els = _elements(dec, [1, 2, 3, 2])  # pebbles 1 and 3 on divisor 4, 2 and 4 on divisor 2
    lat = build_lattice(dec)
    top, mid = lat.vertex_index((2,)), lat.vertex_index((1,))

    def tightened(**rules):
        placement = list(lat.placement)
        for name, rule in rules.items():
            placement[{"top": top, "mid": mid}[name]] = rule
        return lat._replace(placement=tuple(placement))

    for lattice, first in [
        (tightened(top=(1, ((0, 2),))), 1),  # odd values at divisor 4
        (tightened(top=(0, ())), 1),  # a budget of 0 at divisor 4
        (tightened(mid=(1, ((0, 2),))), 2),  # costs of 2 over a budget of 1
        (tightened(mid=(2, ((0, 4),))), 2),  # 2 is not 0 mod 4
        (tightened(top=(1, ((0, 2),)), mid=(1, ((0, 2),))), 1),  # both vertices: the least id
    ]:
        message = f"initial pebble {first} is not well placed: group 4, count profile 2:2 4:2$"
        with pytest.raises(InternalInvariantError, match=message):
            initial_configuration(dec, els, lattice=lattice)
    # The only misplaced pebble is not its pool's first: pebbles 1 and 3 take
    # values 3 and 1 on divisor 4, and only 1 breaks a rule of 0 mod 3. (A
    # pool has one cost, so a budget it breaks is broken by its first id.)
    message = "initial pebble 3 is not well placed: group 4, count profile 2:2 4:2$"
    with pytest.raises(InternalInvariantError, match=message):
        initial_configuration(dec, _elements(dec, [3, 2, 1, 2]), lattice=tightened(top=(1, ((0, 3),))))
    assert initial_configuration(dec, els, lattice=lat).count_profile() == (0, 2, 2)


def test_initial_pebbles_sit_on_order_vertices():
    dec = _dec("12")
    els = _elements(dec, [0, 1, 2, 3, 4, 6, 8, 9, 10, 5, 7, 11])
    conf = initial_configuration(dec, els)
    assert [peb.pid for peb in conf.live_pebbles()] == list(range(1, 13))
    for peb in conf.live_pebbles():
        assert peb.vertex.divisor == element_order(dec, _row(els, peb.pid - 1))
        assert peb.members == frozenset([peb.pid])


def test_input_rows_are_the_elements_themselves():
    # A sequence is one column per invariant factor. Where n > 256 it is a
    # list, and input pebble k's slot is entry k - 1 of the column itself,
    # not a copy: the table holds no second object per input coordinate
    # (values above 256, which CPython does not cache, so `is` tells a copy
    # apart). Where n <= 256 it is a bytes, which the table copies into a
    # bytearray, slot k holding entry k - 1 and slot 0 holding 0.
    dec = _dec("600,2")
    cols = encode_sequence([list(range(1200)), [a % 5 for a in range(1200)]], dec)
    assert [type(col) for col in cols] == [list, bytes]
    conf = initial_configuration(dec, cols)
    assert [type(col) for col in conf.cols] == [list, bytearray]
    assert all(conf.cols[0][k] is cols[0][k - 1] for k in range(1, 1201))
    assert conf.cols[1] == b"\0" + cols[1]
    assert all(conf.value(k) == to_primary_coordinates((k - 1, (k - 1) % 5), dec) for k in range(1, 1201))


def test_z4_all_ones_full_trace():
    dec, els, conf, cert = _solve("4", [1, 1, 1, 1])
    assert cert.indices == (1, 2, 3, 4)
    assert cert.ord_cost == 4
    assert cert.bound == 4
    log = [(m.vertex_divisor, m.weight, m.consumed, m.selected, m.new_id) for m in conf.move_log]
    assert log == [
        (4, 2, (1, 2), (1, 2), 5),
        (4, 2, (3, 4), (3, 4), 6),
        (2, 2, (5, 6), (5, 6), 7),
    ]
    # Merged pebbles 5 and 6 are consumed but keep their slots, as the inputs
    # do: the table is written once.
    assert conf.cols == [bytearray([0, *els[0], 2, 2, 0])] and type(conf.cols[0]) is bytearray
    assert conf.value(7) == (0,)


def test_zero_element_short_circuits():
    dec, els, conf, cert = _solve("5", [0, 1, 2, 3, 4])
    assert cert.indices == (1,)
    assert list(conf.move_log) == []
    assert cert.ord_cost == 5


def test_occupied_root_is_solved_by_the_empty_plan():
    # Z_4 + Z_2 + Z_2 with the identity at ids 6 and 11 only: greedy's empty
    # plan is the whole solve, and the root's lowest id is the answer.
    dec, els = _seeded_nonzero("4,2,2", 0)
    for col in els:
        col[5] = col[10] = 0
    conf = initial_configuration(dec, els)
    profile = conf.count_profile()
    assert profile[conf.lattice.root_index] == 2
    root = solve_to_root(conf)
    assert (root.pid, root.vertex.divisor, root.val) == (6, 1, identity(dec))
    assert len(conf.move_log) == 0 and conf.fallback_fired is False
    assert conf.count_profile() == profile
    assert extract_certificate(root, dec, els).indices == (6,)


def test_z2z2_sample_sequence():
    dec, els, conf, cert = _solve("2,2", [(1, 0), (0, 1), (1, 1), (1, 0)])
    assert verify_certificate(dec, els, cert.indices).passed
    assert len(cert.indices) <= 2
    assert cert.indices == (1, 4)


def test_z6_mixed_orders():
    dec, els, conf, cert = _solve("6", [2, 3, 2, 3, 2, 3])
    assert verify_certificate(dec, els, cert.indices).passed
    assert cert.ord_cost <= 6


def test_merge_step_needs_enough_pebbles():
    dec = _dec("4")
    els = _elements(dec, [1, 1, 1, 1])
    conf = initial_configuration(dec, els)
    lat = conf.lattice
    top = lat.vertex_index((2,))
    merge_step(conf, top, 0)
    merge_step(conf, top, 0)
    with pytest.raises(InputError):
        merge_step(conf, top, 0)


def test_merge_step_rejects_root_move():
    dec = _dec("4")
    els = _elements(dec, [0, 0, 0, 0])
    conf = initial_configuration(dec, els)
    root = conf.lattice.root_index
    with pytest.raises(InputError):
        merge_step(conf, root, 0)


def test_merge_step_refuses_a_vertex_index_outside_the_lattice():
    # Index -1 would otherwise name the top vertex, read from the end.
    dec = _dec("4")
    conf = initial_configuration(dec, _elements(dec, [1, 1, 1, 1]))
    for vidx in (-1, conf.lattice.num_vertices):
        with pytest.raises(InputError, match=f"^vertex index {vidx} outside 0..2$"):
            merge_step(conf, vidx, 0)
    assert list(conf.move_log) == [] and conf.count_profile() == (0, 0, 4)


def test_merge_consumes_lowest_ids():
    dec = _dec("4")
    els = _elements(dec, [3, 1, 1, 3])
    conf = initial_configuration(dec, els)
    top = conf.lattice.vertex_index((2,))
    merge_step(conf, top, 0)
    assert list(conf.move_log)[0].consumed == (1, 2)


def test_greedy_plan_on_profiles():
    dec = _dec("4")
    lat = build_lattice(dec)
    # Four pebbles on the order-4 vertex reach the root in three moves.
    assert _greedy_plan(lat, (0, 0, 4)) == [(2, 0, 2), (1, 0, 1)]
    # A pebble already at the root needs no plan.
    assert _greedy_plan(lat, (1, 0, 0)) == []
    # Three pebbles split 1/2 across levels cannot move at all.
    assert _greedy_plan(lat, (0, 1, 1)) is None


def _replay(lat, start, plan):
    """Apply a plan's runs under the count rules (each move needs a pile of at
    least its edge weight) and return the final profile."""
    counts = list(start)
    for vidx, ci, k in plan:
        assert k >= 1
        _, w, child = next(mv for mv in lat.moves[vidx] if mv[0] == ci)
        assert counts[vidx] >= k * w, f"move at vertex {vidx} needs {w} pebbles per move"
        counts[vidx] -= k * w
        counts[child] += k
    return counts


def _assert_plans(lat, profile, plan):
    assert plan is not None, profile
    assert _replay(lat, profile, plan)[lat.root_index] >= 1, profile


def _z12_stall_profile(lat):
    # Greedy spends the divisor-6 pile on the cheap edge and strands the rest.
    profile = [0] * lat.num_vertices
    profile[lat.vertex_index((2, 1))] = 7
    profile[lat.vertex_index((1, 1))] = 2
    profile[lat.vertex_index((2, 0))] = 3
    return tuple(profile)


def test_eliminate_plan_completes_where_greedy_stalls():
    lat = build_lattice(_dec("12"))
    profile = _z12_stall_profile(lat)
    assert _greedy_plan(lat, profile) is None
    _assert_plans(lat, profile, _eliminate_plan(lat, profile))
    # One element of order 6 and 35 of order 36: collapsing one coordinate at
    # a time, in either order, misses this profile.
    lat = build_lattice(_dec("36"))
    profile = (0, 0, 0, 0, 1, 0, 0, 0, 35)
    assert lat.vertices[4].divisor == 6 and _greedy_plan(lat, profile) is None
    _assert_plans(lat, profile, _eliminate_plan(lat, profile))


def test_eliminate_plan_reports_dead_profiles():
    dec = _dec("4")
    lat = build_lattice(dec)
    assert _eliminate_plan(lat, (0, 1, 1)) is None


def test_eliminate_plan_exact_moves():
    # Z_6, six pebbles on top: both coordinates keep kept * v = 6, and the tie
    # goes to coordinate 0 (p = 2).
    lat = build_lattice(_dec("6"))
    assert _eliminate_plan(lat, (0, 0, 0, 6)) == [(3, 0, 3), (1, 1, 1)]
    # Planning stops at the first root pebble, with pebbles left for more moves.
    lat = build_lattice(_dec("4"))
    assert _eliminate_plan(lat, (0, 4, 0)) == [(1, 0, 1)]


def _profiles(total, parts):
    """Every count profile of `total` pebbles on `parts` vertices."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _profiles(total - first, parts - 1):
            yield (first,) + rest


# Every lattice with at most about 2 * 10^5 count profiles of |G| pebbles.
EXHAUSTIVE_GROUPS = [str(n) for n in range(6, 36) if n not in (24, 30, 32)] + [
    "2,6", "3,6", "6,6", "2,10", "4,6", "2,2,6", "2,14", "2,2,10",
]


def _elimination_ratios(lat, profile):
    """`_eliminate_plan` copied step for step, with each step's best kept * v
    over T, the pebbling number of the step's box: the product of its edge
    weights, |G| for the whole lattice."""
    root, vertices, weights = lat.root_index, lat.vertices, lat.level_weights
    prof, tops, need = list(profile), list(lat.dec.heights), lat.dec.group_order
    plan, ratios = [], []
    while not prof[root]:
        box = [x for x in lat.scan_order if prof[x] and all(map(int.__le__, vertices[x].u, tops))]
        scores = {i: weights[i][h - 1] * sum(prof[x] if vertices[x].u[i] < h else prof[x] // weights[i][h - 1]
                                             for x in box) for i, h in enumerate(tops) if h}
        i = max(scores, key=scores.get)
        ratios.append(Fraction(scores[i], need))
        h, v, stride = tops[i], weights[i][tops[i] - 1], lat.strides[i]
        for x in box:
            if vertices[x].u[i] == h and prof[x] >= v:
                if x - stride == root:
                    return plan + [(x, i, 1)], ratios
                k = prof[x] // v
                prof[x] -= k * v
                prof[x - stride] += k
                plan.append((x, i, k))
        tops[i] -= 1
        need //= v
    return plan, ratios


@pytest.mark.slow
def test_every_count_profile_of_small_lattices_plans():
    stalls, least = {}, math.inf
    for text in EXHAUSTIVE_GROUPS:
        lat = build_lattice(_dec(text))
        assert math.prod(map(math.prod, lat.level_weights)) == lat.dec.group_order
        stalls[text] = 0
        for profile in _profiles(lat.dec.group_order, lat.num_vertices):
            eliminated = _eliminate_plan(lat, profile)
            _assert_plans(lat, profile, eliminated)
            greedy = _greedy_plan(lat, profile)  # solve_to_root's order: greedy, then elimination
            if greedy is None:
                stalls[text] += 1
                # ROADMAP item 3, Route C: where greedy stalls, every elimination step qualifies.
                plan, ratios = _elimination_ratios(lat, profile)
                assert plan == eliminated and min(ratios) >= 1, (text, profile, ratios)
                least = min(least, *ratios)
            else:
                _assert_plans(lat, profile, greedy)
    # The greedy pass is unchanged: its stalls on the cyclic groups measured before.
    assert [stalls[t] for t in ("6", "12", "18", "20")] == [1, 9, 4, 9]
    assert (sum(stalls.values()), least) == (74, 1)


@pytest.mark.parametrize("text, bound, count", [("30", 6, 1716), ("60", 10, 352716)])
def test_profiles_near_the_top_always_qualify(text, bound, count):
    # For Z_30 and Z_60 sum(1 / v_i) = 31/30 > 1, so the planner's proof needs
    # this finite check: a profile where no coordinate qualifies has at most
    # sum(|N_i| - 2) pebbles off the top vertex, and every such profile has a
    # coordinate with kept * v >= T. Partial sums of kept are carried down the
    # enumeration, so each profile costs O(d).
    lat = build_lattice(_dec(text))
    tops, total = lat.dec.heights, lat.dec.group_order
    level_sizes = [sum(1 for vx in lat.vertices if vx.u[i] == h) for i, h in enumerate(tops)]
    assert sum(n - 2 for n in level_sizes) == bound
    weights = [lat.level_weights[i][h - 1] for i, h in enumerate(tops)]
    others = [vx.u for vx in lat.vertices if vx.u != tops]
    seen = 0

    def walk(k, left, kept):
        nonlocal seen
        if k == len(others):
            seen += 1
            top_pile = total - (bound - left)
            assert any((b + top_pile // v) * v >= total for b, v in zip(kept, weights))
            return
        u = others[k]
        for c in range(left + 1):
            walk(k + 1, left - c, [b + (c if a < h else c // v) for b, a, h, v in zip(kept, u, tops, weights)])

    walk(0, bound, [0] * len(tops))
    assert seen == count


@pytest.mark.parametrize("n", [60, 210, 2310, 30030])
def test_top_pile_plus_strays_plans(n):
    lat = build_lattice(_dec(str(n)))
    top = lat.vertex_index(lat.dec.heights)
    rng = random.Random(n)
    for _ in range(40):
        profile = [0] * lat.num_vertices
        for _ in range(rng.randint(1, 3)):
            profile[rng.randrange(lat.num_vertices)] += 1
        profile[top] += n - sum(profile)
        _assert_plans(lat, profile, _eliminate_plan(lat, tuple(profile)))


def test_profile_with_no_qualifying_coordinate_plans():
    lat = build_lattice(_dec("907200"))
    top = (6, 4, 2, 1)
    assert lat.dec.heights == top
    strays = [(k, 4, 2, 1) for k in range(5)] + [(6, k, 2, 1) for k in range(3)]
    strays += [(6, 4, k, 1) for k in range(2)] + [(6, 4, 2, 0)]
    profile = [0] * lat.num_vertices
    profile[lat.vertex_index(top)] = 907200 - len(strays)
    for u in strays:
        profile[lat.vertex_index(u)] += 1
    for i, h in enumerate(top):
        v = lat.level_weights[i][h - 1]
        kept = sum(c if vx.u[i] < h else c // v for vx, c in zip(lat.vertices, profile))
        assert kept * v < 907200, f"coordinate {i} qualifies"
    _assert_plans(lat, profile, _eliminate_plan(lat, tuple(profile)))


def test_fallback_regression_z12():
    # Seeded stress once produced this ordering, the first input observed to
    # stall the greedy scheduler; keep it as a fixed fallback exercise.
    raws = [7, 7, 10, 3, 5, 7, 5, 3, 5, 2, 1, 9]
    dec, els, conf, cert = _solve("12", raws)
    assert conf.fallback_fired
    assert verify_certificate(dec, els, cert.indices).passed


def test_planner_failure_names_group_and_profile(monkeypatch, capsys):
    monkeypatch.setattr(zerosum.engine, "_eliminate_plan", lambda lattice, start: None)
    argv = ["solve-cyclic", "--n", "12", "--seq", "7,7,10,3,5,7,5,3,5,2,1,9"]
    assert main(argv) == 3
    line = capsys.readouterr().err.strip()
    assert line.startswith("internal invariant violation: no plan reaches the root: group 12,")
    # The report alone rebuilds the stalling profile.
    pairs = dict(tok.split(":") for tok in line.split("count profile ")[1].split())
    lat = build_lattice(_dec("12"))
    profile = tuple(int(pairs.get(str(v.divisor), 0)) for v in lat.vertices)
    assert profile == _z12_stall_profile(lat)


def test_well_placed_examples():
    dec = _dec("4")
    one = to_primary_coordinates((1,), dec)
    two = to_primary_coordinates((2,), dec)
    zero = identity(dec)
    assert well_placed(zero, _cost(dec, zero), (0,), dec)
    assert not well_placed(one, _cost(dec, one), (0,), dec)
    assert well_placed(one, _cost(dec, one), (2,), dec)
    assert well_placed(two, _cost(dec, two), (1,), dec)
    assert not well_placed(two, _cost(dec, two), (0,), dec)
    # Cost budget alone can disqualify: a divisible value with bloated cost.
    assert not well_placed(zero, 5, (0,), dec)


def test_debug_mode_env(monkeypatch):
    monkeypatch.setenv("ZEROSUM_DEBUG", "1")
    dec = _dec("4")
    conf = initial_configuration(dec, _elements(dec, [1, 1, 1, 1]))
    assert conf.debug
    monkeypatch.delenv("ZEROSUM_DEBUG")
    conf = initial_configuration(dec, _elements(dec, [1, 1, 1, 1]))
    assert not conf.debug


def test_solve_is_deterministic():
    raws = [(1, 2), (3, 1), (2, 2), (0, 1), (3, 0), (1, 1), (2, 1), (3, 2)]
    a = _solve("4,2", raws)
    b = _solve("4,2", raws)
    assert a[3].indices == b[3].indices
    assert [m._asdict() for m in a[2].move_log] == [m._asdict() for m in b[2].move_log]


def test_trivial_group_solves():
    dec, els, conf, cert = _solve("1", [(0,)])
    assert cert.indices == (1,)
    assert cert.ord_cost == 1
    assert cert.bound == 1


@given(small_group_texts, st.data())
@settings(max_examples=150, deadline=None)
def test_random_sequences_solve_and_verify(text, data):
    dec = _dec(text)
    raws = [
        data.draw(st.integers(0, dec.group_order - 1)) for _ in range(dec.group_order)
    ]
    els = _columns(dec, [element_from_index(dec, i) for i in raws])
    conf = _debugged(initial_configuration(dec, els))
    root = solve_to_root(conf)
    cert = extract_certificate(root, dec, els)
    verdict = verify_certificate(dec, els, cert.indices)
    assert verdict.passed, verdict.failures
    assert 1 <= len(cert.indices) <= dec.exponent
    # Conservation: every move burns exactly its weight and mints one pebble.
    for m in conf.move_log:
        assert len(m.consumed) == m.weight
        assert len(m.selected) >= 1
        assert set(m.selected) <= set(m.consumed)
    # Disjointness across the survivors.
    seen: set[int] = set()
    for peb in conf.live_pebbles():
        assert not (peb.members & seen)
        seen |= peb.members


@given(small_group_texts, st.data())
@settings(max_examples=60, deadline=None)
def test_certificate_cost_meets_declared_bound(text, data):
    dec = _dec(text)
    rows = [
        element_from_index(dec, data.draw(st.integers(0, dec.group_order - 1)))
        for _ in range(dec.group_order)
    ]
    els = _columns(dec, rows)
    conf = initial_configuration(dec, els)
    cert = extract_certificate(solve_to_root(conf), dec, els)
    recomputed = sum(_cost(dec, rows[k - 1]) for k in cert.indices)
    total = identity(dec)
    for k in cert.indices:
        total = add_elements(dec, total, rows[k - 1])
    assert total == identity(dec)
    assert recomputed == cert.ord_cost <= dec.exponent


def test_verify_certificate_failure_modes():
    dec = _dec("2,2")
    els = _elements(dec, [(1, 0), (0, 1), (1, 1), (1, 0)])
    assert verify_certificate(dec, els, [1, 4]).passed
    bad = verify_certificate(dec, els, [1, 2, 3])
    assert not bad.passed
    assert any("order cost" in f for f in bad.failures)
    empty = verify_certificate(dec, els, [])
    assert not empty.passed
    assert any("empty" in f for f in empty.failures)
    nonzero = verify_certificate(dec, els, [1, 2])
    assert not nonzero.passed
    assert any("identity" in f for f in nonzero.failures)
    with pytest.raises(InputError):
        verify_certificate(dec, els, [0])
    with pytest.raises(InputError):
        verify_certificate(dec, els, [5])
    with pytest.raises(InputError):
        verify_certificate(dec, els, [1, 1])


def test_extract_requires_root_pebble():
    dec = _dec("4")
    els = _elements(dec, [1, 1, 1, 1])
    conf = initial_configuration(dec, els)
    stray = conf.live_pebbles()[0]
    assert stray.vertex.u == (2,)
    with pytest.raises(InputError):
        extract_certificate(stray, dec, els)


def test_debug_mode_catches_tampered_cached_value():
    # Pebble 1 claims the value 3 instead of 1: still of order 4, so it stays
    # well placed and the merge goes through; only the debug recomputation
    # from the merge tree's leaves sees that pebble 5 is wrong.
    dec = _dec("4")
    els = _elements(dec, [1, 1, 1, 1])
    three = to_primary_coordinates((3,), dec)
    for debug in (False, True):
        conf = _debugged(initial_configuration(dec, els), debug)
        top = conf.lattice.vertex_index((2,))
        assert conf.pools[top][0] == 1
        conf.cols[0][1] = three[0]
        if not debug:
            merge_step(conf, top, 0)
            continue
        message = "cached value of pebble 5 disagrees with its members: group 4, count profile 2:1 4:2$"
        with pytest.raises(InternalInvariantError, match=message):
            merge_step(conf, top, 0)


def test_merge_refuses_consumed_pebble_not_well_placed():
    # Pebbles 1 and 2 (value 2) sit on divisor 2, where coordinates must be
    # even; pebble 1 is made to claim the odd value 1.
    dec = _dec("4")
    els = _elements(dec, [2, 2, 1, 1])
    conf = initial_configuration(dec, els)
    lat = conf.lattice
    assert conf.pools[lat.vertex_index((1,))][0] == 1
    conf.cols[0][1] = 1
    with pytest.raises(InternalInvariantError, match="pebble 1 is not well placed at vertex 2"):
        merge_step(conf, lat.vertex_index((1,)), 0)


def test_extract_refuses_root_whose_members_do_not_sum_to_zero():
    dec, els, conf, cert = _solve("4", [1, 1, 1, 1])
    root = conf.root_pebble()
    assert root.members == frozenset(cert.indices) == frozenset([1, 2, 3, 4])
    # Cut the merge tree to one branch: members 1 and 2 sum to 2, not 0. The
    # move log is the tree, and the root's last move made it, as the one move
    # of the last run, whose block keeps kept[block].
    last = list(conf.move_log)[-1]
    assert last.new_id == root.pid and last.selected == (5, 6)
    run = conf.move_log.runs[-1]
    (block,) = run.blocks
    conf.move_log.runs[-1] = run._replace(blocks=[slice(block.start, block.stop - 1)])
    assert root.members == frozenset([1, 2])
    message = "fails recheck; solver state is corrupt: group 4, count profile 1:1$"
    with pytest.raises(InternalInvariantError, match=message):
        extract_certificate(root, dec, els)


def _seeded_nonzero(text, seed):
    """|G| seeded elements of the group, none the identity (so some move is made)."""
    dec = _dec(text)
    rng = random.Random(seed)
    return dec, _columns(dec, [element_from_index(dec, 1 + rng.randrange(dec.group_order - 1)) for _ in range(dec.group_order)])


@pytest.mark.parametrize(
    "text, make",
    [
        ("2310", lambda dec: [[x for x in range(1, 2311) if math.gcd(x, 2310) == 1] * 5]),
        ("16", None),
        ("4,2,2", None),
        ("9,3", None),
        ("6,6", None),
        ("8,4,2", None),
        ("12,6", None),
        ("12", lambda dec: _elements(dec, [7, 7, 10, 3, 5, 7, 5, 3, 5, 2, 1, 9])),
        ("210", lambda dec: _elements(dec, [105] + [1] * 209)),
    ],
)
def test_batched_runs_match_single_moves(text, make):
    # solve_to_root makes each planned run in one merge_step call; replaying the same plan one move per call gives the same pebbles.
    if make is None:
        dec, els = _seeded_nonzero(text, 3)
    else:
        dec = _dec(text)
        els = [col[: dec.group_order] for col in make(dec)]
    batched = _debugged(initial_configuration(dec, els), dec.group_order <= 72)
    root = solve_to_root(batched)
    single = initial_configuration(dec, els)
    profile = single.count_profile()
    plan = _greedy_plan(single.lattice, profile)
    assert (plan is None) == batched.fallback_fired == (text in ("12", "210"))
    plan = plan if plan is not None else _eliminate_plan(single.lattice, profile)
    assert any(k >= 2 for _, _, k in plan), "no run of two or more moves"
    for vidx, ci, k in plan:
        for _ in range(k):
            merge_step(single, vidx, ci)
    assert list(batched.move_log) == list(single.move_log)
    assert [p.pid for p in batched.live_pebbles()] == [p.pid for p in single.live_pebbles()]
    assert [p.val for p in batched.live_pebbles()] == [p.val for p in single.live_pebbles()]
    assert root.pid == single.root_pebble().pid
    a = extract_certificate(root, dec, els)
    b = extract_certificate(single.root_pebble(), dec, els)
    assert a == b


def _z8_order_two_run(tamper_pid, value, debug):
    # Eight pebbles of value 4 sit on divisor 2, where coordinates must be
    # 0 mod 4; one run makes all four weight-2 moves there.
    dec = _dec("8")
    conf = _debugged(initial_configuration(dec, _elements(dec, [4] * 8)), debug)
    vidx = conf.lattice.vertex_index((1,))
    assert tamper_pid in conf.pools[vidx]
    conf.cols[0][tamper_pid] = value
    return conf, vidx


def test_batched_run_refuses_misplaced_pebble_at_its_move():
    conf, vidx = _z8_order_two_run(3, 2, debug=False)
    before = _state(conf)
    with pytest.raises(InternalInvariantError, match="pebble 3 is not well placed at vertex 2"):
        merge_step(conf, vidx, 0, 4)
    # The second move consumes pebble 3, so the run makes none of its moves.
    assert _state(conf) == before and list(conf.move_log) == []
    # With pebble 6 misplaced too, the error still names the first, pebble 3.
    conf.cols[0][6] = 6
    with pytest.raises(InternalInvariantError, match="pebble 3 is not well placed at vertex 2"):
        merge_step(conf, vidx, 0, 4)


def test_batched_run_stops_at_the_first_misplaced_pebble_in_any_coordinate():
    # Z_4 + Z_4: pebbles 1-12 have order 2 and sit on divisor 2, where both
    # coordinates must be even; a run of two weight-4 moves there consumes
    # pebbles 1-8. Pebble 5 is odd in coordinate 1, pebble 6 in coordinate 0:
    # the error names pebble 5, and the run makes no move.
    dec = _dec("4,4")
    raws = [(2, 0)] * 4 + [(0, 2)] * 4 + [(2, 2)] * 4 + [(1, 0)] * 4
    conf = initial_configuration(dec, _elements(dec, raws))
    vidx = conf.lattice.vertex_index((1,))
    assert conf.pools[vidx] == list(range(1, 13))
    (conf.cols[0][5], conf.cols[1][5]), (conf.cols[0][6], conf.cols[1][6]) = (0, 1), (1, 2)
    before = _state(conf)
    with pytest.raises(InternalInvariantError, match="pebble 5 is not well placed at vertex 2"):
        merge_step(conf, vidx, 0, 2)
    assert _state(conf) == before and conf.pools[vidx] == list(range(1, 13))


def test_batched_run_debug_catches_tampered_value_at_its_move():
    # Pebble 3 claims 0 instead of 4: still well placed, so only the debug
    # recomputation sees that pebble 10, made from it alone, is wrong.
    conf, vidx = _z8_order_two_run(3, 0, debug=False)
    merge_step(conf, vidx, 0, 4)
    assert len(conf.move_log) == 4
    conf, vidx = _z8_order_two_run(3, 0, debug=True)
    with pytest.raises(InternalInvariantError, match="cached value of pebble 10"):
        merge_step(conf, vidx, 0, 4)
    # The recheck follows the whole run's placement and reads its ids in order.
    assert [m.new_id for m in conf.move_log] == [9, 10, 11, 12]


def _z8_two_runs(raws):
    # Order-8 pebbles (value 1) merge in pairs at divisor 8; three such moves
    # land value 2 at divisor 4 beside the order-4 inputs, and two moves there
    # take the lowest four ids of that pool.
    dec = _dec("8")
    conf = initial_configuration(dec, _elements(dec, raws))
    lat = conf.lattice
    merge_step(conf, lat.vertex_index((3,)), 0, 3)
    merge_step(conf, lat.vertex_index((2,)), 0, 2)
    return conf


def test_tuple_and_range_runs_give_the_same_table():
    # Interleaved inputs leave gaps in both pools, so both runs are tuples of
    # ids; grouped inputs keep both pools consecutive, so both are ranges.
    gaps = _z8_two_runs([1, 1, 2, 1, 1, 2, 1, 1])
    dense = _z8_two_runs([1, 1, 1, 1, 1, 1, 2, 2])
    assert [r.run for r in gaps.move_log.runs] == [(1, 2, 4, 5, 7, 8), (3, 6, 9, 10)]
    assert [r.run for r in dense.move_log.runs] == [range(1, 7), range(7, 11)]
    # Inputs stay in their own slots; the merged slots, consumed or live, match.
    # Z_8's column is a bytearray, whose unused slot 0 holds 0.
    assert type(gaps.cols[0]) is type(dense.cols[0]) is bytearray
    assert list(gaps.cols[0][:9]) == [0, 1, 1, 2, 1, 1, 2, 1, 1]
    assert list(dense.cols[0][:9]) == [0, 1, 1, 1, 1, 1, 1, 2, 2]
    assert list(gaps.cols[0][9:]) == list(dense.cols[0][9:]) == [2, 2, 2, 4, 4]
    assert gaps.costs[9:] == dense.costs[9:] == [2, 2, 2, 4, 4]
    assert gaps.pools == dense.pools
    assert [m.selected for m in gaps.move_log][3:] == [(3, 6), (9, 10)]
    assert [m.selected for m in dense.move_log][3:] == [(7, 8), (9, 10)]


def test_every_slot_keeps_its_written_value():
    # Seed 0 over Z_4 + Z_2 + Z_2 consumes four merged pebbles, the last run
    # in dimension 3. Each merged pebble, consumed or live, still holds the
    # sum of its members.
    dec, els = _seeded_nonzero("4,2,2", 0)
    conf = initial_configuration(dec, els)
    root = solve_to_root(conf)
    log = conf.move_log
    consumed = {q for m in log for q in m.consumed}
    merged = range(log.base, log.base + len(log))
    assert len(conf.cols) == 3 and consumed & set(merged)
    for j, col in enumerate(conf.cols):
        assert len(col) == len(conf.costs) == log.base + len(log)
        assert list(col[1 : log.base]) == els[j]
    for q in merged:
        val, cost = _recompute(dec, els, sorted(_leaves(conf, q)))
        assert conf.value(q) == val and conf.costs[q] == cost
    assert conf.value(root.pid) == root.val == identity(dec)


def test_merge_step_count_checks_the_pool_once():
    dec = _dec("8")
    conf = initial_configuration(dec, _elements(dec, [4] * 8))
    vidx = conf.lattice.vertex_index((1,))
    with pytest.raises(InputError, match="holds 8 pebbles, 5 move"):
        merge_step(conf, vidx, 0, 5)
    with pytest.raises(InputError, match="move count"):
        merge_step(conf, vidx, 0, 0)
    assert list(conf.move_log) == []
    assert len(conf.pools[conf.lattice.vertex_index((1,))]) == 8


# --- Whole-run merges against the per-move loop they replaced ---------------
#
# `_zero_sum_block` and `_merge_step_per_move` are verbatim copies of the base
# case and of `merge_step` from before a run's moves were made from one
# base-case pass and prefix sums (only the function name differs), except
# that the per-move loop logs each move as a run of one, reads and writes
# pebble values through the column table (`conf.value`, one append per
# column), adds the group and count profile to its errors, and takes the
# vertex by its index and reads its residual moduli from the lattice's
# per-level table, as `merge_step` now does. Every comparison runs both on
# copies of one configuration and asserts the same move log, columns, costs,
# pools and exception message.


def _zero_sum_block(p: int, items: list[int]) -> list[int]:
    """Nonempty 1-based index set summing to 0 mod p, from exactly p residues
    already reduced mod a prime p.

    A zero residue wins as a singleton; otherwise the p+1 prefix sums collide
    and the first collision found while scanning gives a consecutive block of
    at most p indices.
    """
    if 0 in items:
        return [items.index(0) + 1]
    first_seen = {0: 0}
    s = 0
    for k, x in enumerate(items, start=1):
        s = (s + x) % p
        if s in first_seen:
            return list(range(first_seen[s] + 1, k + 1))
        first_seen[s] = k
    raise InternalInvariantError("prefix sums of p residues failed to collide")


def _merge_step_per_move(conf, vidx, coordinate, count=1):
    lattice = conf.lattice
    vertex = lattice.vertices[vidx]
    u = vertex.u
    i = coordinate
    if not 0 <= i < len(u) or u[i] < 1:
        raise InputError(f"vertex {vertex.divisor} has no down edge in coordinate {i}")
    if count < 1:
        raise InputError(f"move count must be positive, got {count}")
    pool = conf.pools[vidx]
    dec = conf.dec
    p = dec.primes[i]
    dims = lattice.duals[i][u[i] - 1]
    weight = lattice.level_weights[i][u[i] - 1]
    need = count * weight
    if len(pool) < need:
        raise InputError(
            f"vertex {vertex.divisor} holds {len(pool)} pebbles, "
            f"{count} move(s) of weight {weight} need {need}"
        )
    run = tuple(pool[:need])
    del pool[:need]

    costs = conf.costs
    rows = list(map(conf.value, run))
    bad = need  # position in the run of the first misplaced pebble
    columns = []
    for j, m in enumerate(lattice.level_moduli[u[i]][i][:dims]):
        col = list(map(itemgetter(j), rows))
        if m > 1:
            rems = list(map(m.__rmod__, col))
            if any(rems):
                bad = min(bad, next(k for k, r in enumerate(rems) if r))
            col = map(m.__rfloordiv__, col)
        columns.append(list(map(p.__rmod__, col)))
    if dims == 1:
        reduced, block = columns[0], _zero_sum_block
    else:
        reduced, block = list(zip(*columns)), _elementary_block

    child_idx = vidx - lattice.strides[i]
    child_pool = conf.pools[child_idx]
    budget, congruences = lattice.placement[child_idx]
    factors = dec.invariant_factors
    child_moduli = [1] * len(factors)  # the child's congruence on each coordinate
    for j, m in congruences:
        child_moduli[j] = m
    divisor, log = vertex.divisor, conf.move_log
    new_id = len(costs)
    for s in range(0, bad - bad % weight, weight):
        consumed = run[s : s + weight]
        selected = tuple([consumed[k - 1] for k in block(p, reduced[s : s + weight])])
        val = tuple(map(mod, map(sum, zip(*map(conf.value, selected))), factors))
        cost = sum(map(costs.__getitem__, selected))
        if cost > budget or any(map(mod, val, child_moduli)):
            child = lattice.vertices[child_idx]
            raise InternalInvariantError(
                f"merged pebble {new_id} is not well placed at vertex {child.divisor}: {conf.context()}"
            )
        for col, x in zip(conf.cols, val):
            col.append(x)
        costs.append(cost)
        child_pool.append(new_id)
        # The move as a run of one: it consumed its chunk and kept all of `selected`.
        log.runs.append(_Run(divisor, p, weight, consumed, new_id, selected, 0, [slice(0, len(selected))]))
        log.moves += 1
        if conf.debug:
            _debug_check(conf, [new_id])
        new_id += 1
    if bad < need:
        raise InternalInvariantError(f"pebble {run[bad]} is not well placed at vertex {divisor}: {conf.context()}")
    return conf


def _copy(conf):
    twin = copy.copy(conf)
    twin.cols, twin.costs, twin.move_log = list(map(list, conf.cols)), list(conf.costs), copy.copy(conf.move_log)
    twin.move_log.runs = list(conf.move_log.runs)
    twin.pools = list(map(list, conf.pools))
    return twin


def _state(conf):
    """Columns, costs, pools and move log of conf, as plain lists."""
    tables = list(map(list, conf.cols)), list(conf.costs), list(map(list, conf.pools))
    return *tables, conf.move_log.runs[:], len(conf.move_log)


def _run_both(conf, vidx, ci, count, tamper=None):
    """merge_step and the per-move loop on copies of conf, after `tamper`
    (applied to each copy), and the message of merge_step's error, or None.
    On success both reach the same state. On failure both errors have the
    same clause (the text before ": group"), and merge_step's message ends
    with its copy's context. That copy is as it was before the call, but for
    a debug recheck, which follows the run's placement."""
    outcomes = []
    for step in (merge_step, _merge_step_per_move):
        twin = _copy(conf)
        if tamper is not None:
            tamper(twin)
        before = _state(twin)
        try:
            step(twin, vidx, ci, count)
            message = None
        except InternalInvariantError as exc:
            message = str(exc)
        outcomes.append((twin, before, message))
    (new, before, message), (old, _, old_message) = outcomes
    if message is not None:
        assert message.partition(": group")[0] == old_message.partition(": group")[0]
        assert message.endswith(new.context())
        if message.startswith(("cached value", "live pebbles")):
            assert len(new.move_log) == before[4] + count
        else:
            assert _state(new) == before
        return message
    assert old_message is None
    # Both logs start with conf's own runs; the moves after them are compared
    # one record at a time.
    runs, start = conf.move_log.runs, len(conf.move_log)
    assert new.move_log.runs[: len(runs)] == old.move_log.runs[: len(runs)] == runs
    assert len(new.move_log) == len(old.move_log)
    added = list(new.move_log)[start:]
    assert added == list(old.move_log)[start:]
    assert all(type(m) is MoveRecord for m in added)
    assert new.cols == old.cols and new.costs == old.costs and new.pools == old.pools
    return message


def _counts(most):
    """Every count from 1 to the most a pool allows, sampled above 12."""
    return range(1, most + 1) if most <= 12 else sorted({1, 2, 3, most // 3, most // 2, most - 1, most})


def _plan_steps(text, seed):
    """Each planned run of a seeded solve over the group, with the configuration
    it starts from: max-order (units) for seed 0 of a cyclic group, |G| seeded
    nonzero elements otherwise."""
    dec = _dec(text)
    if seed == 0 and "," not in text:
        rng = random.Random(seed)
        units = [x for x in range(1, dec.group_order) if math.gcd(x, dec.group_order) == 1]
        els = [[rng.choice(units) for _ in range(dec.group_order)]]
    else:
        dec, els = _seeded_nonzero(text, seed)
    conf = _debugged(initial_configuration(dec, els), dec.group_order <= 32)
    profile = conf.count_profile()
    plan = _greedy_plan(conf.lattice, profile) or _eliminate_plan(conf.lattice, profile)
    for vidx, ci, k in plan:
        yield conf, vidx, ci, k
        merge_step(conf, vidx, ci, k)
    assert conf.root_pebble() is not None


# "514,2" makes d = 2 moves on a column with items up to 513, and "257,257"
# on p > 256: the per-column `residues` and the tuple sources of `_vectors`.
EQUIVALENCE_GROUPS = ["8", "60", "2310", "2187", "4,2,2", "9,3", "2,2,2,2,2", "514,2", "257,257"]


@pytest.mark.parametrize(
    "text", [pytest.param(t, marks=pytest.mark.slow) if t in ("2310", "257,257") else t for t in EQUIVALENCE_GROUPS]
)
def test_whole_run_merges_match_the_per_move_loop(text, monkeypatch):
    # At every planned run, every occupied vertex and down edge, for counts up
    # to the pool's maximum.
    sources = set()  # (row type, whether some column held an item past 255) of each _vectors call

    def spy(p, cols):
        vecs = _vectors(p, cols)
        sources.add((type(vecs[0]), max(map(max, cols)) > 255))
        return vecs

    monkeypatch.setattr(zerosum.engine, "_vectors", spy)
    longest = 0
    for seed in (0, 1, 2):
        for conf, _, _, _ in _plan_steps(text, seed):
            lattice = conf.lattice
            for vidx, pool in enumerate(conf.pools):
                u = lattice.vertices[vidx].u
                for ci in range(len(u)):
                    if u[ci] >= 1 and len(pool) >= (weight := lattice.level_weights[ci][u[ci] - 1]):
                        for count in _counts(len(pool) // weight):
                            assert _run_both(conf, vidx, ci, count) is None
                            longest = max(longest, count)
    # Z_2^5's only edge out of the top vertex takes all 32 pebbles, Z_257^2's all 66,049.
    assert longest >= (1 if text in ("2,2,2,2,2", "257,257") else 4)
    # One bytes per vector for p <= 256, a tuple of ints for p > 256; a cyclic group makes no d > 1 move.
    types = {row for row, _ in sources}
    assert types == ({tuple} if text == "257,257" else {bytes} if "," in text else set())
    assert ((bytes, True) in sources) == (text == "514,2")


def _tampers(conf, vidx, ci, count):
    """(kind, tamper) pairs for a run: in its first, a middle and its last
    move, one consumed pebble off its vertex's congruence ("input"), one
    shifted by the run's own reduction step so that only the child's
    congruence can see it ("congruence"), and a whole move's costs raised past
    the child's budget ("budget")."""
    lattice = conf.lattice
    u = lattice.vertices[vidx].u
    p = conf.dec.primes[ci]
    weight = lattice.level_weights[ci][u[ci] - 1]
    m = lattice.level_moduli[u[ci]][ci][0]
    budget = lattice.placement[vidx - lattice.strides[ci]][0]
    run = conf.pools[vidx][: count * weight]
    out = []
    for move in sorted({0, count // 2, count - 1}):
        chunk = run[move * weight : (move + 1) * weight]
        pid = chunk[len(chunk) // 2]

        def shift(twin, pid=pid, by=1):
            twin.cols[0][pid] += by

        def raise_costs(twin, chunk=chunk):
            for q in chunk:
                twin.costs[q] += budget

        out.append(("input", shift))
        out.append(("congruence", functools.partial(shift, by=m * p)))
        out.append(("budget", raise_costs))
    return out


def test_whole_run_merges_fail_like_the_per_move_loop():
    seen = {}  # group -> (tamper kind, first word of the message) pairs
    for text in EQUIVALENCE_GROUPS:
        for seed in (0, 1):
            for conf, vidx, ci, k in _plan_steps(text, seed):
                for kind, tamper in _tampers(conf, vidx, ci, k):
                    message = _run_both(conf, vidx, ci, k, tamper)
                    if message is not None:
                        seen.setdefault(text, set()).add((kind, message.split(" ")[0]))
    assert set(seen) == set(EQUIVALENCE_GROUPS)
    # A misplaced input shows where a residual modulus is above 1 (never in the
    # squarefree Z_2310), a shift by the reduction step only where a second
    # prime's congruence sees it, and debug mode (|G| <= 32) sees tampered values.
    assert ("input", "pebble") in seen["2187"] & seen["60"] & seen["4,2,2"]
    assert ("congruence", "merged") in seen["60"] & seen["2310"]
    assert all(("budget", "merged") in kinds for kinds in seen.values())
    assert ("input", "cached") in seen["8"] & seen["2,2,2,2,2"]


# --- The run log: its sequence view, the tree walk and reproducible errors ---


def _with_reference(text, seed):
    """A seeded solve through `_plan_steps`, and the MoveRecords the per-move
    loop makes for the same plan, read straight off its runs of one move."""
    ref = None
    for conf, vidx, ci, k in _plan_steps(text, seed):
        ref = ref or _copy(conf)
        _merge_step_per_move(ref, vidx, ci, k)
    runs = ref.move_log.runs
    return conf, [MoveRecord(r.divisor, r.prime, r.weight, r.run, r.kept, r.first) for r in runs]


@pytest.mark.parametrize("text, seed", [("2310", 0), ("4,2,2", 1)])
def test_move_log_view_matches_the_per_move_reference(text, seed):
    # Max-order units of Z_2310 make runs of up to 1155 moves; Z_4+Z_2+Z_2
    # ends with a dimension-3 run (selections laid end to end, step 0).
    conf, expected = _with_reference(text, seed)
    log = conf.move_log
    assert len(log.runs) < len(log) == len(expected)
    assert any(run.step == 0 for run in log.runs) == (text == "4,2,2")
    assert list(log) == expected and {type(m) for m in log} == {MoveRecord}


def test_leaves_at_the_first_and_last_id_of_each_run():
    # A run is logged whole: it made one pebble per block from run.first on,
    # consumed weight ids per block, and the next run starts where it ends.
    for text, seed in (("2310", 0), ("4,2,2", 1)):
        conf, expected = _with_reference(text, seed)
        parts = {m.new_id: m.selected for m in expected}

        def leaves(q):
            return [x for s in parts[q] for x in leaves(s)] if q in parts else [q]

        log = conf.move_log
        ends = [run.first + len(run.blocks) for run in log.runs]
        assert [run.first for run in log.runs] == [log.base, *ends[:-1]]
        assert ends[-1] == log.base + len(log) == log.base + sum(len(run.blocks) for run in log.runs)
        assert all(len(run.run) == len(run.blocks) * run.weight for run in log.runs)
        assert any(end - run.first >= 2 for run, end in zip(log.runs, ends))
        for run, end in zip(log.runs, ends):
            for q in (run.first, end - 1):
                assert sorted(_leaves(conf, q)) == sorted(leaves(q))


def _z8_stopped_run(tamper):
    # Pebbles 1-6 (value 4) sit on divisor 2 and 7-8 (value 2) on divisor 4;
    # a run of three weight-2 moves at divisor 2 after `tamper`, which fails
    # and leaves the configuration as it found it.
    dec = _dec("8")
    conf = initial_configuration(dec, _elements(dec, [4] * 6 + [2] * 2))
    tamper(conf)
    before = _state(conf)
    with pytest.raises(InternalInvariantError) as exc:
        merge_step(conf, conf.lattice.vertex_index((1,)), 0, 3)
    assert _state(conf) == before
    return conf, str(exc.value)


def test_misplaced_pebble_error_names_the_group_and_count_profile():
    conf, message = _z8_stopped_run(lambda conf: conf.cols[0].__setitem__(3, 2))
    assert message == "pebble 3 is not well placed at vertex 2: group 8, count profile 2:6 4:2"
    assert list(conf.move_log) == []


def test_misplaced_merge_error_names_the_group_and_count_profile():
    conf, message = _z8_stopped_run(lambda conf: conf.costs.__setitem__(3, 12))
    assert message == "merged pebble 10 is not well placed at vertex 1: group 8, count profile 2:6 4:2"
    assert list(conf.move_log) == []


def test_misplaced_merge_error_at_one_over_the_budget():
    # Pebble 3 at cost 5 makes pebble 10 cost 9, one over the root's budget of 8.
    conf, message = _z8_stopped_run(lambda conf: conf.costs.__setitem__(3, 5))
    assert message == "merged pebble 10 is not well placed at vertex 1: group 8, count profile 2:6 4:2"


def test_misplaced_merge_error_names_the_first_merge_that_breaks_a_congruence():
    # Pebbles 1-4 (values 2, 6, 2, 2) sit on divisor 4; a run of two weight-2
    # moves there makes pebbles 9 (value 0) and 10 (value 4) on divisor 2,
    # whose rule is tightened to 0 mod 8: only the second merge breaks it.
    dec = _dec("8")
    conf = initial_configuration(dec, _elements(dec, [2, 6, 2, 2, 4, 4, 4, 4]))
    lat, child = conf.lattice, conf.lattice.vertex_index((1,))
    conf.lattice = lat._replace(placement=tuple((4, ((0, 8),)) if v == child else r for v, r in enumerate(lat.placement)))
    before = _state(conf)
    with pytest.raises(InternalInvariantError) as exc:
        merge_step(conf, lat.vertex_index((2,)), 0, 2)
    assert str(exc.value) == "merged pebble 10 is not well placed at vertex 2: group 8, count profile 2:4 4:4"
    assert _state(conf) == before


def test_leaves_past_a_stopped_run_names_the_group_and_count_profile():
    conf, _ = _z8_stopped_run(lambda conf: conf.cols[0].__setitem__(3, 2))
    with pytest.raises(InternalInvariantError) as exc:
        _leaves(conf, 9)
    assert str(exc.value) == "pebble 9 is made by no move in the log: group 8, count profile 2:6 4:2"


def test_base_case_errors_name_the_group_and_leave_the_run_unmade(monkeypatch):
    # A base case that finds no zero sum is a solver bug: merge_step adds the
    # context of the configuration, which the failed run left as it was.
    def no_block(*_):
        raise InternalInvariantError("prefix sums of p residues failed to collide")

    def no_line(*_):
        raise InternalInvariantError("no line collected p of the p**dim nonzero vectors")

    monkeypatch.setattr(zerosum.engine, "_zero_sum_blocks", no_block)
    conf, message = _z8_stopped_run(lambda conf: None)
    assert message == "prefix sums of p residues failed to collide: group 8, count profile 2:6 4:2"
    monkeypatch.setattr(zerosum.engine, "_elementary_block", no_line)
    dec = _dec("2,2")
    conf = initial_configuration(dec, _elements(dec, [(1, 0), (0, 1), (1, 1), (1, 0)]))
    before = _state(conf)
    with pytest.raises(InternalInvariantError) as exc:
        merge_step(conf, conf.lattice.vertex_index((1,)), 0)
    assert str(exc.value) == "no line collected p of the p**dim nonzero vectors: group 2,2, count profile 2:4"
    assert _state(conf) == before


def test_other_errors_in_a_run_leave_the_run_unmade(monkeypatch):
    # Any exception, not only a solver bug, puts the run's ids back on their
    # pool before it propagates unchanged.
    def interrupted(*_):
        raise KeyboardInterrupt

    monkeypatch.setattr(zerosum.engine, "_zero_sum_blocks", interrupted)
    dec = _dec("8")
    conf = initial_configuration(dec, _elements(dec, [4] * 6 + [2] * 2))
    before = _state(conf)
    with pytest.raises(KeyboardInterrupt):
        merge_step(conf, conf.lattice.vertex_index((1,)), 0, 3)
    assert _state(conf) == before


def test_a_top_vertex_run_frees_its_ids_before_the_checks():
    # Every unit of Z_2310 sits on the top vertex, one int object per id in
    # its pool. The first run consumes them all; taking them off the pool
    # before its column copies and base case are made keeps the run's peak
    # at about 19 bytes per pebble above what it started from, against 55
    # when the ids stay on the pool until the checks pass.
    n = 2310
    dec = _dec(str(n))
    tracemalloc.start()  # before the pool's ints exist, so freeing them counts
    try:
        units = [a for a in range(n) if math.gcd(a, n) == 1]  # 480 of them, each used about five times
        conf = initial_configuration(dec, _elements(dec, (units * 5)[:n]))
        vidx, coordinate, count = _greedy_plan(conf.lattice, conf.count_profile())[0]
        assert vidx == conf.lattice.num_vertices - 1 and count * 2 == n
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        merge_step(conf, vidx, coordinate, count)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 36 * n, peak / n


def test_an_elementary_solve_keeps_one_bytes_per_vector():
    # The one base case of Z_2^14 reads 16,384 vectors. Its solve's tracemalloc
    # peak above the start is about 1.8 MB with byte columns and one bytes per
    # vector, 3.4 MB with list columns, 6.7 MB with one tuple of ints each too.
    dec, els = _seeded_nonzero(",".join(["2"] * 14), 1)
    conf = initial_configuration(dec, els)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        solve_to_root(conf)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert len(conf.move_log) == 1
    assert peak < 5_000_000, peak


def test_an_elementary_encoding_and_solve_keep_one_byte_per_coordinate():
    # Encoding the |G| seeded nonzero elements of Z_2^14, placing them and
    # solving peaks about 2.4 MB above the start with one bytes column per
    # invariant factor (and a bytearray in the table), 7.3 MB with lists.
    dec, els = _seeded_nonzero(",".join(["2"] * 14), 1)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        conf = initial_configuration(dec, encode_sequence(els, dec))
        solve_to_root(conf)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert len(conf.move_log) == 1
    assert peak < 3_000_000, peak


@pytest.mark.parametrize("text", ["2,2,2", "9,3", "256", "257,257", "514,2", "30030"])
def test_a_column_is_bytes_exactly_where_its_invariant_factor_is_at_most_256(text):
    # Here every invariant factor is its own user factor, so each column is
    # that factor's user coordinates mod n, item for item: a bytes from
    # `residues` and `encode_sequence` and a bytearray in the table, merged
    # slots included, where n <= 256, and a list elsewhere. The user's
    # coordinates are shifted out of range both ways.
    dec, els = _seeded_nonzero(text, 2)
    assert dec.invariant_factors == dec.spec.cyclic_orders
    rng = random.Random(2)
    raws = [[x + n * rng.randrange(-2, 3) for x in col] for col, n in zip(els, dec.invariant_factors)]
    encoded = encode_sequence(raws, dec)
    conf = initial_configuration(dec, encoded)
    solve_to_root(conf)
    log = conf.move_log
    assert len(log) >= 1
    merged = [_recompute(dec, els, sorted(_leaves(conf, q)))[0] for q in range(log.base, log.base + len(log))]
    for j, (raw, n) in enumerate(zip(raws, dec.invariant_factors)):
        small = n <= 256
        want = [x % n for x in raw]
        for col, kind in ((residues(raw, n), bytes), (encoded[j], bytes), (conf.cols[j], bytearray)):
            assert type(col) is (kind if small else list)
        assert list(residues(raw, n)) == list(encoded[j]) == want
        assert conf.cols[j][0] == (0 if small else None)
        assert list(conf.cols[j][1 : log.base]) == want
        assert list(conf.cols[j][log.base :]) == [val[j] for val in merged]


def test_a_max_order_cyclic_solve_stays_under_its_memory_bound():
    # |G| seeded units of Z_30030 all start on the top vertex, whose first run
    # consumes them all. The solve's tracemalloc peak above the start is about
    # 2.2 MB with the run's ids off their pool before its checks, and about
    # 2.5 MB with the ids kept on the pool until the checks pass.
    n = 30030
    dec, rng, units = _dec(str(n)), random.Random(7), []
    while len(units) < n:
        a = rng.randrange(1, n)
        if math.gcd(a, n) == 1:
            units.append(a)
    conf = initial_configuration(dec, _elements(dec, units))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        solve_to_root(conf)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert len(conf.move_log) == 21178
    assert peak < 2_400_000, peak
