"""Pebble merging: hand traces, invariants under random inputs, verification."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerosum import (
    InputError,
    InternalInvariantError,
    add_elements,
    build_lattice,
    element_from_index,
    element_order,
    extract_certificate,
    identity,
    initial_configuration,
    merge_step,
    order_cost,
    parse_group_spec,
    primary_decomposition,
    solve_to_root,
    to_primary_coordinates,
    verify_certificate,
    well_placed,
)
from zerosum.engine import _greedy_plan, _search_plan

small_group_texts = st.sampled_from(["2", "3", "4", "2,2", "5", "6", "8", "9", "3,3", "12", "4,2", "2,2,2"])


def _dec(text: str):
    return primary_decomposition(parse_group_spec(text))


def _elements(dec, raws):
    return [to_primary_coordinates(tuple(r) if isinstance(r, (list, tuple)) else (r,), dec) for r in raws]


def _solve(text, raws, debug=None):
    dec = _dec(text)
    els = _elements(dec, raws)
    conf = initial_configuration(dec, els, debug=debug)
    root = solve_to_root(conf)
    cert = extract_certificate(root, dec, els, moves=conf.move_log)
    return dec, els, conf, cert


def test_initial_configuration_checks_length():
    dec = _dec("4")
    with pytest.raises(InputError):
        initial_configuration(dec, _elements(dec, [1, 1, 1]))


def test_initial_configuration_rejects_foreign_elements():
    dec = _dec("4")
    other = _dec("2,2")
    els = [identity(other)] * 4
    with pytest.raises(InputError):
        initial_configuration(dec, els)


def test_initial_pebbles_sit_on_order_vertices():
    dec = _dec("12")
    els = _elements(dec, [0, 1, 2, 3, 4, 6, 8, 9, 10, 5, 7, 11])
    conf = initial_configuration(dec, els)
    for pool in conf.pebbles_at.values():
        for peb in pool:
            assert peb.vertex.divisor == element_order(els[peb.pid - 1])
            assert peb.members == frozenset([peb.pid])


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


def test_zero_element_short_circuits():
    dec, els, conf, cert = _solve("5", [0, 1, 2, 3, 4])
    assert cert.indices == (1,)
    assert conf.move_log == []
    assert cert.ord_cost == 5


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
    top = lat.vertex_at(lat.vertex_index((2,)))
    merge_step(conf, top, 0)
    merge_step(conf, top, 0)
    with pytest.raises(InputError):
        merge_step(conf, top, 0)


def test_merge_step_rejects_root_move():
    dec = _dec("4")
    els = _elements(dec, [0, 0, 0, 0])
    conf = initial_configuration(dec, els)
    root = conf.lattice.vertex_at(conf.lattice.root_index)
    with pytest.raises(InputError):
        merge_step(conf, root, 0)


def test_merge_consumes_lowest_ids():
    dec = _dec("4")
    els = _elements(dec, [3, 1, 1, 3])
    conf = initial_configuration(dec, els)
    top = conf.lattice.vertex_at(conf.lattice.vertex_index((2,)))
    merge_step(conf, top, 0)
    assert conf.move_log[0].consumed == (1, 2)


def test_greedy_plan_on_profiles():
    dec = _dec("4")
    lat = build_lattice(dec)
    # Four pebbles on the order-4 vertex reach the root in three moves.
    plan = _greedy_plan(lat, (0, 0, 4))
    assert plan is not None and len(plan) == 3
    # A pebble already at the root needs no plan.
    assert _greedy_plan(lat, (1, 0, 0)) == []
    # Three pebbles split 1/2 across levels cannot move at all.
    assert _greedy_plan(lat, (0, 1, 1)) is None


def test_search_plan_completes_where_greedy_stalls():
    dec = _dec("12")
    lat = build_lattice(dec)
    # Greedy spends the divisor-6 pile on the cheap edge and strands the rest;
    # the exhaustive planner must still find a route.
    profile = [0] * lat.num_vertices
    profile[lat.vertex_index((2, 1))] = 7
    profile[lat.vertex_index((1, 1))] = 2
    profile[lat.vertex_index((2, 0))] = 3
    profile = tuple(profile)
    assert _greedy_plan(lat, profile) is None
    plan = _search_plan(lat, profile)
    assert plan is not None
    counts = list(profile)
    for vidx, ci in plan:
        _, w, child = next(mv for mv in lat.moves[vidx] if mv[0] == ci)
        assert counts[vidx] >= w
        counts[vidx] -= w
        counts[child] += 1
    assert counts[lat.root_index] >= 1


def test_search_plan_reports_dead_profiles():
    dec = _dec("4")
    lat = build_lattice(dec)
    assert _search_plan(lat, (0, 1, 1)) is None


def test_fallback_regression_z12():
    # Seeded stress once produced this ordering, the first input observed to
    # stall the greedy scheduler; keep it as a fixed fallback exercise.
    raws = [7, 7, 10, 3, 5, 7, 5, 3, 5, 2, 1, 9]
    dec, els, conf, cert = _solve("12", raws)
    assert conf.fallback_fired
    assert verify_certificate(dec, els, cert.indices).passed


def test_well_placed_examples():
    dec = _dec("4")
    one = to_primary_coordinates((1,), dec)
    two = to_primary_coordinates((2,), dec)
    zero = identity(dec)
    assert well_placed(zero, order_cost(zero), (0,), dec)
    assert not well_placed(one, order_cost(one), (0,), dec)
    assert well_placed(one, order_cost(one), (2,), dec)
    assert well_placed(two, order_cost(two), (1,), dec)
    assert not well_placed(two, order_cost(two), (0,), dec)
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
    assert [m.json_dict() for m in a[2].move_log] == [m.json_dict() for m in b[2].move_log]


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
    els = [element_from_index(dec, i) for i in raws]
    conf = initial_configuration(dec, els, debug=True)
    root = solve_to_root(conf)
    cert = extract_certificate(root, dec, els, moves=conf.move_log)
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
    els = [
        element_from_index(dec, data.draw(st.integers(0, dec.group_order - 1)))
        for _ in range(dec.group_order)
    ]
    conf = initial_configuration(dec, els)
    cert = extract_certificate(solve_to_root(conf), dec, els, moves=conf.move_log)
    recomputed = sum(order_cost(els[k - 1]) for k in cert.indices)
    total = identity(dec)
    for k in cert.indices:
        total = add_elements(total, els[k - 1])
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
    stray = conf.pebbles_at[conf.lattice.vertex_index((2,))][0]
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
        conf = initial_configuration(dec, els, debug=debug)
        top = conf.lattice.vertex_at(conf.lattice.vertex_index((2,)))
        conf.pebbles_at[conf.lattice.vertex_index((2,))][0].val = three
        if not debug:
            merge_step(conf, top, 0)
            continue
        with pytest.raises(InternalInvariantError, match="cached value of pebble 5"):
            merge_step(conf, top, 0)


def test_merge_refuses_consumed_pebble_not_well_placed():
    # Pebbles 1 and 2 (value 2) sit on divisor 2, where coordinates must be
    # even; pebble 1 is made to claim the odd value 1.
    dec = _dec("4")
    els = _elements(dec, [2, 2, 1, 1])
    conf = initial_configuration(dec, els)
    lat = conf.lattice
    conf.pebbles_at[lat.vertex_index((1,))][0].val = to_primary_coordinates((1,), dec)
    with pytest.raises(InternalInvariantError, match="pebble 1 is not well placed at vertex 2"):
        merge_step(conf, lat.vertex_at(lat.vertex_index((1,))), 0)


def test_extract_refuses_root_whose_members_do_not_sum_to_zero():
    dec, els, conf, cert = _solve("4", [1, 1, 1, 1])
    root = conf.root_pebble()
    assert root.members == frozenset(cert.indices) == frozenset([1, 2, 3, 4])
    # Cut the merge tree to one branch: members 1 and 2 sum to 2, not 0.
    root.parts = root.parts[:1]
    assert root.members == frozenset([1, 2])
    with pytest.raises(InternalInvariantError, match="fails recheck"):
        extract_certificate(root, dec, els)
