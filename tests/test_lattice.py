"""Weighted divisor lattice construction and vertex bookkeeping."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerosum import (
    InputError,
    build_lattice,
    group_spec,
    initial_configuration,
    merge_step,
    parse_group_spec,
    primary_decomposition,
    to_primary_coordinates,
)
from zerosum.partitions import residual_exponents

small_orders = st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=3)


def _lat(text: str):
    dec = primary_decomposition(parse_group_spec(text))
    return dec, build_lattice(dec)


def _down_weight(lat, u, i):
    """Weight of the down edge leaving vertex u in coordinate i, read from the
    level weights and checked against the vertex's move table."""
    w = lat.level_weights[i][u[i] - 1]
    idx = lat.vertex_index(u)
    assert (i, w, idx - lat.strides[i]) in lat.moves[idx]
    return w


def test_z4_is_a_path_of_three():
    dec, lat = _lat("4")
    assert lat.num_vertices == 3
    assert [v.divisor for v in lat.vertices] == [1, 2, 4]
    # Both levels carry weight 2 since the dual of (2) is (1,1).
    assert _down_weight(lat, (1,), 0) == 2
    assert _down_weight(lat, (2,), 0) == 2


def test_z2z2_is_one_heavy_edge():
    dec, lat = _lat("2,2")
    assert lat.num_vertices == 2
    assert lat.vertex_at(lat.vertex_index((1,))).divisor == 2
    assert _down_weight(lat, (1,), 0) == 4


def test_z6_is_a_grid():
    dec, lat = _lat("6")
    assert lat.num_vertices == 4
    assert sorted(v.divisor for v in lat.vertices) == [1, 2, 3, 6]
    u = lat.vertex_at(lat.vertex_index((1, 1)))
    assert u.divisor == 6
    assert _down_weight(lat, u.u, 0) == 2
    assert _down_weight(lat, u.u, 1) == 3


def test_z9z3_weights():
    dec, lat = _lat("9,3")
    # One prime, exponents (2,1), dual (2,1): level weights 9 then 3.
    assert lat.num_vertices == 3
    assert _down_weight(lat, (1,), 0) == 9
    assert _down_weight(lat, (2,), 0) == 3


def test_trivial_group_lattice():
    dec, lat = _lat("1")
    assert lat.num_vertices == 1
    assert lat.root_index == lat.vertex_index(())
    assert lat.vertices[lat.root_index].divisor == 1


def test_root_is_index_zero_and_divisor_one():
    for text in ("1", "4", "2,2", "6", "12", "9,3,3,25,5"):
        dec, lat = _lat(text)
        assert lat.root_index == 0
        assert lat.vertices[0].divisor == 1
        assert lat.vertices[0].height == 0


@given(small_orders)
@settings(max_examples=100)
def test_level_weight_product_is_group_order(orders):
    dec = primary_decomposition(group_spec(orders))
    lat = build_lattice(dec)
    product = 1
    for row in lat.level_weights:
        for w in row:
            product *= w
    assert product == dec.group_order


@given(small_orders)
@settings(max_examples=60)
def test_vertex_index_is_a_bijection(orders):
    dec = primary_decomposition(group_spec(orders))
    lat = build_lattice(dec)
    seen = set()
    for idx in range(lat.num_vertices):
        v = lat.vertex_at(idx)
        assert lat.vertex_index(v.u) == idx
        assert v.divisor not in seen
        seen.add(v.divisor)
        assert dec.exponent % v.divisor == 0


def test_moves_sorted_by_weight_then_coordinate():
    dec, lat = _lat("12")
    for idx in range(lat.num_vertices):
        keys = [(w, ci) for ci, w, _ in lat.moves[idx]]
        assert keys == sorted(keys)


def test_scan_order_prefers_height_then_lex():
    dec, lat = _lat("12")
    ranked = [(lat.vertex_at(i).height, lat.vertex_at(i).u) for i in lat.scan_order]
    assert ranked == sorted(ranked, key=lambda t: (-t[0], t[1]))


def test_residual_moduli_match_partitions():
    dec, lat = _lat("8,12,30")
    for idx in range(lat.num_vertices):
        v = lat.vertex_at(idx)
        res = residual_exponents(dec.exponents, v.u)
        expect = tuple(
            tuple(p**e for e in row) for p, row in zip(dec.primes, res)
        )
        assert lat.residual_moduli[idx] == expect


def test_down_edge_needs_positive_level():
    dec, lat = _lat("6")
    root = lat.vertex_at(lat.root_index)
    assert lat.moves[lat.root_index] == ()
    assert [ci for ci, _, _ in lat.moves[lat.vertex_index((1, 0))]] == [0]
    conf = initial_configuration(dec, [to_primary_coordinates((1,), dec)] * 6, lattice=lat)
    for vertex, coordinate in ((root, 0), (lat.vertex_at(lat.vertex_index((1, 0))), 1), (root, 2)):
        with pytest.raises(InputError, match="no down edge"):
            merge_step(conf, vertex, coordinate)


def test_vertex_index_maps_divisors():
    dec, lat = _lat("12")
    assert lat.vertex_at(lat.vertex_index((0, 0))).divisor == 1
    assert lat.vertex_at(lat.vertex_index((1, 1))).divisor == 6
    assert lat.vertex_at(lat.vertex_index((2, 1))).divisor == 12


def test_vertex_cap_guard():
    dec = primary_decomposition(parse_group_spec("6"))
    with pytest.raises(InputError):
        build_lattice(dec, max_vertices=3)
