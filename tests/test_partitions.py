"""Dual partitions and residual exponent vectors, checked against worked tables."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerosum import (
    InputError,
    build_lattice,
    dual_partition,
    parse_group_spec,
    primary_decomposition,
    residual_exponents,
    residual_exponents_by_recursion,
)

partitions = st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=6).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def test_dual_of_worked_example():
    assert dual_partition((5, 2, 2, 1)) == (4, 3, 1, 1, 1)


def test_dual_edge_cases():
    assert dual_partition(()) == ()
    assert dual_partition((1,)) == (1,)
    assert dual_partition((3,)) == (1, 1, 1)
    assert dual_partition((2, 2, 2)) == (3, 3)


@pytest.mark.parametrize("bad", [(1, 2), (0,), (2, -1), (2, 0)])
def test_dual_rejects_non_partitions(bad):
    with pytest.raises(InputError):
        dual_partition(bad)


@given(partitions)
@settings(max_examples=200)
def test_dual_is_an_involution(parts):
    assert dual_partition(dual_partition(parts)) == parts


@given(partitions)
@settings(max_examples=200)
def test_dual_preserves_total(parts):
    assert sum(dual_partition(parts)) == sum(parts)


@given(partitions)
@settings(max_examples=200)
def test_dual_duality_identity(parts):
    # j <= d_k exactly when parts[j-1] >= k; this is the property the engine
    # leans on when it divides coordinates by residual moduli.
    dual = dual_partition(parts)
    for k in range(1, parts[0] + 1):
        for j in range(1, len(parts) + 1):
            assert (j <= dual[k - 1]) == (parts[j - 1] >= k)


def test_residuals_single_prime_table():
    # e = (5,2,2,1): residuals for u = 0..5 walk down to all zeros.
    exponents = ((5, 2, 2, 1),)
    table = {
        0: (5, 2, 2, 1),
        1: (4, 1, 1, 0),
        2: (3, 0, 0, 0),
        3: (2, 0, 0, 0),
        4: (1, 0, 0, 0),
        5: (0, 0, 0, 0),
    }
    for u, row in table.items():
        assert residual_exponents(exponents, (u,)) == (row,)


def test_residuals_four_prime_table():
    # e = (5,4,3,1; 2,2; 3; 4,1,1) at a ladder of u vectors.
    exponents = ((5, 4, 3, 1), (2, 2), (3,), (4, 1, 1))
    assert dual_partition(exponents[0]) == (4, 3, 3, 2, 1)
    table = {
        (0, 0, 0, 0): ((5, 4, 3, 1), (2, 2), (3,), (4, 1, 1)),
        (1, 0, 0, 0): ((4, 3, 2, 0), (2, 2), (3,), (4, 1, 1)),
        (1, 1, 0, 0): ((4, 3, 2, 0), (1, 1), (3,), (4, 1, 1)),
        (1, 1, 0, 1): ((4, 3, 2, 0), (1, 1), (3,), (3, 0, 0)),
        (2, 1, 0, 1): ((3, 2, 1, 0), (1, 1), (3,), (3, 0, 0)),
        (3, 1, 0, 1): ((2, 1, 0, 0), (1, 1), (3,), (3, 0, 0)),
        (5, 2, 3, 4): ((0, 0, 0, 0), (0, 0), (0,), (0, 0, 0)),
    }
    for u, rows in table.items():
        assert residual_exponents(exponents, u) == rows


def test_residuals_at_top_are_zero():
    exponents = ((3, 1), (2, 2))
    top = (3, 2)
    assert residual_exponents(exponents, top) == ((0, 0), (0, 0))


def test_residuals_validate_box():
    exponents = ((2, 1),)
    with pytest.raises(InputError):
        residual_exponents(exponents, (3,))
    with pytest.raises(InputError):
        residual_exponents(exponents, (-1,))
    with pytest.raises(InputError):
        residual_exponents(exponents, (1, 1))


exponent_rows = st.lists(
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4).map(
        lambda xs: tuple(sorted(xs, reverse=True))
    ),
    min_size=1,
    max_size=3,
).map(tuple)


@given(exponent_rows, st.data())
@settings(max_examples=200)
def test_recursion_matches_closed_form(rows, data):
    u = tuple(data.draw(st.integers(0, row[0])) for row in rows)
    closed = residual_exponents(rows, u)
    plain = residual_exponents_by_recursion(rows, u)
    assert plain == closed
    # Any interleaving of unit descents lands on the same residuals.
    descent = [i for i, ui in enumerate(u) for _ in range(ui)]
    shuffled = data.draw(st.permutations(descent))
    assert residual_exponents_by_recursion(rows, u, descent=tuple(shuffled)) == closed


@given(exponent_rows, st.data())
@settings(max_examples=100)
def test_residual_monotone_in_u(rows, data):
    u = tuple(data.draw(st.integers(0, row[0])) for row in rows)
    res = residual_exponents(rows, u)
    for row, res_row in zip(rows, res):
        for e, r in zip(row, res_row):
            assert 0 <= r <= e


def test_level_weights_read_the_dual():
    # Z_32 + Z_4 + Z_4 + Z_2: one prime, exponents (5, 2, 2, 1), dual (4, 3, 1, 1, 1).
    dual = dual_partition((5, 2, 2, 1))
    assert dual == (4, 3, 1, 1, 1)
    lat = build_lattice(primary_decomposition(parse_group_spec("32,4,4,2")))
    assert lat.duals == (dual,)
    assert lat.level_weights == (tuple(2**d for d in dual),)
    assert len(lat.level_weights[0]) == len(dual) == lat.num_vertices - 1
