"""Group parsing, primary decomposition, element arithmetic, and order costs."""

from __future__ import annotations

import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerosum import (
    InputError,
    add_elements,
    element_from_index,
    element_index,
    element_order,
    group_spec,
    identity,
    parse_group_spec,
    primary_decomposition,
    to_primary_coordinates,
)
from zerosum.groups import MAX_GROUP_ORDER, element_columns, element_costs, encode_sequence, residues

small_orders = st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=3)


def _dec(text: str):
    return primary_decomposition(parse_group_spec(text))


def test_parse_group_spec_basic():
    spec = parse_group_spec("9,3,3,25,5")
    assert spec.cyclic_orders == (9, 3, 3, 25, 5)
    assert spec.group_order == 9 * 3 * 3 * 25 * 5


@pytest.mark.parametrize("bad", ["", " ", "4,", "a", "2,-3", "0", "3;4"])
def test_parse_group_spec_rejects_junk(bad):
    with pytest.raises(InputError):
        parse_group_spec(bad)


def test_group_order_bound():
    with pytest.raises(InputError):
        group_spec([MAX_GROUP_ORDER + 1])


def test_exponent_is_lcm_of_factors():
    # N must be the lcm of the factor orders; cross-checked independently.
    for text in ("9,3,3,25,5", "4", "2,2", "6", "12,18", "8,12,30"):
        spec = parse_group_spec(text)
        dec = primary_decomposition(spec)
        assert dec.exponent == math.lcm(*spec.cyclic_orders)
    assert _dec("9,3,3,25,5").exponent == 225


def test_decomposition_rows_sorted_and_sized():
    dec = _dec("12,18")
    assert dec.primes == (2, 3)
    # 12*18 = 2^3 3^3; components 4,2 and 9,3.
    assert dec.exponents == ((2, 1), (2, 1))
    assert dec.group_order == 216
    for row in dec.exponents:
        assert all(a >= b for a, b in zip(row, row[1:]))
        assert all(e >= 1 for e in row)


def test_decomposition_ignores_factor_order():
    a = _dec("3,9")
    b = _dec("9,3")
    assert a.primes == b.primes
    assert a.exponents == b.exponents
    assert a.exponent == b.exponent == 9


def test_trivial_group():
    dec = _dec("1")
    assert dec.group_order == 1
    assert dec.exponent == 1
    assert dec.primes == ()
    assert element_order(dec, identity(dec)) == 1
    assert dec.exponent // element_order(dec, identity(dec)) == 1


def test_component_moduli_product_is_group_order():
    for text in ("4", "2,2", "6", "12", "9,3", "8,12,30"):
        dec = _dec(text)
        product = 1
        for row in dec.moduli:
            for m in row:
                product *= m
        assert product == dec.group_order


def test_crt_splitting_z6():
    dec = _dec("6")
    g = to_primary_coordinates((5,), dec)
    # Components: 5 mod 2 = 1, 5 mod 3 = 2.
    assert [g[j] % q for mods in dec.moduli for j, q in enumerate(mods)] == [1, 2]
    assert element_order(dec, g) == 6


def test_to_primary_coordinates_validates():
    dec = _dec("2,2")
    with pytest.raises(InputError):
        to_primary_coordinates((1,), dec)
    with pytest.raises(InputError):
        to_primary_coordinates((1, 0, 0), dec)
    with pytest.raises(InputError):
        to_primary_coordinates((1.5, 0), dec)


def test_negative_residues_reduce():
    dec = _dec("12")
    assert to_primary_coordinates((-1,), dec) == to_primary_coordinates((11,), dec)


def test_element_orders_z12():
    dec = _dec("12")
    got = [element_order(dec, to_primary_coordinates((a,), dec)) for a in range(12)]
    assert got == [1, 12, 6, 4, 3, 12, 2, 12, 3, 4, 6, 12]


@pytest.mark.parametrize("text", ["1", "4,2,2", "9,3", "2,2,2,2,2", "12,6", "30030"])
def test_column_orders_match_element_order(text):
    dec = _dec(text)
    rng = random.Random(text)
    els = [element_from_index(dec, rng.randrange(dec.group_order)) for _ in range(200)]
    els.append(identity(dec))
    cols = [[g[j] for g in els] for j in range(len(dec.invariant_factors))]
    assert element_columns(dec, cols) is cols  # checked, not copied
    assert element_costs(dec, cols) == [dec.exponent // element_order(dec, g) for g in els]
    empty = [[] for _ in dec.invariant_factors]
    assert element_costs(dec, element_columns(dec, empty)) == []


def test_order_cost_is_gcd_for_cyclic():
    for n in (2, 3, 4, 6, 9, 12, 36):
        dec = _dec(str(n))
        for a in range(n):
            g = to_primary_coordinates((a,), dec)
            assert dec.exponent // element_order(dec, g) == math.gcd(a, n)


def test_element_columns_refuses_an_element_of_another_rank():
    # The one check that a sequence belongs to the group: Z_4 has one
    # invariant factor and Z_2 + Z_2 has two, so neither takes the other's
    # sequences (one column per coordinate of g), nor columns of unequal length.
    z4, v4 = _dec("4"), _dec("2,2")
    for dec, g in ((z4, identity(v4)), (v4, identity(z4)), (v4, (1, 0, 0))):
        with pytest.raises(InputError, match="not one equal-length column per invariant factor"):
            element_columns(dec, [[x, x] for x in g])
        with pytest.raises(InputError, match="coordinates, not one per invariant factor"):
            element_order(dec, g)
    with pytest.raises(InputError, match="columns of lengths \\[2, 1\\], not one equal-length column"):
        element_columns(v4, [[0, 1], [0]])


@given(small_orders, st.integers(min_value=0, max_value=10**6))
@settings(max_examples=120)
def test_element_order_by_repeated_addition(orders, raw_seed):
    spec = group_spec(orders)
    dec = primary_decomposition(spec)
    g = element_from_index(dec, raw_seed % dec.group_order)
    k = element_order(dec, g)
    assert 1 <= k <= dec.exponent
    assert dec.exponent % k == 0
    acc = identity(dec)
    for step in range(1, k + 1):
        acc = add_elements(dec, acc, g)
        if step < k:
            assert acc != identity(dec)
    assert acc == identity(dec)


@given(small_orders, st.integers(min_value=0, max_value=10**9))
@settings(max_examples=120)
def test_element_index_roundtrip(orders, raw):
    dec = primary_decomposition(group_spec(orders))
    idx = raw % dec.group_order
    g = element_from_index(dec, idx)
    assert element_index(dec, g) == idx


@given(small_orders)
@settings(max_examples=60)
def test_index_zero_is_identity(orders):
    dec = primary_decomposition(group_spec(orders))
    assert element_from_index(dec, 0) == identity(dec)
    assert element_index(dec, identity(dec)) == 0


def test_element_from_index_bounds():
    dec = _dec("6")
    with pytest.raises(InputError):
        element_from_index(dec, 6)
    with pytest.raises(InputError):
        element_from_index(dec, -1)


@given(small_orders, st.data())
@settings(max_examples=100)
def test_user_coordinates_are_homomorphic(orders, data):
    spec = group_spec(orders)
    dec = primary_decomposition(spec)
    xs = tuple(data.draw(st.integers(-50, 50)) for _ in orders)
    ys = tuple(data.draw(st.integers(-50, 50)) for _ in orders)
    zs = tuple(x + y for x, y in zip(xs, ys))
    lhs = add_elements(dec, to_primary_coordinates(xs, dec), to_primary_coordinates(ys, dec))
    assert lhs == to_primary_coordinates(zs, dec)


@pytest.mark.parametrize("text", ["8,12,30", "4,6", "9,3", "6,6", "1"])
def test_parse_time_conversion_keeps_primary_residues(text):
    # Every element: component (p, j), read from invariant factor j, is the
    # user coordinate of its source factor reduced mod p^e; and the index
    # bijection over the components round-trips, with 0 the identity. The
    # whole-sequence encoding is checked the same way, on every element and
    # on the same tuples shifted out of range both ways, with its user
    # columns as lists and as tuples.
    spec = parse_group_spec(text)
    dec = primary_decomposition(spec)
    raws = list(itertools.product(*(range(n) for n in spec.cyclic_orders)))
    shifted = [
        tuple(x + k * n for x, n in zip(r, spec.cyclic_orders))
        for k, r in zip(itertools.cycle([-3, 2]), raws)
    ]
    whole = raws + shifted
    pairs = [(raw, to_primary_coordinates(raw, dec)) for raw in raws]
    cols = [[r[f] for r in whole] for f in range(spec.rank)]
    pairs += zip(whole, zip(*encode_sequence(cols, dec)), strict=True)
    pairs += zip(whole, zip(*encode_sequence(list(map(tuple, cols)), dec)), strict=True)
    for raw, g in pairs:
        assert all(0 <= x < n for x, n in zip(g, dec.invariant_factors))
        for j, src, q, _ in dec.crt:
            assert g[j] % q == raw[src] % q
    empty = encode_sequence([[]] * spec.rank, dec)  # a column per invariant factor, of its type
    assert empty == [b"" if n <= 256 else [] for n in dec.invariant_factors]
    assert element_from_index(dec, 0) == identity(dec)
    for i in range(dec.group_order):
        assert element_index(dec, element_from_index(dec, i)) == i


@pytest.mark.parametrize(
    "raws, message",
    [
        ([(1, 0), (1,), (1.5, 0)], "element needs 2 coordinates for this group, got 1"),
        ([(1, 0), (1.5, 0), (1,)], "element coordinates must be integers, got 1.5"),
        ([(0, 1), (0, True), (1, 0, 0)], "element coordinates must be integers, got True"),
        ([(1, 0), (True, 0, 0)], "element needs 2 coordinates for this group, got 3"),
        ([(1, 0), (0, 1), (1, "1")], "element coordinates must be integers, got '1'"),
    ],
)
def test_encode_sequence_reports_the_first_bad_element(raws, message):
    # Rows go through to_primary_coordinates, one at a time: a wrong length
    # is checked before the entries of the same element. The rows that have
    # two coordinates, as two columns, give the same type error, the first
    # bad entry column by column (no row has two bad entries).
    dec = _dec("2,2")
    with pytest.raises(InputError) as first:
        for raw in raws:
            to_primary_coordinates(raw, dec)
    assert str(first.value) == message
    pairs = [raw for raw in raws if len(raw) == 2]
    if "integers" in message:
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            encode_sequence([[a for a, _ in pairs], [b for _, b in pairs]], dec)
    with pytest.raises(InputError, match="columns of lengths \\[2, 1\\], not one equal-length column per group factor"):
        encode_sequence([[1, 0], [0]], dec)


def test_encode_sequence_scans_every_column_but_bytes():
    # A bytes column holds ints by construction; a list beside it is still scanned.
    dec = _dec("3,9")
    assert encode_sequence([b"\x05\x01", [2, 10]], dec) == encode_sequence([[5, 1], [2, 10]], dec)
    with pytest.raises(InputError, match="^element coordinates must be integers, got 1.5$"):
        encode_sequence([b"\x05\x01", [2, 1.5]], dec)


def test_encode_sequence_accepts_int_subclasses():
    class Residue(int):
        pass

    dec = _dec("4,6")
    assert encode_sequence([[Residue(3), 7], [5, Residue(-1)]], dec) == encode_sequence([[3, 7], [5, -1]], dec)


RESIDUE_COLUMNS = [
    [],
    [0, 255],
    [0, 255, 256],
    [-1, 0, 1],
    [2**70, 3],
    [1] * 1000 + [300],  # bytes() refuses only the last item
    (7, 255, 0),
    [True, 5],
    bytes([0, 255, 7]),
    bytearray([0, 255, 7]),
]


@pytest.mark.parametrize("m", [1, 2, 3, 255, 256, 257])
@pytest.mark.parametrize("col", RESIDUE_COLUMNS)
def test_residues_match_the_mod_of_every_item(col, m):
    # The byte path (items in 0..255, m <= 256) and the mod fallback give
    # the same residues: one bytes for m <= 256 (the caller's own bytes when
    # no item changes, as bytes are immutable), else a new list of exact
    # ints, and with `kind` list a new list of exact ints for every m.
    got = residues(col, m)
    assert list(got) == [x % m for x in col]
    assert type(got) is (bytes if m <= 256 else list)
    assert got is not col or type(col) is bytes
    assert all(type(x) is int for x in got)
    assert residues(iter(col), m) == got
    for listed in (residues(col, m, list), residues(iter(col), m, list)):
        assert listed == list(got) and type(listed) is list and listed is not col
        assert all(type(x) is int for x in listed)


@pytest.mark.parametrize("text, cols", [("2,2,2", [[0, 1, 1], [1, 0, 1], [1, 1, 0]]), ("256", [[0, 255, 7]]),
                                        ("257", [[0, 255, 256]]), ("2,2,2", [b"\0\1\1", [1, 0, 1], b"\1\1\0"])])
def test_encode_sequence_returns_fresh_lists_of_exact_ints(text, cols):
    # Each invariant factor here is one user factor with c = 1, so its column
    # is the caller's column reduced in one `residues` pass: a bytes for
    # n <= 256, which no caller can change, else a fresh list of exact ints.
    dec = _dec(text)
    out = encode_sequence(cols, dec)
    assert list(map(list, out)) == [[x % n for x in col] for col, n in zip(cols, dec.invariant_factors)]
    for got, col, n in zip(out, cols, dec.invariant_factors):
        assert type(got) is (bytes if n <= 256 else list)
        assert got is not col or type(col) is bytes
        assert all(type(x) is int for x in got)
    if type(out[0]) is list:
        out[0][0] += 1
        assert cols[0][0] == 0
