"""Davenport constants and lattice pebbling numbers of small groups, as tables.

Each row was recorded from the brute-force oracles. D(G) is the plain
Davenport constant, D_w(G) the weighted one (the shortest length that forces
a zero-sum subsequence of order cost <= N), and pi(L(G)) the pebbling number
of the divisor lattice. The paper proves D_w(G) <= |G|; the plain constants
here all meet the invariant-factor formula 1 + sum(n_j - 1), a theorem for
p-groups and groups of rank at most 2, which covers every group of order <= 16.

Each term of a sequence costs N/ord(g) >= 1, so a zero-sum subsequence of cost
<= N has at most N = exp(G) terms, and eta(G) <= D_w(G), where eta(G) is the
least length that forces a nonempty zero-sum subsequence of at most exp(G)
terms. Where Gao and Geroldinger ("Zero-sum problems in finite abelian groups:
a survey", Expo. Math. 24, 2006) give eta in closed form, every D_w below
equals it.
"""

from __future__ import annotations

import pytest

from zerosum import lattice_graph, parse_group_spec, pebbling_number, primary_decomposition
from zerosum.oracle import davenport_constant

# group: (|G|, D(G), D_w(G))
DAVENPORT = {
    "1": (1, 1, 1),
    "2": (2, 2, 2),
    "3": (3, 3, 3),
    "4": (4, 4, 4),
    "2,2": (4, 3, 4),
    "5": (5, 5, 5),
    "6": (6, 6, 6),
    "7": (7, 7, 7),
    "8": (8, 8, 8),
    "4,2": (8, 5, 6),
    "2,2,2": (8, 4, 8),
    "9": (9, 9, 9),
    "3,3": (9, 5, 7),
    "10": (10, 10, 10),
    "11": (11, 11, 11),
    "12": (12, 12, 12),
    "6,2": (12, 7, 8),
    "13": (13, 13, 13),
    "14": (14, 14, 14),
    "15": (15, 15, 15),
    "16": (16, 16, 16),
    "8,2": (16, 9, 10),
    "4,4": (16, 7, 10),
    "4,2,2": (16, 6, 10),
    "2,2,2,2": (16, 5, 16),
}

LATTICE_GROUPS = ("2", "3", "4", "2,2", "5", "6", "7", "8", "2,2,2", "4,2", "9", "3,3", "12")


def _eta(factors):
    """eta(G) from its invariant factors where a closed form is known: n for
    Z_n, 2m + n - 2 for Z_m + Z_n with m | n, and 2^r for Z_2^r; else None."""
    if len(factors) == 1:
        return factors[0]
    if len(factors) == 2:
        n, m = factors
        return 2 * m + n - 2
    return 2 ** len(factors) if set(factors) == {2} else None


def test_davenport_table_covers_every_group_of_order_at_most_16():
    # 25 abelian groups have order <= 16: five of order 16, three of order 8,
    # two each of orders 4, 9 and 12, and one of every other order.
    decs = [primary_decomposition(parse_group_spec(group)) for group in DAVENPORT]
    assert all(dec.group_order <= 16 for dec in decs)
    assert len({dec.invariant_factors for dec in decs}) == 25


@pytest.mark.parametrize("group", list(DAVENPORT))
def test_davenport_table(group):
    dec = primary_decomposition(parse_group_spec(group))
    order, plain, weighted = DAVENPORT[group]
    assert dec.group_order == order
    assert davenport_constant(dec) == plain
    assert davenport_constant(dec, weighted=True) == weighted
    assert plain == 1 + sum(n - 1 for n in dec.invariant_factors)
    assert plain <= weighted <= order
    eta = _eta(dec.invariant_factors)
    assert eta is None or weighted == eta


@pytest.mark.parametrize("group", LATTICE_GROUPS)
def test_lattice_pebbling_number_is_the_group_order(group):
    dec = primary_decomposition(parse_group_spec(group))
    assert pebbling_number(lattice_graph(dec)).number == dec.group_order
