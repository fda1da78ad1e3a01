"""Davenport constants and lattice pebbling numbers of small groups, as tables.

Each row was recorded from the brute-force oracles. D(G) is the plain
Davenport constant, D_w(G) the weighted one (the shortest length that forces
a zero-sum subsequence of order cost <= N), and pi(L(G)) the pebbling number
of the divisor lattice. The paper proves D_w(G) <= |G|; the plain constants
here all meet the invariant-factor formula 1 + sum(n_j - 1).
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
    "12": (12, 12, 12),
}

LATTICE_GROUPS = ("2", "3", "4", "2,2", "5", "6", "7", "8", "2,2,2", "4,2", "9", "3,3", "12")


@pytest.mark.parametrize("group", list(DAVENPORT))
def test_davenport_table(group):
    dec = primary_decomposition(parse_group_spec(group))
    order, plain, weighted = DAVENPORT[group]
    assert dec.group_order == order
    assert davenport_constant(dec) == plain
    assert davenport_constant(dec, weighted=True) == weighted
    assert plain == 1 + sum(n - 1 for n in dec.invariant_factors)


@pytest.mark.parametrize("group", LATTICE_GROUPS)
def test_lattice_pebbling_number_is_the_group_order(group):
    dec = primary_decomposition(parse_group_spec(group))
    assert pebbling_number(lattice_graph(dec)).number == dec.group_order
