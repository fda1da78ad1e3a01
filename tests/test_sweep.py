"""Every identity-free sequence of every group of order at most 10, solved.

Each multiset of |G| nonzero elements is taken once, in ascending element
index, and goes through placement, planning, merges, base cases and
certificate extraction, all through library calls. The certificate must
verify and its order cost must lie between the DP oracle's minimum and the
bound N. The census pinned per group is observed, not proven: how many
multisets there are, how many need the elimination planner, on how many the
cheapest zero-sum subsequence costs N (the paper's bound attained), and the
histogram of certificate cost minus that minimum.
"""

from __future__ import annotations

import itertools
from collections import Counter

import pytest

import zerosum.engine
from zerosum import (
    InternalInvariantError,
    dp_min_cost_zero_sum,
    element_from_index,
    extract_certificate,
    initial_configuration,
    parse_group_spec,
    primary_decomposition,
    solve_to_root,
    verify_certificate,
)

# group -> (multisets, elimination plans, DP minimum = N, gap histogram)
CENSUS = {
    "2": (1, 0, 1, {0: 1}),
    "3": (4, 0, 2, {0: 4}),
    "4": (15, 0, 9, {0: 12, 2: 3}),
    "2,2": (15, 0, 15, {0: 15}),
    "5": (56, 0, 4, {0: 37, 1: 15, 2: 4}),
    "6": (210, 6, 65, {0: 135, 2: 48, 4: 27}),
    "7": (792, 0, 6, {0: 291, 1: 269, 2: 155, 3: 64, 4: 13}),
    "8": (3003, 0, 209, {0: 673, 2: 611, 4: 916, 6: 803}),
    "4,2": (3003, 0, 1365, {0: 1582, 2: 1421}),
    "2,2,2": (3003, 0, 3003, {0: 3003}),
    "9": (11440, 0, 88, {0: 1812, 1: 1150, 2: 592, 3: 2090, 4: 2629, 5: 338, 6: 1129, 7: 1700}),
    "3,3": (11440, 0, 1992, {0: 6224, 1: 5216}),
    "10": (43758, 220, 397, {0: 11014, 2: 13700, 4: 10269, 6: 5515, 8: 3260}),
}


def _census(text):
    dec = primary_decomposition(parse_group_spec(text))
    nonzero = [element_from_index(dec, k) for k in range(1, dec.group_order)]
    multisets = eliminated = attained = 0
    gaps = Counter()
    for rows in itertools.combinations_with_replacement(nonzero, dec.group_order):
        cols = [list(col) for col in zip(*rows)]
        conf = initial_configuration(dec, cols)
        cert = extract_certificate(solve_to_root(conf), dec, cols)
        assert verify_certificate(dec, cols, cert.indices).passed, rows
        best = dp_min_cost_zero_sum(dec, cols)
        assert best.feasible and best.min_cost <= cert.ord_cost <= dec.exponent, rows
        multisets += 1
        eliminated += conf.fallback_fired
        attained += best.min_cost == dec.exponent
        gaps[cert.ord_cost - best.min_cost] += 1
    return multisets, eliminated, attained, dict(gaps)


@pytest.mark.parametrize("text", list(CENSUS))
def test_every_identity_free_multiset_solves_within_the_bound(text):
    assert _census(text) == CENSUS[text]


def test_a_greedy_plan_one_move_short_fails_the_sweep(monkeypatch):
    # ROADMAP item 9's planner mutation: the sweep must notice a plan that stops early.
    greedy = zerosum.engine._greedy_plan

    def one_move_short(lattice, start):
        plan = greedy(lattice, start)
        return plan if plan is None else plan[:-1]

    monkeypatch.setattr(zerosum.engine, "_greedy_plan", one_move_short)
    with pytest.raises(InternalInvariantError, match="planned moves did not produce a root pebble"):
        _census("6")
