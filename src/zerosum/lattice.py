"""The weighted divisor lattice: a product of paths with level-dependent edge weights.

Vertices are the divisors of the group exponent, written as exponent vectors u
with 0 <= u[i] <= heights[i]. The down edge at level k in coordinate i carries
weight primes[i] ** duals[i][k-1]; the product of all per-level weights equals
the group order.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .groups import PrimaryDecomposition
from .partitions import dual_partition, residual_exponents

# (order-cost budget, ((invariant factor, modulus), ...)): see placement_rule.
PlacementRule = tuple[int, tuple[tuple[int, int], ...]]


class LatticeVertex(NamedTuple):
    u: tuple[int, ...]
    divisor: int


class WeightedLattice(NamedTuple):
    """Complete vertex, weight, and move tables for one group.

    `moves[v]` lists the down edges leaving vertex index v as
    (coordinate, weight, child index) sorted by (weight, coordinate), the order
    the scheduler prefers. `scan_order` lists vertex indices by descending
    height, ties by ascending exponent vector. `level_moduli[l][i][j]` is
    primes[i] raised to the residual exponent of component (i, j) at level
    min(l, heights[i]) of coordinate i, which a move down coordinate i from
    level l divides pebble coordinates by; `placement[v]` is the
    well-placedness rule at v (see `placement_rule`), checked after every move.
    """

    dec: PrimaryDecomposition
    duals: tuple[tuple[int, ...], ...]
    level_weights: tuple[tuple[int, ...], ...]
    strides: tuple[int, ...]
    num_vertices: int
    vertices: tuple[LatticeVertex, ...]
    moves: tuple[tuple[tuple[int, int, int], ...], ...]
    scan_order: tuple[int, ...]
    level_moduli: tuple[tuple[tuple[int, ...], ...], ...]
    placement: tuple[PlacementRule, ...]

    root_index = 0  # u = (0, ..., 0) comes first in `vertices`

    def vertex_index(self, u: tuple[int, ...]) -> int:
        return sum(ui * stride for ui, stride in zip(u, self.strides))


def build_lattice(dec: PrimaryDecomposition) -> WeightedLattice:
    heights = dec.heights
    count = math.prod(h + 1 for h in heights)
    strides = tuple(math.prod(h + 1 for h in heights[i + 1:]) for i in range(len(heights)))

    duals = tuple(dual_partition(row) for row in dec.exponents)
    level_weights = tuple(tuple(p**d for d in dual) for p, dual in zip(dec.primes, duals))

    vertices = tuple(
        LatticeVertex(u, math.prod(map(pow, dec.primes, u)))
        for u in itertools.product(*(range(h + 1) for h in heights))
    )

    # Row i at level l, for every l up to the tallest height: one validated call per level.
    levels = tuple(_residual_moduli(dec, [min(l, h) for h in heights]) for l in range(max(heights, default=0) + 1))
    moves, placement = [], []
    for idx, v in enumerate(vertices):
        out = [(i, level_weights[i][ui - 1], idx - strides[i]) for i, ui in enumerate(v.u) if ui >= 1]
        moves.append(tuple(sorted(out, key=lambda mv: (mv[1], mv[0]))))
        placement.append(_placement(dec, v.divisor, tuple([levels[ui][i] for i, ui in enumerate(v.u)])))
    scan_order = tuple(sorted(range(count), key=lambda idx: (-sum(vertices[idx].u), vertices[idx].u)))

    return WeightedLattice(
        dec=dec,
        duals=duals,
        level_weights=level_weights,
        strides=strides,
        num_vertices=count,
        vertices=vertices,
        moves=tuple(moves),
        scan_order=scan_order,
        level_moduli=levels,
        placement=tuple(placement),
    )


def _residual_moduli(dec: PrimaryDecomposition, u: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Entry (i, j) is primes[i] raised to the residual exponent of component (i, j) at u."""
    residual = residual_exponents(dec.exponents, u)
    return tuple(tuple(p**e for e in row) for p, row in zip(dec.primes, residual))


def placement_rule(dec: PrimaryDecomposition, u: tuple[int, ...]) -> PlacementRule:
    """What well-placedness at u asks of a pebble: an order cost within
    N / divisor(u), and coordinate j divisible by the product of its
    components' residual moduli, wherever that exceeds 1 (exact: each divides
    its component's order, and those orders are coprime)."""
    divisor = math.prod(p**ui for p, ui in zip(dec.primes, u))
    return _placement(dec, divisor, _residual_moduli(dec, u))


def _placement(
    dec: PrimaryDecomposition, divisor: int, res_moduli: tuple[tuple[int, ...], ...]
) -> PlacementRule:
    """`placement_rule` at the vertex of `divisor`, from its residual moduli."""
    moduli = [1] * len(dec.invariant_factors)
    for row in res_moduli:
        for j, m in enumerate(row):
            moduli[j] *= m
    return dec.exponent // divisor, tuple((j, m) for j, m in enumerate(moduli) if m > 1)
