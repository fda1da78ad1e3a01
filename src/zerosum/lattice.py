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

from .errors import InputError
from .groups import PrimaryDecomposition
from .partitions import dual_partition, residual_exponents

MAX_LATTICE_VERTICES = 1_000_000

# (order-cost budget, ((invariant factor, modulus), ...)): see placement_rule.
PlacementRule = tuple[int, tuple[tuple[int, int], ...]]


class LatticeVertex(NamedTuple):
    u: tuple[int, ...]
    divisor: int

    @property
    def height(self) -> int:
        return sum(self.u)


class WeightedLattice(NamedTuple):
    """Complete vertex, weight, and move tables for one group.

    `moves[v]` lists the down edges leaving vertex index v as
    (coordinate, weight, child index) sorted by (weight, coordinate), the order
    the scheduler prefers. `scan_order` lists vertex indices by descending
    height, ties by ascending exponent vector. `residual_moduli[v][i][j]` is
    primes[i] raised to the residual exponent at v, which the engine divides
    pebble coordinates by in every move; `placement[v]` is the well-placedness
    rule at v (see `placement_rule`), checked after every move.
    """

    dec: PrimaryDecomposition
    duals: tuple[tuple[int, ...], ...]
    level_weights: tuple[tuple[int, ...], ...]
    strides: tuple[int, ...]
    num_vertices: int
    vertices: tuple[LatticeVertex, ...]
    moves: tuple[tuple[tuple[int, int, int], ...], ...]
    scan_order: tuple[int, ...]
    residual_moduli: tuple[tuple[tuple[int, ...], ...], ...]
    placement: tuple[PlacementRule, ...]

    @property
    def root_index(self) -> int:
        return 0

    def vertex_index(self, u: tuple[int, ...]) -> int:
        idx = 0
        for ui, stride in zip(u, self.strides):
            idx += ui * stride
        return idx

    def vertex_at(self, index: int) -> LatticeVertex:
        return self.vertices[index]


def build_lattice(dec: PrimaryDecomposition, max_vertices: int = MAX_LATTICE_VERTICES) -> WeightedLattice:
    heights = dec.heights
    count = math.prod(h + 1 for h in heights)
    if count > max_vertices:
        raise InputError(f"lattice would have {count} vertices, above the bound {max_vertices}")

    strides = []
    acc = 1
    for h in reversed(heights):
        strides.append(acc)
        acc *= h + 1
    strides = tuple(reversed(strides))

    duals = tuple(dual_partition(row) for row in dec.exponents)
    level_weights = tuple(
        tuple(p**d for d in dual) for p, dual in zip(dec.primes, duals)
    )

    vertices = []
    for u in itertools.product(*(range(h + 1) for h in heights)):
        divisor = math.prod(p**ui for p, ui in zip(dec.primes, u))
        vertices.append(LatticeVertex(u, divisor))
    vertices = tuple(vertices)

    moves = []
    residual_moduli = []
    placement = []
    for idx, v in enumerate(vertices):
        out = []
        for i, ui in enumerate(v.u):
            if ui >= 1:
                out.append((i, level_weights[i][ui - 1], idx - strides[i]))
        out.sort(key=lambda mv: (mv[1], mv[0]))
        moves.append(tuple(out))
        # residual_exponents' closed form, on rows dual_partition validated above.
        residual = tuple(
            tuple(max(e - ui, 0) for e in row) for ui, row in zip(v.u, dec.exponents)
        )
        res_moduli = _residual_moduli(dec, residual)
        residual_moduli.append(res_moduli)
        placement.append(_placement(dec, v.divisor, res_moduli))
    scan_order = tuple(sorted(range(count), key=lambda idx: (-vertices[idx].height, vertices[idx].u)))

    return WeightedLattice(
        dec=dec,
        duals=duals,
        level_weights=level_weights,
        strides=strides,
        num_vertices=count,
        vertices=vertices,
        moves=tuple(moves),
        scan_order=scan_order,
        residual_moduli=tuple(residual_moduli),
        placement=tuple(placement),
    )


def _residual_moduli(
    dec: PrimaryDecomposition, residual: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], ...]:
    """Entry (i, j) is primes[i] raised to the residual exponent residual[i][j]."""
    return tuple(tuple(p**e for e in row) for p, row in zip(dec.primes, residual))


def placement_rule(dec: PrimaryDecomposition, u: tuple[int, ...]) -> PlacementRule:
    """What well-placedness at u asks of a pebble: an order cost within
    N / divisor(u), and coordinate j divisible by the product of its
    components' residual moduli, wherever that exceeds 1 (exact: each divides
    its component's order, and those orders are coprime)."""
    divisor = math.prod(p**ui for p, ui in zip(dec.primes, u))
    return _placement(dec, divisor, _residual_moduli(dec, residual_exponents(dec.exponents, u)))


def _placement(
    dec: PrimaryDecomposition, divisor: int, res_moduli: tuple[tuple[int, ...], ...]
) -> PlacementRule:
    """`placement_rule` at the vertex of `divisor`, from its residual moduli."""
    moduli = [1] * len(dec.invariant_factors)
    for row in res_moduli:
        for j, m in enumerate(row):
            moduli[j] *= m
    return dec.exponent // divisor, tuple((j, m) for j, m in enumerate(moduli) if m > 1)
