"""Pebble merging on the weighted divisor lattice.

Each input element starts as a singleton pebble on the vertex named by its
order. A move at vertex u in coordinate i consumes exactly the edge weight in
pebbles, reduces their values to vectors over F_p, and keeps the zero-sum
selection found by the base cases; the merged pebble lands one level down and
stays well placed: its value is divisible by the residual moduli there and its
order cost stays within the integer budget N / divisor. A pebble reaching the
root is a certificate.
"""

from __future__ import annotations

import itertools
import os
from collections import defaultdict, deque
from operator import mod
from typing import NamedTuple, Sequence

from .errors import InputError, InternalInvariantError
from .groups import (
    GroupElement,
    PrimaryDecomposition,
    add_elements,
    element_order,
    identity,
)
from .lattice import LatticeVertex, PlacementRule, WeightedLattice, build_lattice, placement_rule
from .base_cases import _elementary_block, _zero_sum_block


class Pebble:
    """A merge-tree node: cached value (one integer per invariant factor),
    order cost, position, and the pebbles its move selected (none for input
    pebble k, whose id is its sequence index)."""

    __slots__ = ("pid", "val", "ord_cost", "vertex", "parts")

    def __init__(
        self,
        pid: int,
        val: tuple[int, ...],
        ord_cost: int,
        vertex: LatticeVertex,
        parts: tuple[Pebble, ...] = (),
    ):
        self.pid = pid
        self.val = val
        self.ord_cost = ord_cost
        self.vertex = vertex
        self.parts = parts

    @property
    def members(self) -> frozenset[int]:
        """Input indices at the leaves of this pebble's merge tree."""
        leaves, stack = [], [self]
        while stack:
            peb = stack.pop()
            if peb.parts:
                stack.extend(peb.parts)
            else:
                leaves.append(peb.pid)
        return frozenset(leaves)


class MoveRecord(NamedTuple):
    vertex_divisor: int
    prime: int
    weight: int
    consumed: tuple[int, ...]
    selected: tuple[int, ...]
    new_id: int


class Verdict(NamedTuple):
    passed: bool
    failures: tuple[str, ...]


class Certificate(NamedTuple):
    """Verified solution: indices whose elements sum to the identity within budget."""

    indices: tuple[int, ...]
    ord_cost: int
    bound: int
    moves: tuple[MoveRecord, ...] = ()


def well_placed(
    val: GroupElement | tuple[int, ...],
    cost: int,
    u: Sequence[int],
    dec: PrimaryDecomposition,
    rule: PlacementRule | None = None,
) -> bool:
    """Congruence of `val` (an element, or its coordinates as a pebble's `val`
    holds them) against the residual moduli at u, plus the integer cost
    budget. `rule` is the lattice's precomputed `placement` entry for u,
    derived from u if not given.
    """
    coords = val.coords if isinstance(val, GroupElement) else val
    budget, congruences = rule if rule is not None else placement_rule(dec, tuple(u))
    if cost > budget:
        return False
    for j, m in congruences:
        if coords[j] % m:
            return False
    return True


class Configuration:
    """Live pebbles grouped by vertex, plus the move log of one solving session.

    Mutated only through merge moves; not meant to be shared across sessions.
    With debug enabled (flag or ZEROSUM_DEBUG=1) every move recomputes the new
    pebble's value and cost from its member indices and re-checks disjointness.
    """

    def __init__(
        self,
        dec: PrimaryDecomposition,
        lattice: WeightedLattice,
        elements: Sequence[GroupElement],
        debug: bool | None = None,
    ):
        self.dec = dec
        self.lattice = lattice
        self.elements = list(elements)
        self.debug = debug if debug is not None else os.environ.get("ZEROSUM_DEBUG") == "1"
        self.pebbles_at: defaultdict[int, deque[Pebble]] = defaultdict(deque)
        self.move_log: list[MoveRecord] = []
        self.fallback_fired = False
        self._next_id = 1

    def live_pebbles(self) -> list[Pebble]:
        out = []
        for pool in self.pebbles_at.values():
            out.extend(pool)
        out.sort(key=lambda a: a.pid)
        return out

    def count_profile(self) -> tuple[int, ...]:
        counts = [0] * self.lattice.num_vertices
        for idx, pool in self.pebbles_at.items():
            counts[idx] = len(pool)
        return tuple(counts)

    def root_pebble(self) -> Pebble | None:
        pool = self.pebbles_at.get(self.lattice.root_index)
        return pool[0] if pool else None  # pools hold pebbles in id order


def initial_configuration(
    dec: PrimaryDecomposition,
    elements: Sequence[GroupElement],
    lattice: WeightedLattice | None = None,
    debug: bool | None = None,
) -> Configuration:
    """One singleton pebble per element on the vertex of its order, computed once."""
    if len(elements) != dec.group_order:
        raise InputError(
            f"need exactly {dec.group_order} elements for this group, got {len(elements)}"
        )
    for g in elements:
        if g.dec is not dec and g.dec != dec:
            raise InputError("sequence element belongs to a different decomposition")
    if lattice is None:
        lattice = build_lattice(dec)
    conf = Configuration(dec, lattice, elements, debug=debug)
    # Record fields are read once: a NamedTuple field costs more than a local.
    vertices, placement, exponent = lattice.vertices, lattice.placement, dec.exponent
    index_of = {v.divisor: idx for idx, v in enumerate(vertices)}
    for k, g in enumerate(elements, start=1):
        order = element_order(g)
        idx = index_of.get(order)
        if idx is None:
            raise InternalInvariantError(
                f"element order {order} does not divide the exponent {exponent}"
            )
        vertex = vertices[idx]
        pebble = Pebble(k, g.coords, exponent // order, vertex)
        if not well_placed(g, pebble.ord_cost, vertex.u, dec, placement[idx]):
            raise InternalInvariantError(f"initial pebble {k} is not well placed")
        conf.pebbles_at[idx].append(pebble)
    conf._next_id = len(elements) + 1
    return conf


def merge_step(
    conf: Configuration, vertex: LatticeVertex, coordinate: int, count: int = 1
) -> Configuration:
    """Make `count` moves at `vertex` in `coordinate`, each consuming one edge
    weight of pebbles and placing their zero-sum merge one level down.

    Each move consumes the lowest ids present. Each pebble is reduced to a
    vector over F_p: coordinate j, for j below the edge's dual length, divided
    by the residual modulus of component (i, j) at `vertex` (exact by
    well-placedness), mod p. The base-case selection is kept, the rest are
    discarded. The edge, the pool size, the vertex fields and the child's
    placement rule are read once per call; a move that fails a check stops the
    run before it is logged.
    """
    lattice = conf.lattice
    u = vertex.u
    i = coordinate
    if not 0 <= i < len(u) or u[i] < 1:
        raise InputError(f"vertex {vertex.divisor} has no down edge in coordinate {i}")
    if count < 1:
        raise InputError(f"move count must be positive, got {count}")
    vidx = lattice.vertex_index(u)
    pool = conf.pebbles_at.get(vidx, ())
    dec = conf.dec
    p = dec.primes[i]
    dims = lattice.duals[i][u[i] - 1]
    weight = lattice.level_weights[i][u[i] - 1]
    if len(pool) < count * weight:
        raise InputError(
            f"vertex {vertex.divisor} holds {len(pool)} pebbles, "
            f"{count} move(s) of weight {weight} need {count * weight}"
        )

    res_moduli = lattice.residual_moduli[vidx][i][:dims]
    child_idx = vidx - lattice.strides[i]
    child = lattice.vertices[child_idx]
    child_u, divisor, rule = child.u, vertex.divisor, lattice.placement[child_idx]
    child_pool = conf.pebbles_at[child_idx]
    factors = dec.invariant_factors
    m = res_moduli[0]
    popleft = pool.popleft
    for _ in range(count):
        consumed = [popleft() for _ in range(weight)]
        for peb in consumed:
            if any(map(mod, peb.val, res_moduli)):
                raise InternalInvariantError(
                    f"pebble {peb.pid} is not well placed at vertex {vertex.divisor}"
                )
        if dims == 1:
            selected_pos = _zero_sum_block(p, [peb.val[0] // m % p for peb in consumed])
        else:
            reduced = [tuple([x // r % p for x, r in zip(peb.val, res_moduli)]) for peb in consumed]
            selected_pos = _elementary_block(p, reduced)
        selected = tuple([consumed[pos - 1] for pos in selected_pos])

        val = tuple(map(mod, map(sum, zip(*[peb.val for peb in selected])), factors))
        cost = sum([peb.ord_cost for peb in selected])
        new_pebble = Pebble(conf._next_id, val, cost, child, selected)
        if not well_placed(val, cost, child_u, dec, rule):
            raise InternalInvariantError(
                f"merged pebble {new_pebble.pid} is not well placed at vertex {child.divisor}"
            )
        conf._next_id += 1
        child_pool.append(new_pebble)
        consumed_ids = tuple([peb.pid for peb in consumed])
        selected_ids = tuple([peb.pid for peb in selected])
        conf.move_log.append(MoveRecord(divisor, p, weight, consumed_ids, selected_ids, new_pebble.pid))
        if conf.debug:
            _debug_check(conf, new_pebble)
    if not pool:
        del conf.pebbles_at[vidx]
    return conf


def _debug_check(conf: Configuration, pebble: Pebble) -> None:
    """Recompute the new pebble from scratch and rescan pairwise disjointness."""
    val, cost = _recompute(conf.dec, conf.elements, sorted(pebble.members))
    if val.coords != pebble.val or cost != pebble.ord_cost:
        raise InternalInvariantError(f"cached value of pebble {pebble.pid} disagrees with its members")
    seen: set[int] = set()
    for other in conf.live_pebbles():
        members = other.members
        if members & seen:
            raise InternalInvariantError("live pebbles share member indices")
        seen |= members


def _greedy_plan(lattice: WeightedLattice, start: tuple[int, ...]) -> list[tuple[int, int]] | None:
    """Move (vertex index, coordinate) list reaching the root, or None on a stall.

    Preference order: highest occupied vertex first (ties by ascending exponent
    vector), then the cheapest down edge (ties by coordinate). A move only adds
    to a vertex later in that order, so one pass spending each pile on its
    cheapest edge makes the same moves as rescanning after every move.
    """
    root = lattice.root_index
    if start[root] >= 1:
        return []
    prof = list(start)
    plan: list[tuple[int, int]] = []
    for vidx in lattice.scan_order:
        if not lattice.moves[vidx]:
            continue
        ci, w, child = lattice.moves[vidx][0]
        while prof[vidx] >= w:
            prof[vidx] -= w
            prof[child] += 1
            plan.append((vidx, ci))
            if prof[root] >= 1:
                return plan
    return None


def _eliminate_plan(lattice: WeightedLattice, start: tuple[int, ...]) -> list[tuple[int, int]] | None:
    """Move (vertex index, coordinate) list reaching the root, dropping one top level at a time.

    The box under one top level per coordinate (first the heights) has pebbling
    number T, the product of its edge weights. Dropping top level h of
    coordinate i, edge weight v, makes floor(c / v) moves on each pile c of that
    level in the box, in scan order; pebbles then in the smaller box are "kept".
    Each step drops the coordinate of largest kept * v, ties to the lowest;
    work is O(d * V) per step over sum(heights) steps, plus one entry per move.

    Why it does not stall: i "qualifies" when kept * v >= T, the smaller
    box's need times v; qualifying steps reach the root, and the largest
    kept * v qualifies if any does. Count T pebbles (more only raise kept): M
    off the top vertex, b_i below the top level of i, r_i the remainders left
    on it. If none qualifies, v_i | T gives r_i >= v_i + (v_i - 1) * b_i, and
    r_i <= v_i - 1 + M - b_i, so v_i * b_i < M; a pebble off the top vertex is
    below it in some coordinate, so M <= sum(b_i) and sum(1 / v_i) > 1. Edge
    weights never shrink toward the root, so that sum only falls; it is <= 1
    for every group of at most two primes and every odd group below
    MAX_GROUP_ORDER. On Z_30 and Z_60 a profile with none qualifying has at
    most sum(|N_i| - 2) pebbles off the top vertex (N_i the top level of i),
    6 and 10, and all of those qualify. Elsewhere one can occur (the tests
    plan one on Z_907200); the ranking planned every one tried, unproven.
    """
    root, vertices, weights = lattice.root_index, lattice.vertices, lattice.level_weights
    prof, tops = list(start), list(lattice.dec.heights)
    plan: list[tuple[int, int]] = []
    while not prof[root]:
        box = [x for x in lattice.scan_order if prof[x] and all(map(int.__le__, vertices[x].u, tops))]
        scores = {}  # coordinate -> kept * v
        for i, h in enumerate(tops):
            if h:
                v = weights[i][h - 1]
                scores[i] = v * sum(prof[x] if vertices[x].u[i] < h else prof[x] // v for x in box)
        if not scores:
            return None
        i = max(scores, key=scores.get)  # the first best: ties go to the lowest coordinate
        h, v, stride = tops[i], weights[i][tops[i] - 1], lattice.strides[i]
        for x in box:
            if vertices[x].u[i] == h and prof[x] >= v:
                if x - stride == root:
                    return plan + [(x, i)]
                k = prof[x] // v
                prof[x] -= k * v
                prof[x - stride] += k
                plan.extend([(x, i)] * k)
        tops[i] -= 1
    return plan


def solve_to_root(conf: Configuration) -> Pebble:
    """Drive merges until a pebble reaches the root and return it.

    Tries the greedy schedule first and, on a stall (`fallback_fired`), level
    elimination. No plan at all is a bug; the error names the group and the
    count profile as divisor:count pairs, which reproduce it.
    """
    existing = conf.root_pebble()
    if existing is not None:
        return existing
    profile = conf.count_profile()
    plan = _greedy_plan(conf.lattice, profile)
    if plan is None:
        conf.fallback_fired = True
        plan = _eliminate_plan(conf.lattice, profile)
    if plan is None:
        counts = " ".join(f"{v.divisor}:{c}" for v, c in zip(conf.lattice.vertices, profile) if c)
        orders = ",".join(map(str, conf.dec.spec.cyclic_orders))
        raise InternalInvariantError(f"no plan reaches the root: group {orders}, count profile {counts}")
    for (vidx, ci), run in itertools.groupby(plan):
        merge_step(conf, conf.lattice.vertex_at(vidx), ci, len(list(run)))
    result = conf.root_pebble()
    if result is None:
        raise InternalInvariantError("planned moves did not produce a root pebble")
    return result


def _recompute(
    dec: PrimaryDecomposition, elements: Sequence[GroupElement], indices: Sequence[int]
) -> tuple[GroupElement, int]:
    total = identity(dec)
    cost = 0
    for k in indices:
        g = elements[k - 1]
        total = add_elements(total, g)
        cost += dec.exponent // element_order(g)
    return total, cost


def extract_certificate(
    root: Pebble,
    dec: PrimaryDecomposition,
    elements: Sequence[GroupElement],
    moves: Sequence[MoveRecord] = (),
) -> Certificate:
    """Recompute every condition from the member indices alone; caches are not trusted."""
    if root.vertex.divisor != 1:
        raise InputError("certificate extraction needs a pebble at the root")
    indices = tuple(sorted(root.members))
    if not indices:
        raise InternalInvariantError("root pebble has no members")
    total, cost = _recompute(dec, elements, indices)
    if total != identity(dec) or cost > dec.exponent or len(indices) > dec.exponent:
        raise InternalInvariantError("root pebble fails recheck; solver state is corrupt")
    return Certificate(indices=indices, ord_cost=cost, bound=dec.exponent, moves=tuple(moves))


def verify_certificate(
    dec: PrimaryDecomposition, elements: Sequence[GroupElement], indices: Sequence[int]
) -> Verdict:
    """Independent check of a claimed index set; lists every violated condition."""
    indices = list(indices)
    seen = set()
    for k in indices:
        if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= len(elements):
            raise InputError(f"index {k!r} outside 1..{len(elements)}")
        if k in seen:
            raise InputError(f"index {k} appears twice")
        seen.add(k)
    failures = []
    if not indices:
        failures.append("index set is empty")
        return Verdict(False, tuple(failures))
    total, cost = _recompute(dec, elements, indices)
    if total != identity(dec):
        failures.append("selected elements do not sum to the identity")
    if cost > dec.exponent:
        failures.append(
            f"order cost {cost} exceeds the bound {dec.exponent} (reciprocal sum above 1)"
        )
    return Verdict(not failures, tuple(failures))
