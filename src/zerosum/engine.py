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
from itertools import repeat
from bisect import bisect_right
from collections.abc import Sequence
from operator import attrgetter, floordiv, getitem, lt, mod
from typing import NamedTuple

from .errors import InputError, InternalInvariantError
from .groups import (PrimaryDecomposition, add_elements, element_columns, element_costs, element_order, identity,
                     residues)
from .lattice import LatticeVertex, WeightedLattice, build_lattice, placement_rule
from .base_cases import _elementary_block, _vectors, _zero_sum_blocks


class MoveRecord(NamedTuple):
    vertex_divisor: int
    prime: int
    weight: int
    consumed: tuple[int, ...]
    selected: tuple[int, ...]
    new_id: int


class _Run(NamedTuple):
    """One merge_step run in the move log. Its move k made pebble first + k,
    consumed run[k * weight : (k + 1) * weight] and kept
    kept[k * step + a : k * step + b], for blocks[k] the slice a:b. In
    dimension 1 `kept` is the run, `step` the weight, and blocks[k] the block
    of the move's chunk, one slice object for chunks alike; otherwise `kept`
    is the selections laid end to end and `step` is 0."""

    divisor: int
    prime: int
    weight: int
    run: Sequence[int]
    first: int
    kept: Sequence[int]
    step: int
    blocks: list[slice]


class MoveLog:
    """The move log: one `_Run` per merge_step run, read by `len` and by
    iteration as `MoveRecord`s built on request. Move k made pebble base + k
    (base is |G| + 1); a run is logged whole, so it made len(run.blocks)
    pebbles from run.first on, and `moves` counts them all."""

    def __init__(self, base: int):
        self.base, self.runs, self.moves = base, [], 0

    def __len__(self) -> int:
        return self.moves

    def __iter__(self):
        """A run at a time: its moves' chunks, selections and ids in C-level maps."""
        for run in self.runs:
            chunks = list(zip(*[iter(run.run)] * run.weight))
            kept = map(getitem, chunks, run.blocks) if run.step else map(run.kept.__getitem__, run.blocks)
            ids = range(run.first, run.first + len(run.blocks))
            fields = zip(repeat(run.divisor), repeat(run.prime), repeat(run.weight), chunks, kept, ids)
            yield from map(tuple.__new__, repeat(MoveRecord), fields)

    def selected(self, q: int) -> tuple[int, ...]:
        """The ids kept by the move that made merged pebble q."""
        run = self.runs[bisect_right(self.runs, q, key=attrgetter("first")) - 1]
        block, s = run.blocks[q - run.first], (q - run.first) * run.step
        return tuple(run.kept[s + block.start : s + block.stop])


class Pebble(NamedTuple):
    """One live pebble read out of a Configuration's table: its id, value (one
    integer per invariant factor), order cost, vertex, and the configuration
    whose move log holds its merge tree. Made on request (`root_pebble`,
    `live_pebbles`), never by a move."""

    pid: int
    val: tuple[int, ...]
    ord_cost: int
    vertex: LatticeVertex
    conf: Configuration

    @property
    def members(self) -> frozenset[int]:
        """Input indices at the leaves of this pebble's merge tree."""
        return frozenset(_leaves(self.conf, self.pid))


class Verdict(NamedTuple):
    passed: bool
    failures: tuple[str, ...]


class Certificate(NamedTuple):
    """Verified solution: indices whose elements sum to the identity within budget."""

    indices: tuple[int, ...]
    ord_cost: int
    bound: int


def well_placed(
    val: tuple[int, ...], cost: int, u: Sequence[int], dec: PrimaryDecomposition
) -> bool:
    """Congruence of `val` (an element, or a pebble's value) against the
    residual moduli at u, plus the integer cost budget. The rule is derived
    from u, not read from the lattice's table, so the engine's precomputed
    placement can be checked against it.
    """
    budget, congruences = placement_rule(dec, tuple(u))
    return cost <= budget and not any(val[j] % m for j, m in congruences)


class Configuration:
    """The pebbles and the move log of one solving session, as a column table.

    Pebble k is slot k of every column: `cols[j][k]` is its coordinate in
    invariant factor j (for an input pebble 1..|G|, entry k - 1 of column j
    of `sequence`, the caller's columns, itself) and `costs[k]` its order
    cost; slot 0 is unused. A slot keeps the value it was written with: a
    move consumes pebbles off their pool. `value(k)` reads it as a tuple.
    `pools[vidx]` lists the ids on vertex index vidx, ascending. The move log is
    the merge tree: pebble |G| + 1 + k is made by move k, and its parts are
    that move's selected ids (see `Pebble.members`). Mutated only through
    merge moves; not meant to be shared across sessions. With debug on
    (ZEROSUM_DEBUG=1, or `debug` set true) every run recomputes each new
    pebble's value and cost from `sequence` at its member indices and
    re-checks disjointness.
    """

    def __init__(self, dec: PrimaryDecomposition, lattice: WeightedLattice, cols: Sequence[Sequence[int]]):
        self.dec = dec
        self.lattice = lattice
        self.sequence = cols
        self.debug = os.environ.get("ZEROSUM_DEBUG") == "1"
        self.cols: list[list[int | None]] = [[None, *col] for col in cols]
        self.costs: list[int] = [0, *element_costs(dec, cols)]
        self.pools: list[list[int]] = [[] for _ in lattice.vertices]
        self.move_log = MoveLog(len(self.costs))
        self.fallback_fired = False

    def value(self, pid: int) -> tuple[int, ...]:
        return tuple([col[pid] for col in self.cols])

    def _pebble(self, pid: int, vidx: int) -> Pebble:
        return Pebble(pid, self.value(pid), self.costs[pid], self.lattice.vertices[vidx], self)

    def live_pebbles(self) -> list[Pebble]:
        return sorted(self._pebble(pid, vidx) for vidx, pool in enumerate(self.pools) for pid in pool)

    def count_profile(self) -> tuple[int, ...]:
        return tuple(map(len, self.pools))

    def root_pebble(self) -> Pebble | None:
        root = self.lattice.root_index
        pool = self.pools[root]
        return self._pebble(pool[0], root) if pool else None

    def context(self) -> str:
        """The group and the count profile as divisor:count pairs, to reproduce an internal error."""
        counts = " ".join(f"{v.divisor}:{c}" for v, c in zip(self.lattice.vertices, self.count_profile()) if c)
        return f"group {','.join(map(str, self.dec.spec.cyclic_orders))}, count profile {counts or '(none)'}"


def _leaves(conf: Configuration, pid: int) -> list[int]:
    """Input ids at the leaves of pebble `pid`'s merge tree: ids below the
    log's base are inputs, and a merged id is looked up in the run that made
    it."""
    log = conf.move_log
    out, stack = [], [pid]
    while stack:
        q = stack.pop()
        if q < log.base:
            out.append(q)
        elif q < log.base + log.moves:
            stack.extend(log.selected(q))
        else:
            raise InternalInvariantError(f"pebble {q} is made by no move in the log: {conf.context()}")
    return out


def initial_configuration(
    dec: PrimaryDecomposition,
    cols: Sequence[Sequence[int]],
    lattice: WeightedLattice | None = None,
) -> Configuration:
    """One singleton pebble per element of the sequence `cols` (one column
    per invariant factor) on the vertex of its order.

    `element_columns` refuses columns of another count or of unequal
    lengths; the table copies each column once, and takes each order cost
    as one gcd over them (`element_costs`). The ids are
    sorted by cost and placed a vertex at a time, the vertex of cost c being
    the one of divisor N // c, and every pebble's placement is checked
    against its vertex's rule: one cost comparison per pool and one reduction
    per congruence, and the least misplaced id is searched for only in a rule
    that fails.
    """
    if len(element_columns(dec, cols)[0]) != dec.group_order:
        raise InputError(f"need exactly {dec.group_order} elements for this group, got {len(cols[0])}")
    if lattice is None:
        lattice = build_lattice(dec)
    conf = Configuration(dec, lattice, cols)
    cols, costs, exponent = conf.cols, conf.costs, dec.exponent
    index_of = {exponent // v.divisor: idx for idx, v in enumerate(lattice.vertices)}
    misplaced = len(costs)  # past every id: none found yet
    for cost, ids in itertools.groupby(sorted(range(1, len(costs)), key=costs.__getitem__), costs.__getitem__):
        if cost not in index_of:  # a cost divides N, so only another group's lattice lacks its vertex
            raise InternalInvariantError(f"element order {exponent // cost} does not divide the exponent "
                                         f"{lattice.dec.exponent} of the lattice: {conf.context()}")
        pool = conf.pools[index_of[cost]] = list(ids)  # the sort is stable: ids stay ascending
        budget, congruences = lattice.placement[index_of[cost]]
        misplaced = min(misplaced, pool[0]) if cost > budget else misplaced  # one cost for the whole pool
        for col, m in ((list(map(cols[j].__getitem__, pool)), m) for j, m in congruences):
            if any(map(mod, col, repeat(m))):
                misplaced = min(misplaced, next(itertools.compress(pool, map(mod, col, repeat(m)))))
    if misplaced < len(costs):
        raise InternalInvariantError(f"initial pebble {misplaced} is not well placed: {conf.context()}")
    return conf


def merge_step(conf: Configuration, vidx: int, coordinate: int, count: int = 1) -> Configuration:
    """Make `count` moves at vertex index `vidx` down `coordinate`, each consuming
    one edge weight of pebbles and placing their zero-sum merge one level down.

    The run takes the lowest count x weight ids present, and each move the
    next weight of them. Each pebble is reduced to a vector over F_p:
    coordinate j, for j below the edge's dual length, divided by the residual
    modulus of component (i, j) at the vertex (exact by well-placedness), mod p.
    The run is worked a column at a time, each read as one slice when its ids
    are consecutive. In dimension 1 one base-case pass gives each move a block
    of consecutive pebbles, whose column sums value the merge; otherwise each
    move runs the base case on its vectors, one bytes each when p <= 256 (cut
    from one buffer of the run's columns), else tuples. A run is whole or
    nothing: its ids leave their pool before the checks (one reduction per
    rule, `any` of the residues or `max` of the costs, and a search for the
    first misplaced pebble only when one fails), and a misplaced pebble, a
    base-case error or a merge that breaks the child's placement rule puts
    them back and raises, with the group and count profile. Otherwise the
    moves are placed with one `+=` per column (consumed pebbles keep their
    slots) and logged as one run record, and with debug on each new pebble is
    then rechecked.
    """
    lattice = conf.lattice
    if not 0 <= vidx < lattice.num_vertices:
        raise InputError(f"vertex index {vidx} outside 0..{lattice.num_vertices - 1}")
    vertex = lattice.vertices[vidx]
    u = vertex.u
    i = coordinate
    if not 0 <= i < len(u) or u[i] < 1:
        raise InputError(f"vertex {vertex.divisor} has no down edge in coordinate {i}")
    if count < 1:
        raise InputError(f"move count must be positive, got {count}")
    pool = conf.pools[vidx]
    p = conf.dec.primes[i]
    dims = lattice.duals[i][u[i] - 1]
    weight = lattice.level_weights[i][u[i] - 1]
    need = count * weight
    if len(pool) < need:
        raise InputError(f"vertex {vertex.divisor} holds {len(pool)} pebbles, "
                         f"{count} move(s) of weight {weight} need {need}")
    costs, factors = conf.costs, conf.dec.invariant_factors
    if pool[need - 1] - pool[0] == need - 1:  # consecutive ids: a range keeps no int per id in the log
        run = range(pool[0], pool[0] + need)
        cols = [col[run.start : run.stop] for col in (*conf.cols, costs)]  # the last: order costs
    else:
        run = tuple(pool[:need])
        cols = [list(map(col.__getitem__, run)) for col in (*conf.cols, costs)]
    del pool[:need]  # off the pool before the checks: a top-vertex run frees one int per id

    try:
        bad = need  # position in the run of the first misplaced pebble
        divided = []
        for col, m in zip(cols, lattice.level_moduli[u[i]][i][:dims]):
            if m > 1:
                if any(map(mod, col, repeat(m))):
                    bad = min(bad, next(itertools.compress(itertools.count(), map(mod, col, repeat(m)))))
                col = map(floordiv, col, repeat(m))
            divided.append(col if dims == 1 or m == 1 else list(col))  # _vectors may read a column twice
        if bad < need:
            raise InternalInvariantError(f"pebble {run[bad]} is not well placed at vertex {vertex.divisor}")
        if dims == 1:  # sums: per column, each move's chunk summed over its block
            blocks = _zero_sum_blocks(p, residues(divided[0], p))
            kept, step = run, weight
            sums = [list(map(sum, map(getitem, zip(*[iter(col)] * p), blocks))) for col in cols]
        else:
            vecs = _vectors(p, divided)
            picks = [[s + k - 1 for k in _elementary_block(p, vecs[s : s + weight])] for s in range(0, need, weight)]
            kept, step = tuple(run[k] for q in picks for k in q), 0
            ends = list(itertools.accumulate(map(len, picks)))
            blocks = list(map(slice, [0, *ends], ends))
            sums = [[sum(map(col.__getitem__, q)) for q in picks] for col in cols]
        del cols, divided
        new_costs = sums.pop()
        new_cols = list(map(residues, sums, factors))
        del sums

        child_idx = vidx - lattice.strides[i]
        budget, congruences = lattice.placement[child_idx]
        new_id = len(costs)
        if max(new_costs) > budget or any(any(map(mod, new_cols[j], repeat(m))) for j, m in congruences):
            rules = [map(lt, repeat(budget), new_costs), *[map(mod, new_cols[j], repeat(m)) for j, m in congruences]]
            misplaced = min(next(itertools.compress(itertools.count(), rule), count) for rule in rules)
            child = lattice.vertices[child_idx].divisor
            raise InternalInvariantError(f"merged pebble {new_id + misplaced} is not well placed at vertex {child}")
    except BaseException as exc:
        pool[:0] = run  # back before the count profile is printed
        if not isinstance(exc, InternalInvariantError):
            raise
        raise InternalInvariantError(f"{exc}: {conf.context()}") from None

    log = conf.move_log
    log.runs.append(_Run(vertex.divisor, p, weight, run, new_id, kept, step, blocks))
    log.moves += count
    for col, new in zip(conf.cols, new_cols):
        col += new
    costs += new_costs
    conf.pools[child_idx] += range(new_id, new_id + count)
    if conf.debug:
        _debug_check(conf, range(new_id, new_id + count))
    return conf


def _debug_check(conf: Configuration, pids: Sequence[int]) -> None:
    """Recompute each pebble of `pids` from its members, in order, then scan
    the pools once for pairwise disjointness."""
    for pid in pids:
        val, cost = _recompute(conf.dec, conf.sequence, sorted(set(_leaves(conf, pid))))
        if val != conf.value(pid) or cost != conf.costs[pid]:
            raise InternalInvariantError(f"cached value of pebble {pid} disagrees with its members: {conf.context()}")
    seen: set[int] = set()
    for pool in conf.pools:
        for other in pool:
            members = frozenset(_leaves(conf, other))
            if members & seen:
                raise InternalInvariantError(f"live pebbles share member indices: {conf.context()}")
            seen |= members


# A plan is a list of runs (vertex index, coordinate, count): count moves at
# that vertex down that coordinate, made by one merge_step call.
Plan = list[tuple[int, int, int]]


def _greedy_plan(lattice: WeightedLattice, start: tuple[int, ...]) -> Plan | None:
    """Runs reaching the root, or None on a stall.

    Preference order: highest occupied vertex first (ties by ascending exponent
    vector), then the cheapest down edge (ties by coordinate). A move only adds
    to a vertex later in that order, so one pass spending each pile on its
    cheapest edge makes the same moves as rescanning after every move.
    """
    root = lattice.root_index
    if start[root] >= 1:
        return []
    prof = list(start)
    plan: Plan = []
    for vidx in lattice.scan_order:
        if not lattice.moves[vidx]:
            continue
        ci, w, child = lattice.moves[vidx][0]
        k = prof[vidx] // w
        if k:
            if child == root:
                return plan + [(vidx, ci, 1)]
            prof[vidx] -= k * w
            prof[child] += k
            plan.append((vidx, ci, k))
    return None


def _eliminate_plan(lattice: WeightedLattice, start: tuple[int, ...]) -> Plan | None:
    """Runs reaching the root, dropping one top level at a time.

    The box under one top level per coordinate (first the heights) has pebbling
    number T, the product of its edge weights. Dropping top level h of
    coordinate i, edge weight v, makes floor(c / v) moves on each pile c of that
    level in the box, in scan order; pebbles then in the smaller box are "kept".
    Each step drops the coordinate of largest kept * v, ties to the lowest;
    work is O(d * V) per step over sum(heights) steps.

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
    plan: Plan = []
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
                    return plan + [(x, i, 1)]
                k = prof[x] // v
                prof[x] -= k * v
                prof[x - stride] += k
                plan.append((x, i, k))
        tops[i] -= 1
    return plan


def solve_to_root(conf: Configuration) -> Pebble:
    """Drive merges until a pebble reaches the root and return it.

    Greedy first (its plan is empty when the root is occupied), then on a
    stall (`fallback_fired`) level elimination. No plan at all is a bug; the
    error names the group and count profile (divisor:count), which reproduce it.
    """
    profile = conf.count_profile()
    plan = _greedy_plan(conf.lattice, profile)
    if plan is None:
        conf.fallback_fired = True
        plan = _eliminate_plan(conf.lattice, profile)
    if plan is None:
        raise InternalInvariantError(f"no plan reaches the root: {conf.context()}")
    for vidx, ci, k in plan:
        merge_step(conf, vidx, ci, k)
    result = conf.root_pebble()
    if result is None:
        raise InternalInvariantError(f"planned moves did not produce a root pebble: {conf.context()}")
    return result


def _recompute(
    dec: PrimaryDecomposition, cols: Sequence[Sequence[int]], indices: Sequence[int]
) -> tuple[tuple[int, ...], int]:
    """Sum and order cost of the members `indices` (1-based) of `cols`, each read as a row: by
    `add_elements` and `element_order`, a path apart from the table's `element_costs`."""
    total, cost = identity(dec), 0
    for k in indices:
        g = tuple([col[k - 1] for col in cols])
        total = add_elements(dec, total, g)
        cost += dec.exponent // element_order(dec, g)
    return total, cost


def extract_certificate(
    root: Pebble,
    dec: PrimaryDecomposition,
    cols: Sequence[Sequence[int]],
) -> Certificate:
    """Recompute every condition from the member indices alone; caches are not trusted."""
    if root.vertex.divisor != 1:
        raise InputError("certificate extraction needs a pebble at the root")
    indices = tuple(sorted(root.members))
    if not indices:
        raise InternalInvariantError(f"root pebble has no members: {root.conf.context()}")
    total, cost = _recompute(dec, cols, indices)
    if total != identity(dec) or cost > dec.exponent or len(indices) > dec.exponent:
        raise InternalInvariantError(f"root pebble fails recheck; solver state is corrupt: {root.conf.context()}")
    return Certificate(indices=indices, ord_cost=cost, bound=dec.exponent)


def verify_certificate(
    dec: PrimaryDecomposition, cols: Sequence[Sequence[int]], indices: Sequence[int]
) -> Verdict:
    """Independent check of a claimed index set into the sequence `cols`; lists every violated condition."""
    indices = list(indices)
    length = len(element_columns(dec, cols)[0])
    seen = set()
    for k in indices:
        if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= length:
            raise InputError(f"index {k!r} outside 1..{length}")
        if k in seen:
            raise InputError(f"index {k} appears twice")
        seen.add(k)
    if not indices:
        return Verdict(False, ("index set is empty",))
    failures = []
    total, cost = _recompute(dec, cols, indices)
    if total != identity(dec):
        failures.append("selected elements do not sum to the identity")
    if cost > dec.exponent:
        failures.append(f"order cost {cost} exceeds the bound {dec.exponent} (reciprocal sum above 1)")
    return Verdict(not failures, tuple(failures))
