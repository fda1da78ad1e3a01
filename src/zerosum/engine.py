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
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from operator import getitem
from typing import NamedTuple

from .errors import InputError, InternalInvariantError
from .groups import PrimaryDecomposition, add_elements, element_columns, element_costs, element_order, identity
from .lattice import LatticeVertex, WeightedLattice, build_lattice, placement_rule
from .base_cases import _elementary_block, _zero_sum_blocks


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


class MoveLog(Sequence):
    """The move log: one `_Run` per merge_step run, read as a sequence of
    `MoveRecord`s built on request. Move k made pebble base + k, where base is
    |G| + 1, so a run's moves end where the next run's begin, and `moves`
    ends the last; `firsts` holds each run's first id, for bisection."""

    def __init__(self, base: int):
        self.base, self.runs, self.firsts, self.moves = base, [], [], 0

    def __len__(self) -> int:
        return self.moves

    def __getitem__(self, k: int) -> MoveRecord:
        q = self.base + range(self.moves)[k]  # range: negative k and IndexError as a list's
        run = self.runs[bisect_right(self.firsts, q) - 1]
        s, w = q - run.first, run.weight
        return MoveRecord(run.divisor, run.prime, w, tuple(run.run[s * w : s * w + w]), self.selected(q), q)

    def __iter__(self):
        """A run at a time: its moves' chunks, selections and ids in C-level maps."""
        for run, end in zip(self.runs, [*self.firsts[1:], self.base + self.moves]):
            n, w = end - run.first, run.weight
            chunks = list(zip(*[iter(run.run[: n * w])] * w))
            kept = map(getitem, chunks, run.blocks) if run.step else map(run.kept.__getitem__, run.blocks[:n])
            fields = zip(repeat(run.divisor), repeat(run.prime), repeat(w), chunks, kept, range(run.first, end))
            yield from map(tuple.__new__, repeat(MoveRecord), fields)

    def selected(self, q: int) -> tuple[int, ...]:
        """The ids kept by the move that made merged pebble q."""
        run = self.runs[bisect_right(self.firsts, q) - 1]
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
    if cost > budget:
        return False
    for j, m in congruences:
        if val[j] % m:
            return False
    return True


class Configuration:
    """The pebbles and the move log of one solving session, as a column table.

    Pebble k is slot k of every column: `cols[j][k]` is its coordinate in
    invariant factor j (for an input pebble 1..|G|, coordinate j of element
    k itself) and `costs[k]` its order cost; slot 0 is unused, and so are
    the `cols` slots of a merged pebble once a move consumes it. `value(k)`
    reads pebble k's value as a tuple. `pools` maps a vertex index to the
    ids on it, ascending. The move log is the merge tree: pebble |G| + 1 + k
    is made by move k, and its parts are that move's selected ids (see
    `Pebble.members`). Mutated only through merge moves; not meant
    to be shared across sessions. With debug enabled (flag or
    ZEROSUM_DEBUG=1) every move recomputes the new pebble's value and cost
    from its member indices and re-checks disjointness.
    """

    def __init__(
        self,
        dec: PrimaryDecomposition,
        lattice: WeightedLattice,
        elements: Sequence[tuple[int, ...]],
        debug: bool | None = None,
    ):
        self.dec = dec
        self.lattice = lattice
        self.elements = list(elements)
        self.debug = debug if debug is not None else os.environ.get("ZEROSUM_DEBUG") == "1"
        cols = element_columns(dec, self.elements)  # refuses an element of another rank
        self.cols: list[list[int | None]] = [[None, *col] for col in cols]
        self.costs: list[int] = [0, *element_costs(dec, cols)]
        self.pools: dict[int, list[int]] = {}
        self.move_log = MoveLog(len(self.elements) + 1)
        self.fallback_fired = False

    def value(self, pid: int) -> tuple[int, ...]:
        return tuple([col[pid] for col in self.cols])

    def _pebble(self, pid: int, vidx: int) -> Pebble:
        vertex = self.lattice.vertices[vidx]
        return Pebble(pid, self.value(pid), self.costs[pid], vertex, self)

    def live_pebbles(self) -> list[Pebble]:
        return sorted(self._pebble(pid, vidx) for vidx, pool in self.pools.items() for pid in pool)

    def count_profile(self) -> tuple[int, ...]:
        counts = [0] * self.lattice.num_vertices
        for idx, pool in self.pools.items():
            counts[idx] = len(pool)
        return tuple(counts)

    def root_pebble(self) -> Pebble | None:
        root = self.lattice.root_index
        pool = self.pools.get(root)
        return self._pebble(pool[0], root) if pool else None

    def context(self) -> str:
        """The group and the count profile as divisor:count pairs, to reproduce an internal error."""
        counts = " ".join(f"{v.divisor}:{c}" for v, c in zip(self.lattice.vertices, self.count_profile()) if c)
        return f"group {','.join(map(str, self.dec.spec.cyclic_orders))}, count profile {counts}"


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
    elements: Sequence[tuple[int, ...]],
    lattice: WeightedLattice | None = None,
    debug: bool | None = None,
) -> Configuration:
    """One singleton pebble per element on the vertex of its order.

    The table transposes the elements once into its columns
    (`element_columns`, which refuses an element of another rank) and takes
    each order cost as one gcd over them (`element_costs`). The ids are
    sorted by cost and placed a vertex at a time, the vertex of cost c being
    the one of divisor N // c, and every pebble's placement is checked
    against its vertex's rule: the first misplaced id is the least over one
    `compress` per rule.
    """
    if len(elements) != dec.group_order:
        raise InputError(f"need exactly {dec.group_order} elements for this group, got {len(elements)}")
    if lattice is None:
        lattice = build_lattice(dec)
    conf = Configuration(dec, lattice, elements, debug=debug)
    cols, costs, exponent = conf.cols, conf.costs, dec.exponent
    index_of = {exponent // v.divisor: idx for idx, v in enumerate(lattice.vertices)}
    misplaced = len(costs)  # past every id: none found yet
    for cost, ids in itertools.groupby(sorted(range(1, len(costs)), key=costs.__getitem__), costs.__getitem__):
        if cost not in index_of:  # a cost divides N, so only another group's lattice lacks its vertex
            raise InternalInvariantError(f"element order {exponent // cost} does not divide the exponent "
                                         f"{lattice.dec.exponent} of the lattice")
        pool = conf.pools[index_of[cost]] = list(ids)  # the sort is stable: ids stay ascending
        budget, congruences = lattice.placement[index_of[cost]]
        rules = [map(m.__rmod__, map(cols[j].__getitem__, pool)) for j, m in congruences]
        rules.append(map(budget.__lt__, map(costs.__getitem__, pool)))
        misplaced = min(misplaced, *[next(itertools.compress(pool, rule), misplaced) for rule in rules])
    if misplaced < len(costs):
        raise InternalInvariantError(f"initial pebble {misplaced} is not well placed")
    return conf


def merge_step(
    conf: Configuration, vertex: LatticeVertex, coordinate: int, count: int = 1
) -> Configuration:
    """Make `count` moves at `vertex` in `coordinate`, each consuming one edge
    weight of pebbles and placing their zero-sum merge one level down.

    The run takes the lowest count x weight ids present, and each move the
    next weight of them. Each pebble is reduced to a vector over F_p:
    coordinate j, for j below the edge's dual length, divided by the residual
    modulus of component (i, j) at `vertex` (exact by well-placedness), mod p.
    The run is worked a column at a time, each read as one slice when its ids
    are consecutive; a misplaced pebble stops it at its move. In dimension 1
    one base-case pass gives each move a block of consecutive pebbles, whose
    column sums value the merge; otherwise each move runs the base case on
    its vectors. The moves before the first merge that breaks the child's
    placement rule are placed at once (one at a time, each debug-checked,
    with debug on) with one `+=` per column and logged as one run record,
    and the column slots of the merged pebbles they consume are freed.
    """
    lattice = conf.lattice
    u = vertex.u
    i = coordinate
    if not 0 <= i < len(u) or u[i] < 1:
        raise InputError(f"vertex {vertex.divisor} has no down edge in coordinate {i}")
    if count < 1:
        raise InputError(f"move count must be positive, got {count}")
    vidx = lattice.vertex_index(u)
    pool = conf.pools.get(vidx, [])
    dec = conf.dec
    p = dec.primes[i]
    dims = lattice.duals[i][u[i] - 1]
    weight = lattice.level_weights[i][u[i] - 1]
    need = count * weight
    if len(pool) < need:
        raise InputError(
            f"vertex {vertex.divisor} holds {len(pool)} pebbles, "
            f"{count} move(s) of weight {weight} need {need}"
        )
    costs, factors = conf.costs, dec.invariant_factors
    if pool[need - 1] - pool[0] == need - 1:  # consecutive ids: a range keeps no int per id in the log
        run = range(pool[0], pool[0] + need)
        cols = [col[run.start : run.stop] for col in (*conf.cols, costs)]  # the last: order costs
    else:
        run = tuple(pool[:need])
        cols = [list(map(col.__getitem__, run)) for col in (*conf.cols, costs)]
    del pool[:need]
    if not pool:
        del conf.pools[vidx]

    bad = need  # position in the run of the first misplaced pebble
    reduced = []
    for col, m in zip(cols, lattice.residual_moduli[vidx][i][:dims]):
        if m > 1:
            bad = min(bad, next(itertools.compress(itertools.count(), map(m.__rmod__, col)), need))
            col = map(m.__rfloordiv__, col)
        reduced.append(list(map(p.__rmod__, col)))
    moves = bad // weight
    size = moves * weight
    if dims == 1:  # sums: per column, each move's chunk summed over its block
        blocks = _zero_sum_blocks(p, reduced[0][:size])
        kept, step = run, weight
        sums = [list(map(sum, map(getitem, zip(*[iter(col)] * p), blocks))) for col in cols]
    else:
        vecs = list(zip(*reduced))
        picks = [[s + k - 1 for k in _elementary_block(p, vecs[s : s + weight])] for s in range(0, size, weight)]
        kept, step = tuple(run[k] for q in picks for k in q), 0
        ends = list(itertools.accumulate(map(len, picks)))
        blocks = list(map(slice, [0, *ends], ends))
        sums = [[sum(map(col.__getitem__, q)) for q in picks] for col in cols]
    del cols, reduced
    new_costs = sums.pop()
    new_cols = [list(map(n.__rmod__, col)) for n, col in zip(factors, sums)]
    del sums

    child_idx = vidx - lattice.strides[i]
    child_pool = conf.pools.setdefault(child_idx, [])
    budget, congruences = lattice.placement[child_idx]
    placed = next(itertools.compress(itertools.count(), map(budget.__lt__, new_costs)), moves)
    for j, m in congruences:
        placed = min(placed, next(itertools.compress(itertools.count(), map(m.__rmod__, new_cols[j])), moves))
    log = conf.move_log
    new_id = len(costs)
    if placed:  # tuple.__new__ skips the Python-level __new__ NamedTuple generates
        log.runs.append(tuple.__new__(_Run, (vertex.divisor, p, weight, run, new_id, kept, step, blocks)))
        log.firsts.append(new_id)
    merged = bisect_left(run, log.base)  # run positions from here on hold merged pebbles
    batch = 1 if conf.debug else max(placed, 1)
    for lo in range(0, placed, batch):
        hi = lo + batch
        for col, new in zip(conf.cols, new_cols):
            col += new[lo:hi]
        costs += new_costs[lo:hi]
        child_pool += range(new_id + lo, new_id + hi)
        log.moves += hi - lo
        gone = run[max(merged, lo * weight) : hi * weight]  # consumed merged pebbles: never read again
        for col in conf.cols:
            if type(gone) is range:
                col[gone.start : gone.stop] = [None] * len(gone)
            else:
                for q in gone:
                    col[q] = None
        if conf.debug:
            _debug_check(conf, new_id + lo)
    if placed < moves:
        child = lattice.vertices[child_idx]
        raise InternalInvariantError(
            f"merged pebble {new_id + placed} is not well placed at vertex {child.divisor}: {conf.context()}"
        )
    if bad < need:
        raise InternalInvariantError(
            f"pebble {run[bad]} is not well placed at vertex {vertex.divisor}: {conf.context()}"
        )
    return conf


def _debug_check(conf: Configuration, pid: int) -> None:
    """Recompute pebble `pid` from its members and rescan pairwise disjointness."""
    val, cost = _recompute(conf.dec, conf.elements, sorted(set(_leaves(conf, pid))))
    if val != conf.value(pid) or cost != conf.costs[pid]:
        raise InternalInvariantError(f"cached value of pebble {pid} disagrees with its members")
    seen: set[int] = set()
    for pool in conf.pools.values():
        for other in pool:
            members = frozenset(_leaves(conf, other))
            if members & seen:
                raise InternalInvariantError("live pebbles share member indices")
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
        raise InternalInvariantError(f"no plan reaches the root: {conf.context()}")
    for vidx, ci, k in plan:
        merge_step(conf, conf.lattice.vertex_at(vidx), ci, k)
    result = conf.root_pebble()
    if result is None:
        raise InternalInvariantError("planned moves did not produce a root pebble")
    return result


def _recompute(
    dec: PrimaryDecomposition, elements: Sequence[tuple[int, ...]], indices: Sequence[int]
) -> tuple[tuple[int, ...], int]:
    total = identity(dec)
    cost = 0
    for k in indices:
        g = elements[k - 1]
        total = add_elements(dec, total, g)
        cost += dec.exponent // element_order(dec, g)
    return total, cost


def extract_certificate(
    root: Pebble,
    dec: PrimaryDecomposition,
    elements: Sequence[tuple[int, ...]],
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
    return Certificate(indices=indices, ord_cost=cost, bound=dec.exponent)


def verify_certificate(
    dec: PrimaryDecomposition, elements: Sequence[tuple[int, ...]], indices: Sequence[int]
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
