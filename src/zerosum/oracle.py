"""Brute-force ground truth, independent of the lattice engine.

Three families: a subset DP computing the exact minimum order cost over all
nonempty zero-sum subsequences, exhaustive generalized pebbling numbers for
small weighted graphs, and Davenport-type constants by multiset search. All
arithmetic is exact; every bound breach raises instead of approximating.

The DP keeps one best cost per group element, numbered row-major over the
invariant factors, so n items cost at most O(n * |G|) work. A copy of the item
before it relaxes only from the sums that copy improved: from any other sum,
the copy before relaxed the same value. The DP stops once the zero sum reaches
min(2, N), below which no nonempty zero-sum subsequence costs, or a caller's
higher stop. The worst case n * |G| is refused with InputError (exit 2) above
MAX_DP_WORK before the DP starts. Its witness is the chain of first items at
which each cost on the chain became optimal; see dp_min_cost_zero_sum.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

from .errors import InputError, InternalInvariantError
from .groups import PrimaryDecomposition, element_columns, element_costs
from .lattice import build_lattice

# Items x group order; admits |G| items over groups of order up to 2828.
MAX_DP_WORK = 8_000_000
MAX_SOLVABLE_STATES = 100_000  # about a second: 100,000 states a second, about 0.35 KB each (Q5, 2-core x86_64 VM)
MAX_PEBBLING_TOTAL = 64
# Distributions in the pebbling scan's final round, which also bounds its memo.
MAX_PEBBLING_DISTRIBUTIONS = 100_000
# Sums the Davenport walk extends: about half a second, four times any group of order <= 16 needs.
MAX_DAVENPORT_WORK = 4_000_000

# A pebble distribution is a count per vertex, indexed like the graph.
PebbleDistribution = tuple[int, ...]


class _GraphFields(NamedTuple):
    """WeightedGraph's fields; its constructor validates them."""

    num_vertices: int
    edges: tuple[tuple[int, int, int], ...]
    name: str = "graph"


class WeightedGraph(_GraphFields):
    """Connected undirected graph; moving across an edge burns its weight in pebbles."""

    __slots__ = ()

    def __new__(cls, num_vertices: int, edges: tuple[tuple[int, int, int], ...], name: str = "graph"):
        self = super().__new__(cls, num_vertices, edges, name)
        if self.num_vertices < 1:
            raise InputError("graph needs at least one vertex")
        seen = set()
        for a, b, w in self.edges:
            if not (0 <= a < self.num_vertices and 0 <= b < self.num_vertices):
                raise InputError(f"edge ({a},{b}) endpoint out of range")
            if a == b:
                raise InputError(f"self-loop at vertex {a}")
            if w < 2:
                raise InputError(f"edge ({a},{b}) weight {w} below 2")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise InputError(f"duplicate edge ({a},{b})")
            seen.add(key)
        reached, frontier, adj = {0}, [0], _adjacency(self)
        while frontier:
            for y, _ in adj[frontier.pop()]:
                if y not in reached:
                    reached.add(y)
                    frontier.append(y)
        if len(reached) != self.num_vertices:
            raise InputError("graph is not connected")
        return self


@functools.lru_cache(maxsize=None)
def _adjacency(graph: WeightedGraph) -> tuple[tuple[tuple[int, int], ...], ...]:
    out: list[list[tuple[int, int]]] = [[] for _ in range(graph.num_vertices)]
    for a, b, w in graph.edges:
        out[a].append((b, w))
        out[b].append((a, w))
    return tuple(tuple(sorted(nbrs)) for nbrs in out)


def weighted_boolean_cube(weights: tuple[int, ...] | list[int]) -> WeightedGraph:
    """2^n vertices as bitmasks; flipping bit i costs weights[i]."""
    weights = tuple(int(w) for w in weights)
    if not weights:
        raise InputError("cube needs at least one weight")
    n = len(weights)
    edges = tuple((mask, mask | 1 << i, w) for mask in range(1 << n)
                  for i, w in enumerate(weights) if not mask >> i & 1)
    return WeightedGraph(1 << n, edges, name="cube:" + ",".join(map(str, weights)))


def path_graph(weights: tuple[int, ...] | list[int]) -> WeightedGraph:
    """len(weights)+1 vertices in a line; vertex 0 is the root end."""
    weights = tuple(int(w) for w in weights)
    if not weights:
        raise InputError("path needs at least one weight")
    edges = tuple((i, i + 1, w) for i, w in enumerate(weights))
    return WeightedGraph(len(weights) + 1, edges, name="path:" + ",".join(map(str, weights)))


def lattice_graph(dec: PrimaryDecomposition) -> WeightedGraph:
    """The divisor lattice as a plain weighted graph, vertex 0 the root."""
    lattice = build_lattice(dec)
    edges = tuple((vidx, child_idx, w) for vidx, out in enumerate(lattice.moves) for _, w, child_idx in out)
    return WeightedGraph(lattice.num_vertices, edges, name=f"lattice:{dec.exponent}")


def solvable(graph: WeightedGraph, dist: PebbleDistribution, target: int) -> bool:
    """True iff some move sequence puts a pebble on target."""
    dist = tuple(int(c) for c in dist)
    if len(dist) != graph.num_vertices:
        raise InputError(f"distribution has {len(dist)} entries for {graph.num_vertices} vertices")
    if any(c < 0 for c in dist):
        raise InputError("pebble counts must be nonnegative")
    if not 0 <= target < graph.num_vertices:
        raise InputError(f"target {target} out of range")
    if dist[target] >= 1:
        return True
    return _solvable_search(dist, _adjacency(graph), target, {}, [MAX_SOLVABLE_STATES])


def _solvable_search(
    state: PebbleDistribution, adj, target: int, memo: dict[PebbleDistribution, bool], budget: list[int]
) -> bool:
    """Depth-first solvability of one state; budget[0] counts the states left.

    A module-level function rather than a closure: a nested function that
    calls itself is a reference cycle, and `pebbling_number` makes one
    search per (distribution, target) pair, sharing one memo per target.
    """
    if state in memo:
        return memo[state]
    budget[0] -= 1
    if budget[0] < 0:
        raise InputError(f"solvability search reached its bound of {MAX_SOLVABLE_STATES} states (MAX_SOLVABLE_STATES)")
    for v in range(len(state)):
        if state[v] == 0:
            continue
        for u, w in adj[v]:
            if state[v] >= w:
                nxt = list(state)
                nxt[v] -= w
                nxt[u] += 1
                nxt_t = tuple(nxt)
                if nxt_t[target] >= 1 or _solvable_search(nxt_t, adj, target, memo, budget):
                    memo[state] = True
                    return True
    memo[state] = False
    return False


def _compositions(total: int, parts: int):
    """All nonnegative integer tuples of the given length summing to total, concentrated first."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


class PebblingResult(NamedTuple):
    number: int
    witness: PebbleDistribution
    witness_target: int


def pebbling_lower_bound(graph: WeightedGraph) -> int:
    """Largest, over targets t and sources s, of d(s), the least product of
    edge weights on an s-t path; the pebbling number is at least that.

    Give each pebble on v the potential 1 / d(v). A move over an edge of weight
    w takes w pebbles from a and adds one to b, and d(a) <= w * d(b), so the
    total never rises; a pebble on t needs 1, which d(s) - 1 pebbles on s lack.
    """
    import heapq  # only this command needs it

    adj = _adjacency(graph)
    bound = 1
    for t in range(graph.num_vertices):
        dist, heap = {t: 1}, [(1, t)]
        while heap:
            d, v = heapq.heappop(heap)
            if d > dist[v]:
                continue
            for u, w in adj[v]:
                if u not in dist or d * w < dist[u]:
                    dist[u] = d * w
                    heapq.heappush(heap, (d * w, u))
        bound = max(bound, *dist.values())
    return bound


def pebbling_number(graph: WeightedGraph) -> PebblingResult:
    """Least k such that every k-pebble distribution reaches every target.

    Solvability is monotone in pebbles, so the first k with no failing pair is
    the answer; the witness is an unsolvable (k-1)-pebble distribution. Scans
    every distribution by stars and bars, stopping at the first failure. A
    graph whose pebbling number exceeds MAX_PEBBLING_TOTAL is refused with
    InputError, before the scan when pebbling_lower_bound already shows it.
    So is a graph whose final round, every distribution of at least that many
    pebbles, has more than MAX_PEBBLING_DISTRIBUTIONS of them.
    """
    lower = pebbling_lower_bound(graph)
    if lower > MAX_PEBBLING_TOTAL:
        raise InputError(f"pebbling number is at least {lower}, above the scan bound {MAX_PEBBLING_TOTAL}")
    final_round = math.comb(lower + graph.num_vertices - 1, graph.num_vertices - 1)
    if final_round > MAX_PEBBLING_DISTRIBUTIONS:
        raise InputError(
            f"pebbling scan would visit at least {final_round} distributions of {lower} pebbles "
            f"on {graph.num_vertices} vertices, above the bound {MAX_PEBBLING_DISTRIBUTIONS}"
        )
    n, adj = graph.num_vertices, _adjacency(graph)
    memos = [{} for _ in range(n)]
    witness: tuple[PebbleDistribution, int] = ((0,) * n, 0)
    for k in range(1, MAX_PEBBLING_TOTAL + 1):
        # The first (distribution, target) pair, in scan order, that no move sequence solves.
        bad = next(((dist, t) for dist in _compositions(k, n) for t in range(n)
                    if not dist[t] and not _solvable_search(dist, adj, t, memos[t], [MAX_SOLVABLE_STATES])), None)
        if bad is None:
            return PebblingResult(k, witness[0], witness[1])
        witness = bad
    raise InputError(f"pebbling number exceeds the scan bound {MAX_PEBBLING_TOTAL}")


class OracleResult(NamedTuple):
    feasible: bool
    min_cost: int | None
    indices: tuple[int, ...]
    qualifies: bool


def check_dp_work(dec: PrimaryDecomposition, length: int) -> None:
    """Refuse a DP over `length` items whose predicted work exceeds MAX_DP_WORK."""
    work = length * dec.group_order
    if work > MAX_DP_WORK:
        raise InputError(
            f"zero-sum DP work {length} items x |G| = {dec.group_order} is {work}, "
            f"above the bound {MAX_DP_WORK}"
        )


def _shift_table(dec: PrimaryDecomposition, g: tuple[int, ...]) -> list[int]:
    """table[s] is the index of s + g, for every sum index s.

    Sums are numbered row-major over the invariant factors, so the table is
    one rotation per factor and table[0] is the index of g.
    """
    rots = [[*range(x, n), *range(x)] for x, n in zip(g, dec.invariant_factors)]
    table = rots[0]
    for rot in rots[1:]:
        n = len(rot)
        table = [hi + r for hi in (a * n for a in table) for r in rot]
    return table


def dp_min_cost_zero_sum(dec: PrimaryDecomposition, cols, stop: int = 0, tables: dict | None = None) -> OracleResult:
    """Exact minimum of the order cost over nonempty zero-sum subsequences of
    the sequence `cols`, one column per invariant factor (`element_columns`).

    Exact 0/1 DP over sums, numbered row-major over the invariant factors:
    item k with order cost c turns best[s + g] into
    min(best[s + g], best[s] + c), reading best as it stood before item k, and
    seeds the singleton best[g] = c.

    An item equal to the item before it reads only the sums that its previous
    copy strictly improved. That is exact: if copy k-1 left best[s] unchanged,
    it already relaxed s + g with the same value, so copy k cannot improve
    s + g from s. The first copy of an element costs O(sums reached) and each
    later copy O(sums its previous copy improved); the worst case stays
    O(n * |G|) for n items, refused above MAX_DP_WORK before it starts.

    best[t] changes only on a strict improvement, and the change records the
    parent (t, new cost) -> (t - g, k). The witness walks back from
    (0, best[0]), so each cost on its chain is reached at the first item that
    made it optimal; parents are keyed by (element, cost) so a later, cheaper
    path to the same element leaves the chain's links alone. Chains carry
    strictly decreasing item indices, so each item is used at most once.

    The DP stops after the first item that brings best[0] down to
    max(min(2, N), min(stop, N)). No zero-sum subsequence costs less than
    min(2, N), the default: the identity alone costs N, and two or more terms
    cost at least 1 each. best[t] drops only strictly and never rises, so no
    parent on the final chain changes after the stop. So min_cost is the least
    cost when that exceeds the stop, otherwise some cost at most the stop, with
    a witness of that cost; feasible and qualifies stay exact.

    `tables`, if given, keeps each element's shift table for later calls on
    `dec`, as bytes if |G| <= 256 (one byte a sum, as columns); else unused.
    """
    check_dp_work(dec, len(element_columns(dec, cols)[0]))
    costs = element_costs(dec, cols)
    stop = max(min(2, dec.exponent), min(stop, dec.exponent))
    unreached = max(sum(costs), stop) + 1  # above every cost, so best[0] <= stop means reached
    best = [unreached] * dec.group_order
    reached: list[int] = []
    parent: dict[tuple[int, int], tuple[int | None, int]] = {}
    table_of = table = None
    changed: list[int] = []
    keep = tables is not None and dec.group_order <= 256
    for k, (g, c) in enumerate(zip(zip(*cols), costs), start=1):
        if g != table_of:
            table_of, table = g, tables.get(g) if keep else _shift_table(dec, g)
            if table is None:
                table = tables[g] = bytes(_shift_table(dec, g))
            gi = table[0]
            sources, before = reached[:], best[:]
        else:
            sources, before = changed, {s: best[s] for s in changed}
        changed = []
        if c < best[gi]:
            if best[gi] == unreached:
                reached.append(gi)
            best[gi] = c
            parent[(gi, c)] = (None, k)
            changed.append(gi)
        for s in sources:
            t = table[s]
            cost = before[s] + c
            if cost < best[t]:
                if best[t] == unreached:
                    reached.append(t)
                best[t] = cost
                parent[(t, cost)] = (s, k)
                changed.append(t)
        if best[0] <= stop:
            break
    if best[0] == unreached:
        return OracleResult(False, None, (), False)
    out = []
    s, cost = 0, best[0]
    while s is not None:
        s, k = parent[(s, cost)]
        out.append(k)
        cost -= costs[k - 1]
    out.sort()
    return OracleResult(True, best[0], tuple(out), best[0] <= dec.exponent)


def davenport_constant(dec: PrimaryDecomposition, weighted: bool = False) -> int:
    """Least D such that every length-D sequence has a nonempty zero-sum subsequence.

    The weighted variant additionally requires the subsequence's order cost to
    fit the budget N; the plain one is the same search with every cost 0 and
    the budget 0. Computed as one plus the longest extendable sequence with no
    such subsequence; candidates are multisets (feasibility is permutation
    invariant), walked depth-first by _longest.

    The walk counts one unit of work per sum it extends, the empty sum
    included, and raises InputError past MAX_DAVENPORT_WORK. It is refused
    before it starts when it must pass that: every pair g <= h of nonzero
    elements with g + h != 0 (all but at most one g per h) is a node whose two
    or more sums are extended by each k >= h, at least 3 * C(|G|, 3) units.
    """
    if 3 * math.comb(dec.group_order, 3) > MAX_DAVENPORT_WORK:
        raise _over_davenport_work()
    elements = list(itertools.product(*map(range, dec.invariant_factors)))
    bound = dec.exponent if weighted else 0
    costs = element_costs(dec, zip(*elements)) if weighted else [0] * len(elements)
    tables = [_shift_table(dec, g) for g in elements]
    return _longest(tables, costs, bound, 1, {}, 0, [MAX_DAVENPORT_WORK]) + 1


def _over_davenport_work() -> InputError:
    return InputError(f"Davenport search passed its work bound of {MAX_DAVENPORT_WORK} sums extended")


def _longest(
    tables: list[list[int]], costs: list[int], bound: int, lo: int, reach: dict[int, int], depth: int,
    budget: list[int],
) -> int:
    """Greatest length of a sequence with no zero-sum subsequence of cost within
    bound that extends, by elements of index lo or above, one of length depth
    whose nonempty subsequence sums are reach's keys, each mapped to its least
    cost; budget[0] counts the units of work left.

    One least cost per sum is exact: a cheaper path to a sum passes every test
    a dearer one passes. Module-level, since a closure that calls itself is a
    reference cycle.
    """
    order = len(tables)
    if depth >= order:
        raise InternalInvariantError("sequence with no zero-sum within budget reached the group order")
    best, over = depth, bound + 1
    for g in range(lo, order):
        budget[0] -= len(reach) + 1
        if budget[0] < 0:
            raise _over_davenport_work()
        table, c = tables[g], costs[g]
        new = dict(reach)
        if c < new.get(g, over):
            new[g] = c
        for s, sc in reach.items():
            sc += c
            if sc < new.get(t := table[s], over):
                if t == 0:
                    break
                new[t] = sc
        else:
            best = max(best, _longest(tables, costs, bound, g, new, depth + 1, budget))
    return best
