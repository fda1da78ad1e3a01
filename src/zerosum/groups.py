"""Finite abelian groups: parsing, prime-power decomposition, exact element arithmetic.

A group is given as a direct sum of cyclic factors Z_n1 + ... + Z_nr, in any
order. Internally each factor is split into cyclic components of prime-power
order; elements become coordinate vectors over those components with
componentwise addition. Everything is exact integer work; there is no float
anywhere in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InputError, InternalInvariantError

# Reject group orders beyond this rather than silently degrade; all supported
# workloads are desk scale.
MAX_GROUP_ORDER = 2**31


@dataclass(frozen=True)
class GroupSpec:
    """User-facing group description: cyclic factor orders in the given sequence."""

    cyclic_orders: tuple[int, ...]
    group_order: int

    @property
    def rank(self) -> int:
        return len(self.cyclic_orders)


def group_spec(orders: Iterable[int]) -> GroupSpec:
    """Build a GroupSpec from factor orders, validating each and the total size."""
    factors = tuple(orders)
    if not factors:
        raise InputError("group spec needs at least one cyclic factor")
    product = 1
    for n in factors:
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise InputError(f"cyclic order must be a positive integer, got {n!r}")
        product *= n
        if product > MAX_GROUP_ORDER:
            raise InputError(f"group order exceeds the supported bound {MAX_GROUP_ORDER}")
    return GroupSpec(factors, product)


def parse_group_spec(text: str) -> GroupSpec:
    """Parse a comma-separated list of cyclic factor orders, e.g. "9,3,3,25,5"."""
    tokens = [t.strip() for t in text.split(",")]
    if tokens == [""]:
        raise InputError("empty group spec")
    orders = []
    for tok in tokens:
        try:
            orders.append(int(tok))
        except ValueError:
            raise InputError(f"bad cyclic order {tok!r} in group spec") from None
    return group_spec(orders)


def _factorize(n: int) -> list[tuple[int, int]]:
    """Trial-division factorization as (prime, exponent) pairs, primes ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


@dataclass(frozen=True)
class PrimaryDecomposition:
    """The group rewritten as a direct sum of cyclic components of prime-power order.

    Component (i, j) is cyclic of order primes[i] ** exponents[i][j]; each row of
    `exponents` is sorted non-increasing. `slot_sources[i][j]` names the user
    factor that component came from. `exponent` is the group exponent, the
    product over primes of the largest component order.
    """

    spec: GroupSpec
    primes: tuple[int, ...]
    exponents: tuple[tuple[int, ...], ...]
    moduli: tuple[tuple[int, ...], ...]
    slot_sources: tuple[tuple[int, ...], ...]
    exponent: int
    heights: tuple[int, ...]
    group_order: int

    @property
    def num_primes(self) -> int:
        return len(self.primes)


def primary_decomposition(spec: GroupSpec) -> PrimaryDecomposition:
    """Split every cyclic factor into prime-power components and regroup by prime."""
    per_prime: dict[int, list[tuple[int, int]]] = {}
    for f, order in enumerate(spec.cyclic_orders):
        for p, e in _factorize(order):
            per_prime.setdefault(p, []).append((e, f))
    primes = tuple(sorted(per_prime))
    exponents, moduli, sources = [], [], []
    for p in primes:
        # Non-increasing exponents; ties broken by user factor position so the
        # slot layout is reproducible.
        row = sorted(per_prime[p], key=lambda part: (-part[0], part[1]))
        exponents.append(tuple(e for e, _ in row))
        moduli.append(tuple(p**e for e, _ in row))
        sources.append(tuple(f for _, f in row))
    heights = tuple(row[0] for row in exponents)
    big_n = math.prod(p**h for p, h in zip(primes, heights))
    order = math.prod(p ** sum(row) for p, row in zip(primes, exponents))
    if order != spec.group_order:
        raise InternalInvariantError("decomposition does not multiply back to the group order")
    return PrimaryDecomposition(
        spec=spec,
        primes=primes,
        exponents=tuple(exponents),
        moduli=tuple(moduli),
        slot_sources=tuple(sources),
        exponent=big_n,
        heights=heights,
        group_order=order,
    )


@dataclass(frozen=True)
class GroupElement:
    """Element as a coordinate vector over the prime-power components."""

    dec: PrimaryDecomposition
    coords: tuple[tuple[int, ...], ...]


def identity(dec: PrimaryDecomposition) -> GroupElement:
    return GroupElement(dec, tuple(tuple(0 for _ in row) for row in dec.moduli))


def to_primary_coordinates(raw: Sequence[int], dec: PrimaryDecomposition) -> GroupElement:
    """Map a residue tuple over the user factors to component coordinates.

    Negative residues are allowed and reduced. Component (i, j) receives the
    residue of its source factor modulo primes[i] ** exponents[i][j].
    """
    if len(raw) != dec.spec.rank:
        raise InputError(
            f"element needs {dec.spec.rank} coordinates for this group, got {len(raw)}"
        )
    for x in raw:
        if not isinstance(x, int) or isinstance(x, bool):
            raise InputError(f"element coordinates must be integers, got {x!r}")
    # Single-component rows (every prime whose exponent row has length 1)
    # skip the inner comprehension: this runs once per input element.
    coords = tuple([
        (raw[src_row[0]] % mod_row[0],) if len(mod_row) == 1
        else tuple([raw[src] % mod for src, mod in zip(src_row, mod_row)])
        for src_row, mod_row in zip(dec.slot_sources, dec.moduli)
    ])
    return GroupElement(dec, coords)


def add_elements(a: GroupElement, b: GroupElement) -> GroupElement:
    if a.dec is not b.dec and a.dec != b.dec:
        raise InputError("elements come from different decompositions")
    coords = tuple([
        ((row_a[0] + row_b[0]) % row_m[0],) if len(row_m) == 1
        else tuple([(x + y) % m for x, y, m in zip(row_a, row_b, row_m)])
        for row_a, row_b, row_m in zip(a.coords, b.coords, a.dec.moduli)
    ])
    return GroupElement(a.dec, coords)


def element_order(g: GroupElement) -> int:
    """Least k >= 1 with k*g = 0.

    A coordinate x of a component of order m has order m / gcd(x, m) (1 for
    x = 0), and the element's order is the lcm of its coordinates' orders.
    """
    return math.lcm(*[
        m // math.gcd(x, m) for row, mods in zip(g.coords, g.dec.moduli) for x, m in zip(row, mods)
    ])


def order_cost(g: GroupElement) -> int:
    """Exact integer N / |g| for group exponent N; sums of these stay below N
    exactly when the corresponding order reciprocals sum to at most 1."""
    o = element_order(g)
    n = g.dec.exponent
    if n % o:
        raise InternalInvariantError(f"element order {o} does not divide the exponent {n}")
    return n // o


def element_index(g: GroupElement) -> int:
    """Mixed-radix encoding of the coordinates; a bijection onto 0..|G|-1."""
    idx = 0
    for row, mods in zip(g.coords, g.dec.moduli):
        for x, m in zip(row, mods):
            idx = idx * m + x
    return idx


def element_from_index(dec: PrimaryDecomposition, index: int) -> GroupElement:
    if not 0 <= index < dec.group_order:
        raise InputError(f"element index {index} outside 0..{dec.group_order - 1}")
    rows_rev = []
    for mod_row in reversed(dec.moduli):
        row = []
        for m in reversed(mod_row):
            index, x = divmod(index, m)
            row.append(x)
        rows_rev.append(tuple(reversed(row)))
    return GroupElement(dec, tuple(reversed(rows_rev)))
