"""Finite abelian groups: parsing, prime-power decomposition, exact element arithmetic.

A group is given as a direct sum of cyclic factors Z_n1 + ... + Z_nr, in any
order. Each factor is split into cyclic components of prime-power order, and
the components are regrouped into invariant factors n_1, ..., n_r (n_j the
product of every prime's j-th largest component, so n_1 is the exponent). An
element is a plain tuple of one integer per invariant factor, converted from
the user's coordinates once, at parse time; addition is componentwise mod n_j.
The group travels beside its elements: every function on them takes `dec`.
Everything is exact integer work; there is no float anywhere in the package.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
from operator import add, mod, mul
from typing import Iterable, NamedTuple, Sequence

from .errors import InputError, InternalInvariantError

# Reject group orders beyond this rather than silently degrade; all supported
# workloads are desk scale.
MAX_GROUP_ORDER = 2**31


class GroupSpec(NamedTuple):
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


class PrimaryDecomposition(NamedTuple):
    """The group rewritten as a direct sum of cyclic components of prime-power order.

    Component (i, j) is cyclic of order primes[i] ** exponents[i][j]; each row of
    `exponents` is sorted non-increasing. `slot_sources[i][j]` names the user
    factor that component came from. `exponent` is the group exponent, the
    product over primes of the largest component order.

    Invariant factor n_j is the product of moduli[i][j] over the rows that
    have a j-th component (the trivial group has n_1 = 1); component (i, j)
    of element x is x[j] mod moduli[i][j]. `crt` lists every component, in
    `moduli` order, as (j, slot_sources[i][j], moduli[i][j], c) with c 1 mod
    moduli[i][j] and 0 mod n_j / moduli[i][j], so x[j] is the sum, mod n_j,
    of c times component (i, j).
    """

    spec: GroupSpec
    primes: tuple[int, ...]
    exponents: tuple[tuple[int, ...], ...]
    moduli: tuple[tuple[int, ...], ...]
    slot_sources: tuple[tuple[int, ...], ...]
    exponent: int
    heights: tuple[int, ...]
    group_order: int
    invariant_factors: tuple[int, ...]
    crt: tuple[tuple[int, int, int, int], ...]


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
    factors = [1] * max([1] + [len(row) for row in moduli])
    for row in moduli:
        for j, q in enumerate(row):
            factors[j] *= q
    crt = tuple(
        (j, f, q, factors[j] // q * pow(factors[j] // q, -1, q))
        for row, src_row in zip(moduli, sources)
        for j, (q, f) in enumerate(zip(row, src_row))
    )
    return PrimaryDecomposition(
        spec=spec,
        primes=primes,
        exponents=tuple(exponents),
        moduli=tuple(moduli),
        slot_sources=tuple(sources),
        exponent=big_n,
        heights=heights,
        group_order=order,
        invariant_factors=tuple(factors),
        crt=crt,
    )


def identity(dec: PrimaryDecomposition) -> tuple[int, ...]:
    return (0,) * len(dec.invariant_factors)


def to_primary_coordinates(raw: Sequence[int], dec: PrimaryDecomposition) -> tuple[int, ...]:
    """Map a residue tuple over the user factors to the group's element.

    Negative residues are allowed and reduced. Component (i, j) of the result
    is the residue of its source factor modulo primes[i] ** exponents[i][j].
    """
    return encode_sequence([raw], dec)[0]


def encode_sequence(
    raws: Sequence[Sequence[int]], dec: PrimaryDecomposition
) -> list[tuple[int, ...]]:
    """`to_primary_coordinates` of every residue tuple in `raws`, a column at a time.

    The first malformed tuple, in input order, raises the error
    `to_primary_coordinates` gives for it. Each `crt` entry is one pass over
    its source factor's column (none for c = 1), and each invariant factor
    one `%` pass; the passes are lazy and all run in the final `zip`.
    """
    rank = dec.spec.rank
    if set(map(len, raws)) - {rank} or set(map(type, chain.from_iterable(raws))) - {int}:
        # Slow path: int subclasses other than bool pass, the rest raise.
        for raw in raws:
            if len(raw) != rank:
                raise InputError(
                    f"element needs {rank} coordinates for this group, got {len(raw)}"
                )
            for x in raw:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise InputError(f"element coordinates must be integers, got {x!r}")
    if not raws:
        return []
    columns = list(zip(*raws))
    acc: list[Iterable[int] | None] = [None] * len(dec.invariant_factors)
    for j, f, _, c in dec.crt:
        term = columns[f] if c == 1 else map(c.__mul__, columns[f])
        acc[j] = term if acc[j] is None else map(add, acc[j], term)
    coords = [
        map(mod, col, repeat(n)) if col is not None else repeat(0, len(raws))
        for col, n in zip(acc, dec.invariant_factors)
    ]
    return list(zip(*coords))


def add_elements(
    dec: PrimaryDecomposition, a: tuple[int, ...], b: tuple[int, ...]
) -> tuple[int, ...]:
    return tuple([(x + y) % n for x, y, n in zip(a, b, dec.invariant_factors)])


def element_order(dec: PrimaryDecomposition, g: tuple[int, ...]) -> int:
    """Least k >= 1 with k*g = 0: N // `element_costs` of g alone, without the
    column pass (an element of the wrong rank goes to `element_columns` for
    its error)."""
    factors = dec.invariant_factors
    if len(g) != len(factors):
        element_columns(dec, [g])
    big_n = factors[0]
    return big_n // math.gcd(big_n, *map(mul, map(big_n.__floordiv__, factors), g))


def element_columns(dec: PrimaryDecomposition, elements: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The elements as one tuple per invariant factor. This is the one check
    that they belong to `dec`, made here because every caller reads them by
    column: an element without exactly one coordinate per invariant factor
    raises InputError (so an element of Z_2 + Z_2 is refused in Z_4)."""
    factors = dec.invariant_factors
    wrong = set(map(len, elements)) - {len(factors)}
    if wrong:
        raise InputError(f"element has {min(wrong)} coordinates, not one per invariant factor")
    return list(zip(*elements)) or [()] * len(factors)


def element_costs(dec: PrimaryDecomposition, cols: Sequence[Sequence[int]]) -> list[int]:
    """N // order of every element, from its columns (`element_columns`), one
    gcd per element: with N = n_1 the exponent, x in Z_n has order
    n // gcd(n, x) = N // gcd(N, (N/n)*x), and an lcm of the divisors N // d_j
    of N is N // gcd(d_j), so N // ord(g) = gcd(N, (N/n_1)*g_1, ..., (N/n_r)*g_r);
    only columns with n < N are scaled."""
    big_n = dec.exponent
    scaled = [col if n == big_n else map((big_n // n).__mul__, col) for col, n in zip(cols, dec.invariant_factors)]
    return list(map(math.gcd, repeat(big_n), *scaled))


def element_index(dec: PrimaryDecomposition, g: tuple[int, ...]) -> int:
    """Mixed-radix encoding of the primary components, in `moduli` order; a
    bijection onto 0..|G|-1."""
    idx = 0
    for mods in dec.moduli:
        for x, q in zip(g, mods):
            idx = idx * q + x % q
    return idx


def element_from_index(dec: PrimaryDecomposition, index: int) -> tuple[int, ...]:
    if not 0 <= index < dec.group_order:
        raise InputError(f"element index {index} outside 0..{dec.group_order - 1}")
    acc = [0] * len(dec.invariant_factors)
    for j, _, q, c in reversed(dec.crt):
        index, x = divmod(index, q)
        acc[j] += c * x
    return tuple([x % n for x, n in zip(acc, dec.invariant_factors)])
