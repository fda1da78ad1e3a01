"""Finite abelian groups: parsing, prime-power decomposition, exact element arithmetic.

A group is given as a direct sum of cyclic factors Z_n1 + ... + Z_nr, in any
order. Each factor is split into cyclic components of prime-power order, and
the components are regrouped into invariant factors n_1, ..., n_r (n_j the
product of every prime's j-th largest component, so n_1 is the exponent). An
element is a plain tuple of one integer per invariant factor, and a sequence
one column per invariant factor (bytes if n_j <= 256, else a list of ints),
converted once, at parse time; addition is componentwise mod n_j.
The group travels beside its elements: every function on them takes `dec`.
Everything is exact integer work; there is no float anywhere in the package.
"""

from __future__ import annotations

import math
from functools import cache
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
    return group_spec(parse_ints(tokens, "bad cyclic order {!r} in group spec"))


def parse_ints(tokens: Iterable[str], message: str) -> list[int]:
    """int() of every token, stripped; the first it refuses raises InputError(message.format(token))."""
    out = []
    for tok in tokens:
        try:
            out.append(int(tok.strip()))
        except ValueError:
            raise InputError(message.format(tok)) from None
    return out


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
    `exponents` is sorted non-increasing. `exponent` is the group exponent, the
    product over primes of the largest component order.

    Invariant factor n_j is the product of moduli[i][j] over the rows that
    have a j-th component (the trivial group has n_1 = 1); component (i, j)
    of element x is x[j] mod moduli[i][j]. `crt` lists every component, in
    `moduli` order, as (j, f, moduli[i][j], c) with f the user factor the
    component came from and c 1 mod moduli[i][j] and 0 mod n_j / moduli[i][j],
    so x[j] is the sum, mod n_j, of c times component (i, j).
    """

    spec: GroupSpec
    primes: tuple[int, ...]
    exponents: tuple[tuple[int, ...], ...]
    moduli: tuple[tuple[int, ...], ...]
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
        exponent=factors[0],  # n_1, the product of every prime's largest component
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
    if len(raw) != dec.spec.rank:
        raise InputError(f"element needs {dec.spec.rank} coordinates for this group, got {len(raw)}")
    return tuple([col[0] for col in encode_sequence([[x] for x in raw], dec)])


def encode_sequence(columns: Sequence[Sequence[int]], dec: PrimaryDecomposition) -> list[bytes | list[int]]:
    """A sequence given by one column per user factor, as one column per
    invariant factor (`residues`: bytes if n <= 256): entry k of the result's
    columns is the `to_primary_coordinates` of entry k of `columns`.

    Columns of another count or of unequal lengths raise InputError, and so
    does the first entry, column by column, that is not an int (subclasses
    other than bool pass; a `bytes` column, ints by construction, is not
    scanned). Each `crt` entry is one pass over its source factor's column
    (none for c = 1), and each invariant factor one `residues` pass.
    """
    lengths = list(map(len, columns))
    if len(lengths) != dec.spec.rank or len(set(lengths)) > 1:
        raise InputError(f"sequence has columns of lengths {lengths}, not one equal-length column per group factor")
    scanned = [col for col in columns if type(col) is not bytes]
    if set(map(type, chain.from_iterable(scanned))) - {int}:
        for x in chain.from_iterable(scanned):
            if not isinstance(x, int) or isinstance(x, bool):
                raise InputError(f"element coordinates must be integers, got {x!r}")
    factors = dec.invariant_factors
    acc: list[Iterable[int] | None] = [None] * len(factors)
    for j, f, _, c in dec.crt:
        term = columns[f] if c == 1 else map(mul, columns[f], repeat(c))
        acc[j] = term if acc[j] is None else map(add, acc[j], term)
    return [residues(col, n) if col is not None else bytes(lengths[0]) for col, n in zip(acc, factors)]


@cache
def byte_table(m: int) -> bytes:
    """The residues mod m (0 < m <= 256) of 0..255, a `translate` table for bytes, built on first use."""
    return bytes([x % m for x in range(256)])


def residues(col: Iterable[int], m: int, kind: type = bytes) -> bytes | list[int]:
    """x % m for every x of `col`: one bytes if m <= 256 (new, unless a bytes
    `col` is unchanged; a new list of its items if `kind` is list), else a new
    list of exact ints. With m <= 256 a bytes, bytearray, or list or tuple of
    ints in 0..255 is reduced by one `translate`; `bytes()` refuses any other
    item, and that, like any other iterable or m > 256, is one `mod` map."""
    if 0 < m <= 256 and isinstance(col, (list, tuple, bytes, bytearray)):
        try:
            return kind(bytes(col).translate(byte_table(m)))
        except (TypeError, ValueError):
            pass
    return kind(map(mod, col, repeat(m))) if 0 < m <= 256 else list(map(mod, col, repeat(m)))


def add_elements(
    dec: PrimaryDecomposition, a: tuple[int, ...], b: tuple[int, ...]
) -> tuple[int, ...]:
    return tuple([(x + y) % n for x, y, n in zip(a, b, dec.invariant_factors)])


def element_order(dec: PrimaryDecomposition, g: tuple[int, ...]) -> int:
    """Least k >= 1 with k*g = 0: N // `element_costs` of g alone, without the
    column pass."""
    factors = dec.invariant_factors
    if len(g) != len(factors):
        raise InputError(f"element has {len(g)} coordinates, not one per invariant factor")
    big_n = factors[0]
    return big_n // math.gcd(big_n, *map(mul, map(big_n.__floordiv__, factors), g))


def element_columns(dec: PrimaryDecomposition, cols: Sequence[Sequence[int]]) -> Sequence[Sequence[int]]:
    """`cols`, a sequence as one column per invariant factor, once checked:
    this is the one check that a sequence belongs to `dec`, made here
    because every caller reads it by column. Columns of another count or of
    unequal lengths raise InputError (so a sequence of Z_2 + Z_2 is refused
    in Z_4). Rows passed as columns are misread wherever their shape fits."""
    lengths = list(map(len, cols))
    if len(lengths) != len(dec.invariant_factors) or len(set(lengths)) > 1:
        raise InputError(f"sequence has columns of lengths {lengths}, not one equal-length column per invariant factor")
    return cols


def element_costs(dec: PrimaryDecomposition, cols: Sequence[Sequence[int]]) -> list[int]:
    """N // order of every element, from its columns (`element_columns`), one
    gcd per element: with N = n_1 the exponent, x in Z_n has order
    n // gcd(n, x) = N // gcd(N, (N/n)*x), and an lcm of the divisors N // d_j
    of N is N // gcd(d_j), so N // ord(g) = gcd(N, (N/n_1)*g_1, ..., (N/n_r)*g_r);
    only columns with n < N are scaled."""
    big_n = dec.exponent
    scaled = [col if n == big_n else map(mul, col, repeat(big_n // n)) for col, n in zip(cols, dec.invariant_factors)]
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
