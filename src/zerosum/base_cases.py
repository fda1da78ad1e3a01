"""Constructive zero-sum base cases over a prime p.

Two pigeonhole facts drive every merge: p residues always contain a zero-sum
block of consecutive terms, and p**m vectors over F_p always contain a zero-sum
selection of at most p of them, found on a single line through the origin.
Both selections are deterministic so certificates are reproducible.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InputError, InternalInvariantError


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1 if d == 2 else 2
    return True


def cyclic_prime_zero_sum(p: int, items: Sequence[int]) -> list[int]:
    """Nonempty 1-based index set summing to 0 mod p, from exactly p residues.

    A zero residue wins as a singleton; otherwise the p+1 prefix sums collide
    and the first collision found while scanning gives a consecutive block of
    at most p indices.
    """
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    items = [x % p for x in items]
    if len(items) != p:
        raise InputError(f"need exactly {p} residues, got {len(items)}")
    return _zero_sum_block(p, items)


def _zero_sum_block(p: int, items: list[int]) -> list[int]:
    """cyclic_prime_zero_sum for p residues already reduced mod a prime p."""
    if 0 in items:
        return [items.index(0) + 1]
    first_seen = {0: 0}
    s = 0
    for k, x in enumerate(items, start=1):
        s = (s + x) % p
        if s in first_seen:
            return list(range(first_seen[s] + 1, k + 1))
        first_seen[s] = k
    raise InternalInvariantError("prefix sums of p residues failed to collide")


def projective_line_of(vec: Sequence[int], p: int) -> tuple[tuple[int, ...], int]:
    """Canonical line label and scaling coefficient of a nonzero vector over F_p.

    The label is the vector scaled so its first nonzero entry is 1; two nonzero
    vectors share a label exactly when one is a scalar multiple of the other.
    Returns (label, c) with vec = c * label and 1 <= c < p.
    """
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    vec = tuple(x % p for x in vec)
    lead = next((x for x in vec if x != 0), 0)
    if lead == 0:
        raise InputError("zero vector lies on every line through the origin")
    inv = pow(lead, -1, p)
    return tuple((x * inv) % p for x in vec), lead


def elementary_zero_sum(p: int, dim: int, items: Sequence[Sequence[int]]) -> list[int]:
    """Nonempty zero-sum selection of at most p indices from p**dim vectors over F_p.

    A zero vector wins as a singleton. Otherwise some line through the origin
    holds at least p of the vectors; on the most populated line (ties broken by
    smallest label) the first p members in input order reduce, via their scaling
    coefficients, to the cyclic case. Returns ascending 1-based indices.
    """
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    if dim < 0:
        raise InputError(f"dimension must be nonnegative, got {dim}")
    vecs = []
    for v in items:
        v = tuple(x % p for x in v)
        if len(v) != dim:
            raise InputError(f"vector {v} does not have dimension {dim}")
        vecs.append(v)
    if len(vecs) != p**dim:
        raise InputError(f"need exactly {p**dim} vectors, got {len(vecs)}")
    return _elementary_block(p, vecs)


def _elementary_block(p: int, vecs: list[tuple[int, ...]]) -> list[int]:
    """elementary_zero_sum for p**dim vectors already reduced mod a prime p.

    A nonzero vector's label is the vector times the inverse of its leading
    entry, read from one scale table per lead.
    """
    zero = (0,) * len(vecs[0])
    if zero in vecs:
        return [vecs.index(zero) + 1]

    scale = [tuple(x * pow(lead, -1, p) % p for x in range(p)) for lead in range(1, p)]
    lines: dict[tuple[int, ...], list[int]] = {}
    for k, v in enumerate(vecs, start=1):
        lead = next(filter(None, v))
        label = tuple(map(scale[lead - 1].__getitem__, v))
        lines.setdefault(label, []).append(k)
    best_label = min(lines, key=lambda lab: (-len(lines[lab]), lab))
    members = lines[best_label]
    if len(members) < p:
        raise InternalInvariantError("no line collected p of the p**dim nonzero vectors")
    chosen = members[:p]
    block = _zero_sum_block(p, [next(filter(None, vecs[k - 1])) for k in chosen])
    return [chosen[pos - 1] for pos in block]
