"""Constructive zero-sum base cases over a prime p.

Two pigeonhole facts drive every merge: p residues always contain a zero-sum
block of consecutive terms, and p**m vectors over F_p always contain a zero-sum
selection of at most p of them, found on a single line through the origin.
Both selections are deterministic so certificates are reproducible.
"""

from __future__ import annotations

from .errors import InternalInvariantError


def _zero_sum_block(p: int, items: list[int]) -> list[int]:
    """Nonempty 1-based index set summing to 0 mod p, from exactly p residues
    already reduced mod a prime p.

    A zero residue wins as a singleton; otherwise the p+1 prefix sums collide
    and the first collision found while scanning gives a consecutive block of
    at most p indices.
    """
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


def _elementary_block(p: int, vecs: list[tuple[int, ...]]) -> list[int]:
    """Nonempty zero-sum selection of at most p indices from p**dim vectors
    already reduced mod a prime p.

    A zero vector wins as a singleton. Otherwise some line through the origin
    holds at least p of the vectors; on the most populated line (ties broken by
    smallest label) the first p members in input order reduce, via their scaling
    coefficients, to the cyclic case. Returns ascending 1-based indices.

    A nonzero vector's label is the vector scaled so its first nonzero entry is
    1, read from one scale table per lead; two nonzero vectors share a label
    exactly when one is a scalar multiple of the other.
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
