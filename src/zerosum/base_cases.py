"""Constructive zero-sum base cases over a prime p.

Two pigeonhole facts drive every merge: p residues always contain a zero-sum
block of consecutive terms, and p**m vectors over F_p always contain a zero-sum
selection of at most p of them, found on a single line through the origin.
Both selections are deterministic so certificates are reproducible.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress, islice, repeat

from .errors import InternalInvariantError


class _Blocks(dict):
    """chunk of p residues (p its length) -> its zero-sum block, a slice of the
    chunk, found on the first lookup of each distinct chunk (runs of units
    repeat them)."""

    def __missing__(self, chunk: tuple[int, ...]) -> slice:
        if 0 in chunk:
            k = chunk.index(0)
            block = self[chunk] = slice(k, k + 1)
            return block
        first_seen, t, p = {0: 0}, 0, len(chunk)  # prefix sum mod p -> where it first occurs
        for k, x in enumerate(chunk, start=1):
            t = (t + x) % p
            if t in first_seen:
                block = self[chunk] = slice(first_seen[t], k)
                return block
            first_seen[t] = k
        raise InternalInvariantError("prefix sums of p residues failed to collide")


def _zero_sum_blocks(p: int, residues: list[int]) -> list[slice]:
    """One zero-sum block per chunk of p residues already reduced mod a prime
    p, as a slice of the chunk, one slice object for chunks alike. The first
    zero residue of a chunk wins as a singleton; otherwise its p+1 prefix sums
    collide, and the first repeat found while scanning gives a block of at
    most p consecutive residues. Each distinct chunk is scanned once per call.
    """
    return list(map(_Blocks().__getitem__, zip(*[iter(residues)] * p)))


def _elementary_block(p: int, vecs: list[tuple[int, ...]]) -> list[int]:
    """Nonempty zero-sum selection of at most p indices from p**dim vectors
    already reduced mod a prime p.

    A zero vector wins as a singleton. Otherwise some line through the origin
    holds at least p of the vectors; on the most populated line (ties broken by
    smallest label) the first p members in input order reduce, via their scaling
    coefficients, to the cyclic case. Returns ascending 1-based indices.

    A nonzero vector's label is the vector scaled so its first nonzero entry
    (its lead) is 1, by one scale table per lead, so two share a label exactly
    when one is a multiple of the other; a lead-1 vector (every one over F_2)
    is its own label and is not scaled.
    """
    zero = (0,) * len(vecs[0])
    if zero in vecs:
        return [vecs.index(zero) + 1]

    labels = vecs
    if p > 2:
        scale = {lead: tuple(x * pow(lead, -1, p) % p for x in range(p)) for lead in range(2, p)}
        leads = map(next, map(filter, repeat(None), vecs))
        labels = [v if a == 1 else tuple(map(scale[a].__getitem__, v)) for v, a in zip(vecs, leads)]
    counts = Counter(labels)
    top = max(counts.values())
    if top < p:
        raise InternalInvariantError("no line collected p of the p**dim nonzero vectors")
    best = min(compress(counts, map(top.__eq__, counts.values())))
    chosen = list(islice(compress(range(1, len(vecs) + 1), map(best.__eq__, labels)), p))
    (block,) = _zero_sum_blocks(p, [next(filter(None, vecs[k - 1])) for k in chosen])
    return chosen[block]
