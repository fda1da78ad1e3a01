"""Constructive zero-sum base cases over a prime p.

Two pigeonhole facts drive every merge: p residues always contain a zero-sum
block of consecutive terms, and p**m vectors over F_p always contain a zero-sum
selection of at most p of them, found on a single line through the origin.
Both selections are deterministic so certificates are reproducible.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import compress, islice, repeat
from operator import eq, getitem

from .errors import InternalInvariantError
from .groups import residues


class _Blocks(dict):
    """chunk of p residues (p its length) -> its zero-sum block, a slice of the
    chunk, found on the first lookup of each distinct chunk (runs of units
    repeat them)."""

    def __missing__(self, chunk: tuple[int, ...]) -> slice:
        if 0 in chunk:
            k = chunk.index(0)
            return self.setdefault(chunk, slice(k, k + 1))
        first_seen, t, p = {0: 0}, 0, len(chunk)  # prefix sum mod p -> where it first occurs
        for k, x in enumerate(chunk, start=1):
            t = (t + x) % p
            if t in first_seen:
                return self.setdefault(chunk, slice(first_seen[t], k))
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


def _vectors(p: int, cols: list[bytearray | list[int]]) -> list[bytes] | list[tuple[int, ...]]:
    """Vector k is (cols[0][k], cols[1][k], ...) mod p: one bytes for p <= 256, cut from one
    buffer that each column's `residues` fills by a strided byte copy; else a tuple of ints."""
    if p > 256:
        return list(zip(*[residues(col, p) for col in cols]))
    d = len(cols)
    buf = bytearray(d * len(cols[0]))
    for j, col in enumerate(cols):
        buf[j::d] = residues(col, p)
    return re.findall(b".{%d}" % d, buf, re.S)


def _elementary_block(p: int, vecs: list[bytes] | list[tuple[int, ...]]) -> list[int]:
    """Nonempty zero-sum selection of at most p indices from p**dim vectors
    already reduced mod a prime p, all bytes (p <= 256) or all tuples of ints.

    A zero vector wins as a singleton. Otherwise some line through the origin
    holds at least p of the vectors; on the most populated line (ties broken by
    smallest label) the first p members in input order reduce, via their scaling
    coefficients, to the cyclic case. Returns ascending 1-based indices.

    A nonzero vector's label is the vector scaled so its first nonzero entry
    (its lead) is 1, by one scale table per lead, so two share a label exactly
    when one is a multiple of the other; a lead-1 vector (every one over F_2)
    is its own label and is not scaled. Bytes labels compare as the tuples of
    their bytes do, so both row types break a tie alike.
    """
    zero = type(vecs[0])(bytes(len(vecs[0])))  # the zero vector, of the rows' type
    if zero in vecs:
        return [vecs.index(zero) + 1]

    labels = vecs
    if p > 2:
        scale = {lead: tuple(x * pow(lead, -1, p) % p for x in range(p)) for lead in range(2, p)}
        if type(zero) is bytes:
            scale = {lead: bytes(table).ljust(256, b"\0") for lead, table in scale.items()}
            labels = [v if a == 1 else v.translate(scale[a]) for v in vecs for a in [v.lstrip(b"\0")[0]]]
        else:
            labels = [v if a == 1 else tuple(map(getitem, repeat(scale[a]), v)) for v in vecs for a in [next(filter(None, v))]]
    counts = Counter(labels)
    top = max(counts.values())
    if top < p:
        raise InternalInvariantError("no line collected p of the p**dim nonzero vectors")
    best = min(compress(counts, map(eq, counts.values(), repeat(top))))
    chosen = list(islice(compress(range(1, len(vecs) + 1), map(eq, labels, repeat(best))), p))
    (block,) = _zero_sum_blocks(p, [next(filter(None, vecs[k - 1])) for k in chosen])
    return chosen[block]
