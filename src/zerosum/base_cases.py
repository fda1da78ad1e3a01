"""Constructive zero-sum base cases over a prime p.

Two pigeonhole facts drive every merge: p residues always contain a zero-sum
block of consecutive terms, and p**m vectors over F_p always contain a zero-sum
selection of at most p of them, found on a single line through the origin.
Both selections are deterministic so certificates are reproducible.
"""

from __future__ import annotations

from .errors import InternalInvariantError


def _zero_sum_blocks(p: int, residues: list[int]) -> list[slice]:
    """One zero-sum block per chunk of p residues already reduced mod a prime
    p, as a slice of `residues`. The first zero residue of a chunk wins as a
    singleton; otherwise its p+1 prefix sums collide, and the first repeat
    found while scanning gives a block of at most p consecutive residues.
    Each distinct chunk is scanned once per call (runs of units repeat them).
    """
    rule: dict[tuple[int, ...], tuple[int, int]] = {}  # chunk -> its block, from the chunk's start
    blocks = []
    for s, chunk in zip(range(0, len(residues), p), zip(*[iter(residues)] * p)):
        if chunk not in rule:
            if 0 in chunk:
                k = chunk.index(0)
                rule[chunk] = (k, k + 1)
            else:
                first_seen, t = {0: 0}, 0  # prefix sum mod p -> where it first occurs
                for k, x in enumerate(chunk, start=1):
                    t = (t + x) % p
                    if t in first_seen:
                        rule[chunk] = (first_seen[t], k)
                        break
                    first_seen[t] = k
                else:
                    raise InternalInvariantError("prefix sums of p residues failed to collide")
        a, b = rule[chunk]
        blocks.append(slice(s + a, s + b))
    return blocks


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
    (block,) = _zero_sum_blocks(p, [next(filter(None, vecs[k - 1])) for k in chosen])
    return chosen[block]
