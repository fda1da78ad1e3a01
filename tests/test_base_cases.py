"""Pigeonhole selections over Z_p and over F_p^m projective lines, through the
two base cases the engine calls on residues it has already reduced mod p."""

from __future__ import annotations

import itertools
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerosum.base_cases import _elementary_block, _zero_sum_blocks

primes = st.sampled_from([2, 3, 5, 7, 11])


def _zero_sum_block(p: int, items: list[int]) -> list[int]:
    """The 1-based indices of the block `_zero_sum_blocks` finds in one chunk."""
    (block,) = _zero_sum_blocks(p, items)
    return list(range(block.start + 1, block.stop + 1))


def _line_of(vec, p: int) -> tuple[tuple[int, ...], int]:
    """Line label and scaling coefficient of a nonzero vector over F_p: the
    label is the vector scaled so its first nonzero entry is 1, and
    vec = c * label with 1 <= c < p."""
    vec = tuple(x % p for x in vec)
    lead = next(x for x in vec if x)
    inv = pow(lead, -1, p)
    return tuple(x * inv % p for x in vec), lead


def test_cyclic_all_ones():
    assert _zero_sum_block(5, [1, 1, 1, 1, 1]) == [1, 2, 3, 4, 5]


def test_cyclic_zero_singleton_wins():
    # A zero entry short-circuits before any prefix collision.
    assert _zero_sum_block(5, [2, 0, 3, 1, 4]) == [2]
    assert _zero_sum_block(3, [0, 0, 0]) == [1]


def test_cyclic_first_collision_block():
    # Prefix sums of [1,4,2,3,1] mod 5: 1,0,2,0,1 -> prefix 2 hits zero.
    assert _zero_sum_block(5, [1, 4, 2, 3, 1]) == [1, 2]
    # Prefix sums of [1,2,2,2,3] mod 5: 1,3,0,2,0 -> zero at prefix 3.
    assert _zero_sum_block(5, [1, 2, 2, 2, 3]) == [1, 2, 3]


@given(primes, st.data())
@settings(max_examples=200)
def test_cyclic_output_is_zero_sum_block(p, data):
    items = data.draw(st.lists(st.integers(0, p - 1), min_size=p, max_size=p))
    picked = _zero_sum_block(p, items)
    assert picked
    assert picked == sorted(picked)
    assert all(1 <= k <= p for k in picked)
    assert sum(items[k - 1] for k in picked) % p == 0
    # Either a zero singleton or a contiguous run of positions.
    assert len(picked) == 1 or picked == list(range(picked[0], picked[-1] + 1))


@given(primes, st.data())
@settings(max_examples=200)
def test_cyclic_run_blocks_are_the_chunk_blocks(p, data):
    # A run's blocks are its chunks' blocks, each a slice of its chunk;
    # chunks drawn from a few distinct ones repeat, as they do in a run, and
    # chunks alike share one slice object.
    distinct = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=p, max_size=p), min_size=1, max_size=3))
    chunks = data.draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=8))
    blocks = _zero_sum_blocks(p, [x for chunk in chunks for x in chunk])
    assert len(blocks) == len(chunks)
    for chunk, block in zip(chunks, blocks):
        picked = _zero_sum_block(p, chunk)
        assert (block.start, block.stop) == (picked[0] - 1, picked[-1])
        assert block is blocks[chunks.index(chunk)]


def test_cyclic_scan_is_linear_in_p():
    # p ones over the prime 100003: the prefix sums first repeat at the last
    # one, and one pass over them takes milliseconds where rescanning the
    # sums seen so far at every step would take minutes.
    t = time.perf_counter()
    assert _zero_sum_blocks(100003, [1] * 100003) == [slice(0, 100003)]
    assert time.perf_counter() - t < 2.0


def test_projective_label_normalizes_leading_entry():
    label, lead = _line_of((2, 4), 5)
    # 2^(-1) = 3 mod 5 scales the vector to (1, 2).
    assert label == (1, 2)
    assert lead == 2
    label, lead = _line_of((0, 3), 5)
    assert label == (0, 1)
    assert lead == 3


@given(primes, st.data())
@settings(max_examples=200)
def test_projective_label_constant_on_scalar_multiples(p, data):
    dim = data.draw(st.integers(1, 3))
    vec = tuple(
        data.draw(st.lists(st.integers(0, p - 1), min_size=dim, max_size=dim))
    )
    if all(x == 0 for x in vec):
        vec = vec[:-1] + (1,)
    label, lead = _line_of(vec, p)
    assert label[next(i for i, x in enumerate(label) if x)] == 1
    for c in range(1, p):
        scaled = tuple((c * x) % p for x in vec)
        got, lead2 = _line_of(scaled, p)
        assert got == label
        assert tuple((lead2 * x) % p for x in label) == scaled


def test_elementary_z2_square():
    # Four vectors in F_2^2 always contain a small zero-sum selection.
    picked = _elementary_block(2, [(1, 0), (0, 1), (1, 1), (1, 0)])
    assert picked == [1, 4]


def test_elementary_zero_vector_priority():
    picked = _elementary_block(2, [(1, 1), (0, 0), (1, 0), (0, 1)])
    assert picked == [2]


def test_elementary_dim_zero():
    # F_p^0 holds exactly one vector, the empty one, and it is already zero.
    assert _elementary_block(3, [()]) == [1]


@given(st.sampled_from([2, 3]), st.data())
@settings(max_examples=150)
def test_elementary_output_sums_to_zero(p, data):
    dim = data.draw(st.integers(1, 2 if p == 3 else 3))
    count = p**dim
    items = [
        tuple(data.draw(st.integers(0, p - 1)) for _ in range(dim))
        for _ in range(count)
    ]
    picked = _elementary_block(p, items)
    assert picked
    assert len(picked) <= p
    assert picked == sorted(picked)
    assert len(set(picked)) == len(picked)
    for j in range(dim):
        assert sum(items[k - 1][j] for k in picked) % p == 0


@given(st.data())
@settings(max_examples=60)
def test_elementary_matches_exhaustive_existence(data):
    # The selection rule must find something whenever anything exists; with
    # p^dim vectors something always exists, so cross-check the choice against
    # untargeted enumeration for soundness only.
    p, dim = data.draw(st.sampled_from([(2, 1), (2, 2), (3, 1)]))
    count = p**dim
    items = [
        tuple(data.draw(st.integers(0, p - 1)) for _ in range(dim))
        for _ in range(count)
    ]
    picked = _elementary_block(p, items)
    found = False
    for size in range(1, p + 1):
        for combo in itertools.combinations(range(count), size):
            if all(sum(items[i][j] for i in combo) % p == 0 for j in range(dim)):
                found = True
                break
        if found:
            break
    assert found
    assert len(picked) <= p


def _seeded_vectors(p: int, dim: int, seed: int) -> list[tuple[int, ...]]:
    """p**dim unreduced vectors (entries in -2p..3p-1) of one of three kinds.

    seed % 3 == 0: uniform, so zero vectors turn up on small inputs;
    seed % 3 == 1: no zero vector; seed % 3 == 2 (dim >= 2): two lines tie
    with p members each and every other line holds fewer, so the selection
    rests on the smallest-label tie rule.
    """
    rng = random.Random(seed)
    count = p**dim
    if seed % 3 == 0:
        vecs = [tuple(rng.randrange(p) for _ in range(dim)) for _ in range(count)]
    else:
        labels = sorted({_line_of(v, p)[0] for v in itertools.product(range(p), repeat=dim) if any(v)})
        if seed % 3 == 1 or dim < 2:
            on_line = [rng.choice(labels) for _ in range(count)]
        else:
            rng.shuffle(labels)
            on_line = [labels[0]] * p + [labels[1]] * p
            rest = itertools.cycle(labels[2:])
            on_line += [next(rest) for _ in range(count - 2 * p)]
        vecs = []
        for label in on_line:
            c = rng.randrange(1, p)
            vecs.append(tuple(c * x % p for x in label))
        rng.shuffle(vecs)
    return [tuple(x + p * rng.randrange(-2, 3) for x in v) for v in vecs]


def _line_rule(p: int, items) -> list[int]:
    """The selection rule spelled out with _line_of: a zero vector first, else
    the first p members of the fullest line (smallest label on a tie), reduced
    to the cyclic case through their scaling coefficients."""
    vecs = [tuple(x % p for x in v) for v in items]
    for k, v in enumerate(vecs, start=1):
        if not any(v):
            return [k]
    lines: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for k, v in enumerate(vecs, start=1):
        label, c = _line_of(v, p)
        lines.setdefault(label, []).append((k, c))
    best = min(lines, key=lambda lab: (-len(lines[lab]), lab))
    chosen = lines[best][:p]
    return [chosen[pos - 1][0] for pos in _zero_sum_block(p, [c for _, c in chosen])]


PRIME_DIMS = [(2, d) for d in range(1, 6)] + [(3, d) for d in range(1, 4)] + [(5, 1), (5, 2), (7, 1), (7, 2)]
# The elementary benchmark's groups, Z_2^14 and Z_3^9, at full size: seed 1
# is zero-free and seed 2 ties two full lines (16,383 and 9,841 lines).
WORKLOAD_SEEDS = {(2, 14): (1, 2), (3, 9): (1, 2)}


@pytest.mark.parametrize("p,dim", PRIME_DIMS + list(WORKLOAD_SEEDS))
def test_elementary_block_follows_the_line_rule(p, dim):
    for seed in WORKLOAD_SEEDS.get((p, dim), range(12)):
        items = _seeded_vectors(p, dim, seed)
        reduced = [tuple(x % p for x in v) for v in items]
        picked = _elementary_block(p, reduced)
        assert picked == _line_rule(p, items)
        assert _elementary_block(p, list(map(bytes, reduced))) == picked  # the rows merge_step makes for p <= 256
        if seed % 3 == 2 and dim >= 2:
            counts = Counter(_line_of(v, p)[0] for v in reduced)
            full = [label for label, n in counts.items() if n == p]
            assert len(full) == 2 and max(counts.values()) == p
            assert _line_of(reduced[picked[0] - 1], p)[0] == min(full)


# (p, dim, seed): the selection recorded from the line-bucketing code that
# reduced and validated every vector itself, before the reduced-input split;
# (2, 3, 9) holds zero vectors, the p >= 3 cases a tie.
FROZEN_SELECTIONS = {
    (2, 3, 9): [2],
    (2, 4, 1): [1, 3],
    (3, 3, 2): [7, 25],
    (5, 2, 5): [3, 6, 21, 23],
    (7, 2, 8): [3, 14, 27, 33],
}


@pytest.mark.parametrize("key", sorted(FROZEN_SELECTIONS))
def test_elementary_selection_is_frozen(key):
    p, dim, seed = key
    items = _seeded_vectors(p, dim, seed)
    assert _elementary_block(p, [tuple(x % p for x in v) for v in items]) == FROZEN_SELECTIONS[key]
    assert _elementary_block(p, [bytes(x % p for x in v) for v in items]) == FROZEN_SELECTIONS[key]
