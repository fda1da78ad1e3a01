"""Partition conjugates and the residual exponent matrices used on lattice descents."""

from __future__ import annotations

from typing import Sequence

from .errors import InputError, InternalInvariantError


def _check_partition(parts: Sequence[int]) -> tuple[int, ...]:
    parts = tuple(parts)
    for x in parts:
        if not isinstance(x, int) or isinstance(x, bool) or x < 1:
            raise InputError(f"partition parts must be positive integers, got {parts}")
    for a, b in zip(parts, parts[1:]):
        if a < b:
            raise InputError(f"partition must be non-increasing, got {parts}")
    return parts


def dual_partition(parts: Sequence[int]) -> tuple[int, ...]:
    """Conjugate partition: entry k counts the parts that are >= k.

    Reading the dot diagram of `parts` by columns instead of rows; the empty
    partition is its own conjugate.
    """
    parts = _check_partition(parts)
    if not parts:
        return ()
    return tuple(sum(1 for e in parts if e >= k) for k in range(1, parts[0] + 1))


def residual_exponents(
    exponents: Sequence[Sequence[int]], u: Sequence[int]
) -> tuple[tuple[int, ...], ...]:
    """Residual matrix after descending u[i] levels in coordinate i.

    Entry (i, j) is max(exponents[i][j] - u[i], 0). At u = 0 this is the
    original matrix; at u = heights it is identically zero.
    """
    rows = tuple(_check_partition(r) for r in exponents)
    u = tuple(u)
    if len(u) != len(rows):
        raise InputError(f"descent vector has {len(u)} entries for {len(rows)} rows")
    for k, (ui, row) in enumerate(zip(u, rows)):
        top = row[0] if row else 0
        if not isinstance(ui, int) or isinstance(ui, bool) or not 0 <= ui <= top:
            raise InputError(f"descent coordinate {k} must lie in 0..{top}, got {ui}")
    return tuple(tuple(max(e - ui, 0) for e in row) for ui, row in zip(u, rows))


def residual_exponents_by_recursion(
    exponents: Sequence[Sequence[int]],
    u: Sequence[int],
    descent: Sequence[int] | None = None,
) -> tuple[tuple[int, ...], ...]:
    """The same matrix built one unit descent at a time.

    A step that raises coordinate i from v-1 to v subtracts 1 from the first
    d_i[v] entries of row i, where d_i is the conjugate of the original row i.
    `descent` lists the coordinate taken at each step (coordinate i must appear
    exactly u[i] times); any order yields the same matrix, and tests exercise
    that path independence against the closed form.
    """
    rows = tuple(_check_partition(r) for r in exponents)
    u = tuple(u)
    if len(u) != len(rows):
        raise InputError(f"descent vector has {len(u)} entries for {len(rows)} rows")
    if descent is None:
        descent = [i for i, ui in enumerate(u) for _ in range(ui)]
    descent = list(descent)
    counts = [0] * len(rows)
    for i in descent:
        if not 0 <= i < len(rows):
            raise InputError(f"descent step names row {i}, valid rows are 0..{len(rows) - 1}")
        counts[i] += 1
    if tuple(counts) != u:
        raise InputError(f"descent step multiset {tuple(counts)} does not match u={u}")

    duals = [dual_partition(r) for r in rows]
    work = [list(r) for r in rows]
    level = [0] * len(rows)
    for i in descent:
        level[i] += 1
        for j in range(duals[i][level[i] - 1]):
            work[i][j] -= 1
            if work[i][j] < 0:
                raise InternalInvariantError("descent mask drove an exponent negative")
    return tuple(tuple(row) for row in work)
