"""Partition conjugates and the residual exponent matrices used on lattice descents."""

from __future__ import annotations

from typing import Sequence

from .errors import InputError


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
    return tuple(sum(1 for e in parts if e >= k) for k in range(1, max(parts, default=0) + 1))


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

