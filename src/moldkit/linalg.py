"""Small exact linear algebra over FieldElement vectors.

Vectors are tuples of FieldElement, matrices are lists of such rows.
Everything is Gauss-Jordan over an exact field, so results are exact and
deterministic.
"""

from __future__ import annotations

from typing import Sequence

from .fields import FieldElement, FieldSpec

Vector = tuple[FieldElement, ...]


def rref(rows: Sequence[Vector]) -> tuple[list[Vector], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    work = [list(r) for r in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        scale = work[r][c].inv()
        work[r] = [x * scale for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return [tuple(row) for row in work[:r]], pivots


def rank(rows: Sequence[Vector]) -> int:
    return len(rref(rows)[0])


def in_span(basis_rref: Sequence[Vector], pivots: Sequence[int], v: Vector) -> bool:
    """Membership test against an already-reduced basis."""
    residue = list(v)
    for row, c in zip(basis_rref, pivots):
        if residue[c]:
            f = residue[c]
            residue = [x - f * y for x, y in zip(residue, row)]
    return not any(residue)


def nullspace(rows: Sequence[Vector], ncols: int, spec: FieldSpec) -> list[Vector]:
    """Basis of {x : rows @ x = 0}, in deterministic free-column order."""
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis: list[Vector] = []
    for fc in free:
        v = [spec.zero()] * ncols
        v[fc] = spec.one()
        for row, c in zip(red, pivots):
            v[c] = -row[fc]
        basis.append(tuple(v))
    return basis
