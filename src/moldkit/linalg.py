"""Small exact linear algebra over raw canonical field values.

Vectors are tuples of the raw values that Mat2.values() holds: residues in
[0, p) over F_p, reduced Fractions over Q, with the field named by p (None
for Q) as in the mold and moduli kernels.  Matrices are lists of such
rows.  Everything is Gauss-Jordan over an exact field, so results are
exact, canonical and deterministic.

One fraction-free elimination serves both fields: each pivot row clears
its column from the others as row_i = v row_i - f row_r, and the new row
is reduced mod p over F_p, or divided by the gcd of its entries over Q,
where rows are first scaled to integers by the lcm of their denominators
(_int_scaled), so no Fraction arithmetic runs; a row of ints is kept as
it is.  Output rows are normalised once, by pow(pivot, -1, p) or as
Fractions x / pivot.  The reduced row echelon form of a row space
is unique, so the rows and pivots are those of normalise-first
Gauss-Jordan.  Q results are Fractions, for int entries and literal 0s too.

_int_scaled also scales a Q RepTuple's generators, once each when the
tuple is built (words); over F_p the stored view is each generator's
residues with scale 1, and _int_scaled is never called.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Vector = tuple


def _int_scaled(values) -> tuple[tuple[int, ...], int]:
    """(tuple of s * v for v in values, s): rationals (Fractions or ints)
    scaled to integers by s, the lcm of their denominators."""
    ratios = [x.as_integer_ratio() for x in values]
    s = lcm(*[d for _, d in ratios])
    return tuple([n * (s // d) for n, d in ratios]), s


def rref(rows: Sequence[Vector], p: int | None) -> tuple[list[Vector], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    if p:
        work = [list(r) for r in rows]
    else:
        work = [r if all(type(x) is int for x in r) else _int_scaled(r)[0] for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        row = work[r]
        v = row[c]
        for i in range(len(work)):
            if i != r and (f := work[i][c]):
                new = [v * x - f * y for x, y in zip(work[i], row)]
                if p:
                    work[i] = [x % p for x in new]
                else:
                    g = gcd(*new)
                    work[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    if p:
        inverses = [pow(row[c], -1, p) for row, c in zip(work, pivots)]
        return [tuple(x * s % p for x in row) for row, s in zip(work, inverses)], pivots
    zero = Fraction(0)
    return [tuple(Fraction(x, row[c]) if x else zero for x in row)
            for row, c in zip(work, pivots)], pivots

