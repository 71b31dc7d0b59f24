"""Small exact linear algebra over raw canonical field values.

Vectors are tuples of the raw values that Mat2.values() holds: residues in
[0, p) over F_p, reduced Fractions over Q, with the field named by p (None
for Q) as in the mold and moduli kernels.  Matrices are lists of such
rows.  Everything is Gauss-Jordan over an exact field, so results are
exact, canonical and deterministic.

One elimination routine, _insert, serves both fields and every caller:
rref, mold.span_closure and the intertwiner span of canon.  It keeps a
reduced row echelon form of integer rows up to date as rows go in, each
row a residue vector with pivot 1 over F_p, or over Q an integer vector
divided by the gcd of its entries, with a positive pivot.  Such a row is
the rref row times its pivot value, so the rows are normalised once, at
the end (_normalised): as they are over F_p, as Fractions x / pivot over
Q.  The reduced row echelon form of a row space is unique, so the rows
and pivots are those of normalise-first Gauss-Jordan, whatever order the
rows go in.  Q results are Fractions, for int entries and literal 0s too.

_int_scaled scales a row of rationals to integers: rref's Q input rows
that are not all ints, a Q RepTuple's generators, once each when the
tuple is built (words), and the generators of span_closure.  Over F_p
the stored view is each generator's residues with scale 1, and
_int_scaled is never called.
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


def _insert(echelon: list, row: Sequence[int], p: int | None) -> bool:
    """Reduce the integer row against echelon and add what is left, if
    anything; True when a row went in.

    echelon is a reduced row echelon form as (row, pivot column) pairs in
    increasing pivot column: residue lists with pivot 1 over F_p, whose
    input rows must be residues too, and over Q integer lists with gcd 1
    and a positive pivot.  Each echelon row e clears its column c from the
    new row as row = e[c] row - row[c] e (e[c] = 1 over F_p); the row
    left, if nonzero, is brought to that form and clears its own pivot
    column from the others the same way.
    """
    if p:
        for e, c in echelon:
            if f := row[c]:
                row = [(x - f * y) % p for x, y in zip(row, e)]
    else:
        for e, c in echelon:
            if f := row[c]:
                v = e[c]
                row = [v * x - f * y for x, y in zip(row, e)]
    for c, x in enumerate(row):
        if x:
            break
    else:
        return False
    v = row[c]
    if p:
        if v != 1:
            s = pow(v, -1, p)
            row = [x * s % p for x in row]
    else:
        g = gcd(*row) if v > 0 else -gcd(*row)
        if g != 1:
            row = [x // g for x in row]
            v //= g
    for k, (e, d) in enumerate(echelon):
        if f := e[c]:
            if p:
                echelon[k] = ([(x - f * y) % p for x, y in zip(e, row)], d)
            else:
                new = [v * x - f * y for x, y in zip(e, row)]
                g = gcd(*new)
                echelon[k] = ([x // g for x in new] if g > 1 else new, d)
    k = len(echelon)
    while k and echelon[k - 1][1] > c:
        k -= 1
    echelon.insert(k, (row, c))
    return True


def _normalised(echelon: list, p: int | None) -> list[Vector]:
    """The rows of the reduced row echelon form that echelon (_insert)
    holds: its residue rows over F_p, and over Q each row divided by its
    pivot value, one Fraction per entry."""
    if p:
        return [tuple(e) for e, _ in echelon]
    zero = Fraction(0)
    return [tuple([Fraction(x, e[c]) if x else zero for x in e]) for e, c in echelon]


def rref(rows: Sequence[Vector], p: int | None) -> tuple[list[Vector], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    echelon: list = []
    for r in rows:
        _insert(echelon, r if p or all(type(x) is int for x in r) else _int_scaled(r)[0], p)
    return _normalised(echelon, p), [c for _, c in echelon]
