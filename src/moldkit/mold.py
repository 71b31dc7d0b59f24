"""Six-way mold classification over a field by one step kernel folded over
trace-free rows, shared with the census; air witnesses, invariant lines,
and the span closure of the generated algebra that tests check the kernel
against.  The kernel, the witnesses, the invariant lines and the span
closure read the generators' own integers and scales (mat2), so they run
no Fraction arithmetic over Q and box only what they return."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Optional

from . import linalg
from .fields import FieldElement, _fe, _ratio
from .invariants import _delta2_entries, _tau3_entries, delta2
from .mat2 import Mat2, _mat
from .words import GROUP, RepTuple


class MoldLabel(Enum):
    AIR = "air"
    BOREL = "borel"
    SEMISIMPLE = "semi_simple"
    UNIPOTENT = "unipotent"
    UNIPOTENT_F2 = "unipotent_f2"
    SCALAR = "scalar"

    @property
    def dim(self) -> int:
        """Dimension of the algebra generated by a tuple with this label:
        4 for air, 3 for borel, 1 for scalar and 2 for the other three."""
        return {"air": 4, "borel": 3, "scalar": 1}.get(self.value, 2)


@dataclass(frozen=True)
class SubalgebraBasis:
    """Echelonized basis of the unital algebra generated by a tuple."""

    basis: tuple[Mat2, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def span_closure(t: RepTuple) -> SubalgebraBasis:
    """The unital algebra the generators span: the span of all words.

    The words are walked breadth first from I on raw integer rows, each
    element found multiplied on the right by every generator, and each
    product goes into one reduced echelon (linalg._insert), kept up to
    date as rows go in; a product that adds a row is a new element.  The
    span of the elements found is then closed under right multiplication
    by the generators and holds I, so it holds every word.  The walk stops
    at dimension 4 or when no product adds a row.  The walk multiplies the
    generators' integers (Mat2._ints), which over Q scales each product by
    a positive integer and leaves the span alone.  The returned basis is
    the reduced row echelon form of the closure, each echelon row over its
    pivot, so it is deterministic and contains I in its span, and no
    Fraction is built.  The kernel classifier is not consulted.
    """
    spec = t.spec
    p = spec.p
    gens = [g._ints for g in t.gens]
    found = [(1, 0, 0, 1)]
    echelon: list = []
    linalg._insert(echelon, found[0], p)
    for a, b, c, d in found:
        for e, f, g, h in gens:
            if len(found) == 4:
                break
            product = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
            if p:
                product = (product[0] % p, product[1] % p, product[2] % p, product[3] % p)
            if linalg._insert(echelon, product, p):
                found.append(product)
    return SubalgebraBasis(tuple([_mat(spec, row, row[c]) for row, c in echelon]))


# Kernel states: the rank of the trace-free rows folded so far, followed
# by the first nonzero row u at rank 1 and the first nonzero w = u x x at
# rank 2.
_SCALAR = (0,)
_AIR = (3,)


def _step(p: Optional[int], state: tuple, row: tuple) -> tuple:
    """The kernel state after one more trace-free row (a - d, b, c) of
    integers, over F_p (zero tests mod p) or over Q (p None).

    With w = u x v for the rows of A and B, delta2(A, B) = -det(AB - BA) =
    w0^2 + w1 w2, and tau3(A, B, C) = tr(A(BC - CB)) is the determinant of
    three rows.  A row x with w . x != 0 makes the rank 3 (_AIR), which no
    later row leaves; once w is set, u is no longer read.
    """
    rank = state[0]
    if rank == 2:
        t = state[1] * row[0] + state[2] * row[1] + state[3] * row[2]
        return _AIR if (t % p if p else t) else state
    if rank == 1:
        _, u0, u1, u2 = state
        x0, x1, x2 = row
        w0, w1, w2 = u1 * x2 - u2 * x1, u2 * x0 - u0 * x2, u0 * x1 - u1 * x0
        if p:
            w0, w1, w2 = w0 % p, w1 % p, w2 % p
        return (2, w0, w1, w2) if w0 or w1 or w2 else state
    if rank == 0 and (row[0] or row[1] or row[2]):
        return (1, *row)
    return state


def _label(p: Optional[int], state: tuple) -> MoldLabel:
    """Mold label of a kernel state.  A change of basis of a plane scales w
    by its determinant, so rank 2 is air iff w0^2 + w1 w2 != 0, else borel;
    rank 1 is span{I, X}, semi-simple iff m = (a - d)^2 + 4bc != 0 at u;
    rank 0 is scalar.  Scaling u or w by a nonzero s scales each test by
    s^2, so no label changes."""
    rank = state[0]
    if rank == 2:
        _, w0, w1, w2 = state
        t = w0 * w0 + w1 * w2
        return MoldLabel.AIR if (t % p if p else t) else MoldLabel.BOREL
    if rank == 1:
        _, u0, u1, u2 = state
        t = u0 * u0 + 4 * u1 * u2
        if t % p if p else t:
            return MoldLabel.SEMISIMPLE
        return MoldLabel.UNIPOTENT_F2 if p == 2 else MoldLabel.UNIPOTENT
    return MoldLabel.SCALAR if rank == 0 else MoldLabel.AIR


def _classify_entries(p: Optional[int], mats) -> MoldLabel:
    """Mold label of integer (a, b, c, d) entry tuples, each matrix scaled
    by its own positive s (Mat2._ints; s = 1 over F_p, whose entries are
    canonical residues): a fold of _step over their trace-free rows
    (a - d, b, c), which span the algebra modulo I, returning air as soon
    as the rank is 3.  Scaling a matrix by s scales its row by s, and over
    F_p a - d is zero only when it is 0 mod p, so no zero test changes,
    and no Fraction arithmetic runs.
    """
    state = _SCALAR
    for a, b, c, d in mats:
        state = _step(p, state, (a - d, b, c))
        if state is _AIR:
            return MoldLabel.AIR
    return _label(p, state)


def classify(t: RepTuple) -> MoldLabel:
    """Six-way mold classification of a tuple over a field.  The label is
    computed once per tuple and kept in its instance __dict__, outside the
    dataclass fields, so later calls on the same tuple read it back."""
    memo = t.__dict__
    label = memo.get("_label")
    if label is None:
        label = memo["_label"] = _classify_entries(t.spec.p, [g._ints for g in t.gens])
    return label


def air_witness(t: RepTuple) -> Optional[tuple[str, tuple[int, ...], FieldElement]]:
    """First nonvanishing discriminant witnessing full matrix algebra.

    Returns ("delta", (i, j), value) for the first generator pair with
    delta2 != 0, else ("tau", (i, j, k), value) for the first triple with
    tau3 != 0, or None.  The zero tests are the kernel's on a generator and
    on pairs (air iff delta2 != 0, dim <= 2 iff parallel trace-free rows);
    only the value comes from the delta2 or tau3 polynomial on the
    integer-scaled entries, divided by the scales to the polynomial's
    degree in each matrix, 2 or 1 (fields._ratio).  As i the
    search skips scalars and lines already scanned without a partner.
    Through a line pass at most two planes with delta2 = 0, so at most
    four such lines precede the first pair, and an air tuple without a
    pair has exactly three lines, whose first generators are the first
    triple.
    """
    if classify(t) is not MoldLabel.AIR:
        return None
    p = t.spec.p
    mats = [g._ints for g in t.gens]

    def label(*idx: int) -> MoldLabel:
        return _classify_entries(p, [mats[i] for i in idx])

    def value(polynomial, idx: tuple, power: int) -> FieldElement:
        v = polynomial(*[mats[i] for i in idx])
        return _fe(_ratio(p, v, math.prod(t.gens[i]._s for i in idx) ** power), t.spec)

    scanned: list[int] = []
    for i in range(len(mats)):
        if label(i) is MoldLabel.SCALAR or any(label(k, i).dim <= 2 for k in scanned):
            continue
        for j in range(i + 1, len(mats)):
            if label(i, j) is MoldLabel.AIR:
                return ("delta", (i + 1, j + 1), value(_delta2_entries, (i, j), 2))
        scanned.append(i)
    i, j, k = scanned
    return ("tau", (i + 1, j + 1, k + 1), value(_tau3_entries, (i, j, k), 1))


def air_by_discriminants(t: RepTuple) -> bool:
    """True iff some generator pair has delta2 != 0 or some triple tau3 != 0.

    In group mode the product-pair variant delta2(A_i A_j, A_k) is also
    evaluated and must agree with the tau criterion.
    """
    result = air_witness(t) is not None
    if t.mode == GROUP:
        variant = any(delta2(t.gens[i - 1], t.gens[j - 1])
                      for i, j in combinations(range(1, len(t.gens) + 1), 2))
        if not variant:
            variant = any(delta2(t.gens[i - 1] * t.gens[j - 1], t.gens[k - 1])
                          for i, j, k in combinations(range(1, len(t.gens) + 1), 3))
        if variant != result:
            raise RuntimeError("group-mode air criteria disagree; this is a bug")
    return result


def _sqrt_mod(a: int, p: int) -> Optional[int]:
    """A square root of a mod p, or None (Tonelli-Shanks; p prime)."""
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks for p = 1 mod 4.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _eigenlines(p: Optional[int], a: int, b: int, c: int, d: int) -> list[tuple[int, int]]:
    """Base-field eigenlines of a non-scalar A = (a, b, c, d)/s as integer
    (x, y) pairs, one per eigenvalue in increasing order: residues over
    F_p, values over Q, where s > 0 changes neither the lines nor the
    order.  An eigenvalue is taken as mu/k, with k = 1 over F_p (mu a
    residue, found by the scan of {0, 1} over F_2) and k = 2 over Q, mu =
    a + d -/+ r for the integer root r of m = (a - d)^2 + 4bc; its line is
    spanned by (k b, mu - k a), or (k d - mu, -k c) when both vanish, as
    they do not both for a non-scalar A.  Distinct eigenvalues have
    distinct lines."""
    if p == 2:
        k, mus = 1, [lam for lam in (0, 1) if not (lam * lam - (a + d) * lam + a * d - b * c) % 2]
    elif p:
        r = _sqrt_mod((a - d) ** 2 + 4 * b * c, p)
        if r is None:
            return []
        half = (p + 1) // 2
        k, mus = 1, sorted({(a + d - r) * half % p, (a + d + r) * half % p})
    else:
        m = (a - d) ** 2 + 4 * b * c
        r = math.isqrt(m) if m >= 0 else -1
        if r * r != m:
            return []
        k, mus = 2, [a + d - r, a + d + r] if r else [a + d]
    lines = []
    for mu in mus:
        x, y = k * b, mu - k * a
        if not (x % p or y % p if p else x or y):
            x, y = k * d - mu, -k * c
        lines.append((x, y))
    return lines


def common_invariant_line(t: RepTuple) -> Optional[tuple[FieldElement, FieldElement]]:
    """A line of the base plane fixed by every generator, if one exists,
    scaled so that its first nonzero coordinate is 1.

    Candidates are the eigenlines of the first non-scalar generator; a line
    fixed by the tuple is an eigenline of each non-scalar generator.  A
    candidate (x, y) is fixed by A = (a, b, c, d)/s iff (a x + b y) y -
    (c x + d y) x vanishes, tested on the generators' integers (mod p over
    F_p), and the line found is boxed once (fields._ratio).  For an
    all-scalar tuple every line works and (1, 0) is returned.
    """
    pivot = next((g for g in t.gens if not g.is_scalar), None)
    spec = t.spec
    if pivot is None:
        return (spec.one(), spec.zero())
    p = spec.p
    mats = [g._ints for g in t.gens]
    for x, y in _eigenlines(p, *pivot._ints):
        zs = ((a * x + b * y) * y - (c * x + d * y) * x for a, b, c, d in mats)
        if not (any(z % p for z in zs) if p else any(zs)):
            if x % p if p else x:
                return spec.one(), _fe(_ratio(p, y, x), spec)
            return spec.zero(), spec.one()
    return None
