"""Discriminants, word traces, moduli coordinates and trace identities.

The two-argument discriminant and the three-argument alternating invariant
detect when a family of 2x2 matrices generates the full matrix algebra;
the invariant vector (generator determinants plus traces of strictly
increasing products) is a complete conjugacy invariant on the semi-simple
stratum.

The moduli and split coordinates read a tuple's integer-scaled view
(words), residues with scale 1 over F_p.  Over Q a determinant is
Fraction(ad - bc, s^2), a group inverse s adj(A) / det A in lowest terms,
and each output one Fraction of ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from math import gcd, prod

from .errors import BudgetExceeded, VanishingM
from .fields import FieldElement, _fe, _ratio
from .mat2 import Mat2
from .words import GROUP, RepTuple, Word

# Largest number of increasing-product traces invariant_vector computes:
# n = 16 augmented generators, so group mode up to rank 8, monoid up to 16.
MAX_TRACES = 65_535


def delta2(A: Mat2, B: Mat2) -> FieldElement:
    """Symmetric pair discriminant; zero iff A, B generate a proper subalgebra."""
    spec = A._common_spec(B)
    return _fe(spec.reduce(_delta2_entries(A.values(), B.values())), spec)


def tau3(A: Mat2, B: Mat2, C: Mat2) -> FieldElement:
    """tr(ABC) - tr(ACB); alternating in the last two arguments."""
    A._common_spec(C)
    spec = A._common_spec(B)
    return _fe(spec.reduce(_tau3_entries(A.values(), B.values(), C.values())), spec)


def _delta2_entries(A: tuple, B: tuple):
    """delta2 of raw entries (a, b, c, d) and (e, f, g, h), unreduced; of
    degree 2 in each matrix."""
    a, b, c, d = A
    e, f, g, h = B
    trA, trB, trAB = a + d, e + h, a * e + b * g + c * f + d * h
    detA, detB = a * d - b * c, e * h - f * g
    return trA * trA * detB + trB * trB * detA + trAB * (trAB - trA * trB) - 4 * detA * detB


def _tau3_entries(A: tuple, B: tuple, C: tuple):
    """tau3 = tr(A K) of raw entries, unreduced, linear in each matrix:
    K = BC - CB is trace-free with K11 = f y - g x, K12 = x (e - h) -
    f (w - z) and K21 = g (w - z) - y (e - h) for B = (e, f, g, h) and
    C = (w, x, y, z)."""
    a, b, c, d = A
    e, f, g, h = B
    w, x, y, z = C
    return ((a - d) * (f * y - g * x) + b * (g * (w - z) - y * (e - h))
            + c * (x * (e - h) - f * (w - z)))


def delta4(A1: Mat2, A2: Mat2, A3: Mat2, A4: Mat2) -> FieldElement:
    """4x4 determinant of the stacked entry rows (a11, a12, a21, a22).

    Nonzero iff the four matrices form a basis of the 2x2 matrices; the
    row order fixes the sign so that delta2(A, B) = -delta4(I, A, B, AB).
    """
    spec = A1.spec
    if any(M.spec != spec for M in (A2, A3, A4)):
        raise ValueError("matrices from mixed field specs")
    rows = [M.values() for M in (A1, A2, A3, A4)]
    total = sum((-1) ** sum(s[i] > s[j] for i, j in combinations(range(4), 2))
                * prod(row[j] for row, j in zip(rows, s)) for s in permutations(range(4)))
    return _fe(spec.reduce(total), spec)


def trace_word(t: RepTuple, w: Word) -> FieldElement:
    """Trace of the image of a word; the empty word gives tr I = 2."""
    return t.evaluate(w).tr


@dataclass(frozen=True)
class InvariantVector:
    """Generator determinants plus traces of strictly increasing products.

    Keys of ``traces`` are the increasing index subsequences (1-based), in
    lexicographic order.  Conjugation-invariant; a complete invariant on
    the semi-simple stratum.
    """

    dets: tuple[FieldElement, ...]
    traces: tuple[tuple[tuple[int, ...], FieldElement], ...]

    def trace_map(self) -> dict[tuple[int, ...], FieldElement]:
        return dict(self.traces)


def invariant_vector(t: RepTuple) -> InvariantVector:
    """Moduli coordinates of a tuple.

    In group mode the generator list is first augmented with the inverses
    (A_1, ..., A_m, A_1^-1, ..., A_m^-1) so that traces of increasing
    products generate all word traces verbatim.  The traces come keyed by
    their index subsequences in lexicographic order, from the one pass of
    _moduli_entries.  For n augmented generators that is 2^n - 1 traces;
    above MAX_TRACES the call raises BudgetExceeded before computing any
    of them.
    """
    spec = t.spec
    dets, keys, traces = _moduli_entries(spec.p, t._scaled, t.mode == GROUP)
    return InvariantVector(
        dets=tuple([_fe(v, spec) for v in dets]),
        traces=tuple(zip(keys, [_fe(v, spec) for v in traces])))


def _moduli_entries(p: int | None, mats, group: bool) -> tuple[tuple, tuple, tuple]:
    """Determinants, increasing-product keys and their traces of integer-
    scaled ((a, b, c, d), s) pairs (RepTuple._scaled) over F_p, where the
    entries are canonical residues and s = 1, or over Q if p is None,
    after appending the inverses in group mode.

    One suffix-first pass: the products whose first index is k are A_k,
    then A_k times every product whose first index is later, in key order,
    so the lexicographic list is built from the last matrix down.  The
    products of A_1, half the list, feed nothing else and are read as
    traces only, tr(A_1 X) = a e + b g + c f + d h.  Over Q everything
    runs on integers: an inverse is the integer form of _inverse_scaled,
    a determinant is Fraction(ad - bc, s^2), no gcd is taken inside a
    product, and each trace is one Fraction(num, scale).
    """
    n = 2 * len(mats) if group else len(mats)
    if 2**n - 1 > MAX_TRACES:
        raise BudgetExceeded(f"invariant vector of {n} matrices needs 2^{n} - 1 traces, "
                             f"over the budget of {MAX_TRACES}")
    # prods holds the products whose first index is after k, in key order;
    # over Q, scales holds their denominators.
    prods, scales = [], []
    if p:
        mats = [e for e, _ in mats]
        dets = [a * d - b * c for a, b, c, d in mats]
        if group:
            inv = [pow(x, p - 2, p) for x in dets]
            mats = list(mats) + [(d * i, -b * i, -c * i, a * i)
                                 for (a, b, c, d), i in zip(mats, inv)]
            dets += inv
        dets = [x % p for x in dets]
        mats = [tuple(x % p for x in e) for e in mats]
        for k in range(n - 1, 0, -1):
            a, b, c, d = mats[k]
            prods = [mats[k], *[((a * e + b * g) % p, (a * f + b * h) % p,
                                 (c * e + d * g) % p, (c * f + d * h) % p)
                                for e, f, g, h in prods], *prods]
        a, b, c, d = mats[0]
        traces = [(a + d) % p, *[(a * e + b * g + c * f + d * h) % p for e, f, g, h in prods],
                  *[(e + h) % p for e, _, _, h in prods]]
    else:
        if group:
            mats = [*mats, *map(_inverse_scaled, mats)]
        mats, mat_scales = zip(*mats)
        dets = [Fraction(a * d - b * c, s * s) for (a, b, c, d), s in zip(mats, mat_scales)]
        for k in range(n - 1, 0, -1):
            a, b, c, d = mats[k]
            s = mat_scales[k]
            prods = [mats[k], *[(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
                                for e, f, g, h in prods], *prods]
            scales = [s, *[s * t for t in scales], *scales]
        a, b, c, d = mats[0]
        s = mat_scales[0]
        traces = [Fraction(a + d, s),
                  *[Fraction(a * e + b * g + c * f + d * h, s * t)
                    for (e, f, g, h), t in zip(prods, scales)],
                  *[Fraction(e + h, t) for (e, _, _, h), t in zip(prods, scales)]]
    return tuple(dets), _key_table(n), tuple(traces)


def _inverse_scaled(scaled: tuple) -> tuple:
    """The integer-scaled pair of M^-1 for M = A/s given as (A, s):
    s adj(A) / det A divided by the gcd g of its entries and det A, g of
    the sign of det A, which is linalg._int_scaled(M.inverse().values())."""
    (a, b, c, d), s = scaled
    det = a * d - b * c
    g = gcd(s * gcd(a, b, c, d), det)
    if det < 0:
        g = -g
    return (s * d // g, -s * b // g, -s * c // g, s * a // g), det // g


@cache
def _key_table(n: int) -> tuple[tuple[int, ...], ...]:
    """The strictly increasing index subsequences of 1..n in lexicographic
    order: those starting at k are (k,), then k before every later one.
    Memoised per n, which _moduli_entries' budget check bounds by 16
    before any table is read."""
    keys: list = []
    for k in range(n, 0, -1):
        head = (k,)
        keys = [head, *[head + key for key in keys], *keys]
    return tuple(keys)


@cache
def _key_texts(n: int) -> tuple[str, ...]:
    """The keys of _key_table(n) as comma-joined text ("1,2,4"), memoised
    apart so that only the CLI's invariants report holds them."""
    texts: list = []
    for k in range(n, 0, -1):
        text = str(k)
        texts = [text, *[f"{text},{rest}" for rest in texts], *texts]
    return tuple(texts)


def _split_entries(p: int | None, scaled) -> tuple:
    """(s, det A_s, (tr A_j)_j, (tr A_s A_j)_j) of integer-scaled (entries,
    scale) pairs (RepTuple._scaled) over F_p, or Q if p is None, A_s the
    first matrix with m = (a - d)^2 + 4 b c != 0.  On the semi-simple
    stratum every A_j lies in span{I, A_s} and is fixed by tr A_j and
    tr A_s A_j, so these O(m) values are a complete conjugacy invariant
    there, and a function of the full moduli vector.  m is tested on the
    integers, and each value is one fields._ratio(p, num, scale)."""
    for s, ((a, b, c, d), t) in enumerate(scaled):
        m = (a - d) ** 2 + 4 * b * c
        if m % p if p else m:
            break
    else:
        raise ValueError("no matrix has m != 0; the tuple is not semi-simple")
    return (s, _ratio(p, a * d - b * c, t * t),
            tuple([_ratio(p, e + h, u) for (e, _, _, h), u in scaled]),
            tuple([_ratio(p, a * e + b * g + c * f + d * h, t * u) for (e, f, g, h), u in scaled]))


def det_from_traces(t1: FieldElement, t2: FieldElement, t3: FieldElement) -> FieldElement:
    """Recover det A from (tr A, tr A^2, tr A^3) when m = 2 t2 - t1^2 != 0."""
    m = 2 * t2 - t1 * t1
    if not m:
        raise VanishingM("2 tr(A^2) - tr(A)^2 vanishes; determinant not recoverable")
    return (t1 * t3 - t2 * t2) / m


def reconstruct_from_traces(A: Mat2, trX: FieldElement, trAX: FieldElement) -> Mat2:
    """The unique X in span{I, A} with tr X = trX and tr(AX) = trAX.

    Inverts the trace pairing on span{I, A}; needs m(A) != 0.
    """
    m = A.m
    if not m:
        raise VanishingM("m(A) = 0; the trace pairing on span{I, A} is degenerate")
    trA2 = (A * A).tr
    mi = m.inv()
    x = mi * (trA2 * trX - A.tr * trAX)
    y = mi * (-(A.tr * trX) + 2 * trAX)
    return Mat2.identity(A.spec).scale(x) + A.scale(y)


def trace_powers(trA: FieldElement, detA: FieldElement, n: int) -> list[FieldElement]:
    """[tr A^0, ..., tr A^n] by the Cayley-Hamilton recurrence."""
    spec = trA.spec
    out = [spec.element(2)]
    if n >= 1:
        out.append(trA)
    for _ in range(2, n + 1):
        out.append(trA * out[-1] - detA * out[-2])
    return out


def m_power_closed(A: Mat2, n: int) -> FieldElement:
    """m(A^n) via the closed formula m(A) * f(tr A, det A)^2.

    f sums det(A)^k tr(A^(n-2k-1)); for odd n the final tr A^0 term is
    replaced by det(A)^((n-1)/2) alone.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    trA, detA = A.tr, A.det
    tp = trace_powers(trA, detA, max(n - 1, 0))
    acc = sum((detA**k * tp[n - 2 * k - 1] for k in range(n // 2)), A.spec.zero())
    if n % 2 == 1:
        acc = acc + detA ** ((n - 1) // 2)
    return A.m * acc * acc
