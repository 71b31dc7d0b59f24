"""Equivalence deciders with certificates and the canonical decompositions
for the semi-simple, unipotent and characteristic-2 unipotent strata."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations, product
from math import lcm
from typing import Optional

from . import linalg
from .errors import (
    BudgetExceeded,
    CharNotTwo,
    CharTwo,
    ChartOverlapEmpty,
    NoSplitGenerator,
    NotScalar,
    NotSemiSimple,
    NotUnipotent,
    NotUnipotentF2,
)
from .fields import FieldElement, _ratio
from .invariants import MAX_TRACES, _split_entries
from .mat2 import Mat2, _companion_frame, _mat, eta
from .mold import MoldLabel, classify
from .words import RepTuple, Word


def _common_scaled(x: tuple, y: tuple) -> tuple:
    """The eight integer entries of two integer-scaled (entries, scale)
    pairs brought to one common scale, the lcm of the two: what
    linalg._int_scaled gives for the two matrices' values at once."""
    (u, s), (v, t) = x, y
    if s == t:
        return u + v
    m = lcm(s, t)
    i, j = m // s, m // t
    return (*[i * e for e in u], *[j * e for e in v])


def _pair_entries(t1: RepTuple, t2: RepTuple) -> Optional[list[tuple]]:
    """Raw entries (a, b, c, d, e, f, g, h) of each pair (A_i, B_i), or None
    when some pair differs in trace, determinant or scalar-ness, which
    conjugation preserves.  Each pair is read from the tuples'
    integer-scaled views at one common scale s (_common_scaled; s = 1 over
    F_p), which scales A_i P - P B_i by s, the traces by s and the
    determinants by s^2, and so leaves every test below alone."""
    p = t1.spec.p
    pairs = []
    for a, b, c, d, e, f, g, h in map(_common_scaled, t1._scaled, t2._scaled):
        tr, det = a + d - e - h, a * d - b * c - e * h + f * g
        if (tr % p or det % p) if p else (tr or det):
            return None
        if (not b and not c and a == d) != (not f and not g and e == h):
            return None
        pairs.append((a, b, c, d, e, f, g, h))
    return pairs


def _defect(pair: tuple, P: tuple) -> tuple:
    """Raw entries of A P - P B for a pair (A, B) of raw entries."""
    a, b, c, d, e, f, g, h = pair
    x, y, z, w = P
    return (a * x + b * z - x * e - y * g, a * y + b * w - x * f - y * h,
            c * x + d * z - z * e - w * g, c * y + d * w - z * f - w * h)


def _intertwiner_rows(pairs: list[tuple], p: int | None) -> list[tuple]:
    """Basis of the intertwiner space of screened raw pairs (_pair_entries)
    as (P', s) pairs of integer entries and a scale, the basis vector
    being P'/s: residues with s = 1 over F_p, and over Q integers with gcd
    1 and s > 0, what linalg._int_scaled gives for the vector's values.

    Screened scalar pairs are equal and constrain nothing, so with no
    other pair the space is all of M_2 and the unit basis E11, E12, E21,
    E22 is returned with no elimination.  At the first non-scalar pair (A,
    B) both are cyclic with one characteristic polynomial: with the frames
    V = [v | A v] and W = [w | B w] of mat2._companion_frame, P0 = V adj(W)
    is invertible and the pair's intertwiners are span{P0, A P0}
    (rational canonical form).  Each later pair cuts x P0 + y A P0 by the
    four equations x u + y v = 0, u and v its defects A_j P - P B_j at P0
    and A P0; once one matrix is left, a later pair only checks it.

    The basis is the one the 4m x 4 system's nullspace gives, one vector
    per free column in increasing order: a free column is where a basis
    vector ends, so it is the reduced row echelon form of the span read
    from the last coordinate back, and the echelon of the reversed
    vectors (linalg._insert) gives it in decreasing free-column order,
    each vector as its integer row and pivot value.
    """
    span = None
    for pair in pairs:
        if span is None:
            a, b, c, d = pair[:4]
            if not b and not c and a == d:
                continue
            (x1, y1, z1, w1), _ = _companion_frame(a, b, c, d)
            (x2, y2, z2, w2), _ = _companion_frame(*pair[4:])
            x, y, z, w = (x1 * w2 - y1 * z2, y1 * x2 - x1 * y2,
                          z1 * w2 - w1 * z2, w1 * x2 - z1 * y2)
            span = [(x, y, z, w), (a * x + b * z, a * y + b * w, c * x + d * z, c * y + d * w)]
        elif len(span) == 2:
            u, v = (_defect(pair, P) for P in span)
            if p:
                u, v = [e % p for e in u], [e % p for e in v]
            r = next((i for i in range(4) if u[i] or v[i]), None)
            if r is None:
                continue
            x, y = v[r], -u[r]
            if any((x * e + y * f) % p if p else x * e + y * f for e, f in zip(u, v)):
                return []
            span = [tuple(x * e + y * f for e, f in zip(*span))]
        else:
            if any(e % p if p else e for e in _defect(pair, span[0])):
                return []
            continue
        if p:
            span = [tuple(e % p for e in P) for P in span]
    if span is None:
        return [(tuple(int(i == j) for j in range(4)), 1) for i in range(4)]
    echelon: list = []
    for P in span:
        linalg._insert(echelon, P[::-1], p)
    return [(tuple(e[::-1]), e[c]) for e, c in reversed(echelon)]


def intertwiner_basis(t1: RepTuple, t2: RepTuple, *, pairs: Optional[list[tuple]] = None
                      ) -> list[Mat2]:
    """Basis of the solution space {P : t1_i P = P t2_i for all i}, for
    tuples whose pairs agree in trace, determinant and scalar-ness (the
    screen of general_conjugator); ValueError otherwise.  A caller that
    has already screened passes the raw entries _pair_entries(t1, t2)
    returned as pairs, so the screen runs once.  The basis is
    _intertwiner_rows's, each P'/s boxed in canonical values: the
    nullspace basis of the 4m x 4 system, in its order.
    """
    spec = t1.spec
    if pairs is None:
        pairs = _pair_entries(t1, t2)
        if pairs is None:
            raise ValueError("the pairs differ in trace, determinant or scalar-ness")
    p = spec.p
    return [_mat(spec, tuple([_ratio(p, x, s) for x in P]))
            for P, s in _intertwiner_rows(pairs, p)]


def _invertible_in_span(rows: list[tuple], p: int | None) -> Optional[tuple]:
    """The integer entries and scale (P', s) of an invertible element P =
    P'/s of the span of the basis rows, (entries, scale) pairs as
    _intertwiner_rows gives them, or None if there is none.

    det restricts to a quadratic form on the span.  For tiny prime fields
    the span is enumerated; otherwise the basis vectors and their pairwise
    sums suffice in characteristic != 2 (polarization), a 3-dimensional
    intertwiner space never contains an invertible element, and a
    4-dimensional one contains I.  A sum x/s + y/t is (t x + s y)/(s t).
    """
    d = len(rows)
    if d == 0:
        return None
    if d == 4:
        return (1, 0, 0, 1), 1
    if p and p**d <= 4096:
        # Lexicographic coefficient search keeps certificates reproducible.
        vecs = [v for v, _ in rows]
        candidates = ((tuple(sum(k * v[i] for k, v in zip(s, vecs)) for i in range(4)), 1)
                      for s in product(range(p), repeat=d))
    else:
        candidates = chain(rows, ((tuple(t * e + s * f for e, f in zip(x, y)), s * t)
                                  for (x, s), (y, t) in combinations(rows, 2)))
    for (a, b, c, e), s in candidates:
        if (a * e - b * c) % p if p else a * e - b * c:
            return (a, b, c, e), s
    # With d in {1, 2}, det vanishes identically on the span (char != 2);
    # with d = 3, an invertible P0 would force dim in {1, 2, 4}.
    return None


def general_conjugator(t1: RepTuple, t2: RepTuple) -> Optional[Mat2]:
    """Invertible P with P^-1 t1_i P = t2_i for all i, or None.

    Decides membership in the same conjugation orbit over the base field.
    A pair that differs in trace, determinant or scalar-ness, which
    conjugation preserves, gives None before any intertwiner is built;
    otherwise the intertwiner basis is read as integer rows
    (_intertwiner_rows), and any returned certificate is re-verified as
    t1_i P = P t2_i, which for an invertible P (_invertible_in_span checks
    det P) is P^-1 t1_i P = t2_i.
    """
    if len(t1.gens) != len(t2.gens):
        raise ValueError("tuples have different lengths")
    if t1.spec != t2.spec:
        raise ValueError("tuples over different fields")
    if t1.mode != t2.mode:
        raise ValueError("tuples in different modes")
    pairs = _pair_entries(t1, t2)
    if pairs is None:
        return None
    spec = t1.spec
    found = _invertible_in_span(_intertwiner_rows(pairs, spec.p), spec.p)
    if found is None:
        return None
    entries, s = found
    _verify_certificate(t1, t2, entries, "intertwiner")
    return _mat(spec, tuple([_ratio(spec.p, v, s) for v in entries]))


def _verify_certificate(t1: RepTuple, t2: RepTuple, P: tuple, what: str) -> None:
    """Raise RuntimeError unless t1_i P = P t2_i for every i, for P given
    by the integer entries P' of a nonzero multiple, which its producer
    holds.  With A = A'/a and B = B'/b read from the tuples'
    integer-scaled views (a = b = 1 over F_p), the test is b A'P' = a P'B',
    exact on integers, mod p over F_p, so no Fraction arithmetic runs."""
    p = t1.spec.p
    x, y, z, w = P
    for ((a, b, c, d), sa), ((e, f, g, h), sb) in zip(t1._scaled, t2._scaled):
        AP = (a * x + b * z, a * y + b * w, c * x + d * z, c * y + d * w)
        PB = (x * e + y * g, x * f + y * h, z * e + w * g, z * f + w * h)
        for u, v in zip(AP, PB):
            t = sb * u - sa * v
            if t % p if p else t:
                raise RuntimeError(f"{what} failed verification; this is a bug")


def _require_semisimple(t: RepTuple) -> None:
    if classify(t) is not MoldLabel.SEMISIMPLE:
        raise NotSemiSimple("tuple is not in the semi-simple stratum")


def _split_coordinates(t: RepTuple) -> tuple:
    """(field, mode) and the split coordinates of _split_entries, which
    decide on the semi-simple stratum what the full invariant vectors do."""
    return (t.spec, t.mode, *_split_entries(t.spec.p, t._scaled))


def ss_equivalent(t1: RepTuple, t2: RepTuple) -> bool:
    """Conjugacy on the semi-simple stratum from the split coordinates in
    O(m) work; the same relation as equality of the full invariant vectors."""
    _require_semisimple(t1)
    _require_semisimple(t2)
    return _split_coordinates(t1) == _split_coordinates(t2)


def split_witness_word(t: RepTuple) -> Word:
    """First generator with m != 0, else the first increasing product in
    the lexicographic order of index subsequences, each product its prefix
    times one more generator.  Raises BudgetExceeded when the 2^n - 1
    subsequences of n generators pass MAX_TRACES."""
    p = t.spec.p
    mats = [e for e, _ in t._scaled]
    for i, (a, b, c, d) in enumerate(mats, start=1):
        m = (a - d) ** 2 + 4 * b * c
        if m % p if p else m:
            return Word((i,))
    n = len(mats)
    if 2**n - 1 > MAX_TRACES:
        raise BudgetExceeded(f"split witness search over {n} matrices needs 2^{n} - 1 "
                             f"products, over the budget of {MAX_TRACES}")
    for sub, (a, b, c, d) in _increasing_products(p, mats):
        m = (a - d) ** 2 + 4 * b * c
        if m % p if p else m:
            return Word(sub)
    raise NoSplitGenerator("no generator or increasing product has m != 0")


def _increasing_products(p: int | None, mats):
    """Yield (key, entries) for every strictly increasing product of raw
    (a, b, c, d) entries over F_p, or of integer-scaled entries over Q if
    p is None, in the lexicographic order of the keys, its 1-based index
    subsequences.  Over Q the entries are those of the product times a
    positive integer scale, so no gcd is taken inside a product; the scale
    multiplies m by a square and leaves m != 0 alone.

    The walk is lazy and depth first, each product its prefix times one
    more matrix, so the split-witness search, which usually stops at the
    first product, pays only for the products it reads.  That access
    pattern keeps it apart from invariants._moduli_entries, an eager pass
    over all 2^n - 1 traces; the two share no logic.
    """
    n = len(mats)
    stack = [((i + 1,), mats[i]) for i in reversed(range(n))]
    while stack:
        key, entries = stack.pop()
        yield key, entries
        a, b, c, d = entries
        for j in reversed(range(key[-1], n)):
            e, f, g, h = mats[j]
            if p:
                entries = ((a * e + b * g) % p, (a * f + b * h) % p,
                           (c * e + d * g) % p, (c * f + d * h) % p)
            else:
                entries = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
            stack.append(((*key, j + 1), entries))


def ss_conjugator(t1: RepTuple, t2: RepTuple) -> Optional[Mat2]:
    """Conjugacy certificate on the semi-simple stratum via companion forms.

    None unless the split-generator coordinates of ss_equivalent agree.
    Both tuples are normalized so the split generator A_s (the split word
    of both) is in companion form, by the frames V1 and V2 of
    mat2._companion_frame; since every generator is fixed by tr A_j and
    tr A_s A_j in span{I, A_s}, equal coordinates force the two
    normalizations to agree on every generator, so P = V1 V2^-1 =
    V1 adj(V2) / det V2 conjugates t1 to t2.  Both split generators are
    read from the integer-scaled views at one common s (_common_scaled),
    which scales V1 adj(V2) and det V2 alike.  P is boxed as V1 adj(V2)
    times one inverse of det V2 mod p, or as one Fraction per entry over
    Q.  The certificate, invertible as a product of invertible matrices,
    is re-verified as t1_i P = P t2_i on the integers V1 adj(V2).
    """
    _require_semisimple(t1)
    _require_semisimple(t2)
    coords = _split_coordinates(t1)
    if coords != _split_coordinates(t2):
        return None
    s = coords[2]
    vals = _common_scaled(t1._scaled[s], t2._scaled[s])
    (x, y, z, w), _ = _companion_frame(*vals[:4])
    (e, f, g, h), _ = _companion_frame(*vals[4:])
    det = e * h - f * g
    num = (x * h - y * g, y * e - x * f, z * h - w * g, w * e - z * f)
    _verify_certificate(t1, t2, num, "semi-simple certificate")
    p = t1.spec.p
    if p:
        inverse = pow(det, -1, p)
        return _mat(t1.spec, tuple([v * inverse % p for v in num]))
    return _mat(t1.spec, tuple([Fraction(v, det) for v in num]))


@dataclass(frozen=True)
class CharDeriv:
    """Character r = tr/2 and derivation d coordinatizing a unipotent tuple.

    d is normalized by d(alpha) = 1 at the chart generator alpha; values on
    arbitrary words are read from the word's evaluated image on demand.
    """

    tup: RepTuple = field(repr=False)
    alpha_index: int
    eta_mat: Mat2

    def r(self, w: Word) -> FieldElement:
        return self.coords(w)[0]

    def d(self, w: Word) -> FieldElement:
        return self.coords(w)[1]

    def coords(self, w: Word) -> tuple[FieldElement, FieldElement]:
        """(r(w), d(w)) from one evaluation of w: d(w) is the coordinate y
        of rho(w) = x I + y A_alpha, so that eta(rho(w)) = y eta(A_alpha)."""
        M = self.tup.evaluate(w)
        coords = M.span_coords(self.tup.gens[self.alpha_index - 1])
        if coords is None:
            raise NotUnipotent("image is outside the chart span; tuple is not unipotent")
        return M.tr / self.tup.spec.element(2), coords[1]


def unipotent_decompose(t: RepTuple) -> CharDeriv:
    """Character/derivation chart of a unipotent tuple (characteristic != 2)."""
    if t.spec.characteristic() == 2:
        raise CharTwo("unipotent charts over characteristic 2 use the (a, b) machinery")
    if classify(t) is not MoldLabel.UNIPOTENT:
        raise NotUnipotent("tuple is not in the unipotent stratum")
    alpha = next(i for i, g in enumerate(t.gens, start=1) if not g.is_scalar)
    return CharDeriv(tup=t, alpha_index=alpha, eta_mat=eta(t.gens[alpha - 1]))


def unipotent_reconstruct(cd: CharDeriv, w: Word) -> Mat2:
    """r(w) I + d(w) eta(alpha); reproduces generator images exactly."""
    r, d = cd.coords(w)
    return Mat2.identity(cd.tup.spec).scale(r) + cd.eta_mat.scale(d)


@dataclass(frozen=True)
class ABChart:
    """(a, b)-coefficient chart of a characteristic-2 unipotent tuple.

    Coefficients satisfy rho(w) = a(w) I + b(w) Z with Z the image of the
    base word; d(w) = det rho(w).  A chart obtained by transition keeps the
    root chart it descends from and the folded gluing constants c, k with
    a = a_root + c b_root and b = k b_root, so evaluation costs the same at
    any depth of a transition chain.
    """

    tup: RepTuple = field(repr=False)
    base_word: Word
    Z: Mat2
    root: Optional["ABChart"] = None
    c: Optional[FieldElement] = None
    k: Optional[FieldElement] = None

    @property
    def alpha_index(self) -> Optional[int]:
        if len(self.base_word) == 1 and self.base_word.letters[0] > 0:
            return self.base_word.letters[0]
        return None

    def d(self, w: Word) -> FieldElement:
        return self.tup.evaluate(w).det

    def a(self, w: Word) -> FieldElement:
        return self._ab(self.tup.evaluate(w))[0]

    def b(self, w: Word) -> FieldElement:
        return self._ab(self.tup.evaluate(w))[1]

    def coords(self, w: Word) -> tuple[FieldElement, FieldElement, FieldElement]:
        """(a(w), b(w), d(w)) from one evaluation of w."""
        M = self.tup.evaluate(w)
        return (*self._ab(M), M.det)

    def _ab(self, M: Mat2) -> tuple[FieldElement, FieldElement]:
        """(a, b) of a word image M: its coordinates in the root chart,
        carried to this chart by the folded constants c and k."""
        Z = self.Z if self.root is None else self.root.Z
        coords = M.span_coords(Z)
        if coords is None:
            raise NotUnipotentF2("image is outside span{I, Z}; tuple is not unipotent over F2")
        a, b = coords
        return (a, b) if self.root is None else (a + self.c * b, self.k * b)


def uf2_decompose(t: RepTuple) -> ABChart:
    """(a, b)-chart at the first non-scalar generator (characteristic 2)."""
    if t.spec.characteristic() != 2:
        raise CharNotTwo("(a, b)-charts are a characteristic-2 construction")
    if classify(t) is not MoldLabel.UNIPOTENT_F2:
        raise NotUnipotentF2("tuple is not in the characteristic-2 unipotent stratum")
    alpha = next(i for i, g in enumerate(t.gens, start=1) if not g.is_scalar)
    return ABChart(tup=t, base_word=Word((alpha,)), Z=t.gens[alpha - 1])


def uf2_reconstruct(ch: ABChart, w: Word) -> Mat2:
    """a(w) I + b(w) Z; det of the result equals d(w)."""
    a, b = ch._ab(ch.tup.evaluate(w))
    return Mat2.identity(ch.tup.spec).scale(a) + ch.Z.scale(b)


def uf2_transition(ch: ABChart, beta_word: Word) -> ABChart:
    """Re-base the chart at beta; defined on the overlap b(beta) != 0.

    The new coefficients follow the gluing formulas
    b'(w) = b(w) b(beta)^-1 and a'(w) = a(w) + a(beta) b(beta)^-1 b(w),
    folded into the root chart's constants: c' = c + a(beta) b(beta)^-1 k
    and k' = k b(beta)^-1.
    """
    Z = ch.tup.evaluate(beta_word)
    a_beta, b_beta = ch._ab(Z)
    if not b_beta:
        raise ChartOverlapEmpty("b(beta) = 0: the chart overlap is empty")
    spec = ch.tup.spec
    root, c, k = (ch, spec.zero(), spec.one()) if ch.root is None else (ch.root, ch.c, ch.k)
    b_inv = b_beta.inv()
    return ABChart(tup=ch.tup, base_word=beta_word, Z=Z,
                   root=root, c=c + a_beta * b_inv * k, k=k * b_inv)


def scalar_decompose(t: RepTuple) -> list[FieldElement]:
    """Character values c_i with A_i = c_i I for a scalar tuple."""
    if classify(t) is not MoldLabel.SCALAR:
        raise NotScalar("tuple is not in the scalar stratum")
    return [g.a11 for g in t.gens]
