"""Equivalence deciders with certificates and the canonical decompositions
for the semi-simple, unipotent and characteristic-2 unipotent strata."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations, product
from math import gcd, lcm
from typing import NamedTuple, Optional

from . import linalg
from .errors import (
    BudgetExceeded,
    CharNotTwo,
    CharTwo,
    ChartOverlapEmpty,
    MoldkitError,
    NoSplitGenerator,
    NotScalar,
    NotSemiSimple,
    NotUnipotent,
    NotUnipotentF2,
    ScalarInput,
)
from .fields import FieldElement, Value, _fe, _ratio
from .invariants import MAX_TRACES, _split_entries
from .mat2 import Mat2, _companion_frame, _mat
from .mold import MoldLabel, classify
from .words import GROUP, RepTuple, Word


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


class _Algebra(NamedTuple):
    """The commutative algebra span{I, X} of a chart matrix X = X'/s,
    read from integer-scaled views: X' = (a', b', c', d') and s, with tr'
    and det' the trace and determinant of X'.  gens holds for each
    generator A_i the integer triple (U, V, D) with A_i = (U I + V X')/D;
    invs holds the triples of the inverses in group mode and is None in
    monoid mode.  Triples are residues over F_p, with D = 1 in gens, and
    over Q have gcd 1 and D > 0 (_triple)."""

    p: int | None
    x: tuple
    s: int
    tr: int
    det: int
    gens: tuple
    invs: Optional[tuple]

    def fold(self, w: Word) -> tuple:
        """The triple (U, V, D) of rho(w) = (U I + V X')/D, multiplied
        letter by letter from (1, 0, 1) as (U + V X')(u + v X') =
        (U u - V v det') + (U v + u V + V v tr') X', since X'^2 = tr' X' -
        det' I, with D = 1 over F_p (one inverse at the end, if an inverse
        letter made D != 1).  A bad letter raises what RepTuple.evaluate
        raises for it."""
        p, tr, det, gens, invs = self.p, self.tr, self.det, self.gens, self.invs
        U, V, D = 1, 0, 1
        for i in w.letters:
            if i > 0:
                u, v, e = gens[i - 1]
            elif invs is None:
                raise ValueError("inverse letters require group mode")
            else:
                u, v, e = invs[-i - 1]
            U, V, D = U * u - V * v * det, U * v + u * V + V * v * tr, D * e
            if p:
                U, V, D = U % p, V % p, D % p
            elif (k := gcd(U, V, D)) != 1:
                U, V, D = U // k, V // k, D // k
        if p and D != 1:
            inv = pow(D, -1, p)
            return U * inv % p, V * inv % p, 1
        return U, V, D

    def image(self, f: tuple) -> tuple:
        """Canonical raw entries of the fold f's image (U I + V X')/D."""
        U, V, D = f
        p, (a, b, c, d) = self.p, self.x
        return (_ratio(p, U + V * a, D), _ratio(p, V * b, D), _ratio(p, V * c, D),
                _ratio(p, U + V * d, D))

    def det_of(self, f: tuple) -> Value:
        """Canonical raw det of the fold f's image: det(U I + V X')/D^2."""
        U, V, D = f
        return _ratio(self.p, _norm(self, U, V), D * D)


def _norm(alg: _Algebra, u: int, v: int) -> int:
    """det(u I + v X') = u^2 + u v tr' + v^2 det'."""
    return u * u + u * v * alg.tr + v * v * alg.det


def _triple(p: int | None, U: int, V: int, D: int) -> tuple:
    """(U, V, D) as residues over F_p, and over Q divided by the gcd with
    the sign that makes D > 0."""
    if p:
        return U % p, V % p, D % p
    k = gcd(U, V, D) if D > 0 else -gcd(U, V, D)
    return U // k, V // k, D // k


def _algebra(tup: RepTuple, X: tuple, outside: type[MoldkitError]) -> _Algebra:
    """The _Algebra of span{I, X} over tup's generators for a chart matrix
    given as its integer-scaled pair (X', s).  This is where a chart
    refuses its tuple: ScalarInput for a scalar X, and the error type
    outside when a generator lies outside the span.

    A generator A = (a, b, c, d)/t lies in the span when its entries agree
    with X' off the identity: with the pivot pi the first nonzero of b', c'
    and a' - d', and mu A's entry at the pivot (b, c or a - d), that is
    b pi = mu b', c pi = mu c' and (a - d) pi = mu (a' - d'), checked on
    integers, mod p over F_p.  Then A = ((a pi - mu a') I + mu X')/(t pi),
    over F_p times one inverse of pi, so D = 1 (t = 1).  The inverse of
    (u I + v X')/e is e ((u + v tr') I - v X')/det(u I + v X'), nonzero in
    group mode.
    """
    p = tup.spec.p
    (a_, b_, c_, d_), s = X
    pivot = b_ or c_ or a_ - d_
    if not pivot:
        raise ScalarInput("span{I, X} needs a non-scalar X")
    inv = pow(pivot, -1, p) if p else 1
    tr, det = a_ + d_, a_ * d_ - b_ * c_
    gens = []
    for i, ((a, b, c, d), t) in enumerate(tup._scaled, start=1):
        mu = b if b_ else c if c_ else a - d
        off = (b * pivot - mu * b_, c * pivot - mu * c_, (a - d) * pivot - mu * (a_ - d_))
        if any(x % p for x in off) if p else any(off):
            raise outside(f"generator A_{i} is outside the chart span; tuple is not unipotent")
        gens.append(_triple(p, (a * pivot - mu * a_) * inv, mu * inv, t * pivot * inv))
    alg = _Algebra(p, X[0], s, tr, det, tuple(gens), None)
    if tup.mode != GROUP:
        return alg
    return alg._replace(invs=tuple(_triple(p, e * (u + v * tr), -e * v, _norm(alg, u, v))
                                   for u, v, e in gens))


@dataclass(frozen=True)
class CharDeriv:
    """Character r = tr/2 and derivation d coordinatizing a unipotent tuple.

    d is normalized by d(alpha) = 1 at the chart generator alpha.  Since
    w -> r(w) + d(w) eps is an algebra map into the dual numbers, values on
    words are folded on integers from the generators' coordinates in
    span{I, A_alpha} (_Algebra.fold), which the chart keeps in its
    instance __dict__ as _algebra: not a field, so it takes no part in
    equality, hashing or repr, and a copied or pickled chart carries it.
    Construction refuses a chart that cannot fold: CharTwo in
    characteristic 2, IndexError for alpha_index outside 1..rank,
    ScalarInput for a scalar A_alpha and NotUnipotent for a generator
    outside span{I, A_alpha}.
    """

    tup: RepTuple = field(repr=False)
    alpha_index: int
    eta_mat: Mat2

    def __post_init__(self) -> None:
        t, i = self.tup, self.alpha_index
        if t.spec.characteristic() == 2:
            raise CharTwo("unipotent charts over characteristic 2 use the (a, b) machinery")
        if not 0 < i <= t.rank:
            raise IndexError(f"alpha_index {i} is outside 1..{t.rank}")
        self.__dict__["_algebra"] = _algebra(t, t._scaled[i - 1], NotUnipotent)

    def r(self, w: Word) -> FieldElement:
        return self.coords(w)[0]

    def d(self, w: Word) -> FieldElement:
        return self.coords(w)[1]

    def coords(self, w: Word) -> tuple[FieldElement, FieldElement]:
        """(r(w), d(w)): for rho(w) = (U I + V A')/D with A_alpha = A'/s,
        r = (2U + V tr')/(2D) and d = V s/D, the coordinate of A_alpha, so
        that eta(rho(w)) = d eta(A_alpha)."""
        alg, spec = self._algebra, self.tup.spec
        U, V, D = alg.fold(w)
        p = spec.p
        return _fe(_ratio(p, 2 * U + V * alg.tr, 2 * D), spec), _fe(_ratio(p, V * alg.s, D), spec)


def unipotent_decompose(t: RepTuple) -> CharDeriv:
    """Character/derivation chart of a unipotent tuple (characteristic != 2),
    at the first non-scalar generator A_alpha = A'/s, whose eta is boxed
    from the view as ((a' - d')/2s, b'/s, c'/s, (d' - a')/2s)."""
    if t.spec.characteristic() == 2:
        raise CharTwo("unipotent charts over characteristic 2 use the (a, b) machinery")
    if classify(t) is not MoldLabel.UNIPOTENT:
        raise NotUnipotent("tuple is not in the unipotent stratum")
    alpha = next(i for i, g in enumerate(t.gens, start=1) if not g.is_scalar)
    p, ((a, b, c, d), s) = t.spec.p, t._scaled[alpha - 1]
    eta_mat = _mat(t.spec, (_ratio(p, a - d, 2 * s), _ratio(p, b, s), _ratio(p, c, s),
                            _ratio(p, d - a, 2 * s)))
    return CharDeriv(tup=t, alpha_index=alpha, eta_mat=eta_mat)


def unipotent_reconstruct(cd: CharDeriv, w: Word) -> Mat2:
    """r(w) I + d(w) eta(alpha), which is rho(w) itself: its entries
    (U + V a', V b', V c', U + V d')/D from the fold, each boxed once."""
    alg = cd._algebra
    return _mat(cd.tup.spec, alg.image(alg.fold(w)))


@dataclass(frozen=True)
class ABChart:
    """(a, b)-coefficient chart of a characteristic-2 unipotent tuple.

    Coefficients satisfy rho(w) = a(w) I + b(w) Z with Z the image of the
    base word; d(w) = det rho(w).  A chart obtained by transition keeps the
    root chart it descends from and the folded gluing constants c, k with
    a = a_root + c b_root and b = k b_root, so evaluation costs the same at
    any depth of a transition chain.  Values are folded on integers in the
    root chart's span{I, Z} (_Algebra.fold), kept in the root's instance
    __dict__ as _algebra and shared by its transition charts, as in
    CharDeriv.  Constructing a root chart refuses one that cannot fold:
    ValueError for a Z over another field, ScalarInput for a scalar Z and
    NotUnipotentF2 for a generator outside span{I, Z}.
    """

    tup: RepTuple = field(repr=False)
    base_word: Word
    Z: Mat2
    root: Optional["ABChart"] = None
    c: Optional[FieldElement] = None
    k: Optional[FieldElement] = None

    def __post_init__(self) -> None:
        if self.root is not None:
            self.__dict__["_algebra"] = self.root._algebra
            return
        spec = self.tup.spec
        if self.Z.spec != spec:
            raise ValueError(f"mixed field arithmetic: {spec} vs {self.Z.spec}")
        Z = self.Z.values()
        X = (Z, 1) if spec.p else linalg._int_scaled(Z)
        self.__dict__["_algebra"] = _algebra(self.tup, X, NotUnipotentF2)

    @property
    def alpha_index(self) -> Optional[int]:
        if len(self.base_word) == 1 and self.base_word.letters[0] > 0:
            return self.base_word.letters[0]
        return None

    def d(self, w: Word) -> FieldElement:
        alg = self._algebra
        return _fe(alg.det_of(alg.fold(w)), self.tup.spec)

    def a(self, w: Word) -> FieldElement:
        return self.coords(w)[0]

    def b(self, w: Word) -> FieldElement:
        return self.coords(w)[1]

    def coords(self, w: Word) -> tuple[FieldElement, FieldElement, FieldElement]:
        """(a(w), b(w), d(w)) from one fold of w."""
        alg = self._algebra
        f = alg.fold(w)
        return (*self._fold_ab(f), _fe(alg.det_of(f), self.tup.spec))

    def _fold_ab(self, f: tuple) -> tuple[FieldElement, FieldElement]:
        """(a, b) of the fold f of a word in the root chart: a_root = U/D
        and b_root = V s/D for Z_root = Z'/s, carried by c = c1/c2 and
        k = k1/k2 as a = (U c2 + c1 V s)/(D c2) and b = k1 V s/(k2 D)."""
        U, V, D = f
        spec = self.tup.spec
        c1, c2, k1, k2 = (0, 1, 1, 1) if self.root is None else (
            *self.c.value.as_integer_ratio(), *self.k.value.as_integer_ratio())
        Vs = V * self._algebra.s
        return (_fe(_ratio(spec.p, U * c2 + c1 * Vs, D * c2), spec),
                _fe(_ratio(spec.p, k1 * Vs, k2 * D), spec))


def uf2_decompose(t: RepTuple) -> ABChart:
    """(a, b)-chart at the first non-scalar generator (characteristic 2)."""
    if t.spec.characteristic() != 2:
        raise CharNotTwo("(a, b)-charts are a characteristic-2 construction")
    if classify(t) is not MoldLabel.UNIPOTENT_F2:
        raise NotUnipotentF2("tuple is not in the characteristic-2 unipotent stratum")
    alpha = next(i for i, g in enumerate(t.gens, start=1) if not g.is_scalar)
    return ABChart(tup=t, base_word=Word((alpha,)), Z=t.gens[alpha - 1])


def uf2_reconstruct(ch: ABChart, w: Word) -> Mat2:
    """a(w) I + b(w) Z; det of the result equals d(w).  It is rho(w) =
    (U I + V Z')/D from the fold in the root chart, each entry boxed once,
    which in characteristic 2 is a(w) I + b(w) Z at any depth of a
    transition chain."""
    alg = ch._algebra
    return _mat(ch.tup.spec, alg.image(alg.fold(w)))


def uf2_transition(ch: ABChart, beta_word: Word) -> ABChart:
    """Re-base the chart at beta; defined on the overlap b(beta) != 0.

    The new coefficients follow the gluing formulas
    b'(w) = b(w) b(beta)^-1 and a'(w) = a(w) + a(beta) b(beta)^-1 b(w),
    folded into the root chart's constants c' = c + a(beta) b(beta)^-1 k
    and k' = k b(beta)^-1.  With the fold (U, V, D) of beta in the root
    chart, Z_root = Z'/s and c = c1/c2, b(beta) = k V s/D and a(beta) =
    U/D + c V s/D, so the overlap is V != 0, k' = D/(V s) and c' = 2c +
    U/(V s) = (2 c1 V s + U c2)/(c2 V s), one integer ratio each; the new
    Z = rho(beta) is boxed from the same fold.
    """
    alg, spec = ch._algebra, ch.tup.spec
    f = alg.fold(beta_word)
    U, V, D = f
    if not V:
        raise ChartOverlapEmpty("b(beta) = 0: the chart overlap is empty")
    c1, c2 = (0, 1) if ch.root is None else ch.c.value.as_integer_ratio()
    p, Vs = spec.p, V * alg.s
    return ABChart(tup=ch.tup, base_word=beta_word, Z=_mat(spec, alg.image(f)),
                   root=ch if ch.root is None else ch.root,
                   c=_fe(_ratio(p, 2 * c1 * Vs + U * c2, c2 * Vs), spec),
                   k=_fe(_ratio(p, D, Vs), spec))


def scalar_decompose(t: RepTuple) -> list[FieldElement]:
    """Character values c_i with A_i = c_i I for a scalar tuple."""
    if classify(t) is not MoldLabel.SCALAR:
        raise NotScalar("tuple is not in the scalar stratum")
    return [g.a11 for g in t.gens]
