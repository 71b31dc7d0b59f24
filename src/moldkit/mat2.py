"""2x2 matrices over an exact field: characteristic data, trace-free part,
companion-form normalization, commutant and commutator-image tests.

A Mat2 stores its FieldSpec and one value representation over both
fields: integers (a, b, c, d) and a scale s > 0, the matrix being
[[a, b], [c, d]] / s, with residues in [0, p) and s = 1 over F_p and
gcd(a, b, c, d, s) = 1 over Q.  The form is canonical, so equality,
hashing, copy and pickle are exact.  Every result is normalised by one
constructor, _mat(spec, ints, s): over F_p it multiplies by s^-1 mod p,
over Q it divides by the gcd, with the sign that makes s > 0.
Arithmetic, trace, determinant and m are integer formulas that serve
both fields; values(), entries() and a11..a22 box on demand, one
Fraction per entry over Q (fields._ratio).  The kernels of words, mold,
invariants and canon read a matrix's _ints and _s directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import CharTwo, ScalarInput, SingularP
from .fields import FieldElement, FieldSpec, _fe, _new, _ratio
from .linalg import _int_scaled


def _normal(p: int | None, ints, s: int) -> tuple[tuple, int]:
    """The canonical form of the matrix ints/s, s != 0 (and prime to p):
    residues of s^-1 ints with scale 1 over F_p, and over Q ints and s
    divided by their gcd, with the sign that makes s > 0."""
    a, b, c, d = ints
    if p:
        if s != 1:
            k = pow(s, -1, p)
            a, b, c, d = a * k, b * k, c * k, d * k
        return (a % p, b % p, c % p, d % p), 1
    g = gcd(a, b, c, d, s) if s > 0 else -gcd(a, b, c, d, s)
    return ((a // g, b // g, c // g, d // g), s // g) if g != 1 else ((a, b, c, d), s)


def _make(spec: FieldSpec, ints: tuple, s: int) -> "Mat2":
    """A Mat2 from a spec and a canonical form (ints, s), unchecked."""
    M = _new(Mat2)
    _set_spec(M, spec)
    _set_ints(M, ints)
    _set_s(M, s)
    return M


def _mat(spec: FieldSpec, ints, s: int = 1) -> "Mat2":
    """The Mat2 ints/s over spec, normalised (_normal)."""
    ints, s = _normal(spec.p, ints, s)
    return _make(spec, ints, s)


def _inverse(p: int | None, ints, s: int) -> tuple[tuple, int]:
    """The canonical form of M^-1 for M = ints/s: s adj(ints) / det(ints),
    normalised; SingularP when det(ints) vanishes (mod p over F_p)."""
    a, b, c, d = ints
    det = a * d - b * c
    if not (det % p if p else det):
        raise SingularP("matrix is singular")
    return _normal(p, (s * d, -s * b, -s * c, s * a), det)


def _entry(i: int) -> property:
    return property(lambda self: _fe(_ratio(self.spec.p, self._ints[i], self._s), self.spec))


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Mat2:
    """A 2x2 matrix over one FieldSpec, stored as that spec, the integers
    (a11, a12, a21, a22) and the scale s of its canonical form (module
    docstring); equality and hashing are on all three.  Operations between
    two matrices raise ValueError when their specs differ."""

    spec: FieldSpec
    _ints: tuple
    _s: int

    def __init__(self, a11: FieldElement, a12: FieldElement,
                 a21: FieldElement, a22: FieldElement) -> None:
        spec = a11.spec
        ints, s = _int_scaled(tuple(map(spec.canonical, (a11, a12, a21, a22))))
        _set_spec(self, spec)
        _set_ints(self, ints)
        _set_s(self, s)

    a11, a12, a21, a22 = (_entry(i) for i in range(4))

    @classmethod
    def from_rows(cls, rows, spec: FieldSpec) -> "Mat2":
        """The matrix [[a, b], [c, d]] of ints, Fractions or elements of
        spec, each made canonical as FieldSpec.canonical does.  Reduced
        ratios scaled by the lcm of their denominators (linalg._int_scaled)
        are already in canonical form, so Q entries are scaled once."""
        (a, b), (c, d) = rows
        p = spec.p
        if p and type(a) is int and type(b) is int and type(c) is int and type(d) is int:
            return _mat(spec, (a, b, c, d))
        if (not p and type(a) in _RATIONAL and type(b) in _RATIONAL
                and type(c) in _RATIONAL and type(d) in _RATIONAL):
            return _make(spec, *_int_scaled((a, b, c, d)))
        return _make(spec, *_int_scaled(tuple(map(spec.canonical, (a, b, c, d)))))

    @classmethod
    def identity(cls, spec: FieldSpec) -> "Mat2":
        return _make(spec, (1, 0, 0, 1), 1)

    @classmethod
    def zero(cls, spec: FieldSpec) -> "Mat2":
        return _make(spec, (0, 0, 0, 0), 1)

    @classmethod
    def companion(cls, trace: FieldElement, det: FieldElement) -> "Mat2":
        spec = trace.spec
        return cls(spec.zero(), -det, spec.one(), trace)

    @property
    def tr(self) -> FieldElement:
        a, _, _, d = self._ints
        return _fe(_ratio(self.spec.p, a + d, self._s), self.spec)

    @property
    def det(self) -> FieldElement:
        a, b, c, d = self._ints
        return _fe(_ratio(self.spec.p, a * d - b * c, self._s ** 2), self.spec)

    @property
    def m(self) -> FieldElement:
        """tr^2 - 4 det, computed as (a11 - a22)^2 + 4 a12 a21."""
        a, b, c, d = self._ints
        return _fe(_ratio(self.spec.p, (a - d) ** 2 + 4 * b * c, self._s ** 2), self.spec)

    @property
    def is_scalar(self) -> bool:
        a, b, c, d = self._ints
        return not b and not c and a == d

    def entries(self) -> tuple[FieldElement, ...]:
        spec = self.spec
        return tuple([_fe(v, spec) for v in self.values()])

    def values(self) -> tuple:
        """Raw entry values (a11, a12, a21, a22): residues over F_p, and
        Fractions over Q, boxed when called."""
        p, s = self.spec.p, self._s
        return tuple([_ratio(p, x, s) for x in self._ints])

    def _common_spec(self, other: "Mat2") -> FieldSpec:
        spec = self.spec
        if other.spec is not spec and other.spec != spec:
            raise ValueError(f"mixed field arithmetic: {spec} vs {other.spec}")
        return spec

    def __add__(self, other: "Mat2") -> "Mat2":
        spec = self._common_spec(other)
        s, t = self._s, other._s
        return _mat(spec, [x * t + y * s for x, y in zip(self._ints, other._ints)], s * t)

    def __sub__(self, other: "Mat2") -> "Mat2":
        spec = self._common_spec(other)
        s, t = self._s, other._s
        return _mat(spec, [x * t - y * s for x, y in zip(self._ints, other._ints)], s * t)

    def __neg__(self) -> "Mat2":
        return _mat(self.spec, [-x for x in self._ints], self._s)

    def __mul__(self, other: "Mat2") -> "Mat2":
        spec = self._common_spec(other)
        a, b, c, d = self._ints
        e, f, g, h = other._ints
        return _mat(spec, (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h),
                    self._s * other._s)

    def scale(self, c: FieldElement) -> "Mat2":
        k, n = self.spec.canonical(c).as_integer_ratio()
        return _mat(self.spec, [k * x for x in self._ints], n * self._s)

    def pow(self, n: int) -> "Mat2":
        if n < 0:
            return self.inverse().pow(-n)
        acc = Mat2.identity(self.spec)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def inverse(self) -> "Mat2":
        return _make(self.spec, *_inverse(self.spec.p, self._ints, self._s))

    def text(self) -> str:
        return "[[{},{}],[{},{}]]".format(*(e.text() for e in self.entries()))

    def __repr__(self) -> str:
        return f"Mat2({self.text()}:{self.spec})"


_RATIONAL = (int, Fraction)

# The slots' member descriptors, as in fields: they set a frozen instance's
# fields without the by-name lookup of object.__setattr__.
_set_spec = Mat2.spec.__set__
_set_ints = Mat2._ints.__set__
_set_s = Mat2._s.__set__


@dataclass(frozen=True, slots=True)
class CompanionCert:
    """Certificate P with P^-1 A P = [[0, -det A], [1, tr A]]."""

    P: Mat2
    companion: Mat2
    branch: str  # which unit made the basis work: "b", "c" or "a-d"


def char_data(A: Mat2) -> tuple[FieldElement, FieldElement, FieldElement]:
    """(trace, determinant, m) with m = tr^2 - 4 det."""
    return A.tr, A.det, A.m


def eta(A: Mat2) -> Mat2:
    """Trace-free part A - (tr A / 2) I = (a - d, 2b, 2c, d - a) / 2s for
    A = (a, b, c, d) / s; rejected in characteristic 2."""
    if A.spec.characteristic() == 2:
        raise CharTwo("eta is undefined in characteristic 2")
    a, b, c, d = A._ints
    return _mat(A.spec, (a - d, 2 * b, 2 * c, d - a), 2 * A._s)


def _companion_frame(a, b, c, d) -> tuple[tuple, str]:
    """The frame [v | A v] of a non-scalar A = (a, b, c, d) as entries,
    and its branch: v = e2, e1 or e1 + e2 by the first nonzero of b, c and
    a - d.  The entries are A's own and the ints 0 and 1, so for A given
    by its integers (a, b, c, d) = s A the branch is A's and the frame is
    [v | s A v]."""
    if b:
        return (0, b, 1, d), "b"  # columns e2, A e2
    if c:
        return (1, a, 0, c), "c"  # columns e1, A e1
    return (1, a, 1, d), "a-d"  # columns e1 + e2, A (e1 + e2), with b = c = 0


def companion_normalize(A: Mat2) -> CompanionCert:
    """Deterministic change of basis to companion form [[0,-det],[1,tr]].

    The new basis is {v, Av} where v = e2, e1 or e1+e2 according to the
    first nonzero of b, c, a-d, in that order (_companion_frame).  For A =
    A'/s the frame of A' is [v | A'v], so P = [s v | A'v] / s, and the
    companion form is (0, -det A', s^2, s tr A') / s^2; it equals
    Mat2.companion(A.tr, A.det).
    """
    if A.is_scalar:
        raise ScalarInput("scalar matrices have no companion form")
    spec, (a, b, c, d), s = A.spec, A._ints, A._s
    (x, y, z, w), branch = _companion_frame(a, b, c, d)
    P = _mat(spec, (s * x, y, s * z, w), s)
    companion = _mat(spec, (0, b * c - a * d, s * s, (a + d) * s), s * s)
    return CompanionCert(P=P, companion=companion, branch=branch)


def commutant_basis(A: Mat2) -> list[Mat2]:
    """Basis {I, A} of the commutant of a non-scalar A."""
    if A.is_scalar:
        raise ScalarInput("commutant of a scalar matrix is everything")
    return [Mat2.identity(A.spec), A]


def commutator_image_test(A: Mat2, Y: Mat2) -> bool:
    """True iff Y = AX - XA is solvable for X (A non-scalar, field case)."""
    if A.is_scalar:
        raise ScalarInput("commutator image is trivial for scalar A")
    # The image of X -> AX - XA is the complement of the commutant span{I, A}
    # under the nondegenerate trace form: tr Y = tr AY = 0.
    return not (A * Y).tr and not Y.tr


def conjugate(P: Mat2, A: Mat2) -> Mat2:
    """P^-1 A P; preserves (tr, det, m).  Raises SingularP for a singular P."""
    return P.inverse() * A * P
