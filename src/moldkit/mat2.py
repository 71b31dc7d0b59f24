"""2x2 matrices over an exact field: characteristic data, trace-free part,
companion-form normalization, commutant and commutator-image tests.

A Mat2 stores its FieldSpec once and its four entries as canonical raw
values: residues in [0, p) over F_p, reduced Fractions over Q.  Arithmetic
runs on the raw values, reducing each result through FieldSpec.reduce; the
entries, trace, determinant and m are boxed as FieldElements when read.
Internal constructors (_mat) set the two fields through the slots' member
descriptors, without a per-call object.__setattr__; from_rows reduces
plain int entries mod p directly, and over Q stores four Fractions as
they are.  companion_normalize builds its companion form (0, -det, 1, tr)
from A's integer-scaled entries (a, b, c, d)/s, A's residues with s = 1
over F_p, as the ratios (bc - ad)/s^2 and (a + d)/s (fields._ratio), so no
Fraction arithmetic runs; Mat2.companion is the public constructor of the
same matrix from boxed trace and determinant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, neg, sub

from .errors import CharTwo, ScalarInput, SingularP
from .fields import FieldElement, FieldSpec, _fe, _new, _ratio
from .linalg import _int_scaled


def _mat(spec: FieldSpec, values: tuple) -> "Mat2":
    """A Mat2 from a spec and four canonical raw values, unchecked."""
    M = _new(Mat2)
    _set_spec(M, spec)
    _set_values(M, values)
    return M


def _entry(i: int) -> property:
    return property(lambda self: _fe(self._values[i], self.spec))


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Mat2:
    """A 2x2 matrix over one FieldSpec, stored as that spec and the tuple of
    its canonical raw entries (a11, a12, a21, a22); equality and hashing
    are on both.  Operations between two matrices raise ValueError when
    their specs differ."""

    spec: FieldSpec
    _values: tuple

    def __init__(self, a11: FieldElement, a12: FieldElement,
                 a21: FieldElement, a22: FieldElement) -> None:
        _set_spec(self, a11.spec)
        _set_values(self, tuple(map(a11.spec.canonical, (a11, a12, a21, a22))))

    a11, a12, a21, a22 = (_entry(i) for i in range(4))

    @classmethod
    def from_rows(cls, rows, spec: FieldSpec) -> "Mat2":
        """The matrix [[a, b], [c, d]] of ints, Fractions or elements of
        spec, each made canonical as FieldSpec.canonical does."""
        (a, b), (c, d) = rows
        p = spec.p
        if p and type(a) is int and type(b) is int and type(c) is int and type(d) is int:
            return _mat(spec, (a % p, b % p, c % p, d % p))
        if (not p and type(a) is Fraction and type(b) is Fraction
                and type(c) is Fraction and type(d) is Fraction):
            return _mat(spec, (a, b, c, d))
        return _mat(spec, tuple(map(spec.canonical, (a, b, c, d))))

    @classmethod
    def identity(cls, spec: FieldSpec) -> "Mat2":
        one, zero = spec.canonical(1), spec.canonical(0)
        return _mat(spec, (one, zero, zero, one))

    @classmethod
    def zero(cls, spec: FieldSpec) -> "Mat2":
        return _mat(spec, (spec.canonical(0),) * 4)

    @classmethod
    def companion(cls, trace: FieldElement, det: FieldElement) -> "Mat2":
        spec = trace.spec
        return cls(spec.zero(), -det, spec.one(), trace)

    @property
    def tr(self) -> FieldElement:
        return _fe(self.spec.reduce(self._values[0] + self._values[3]), self.spec)

    @property
    def det(self) -> FieldElement:
        a, b, c, d = self._values
        return _fe(self.spec.reduce(a * d - b * c), self.spec)

    @property
    def m(self) -> FieldElement:
        """tr^2 - 4 det, computed as (a11 - a22)^2 + 4 a12 a21."""
        a, b, c, d = self._values
        return _fe(self.spec.reduce((a - d) ** 2 + 4 * b * c), self.spec)

    @property
    def is_scalar(self) -> bool:
        a, b, c, d = self._values
        return not b and not c and a == d

    def entries(self) -> tuple[FieldElement, ...]:
        return tuple(_fe(v, self.spec) for v in self._values)

    def values(self) -> tuple:
        """Raw entry values (a11, a12, a21, a22): residues or Fractions."""
        return self._values

    def _common_spec(self, other: "Mat2") -> FieldSpec:
        spec = self.spec
        if other.spec is not spec and other.spec != spec:
            raise ValueError(f"mixed field arithmetic: {spec} vs {other.spec}")
        return spec

    def __add__(self, other: "Mat2") -> "Mat2":
        spec = self._common_spec(other)
        return _mat(spec, tuple(map(spec.reduce, map(add, self._values, other._values))))

    def __sub__(self, other: "Mat2") -> "Mat2":
        spec = self._common_spec(other)
        return _mat(spec, tuple(map(spec.reduce, map(sub, self._values, other._values))))

    def __neg__(self) -> "Mat2":
        return _mat(self.spec, tuple(map(self.spec.reduce, map(neg, self._values))))

    def __mul__(self, other: "Mat2") -> "Mat2":
        spec = self._common_spec(other)
        r = spec.reduce
        a, b, c, d = self._values
        e, f, g, h = other._values
        return _mat(spec, (r(a * e + b * g), r(a * f + b * h),
                           r(c * e + d * g), r(c * f + d * h)))

    def scale(self, c: FieldElement) -> "Mat2":
        k, r = self.spec.canonical(c), self.spec.reduce
        return _mat(self.spec, tuple(r(k * x) for x in self._values))

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
        spec = self.spec
        r = spec.reduce
        a, b, c, d = self._values
        det = r(a * d - b * c)
        if not det:
            raise SingularP("matrix is singular")
        i = pow(det, -1, spec.p)
        return _mat(spec, (r(d * i), r(-b * i), r(-c * i), r(a * i)))

    def text(self) -> str:
        return "[[{},{}],[{},{}]]".format(*(e.text() for e in self.entries()))

    def __repr__(self) -> str:
        return f"Mat2({self.text()}:{self.spec})"


# The slots' member descriptors, as in fields: they set a frozen instance's
# fields without the by-name lookup of object.__setattr__.
_set_spec = Mat2.spec.__set__
_set_values = Mat2._values.__set__


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
    """Trace-free part A - (tr A / 2) I; rejected in characteristic 2."""
    if A.spec.characteristic() == 2:
        raise CharTwo("eta is undefined in characteristic 2")
    return A - Mat2.identity(A.spec).scale(A.tr / A.spec.element(2))


def _companion_frame(a, b, c, d) -> tuple[tuple, str]:
    """The frame [v | A v] of a non-scalar A = (a, b, c, d) as raw entries,
    and its branch: v = e2, e1 or e1 + e2 by the first nonzero of b, c and
    a - d.  The entries are A's own values and the ints 0 and 1, so the
    rule serves residues, Fractions and integer-scaled entries alike."""
    if b:
        return (0, b, 1, d), "b"  # columns e2, A e2
    if c:
        return (1, a, 0, c), "c"  # columns e1, A e1
    return (1, a, 1, d), "a-d"  # columns e1 + e2, A (e1 + e2), with b = c = 0


def companion_normalize(A: Mat2) -> CompanionCert:
    """Deterministic change of basis to companion form [[0,-det],[1,tr]].

    The new basis is {v, Av} where v = e2, e1 or e1+e2 according to the
    first nonzero of b, c, a-d, in that order (_companion_frame).  P is
    built from A's raw values, and the companion form from A's
    integer-scaled entries (A's residues with scale 1 over F_p) through
    fields._ratio; it equals Mat2.companion(A.tr, A.det).
    """
    if A.is_scalar:
        raise ScalarInput("scalar matrices have no companion form")
    spec, p = A.spec, A.spec.p
    frame, branch = _companion_frame(*A._values)
    P = _mat(spec, tuple(map(spec.canonical, frame)))
    (a, b, c, d), s = (A._values, 1) if p else _int_scaled(A._values)
    companion = _mat(spec, (spec.canonical(0), _ratio(p, b * c - a * d, s * s),
                            spec.canonical(1), _ratio(p, a + d, s)))
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
