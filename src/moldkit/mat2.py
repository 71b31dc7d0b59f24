"""2x2 matrices over an exact field: characteristic data, trace-free part,
companion-form normalization, commutant and commutator-image tests."""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import CharTwo, ScalarInput, SingularP
from .fields import FieldElement, FieldSpec


@dataclass(frozen=True, slots=True)
class Mat2:
    """A 2x2 matrix with all entries in one FieldSpec."""

    a11: FieldElement
    a12: FieldElement
    a21: FieldElement
    a22: FieldElement

    def __post_init__(self) -> None:
        s = self.a11.spec
        if not (self.a12.spec == s and self.a21.spec == s and self.a22.spec == s):
            raise ValueError("matrix entries from mixed field specs")

    @property
    def spec(self) -> FieldSpec:
        return self.a11.spec

    @classmethod
    def from_rows(cls, rows, spec: FieldSpec) -> "Mat2":
        (a, b), (c, d) = rows
        return cls(spec.element(a), spec.element(b), spec.element(c), spec.element(d))

    @classmethod
    def identity(cls, spec: FieldSpec) -> "Mat2":
        return cls(spec.one(), spec.zero(), spec.zero(), spec.one())

    @classmethod
    def zero(cls, spec: FieldSpec) -> "Mat2":
        z = spec.zero()
        return cls(z, z, z, z)

    @classmethod
    def companion(cls, trace: FieldElement, det: FieldElement) -> "Mat2":
        spec = trace.spec
        return cls(spec.zero(), -det, spec.one(), trace)

    @property
    def tr(self) -> FieldElement:
        return self.a11 + self.a22

    @property
    def det(self) -> FieldElement:
        return self.a11 * self.a22 - self.a12 * self.a21

    @property
    def m(self) -> FieldElement:
        t = self.tr
        return t * t - 4 * self.det

    @property
    def is_scalar(self) -> bool:
        return not self.a12 and not self.a21 and self.a11 == self.a22

    def entries(self) -> tuple[FieldElement, ...]:
        return (self.a11, self.a12, self.a21, self.a22)

    def values(self) -> tuple:
        """Raw entry values (a11, a12, a21, a22): residues or Fractions."""
        return (self.a11.value, self.a12.value, self.a21.value, self.a22.value)

    def rows(self):
        return [[self.a11, self.a12], [self.a21, self.a22]]

    def __add__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a11 + other.a11, self.a12 + other.a12,
                    self.a21 + other.a21, self.a22 + other.a22)

    def __sub__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a11 - other.a11, self.a12 - other.a12,
                    self.a21 - other.a21, self.a22 - other.a22)

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a11, -self.a12, -self.a21, -self.a22)

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def scale(self, c: FieldElement) -> "Mat2":
        return Mat2(c * self.a11, c * self.a12, c * self.a21, c * self.a22)

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
        d = self.det
        if not d:
            raise SingularP("matrix is singular")
        di = d.inv()
        return Mat2(di * self.a22, -(di * self.a12), -(di * self.a21), di * self.a11)

    def text(self) -> str:
        return (f"[[{self.a11.text()},{self.a12.text()}],"
                f"[{self.a21.text()},{self.a22.text()}]]")

    def __repr__(self) -> str:
        return f"Mat2({self.text()}:{self.spec})"


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
    half_tr = A.tr / A.spec.element(2)
    return A - Mat2.identity(A.spec).scale(half_tr)


def companion_normalize(A: Mat2) -> CompanionCert:
    """Deterministic change of basis to companion form [[0,-det],[1,tr]].

    The new basis is {v, Av} where v = e2, e1 or e1+e2 according to the
    first nonzero of b, c, a-d, in that order.
    """
    if A.is_scalar:
        raise ScalarInput("scalar matrices have no companion form")
    spec = A.spec
    one, zero = spec.one(), spec.zero()
    if A.a12:
        P = Mat2(zero, A.a12, one, A.a22)  # columns e2, A e2
        branch = "b"
    elif A.a21:
        P = Mat2(one, A.a11, zero, A.a21)  # columns e1, A e1
        branch = "c"
    else:
        v1 = A.a11 + A.a12
        v2 = A.a21 + A.a22
        P = Mat2(one, v1, one, v2)  # columns e1+e2, A (e1+e2)
        branch = "a-d"
    comp = Mat2.companion(A.tr, A.det)
    return CompanionCert(P=P, companion=comp, branch=branch)


def commutant_basis(A: Mat2) -> list[Mat2]:
    """Basis {I, A} of the commutant of a non-scalar A."""
    if A.is_scalar:
        raise ScalarInput("commutant of a scalar matrix is everything")
    return [Mat2.identity(A.spec), A]


def commutator_image_test(A: Mat2, Y: Mat2) -> bool:
    """True iff Y = AX - XA is solvable for X (A non-scalar, field case)."""
    if A.is_scalar:
        raise ScalarInput("commutator image is trivial for scalar A")
    # Linear system in the four unknown entries of X, row per entry of AX-XA.
    spec = A.spec
    z = spec.zero()
    a, b, c, d = A.entries()
    rows = [
        (z, -c, b, z),
        (-b, a - d, z, b),
        (c, z, d - a, -c),
        (z, c, -b, z),
    ]
    return linalg.solve(rows, Y.entries()) is not None


def conjugate(P: Mat2, A: Mat2) -> Mat2:
    """P^-1 A P; preserves (tr, det, m)."""
    if not P.det:
        raise SingularP("conjugating matrix is singular")
    return P.inverse() * A * P
