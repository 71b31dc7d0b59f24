"""Exact arithmetic over prime fields F_p and the rationals.

Elements are immutable and canonical: an F_p value is stored as an int in
[0, p), a rational as a reduced Fraction with positive denominator, so
equal elements always have identical representations.  FieldSpec.canonical
is the one canonicalisation and FieldSpec.parse the one text parser.

FieldSpec.prime(p) and FieldSpec.rationals() return one shared instance per
modulus from a bounded store, so the specs of one field are usually
identical objects and `spec is other` settles most spec checks; a refused
modulus raises on every call and is never stored.  FieldSpec(p) itself
still validates p and builds a new, equal instance.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Union

from .errors import BudgetExceeded, ZeroInverse

Value = Union[int, Fraction]

_MR_BASES = (2, 3, 5, 7)  # deterministic Miller-Rabin witnesses for n < 3.2e9


def is_prime(n: int) -> bool:
    """Deterministic primality test, exact for n < 3,215,031,751."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True, slots=True)
class FieldSpec:
    """A prime field F_p (p prime) or the rationals (p is None)."""

    p: int | None

    def __post_init__(self) -> None:
        if self.p is not None:
            if self.p >= 2**31:
                raise ValueError(f"prime modulus too large: {self.p}")
            if not is_prime(self.p):
                raise ValueError(f"modulus is not prime: {self.p}")

    @classmethod
    def prime(cls, p: int) -> "FieldSpec":
        """The shared spec of F_p; ValueError for a modulus FieldSpec(p)
        refuses."""
        return _shared_spec(p)

    @classmethod
    def rationals(cls) -> "FieldSpec":
        """The shared spec of Q."""
        return _shared_spec(None)

    @property
    def is_rationals(self) -> bool:
        return self.p is None

    def characteristic(self) -> int:
        return 0 if self.p is None else self.p

    def reduce(self, x: Value) -> Value:
        """Canonical value of an exact ring result: x mod p over F_p, and x
        itself over Q, where Fraction arithmetic keeps results reduced."""
        return x if self.p is None else x % self.p

    def canonical(self, value) -> Value:
        """Canonical raw value of an int, a Fraction or an element of this
        spec: v mod p over F_p (a Fraction through its denominator's
        inverse), or Fraction(v) over Q, a Fraction itself unchanged."""
        p = self.p
        if isinstance(value, FieldElement):
            if value.spec is not self and value.spec != self:
                raise ValueError(f"element of {value.spec} used in {self}")
            return value.value
        if p is None:
            return value if type(value) is Fraction else Fraction(value)
        if type(value) is int:
            return value % p
        if isinstance(value, Fraction):
            if value.denominator % p == 0:
                raise ValueError(f"denominator not invertible mod {p}")
            return value.numerator * pow(value.denominator, -1, p) % p
        return int(value) % p

    def element(self, value) -> "FieldElement":
        """Canonical element from an int, Fraction or another element."""
        return _fe(self.canonical(value), self)

    def zero(self) -> "FieldElement":
        return self.element(0)

    def one(self) -> "FieldElement":
        return self.element(1)

    def parse(self, text: str) -> "FieldElement":
        """Parse the text encoding: decimal for F_p, "a/b" or decimal for Q.
        ValueError for malformed text, and for Q text whose digit count or
        exponent exceeds the int-string limit, checked before Fraction runs."""
        if self.p is not None:
            return self.element(int(text))
        limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        exponent = text.lower().partition("e")[2].strip().lstrip("+-").replace("_", "")
        if sum(map(str.isdecimal, text)) > limit or exponent.isdecimal() and int(exponent) > limit:
            shown = repr(text[:20]) + ("..." if len(text) > 20 else "")
            raise ValueError(f"rational {shown} exceeds {limit} digits or exponent")
        try:
            return self.element(Fraction(text))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"malformed rational {text!r}") from None

    def __str__(self) -> str:
        return "Q" if self.p is None else f"F{self.p}"


@dataclass(frozen=True, slots=True, init=False)
class FieldElement:
    """An exact element of a FieldSpec; arithmetic never mixes specs.  The
    constructor canonicalises an int, a Fraction or an element of the spec:
    v mod p over F_p (a Fraction through its denominator's inverse), or
    Fraction(v) over Q."""

    value: Value
    spec: FieldSpec

    def __init__(self, value, spec: FieldSpec) -> None:
        _set_value(self, spec.canonical(value))
        _set_spec(self, spec)

    def _raw(self, other):
        """Raw value of other, an element of this spec or an int; None for
        any other type, so that the operator returns NotImplemented."""
        return self.spec.canonical(other) if isinstance(other, (FieldElement, int)) else None

    def __add__(self, other) -> "FieldElement":
        v = self._raw(other)
        return NotImplemented if v is None else _fe(self.spec.reduce(self.value + v), self.spec)

    __radd__ = __add__

    def __sub__(self, other) -> "FieldElement":
        v = self._raw(other)
        return NotImplemented if v is None else _fe(self.spec.reduce(self.value - v), self.spec)

    def __rsub__(self, other) -> "FieldElement":
        v = self._raw(other)
        return NotImplemented if v is None else _fe(self.spec.reduce(v - self.value), self.spec)

    def __mul__(self, other) -> "FieldElement":
        v = self._raw(other)
        return NotImplemented if v is None else _fe(self.spec.reduce(self.value * v), self.spec)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "FieldElement":
        v = self._raw(other)
        return NotImplemented if v is None else self * _fe(v, self.spec).inv()

    def __neg__(self) -> "FieldElement":
        return _fe(self.spec.reduce(-self.value), self.spec)

    def __pow__(self, n: int) -> "FieldElement":
        if n < 0:
            return self.inv() ** (-n)
        # pow(x, n, None) is x ** n, so one call serves F_p and Q.
        return _fe(pow(self.value, n, self.spec.p), self.spec)

    def __bool__(self) -> bool:
        return self.value != 0

    def inv(self) -> "FieldElement":
        if not self:
            raise ZeroInverse(f"zero has no inverse in {self.spec}")
        return _fe(pow(self.value, -1, self.spec.p), self.spec)

    def text(self) -> str:
        """Canonical text form: decimal in [0,p) for F_p, "a/b" for Q;
        BudgetExceeded for a rational over the int-string digit limit."""
        if self.spec.p is not None:
            return str(self.value)
        try:
            return f"{self.value.numerator}/{self.value.denominator}"
        except ValueError:
            limit = sys.get_int_max_str_digits()
            raise BudgetExceeded(f"rational value exceeds the {limit}-digit output limit") from None

    def __repr__(self) -> str:
        return f"{self.text()}:{self.spec}"


# One spec per modulus, built and validated on first use.  lru_cache stores
# no call that raised, and typed=True keeps equal moduli of different types,
# such as 5.0 and Fraction(5), apart, so each call returns a spec field for
# field like the one FieldSpec(p) builds.
_shared_spec = lru_cache(maxsize=256, typed=True)(FieldSpec)

# The slots' member descriptors set a frozen instance's fields without the
# by-name lookup of object.__setattr__.
_set_value = FieldElement.value.__set__
_set_spec = FieldElement.spec.__set__
_new = object.__new__


def _fe(value: Value, spec: FieldSpec) -> FieldElement:
    """A FieldElement from a canonical raw value, unchecked: the value must
    already be canonical for spec, as FieldSpec.canonical returns it."""
    x = _new(FieldElement)
    _set_value(x, value)
    _set_spec(x, spec)
    return x


def _ratio(p: int | None, num: int, den: int) -> Value:
    """The canonical raw value of the ratio num / den of ints, den != 0 and
    prime to p: num mod p when den is 1, num den^-1 mod p otherwise, and
    Fraction(num, den) over Q (p None).  The integer kernels box every
    output through it."""
    if p:
        return num % p if den == 1 else num * pow(den, -1, p) % p
    return Fraction(num, den)


def embed_int(n: int, spec: FieldSpec) -> FieldElement:
    """Canonical image of an integer; embed_int(p, F_p) = 0."""
    return spec.element(n)


def inv(x: FieldElement) -> FieldElement:
    """Multiplicative inverse; raises ZeroInverse on 0."""
    return x.inv()
