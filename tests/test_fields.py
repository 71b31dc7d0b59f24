"""Field arithmetic: canonical forms, axioms, inverses, text encoding."""

import dataclasses
import math
import operator
import sys
import time
from fractions import Fraction

import pytest

from moldkit import FieldElement, FieldSpec, embed_int, inv
from moldkit.errors import BudgetExceeded, ZeroInverse
from moldkit.fields import _fe, _ratio, _shared_spec, is_prime

from conftest import F2, F3, F5, F7, F65521, Q


def test_inverse_examples():
    assert inv(F5.element(2)) == F5.element(3)
    assert inv(Q.element(2)) == Q.element(Fraction(1, 2))
    with pytest.raises(ZeroInverse):
        inv(F3.element(0))


def test_embed_int_examples():
    assert embed_int(7, F5).value == 2
    assert embed_int(-1, F2).value == 1
    assert embed_int(3, Q).value == Fraction(3, 1)
    assert embed_int(5, F5).value == 0


def test_characteristics():
    assert F2.characteristic() == 2
    assert F7.characteristic() == 7
    assert Q.characteristic() == 0


def test_prime_validation():
    # The second round is refused again: no refused modulus is stored.
    for _ in range(2):
        with pytest.raises(ValueError, match="^modulus is not prime: 4$"):
            FieldSpec.prime(4)
        with pytest.raises(ValueError, match="^modulus is not prime: 1$"):
            FieldSpec.prime(1)
        with pytest.raises(ValueError, match="^prime modulus too large: 2147483648$"):
            FieldSpec.prime(2**31)
        assert FieldSpec.prime(2**31 - 1).characteristic() == 2**31 - 1


def test_prime_and_rationals_return_one_shared_spec():
    assert FieldSpec.prime(65521) is FieldSpec.prime(65521)
    assert FieldSpec.rationals() is FieldSpec.rationals() is FieldSpec.prime(None)
    assert FieldSpec.prime(5) is not FieldSpec.prime(7)
    # The constructor still validates and builds an equal, separate spec.
    assert FieldSpec(5) == FieldSpec.prime(5) and FieldSpec(5) is not FieldSpec.prime(5)
    for p in (5, 5.0, Fraction(5), None):
        assert repr(FieldSpec.prime(p)) == repr(FieldSpec(p))
    with pytest.raises(ValueError, match="^modulus is not prime: 4$"):
        FieldSpec(4)


def test_a_refused_modulus_raises_on_every_call_and_is_never_stored():
    for p, message in ((4, "modulus is not prime: 4"), (25_326_001, "modulus is not prime"),
                       (2**31, "prime modulus too large"), (True, "modulus is not prime: True")):
        size = _shared_spec.cache_info().currsize
        for _ in range(3):
            misses = _shared_spec.cache_info().misses
            with pytest.raises(ValueError, match=f"^{message}"):
                FieldSpec.prime(p)
            assert _shared_spec.cache_info().misses == misses + 1
        assert _shared_spec.cache_info().currsize == size


def test_the_shared_spec_store_stays_bounded():
    primes = [n for n in range(2, 10_000) if is_prime(n)][:2 * _shared_spec.cache_info().maxsize]
    for p in primes:
        spec = FieldSpec.prime(p)
        assert spec == FieldSpec(p) and spec is FieldSpec.prime(p)
        assert _shared_spec.cache_info().currsize <= _shared_spec.cache_info().maxsize
    assert _shared_spec.cache_info().currsize == _shared_spec.cache_info().maxsize


def test_is_prime_equals_trial_division_below_10_000():
    """Every composite below 10^4 that has no factor in the witness bases
    needs a Miller-Rabin round to be refused (121 = 11^2 is the least)."""
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert [n for n in range(10_000) if is_prime(n)] == [n for n in range(10_000) if trial(n)]


def test_a_strong_pseudoprime_to_bases_2_3_and_5_is_refused():
    """Base 7 refuses 25 326 001 = 2251 x 11251, which passes bases 2, 3
    and 5 and has no factor among them."""
    n = 2251 * 11251
    assert n == 25_326_001 and all(n % a for a in (2, 3, 5, 7)) and not is_prime(n)
    with pytest.raises(ValueError, match=f"^modulus is not prime: {n}$"):
        FieldSpec.prime(n)


def test_canonical_forms_unique():
    assert F5.element(7) == F5.element(2)
    assert F5.element(7).value == 2
    assert Q.element(Fraction(2, 4)) == Q.element(Fraction(1, 2))
    assert Q.element(Fraction(2, 4)).value == Fraction(1, 2)
    assert Q.element(Fraction(1, 2)).value.denominator == 2
    # Fractions embed into F_p through the inverse of the denominator.
    assert F5.element(Fraction(1, 2)) == F5.element(3)


def test_constructor_canonicalises():
    assert FieldElement(7, F5) == F5.element(2)
    assert FieldElement(-1, F5).value == 4
    assert FieldElement(Fraction(1, 2), F5) == F5.element(3)
    assert FieldElement(2, Q).inv().value == Fraction(1, 2)
    assert FieldElement(Fraction(2, 4), Q) == Q.element(Fraction(1, 2))
    assert FieldElement(F5.element(3), F5) == F5.element(3)
    with pytest.raises(ValueError):
        FieldElement(Fraction(1, 5), F5)
    with pytest.raises(ValueError):
        FieldElement(F3.element(1), F5)
    assert F5.canonical(Fraction(1, 2)) == 3 and F5.canonical(F5.element(4)) == 4
    assert type(Q.canonical(2)) is Fraction and Q.canonical(Fraction(2, 4)) == Fraction(1, 2)


@pytest.mark.parametrize("spec", [F2, F3, F65521, Q], ids=str)
def test_unchecked_boxing_equals_the_constructors(spec):
    """_fe on a canonical value, spec.element and FieldElement build equal
    elements with equal hashes and reprs."""
    for v in (0, 1, -1, 2, 65520, 65521, 10**12 + 7, Fraction(3, 7), Fraction(-5, 2)):
        if spec.p is not None and isinstance(v, Fraction) and v.denominator % spec.p == 0:
            continue
        boxed = [_fe(spec.canonical(v), spec), spec.element(v), FieldElement(v, spec)]
        assert boxed[0] == boxed[1] == boxed[2]
        assert len({hash(x) for x in boxed}) == 1
        assert len({repr(x) for x in boxed}) == 1


def test_field_elements_are_immutable():
    for x in (_fe(2, F5), F5.element(2), FieldElement(2, F5), Q.element(Fraction(1, 3))):
        before = repr(x)
        for name, value in (("value", 1), ("spec", F3)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(x, name, value)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(x, name)
        assert repr(x) == before


def test_no_silent_spec_mixing():
    with pytest.raises(ValueError):
        F2.element(1) + F3.element(1)
    with pytest.raises(ValueError):
        Q.element(1) * F5.element(1)


def test_field_axioms_randomized(rng):
    for spec in (F2, F3, F5, F7, Q):
        elems = [spec.element(rng.randint(-20, 20)) for _ in range(30)]
        if spec.p is None:
            elems += [spec.element(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                      for _ in range(10)]
        for _ in range(200):
            x, y, z = rng.choice(elems), rng.choice(elems), rng.choice(elems)
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert x + (-x) == spec.zero()
            if x:
                assert x * x.inv() == spec.one()


def test_text_encoding_round_trip(rng):
    for _ in range(50):
        e = Q.element(Fraction(rng.randint(-30, 30), rng.randint(1, 7)))
        assert Q.parse(e.text()) == e
        f = F5.element(rng.randint(-30, 30))
        assert F5.parse(f.text()) == f
    assert Q.element(3).text() == "3/1"
    assert F5.element(3).text() == "3"
    assert Q.element(Fraction(-1, 2)).text() == "-1/2"


def test_parse_bounds_and_rejects_rational_text():
    # Fraction accepts exponent notation, so short text can name a huge
    # integer; digits and exponent are bounded before Fraction runs.
    limit = sys.get_int_max_str_digits()
    oversized = rf"^rational '.*'(\.\.\.)? exceeds {limit} digits or exponent$"
    for text in ("1e3000000", "1e-4301", "7" * 5000, "1/" + "3" * 4301):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=oversized):
            Q.parse(text)
        assert time.perf_counter() - start < 0.1
    for text in ("1/0", "abc", "1/2/3", ""):
        with pytest.raises(ValueError, match=f"^malformed rational {text!r}$"):
            Q.parse(text)
    assert Q.parse(" 1e4300 ").value == 10**4300
    assert Q.parse(" -3/6 ") == Q.element(Fraction(-1, 2))


def test_text_over_the_digit_limit_raises_budget_exceeded():
    limit = sys.get_int_max_str_digits()
    with pytest.raises(BudgetExceeded) as info:
        Q.element(Fraction(1, 10**limit)).text()
    assert str(info.value) == f"rational value exceeds the {limit}-digit output limit"
    assert Q.element(10 ** (limit - 1)).text() == "1" + "0" * (limit - 1) + "/1"


def test_pow_and_division():
    assert F7.element(3) ** 6 == F7.one()
    assert (F7.element(3) ** -1) == F7.element(3).inv()
    assert Q.element(Fraction(2, 3)) / Q.element(Fraction(4, 9)) == Q.element(Fraction(3, 2))


def test_non_coercible_operands_raise_type_error():
    # A float is neither a field element nor an int: every operator must
    # return NotImplemented, so that Python raises TypeError from both sides.
    for x in (F5.element(2), Q.element(Fraction(2, 3))):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(TypeError):
                op(x, 1.5)
            with pytest.raises(TypeError):
                op(1.5, x)


@pytest.mark.parametrize("spec", [F2, F5, F65521, FieldSpec.prime(2**31 - 1), Q], ids=str)
def test_ratio_is_the_canonical_value_of_the_fraction(rng, spec):
    """_ratio(p, num, den), the one boxing of the integer kernels' ratios,
    is FieldSpec.canonical(Fraction(num, den)), value and type, for zero,
    small, negative and huge numerators, den = 1 and dens of every sign
    and size prime to p."""
    p = spec.p
    nums = [0, 1, -1, 7, -7, 2**31 - 1, -(2**31), 10**40, -(10**40) - 3]
    nums += [rng.randint(-10**60, 10**60) for _ in range(40)]
    dens = [1, -1, 2, 3, -5, 2**31 + 11, 10**25 + 7]
    dens += [rng.choice((-1, 1)) * rng.randint(1, 10**50) for _ in range(40)]
    checked = 0
    for num in nums:
        for den in dens:
            if p and den % p == 0:
                continue
            want = spec.canonical(Fraction(num, den))
            got = _ratio(p, num, den)
            assert got == want and type(got) is type(want), (num, den)
            checked += 1
    assert checked > 1000

