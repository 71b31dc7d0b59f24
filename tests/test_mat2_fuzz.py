"""Property-based check of the matrix core: Mat2 arithmetic on raw values
agrees with the entrywise FieldElement formulas, over small and near-2^31
primes and over Q with numerators and denominators up to 10^30, and
Mat2.from_rows agrees with FieldSpec.canonical on every entry type."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moldkit import FieldSpec, Mat2
from moldkit.errors import SingularP

SPECS = [FieldSpec.prime(p) for p in (2, 3, 2147483629, 2147483647)] + [FieldSpec.rationals()]
BIG = 10**30

FUZZ = settings(max_examples=120, derandomize=True, deadline=None, database=None)


def raw_values(spec):
    if spec.p is None:
        return st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG))
    # Out-of-range integers exercise the reduction in from_rows.
    return st.integers(-2 * spec.p, 2 * spec.p)


def matrices(spec):
    v = raw_values(spec)
    return st.tuples(v, v, v, v).map(lambda e: Mat2.from_rows([e[:2], e[2:]], spec))


def spec_and_pair():
    return st.sampled_from(SPECS).flatmap(
        lambda spec: st.tuples(st.just(spec), matrices(spec), matrices(spec)))


def canonical(spec, M):
    if spec.p is None:
        return all(isinstance(v, Fraction) for v in M.values())
    return all(type(v) is int and 0 <= v < spec.p for v in M.values())


@FUZZ
@given(spec_and_pair())
def test_arithmetic_agrees_with_entrywise_formulas(case):
    spec, A, B = case
    a, b, c, d = A.entries()
    e, f, g, h = B.entries()
    expected = {
        A + B: (a + e, b + f, c + g, d + h),
        A - B: (a - e, b - f, c - g, d - h),
        A * B: (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h),
    }
    for M, entries in expected.items():
        assert M.entries() == entries
        assert M == Mat2(*entries) and hash(M) == hash(Mat2(*entries))
        assert canonical(spec, M)


@FUZZ
@given(spec_and_pair())
def test_characteristic_data_and_inverse_agree_with_entrywise_formulas(case):
    spec, A, _ = case
    a, b, c, d = A.entries()
    det = a * d - b * c
    assert A.tr == a + d
    assert A.det == det
    assert A.m == (a + d) * (a + d) - 4 * det
    if not det:
        with pytest.raises(SingularP):
            A.inverse()
        return
    inv = A.inverse()
    assert inv.entries() == (d / det, -b / det, -c / det, a / det)
    assert canonical(spec, inv)
    assert A * inv == Mat2.identity(spec)


ROW_SPECS = [FieldSpec.prime(p) for p in (2, 5, 65521, 2**31 - 1)] + [FieldSpec.rationals()]


def entries(spec):
    """Ints of any sign and size, bools, Fractions and elements of spec."""
    ints = st.integers() | st.integers(-(2**130), 2**130)
    fractions = st.builds(Fraction, ints, st.integers(1, BIG))
    anything = ints | st.booleans() | fractions | ints.map(spec.element)
    return st.tuples(ints, ints, ints, ints) | st.tuples(anything, anything, anything, anything)


@FUZZ
@given(st.sampled_from(ROW_SPECS).flatmap(lambda spec: st.tuples(st.just(spec), entries(spec))))
def test_from_rows_equals_the_canonical_path(case):
    """from_rows' plain-int fast path and its general path both give the
    canonical values FieldSpec.canonical gives, of the same types; a
    Fraction whose denominator p divides is refused by both."""
    spec, (a, b, c, d) = case
    try:
        want = tuple(map(spec.canonical, (a, b, c, d)))
    except ValueError:
        with pytest.raises(ValueError):
            Mat2.from_rows([[a, b], [c, d]], spec)
        return
    M = Mat2.from_rows([[a, b], [c, d]], spec)
    assert M.spec is spec
    assert M.values() == want and list(map(type, M.values())) == list(map(type, want))
    assert canonical(spec, M)
    assert M == Mat2(*map(spec.element, want)) and hash(M) == hash(Mat2(*map(spec.element, want)))
