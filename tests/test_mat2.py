"""Matrix core: characteristic data, eta, companion forms, commutants."""

import operator
from fractions import Fraction

import pytest

from moldkit import (
    Mat2,
    char_data,
    commutant_basis,
    commutator_image_test,
    companion_normalize,
    conjugate,
    eta,
)
from moldkit.errors import CharTwo, ScalarInput, SingularP
from moldkit import linalg

from conftest import (
    F2,
    F3,
    F5,
    F7,
    F65521,
    Q,
    all_mats,
    in_span,
    nonscalar_mats,
    nullspace_reference,
    rand_invertible,
    rand_mat,
    rank,
    span_coords,
)


def test_char_data_examples():
    for T, D in [(3, 5), (-2, 7), (0, 0)]:
        comp = Mat2.from_rows([[0, -D], [1, T]], Q)
        tr, det, m = char_data(comp)
        assert (tr, det, m) == (Q.element(T), Q.element(D), Q.element(T * T - 4 * D))
    assert [x.value for x in char_data(Mat2.from_rows([[1, 1], [0, 1]], Q))] == [2, 1, 0]
    assert [x.value for x in char_data(Mat2.from_rows([[1, 0], [0, 2]], Q))] == [3, 2, 1]


def test_m_equals_trace_square_identity(rng):
    # m = 2 tr(A^2) - tr(A)^2, exhaustively over F2 and randomized.
    for A in all_mats(F2):
        assert A.m == 2 * (A * A).tr - A.tr * A.tr
    for spec in (F5, Q):
        for _ in range(300):
            A = rand_mat(rng, spec)
            assert A.m == 2 * (A * A).tr - A.tr * A.tr


def test_eta_examples():
    J = Mat2.from_rows([[1, 1], [0, 1]], Q)
    assert eta(J) == Mat2.from_rows([[0, 1], [0, 0]], Q)
    assert eta(Mat2.identity(Q).scale(Q.element(7))) == Mat2.zero(Q)
    with pytest.raises(CharTwo):
        eta(Mat2.from_rows([[1, 1], [0, 1]], F2))


def test_eta_properties(rng):
    for spec in (F3, F5, Q):
        for _ in range(200):
            A = rand_mat(rng, spec)
            E = eta(A)
            assert not E.tr
            if not A.m:
                assert E * E == Mat2.zero(spec)
    # Exhaustive nilpotency of eta on the m = 0 locus of F3.
    for A in all_mats(F3):
        if not A.m:
            E = eta(A)
            assert E * E == Mat2.zero(F3)


def test_companion_normalize_examples():
    J = Mat2.from_rows([[1, 1], [0, 1]], Q)
    cert = companion_normalize(J)
    assert cert.P == Mat2.from_rows([[0, 1], [1, 1]], Q)
    assert cert.companion == Mat2.from_rows([[0, -1], [1, 2]], Q)
    assert cert.branch == "b"
    assert conjugate(cert.P, J) == cert.companion

    A = Mat2.from_rows([[0, 0], [1, 3]], Q)
    cert = companion_normalize(A)
    assert cert.branch == "c"
    assert cert.P == Mat2.identity(Q)
    assert cert.companion == A

    with pytest.raises(ScalarInput):
        companion_normalize(Mat2.identity(Q).scale(Q.element(2)))


def test_companion_round_trip_exhaustive_and_random(rng):
    """companion_normalize builds its companion form from raw values; it
    equals Mat2.companion(tr, det), value for value and type for type."""
    def check(A):
        cert = companion_normalize(A)
        assert cert.P.det
        assert cert.P * cert.companion * cert.P.inverse() == A
        want = Mat2.companion(A.tr, A.det)
        assert cert.companion == want
        assert list(map(type, cert.companion.values())) == list(map(type, want.values()))

    for spec in (F2, F3):
        for A in nonscalar_mats(spec):
            check(A)
    for spec in (Q, F65521):
        for _ in range(1000):
            A = rand_mat(rng, spec)
            if not A.is_scalar:
                check(A)


def test_commutant_basis():
    A = Mat2.from_rows([[0, -1], [1, 2]], Q)
    basis = commutant_basis(A)
    assert basis == [Mat2.identity(Q), A]
    # Independent oracle: the solution space of AQ = QA has dimension 2
    # and contains the claimed basis.
    z = Q.zero().value
    a, b, c, d = A.values()
    rows = [(z, -c, b, z), (-b, a - d, z, b), (c, z, d - a, -c), (z, c, -b, z)]
    null = nullspace_reference(rows, 4, Q.p)
    assert len(null) == 2
    red, piv = linalg.rref(null, Q.p)
    for B in basis:
        assert in_span(red, piv, B.values(), Q.p)

    D = Mat2.from_rows([[1, 0], [0, 2]], Q)
    red, piv = linalg.rref([M.values() for M in commutant_basis(D)], Q.p)
    assert in_span(red, piv, Mat2.from_rows([[5, 0], [0, 7]], Q).values(), Q.p)

    with pytest.raises(ScalarInput):
        commutant_basis(Mat2.identity(Q))


def test_commutant_is_exactly_span_I_A(rng):
    # Every Q with AQ = QA lies in span{I, A}: exhaustive over F2.
    for A in nonscalar_mats(F2):
        red, piv = linalg.rref([M.values() for M in commutant_basis(A)], F2.p)
        for X in all_mats(F2):
            if A * X == X * A:
                assert in_span(red, piv, X.values(), F2.p)


def test_commutator_image_examples():
    A = Mat2.from_rows([[0, -1], [1, 0]], F3)
    Y = Mat2.from_rows([[1, 0], [0, -1]], F3)
    assert (A * Y).tr == F3.zero() and Y.tr == F3.zero()
    assert commutator_image_test(A, Y)
    assert not commutator_image_test(A, Mat2.identity(F3))
    assert commutator_image_test(A, Mat2.zero(F3))
    with pytest.raises(ScalarInput):
        commutator_image_test(Mat2.identity(F3), Y)


def test_commutator_image_equals_trace_conditions():
    # {AX - XA : X} = {Y : tr Y = tr AY = 0}, both as explicit sets.
    for spec in (F2, F3):
        mats = all_mats(spec)
        for A in mats:
            if A.is_scalar:
                continue
            image = {(A * X - X * A).entries() for X in mats}
            kernel_cut = {Y.entries() for Y in mats if not Y.tr and not (A * Y).tr}
            assert image == kernel_cut
            for Y in mats:
                assert commutator_image_test(A, Y) == (Y.entries() in image)


def test_conjugate():
    A = Mat2.from_rows([[1, 0], [0, 2]], Q)
    assert conjugate(Mat2.identity(Q), A) == A
    swap = Mat2.from_rows([[0, 1], [1, 0]], Q)
    assert conjugate(swap, A) == Mat2.from_rows([[2, 0], [0, 1]], Q)
    with pytest.raises(SingularP):
        conjugate(Mat2.from_rows([[1, 1], [1, 1]], Q), A)


def test_conjugation_preserves_char_data(rng):
    for spec in (F3, F5, Q):
        for _ in range(200):
            A = rand_mat(rng, spec)
            P = rand_invertible(rng, spec)
            B = conjugate(P, A)
            assert char_data(A) == char_data(B)


def test_det_of_linear_combination_formula(rng):
    # det(aX + bY) = a^2 det X + b^2 det Y + ab (tr X tr Y - tr XY)
    def check(a, b, X, Y):
        left = (X.scale(a) + Y.scale(b)).det
        right = a * a * X.det + b * b * Y.det + a * b * (X.tr * Y.tr - (X * Y).tr)
        assert left == right

    mats2 = all_mats(F2)
    for a in (F2.zero(), F2.one()):
        for b in (F2.zero(), F2.one()):
            for X in mats2:
                for Y in mats2:
                    check(a, b, X, Y)
    for spec in (F5, Q):
        for _ in range(300):
            check(spec.element(rng.randint(-9, 9)), spec.element(rng.randint(-9, 9)),
                  rand_mat(rng, spec), rand_mat(rng, spec))


def test_spec_checks_equality_and_canonical_values():
    one5, one3 = F5.element(1), F3.element(1)
    with pytest.raises(ValueError):
        Mat2(one5, one5, one5, one3)
    A5 = Mat2.from_rows([[1, 2], [3, 4]], F5)
    A3 = Mat2.from_rows([[1, 2], [0, 1]], F3)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ValueError):
            op(A5, A3)
    with pytest.raises(ValueError):
        A5.scale(F3.element(2))
    # Same raw values, different fields: unequal, and no exception.
    assert A5 != Mat2.from_rows([[1, 2], [3, 4]], F7)
    assert A5 != A3

    # One matrix built three ways: equal, with equal hashes.
    built = Mat2(F5.element(3), F5.element(0), F5.element(4), F5.element(1))
    rows = Mat2.from_rows([[8, -5], [-1, 6]], F5)
    product = Mat2.from_rows([[3, 0], [0, 1]], F5) * Mat2.from_rows([[1, 0], [4, 1]], F5)
    combo = Mat2.identity(F5).scale(F5.element(3)) + Mat2.from_rows([[0, 0], [4, -2]], F5)
    assert built == rows == product == combo
    assert len({built, rows, product, combo}) == 1

    # F_p values are residues in [0, p); Q values are reduced Fractions.
    assert Mat2.from_rows([[-1, 7], [12, -13]], F5).values() == (4, 2, 2, 2)
    for M in (A5 - A5.scale(F5.element(3)), A5 * A5, A5.inverse(), A5.pow(7)):
        assert all(type(v) is int and 0 <= v < 5 for v in M.values())
    half = Mat2.from_rows([[Fraction(2, 4), 3], [0, Fraction(-6, 4)]], Q)
    assert half.values() == (Fraction(1, 2), 3, 0, Fraction(-3, 2))
    for M in (Mat2.identity(Q), Mat2.zero(Q), half, half * half, half.inverse(), half - half):
        assert all(isinstance(v, Fraction) for v in M.values())
    assert Mat2.identity(Q).values() == (1, 0, 0, 1)
    assert Mat2.identity(Q).text() == "[[1/1,0/1],[0/1,1/1]]"


def _rand_nonscalar(rng, spec, span):
    while True:
        A = rand_mat(rng, spec, span)
        if not A.is_scalar:
            return A


@pytest.mark.parametrize("spec", [F65521, Q], ids=str)
def test_commutator_image_test_matches_rank_oracle(rng, spec):
    # Y is in the image of X -> AX - XA iff augmenting the 4x4 system of
    # that map with the column Y leaves its rank unchanged.
    z, r = spec.zero().value, spec.reduce
    for _ in range(150):
        A = _rand_nonscalar(rng, spec, 10**6)
        a, b, c, d = A.values()
        rows = [(z, r(-c), b, z), (r(-b), r(a - d), z, b), (c, z, r(d - a), r(-c)),
                (z, c, r(-b), z)]
        X = rand_mat(rng, spec, 10**6)
        image = A * X - X * A
        trace_free = Mat2.from_rows([[0, 1], [0, 0]], spec)  # tr AY = a21 on its own
        for Y in (image, rand_mat(rng, spec, 10**6), image + Mat2.identity(spec),
                  image + A, image + trace_free, Mat2.zero(spec)):
            augmented = [row + (y,) for row, y in zip(rows, Y.values())]
            assert commutator_image_test(A, Y) == (rank(rows, spec.p)
                                                   == rank(augmented, spec.p))


def _check_span_coords(M, X):
    """conftest.span_coords, the chart tests' reference, agrees with the
    membership oracle of an echelon form of I and X."""
    spec = X.spec
    red, piv = linalg.rref([Mat2.identity(spec).values(), X.values()], spec.p)
    coords = span_coords(M, X)
    assert (coords is not None) == in_span(red, piv, M.values(), spec.p)
    if coords is not None:
        x, y = coords
        assert Mat2.identity(spec).scale(x) + X.scale(y) == M


@pytest.mark.parametrize("spec", [F65521, Q], ids=str)
def test_span_coords_matches_membership_oracle(rng, spec):
    for _ in range(200):
        X = _rand_nonscalar(rng, spec, 10**6)
        x, y = rand_mat(rng, spec, 10**6).entries()[:2]
        inside = Mat2.identity(spec).scale(x) + X.scale(y)
        for M in (inside, rand_mat(rng, spec, 10**6), inside + X * X, X, Mat2.zero(spec)):
            _check_span_coords(M, X)
    with pytest.raises(ScalarInput):
        span_coords(X, Mat2.identity(spec).scale(spec.element(5)))


def test_span_coords_exhaustive_f3():
    mats = all_mats(F3)
    for X in nonscalar_mats(F3):
        for M in mats:
            _check_span_coords(M, X)
