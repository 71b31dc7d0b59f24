"""Discriminants, trace identities, invariant vectors and closed formulas."""

import time
import tracemalloc
from fractions import Fraction
from itertools import product
from math import prod

import pytest

from moldkit import (
    FieldSpec,
    Mat2,
    RepTuple,
    Word,
    delta2,
    delta4,
    det_from_traces,
    invariant_vector,
    m_power_closed,
    reconstruct_from_traces,
    tau3,
    trace_word,
)
from moldkit.canon import _increasing_products
from moldkit.errors import BudgetExceeded, VanishingM
from moldkit.invariants import (
    MAX_TRACES,
    _key_table,
    _key_texts,
    _moduli_entries,
    _split_entries,
)
from moldkit.linalg import _int_scaled
from moldkit.mat2 import _inverse

from conftest import (
    F2,
    F3,
    F5,
    F65521,
    Q,
    all_mats,
    det4_oracle,
    increasing_subsequences,
    invertible_mats,
    moduli_reference,
    rand_invertible,
    rand_mat,
    stratum_samples,
)

E_PAIR = (Mat2.from_rows([[1, 1], [0, 1]], Q), Mat2.from_rows([[1, 0], [1, 1]], Q))


def test_delta2_examples(rng):
    A, B = E_PAIR
    assert delta2(A, B) == Q.one()
    for _ in range(50):
        M = rand_mat(rng, Q)
        assert not delta2(M, Mat2.identity(Q))
    assert delta2(Mat2.from_rows([[1, 0], [0, 2]], Q),
                  Mat2.from_rows([[0, 1], [1, 0]], Q)) == Q.element(-1)


def test_delta2_symmetry_and_delta4_identity(rng):
    mats2 = all_mats(F2)
    for A in mats2:
        for B in mats2:
            assert delta2(A, B) == delta2(B, A)
            assert delta2(A, B) == -delta4(Mat2.identity(F2), A, B, A * B)
    for spec in (F5, Q):
        for _ in range(300):
            A, B = rand_mat(rng, spec), rand_mat(rng, spec)
            assert delta2(A, B) == delta2(B, A)
            assert delta2(A, B) == -delta4(Mat2.identity(spec), A, B, A * B)


def test_delta2_commutator_formula(rng):
    # delta2(A, B) = det A det B tr(A B A^-1 B^-1 - I) for invertible A, B.
    def check(A, B):
        comm = A * B * A.inverse() * B.inverse() - Mat2.identity(A.spec)
        assert delta2(A, B) == A.det * B.det * comm.tr

    for spec in (F2, F3):
        invs = invertible_mats(spec)
        for A in invs:
            for B in invs:
                check(A, B)
    for spec in (F5, Q):
        for _ in range(300):
            check(rand_invertible(rng, spec), rand_invertible(rng, spec))


def test_tau3_examples():
    A = Mat2.from_rows([[1, 0], [0, 2]], Q)
    B = Mat2.from_rows([[1, 0], [1, 2]], Q)
    C = Mat2.from_rows([[2, 1], [0, 1]], Q)
    assert (A * B * C).tr == Q.element(8)
    assert (A * C * B).tr == Q.element(7)
    assert tau3(A, B, C) == Q.one()
    assert not tau3(A, B, B)
    assert not tau3(Mat2.identity(Q), B, C)


def test_tau3_properties(rng):
    mats2 = all_mats(F2)
    for A in mats2[:8]:
        for B in mats2:
            for C in mats2:
                assert tau3(A, B, C) == -tau3(A, C, B)
    for spec in (F5, Q):
        for _ in range(200):
            A, B, C = (rand_mat(rng, spec) for _ in range(3))
            assert tau3(A, B, C) == -tau3(A, C, B)
            # Degree-3 polynomial expression in traces.
            poly = (2 * (A * B * C).tr - A.tr * (B * C).tr - B.tr * (C * A).tr
                    - C.tr * (A * B).tr + A.tr * B.tr * C.tr)
            assert tau3(A, B, C) == poly
            # tau is the 4x4 discriminant against the identity slot.
            assert tau3(A, B, C) == delta4(A, B, C, Mat2.identity(spec))


def test_delta4_examples(rng):
    I = Mat2.identity(Q)
    E12 = Mat2.from_rows([[0, 1], [0, 0]], Q)
    E21 = Mat2.from_rows([[0, 0], [1, 0]], Q)
    E22 = Mat2.from_rows([[0, 0], [0, 1]], Q)
    v = delta4(I, E12, E21, E22)
    assert v == det4_oracle([M.entries() for M in (I, E12, E21, E22)])
    assert v.value in (1, -1)
    A, B = E_PAIR
    assert delta4(I, A, B, A * B) == Q.element(-1)
    assert not delta4(I, I, E12, E21)
    for _ in range(100):
        ms = [rand_mat(rng, Q) for _ in range(4)]
        assert delta4(*ms) == det4_oracle([M.entries() for M in ms])


def test_trace_word_examples():
    t = RepTuple((Mat2.from_rows([[1, 0], [0, 2]], Q), Mat2.from_rows([[3, 0], [0, 4]], Q)))
    assert trace_word(t, Word(())) == Q.element(2)
    assert trace_word(t, Word((1, 2))) == Q.element(11)
    tg = RepTuple((Mat2.from_rows([[1, 0], [0, 2]], Q),), mode="group")
    assert trace_word(tg, Word((-1,))) == Q.element(Fraction(3, 2))


def test_invariant_vector_examples():
    t = RepTuple((Mat2.from_rows([[1, 0], [0, 2]], Q), Mat2.from_rows([[3, 0], [0, 4]], Q)))
    vec = invariant_vector(t)
    assert [d.value for d in vec.dets] == [2, 12]
    tm = vec.trace_map()
    assert tm[(1,)].value == 3 and tm[(2,)].value == 7 and tm[(1, 2)].value == 11
    assert len(vec.traces) == 3

    ones = RepTuple((Mat2.identity(Q), Mat2.identity(Q)))
    v1 = invariant_vector(ones)
    assert all(d == Q.one() for d in v1.dets)
    assert all(v == Q.element(2) for _, v in v1.traces)

    comp = RepTuple((Mat2.from_rows([[0, -7], [1, 5]], Q),))
    vc = invariant_vector(comp)
    assert [d.value for d in vc.dets] == [7]
    assert vc.trace_map()[(1,)].value == 5


def test_invariant_vector_group_mode_augments():
    t = RepTuple((Mat2.from_rows([[1, 0], [0, 2]], Q),), mode="group")
    vec = invariant_vector(t)
    assert len(vec.dets) == 2
    assert len(vec.traces) == 3
    assert vec.dets[1] == Q.element(Fraction(1, 2))
    assert vec.trace_map()[(2,)] == Q.element(Fraction(3, 2))


@pytest.mark.parametrize("spec", [F2, F65521, FieldSpec.prime(2147483647), Q], ids=str)
def test_invariant_vector_order_is_increasing_subsequences(rng, spec):
    """Traces come keyed and ordered by increasing_subsequences(n), and each
    equals the trace of its product; n = 1..8 in monoid mode and
    n = 2, 4, 6, 8 in group mode (inverses follow the generators)."""
    for n in range(1, 9):
        for mode in ("monoid", "group") if n % 2 == 0 else ("monoid",):
            rank = n // 2 if mode == "group" else n
            gens = tuple(rand_invertible(rng, spec) for _ in range(rank))
            mats = list(gens) + ([g.inverse() for g in gens] if mode == "group" else [])
            vec = invariant_vector(RepTuple(gens, mode))
            assert [sub for sub, _ in vec.traces] == increasing_subsequences(n)
            assert vec.dets == tuple(M.det for M in mats)
            for sub, value in vec.traces:
                prod = mats[sub[0] - 1]
                for i in sub[1:]:
                    prod = prod * mats[i - 1]
                assert value == prod.tr


def test_memoised_key_table_equals_the_per_call_construction():
    """_key_table(n) against the construction _moduli_entries ran on every
    call before the table was memoised, and against the sorted
    combinations, for every n the trace budget admits; _key_texts(n) is
    the comma-joined keys, and a second call returns the same objects."""
    for n in range(1, 17):
        keys = []
        for k in range(n, 0, -1):
            head = (k,)
            keys = [head, *[head + key for key in keys], *keys]
        table, texts = _key_table(n), _key_texts(n)
        assert table == tuple(keys) and list(table) == increasing_subsequences(n)
        assert texts == tuple(",".join(str(i) for i in key) for key in keys)
        assert _key_table(n) is table and _key_texts(n) is texts
    assert 2**16 - 1 == MAX_TRACES


def test_invariant_vector_builds_no_key_text():
    """The library's moduli pass reads the key tuples only: after an
    invariant_vector call on 8 group generators (n = 16) no text table is
    held.  What the call leaves behind is the memoised key table, about
    7 MB under tracemalloc; the texts held about 5 MB more."""
    A = Mat2.from_rows([[1, 1], [0, 1]], F2)
    t = RepTuple((A,) * 8, mode="group")
    _key_table.cache_clear()
    _key_texts.cache_clear()
    tracemalloc.start()
    try:
        assert len(invariant_vector(t).traces) == MAX_TRACES
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert _key_table.cache_info().currsize == 1 and _key_texts.cache_info().currsize == 0
    assert held < 10 * 2**20


@pytest.mark.parametrize("spec", [F2, F3, F65521, Q], ids=str)
def test_moduli_entries_equal_the_lazy_walk(rng, spec):
    """The eager suffix-first pass against canon's lazy depth-first walk,
    which shares no logic with it: the same keys in the same order, and
    each trace (a + d) / scale of the walk's product, the scale over Q the
    product of its matrices' integer scales.  n = 1..12 augmented matrices,
    monoid mode at every n and group mode at even n, where the inverses
    come from Mat2.inverse; over Q the entries have denominators, and both
    passes take the integer-scaled entries a RepTuple stores."""
    p = spec.p
    for n in range(1, 13):
        for group in (False, True) if n % 2 == 0 else (False,):
            gens = ([rand_invertible(rng, spec) for _ in range(n // 2)] if group
                    else [rand_mat(rng, spec) for _ in range(n)])
            mats = gens + [g.inverse() for g in gens] if group else gens
            entries = [(g.values(), 1) if p else _int_scaled(g.values()) for g in gens]
            dets, keys, traces = _moduli_entries(p, entries, group)
            assert dets == tuple(M.det.value for M in mats)
            walk = list(_increasing_products(
                p, [M.values() if p else _int_scaled(M.values())[0] for M in mats]))
            assert list(keys) == [key for key, _ in walk]
            scales = [1 if p else _int_scaled(M.values())[1] for M in mats]
            assert list(traces) == [(a + d) % p if p else Fraction(a + d, prod(scales[i - 1] for i in key))
                                    for key, (a, _, _, d) in walk]


def test_q_invariant_vector_equals_the_matrix_oracle(rng):
    """invariant_vector over Q, which runs on the integer-scaled view,
    against moduli_reference's Mat2 products, inverses and traces: ranks
    1-4 in both modes, tuples of every stratum with small entries and with
    30-digit numerators and denominators, negative determinants among
    them.  Each group-mode inverse's canonical form, mat2._inverse, is the
    one _int_scaled gives for the inverse adj / det in Fraction
    arithmetic."""
    def big():
        return Fraction(rng.choice((-1, 1)) * rng.randint(10**29, 10**30 - 1),
                        rng.randint(10**29, 10**30 - 1))

    def big_mat():
        return Mat2.from_rows([[big(), big()], [big(), big()]], Q)

    negative = group = 0
    for rank in (1, 2, 3, 4):
        for mat in (None, big_mat):
            for base in stratum_samples(rng, Q, rank, mat):
                for mode in ("monoid", "group"):
                    if mode == "group" and not all(g.det for g in base.gens):
                        continue
                    t = RepTuple(base.gens, mode)
                    vec = invariant_vector(t)
                    assert (vec.dets, vec.traces) == moduli_reference(t)
                    assert len(vec.traces) == 2 ** len(vec.dets) - 1
                    if mode == "group":
                        group += 1
                        for g in t.gens:
                            a, b, c, d = g.values()
                            det = a * d - b * c
                            assert _inverse(None, g._ints, g._s) == _int_scaled(
                                (d / det, -b / det, -c / det, a / det))
                    negative += sum(g.det.value < 0 for g in t.gens)
    assert group >= 30 and negative >= 20


def split_entries_reference(mats):
    """_split_entries over Q in plain Fraction arithmetic on the entries."""
    s, (a, b, c, d) = next((s, e) for s, e in enumerate(mats)
                           if (e[0] - e[3]) ** 2 + 4 * e[1] * e[2])
    return (s, a * d - b * c, tuple(e + h for e, _, _, h in mats),
            tuple(a * e + b * g + c * f + d * h for e, f, g, h in mats))


def test_q_split_entries_equal_the_fraction_reference(rng):
    """Split coordinates over Q from the integer-scaled entries a RepTuple
    stores, against plain Fraction arithmetic on the entries: equal values, all of them Fractions, on tuples
    of every stratum whose first matrices have m = 0, with entries of
    small and of about 10^12 numerators and denominators."""
    def big():
        return Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**12))

    checked = 0
    for rank in (1, 2, 3, 5):
        for _ in range(20):
            big_mat = Mat2.from_rows([[big(), big()], [big(), big()]], Q)
            for t in stratum_samples(rng, Q, rank) + stratum_samples(rng, Q, rank, lambda: big_mat):
                mats = [Mat2.identity(Q).scale(Q.element(Fraction(2, 3))).values(),
                        Mat2.from_rows([[1, Fraction(1, 7)], [0, 1]], Q).values(),
                        *[g.values() for g in t.gens]]
                scaled = [_int_scaled(e) for e in mats]
                if not any((a - d) ** 2 + 4 * b * c for a, b, c, d in mats):
                    with pytest.raises(ValueError, match="no matrix has m != 0"):
                        _split_entries(None, scaled)
                    continue
                out = _split_entries(None, scaled)
                assert out == split_entries_reference(mats)
                assert all(type(x) is Fraction for x in (out[1], *out[2], *out[3]))
                checked += 1
    assert checked > 300


def test_invariant_vector_trace_budget():
    """2^n - 1 traces for n augmented generators: group rank 8 and monoid
    rank 16 fit MAX_TRACES; one generator more is refused before any work."""
    A = Mat2.from_rows([[1, 1], [0, 1]], F2)
    assert len(invariant_vector(RepTuple((A,) * 8, mode="group")).traces) == MAX_TRACES == 2**16 - 1
    start = time.perf_counter()
    for t in (RepTuple((A,) * 9, mode="group"), RepTuple((A,) * 17)):
        with pytest.raises(BudgetExceeded):
            invariant_vector(t)
    assert time.perf_counter() - start < 0.1


def test_invariant_vector_conjugation_invariant(rng):
    from moldkit import conjugate

    for spec in (F3, Q):
        for _ in range(50):
            t = RepTuple((rand_mat(rng, spec), rand_mat(rng, spec)))
            P = rand_invertible(rng, spec)
            assert invariant_vector(t) == invariant_vector(t.conjugated(P))


def test_det_from_traces(rng):
    assert det_from_traces(Q.element(3), Q.element(5), Q.element(9)) == Q.element(2)
    assert det_from_traces(Q.element(0), Q.element(2), Q.element(0)) == Q.element(-1)
    with pytest.raises(VanishingM):
        det_from_traces(Q.element(2), Q.element(2), Q.element(2))
    for spec in (F5, Q):
        for _ in range(200):
            A = rand_mat(rng, spec)
            if not A.m:
                continue
            t1, t2, t3 = A.tr, (A * A).tr, (A * A * A).tr
            assert det_from_traces(t1, t2, t3) == A.det


def test_reconstruct_from_traces(rng):
    A = Mat2.from_rows([[1, 0], [0, 2]], Q)
    assert reconstruct_from_traces(A, Q.element(3), Q.element(5)) == A
    assert reconstruct_from_traces(A, Q.element(2), A.tr) == Mat2.identity(Q)
    with pytest.raises(VanishingM):
        reconstruct_from_traces(Mat2.identity(Q), Q.element(2), Q.element(2))
    for spec in (F5, Q):
        for _ in range(200):
            A = rand_mat(rng, spec)
            if not A.m:
                continue
            x, y = spec.element(rng.randint(-9, 9)), spec.element(rng.randint(-9, 9))
            X = Mat2.identity(spec).scale(x) + A.scale(y)
            assert reconstruct_from_traces(A, X.tr, (A * X).tr) == X


def test_m_power_closed(rng):
    A = Mat2.from_rows([[1, 1], [0, 2]], Q)
    assert m_power_closed(A, 1) == A.m
    assert m_power_closed(A, 2) == Q.element(9)
    nil = Mat2.from_rows([[1, 1], [0, 1]], Q)
    for n in range(1, 9):
        assert not m_power_closed(nil, n)
    for spec in (F2, F3):
        for A in all_mats(spec):
            for n in range(1, 9):
                assert m_power_closed(A, n) == A.pow(n).m
    for spec in (F5, Q):
        for _ in range(100):
            A = rand_mat(rng, spec, span=4)
            for n in range(1, 9):
                assert m_power_closed(A, n) == A.pow(n).m


def test_m_of_inverse(rng):
    # m(A^-1) = m(A) det(A)^-2 for invertible A.
    for spec in (F2, F3):
        for A in invertible_mats(spec):
            assert A.inverse().m == A.m * (A.det.inv() ** 2)
    for spec in (F5, Q):
        for _ in range(200):
            A = rand_invertible(rng, spec)
            assert A.inverse().m == A.m * (A.det.inv() ** 2)


def test_trace_identities(rng):
    # tr(X^2 Y) = tr X tr(XY) - det X tr Y
    # tr(XYZ) = -tr(XZY) + tr X tr(YZ) + tr Y tr(ZX) + tr Z tr(YX) - tr X tr Y tr Z
    def check(X, Y, Z):
        assert (X * X * Y).tr == X.tr * (X * Y).tr - X.det * Y.tr
        lhs = (X * Y * Z).tr
        rhs = (-(X * Z * Y).tr + X.tr * (Y * Z).tr + Y.tr * (Z * X).tr
               + Z.tr * (Y * X).tr - X.tr * Y.tr * Z.tr)
        assert lhs == rhs

    mats2 = all_mats(F2)
    for X, Y, Z in product(mats2[:8], mats2[:8], mats2):
        check(X, Y, Z)
    for X in mats2:
        for Y in mats2:
            check(X, Y, Mat2.from_rows([[1, 1], [0, 1]], F2))
    for spec in (F5, Q):
        for _ in range(300):
            check(rand_mat(rng, spec), rand_mat(rng, spec), rand_mat(rng, spec))
