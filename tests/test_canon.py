"""Conjugacy deciders with certificates and the three decompositions."""

import copy
import pickle
import time
from fractions import Fraction
from itertools import combinations, product

import pytest

from moldkit import (
    Mat2,
    MoldLabel,
    RepTuple,
    Word,
    canon,
    classify,
    conjugate,
    general_conjugator,
    invariant_vector,
    linalg,
    scalar_decompose,
    ss_conjugator,
    ss_equivalent,
    uf2_decompose,
    uf2_reconstruct,
    uf2_transition,
    unipotent_decompose,
    unipotent_reconstruct,
)
from moldkit.canon import ABChart, CharDeriv, split_witness_word
from moldkit.errors import (
    CharNotTwo,
    CharTwo,
    ChartOverlapEmpty,
    NotScalar,
    NotSemiSimple,
    NotUnipotent,
    NotUnipotentF2,
    ScalarInput,
)
from moldkit.mat2 import eta
from moldkit.words import words_up_to

from conftest import (
    F2,
    F3,
    F5,
    F65521,
    Q,
    all_mats,
    chart_reference,
    intertwiner_reference,
    invertible_in_span_reference,
    invertible_mats,
    rand_invertible,
    rand_mat,
    signed_words,
    stratum_samples,
)


def mat(spec, rows):
    return Mat2.from_rows(rows, spec)


def invertible_in_span(basis, spec):
    """canon._invertible_in_span's element (P', s) of the span of a basis
    of Mat2s, given as the (entries, scale) rows _intertwiner_rows returns
    (residues with scale 1 over F_p, _int_scaled over Q), as the Mat2
    P'/s built through Fraction entries; None when it finds none."""
    p = spec.p
    rows = [(M.values(), 1) if p else linalg._int_scaled(M.values()) for M in basis]
    found = canon._invertible_in_span(rows, p)
    if found is None:
        return None
    (a, b, c, d), s = found
    return mat(spec, [[Fraction(a, s), Fraction(b, s)], [Fraction(c, s), Fraction(d, s)]])


def verify_conjugator(P, t1, t2):
    """Independent certificate check: invertible and P^-1 A P = B entrywise."""
    det = P.a11 * P.a22 - P.a12 * P.a21
    assert det
    di = det.inv()
    Pinv = Mat2(di * P.a22, -(di * P.a12), -(di * P.a21), di * P.a11)
    for A, B in zip(t1.gens, t2.gens):
        assert Pinv * A * P == B


def test_general_conjugator_examples():
    t = RepTuple((mat(Q, [[1, 0], [0, 2]]),))
    P = general_conjugator(t, t)
    assert P is not None
    verify_conjugator(P, t, t)

    t2 = RepTuple((mat(Q, [[2, 0], [0, 1]]),))
    P = general_conjugator(t, t2)
    assert P is not None
    verify_conjugator(P, t, t2)

    t3 = RepTuple((mat(Q, [[1, 0], [0, 3]]),))
    assert general_conjugator(t, t3) is None


def test_general_conjugator_argument_checks():
    t = RepTuple((mat(Q, [[1, 0], [0, 2]]),))
    with pytest.raises(ValueError):
        general_conjugator(t, RepTuple((mat(Q, [[1, 0], [0, 2]]),) * 2))
    with pytest.raises(ValueError):
        general_conjugator(t, RepTuple((mat(F3, [[1, 0], [0, 2]]),)))
    with pytest.raises(ValueError):
        general_conjugator(t, RepTuple((mat(Q, [[1, 0], [0, 2]]),), mode="group"))


def test_general_conjugator_exhaustive_f2_against_orbit_oracle():
    mats2 = all_mats(F2)
    units = invertible_mats(F2)
    for A in mats2:
        for B in mats2:
            t1, t2 = RepTuple((A,)), RepTuple((B,))
            oracle = any(P.inverse() * A * P == B for P in units)
            P = general_conjugator(t1, t2)
            assert (P is not None) == oracle
            if P is not None:
                verify_conjugator(P, t1, t2)


def test_general_conjugator_f3_pairs_against_oracle(rng):
    mats3 = all_mats(F3)
    units = invertible_mats(F3)
    for _ in range(150):
        t1 = RepTuple((rng.choice(mats3), rng.choice(mats3)))
        if rng.random() < 0.5:
            P0 = rng.choice(units)
            t2 = t1.conjugated(P0)
        else:
            t2 = RepTuple((rng.choice(mats3), rng.choice(mats3)))
        oracle = any(t1.conjugated(P).gens == t2.gens for P in units)
        P = general_conjugator(t1, t2)
        assert (P is not None) == oracle
        if P is not None:
            verify_conjugator(P, t1, t2)


def test_general_conjugator_random_rational(rng):
    for _ in range(80):
        t1 = RepTuple((rand_mat(rng, Q), rand_mat(rng, Q)))
        P0 = rand_invertible(rng, Q)
        t2 = t1.conjugated(P0)
        P = general_conjugator(t1, t2)
        assert P is not None
        verify_conjugator(P, t1, t2)


def assert_solver_matches_reference(t1, t2):
    """On a pair that passes general_conjugator's screen, intertwiner_basis
    equals the 4m x 4 elimination reference in values and value types; on
    any pair, general_conjugator returns the reference's
    _invertible_in_span, so the screen drops only pairs with none.  The
    integer rows general_conjugator reads are the basis vectors' residues
    with scale 1 over F_p, and their _int_scaled form over Q."""
    reference = intertwiner_reference(t1, t2)
    expected = invertible_in_span(reference, t1.spec)
    pairs = canon._pair_entries(t1, t2)
    if pairs is None:
        assert expected is None
        with pytest.raises(ValueError, match="differ in trace"):
            canon.intertwiner_basis(t1, t2)
    else:
        basis = canon.intertwiner_basis(t1, t2)
        assert basis == reference
        assert [list(map(type, M.values())) for M in basis] == [
            list(map(type, M.values())) for M in reference]
        p = t1.spec.p
        assert canon._intertwiner_rows(pairs, p) == [
            (M.values(), 1) if p else linalg._int_scaled(M.values()) for M in reference]
    P = general_conjugator(t1, t2)
    assert P == expected
    if P is not None:
        assert list(map(type, P.values())) == list(map(type, expected.values()))


def test_intertwiner_basis_equals_the_elimination_reference_on_all_f2_rank_2_pairs():
    tuples = [RepTuple((A, B)) for A in all_mats(F2) for B in all_mats(F2)]
    for t1 in tuples:
        for t2 in tuples:
            assert_solver_matches_reference(t1, t2)


def test_intertwiner_basis_equals_the_elimination_reference_on_f3_pairs(rng):
    mats3, units = all_mats(F3), invertible_mats(F3)
    for _ in range(400):
        t1 = RepTuple(tuple(rng.choice(mats3) for _ in range(rng.randint(1, 3))))
        for t2 in (t1.conjugated(rng.choice(units)),
                   RepTuple(tuple(rng.choice(mats3) for _ in t1.gens))):
            assert_solver_matches_reference(t1, t2)
            assert_solver_matches_reference(t2, t1)


@pytest.mark.parametrize("spec", [F65521, Q], ids=str)
def test_intertwiner_basis_equals_the_elimination_reference_on_seeded_pairs(rng, spec):
    for rank in (1, 2, 3, 4):
        for _ in range(8):
            for t1 in stratum_samples(rng, spec, rank):
                t2 = t1.conjugated(rand_invertible(rng, spec))
                assert_solver_matches_reference(t1, t2)
                assert_solver_matches_reference(t2, t1)
                assert_solver_matches_reference(t1, t1)
                other = stratum_samples(rng, spec, rank)[rng.randrange(5)]
                assert_solver_matches_reference(t1, other)


def test_all_scalar_pairs_give_the_unit_basis_without_elimination(monkeypatch, rng):
    """Screened scalar pairs constrain nothing: the basis is E11, E12, E21,
    E22 in canonical values, as the elimination reference gives it, and
    no elimination runs."""
    cases = []
    for spec in (F5, F65521, Q):
        for rank in (1, 2, 3):
            t = RepTuple(tuple(Mat2.identity(spec).scale(rand_mat(rng, spec).a11)
                               for _ in range(rank)))
            cases.append((t, intertwiner_reference(t, t)))

    def refuse(*args):
        raise AssertionError("elimination run for an all-scalar tuple")

    monkeypatch.setattr(canon.linalg, "rref", refuse)
    monkeypatch.setattr(canon.linalg, "_insert", refuse)
    for t, reference in cases:
        spec = t.spec
        one, zero = spec.canonical(1), spec.canonical(0)
        basis = canon.intertwiner_basis(t, t)
        assert basis == reference == [Mat2.from_rows(rows, spec) for rows in (
            [[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 1]])]
        assert all(x in (one, zero) and type(x) is type(one) for M in basis for x in M.values())
        assert general_conjugator(t, t) == Mat2.identity(spec)


def test_q_invertible_in_span_equals_the_fraction_reference(rng):
    """Over Q the basis comes in as integer rows with positive scales, as
    _intertwiner_rows gives it, and the candidates are tested on integers:
    the same first invertible basis vector or pairwise sum as plain
    Fraction arithmetic finds, on spans of dimension 1-3 with small and
    with 30-digit entries, singular vectors and singular sums among
    them."""
    def big():
        return Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**30))

    def singular(entry):
        a, b, c = entry(), entry(), entry()
        while not a:
            a = entry()
        return Mat2.from_rows([[a, b], [c, b * c / a]], Q)

    found = sums = 0
    for entry in (lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 3)), big):
        for _ in range(150):
            basis = [rng.choice((singular, lambda e: rand_mat(rng, Q)))(entry)
                     for _ in range(rng.randint(1, 3))]
            want = invertible_in_span_reference(basis)
            got = invertible_in_span(basis, Q)
            assert got == want
            if got is not None:
                assert all(type(x) is Fraction for x in got.values())
                found += 1
                sums += got not in basis
    assert found > 100 and sums > 10


def test_a_later_pair_can_refuse_the_one_intertwiner_left(rng):
    """Once two pairs leave one intertwiner, a later screened pair only
    checks it, and the space is empty when it fails.  Over F_5 the swap
    and an upper triangular matrix are intertwined by the scalars alone,
    which do not carry diag(1, 2) to diag(2, 1).  Seeded screened triples
    (A, B, C) against (A, B, g^-1 C g) reach the same check."""
    t1 = RepTuple(tuple(mat(F5, rows) for rows in ([[0, 1], [1, 0]], [[1, 1], [0, 2]],
                                                  [[1, 0], [0, 2]])))
    t2 = RepTuple(t1.gens[:2] + (mat(F5, [[2, 0], [0, 1]]),))
    assert len(canon.intertwiner_basis(RepTuple(t1.gens[:2]), RepTuple(t2.gens[:2]))) == 1
    assert canon.intertwiner_basis(t1, t2) == []
    assert_solver_matches_reference(t1, t2)
    mats5, units = all_mats(F5), invertible_mats(F5)
    refused = 0
    for _ in range(300):
        A, B, C = (rng.choice(mats5) for _ in range(3))
        t1 = RepTuple((A, B, C))
        t2 = RepTuple((A, B, conjugate(rng.choice(units), C)))
        assert_solver_matches_reference(t1, t2)
        head = canon.intertwiner_basis(RepTuple((A, B)), RepTuple((A, B)))
        refused += len(head) == 1 and not canon.intertwiner_basis(t1, t2)
    assert refused > 200


def test_charts_refuse_a_tuple_with_a_generator_outside_the_span():
    """A chart that cannot fold is refused when it is built, once: a
    generator outside span{I, A_alpha} or span{I, Z} (the swap beside a
    unipotent A) in both modes, a scalar A_alpha or Z, a Z over another
    field and a character/derivation chart in characteristic 2."""
    for spec, mode in product((F5, Q), ("monoid", "group")):
        A, B = mat(spec, [[1, 1], [0, 1]]), mat(spec, [[0, 1], [1, 0]])
        with pytest.raises(NotUnipotent, match="outside the chart span"):
            CharDeriv(tup=RepTuple((A, B), mode), alpha_index=1, eta_mat=eta(A))
        two = Mat2.identity(spec).scale(spec.element(2))
        with pytest.raises(ScalarInput):
            CharDeriv(tup=RepTuple((two, A), mode), alpha_index=1, eta_mat=eta(A))
    A, B = mat(F2, [[1, 1], [0, 1]]), mat(F2, [[0, 1], [1, 0]])
    for mode in ("monoid", "group"):
        with pytest.raises(NotUnipotentF2, match="outside the chart span"):
            ABChart(tup=RepTuple((A, B), mode), base_word=Word((1,)), Z=A)
    with pytest.raises(ScalarInput):
        ABChart(tup=RepTuple((A,)), base_word=Word(()), Z=Mat2.identity(F2))
    for spec in (F5, Q):
        with pytest.raises(ValueError, match="^mixed field arithmetic"):
            ABChart(tup=RepTuple((A,)), base_word=Word((1,)), Z=mat(spec, [[1, 1], [0, 1]]))
    with pytest.raises(CharTwo):
        CharDeriv(tup=RepTuple((A,)), alpha_index=1, eta_mat=mat(F2, [[0, 1], [0, 0]]))


@pytest.mark.parametrize("spec", [F5, Q], ids=str)
def test_a_chart_index_outside_the_rank_is_refused(spec):
    """alpha_index 0 or -1 does not wrap to the last generator, and rank + 1
    is refused when the chart is built, not word by word."""
    A, B = mat(spec, [[1, 1], [0, 1]]), mat(spec, [[2, 1], [0, 2]])
    t = RepTuple((A, B))
    for i in (0, -1, 3):
        with pytest.raises(IndexError):
            CharDeriv(tup=t, alpha_index=i, eta_mat=eta(A))
    assert CharDeriv(tup=t, alpha_index=2, eta_mat=eta(B)).coords(Word((2,))) == (
        spec.element(2), spec.one())


def _chart_calls(spec):
    """Every chart call on a monoid pair and a group pair over spec, as
    (tuple, call) pairs: the character/derivation chart outside
    characteristic 2, the (a, b)-chart and a transition chart in it."""
    if spec.characteristic() == 2:
        A = mat(spec, [[0, 1], [1, 0]])
        calls = []
        # I + A is singular, so the group pair repeats A.
        for t in (RepTuple((A, Mat2.identity(spec) + A)), RepTuple((A, A), "group")):
            for ch in (uf2_decompose(t), uf2_transition(uf2_decompose(t), Word((2,)))):
                calls += [(t, ch.a), (t, ch.b), (t, ch.d), (t, ch.coords),
                          (t, lambda w, ch=ch: uf2_reconstruct(ch, w)),
                          (t, lambda w, ch=ch: uf2_transition(ch, w))]
        return calls
    I, N = Mat2.identity(spec), mat(spec, [[0, 1], [0, 0]])
    calls = []
    for mode in ("monoid", "group"):
        t = RepTuple((I.scale(spec.element(2)) + N, I + N), mode)
        cd = unipotent_decompose(t)
        calls += [(t, cd.r), (t, cd.d), (t, cd.coords),
                  (t, lambda w, cd=cd: unipotent_reconstruct(cd, w))]
    return calls


@pytest.mark.parametrize("spec", [F2, F5, Q])
def test_chart_calls_refuse_bad_letters_as_evaluate_does(spec):
    """An inverse letter in monoid mode raises evaluate's ValueError from
    every chart call, and a letter past the rank the exception type that
    RepTuple.evaluate raises, ahead of or behind a valid letter."""
    for t, call in _chart_calls(spec):
        if t.mode == "monoid":
            for w in (Word((-1,)), Word((1, -2))):
                with pytest.raises(ValueError, match="^inverse letters require group mode$"):
                    call(w)
        for w in (Word((3,)), Word((1, 3)), Word((-3,)), Word((3, -1))):
            if t.mode == "monoid" and w.letters[0] < 0:
                continue
            try:
                t.evaluate(w)
            except Exception as exc:
                expected = type(exc)
            with pytest.raises(expected) as info:
                call(w)
            assert type(info.value) is expected


def test_a_chart_based_at_a_longer_word_has_no_alpha_index():
    A = mat(F2, [[0, 1], [1, 0]])
    ch = uf2_decompose(RepTuple((A, Mat2.identity(F2) + A)))
    assert ch.alpha_index == 1
    assert uf2_transition(ch, Word((2,))).alpha_index == 2
    via = uf2_transition(ch, Word((1, 2)))
    assert via.base_word == Word((1, 2)) and via.alpha_index is None


def test_ss_equivalent_examples():
    t1 = RepTuple((mat(Q, [[1, 0], [0, 2]]), mat(Q, [[3, 0], [0, 4]])))
    P = mat(Q, [[1, 1], [0, 1]])
    assert ss_equivalent(t1, t1.conjugated(P))
    a = RepTuple((mat(Q, [[1, 0], [0, 2]]),))
    b = RepTuple((mat(Q, [[2, 0], [0, 1]]),))
    assert ss_equivalent(a, b)
    t2 = RepTuple((mat(Q, [[1, 0], [0, 2]]), mat(Q, [[4, 0], [0, 3]])))
    assert not ss_equivalent(t1, t2)
    with pytest.raises(NotSemiSimple):
        ss_equivalent(RepTuple((mat(Q, [[1, 1], [0, 1]]),)), a)


def test_ss_equivalent_matches_solver_on_small_strata():
    for spec, m in ((F2, 1), (F2, 2), (F3, 1)):
        mats = all_mats(spec)
        ss_tuples = [RepTuple(gens) for gens in product(mats, repeat=m)
                     if classify(RepTuple(gens)) is MoldLabel.SEMISIMPLE]
        # Compare on a deterministic slice of all pairs to keep this quick.
        for i in range(0, len(ss_tuples), max(1, len(ss_tuples) // 40)):
            for j in range(0, len(ss_tuples), max(1, len(ss_tuples) // 40)):
                t1, t2 = ss_tuples[i], ss_tuples[j]
                assert ss_equivalent(t1, t2) == (general_conjugator(t1, t2) is not None)


def test_ss_conjugator():
    t1 = RepTuple((mat(Q, [[1, 0], [0, 2]]), mat(Q, [[3, 0], [0, 4]])))
    P0 = mat(Q, [[1, 1], [0, 1]])
    t2 = t1.conjugated(P0)
    P = ss_conjugator(t1, t2)
    assert P is not None
    verify_conjugator(P, t1, t2)

    t3 = RepTuple((mat(Q, [[1, 0], [0, 2]]), mat(Q, [[4, 0], [0, 3]])))
    assert ss_conjugator(t1, t3) is None
    with pytest.raises(NotSemiSimple):
        ss_conjugator(RepTuple((mat(Q, [[1, 1], [0, 1]]),)), t1)


@pytest.mark.parametrize("spec", [F65521, Q], ids=str)
def test_general_conjugator_refuses_a_wrong_certificate(monkeypatch, spec):
    """The exact re-verification of t1_i P = P t2_i raises on a wrong
    invertible P and accepts a scalar multiple of a right one."""
    t = RepTuple((mat(spec, [[Fraction(1, 2), 0], [0, 3]]), mat(spec, [[Fraction(2, 3), 0], [0, 5]])))
    monkeypatch.setattr(canon, "_invertible_in_span", lambda *args: ((1, 1, 0, 1), 1))
    with pytest.raises(RuntimeError, match="intertwiner failed verification"):
        general_conjugator(t, t)
    scalar = mat(spec, [[Fraction(3, 7), 0], [0, Fraction(3, 7)]])
    monkeypatch.setattr(canon, "_invertible_in_span", lambda *args: ((3, 0, 0, 3), 7))
    assert general_conjugator(t, t) == scalar


@pytest.mark.parametrize("spec", [F65521, Q], ids=str)
def test_ss_conjugator_refuses_a_wrong_certificate(monkeypatch, spec):
    """A companion normalization of t2 that is off by a unipotent factor
    gives a wrong invertible P, which the re-verification refuses."""
    t = RepTuple((mat(spec, [[1, 0], [0, 2]]), mat(spec, [[Fraction(3, 5), 0], [0, 4]])))
    real, calls = canon._companion_frame, []

    def skewed(*entries):
        (x, y, z, w), branch = real(*entries)
        calls.append(entries)
        # The second frame, t2's, times [[1, 1], [0, 1]].
        return ((x, y, z, w) if len(calls) == 1 else (x, x + y, z, z + w)), branch

    monkeypatch.setattr(canon, "_companion_frame", skewed)
    with pytest.raises(RuntimeError, match="semi-simple certificate failed verification"):
        ss_conjugator(t, t)
    assert len(calls) == 2


def test_ss_conjugator_diag_swap_is_the_permutation():
    a = RepTuple((mat(Q, [[1, 0], [0, 2]]),))
    b = RepTuple((mat(Q, [[2, 0], [0, 1]]),))
    assert ss_conjugator(a, b) == mat(Q, [[0, 1], [1, 0]])


def test_split_witness_word():
    t = RepTuple((mat(Q, [[1, 0], [0, 2]]), mat(Q, [[1, 1], [0, 1]])))
    assert split_witness_word(t) == Word((1,))
    t2 = RepTuple((mat(Q, [[1, 1], [0, 1]]), mat(Q, [[1, 0], [0, 2]])))
    assert split_witness_word(t2) == Word((2,))


def test_unipotent_decompose_example():
    t = RepTuple((mat(Q, [[1, 1], [0, 1]]),))
    cd = unipotent_decompose(t)
    assert cd.alpha_index == 1
    assert cd.eta_mat == mat(Q, [[0, 1], [0, 0]])
    assert cd.r(Word((1,))) == Q.one()
    assert cd.d(Word((1,))) == Q.one()
    assert cd.r(Word((1, 1))) == Q.one()
    assert cd.d(Word((1, 1))) == Q.element(2)

    with pytest.raises(NotUnipotent):
        unipotent_decompose(RepTuple((Mat2.identity(Q),)))
    with pytest.raises(CharTwo):
        unipotent_decompose(RepTuple((mat(F2, [[1, 1], [0, 1]]),)))


def test_unipotent_reconstruct_examples():
    t = RepTuple((mat(Q, [[1, 1], [0, 1]]),))
    cd = unipotent_decompose(t)
    assert unipotent_reconstruct(cd, Word(())) == Mat2.identity(Q)
    assert unipotent_reconstruct(cd, Word((1,))) == t.gens[0]
    assert unipotent_reconstruct(cd, Word((1, 1, 1))) == mat(Q, [[1, 3], [0, 1]])


def test_unipotent_chart_properties(rng):
    for _ in range(40):
        # Random unipotent pair: span{I, N} with N nilpotent nonzero.
        P = rand_invertible(rng, Q)
        N = P.inverse() * mat(Q, [[0, 1], [0, 0]]) * P
        g1 = Mat2.identity(Q).scale(Q.element(rng.randint(-5, 5))) + N.scale(
            Q.element(rng.randint(1, 5)))
        g2 = Mat2.identity(Q).scale(Q.element(rng.randint(-5, 5))) + N.scale(
            Q.element(rng.randint(-5, 5)))
        t = RepTuple((g1, g2))
        if classify(t) is not MoldLabel.UNIPOTENT:
            continue
        cd = unipotent_decompose(t)
        assert cd.r(Word(())) == Q.one()
        assert not cd.d(Word(()))
        assert cd.eta_mat * cd.eta_mat == Mat2.zero(Q)
        assert not cd.eta_mat.tr
        words = list(words_up_to(2, 3))
        for w1 in words[:8]:
            for w2 in words[:8]:
                w12 = Word(w1.letters + w2.letters)
                assert cd.r(w12) == cd.r(w1) * cd.r(w2)
                assert cd.d(w12) == cd.r(w1) * cd.d(w2) + cd.d(w1) * cd.r(w2)
        for i in range(1, 3):
            assert unipotent_reconstruct(cd, Word((i,))) == t.gens[i - 1]
        # 2 tr(XY) = tr X tr Y on the unipotent mold.
        imgs = [t.evaluate(w) for w in words[:10]]
        for X in imgs:
            for Y in imgs:
                assert 2 * (X * Y).tr == X.tr * Y.tr


def test_chart_values_evaluate_no_word_on_the_fold(monkeypatch):
    """Charts from unipotent_decompose, uf2_decompose and uf2_transition
    fold every value and evaluate no word; a chart built directly on a
    tuple that is not unipotent is refused when it is built, without
    evaluating a word."""
    evaluated = []
    evaluate = RepTuple.evaluate

    def counted(tup, w):
        evaluated.append(w)
        return evaluate(tup, w)

    monkeypatch.setattr(RepTuple, "evaluate", counted)

    def calls(fn, w):
        evaluated.clear()
        try:
            fn(w)
        except ChartOverlapEmpty:
            pass
        assert evaluated == []

    words = list(words_up_to(2, 3))
    N = mat(Q, [[0, 1], [0, 0]])
    I = Mat2.identity(Q)
    t = RepTuple((I.scale(Q.element(2)) + N, I + N.scale(Q.element(3))))
    cd = unipotent_decompose(t)
    A = mat(F2, [[0, 1], [1, 0]])
    ch = uf2_decompose(RepTuple((A, Mat2.identity(F2) + A)))
    calls(lambda w: uf2_transition(ch, w), Word((2,)))
    via = uf2_transition(uf2_transition(ch, Word((2,))), Word((2, 1)))
    for w in words:
        for fn in (cd.coords, cd.r, cd.d, lambda w: unipotent_reconstruct(cd, w)):
            calls(fn, w)
        assert cd.coords(w) == (cd.r(w), cd.d(w))
        for chart in (ch, via):
            for fn in (chart.coords, chart.a, chart.b, chart.d,
                       lambda w: uf2_reconstruct(chart, w)):
                calls(fn, w)
            assert chart.coords(w) == (chart.a(w), chart.b(w), chart.d(w))
    for spec in (F5, Q):
        A, B = mat(spec, [[1, 1], [0, 1]]), mat(spec, [[0, 1], [1, 0]])
        with pytest.raises(NotUnipotent):
            CharDeriv(tup=RepTuple((A, B)), alpha_index=1, eta_mat=eta(A))
    A, B = mat(F2, [[1, 1], [0, 1]]), mat(F2, [[0, 1], [1, 0]])
    with pytest.raises(NotUnipotentF2):
        ABChart(tup=RepTuple((A, B)), base_word=Word((1,)), Z=A)
    assert evaluated == []


def unipotent_tuple(rng, spec, rank, mode):
    """A seeded unipotent tuple x_i I + y_i N, N a conjugate of E12, with
    x_i != 0 in group mode and some y_i = 0 at random: scalar generators."""
    P = rand_invertible(rng, spec, span=4)
    N = P.inverse() * mat(spec, [[0, 1], [0, 0]]) * P
    while True:
        gens = []
        for _ in range(rank):
            x = rand_mat(rng, spec, span=4).a11
            while mode == "group" and not x:
                x = rand_mat(rng, spec, span=4).a11
            y = rand_mat(rng, spec, span=4).a12 if rng.random() < 0.8 else spec.zero()
            gens.append(Mat2.identity(spec).scale(x) + N.scale(y))
        t = RepTuple(tuple(gens), mode)
        if classify(t) is MoldLabel.UNIPOTENT:
            return t


def assert_chart_is_the_evaluation(chart, words):
    """coords, d and the reconstruction of the fold equal the values read
    from each word's evaluated image (conftest.chart_reference)."""
    for w in words:
        values, image = chart_reference(chart, w)
        assert chart.coords(w) == values
        if isinstance(chart, CharDeriv):
            assert (chart.r(w), chart.d(w)) == values
            assert unipotent_reconstruct(chart, w) == image
        else:
            assert (chart.a(w), chart.b(w), chart.d(w)) == values
            assert uf2_reconstruct(chart, w) == image


@pytest.mark.parametrize("spec", [F3, F5, Q], ids=str)
def test_unipotent_fold_equals_the_evaluation(rng, spec):
    """Every word of length <= 6 in group mode, inverse letters included
    (<= 4 over Q), every positive word of length <= 6 in monoid mode, and
    rank-3 group words of length <= 2."""
    group_len = 4 if spec.is_rationals else 6
    for rank, mode, count, words in ((2, "group", 2, signed_words(2, group_len)),
                                     (2, "monoid", 6, list(words_up_to(2, 6))),
                                     (3, "group", 4, signed_words(3, 2))):
        for _ in range(count):
            t = unipotent_tuple(rng, spec, rank, mode)
            assert_chart_is_the_evaluation(unipotent_decompose(t), words)


def test_uf2_fold_equals_the_evaluation_on_transition_chains_and_word_bases():
    """Every rank-2 (a, b)-chart over F_2 in both modes on every word of
    length <= 6 (signed words of length <= 4 off the first group tuple),
    and on the words of length <= 3 a chart built directly at a non-scalar
    word, a transition there and a two-step transition chain."""
    group = [t for t in (RepTuple((A, B), "group") for A in invertible_mats(F2)
                         for B in invertible_mats(F2)) if classify(t) is MoldLabel.UNIPOTENT_F2]
    for t in uf2_tuples_f2(2) + group:
        ch = uf2_decompose(t)
        if t.mode == "group":
            words = signed_words(2, 6 if t is group[0] else 4)
        else:
            words = list(words_up_to(2, 6))
        assert_chart_is_the_evaluation(ch, words)
        bases = [w for w in words_up_to(2, 3) if not t.evaluate(w).is_scalar]
        beta, gamma = bases[-1], bases[0]
        via = uf2_transition(ch, beta)
        charts = [ABChart(tup=t, base_word=beta, Z=t.evaluate(beta)), via]
        if via.b(gamma):
            charts.append(uf2_transition(via, gamma))
        for chart in charts:
            assert_chart_is_the_evaluation(chart, [w for w in words if len(w) <= 3])


def test_a_2000_letter_q_group_word_folds_to_its_evaluation(rng):
    t = unipotent_tuple(rng, Q, 3, "group")
    cd = unipotent_decompose(t)
    w = Word(tuple(rng.choice((1, 2, 3, -1, -2, -3)) for _ in range(2000)))
    M = t.evaluate(w)
    assert unipotent_reconstruct(cd, w) == M
    assert cd.coords(w) == chart_reference(cd, w)[0]
    assert max(x.denominator for x in M.values()) > 1


def test_chart_algebra_is_kept_out_of_equality_and_survives_copy_and_pickle():
    """The generator coordinates a chart folds from sit in its instance
    __dict__, not in a field: equal charts compare and hash alike and
    print without them, and a copied or pickled chart carries them."""
    N = mat(Q, [[0, 1], [0, 0]])
    I = Mat2.identity(Q)
    t = RepTuple((I + N.scale(Q.element(Fraction(1, 2))), I.scale(Q.element(3))), "group")
    A = mat(F2, [[0, 1], [1, 0]])
    ch = uf2_decompose(RepTuple((A, Mat2.identity(F2) + A)))
    for chart in (unipotent_decompose(t), ch, uf2_transition(ch, Word((2,)))):
        assert "_algebra" in vars(chart) and "_algebra" not in repr(chart)
        twin = type(chart)(**{f: getattr(chart, f) for f in chart.__dataclass_fields__})
        assert twin == chart and hash(twin) == hash(chart)
        for other in (copy.copy(chart), copy.deepcopy(chart), pickle.loads(pickle.dumps(chart))):
            assert other == chart and vars(other)["_algebra"] == vars(chart)["_algebra"]
            assert other.coords(Word((2, 1, 2))) == chart.coords(Word((2, 1, 2)))
    assert vars(uf2_transition(ch, Word((2,))))["_algebra"] is vars(ch)["_algebra"]


def test_uf2_decompose_example():
    t = RepTuple((mat(F2, [[0, 1], [1, 0]]),))
    ch = uf2_decompose(t)
    assert ch.alpha_index == 1
    assert ch.d(Word((1,))) == F2.one()
    assert not ch.a(Word((1,)))
    assert ch.b(Word((1,))) == F2.one()
    assert ch.a(Word((1, 1))) == F2.one()
    assert not ch.b(Word((1, 1)))

    with pytest.raises(NotUnipotentF2):
        uf2_decompose(RepTuple((mat(F2, [[1, 1], [1, 0]]),)))  # trace 1
    with pytest.raises(CharNotTwo):
        uf2_decompose(RepTuple((mat(F3, [[0, 1], [1, 0]]),)))


def test_uf2_reconstruct_examples():
    t = RepTuple((mat(F2, [[0, 1], [1, 0]]),))
    ch = uf2_decompose(t)
    assert uf2_reconstruct(ch, Word(())) == Mat2.identity(F2)
    assert uf2_reconstruct(ch, Word((1,))) == ch.Z
    assert uf2_reconstruct(ch, Word((1, 1, 1))) == ch.Z
    assert uf2_reconstruct(ch, Word((1, 1))).det == ch.d(Word((1, 1)))


def uf2_tuples_f2(m):
    mats = all_mats(F2)
    out = []
    for gens in product(mats, repeat=m):
        t = RepTuple(gens)
        if classify(t) is MoldLabel.UNIPOTENT_F2:
            out.append(t)
    return out


def test_uf2_functional_equations_exhaustive():
    for t in uf2_tuples_f2(2):
        ch = uf2_decompose(t)
        d_alpha = ch.d(ch.base_word)
        words = list(words_up_to(2, 2))
        for w1 in words:
            for w2 in words:
                w12 = Word(w1.letters + w2.letters)
                assert ch.a(w12) == ch.a(w1) * ch.a(w2) + ch.b(w1) * ch.b(w2) * d_alpha
                assert ch.b(w12) == ch.a(w1) * ch.b(w2) + ch.b(w1) * ch.a(w2)
                assert ch.a(w1) ** 2 + ch.b(w1) ** 2 * d_alpha == ch.d(w1)
        for i, g in enumerate(t.gens, start=1):
            assert uf2_reconstruct(ch, Word((i,))) == g


def test_uf2_transition_example():
    A = mat(F2, [[0, 1], [1, 0]])
    t = RepTuple((A, Mat2.identity(F2) + A))
    ch = uf2_decompose(t)
    beta = Word((2,))
    assert ch.a(beta) == F2.one() and ch.b(beta) == F2.one()
    ch2 = uf2_transition(ch, beta)
    alpha = Word((1,))
    assert ch2.b(alpha) == F2.one()
    assert ch2.a(alpha) == F2.one()
    # Identity transition: re-basing at the same word changes nothing.
    same = uf2_transition(ch, Word((1,)))
    for w in words_up_to(2, 2):
        assert same.a(w) == ch.a(w) and same.b(w) == ch.b(w)
    # A scalar image gives an empty overlap.
    with pytest.raises(ChartOverlapEmpty):
        uf2_transition(ch, Word(()))


def test_uf2_transition_matches_direct_chart_and_cocycle():
    from moldkit.canon import ABChart

    for t in uf2_tuples_f2(2):
        ch = uf2_decompose(t)
        words = [w for w in words_up_to(2, 3) if not t.evaluate(w).is_scalar]
        value_words = list(words_up_to(2, 2))
        for beta in words[:6]:
            via = uf2_transition(ch, beta)
            direct = ABChart(tup=t, base_word=beta, Z=t.evaluate(beta))
            for w in value_words:
                assert via.a(w) == direct.a(w)
                assert via.b(w) == direct.b(w)
                assert uf2_reconstruct(via, w) == t.evaluate(w)
            for gamma in words[:6]:
                if not via.b(gamma):
                    continue
                two_step = uf2_transition(via, gamma)
                one_step = uf2_transition(ch, gamma)
                for w in value_words:
                    assert two_step.a(w) == one_step.a(w)
                    assert two_step.b(w) == one_step.b(w)


def test_uf2_transition_chain_depth_50_is_fast():
    from moldkit.canon import ABChart

    A = mat(F2, [[0, 1], [1, 0]])
    t = RepTuple((A, Mat2.identity(F2) + A))
    start = time.perf_counter()
    ch = uf2_decompose(t)
    for depth in range(50):
        ch = uf2_transition(ch, Word((2 - depth % 2,)))
    direct = ABChart(tup=t, base_word=ch.base_word, Z=t.evaluate(ch.base_word))
    for w in words_up_to(2, 3):
        assert ch.a(w) == direct.a(w) and ch.b(w) == direct.b(w)
        assert uf2_reconstruct(ch, w) == t.evaluate(w)
    assert time.perf_counter() - start < 1.0


def test_scalar_decompose():
    t = RepTuple((Mat2.identity(Q), Mat2.identity(Q).scale(Q.element(2))))
    assert [c.value for c in scalar_decompose(t)] == [1, 2]
    assert [c.value for c in scalar_decompose(RepTuple((Mat2.identity(Q),)))] == [1]
    with pytest.raises(NotScalar):
        scalar_decompose(RepTuple((mat(Q, [[1, 0], [0, 2]]),)))
    # Equivalence on the scalar stratum is equality of character lists.
    t2 = RepTuple((Mat2.identity(Q), Mat2.identity(Q).scale(Q.element(3))))
    assert (scalar_decompose(t) == scalar_decompose(t2)) == (
        general_conjugator(t, t2) is not None)


@pytest.mark.parametrize("spec, mode", [(F3, "monoid"), (F3, "group"), (F2, "group")],
                         ids=["F3-monoid", "F3-group", "F2-group"])
def test_ss_deciders_match_invariant_vector_and_solver_on_every_pair(spec, mode):
    """On every pair of semi-simple rank-2 tuples, ss_equivalent,
    equality of the full invariant vectors and the solver agree.  The solver
    runs on every tuple against the first tuple of its vector class, and on
    every pair of class representatives; conjugacy is an equivalence
    relation, so these verified certificates and refusals fix its verdict
    on every pair.  ss_conjugator runs on every equivalent pair, where its
    certificate must verify, and on every pair of representatives."""
    pool = invertible_mats(spec) if mode == "group" else all_mats(spec)
    tuples = [t for t in (RepTuple(gens, mode) for gens in product(pool, repeat=2))
              if classify(t) is MoldLabel.SEMISIMPLE]
    vectors = [invariant_vector(t) for t in tuples]
    reps = {}
    for t, vec in zip(tuples, vectors):
        rep = reps.setdefault(vec, t)
        P = general_conjugator(rep, t)
        assert P is not None
        verify_conjugator(P, rep, t)
    for r1, r2 in combinations(reps.values(), 2):
        assert general_conjugator(r1, r2) is None
        assert ss_conjugator(r1, r2) is None
    for i, (t1, v1) in enumerate(zip(tuples, vectors)):
        for t2, v2 in zip(tuples[i:], vectors[i:]):
            assert ss_equivalent(t1, t2) == (v1 == v2)
            if v1 == v2:
                verify_conjugator(ss_conjugator(t1, t2), t1, t2)


@pytest.mark.parametrize("spec", [F65521, Q], ids=str)
def test_ss_deciders_at_group_rank_12_are_fast(spec):
    """Rank 12 in group mode would need 2^24 - 1 traces as full vectors."""
    X = mat(spec, [[1, 2], [3, 5]])
    gens = tuple(Mat2.identity(spec).scale(spec.element(i)) + X.scale(spec.element(Fraction(1, i)))
                 for i in range(1, 13))
    t1 = RepTuple(gens, "group")
    t2 = t1.conjugated(mat(spec, [[2, 1], [7, 4]]))
    t3 = RepTuple(gens[:-1] + (gens[-1] + Mat2.identity(spec),), "group")
    start = time.perf_counter()
    assert ss_equivalent(t1, t2) and not ss_equivalent(t1, t3)
    P = ss_conjugator(t1, t2)
    verify_conjugator(P, t1, t2)
    assert ss_conjugator(t1, t3) is None
    assert time.perf_counter() - start < 1.0
