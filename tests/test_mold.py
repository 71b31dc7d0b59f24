"""Span closure, rank tests, six-way classification and air criteria."""

import copy
import pickle
import time
from fractions import Fraction
from itertools import combinations, product

import pytest

from moldkit import (
    FieldSpec,
    Mat2,
    MoldLabel,
    RepTuple,
    air_by_discriminants,
    classify,
    common_invariant_line,
    conjugate,
    delta2,
    delta4,
    general_conjugator,
    span_closure,
    ss_conjugator,
    tau3,
)
from moldkit import linalg
from moldkit import mold
from moldkit.mold import air_witness

from conftest import (
    F2,
    F3,
    F5,
    F65521,
    Q,
    all_mats,
    closure_label,
    in_span,
    invertible_mats,
    rand_invertible,
    rand_mat,
    rank,
    span_closure_reference,
    stratum_samples,
    word_images,
)


def tup(spec, *rows_list, mode="monoid"):
    return RepTuple(tuple(Mat2.from_rows(r, spec) for r in rows_list), mode)


def test_span_closure_examples():
    assert span_closure(tup(Q, [[1, 1], [0, 1]], [[1, 0], [1, 1]])).dim == 4
    assert span_closure(RepTuple((Mat2.identity(Q),))).dim == 1
    assert span_closure(tup(Q, [[1, 1], [0, 2]], [[1, 0], [0, 2]])).dim == 3


def test_span_closure_is_closed_and_unital(rng):
    for spec in (F3, Q):
        for _ in range(40):
            t = RepTuple((rand_mat(rng, spec), rand_mat(rng, spec)))
            basis = span_closure(t).basis
            red, piv = linalg.rref([B.values() for B in basis], spec.p)
            assert in_span(red, piv, Mat2.identity(spec).values(), spec.p)
            for X in basis:
                for Y in basis:
                    assert in_span(red, piv, (X * Y).values(), spec.p)
            for g in t.gens:
                assert in_span(red, piv, g.values(), spec.p)


def test_span_closure_matches_word_image_span(rng):
    # Oracle: the span of all word images up to length 4 (dim <= 4 makes
    # longer words redundant once the span is multiplicatively closed).
    def oracle_dim(t):
        return rank([M.values() for M in word_images(t, 4)], t.spec.p)

    mats2 = all_mats(F2)
    for A in mats2:
        for B in mats2:
            t = RepTuple((A, B))
            assert span_closure(t).dim == oracle_dim(t)
    for _ in range(40):
        t = RepTuple((rand_mat(rng, Q), rand_mat(rng, Q)))
        assert span_closure(t).dim == oracle_dim(t)


def test_span_closure_equals_the_reference_on_all_f2_pairs():
    mats2 = all_mats(F2)
    dims = set()
    for A in mats2:
        for B in mats2:
            t = RepTuple((A, B))
            closure = span_closure(t)
            assert closure == span_closure_reference(t)
            dims.add(closure.dim)
    assert dims == {1, 2, 3, 4}


def _seeded_closure_tuples(rng, spec):
    """stratum_samples of ranks 1-4 over spec, each in monoid mode and, when
    every generator is invertible, in group mode."""
    tuples = []
    for rank in (1, 2, 3, 4):
        for _ in range(6):
            for t in stratum_samples(rng, spec, rank):
                tuples.append(t)
                if all(g.det for g in t.gens):
                    tuples.append(RepTuple(t.gens, "group"))
    return tuples


@pytest.mark.parametrize("spec", [F3, F65521, FieldSpec.prime(2**31 - 1), Q], ids=str)
def test_span_closure_equals_the_reference_on_seeded_tuples(rng, spec):
    tuples = _seeded_closure_tuples(rng, spec)
    assert sum(t.mode == "group" for t in tuples) >= 20
    dims = set()
    for t in tuples:
        closure = span_closure(t)
        reference = span_closure_reference(t)
        assert closure == reference
        assert [list(map(type, M.values())) for M in closure.basis] == [
            list(map(type, M.values())) for M in reference.basis]
        dims.add(closure.dim)
    assert dims == {1, 2, 3, 4}


def test_q_span_closure_builds_no_fraction_before_boxing(monkeypatch, rng):
    """Over Q the closure runs on integer rows: with Fraction construction,
    and with it all Fraction arithmetic, refused until linalg normalises
    the echelon rows, it gives the reference's basis.  It reads the
    generators' values only: with each tuple's integer-scaled view
    removed and the kernel classifier refusing, nothing changes."""
    tuples = _seeded_closure_tuples(rng, Q)
    tuples.append(RepTuple((Mat2.from_rows([[Fraction(10**30, 7), 0], [0, 1]], Q),)))
    want = [span_closure_reference(t) for t in tuples]
    for t in tuples:
        del t.__dict__["_scaled"]

    def refuse(*args, **kwargs):
        raise AssertionError("the kernel classifier in span_closure")

    for name in ("classify", "_classify_entries", "_step", "_label"):
        monkeypatch.setattr(mold, name, refuse)
    boxing, normalised, new = [], linalg._normalised, Fraction.__new__

    def boxed(echelon, p):
        boxing.append(p)
        try:
            return normalised(echelon, p)
        finally:
            boxing.pop()

    def guarded(cls, *args, **kwargs):
        if not boxing:
            raise AssertionError("a Fraction built before the rows are boxed")
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(linalg, "_normalised", boxed)
    monkeypatch.setattr(Fraction, "__new__", guarded)
    with pytest.raises(AssertionError):
        Fraction(1, 2)
    got = [span_closure(t) for t in tuples]
    monkeypatch.undo()
    assert got == want
    assert {closure.dim for closure in got} == {1, 2, 3, 4}


def minors_rank_le2_oracle(t, max_len=3):
    """All 3x3 minors of the stacked entry columns vanish for all word triples."""
    images = word_images(t, max_len)
    for trip in combinations(range(len(images)), 3):
        cols = [images[i].values() for i in trip]
        if rank(cols, t.spec.p) > 2:
            return False
    return True


def test_rank_le2_examples_and_minor_agreement():
    def rank_le2(t):
        return classify(t).dim <= 2

    assert rank_le2(RepTuple((Mat2.identity(Q), Mat2.identity(Q).scale(Q.element(3)))))
    assert not rank_le2(tup(Q, [[1, 1], [0, 1]], [[1, 0], [1, 1]]))
    assert rank_le2(tup(Q, [[1, 0], [0, 2]], [[3, 0], [0, 4]]))
    mats2 = all_mats(F2)
    for A in mats2:
        for B in mats2:
            t = RepTuple((A, B))
            assert rank_le2(t) == minors_rank_le2_oracle(t)


def test_classify_examples():
    assert classify(tup(Q, [[1, 1], [0, 1]])) is MoldLabel.UNIPOTENT
    assert classify(tup(F2, [[0, 1], [1, 0]])) is MoldLabel.UNIPOTENT_F2
    assert classify(tup(Q, [[1, 0], [0, 2]], [[3, 0], [0, 4]])) is MoldLabel.SEMISIMPLE
    assert classify(RepTuple((Mat2.identity(Q), Mat2.identity(Q).scale(Q.element(2))))) \
        is MoldLabel.SCALAR
    assert classify(tup(F2, [[1, 1], [0, 1]], [[1, 0], [1, 1]])) is MoldLabel.AIR
    assert classify(tup(Q, [[1, 1], [0, 2]], [[1, 0], [0, 2]])) is MoldLabel.BOREL


def test_label_dim_is_span_closure_dim():
    # F2 pairs and F3 singletons between them reach every label.
    seen = set()
    mats2 = all_mats(F2)
    for A in mats2:
        for B in mats2:
            t = RepTuple((A, B))
            label = classify(t)
            seen.add(label)
            assert label.dim == span_closure(t).dim
    for A in all_mats(F3):
        t = RepTuple((A,))
        seen.add(classify(t))
        assert classify(t).dim == span_closure(t).dim
    assert seen == set(MoldLabel)


def test_classify_char_discipline():
    for A in all_mats(F2):
        assert classify(RepTuple((A,))) is not MoldLabel.UNIPOTENT
    for A in all_mats(F3):
        assert classify(RepTuple((A,))) is not MoldLabel.UNIPOTENT_F2


def test_classify_respects_conjugation_exhaustive_f2():
    mats2 = all_mats(F2)
    units = invertible_mats(F2)
    for A in mats2:
        for B in mats2:
            t = RepTuple((A, B))
            label = classify(t)
            for P in units:
                assert classify(t.conjugated(P)) is label


def test_classify_respects_conjugation_random_q(rng):
    for _ in range(60):
        t = RepTuple((rand_mat(rng, Q), rand_mat(rng, Q)))
        P = rand_invertible(rng, Q)
        assert classify(t.conjugated(P)) is classify(t)


def test_air_by_discriminants_examples():
    assert air_by_discriminants(tup(Q, [[1, 1], [0, 1]], [[1, 0], [1, 1]]))
    witness = air_witness(tup(Q, [[1, 1], [0, 1]], [[1, 0], [1, 1]]))
    assert witness[0] == "delta" and witness[1] == (1, 2)

    # tau-necessity: pairwise delta2 vanish but the triple is air.
    A = Mat2.from_rows([[1, 0], [0, 2]], Q)
    B = Mat2.from_rows([[1, 0], [1, 2]], Q)
    C = Mat2.from_rows([[2, 1], [0, 1]], Q)
    assert not delta2(A, B) and not delta2(B, C) and not delta2(C, A)
    assert tau3(A, B, C) == Q.one()
    t = RepTuple((A, B, C))
    assert air_by_discriminants(t)
    assert classify(t) is MoldLabel.AIR
    assert air_witness(t) == ("tau", (1, 2, 3), Q.one())

    for A in all_mats(F3):
        assert not air_by_discriminants(RepTuple((A,)))


def test_air_criterion_equals_dim4_f2_pairs():
    mats2 = all_mats(F2)
    for A in mats2:
        for B in mats2:
            t = RepTuple((A, B))
            assert air_by_discriminants(t) == (span_closure(t).dim == 4)


def test_group_mode_product_pair_criterion_agrees():
    units2 = invertible_mats(F2)
    for A, B, C in product(units2, units2, units2[:3]):
        t = RepTuple((A, B, C), mode="group")
        assert air_by_discriminants(t) == (span_closure(t).dim == 4)
    units3 = invertible_mats(F3)
    for A in units3[:12]:
        for B in units3:
            t = RepTuple((A, B), mode="group")
            assert air_by_discriminants(t) == (span_closure(t).dim == 4)


def test_dim3_has_invariant_line():
    mats2 = all_mats(F2)
    seen = 0
    for A in mats2:
        for B in mats2:
            t = RepTuple((A, B))
            if span_closure(t).dim == 3:
                seen += 1
                line = common_invariant_line(t)
                assert line is not None
                for g in t.gens:
                    w = (g.a11 * line[0] + g.a12 * line[1],
                         g.a21 * line[0] + g.a22 * line[1])
                    assert not (w[0] * line[1] - w[1] * line[0])
    assert seen > 0
    t = tup(Q, [[1, 1], [0, 2]], [[1, 0], [0, 2]])
    assert common_invariant_line(t) is not None


def test_dim3_has_invariant_line_f3(rng):
    mats3 = all_mats(F3)
    count = 0
    for _ in range(400):
        A, B = rng.choice(mats3), rng.choice(mats3)
        t = RepTuple((A, B))
        if span_closure(t).dim == 3:
            count += 1
            assert common_invariant_line(t) is not None
    assert count > 0


def test_classify_matches_closure_label_exhaustive_small_fields(rng):
    for spec in (F2, F3):
        mats = all_mats(spec)
        for A in mats:
            for B in mats:
                t = RepTuple((A, B))
                assert classify(t) is closure_label(t)
    mats5 = all_mats(F5)
    for _ in range(300):
        t = RepTuple(tuple(rng.choice(mats5) for _ in range(3)))
        assert classify(t) is closure_label(t)


@pytest.mark.parametrize("spec", [Q, FieldSpec.prime(2147483629)], ids=str)
def test_classify_matches_closure_label_constructed(rng, spec):
    seen = set()
    for _ in range(8):
        for rank in (1, 2, 3):
            for t in stratum_samples(rng, spec, rank):
                label = classify(t)
                assert label is closure_label(t)
                seen.add(label)
    assert seen == set(MoldLabel) - {MoldLabel.UNIPOTENT_F2}


@pytest.mark.parametrize("spec", [Q, F5, F65521], ids=str)
def test_classify_stores_one_label_per_tuple(rng, spec, monkeypatch):
    """The label agrees with the closure oracle before and after the first
    classify call, later calls read it back without classifying, and it
    takes no part in equality, hashing, repr, copies or pickles."""
    samples = [t for rank in (1, 2, 3) for _ in range(4) for t in stratum_samples(rng, spec, rank)]
    twins = [RepTuple(t.gens, t.mode) for t in samples]
    labels = []
    for t, twin in zip(samples, twins):
        want = closure_label(t)
        assert classify(t) is want and classify(t) is want
        labels.append(want)
        assert t == twin and hash(t) == hash(twin) and repr(t) == repr(twin)
        for other in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert other == t and classify(other) is want
    assert set(labels) >= {MoldLabel.SEMISIMPLE, MoldLabel.UNIPOTENT, MoldLabel.SCALAR}

    def refuse(*args):
        raise AssertionError("a classified tuple was classified again")

    monkeypatch.setattr(mold, "_classify_entries", refuse)
    assert [classify(t) for t in samples] == labels
    with pytest.raises(AssertionError):
        classify(twins[0])


def test_q_classification_and_certificates_at_benchmark_scale(rng):
    """Tuples of every Q stratum with three-digit base entries conjugated
    by a one-digit P, so that numerators and denominators reach about
    10^12: classify agrees with the span closure and with the
    discriminants, and every conjugacy certificate re-verifies."""
    def q(digits):
        lo, hi = 10 ** (digits - 1), 10**digits - 1
        return Fraction(rng.choice((-1, 1)) * rng.randint(lo, hi), rng.randint(lo, hi))

    def mat(digits=3):
        return Mat2.from_rows([[q(digits), q(digits)], [q(digits), q(digits)]], Q)

    def invertible():
        P = mat(1)
        while not P.det:
            P = mat(1)
        return P

    seen, size = set(), 0
    for rank in (1, 2, 3, 4):
        for base in stratum_samples(rng, Q, rank, mat):
            t = base.conjugated(invertible())
            size = max([size] + [x.denominator for g in t.gens for x in g.values()])
            label = classify(t)
            assert label is closure_label(t)
            assert air_by_discriminants(t) is (label is MoldLabel.AIR)
            seen.add(label)
            tuples = [t] + [RepTuple(t.gens, "group")] * all(g.det for g in t.gens)
            for t1 in tuples:
                t2 = t1.conjugated(invertible())
                certs = [general_conjugator(t1, t2)]
                if label is MoldLabel.SEMISIMPLE:
                    certs.append(ss_conjugator(t1, t2))
                for P in certs:
                    assert all(conjugate(P, A) == B for A, B in zip(t1.gens, t2.gens))
    assert seen == set(MoldLabel) - {MoldLabel.UNIPOTENT_F2}
    assert size > 10**11


@pytest.mark.parametrize("spec", [F65521, Q], ids=str)
def test_air_witness_values_equal_the_determinant_oracle(rng, spec):
    """air_witness computes delta2 and tau3 on raw entries, over Q on the
    integer-scaled view with one Fraction per value: each delta value is
    -delta4(I, A, B, AB) and each tau value delta4(A, B, C, I), the 4x4
    permutation-sum determinants in field arithmetic, here with 30-digit
    numerators and denominators over Q."""
    def entry():
        if spec.p:
            return rng.randrange(spec.p)
        return Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**30))

    def mat():
        return Mat2.from_rows([[entry(), entry()], [entry(), entry()]], spec)

    I = Mat2.identity(spec)
    # Pairwise proper subalgebras, air as a triple: only tau witnesses it,
    # after a change of basis and affine changes x I + y M of each matrix.
    triple = [Mat2.from_rows(rows, spec) for rows in ([[1, 0], [0, 2]], [[1, 0], [1, 2]],
                                                        [[2, 1], [0, 1]])]
    kinds = set()
    for _ in range(40):
        P = mat()
        while not P.det:
            P = mat()
        planes = [I.scale(entry()) + conjugate(P, M).scale(entry() or 1) for M in triple]
        for gens in ([mat(), mat()], [mat(), I.scale(entry()), mat(), mat()], planes):
            t = RepTuple(tuple(gens))
            witness = air_witness(t)
            if witness is None:
                continue
            kind, idx, value = witness
            M = [t.gens[i - 1] for i in idx]
            want = -delta4(I, M[0], M[1], M[0] * M[1]) if kind == "delta" else delta4(*M, I)
            assert value == want and value.spec == spec
            kinds.add(kind)
    assert kinds == {"delta", "tau"}


def test_deciders_do_not_use_span_closure(monkeypatch, rng):
    def refuse(t):
        raise AssertionError("span_closure is the test oracle only")

    monkeypatch.setattr(mold, "span_closure", refuse)
    for spec in (F3, Q):
        for _ in range(20):
            t = RepTuple((rand_mat(rng, spec), rand_mat(rng, spec)))
            classify(t)
            common_invariant_line(t)
    t = tup(Q, [[1, 1], [0, 2]], [[1, 0], [0, 2]])
    assert classify(t) is MoldLabel.BOREL and common_invariant_line(t) is not None


@pytest.mark.parametrize("p", [5, 13, 17, 65521, 2147483629])
def test_sqrt_mod_tonelli_shanks(rng, p):
    # Every p here is 1 mod 4, so _sqrt_mod takes its Tonelli-Shanks branch.
    assert p % 4 == 1 and FieldSpec.prime(p)
    if p < 100:
        residues = range(p)
    else:
        residues = [rng.randrange(p) for _ in range(200)]
        residues += [x * x % p for x in residues]
    for a in residues:
        root = mold._sqrt_mod(a, p)
        if pow(a, (p - 1) // 2, p) == p - 1:
            assert root is None
        else:
            assert root is not None and root * root % p == a


@pytest.mark.parametrize("spec", [F3, Q], ids=str)
def test_an_all_scalar_tuple_fixes_every_line_and_returns_the_first(spec):
    t = tup(spec, [[2, 0], [0, 2]], [[0, 0], [0, 0]])
    assert common_invariant_line(t) == (spec.one(), spec.zero())


@pytest.mark.parametrize("p", [13, 65521])
def test_split_semisimple_tuples_have_a_common_invariant_line(rng, p):
    # Generators x I + y D conjugated by a random P share the eigenlines of
    # D; the distinct eigenvalues make m a nonzero square mod p = 1 mod 4.
    spec = FieldSpec.prime(p)
    for _ in range(30):
        P = rand_invertible(rng, spec)
        lam = rng.sample(range(p), 2)
        D = Mat2.from_rows([[lam[0], 0], [0, lam[1]]], spec)
        gens = []
        for _ in range(rng.randint(1, 3)):
            x, y = rng.randrange(p), rng.randrange(1, p)
            gens.append(conjugate(P, Mat2.identity(spec).scale(spec.element(x))
                                  + D.scale(spec.element(y))))
        t = RepTuple(tuple(gens))
        assert classify(t) is MoldLabel.SEMISIMPLE
        line = common_invariant_line(t)
        assert line is not None and (line[0] or line[1])
        for g in t.gens:
            w = (g.a11 * line[0] + g.a12 * line[1], g.a21 * line[0] + g.a22 * line[1])
            assert not (w[0] * line[1] - w[1] * line[0])


@pytest.mark.parametrize("spec", [F2, F3, F5, Q], ids=str)
def test_classify_long_tuples_match_closure_label(rng, spec):
    """Tuples of rank 4-8: scalars and multiples x I + y X of the first
    generator X of a stratum sample come before the sample, so the pass
    meets rank 2 and rank 3 late.  The prefix lies in the algebra of the
    sample, so the label is the sample's, and the span closure agrees."""
    I = Mat2.identity(spec)
    seen = set()
    for _ in range(6):
        for rank in (1, 2, 3):
            for t in stratum_samples(rng, spec, rank):
                X = t.gens[0]
                prefix = []
                for _ in range(rng.randint(4, 8) - rank):
                    x, y = rand_mat(rng, spec).values()[:2]
                    scalar = I.scale(spec.element(x))
                    prefix.append(scalar if rng.random() < 0.5
                                  else scalar + X.scale(spec.element(y)))
                long = RepTuple(tuple(prefix) + t.gens)
                label = classify(long)
                assert label is closure_label(long) is classify(t)
                seen.add(label)
    unipotent = MoldLabel.UNIPOTENT_F2 if spec.p == 2 else MoldLabel.UNIPOTENT
    assert seen == set(MoldLabel) - ({MoldLabel.UNIPOTENT, MoldLabel.UNIPOTENT_F2} - {unipotent})


def _under_a_second(fn, t):
    start = time.perf_counter()
    out = fn(t)
    assert time.perf_counter() - start < 1.0
    return out


def test_classify_is_linear_at_rank_2000(rng):
    """2000 upper-triangular generators span a borel plane, so no pair and
    no triple decides early: the one pass must still end under 1 s."""
    p = F65521.p
    gens = tuple(Mat2.from_rows([[rng.randrange(p), rng.randrange(p)], [0, rng.randrange(p)]],
                                F65521) for _ in range(2000))
    t = RepTuple(gens)
    assert _under_a_second(classify, t) is MoldLabel.BOREL
    assert _under_a_second(air_witness, t) is None


def _witness_cases():
    E12 = Mat2.from_rows([[0, 1], [0, 0]], F65521)
    E21 = Mat2.from_rows([[0, 0], [1, 0]], F65521)
    scalars = tuple(Mat2.identity(F65521).scale(F65521.element(k)) for k in range(1998))
    parallel = (Mat2.from_rows([[1, 0], [0, 0]], F65521),) * 1998
    # Pairwise delta2 = 0 and tau3 = 1 over Q.
    A = Mat2.from_rows([[1, 0], [0, 2]], Q)
    B = Mat2.from_rows([[1, 0], [1, 2]], Q)
    C = Mat2.from_rows([[2, 1], [0, 1]], Q)
    q_scalars = tuple(Mat2.identity(Q).scale(Q.element(Fraction(k, 3))) for k in range(1997))
    return {
        "scalars": (scalars + (E12, E21), ("delta", (1999, 2000), F65521.one())),
        "parallel": (parallel + (E12, E21), ("delta", (1999, 2000), F65521.one())),
        "tau": (q_scalars + (A, B, C), ("tau", (1998, 1999, 2000), Q.one())),
    }


@pytest.mark.parametrize("case", ["scalars", "parallel", "tau"])
def test_air_witness_is_linear_at_rank_2000(case):
    """The witness comes last after 1997 or 1998 generators: scalars (zero
    rows), copies of diag(1, 0) (one line without a partner), or scalars
    before a triple whose pairs all have delta2 = 0.  Each search ends
    under 1 s with the lexicographically first witness."""
    gens, witness = _witness_cases()[case]
    assert _under_a_second(air_witness, RepTuple(gens)) == witness


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_air_witness_lines_without_a_partner_are_few(p):
    """The counts that bound air_witness's pair search, by brute force over
    the lines of trace-free classes (x, y, z, 0) over F_p.  At most four
    lines (two over F_2) have delta2 = 0 with both members of a pair whose
    delta2 != 0, so at most four partnerless lines come before the first
    pair.  A set of lines of rank 3 whose pairs all have delta2 = 0 has
    exactly three members, so a tuple with a tau witness only has three
    lines."""
    spec = FieldSpec.prime(p)
    lines = [Mat2.from_rows([[x, y], [z, 0]], spec) for x, y, z in product(range(p), repeat=3)
             if (x or y or z) and next(v for v in (x, y, z) if v) == 1]
    n = len(lines)
    iso = [[not delta2(A, B) for B in lines] for A in lines]
    both = max(sum(iso[k][i] and iso[k][j] for k in range(n) if k not in (i, j))
               for i, j in combinations(range(n), 2) if not iso[i][j])
    assert both == (2 if p == 2 else 4)
    triangles = 0
    for i, j, k in combinations(range(n), 3):
        if iso[i][j] and iso[i][k] and iso[j][k] and tau3(lines[i], lines[j], lines[k]):
            triangles += 1
            assert not any(iso[x][i] and iso[x][j] and iso[x][k]
                           for x in range(n) if x not in (i, j, k))
    assert triangles > 0
