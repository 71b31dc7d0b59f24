"""Exact linear algebra on raw canonical values, and the solver's use of it."""

import ast
import inspect
import sys
from fractions import Fraction

import pytest

from moldkit import (
    Mat2,
    MoldLabel,
    RepTuple,
    classify,
    common_invariant_line,
    companion_normalize,
    general_conjugator,
    invariant_vector,
    linalg,
    ss_conjugator,
    ss_equivalent,
)
from moldkit import canon, fields, mat2, mold, words
from moldkit.canon import split_witness_word
from moldkit.mold import air_witness

from conftest import (
    F2,
    F3,
    F5,
    F65521,
    Q,
    in_span,
    nullspace_reference,
    rand_invertible,
    rand_mat,
    rank,
    rref_reference,
    stratum_samples,
)


def _random_system(rng, spec):
    """Rows that are random combinations of a few random rows, so the
    systems have every rank from 1 to the number of columns."""
    def value():
        if spec.p is None:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        return rng.randrange(spec.p)

    ncols = rng.randint(1, 6)
    base = [[value() for _ in range(ncols)] for _ in range(rng.randint(1, ncols))]
    return [tuple(spec.reduce(sum(value() * row[j] for row in base)) for j in range(ncols))
            for _ in range(rng.randint(1, 6))], ncols


@pytest.mark.parametrize("spec", [F2, F65521, Q], ids=str)
def test_rref_and_nullspace_return_canonical_values(rng, spec):
    def canonical(x):
        if spec.p is None:
            return type(x) is Fraction
        return type(x) is int and 0 <= x < spec.p

    for _ in range(300):
        rows, ncols = _random_system(rng, spec)
        red, pivots = linalg.rref(rows, spec.p)
        null = nullspace_reference(rows, ncols, spec.p)
        assert len(red) == len(pivots) == rank(rows, spec.p)
        assert len(red) + len(null) == ncols
        assert all(canonical(x) for row in red for x in row)
        for v in null:
            for row in rows:
                assert spec.reduce(sum(a * x for a, x in zip(row, v))) == 0
        for row in rows:
            assert in_span(red, pivots, row, spec.p)


def test_conjugacy_solver_builds_no_field_element_in_linalg(monkeypatch, rng):
    tree = ast.parse(inspect.getsource(linalg))
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    imported += [node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module]
    assert not any("fields" in name for name in imported)

    intertwiner_rows, calls, field_code = canon._intertwiner_rows, [], []
    pair_entries, screens = canon._pair_entries, []

    def screen(t1, t2):
        screens.append(t1)
        return pair_entries(t1, t2)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fields.__file__:
            field_code.append(frame.f_code.co_name)

    def watched(pairs, p):
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            rows = intertwiner_rows(pairs, p)
        finally:
            sys.setprofile(previous)
        calls.append(rows)
        assert all(type(x) is int for P, s in rows for x in (*P, s))
        return rows

    monkeypatch.setattr(canon, "_intertwiner_rows", watched)
    monkeypatch.setattr(canon, "_pair_entries", screen)
    for spec in (F3, F65521, Q):
        for _ in range(10):
            t = RepTuple((rand_mat(rng, spec), rand_mat(rng, spec)))
            P = rand_invertible(rng, spec)
            assert general_conjugator(t, t.conjugated(P)) is not None
    assert len(calls) == 30 and field_code == []
    assert len(screens) == 30  # one screen per conjugator call, reused by the solver


def test_q_rref_and_nullspace_of_int_entries_are_fractions(monkeypatch):
    """Rows of ints are taken as they are, with no rescaling; output
    values are Fractions all the same."""
    scaled = []
    int_scaled = linalg._int_scaled
    monkeypatch.setattr(linalg, "_int_scaled", lambda row: scaled.append(row) or int_scaled(row))
    red, pivots = linalg.rref([(3, 1), (1, 2)], None)
    assert red == [(1, 0), (0, 1)] and pivots == [0, 1]
    assert all(type(x) is Fraction for row in red for x in row)
    assert scaled == []
    rows = [(6, 4, 0), (Fraction(1, 2), 1, 3), (0, True, 1)]
    assert linalg.rref(rows, None) == rref_reference(rows)
    assert scaled == rows[1:]


def _q_system(rng):
    """Rows over Q of entries with numerators and denominators up to about
    10^12, some dependent on the others, with literal 0 and int entries
    and all-zero rows mixed in."""
    def value():
        kind = rng.random()
        if kind < 0.2:
            return 0
        if kind < 0.3:
            return rng.randint(-10**12, 10**12)
        return Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**12))

    ncols = rng.randint(1, 6)
    rows = [tuple(value() for _ in range(ncols)) for _ in range(rng.randint(1, 4))]
    for _ in range(rng.randint(0, 3)):
        a, b = rng.choice(rows), rng.choice(rows)
        k = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        rows.append(tuple(x + k * y for x, y in zip(a, b)))
    rows += [(0,) * ncols] * rng.randint(0, 2)
    rng.shuffle(rows)
    return rows, ncols


def test_q_rref_and_nullspace_equal_the_fraction_reference(rng):
    for _ in range(400):
        rows, _ = _q_system(rng)
        red, pivots = linalg.rref(rows, None)
        assert (red, pivots) == rref_reference(rows)
        assert all(type(x) is Fraction for row in red for x in row)


def _fp_systems(rng, p):
    """Systems over F_p: empty, all-zero and full-rank ones, then random rows
    with some dependent on the others and all-zero rows mixed in."""
    systems = [([], 3), ([(0,) * 4] * 3, 4)]
    for ncols in range(1, 7):
        rows = [[int(j == i) if j <= i else rng.randrange(p) for j in range(ncols)]
                for i in range(ncols)]
        for _ in range(ncols - 1):
            i, j = rng.sample(range(ncols), 2)
            k = rng.randrange(p)
            rows[i] = [(x + k * y) % p for x, y in zip(rows[i], rows[j])]
        rng.shuffle(rows)
        systems.append(([tuple(r) for r in rows], ncols))
    for _ in range(300):
        ncols = rng.randint(1, 6)
        rows = [tuple(rng.randrange(p) for _ in range(ncols)) for _ in range(rng.randint(1, 4))]
        for _ in range(rng.randint(0, 3)):
            a, b = rng.choice(rows), rng.choice(rows)
            k = rng.randrange(p)
            rows.append(tuple((x + k * y) % p for x, y in zip(a, b)))
        rows += [(0,) * ncols] * rng.randint(0, 2)
        rng.shuffle(rows)
        systems.append((rows, ncols))
    return systems


@pytest.mark.parametrize("p", [2, 3, 65521, 2**31 - 1])
def test_fp_rref_and_nullspace_equal_the_normalise_first_reference(rng, p):
    systems = _fp_systems(rng, p)
    assert [rank(rows, p) for rows, _ in systems[:8]] == [0, 0, 1, 2, 3, 4, 5, 6]
    for rows, _ in systems:
        red, pivots = linalg.rref(rows, p)
        assert (red, pivots) == rref_reference(rows, p)
        assert all(type(x) is int and 0 <= x < p for row in red for x in row)


def _decide_cases(rng, spec):
    """(mode, generators, a conjugate's generators, another tuple's
    generators) for stratum_samples over spec of rank 1-4 in both modes,
    group mode where every generator is invertible (and some other tuple
    is), built before any Fraction operator is patched."""
    cases = []
    for rank in (1, 2, 3, 4):
        for _ in range(3):
            samples = stratum_samples(rng, spec, rank)
            for mode in ("monoid", "group"):
                for t in samples:
                    if mode == "group" and not all(g.det for g in t.gens):
                        continue
                    conj = t.conjugated(rand_invertible(rng, spec)).gens
                    others = [u.gens for u in samples if u is not t
                              and (mode == "monoid" or all(g.det for g in u.gens))]
                    if others:
                        cases.append((mode, t.gens, conj, rng.choice(others)))
    return cases


def _q_decide_cases(rng):
    return _decide_cases(rng, Q)


def _q_decide(mode, gens, conj, other):
    """Every decider on one case, over any field: the labels, the air
    witness, the common invariant line, the moduli vector, general conjugators to a conjugate and to
    another tuple, the semi-simple deciders and split witness, and the
    companion forms."""
    t, t2, t3 = (RepTuple(g, mode) for g in (gens, conj, other))
    out = [classify(t), classify(t3), air_witness(t), common_invariant_line(t),
           invariant_vector(t), general_conjugator(t, t2), general_conjugator(t, t3)]
    if classify(t) is MoldLabel.SEMISIMPLE:
        out += [ss_conjugator(t, t2), ss_equivalent(t, t2), split_witness_word(t)]
        if classify(t3) is MoldLabel.SEMISIMPLE:
            out += [ss_conjugator(t, t3), ss_equivalent(t, t3)]
    return out + [companion_normalize(g) for g in gens if not g.is_scalar]


def test_q_kernels_run_no_fraction_arithmetic(monkeypatch, rng):
    """With Fraction's arithmetic operators refusing, Q rref, the kernel
    classifier on integer-scaled entries, and the whole Q decide path run
    and give what they gave before: group-mode RepTuple construction,
    classify, air_witness, common_invariant_line, invariant_vector,
    general_conjugator on conjugate and non-conjugate pairs, ss_conjugator,
    ss_equivalent, split_witness_word and companion_normalize.  Building a
    Fraction stays allowed."""
    systems = [_q_system(rng)[0] for _ in range(100)]
    tuples = [[linalg._int_scaled(g.values())[0] for g in t.gens]
              for rank in (1, 2, 3) for _ in range(10) for t in stratum_samples(rng, Q, rank)]
    tuples += [[(1, 0, 0, 1), (1, 6, 0, 1)]]
    rrefs = [linalg.rref(rows, None) for rows in systems]
    labels = [mold._classify_entries(None, mats) for mats in tuples]
    assert len(set(labels)) == 5
    cases = _q_decide_cases(rng)
    answers = [_q_decide(*case) for case in cases]
    assert sum(mode == "group" for mode, *_ in cases) >= 30
    flat = [x for out in answers for x in out]
    assert sum(x is MoldLabel.SEMISIMPLE for x in flat) >= 10
    assert sum(isinstance(x, Mat2) for x in flat) >= 40 and None in flat
    assert any(isinstance(x, tuple) and x[0] == "delta" for x in flat)

    def refuse(*args):
        raise AssertionError("Fraction arithmetic in a Q kernel")

    for op in ("add", "sub", "mul", "truediv", "floordiv", "mod", "pow"):
        monkeypatch.setattr(Fraction, f"__{op}__", refuse)
        monkeypatch.setattr(Fraction, f"__r{op}__", refuse)
    for op in ("neg", "abs"):
        monkeypatch.setattr(Fraction, f"__{op}__", refuse)
    with pytest.raises(AssertionError):
        Fraction(1, 2) + 1
    assert [linalg.rref(rows, None) for rows in systems] == rrefs
    assert [mold._classify_entries(None, mats) for mats in tuples] == labels
    assert [_q_decide(*case) for case in cases] == answers


@pytest.mark.parametrize("spec", [F2, F5, F65521], ids=str)
def test_fp_kernels_build_no_fraction_and_scale_nothing(monkeypatch, rng, spec):
    """The F_p twin of test_q_kernels_run_no_fraction_arithmetic: with
    Fraction construction and linalg._int_scaled refusing, wherever a
    module binds it, the whole F_p decide path runs in both modes and gives
    what it gave before: RepTuple construction, classify, air_witness,
    common_invariant_line, invariant_vector, general_conjugator on
    conjugate and non-conjugate pairs, ss_conjugator, ss_equivalent,
    split_witness_word and companion_normalize.  Over F_p a matrix's form is its residues with
    scale 1, so nothing is scaled, and words does not bind _int_scaled."""
    cases = _decide_cases(rng, spec)
    answers = [_q_decide(*case) for case in cases]
    assert sum(mode == "group" for mode, *_ in cases) >= 5
    flat = [x for out in answers for x in out]
    assert sum(x is MoldLabel.SEMISIMPLE for x in flat) >= 10
    assert sum(isinstance(x, Mat2) for x in flat) >= 40 and None in flat
    assert any(isinstance(x, tuple) and x[0] == "delta" for x in flat)

    def refuse(*args, **kwargs):
        raise AssertionError("Q work in an F_p kernel")

    monkeypatch.setattr(Fraction, "__new__", refuse)
    assert not hasattr(words, "_int_scaled")
    for module in (linalg, mat2):
        monkeypatch.setattr(module, "_int_scaled", refuse)
    with pytest.raises(AssertionError):
        Fraction(1, 2)
    assert [_q_decide(*case) for case in cases] == answers
