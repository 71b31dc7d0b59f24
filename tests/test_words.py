"""Words, tuple validation and the split-witness search."""

import copy
import pickle
import time
from fractions import Fraction

import pytest

from moldkit import FieldElement, Mat2, MoldLabel, RepTuple, Word, canon, classify, fields
from moldkit import linalg, mat2, ss_equivalent
from moldkit.linalg import _int_scaled
from moldkit.mold import air_witness
from moldkit.canon import split_witness_word
from moldkit.errors import BudgetExceeded, NoSplitGenerator, NonInvertibleGenerator
from moldkit.invariants import invariant_vector
from moldkit.words import words_up_to

from conftest import F3, F5, F65521, Q, increasing_subsequences, rand_invertible, rand_mat


def test_word_parsing_and_validation():
    assert Word.parse("1,2,-1").letters == (1, 2, -1)
    assert Word.parse("").letters == ()
    assert str(Word((1, 2))) == "1,2"
    assert len(Word((1, 1, 1))) == 3
    with pytest.raises(ValueError):
        Word((1, 0))


def test_words_up_to_short_lex():
    ws = list(words_up_to(2, 2))
    assert [w.letters for w in ws] == [
        (), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]


def test_rep_tuple_validation():
    A = Mat2.from_rows([[1, 1], [0, 1]], Q)
    singular = Mat2.from_rows([[1, 0], [0, 0]], Q)
    with pytest.raises(NonInvertibleGenerator):
        RepTuple((A, singular), mode="group")
    RepTuple((A, singular))  # fine in monoid mode
    with pytest.raises(ValueError):
        RepTuple(())
    with pytest.raises(ValueError):
        RepTuple((A,), mode="ring")
    with pytest.raises(ValueError):
        RepTuple((A, Mat2.from_rows([[1, 1], [0, 1]], F3)))


def test_matrices_and_group_tuples_are_built_without_boxing(monkeypatch):
    # Entries are made canonical by FieldSpec.canonical and the group-mode
    # det check reads raw values: no FieldElement is built and unboxed.
    def boxed(*args):
        raise AssertionError("a FieldElement was created")

    monkeypatch.setattr(FieldElement, "__init__", boxed)
    monkeypatch.setattr(fields, "_fe", boxed)
    monkeypatch.setattr(mat2, "_fe", boxed)
    for spec in (F5, Q):
        A = Mat2.from_rows([[1, 2], [-3, Fraction(1, 2)]], spec)
        B = Mat2.from_rows([[7, 0], [1, 1]], spec)
        assert RepTuple((A, B), mode="group").rank == 2
        for singular in ([[2, 4], [1, 2]], [[Fraction(1, 2), -1], [Fraction(-1, 4), Fraction(1, 2)]]):
            with pytest.raises(NonInvertibleGenerator):
                RepTuple((A, Mat2.from_rows(singular, spec)), mode="group")


@pytest.mark.parametrize("spec", [F5, Q], ids=str)
def test_rep_tuple_keeps_its_generators_when_the_given_list_changes(spec):
    # A group-mode tuple built from a list must not take in a singular
    # generator appended to that list later.
    N = Mat2.from_rows([[1, 1], [0, 1]], spec)
    gens = [N]
    t = RepTuple(gens, "group")
    gens.append(Mat2.from_rows([[1, 0], [0, 0]], spec))
    assert type(t.gens) is tuple and t.gens == (N,) and t.rank == 1
    assert t == RepTuple((N,), "group") and hash(t) == hash(RepTuple((N,), "group"))
    assert invariant_vector(t).dets == (spec.one(), spec.one())


@pytest.mark.parametrize("mode", ["monoid", "group"])
def test_q_tuples_store_one_integer_scaled_view(monkeypatch, rng, mode):
    """Over Q a RepTuple scales each generator once, when it is built, to
    the pair linalg._int_scaled gives; the view takes no part in equality,
    hashing or repr, a copy or pickle carries it, and the kernels read it
    without scaling again.  Over F_p the view is each generator's
    residues with scale 1: its values() tuple itself."""
    gens = tuple(rand_invertible(rng, Q) for _ in range(3))
    t = RepTuple(list(gens), mode)
    assert t._scaled == tuple(_int_scaled(g.values()) for g in gens)
    assert all(type(x) is int and s > 0 for ints, s in t._scaled for x in ints)
    twin = RepTuple(gens, mode)
    classify(twin)
    assert t == twin and hash(t) == hash(twin) and repr(t) == repr(twin)
    for other in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert other._scaled == t._scaled and other == t
    fp_gens = tuple(rand_invertible(rng, F5) for _ in range(2))
    fp_view = RepTuple(fp_gens, mode)._scaled
    assert fp_view == tuple((g.values(), 1) for g in fp_gens)
    assert all(ints is g.values() for (ints, _), g in zip(fp_view, fp_gens))
    A = gens[0]
    while not A.m:
        A = rand_invertible(rng, Q)
    split = RepTuple((A, Mat2.identity(Q).scale(Q.element(2)) + A.scale(Q.element(3))), mode)

    def refuse(values):
        raise AssertionError("a generator was scaled again")

    monkeypatch.setattr(linalg, "_int_scaled", refuse)
    assert classify(t) is MoldLabel.AIR and air_witness(t)[0] == "delta"
    assert len(invariant_vector(t).traces) == 2 ** (6 if mode == "group" else 3) - 1
    assert canon._pair_entries(t, twin) is not None
    assert classify(split) is MoldLabel.SEMISIMPLE and ss_equivalent(split, split)


def test_inverse_letters_need_group_mode():
    A = Mat2.from_rows([[1, 0], [0, 2]], Q)
    t = RepTuple((A,))
    with pytest.raises(ValueError):
        t.evaluate(Word((-1,)))
    tg = RepTuple((A,), mode="group")
    assert tg.evaluate(Word((-1, 1))) == Mat2.identity(Q)


def test_split_witness_product_branch():
    # Both generators have m = 0 but their product splits.
    A = Mat2.from_rows([[1, 1], [0, 1]], Q)
    B = Mat2.from_rows([[1, 0], [1, 1]], Q)
    assert split_witness_word(RepTuple((A, B))) == Word((1, 2))
    # On a unipotent tuple every increasing product has m = 0.
    N = Mat2.from_rows([[0, 1], [0, 0]], Q)
    with pytest.raises(NoSplitGenerator):
        split_witness_word(RepTuple((A, A + N)))


def test_split_witness_search_over_the_trace_budget_raises_fast():
    # Strictly upper-triangular generators: every product has m = 0, so
    # only the 2^17 - 1 subsequence search could find a witness.
    gens = tuple(Mat2.from_rows([[0, k], [0, 0]], Q) for k in range(1, 18))
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        split_witness_word(RepTuple(gens))
    assert time.perf_counter() - start < 0.1
    # A generator with m != 0 is found at any rank.
    S = Mat2.from_rows([[1, 0], [0, 2]], Q)
    assert split_witness_word(RepTuple(gens + (S,))) == Word((18,))


def split_witness_reference(t):
    """The from-scratch search: each increasing product of two or more
    generators evaluated on its own, in increasing_subsequences order."""
    for sub in increasing_subsequences(len(t.gens)):
        if len(sub) > 1 and t.evaluate(Word(sub)).m:
            return Word(sub)
    return None


@pytest.mark.parametrize("spec", [F5, F65521, Q], ids=str)
def test_split_witness_products_equal_the_from_scratch_search(rng, spec):
    """Generators x I + y N with N nilpotent all have m = 0, so only a
    product can be a witness; a few shared directions N make many products
    m = 0 too, and the first witness comes late in the order."""
    E = Mat2.from_rows([[0, 1], [0, 0]], spec)
    I = Mat2.identity(spec)
    found = missed = 0
    for _ in range(60):
        directions = []
        for _ in range(rng.randint(1, 3)):
            P = rand_invertible(rng, spec)
            directions.append(P.inverse() * E * P)
        gens = tuple(I.scale(rand_mat(rng, spec).a11)
                     + rng.choice(directions).scale(rand_mat(rng, spec).a12)
                     for _ in range(rng.randint(2, 7)))
        t = RepTuple(gens)
        assert not any(g.m for g in gens)
        expected = split_witness_reference(t)
        if expected is None:
            missed += 1
            with pytest.raises(NoSplitGenerator):
                split_witness_word(t)
        else:
            found += 1
            assert split_witness_word(t) == expected
    assert found and missed


def test_split_witness_search_at_the_trace_budget_is_fast():
    # 16 strictly upper-triangular generators over Q: all 2^16 - 1
    # products have m = 0.
    gens = tuple(Mat2.from_rows([[0, k], [0, 0]], Q) for k in range(1, 17))
    start = time.perf_counter()
    with pytest.raises(NoSplitGenerator):
        split_witness_word(RepTuple(gens))
    assert time.perf_counter() - start < 1.0
