"""Reduction mod p as a cross-field oracle.  Let t be a tuple with rational
entries and p a prime that divides no denominator (and, in group mode, no
generator determinant), and t_p its reduction mod p.  Then the moduli
vector of t_p is the reduction of that of t, the dimension of the algebra
can only fall mod p (words reduce to words, and the rank of an integer
matrix can only fall), and a Q conjugacy certificate whose denominators
and determinant are prime to p reduces to an F_p certificate.  The Q
kernels work on integer-scaled entries and the F_p kernels on residues, so
this ties the two paths together: a wrong power of a scale, or a lost sign
on an inverse's scale, shows as a mismatch.  The reductions and the
certificate checks run here in plain int and Fraction arithmetic."""

from fractions import Fraction

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from moldkit import FieldSpec, Mat2, RepTuple, classify, span_closure
from moldkit.canon import general_conjugator, ss_conjugator
from moldkit.invariants import invariant_vector
from moldkit.mold import MoldLabel

PRIMES = (3, 5, 7, 65521)
Q = FieldSpec.rationals()
FUZZ = settings(max_examples=150, derandomize=True, deadline=None, database=None)


def red(x: Fraction, p: int) -> int:
    """The residue of a rational whose denominator p does not divide."""
    return x.numerator * pow(x.denominator, -1, p) % p


def det(X) -> Fraction:
    return X[0] * X[3] - X[1] * X[2]


def mul(X, Y) -> tuple:
    return (X[0] * Y[0] + X[1] * Y[2], X[0] * Y[1] + X[1] * Y[3],
            X[2] * Y[0] + X[3] * Y[2], X[2] * Y[1] + X[3] * Y[3])


def inverse(X) -> tuple:
    d = det(X)
    return (X[3] / d, -X[1] / d, -X[2] / d, X[0] / d)


def rationals(p):
    """Small rationals whose denominators p does not divide."""
    denominators = [d for d in range(1, 10) if d % p]
    return st.builds(Fraction, st.integers(-6, 6), st.sampled_from(denominators))


@st.composite
def reducible_tuples(draw):
    """(p, mode, generators as 4-tuples of Fractions): one generator kind
    per tuple, as conftest.stratum_samples draws them (random, upper
    triangular, x I + y X, x I + y N with N nilpotent, scalar), so every
    stratum occurs over Q and dimensions drop at the small primes."""
    p = draw(st.sampled_from(PRIMES))
    mode = draw(st.sampled_from(("monoid", "group")))
    q = rationals(p)
    kind = draw(st.integers(0, 4))
    X = draw(st.tuples(q, q, q, q))
    u, v = draw(q), draw(q)
    N = (u * v, -u * u, v * v, -u * v)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        x, y = draw(q), draw(q)
        gens.append([draw(st.tuples(q, q, q, q)), (x, y, Fraction(0), draw(q)),
                     tuple(x * (i in (0, 3)) + y * e for i, e in enumerate(X)),
                     tuple(x * (i in (0, 3)) + y * e for i, e in enumerate(N)),
                     (x, Fraction(0), Fraction(0), x)][kind])
    if mode == "group":
        assume(all(red(det(G), p) for G in gens))
    return p, mode, gens


def build(spec, mode, gens) -> RepTuple:
    return RepTuple(tuple(Mat2.from_rows([G[:2], G[2:]], spec) for G in gens), mode)


def reduced(p, mode, gens) -> RepTuple:
    return build(FieldSpec.prime(p), mode, [[red(x, p) for x in G] for G in gens])


@FUZZ
@given(reducible_tuples())
def test_the_moduli_vector_of_a_reduction_is_the_reduction_of_the_moduli_vector(case):
    p, mode, gens = case
    vec, vec_p = invariant_vector(build(Q, mode, gens)), invariant_vector(reduced(*case))
    assert [red(d.value, p) for d in vec.dets] == [d.value for d in vec_p.dets]
    assert [(k, red(v.value, p)) for k, v in vec.traces] == [
        (k, v.value) for k, v in vec_p.traces]


@FUZZ
@given(reducible_tuples())
@example((3, "monoid", [(Fraction(1), Fraction(0), Fraction(0), Fraction(4))]))
def test_the_dimension_can_only_fall_mod_p(case):
    p, mode, gens = case
    t, t_p = build(Q, mode, gens), reduced(*case)
    assert classify(t_p).dim <= classify(t).dim
    assert span_closure(t_p).dim <= span_closure(t).dim
    if gens == [(1, 0, 0, 4)]:
        assert classify(t).dim == 2 and classify(t_p) is MoldLabel.SCALAR


def certifies(p, P, t, t2) -> bool:
    """P reduces mod p to an invertible matrix with A P = P B for every
    pair (A, B) of reduced generators, in residue arithmetic."""
    Pp = [red(x, p) for x in P]
    if not det(Pp) % p:
        return False
    for A, B in zip(t, t2):
        Ap, Bp = [red(x, p) for x in A], [red(x, p) for x in B]
        if [x % p for x in mul(Ap, Pp)] != [x % p for x in mul(Pp, Bp)]:
            return False
    return True


@FUZZ
@given(reducible_tuples(), st.data())
def test_q_certificates_reduce_to_fp_certificates(case, data):
    """A Q certificate of general_conjugator, and of ss_conjugator on the
    semi-simple stratum, for t and a conjugate t2 = C^-1 t C (C with
    denominators and determinant prime to p) reduces, when p divides none
    of its denominators nor its determinant, to a certificate of t_p and
    t2_p."""
    p, mode, gens = case
    q = rationals(p)
    C = data.draw(st.tuples(q, q, q, q).filter(lambda C: red(det(C), p)))
    conj = [mul(mul(inverse(C), G), C) for G in gens]
    t, t2 = build(Q, mode, gens), build(Q, mode, conj)
    certificates = [general_conjugator(t, t2)]
    if classify(t) is MoldLabel.SEMISIMPLE:
        certificates.append(ss_conjugator(t, t2))
    for P in certificates:
        assert P is not None
        values = P.values()
        if all(x.denominator % p for x in values) and red(det(values), p):
            assert certifies(p, values, gens, conj)
