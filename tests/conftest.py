"""Shared helpers: field fixtures, matrix enumeration and brute-force oracles."""

import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from moldkit import FieldSpec, Mat2, MoldLabel, span_closure

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)
F7 = FieldSpec.prime(7)
F65521 = FieldSpec.prime(65521)


def all_mats(spec):
    """All of M_2(F_p), in lexicographic entry order."""
    p = spec.p
    return [Mat2.from_rows([[a, b], [c, d]], spec)
            for a, b, c, d in product(range(p), repeat=4)]


def nonscalar_mats(spec):
    return [M for M in all_mats(spec) if not M.is_scalar]


def invertible_mats(spec):
    return [M for M in all_mats(spec) if M.det]


def rand_mat(rng, spec, span=9):
    """Random matrix; rational entries use small random fractions."""
    if spec.p is None:
        def e():
            return Fraction(rng.randint(-span, span), rng.randint(1, 5))
    else:
        def e():
            return rng.randrange(spec.p)
    return Mat2.from_rows([[e(), e()], [e(), e()]], spec)


def rand_invertible(rng, spec, span=9):
    while True:
        M = rand_mat(rng, spec, span)
        if M.det:
            return M


def det4_oracle(rows):
    """Permutation-sum determinant of a 4x4 matrix of field elements."""
    spec = rows[0][0].spec
    acc = spec.zero()
    for perm in permutations(range(4)):
        sign = 1
        seen = list(perm)
        for i in range(4):
            for j in range(i + 1, 4):
                if seen[i] > seen[j]:
                    sign = -sign
        term = spec.one()
        for i in range(4):
            term = term * rows[i][perm[i]]
        acc = acc + (term if sign == 1 else -term)
    return acc


def closure_label(t):
    """Six-way label read off the span closure: dim 4 air, 3 borel, 1
    scalar; dim 2 is semi-simple when some basis element has m != 0, else
    unipotent (split by characteristic).  Independent of the discriminants."""
    closure = span_closure(t)
    if closure.dim == 4:
        return MoldLabel.AIR
    if closure.dim == 3:
        return MoldLabel.BOREL
    if closure.dim == 1:
        return MoldLabel.SCALAR
    if any(X.m for X in closure.basis):
        return MoldLabel.SEMISIMPLE
    if t.spec.characteristic() == 2:
        return MoldLabel.UNIPOTENT_F2
    return MoldLabel.UNIPOTENT


def word_images(t, max_len):
    """Images of all positive words of length <= max_len (including I)."""
    images = [Mat2.identity(t.spec)]
    frontier = [Mat2.identity(t.spec)]
    for _ in range(max_len):
        frontier = [M * g for M in frontier for g in t.gens]
        images.extend(frontier)
    return images


@pytest.fixture
def rng():
    return random.Random(20260810)
