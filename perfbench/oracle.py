"""Exactness oracle for 2x2 matrices that shares no code with moldkit.

A matrix is a tuple (a, b, c, d) for [[a, b], [c, d]].  Over F_p the
entries are ints in [0, p); over Q (p is None) they are Fractions.  Every
check the benchmark makes on moldkit's answers is computed here again
from the generators, after the op and outside its timed window.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

DIM_BY_LABEL = {"air": 4, "borel": 3, "semi_simple": 2, "unipotent": 2,
                "unipotent_f2": 2, "scalar": 1}


class Field:
    """F_p for a prime p, or Q when p is None."""

    def __init__(self, p):
        self.p = p

    def norm(self, x):
        if self.p is None:
            return Fraction(x)
        if isinstance(x, Fraction):
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        return x % self.p

    def inv(self, x):
        if not x:
            raise ZeroDivisionError("zero has no inverse")
        return 1 / Fraction(x) if self.p is None else pow(x, -1, self.p)

    def mat(self, a, b, c, d):
        return (self.norm(a), self.norm(b), self.norm(c), self.norm(d))

    def ident(self):
        return self.mat(1, 0, 0, 1)

    def add(self, x, y):
        return self.mat(*(u + v for u, v in zip(x, y)))

    def scale(self, k, x):
        return self.mat(*(k * u for u in x))

    def mul(self, x, y):
        a, b, c, d = x
        e, f, g, h = y
        return self.mat(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def tr(self, x):
        return self.norm(x[0] + x[3])

    def det(self, x):
        return self.norm(x[0] * x[3] - x[1] * x[2])

    def m(self, x):
        t = self.tr(x)
        return self.norm(t * t - 4 * self.det(x))

    def inverse(self, x):
        di = self.inv(self.det(x))
        a, b, c, d = x
        return self.mat(d * di, -b * di, -c * di, a * di)

    def conj(self, P, A):
        """P^-1 A P."""
        return self.mul(self.mul(self.inverse(P), A), P)

    def is_scalar(self, x):
        return not x[1] and not x[2] and x[0] == x[3]

    def product(self, mats):
        acc = self.ident()
        for x in mats:
            acc = self.mul(acc, x)
        return acc

    def evaluate(self, gens, letters):
        """Image of a word of 1-based letters; negative letters are inverses."""
        return self.product(gens[i - 1] if i > 0 else self.inverse(gens[-i - 1])
                            for i in letters)

    # --- the generated algebra ------------------------------------------

    def _reduce(self, basis, v):
        """Residue of v against an echelon basis of (pivot, row) pairs."""
        v = list(v)
        for piv, row in basis:
            if v[piv]:
                f = v[piv]
                v = [self.norm(x - f * y) for x, y in zip(v, row)]
        return v

    def _insert(self, basis, v):
        v = self._reduce(basis, v)
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            return False
        s = self.inv(v[piv])
        basis.append((piv, tuple(self.norm(x * s) for x in v)))
        return True

    def algebra(self, gens):
        """A basis of the unital algebra the generators span under products."""
        basis = []
        mats = []
        for x in [self.ident(), *gens]:
            if self._insert(basis, x):
                mats.append(x)
        grew = True
        while grew and len(mats) < 4:
            grew = False
            for x in list(mats):
                for y in list(mats):
                    z = self.mul(x, y)
                    if self._insert(basis, z):
                        mats.append(z)
                        grew = True
        return mats

    def label(self, gens):
        """The six-way label, from the dimension and m of the algebra."""
        alg = self.algebra(gens)
        dim = len(alg)
        if dim == 4:
            return "air"
        if dim == 3:
            return "borel"
        if dim == 1:
            return "scalar"
        if any(self.m(x) for x in alg):
            return "semi_simple"
        return "unipotent_f2" if self.p == 2 else "unipotent"

    # --- invariants -----------------------------------------------------

    def delta2(self, A, B):
        ta, tb, tab = self.tr(A), self.tr(B), self.tr(self.mul(A, B))
        da, db = self.det(A), self.det(B)
        return self.norm(ta * ta * db + tb * tb * da + tab * tab - ta * tb * tab - 4 * da * db)

    def tau3(self, A, B, C):
        return self.norm(self.tr(self.product((A, B, C))) - self.tr(self.product((A, C, B))))

    def invariant_vector(self, gens, group):
        """(dets, {increasing 1-based index subsequence: trace})."""
        mats = list(gens) + ([self.inverse(g) for g in gens] if group else [])
        n = len(mats)
        traces = {}
        for k in range(1, n + 1):
            for sub in combinations(range(1, n + 1), k):
                traces[sub] = self.tr(self.product(mats[i - 1] for i in sub))
        return tuple(self.det(g) for g in mats), traces

    def coarse_invariants(self, gens):
        """Scalarity, trace and determinant of each generator, and traces of
        generator pairs: all are preserved by simultaneous conjugation."""
        out = [(self.is_scalar(g), self.tr(g), self.det(g)) for g in gens]
        out += [self.tr(self.mul(x, y)) for x, y in combinations(gens, 2)]
        return out
