"""Seeded generator of decision requests.

Each request carries a tuple built inside a known stratum and then
conjugated by a random invertible P, so the expected label is known by
construction.  The stream is a sequence of blocks; a block holds every
valid (field, mode, rank, stratum, kind) combination exactly once, in a
seeded order, so each of them has a fixed share of every whole block.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from oracle import Field

FP_FIELDS = (2, 5, 65521, 2**31 - 1)
Q_FIELDS = (None,)
MODES = ("monoid", "group")
RANKS = (1, 2, 3, 4)
STRATA = ("air", "borel", "semi_simple", "unipotent", "unipotent_f2", "scalar")
KINDS = ("classify", "invariants", "normalize", "equiv_conj", "equiv_diff")

# Rationals: base entries have two-digit numerators and denominators and the
# conjugating matrix one-digit ones, which puts the numerators and
# denominators of the conjugated tuple up to about 10^12.
Q_BASE = 99
Q_CONJ = 9


@dataclass
class Request:
    kind: str
    stratum: str
    p: int | None
    mode: str
    gens: list                      # oracle matrices (a, b, c, d)
    words: list = field(default_factory=list)   # tuples of 1-based letters
    other: list | None = None       # second tuple of an equiv request
    expect_equiv: bool | None = None
    chain: list = field(default_factory=list)   # uf2 transition words

    @property
    def rank(self) -> int:
        return len(self.gens)


def valid(p, mode, rank, stratum, kind) -> bool:
    if kind == "equiv_diff" and p == 2 and mode == "group" and (rank == 1 or stratum == "scalar"):
        # Every such tuple over F_2 lies in one orbit: there is no
        # non-conjugate tuple of the same stratum to compare with.
        return False
    if rank == 1 and stratum in ("air", "borel"):
        return False
    if stratum == "unipotent_f2":
        return p == 2
    if stratum == "unipotent" and p == 2:
        return False
    # Over F_2 the invertible upper-triangular matrices span only {I, N}.
    return not (p == 2 and mode == "group" and stratum == "borel")


def combos(fields):
    return [(p, mode, rank, stratum, kind)
            for p in fields for mode in MODES for rank in RANKS for stratum in STRATA
            for kind in KINDS if valid(p, mode, rank, stratum, kind)]


class Generator:
    """Deterministic request stream for one seed over a set of fields."""

    def __init__(self, seed: int, fields):
        self.rng = random.Random(seed)
        self.combos = combos(fields)
        self.charts = 0

    def block(self) -> list[Request]:
        order = list(self.combos)
        self.rng.shuffle(order)
        return [self.request(*c) for c in order]

    # --- values and matrices ------------------------------------------------

    def scalar(self, F: Field, nonzero=False, bound=Q_BASE):
        r = self.rng
        if F.p is None:
            # Numerator and denominator of one magnitude, so that the cost of
            # rational arithmetic varies little between requests of a kind.
            low = (bound + 1) // 10
            return Fraction(r.choice((-1, 1)) * r.randint(low, bound), r.randint(low, bound))
        while True:
            x = r.randrange(F.p)
            if x or not nonzero:
                return x

    def matrix(self, F: Field, bound=Q_BASE):
        return F.mat(*(self.scalar(F, bound=bound) for _ in range(4)))

    def invertible(self, F: Field, bound=Q_BASE):
        while True:
            P = self.matrix(F, bound)
            if F.det(P):
                return P

    def _base(self, F: Field, mode: str, rank: int, stratum: str):
        """Candidate generators for the stratum in a fixed basis; air and borel
        candidates are random (upper triangular for borel) and may miss."""
        group = mode == "group"
        I = F.ident()
        if stratum == "scalar":
            return [F.scale(self.scalar(F, nonzero=group), I) for _ in range(rank)]
        if stratum in ("semi_simple", "unipotent", "unipotent_f2"):
            if stratum == "semi_simple":
                X = self.matrix(F)
                while F.is_scalar(X) or not F.m(X):
                    X = self.matrix(F)
            else:
                X = F.mat(0, 1, 0, 0)
            gens = []
            for _ in range(rank):
                while True:
                    g = F.add(F.scale(self.scalar(F), I), F.scale(self.scalar(F), X))
                    if not group or F.det(g):
                        break
                gens.append(g)
            return gens
        gens = []
        for _ in range(rank):
            while True:
                g = self.matrix(F)
                if stratum == "borel":
                    g = (g[0], g[1], F.norm(0), g[3])
                if not group or F.det(g):
                    break
            gens.append(g)
        return gens

    def tuple_in(self, F: Field, mode: str, rank: int, stratum: str):
        """A conjugated tuple whose label the oracle confirms is `stratum`."""
        while True:
            base = self._base(F, mode, rank, stratum)
            P = self.invertible(F, Q_CONJ)
            gens = [F.conj(P, g) for g in base]
            if F.label(gens) == stratum:
                return gens

    def word(self, rank: int, group: bool, max_len=3):
        letters = range(-rank, rank + 1) if group else range(1, rank + 1)
        letters = [i for i in letters if i]
        return tuple(self.rng.choice(letters) for _ in range(self.rng.randint(1, max_len)))

    def _differing_copy(self, F: Field, gens, mode: str, stratum: str):
        """A tuple of the same stratum whose conjugation invariants differ:
        gens with c*I added to one generator, else a fresh tuple."""
        base = F.coarse_invariants(gens)
        for j in range(len(gens)):
            for c in (1, 2, 3):
                g = F.add(gens[j], F.scale(c, F.ident()))
                if mode == "group" and not F.det(g):
                    continue
                other = gens[:j] + [g] + gens[j + 1:]
                if F.coarse_invariants(other) != base:
                    return other
        for _ in range(100):
            other = self.tuple_in(F, mode, len(gens), stratum)
            if F.coarse_invariants(other) != base:
                return other
        return None

    def request(self, p, mode, rank, stratum, kind) -> Request:
        F = Field(p)
        group = mode == "group"
        while True:
            gens = self.tuple_in(F, mode, rank, stratum)
            words = [self.word(rank, group) for _ in range(self.rng.randint(0, 2))]
            req = Request(kind, stratum, p, mode, gens, words)
            if kind == "equiv_conj":
                P = self.invertible(F, Q_CONJ)
                req.other = [F.conj(P, g) for g in gens]
                req.expect_equiv = True
            elif kind == "equiv_diff":
                req.other = self._differing_copy(F, gens, mode, stratum)
                req.expect_equiv = False
                if req.other is None:
                    continue
            elif kind == "normalize" and stratum == "unipotent_f2":
                self.charts += 1
                for _ in range(1 + self.charts % 4):  # chain depths 1-4 in turn
                    while True:
                        w = self.word(rank, group)
                        if not F.is_scalar(F.evaluate(gens, w)):
                            break
                    req.chain.append(w)
            return req


def document(req: Request, gens=None) -> dict:
    """The CLI's JSON representation document for a request's tuple."""
    def entry(x):
        if req.p is None:
            return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
        return x

    gens = req.gens if gens is None else gens
    return {
        "field": "Q" if req.p is None else {"p": req.p},
        "mode": req.mode,
        "generators": [[[entry(a), entry(b)], [entry(c), entry(d)]] for a, b, c, d in gens],
        "words": [",".join(str(i) for i in w) for w in req.words],
    }
