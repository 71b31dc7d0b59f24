"""Words in the generators and tuples of generator images.

A RepTuple coerces its generators to a tuple and validates them in one
pass, so a list it was built from can change later without changing the
tuple.  It keeps no copy of their entries: every kernel reads each
generator's own integers and scale (Mat2._ints, Mat2._s), residues with
scale 1 over F_p, and the group-mode singular check runs on them too.
mold.classify keeps the label in the instance __dict__; it is not a
field, so it takes no part in equality, hashing or repr, and a copied or
pickled tuple carries it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import mul
from typing import Iterator

from .errors import NonInvertibleGenerator
from .fields import FieldSpec
from .mat2 import Mat2, conjugate

MONOID = "monoid"
GROUP = "group"


@dataclass(frozen=True, slots=True)
class Word:
    """A word in 1-based generator indices; negatives denote inverses.

    The empty word is the identity.
    """

    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if any(i == 0 for i in self.letters):
            raise ValueError("generator indices are 1-based; 0 is invalid")

    @classmethod
    def parse(cls, text: str) -> "Word":
        text = text.strip()
        if not text:
            return cls(())
        return cls(tuple(int(part) for part in text.split(",")))

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return ",".join(str(i) for i in self.letters)


@dataclass(frozen=True)
class RepTuple:
    """Ordered generator images (A_1, ..., A_m) plus a monoid/group flag."""

    gens: tuple[Mat2, ...]
    mode: str = MONOID

    def __post_init__(self) -> None:
        gens = tuple(self.gens)
        self.__dict__["gens"] = gens  # frozen: no setattr
        if not gens:
            raise ValueError("need at least one generator")
        if self.mode not in (MONOID, GROUP):
            raise ValueError(f"mode must be 'monoid' or 'group', got {self.mode!r}")
        spec = gens[0].spec
        p = spec.p
        group = self.mode == GROUP
        for i, g in enumerate(gens, start=1):
            if g.spec is not spec and g.spec != spec:
                raise ValueError("generators from mixed field specs")
            if group:
                a, b, c, d = g._ints
                if not ((a * d - b * c) % p if p else a * d - b * c):
                    raise NonInvertibleGenerator(f"generator {i} is singular in group mode")

    @property
    def spec(self) -> FieldSpec:
        return self.gens[0].spec

    @property
    def rank(self) -> int:
        return len(self.gens)

    def generator(self, index: int) -> Mat2:
        """Image of generator index (1-based; negative means inverse)."""
        if index > 0:
            return self.gens[index - 1]
        if self.mode != GROUP:
            raise ValueError("inverse letters require group mode")
        return self.gens[-index - 1].inverse()

    def evaluate(self, w: Word) -> Mat2:
        """Product of the word's letter images; the empty word gives I."""
        if not w.letters:
            return Mat2.identity(self.spec)
        return reduce(mul, map(self.generator, w.letters))

    def conjugated(self, P: Mat2) -> "RepTuple":
        return RepTuple(tuple(conjugate(P, g) for g in self.gens), self.mode)


def words_up_to(rank: int, max_len: int) -> Iterator[Word]:
    """All positive words (no inverses) of length <= max_len, short-lex order."""
    frontier: list[tuple[int, ...]] = [()]
    yield Word(())
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for i in range(1, rank + 1):
                nw = w + (i,)
                yield Word(nw)
                nxt.append(nw)
        frontier = nxt
