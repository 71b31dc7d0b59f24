"""Exhaustive census of tuple spaces over small prime fields.

Tuples of 2x2 matrices over F_q are counted into the six mold strata and
partitioned into conjugation orbits.  Both passes run the step kernel of
:mod:`moldkit.mold`, whose fold over trace-free rows is the library's
classifier, and the semi-simple invariant comes from the split-coordinate
kernel of :mod:`moldkit.invariants`, both on raw entries, so the census
and the library share one classifier and one invariant.

Neither pass steps through every tuple.  Both work on trace-free classes:
a class is a matrix up to adding a multiple of I, named by its member
with d = 0.  The label of a tuple depends only on the classes of its
matrices, and labels and weights are conjugation invariant.  The point
count (:func:`stratum_census`) is a dynamic program over kernel states:
the first class runs over the q + 1 orbit representatives of
FieldTables.class_orbits (4 over F_2), and each further position maps a
{type: weight} vector over the six conjugation types of states (_type)
through one transition list per type: no table, and at most 6 q^3 steps.
The orbit pass (:func:`_orbit_pass`) walks down the stabiliser chain and
classifies each orbit of class tuples once, at its least member, by one
kernel step from its prefix's state, except below a prefix with a trivial
stabiliser, whose free orbits the same transition lists count.  Its table
has (q^3 - q) q^3 entries, one class image per element of PGL_2(F_q) and
class.  The report shifts each semi-simple leaf's split coordinates to
all of its translates, one coordinate at a time, without building them.
"""

from __future__ import annotations

import json
import math
import os
import sys
from array import array
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import chain, product
from pathlib import Path
from typing import Optional

from .errors import BudgetExceeded
from .fields import FieldSpec
from .invariants import _split_entries
from .mold import _SCALAR, MoldLabel, _classify_entries, _label, _step
from .words import GROUP, MONOID

# Cache files written under another schema are recomputed, not read.
CACHE_SCHEMA = "0.1.0"

DEFAULT_BUDGET = 10_000_000

_LABELS = list(MoldLabel)


@dataclass(frozen=True, slots=True)
class CensusKey:
    q: int
    m: int
    mode: str = MONOID

    def __post_init__(self) -> None:
        FieldSpec.prime(self.q)
        if self.m < 1:
            raise ValueError("rank must be >= 1")
        if self.mode not in (MONOID, GROUP):
            raise ValueError(f"mode must be 'monoid' or 'group', got {self.mode!r}")


@dataclass
class StratumCounts:
    """Per-label point counts, and orbit data when an orbit census ran."""

    key: CensusKey
    points: dict[MoldLabel, int]
    total: int
    orbits: Optional[dict[MoldLabel, int]] = None
    orbit_size_counts: Optional[dict[MoldLabel, dict[int, int]]] = None

    def points_by_value(self) -> dict[str, int]:
        return {label.value: self.points[label] for label in MoldLabel}

    def orbits_by_value(self) -> Optional[dict[str, int]]:
        if self.orbits is None:
            return None
        return {label.value: self.orbits[label] for label in MoldLabel}

    def orbit_sizes_by_value(self) -> Optional[dict[str, dict[str, int]]]:
        if self.orbit_size_counts is None:
            return None
        return {label.value: {str(s): c for s, c in sorted(self.orbit_size_counts[label].items())}
                for label in MoldLabel}


def _index_typecode(limit: int) -> str:
    """Narrowest unsigned array typecode whose items hold 0..limit."""
    for code in "BHILQ":
        if limit < 256 ** array(code).itemsize:
            return code
    raise BudgetExceeded(f"census class index {limit} exceeds the widest array item")


def _linear_form(p: int, u: int, v: int, w: int, scale: int) -> list[int]:
    """scale ((u x + v y + w z) mod p) for every (x, y, z) in F_p^3, in
    lexicographic order: p rows of p values, one per residue of u x + v y."""
    rows = [[(t + w * z) % p * scale for z in range(p)] for t in range(p)]
    return list(chain.from_iterable(rows[(u * x + v * y) % p] for x in range(p) for y in range(p)))


class FieldTables:
    """The p^3 trace-free classes of M_2(F_p) and the conjugation action of
    PGL_2(F_p) on them."""

    def __init__(self, p: int):
        self.p = p
        # Lexicographic, so classes[(x p + y) p + z] = (x, y, z, 0).
        self.classes = [(x, y, z, 0) for x, y, z in product(range(p), repeat=3)]
        self._pgl_perms: Optional[list[tuple[array, array]]] = None

    def class_orbits(self) -> dict[int, int]:
        """The PGL_2(F_p) orbits of classes as {least class index: orbit
        size}, in index order; closed-form in O(p), so no table is built.

        For odd p conjugation preserves the discriminant x^2 + 4yz of class
        (x, y, z), and the nonzero classes of one discriminant form one
        orbit: p^2 - 1 nilpotent ones, least (0, 0, 1), and per delta != 0
        the class of (0, 1, delta / 4), split (p (p + 1) classes) when
        delta is a square and non-split (p (p - 1)) when not.  Over F_2 the
        orbits are {0}, the nonzero classes with x = 0, those with x = 1
        and yz = 0, and (1, 1, 1).
        """
        p = self.p
        if p == 2:
            return {0: 1, 1: 3, 4: 3, 7: 1}
        squares = {z * z % p for z in range(1, p)}
        return {0: 1, 1: p * p - 1,
                **{p + z: p * (p + 1) if z in squares else p * (p - 1) for z in range(1, p)}}

    def pgl_perms(self) -> list[tuple[array, array]]:
        """Conjugation action of PGL_2(F_p) on the p^3 trace-free classes:
        one pair (images, mu) of arrays per element g.

        Class index (x p + y) p + z names the class of M = (x, y, z, 0),
        its member with d = 0.  g^-1 M g = adj(g) M g / det g is the d = 0
        member of class images[i] plus mu[i] I, so mu[i] is its d entry.
        g = (a, b, c, d) runs over the invertible matrices whose first
        nonzero entry (a, or b when a = 0) is 1, in lexicographic order.
        Both arrays have the narrowest typecode holding p^3 - 1.
        """
        if self._pgl_perms is not None:
            return self._pgl_perms
        p = self.p
        code = _index_typecode(p**3 - 1)
        table = []
        for a, b, c, d in product((0, 1), range(p), range(p), range(p)):
            if (a or b) != 1 or not (a * d - b * c) % p:
                continue
            s = pow(a * d - b * c, -1, p)
            # adj(g) M g / det g is linear in M = (x, y, z, 0).  On E11, E12
            # and E21 it is s (ad, bd, -ac, -bc), s (cd, d^2, -c^2, -cd) and
            # s (-ab, -b^2, a^2, ab), which give a - d, b, c and d below.
            alpha = _linear_form(p, s * (a * d + b * c), 2 * s * c * d, -2 * s * a * b, p * p)
            beta = _linear_form(p, s * b * d, s * d * d, -s * b * b, p)
            gamma = _linear_form(p, -s * a * c, -s * c * c, s * a * a, 1)
            table.append((array(code, [x + y + z for x, y, z in zip(alpha, beta, gamma)]),
                          array(code, _linear_form(p, -s * b * c, -s * c * d, s * a * b, 1))))
        self._pgl_perms = table
        return table


_TABLES: dict[int, FieldTables] = {}


def field_tables(p: int) -> FieldTables:
    if p not in _TABLES:
        _TABLES[p] = FieldTables(p)
    return _TABLES[p]


def classify_packed(T: FieldTables, classes: tuple[int, ...],
                    state: Optional[tuple] = None) -> MoldLabel:
    """Mold label of the tuples over a tuple of class indices, from the
    d = 0 member of each class; the kernel of mold.classify.  Given the
    kernel state of classes[:-1] (mold._step), it makes the one last step."""
    if state is None:
        return _classify_entries(T.p, [T.classes[c] for c in classes])
    return _label(T.p, _step(T.p, state, T.classes[classes[-1]][:3]))


def _class_fibres(p: int, mode: str) -> list[tuple[int, ...]]:
    """The translates lambda by which each trace-free class lies in the
    space, indexed by class: (x + lambda, y, z, lambda) for class (x, y, z),
    every lambda in monoid mode, the invertible ones in group mode."""
    if mode == GROUP:
        return [tuple(lam for lam in range(p) if ((x + lam) * lam - y * z) % p)
                for x, y, z in product(range(p), repeat=3)]
    return [tuple(range(p))] * p**3


def _check_budget(key: CensusKey, budget: int) -> None:
    """Reject a space of more than budget tuples without building q^(4m)
    when the exponent alone decides: q >= 2, so q^e > budget once e passes
    budget's bit length.  The size is spelled as a power when its decimal
    digits would pass the int-to-string limit."""
    q, e = key.q, 4 * key.m
    if e <= budget.bit_length() and q**e <= budget:
        return
    digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    size = q**e if e * math.log10(q) < digits else f"{q}^{e}"
    raise BudgetExceeded(f"census space q^(4m) = {size} exceeds budget {budget}")


def _space_size(key: CensusKey) -> int:
    if key.mode == GROUP:
        return ((key.q**2 - 1) * (key.q**2 - key.q)) ** key.m
    return key.q ** (4 * key.m)


def _type(p: int, state: tuple) -> tuple:
    """The type of a kernel state, in ints, which hash in C: its label's
    _LABELS position and, for a semi-simple line, the Legendre symbol of
    m = u0^2 + 4 u1 u2, kept by scaling u, or u1 u2 over F_2 (class_orbits'
    lone (1, 1, 1)).  Each type but air is one orbit up to scaling."""
    label = _label(p, state)
    if label is not MoldLabel.SEMISIMPLE:
        return _LABELS.index(label), 0
    _, u0, u1, u2 = state
    return _LABELS.index(label), u1 & u2 if p == 2 else pow(u0 * u0 + 4 * u1 * u2, (p - 1) // 2, p)


def _tail_weights(p: int, rows: list[tuple[tuple, int]], vector: dict[tuple, int], n: int,
                  transitions: dict[tuple, list]) -> list[int]:
    """Summed weight per label, by _LABELS position, of a {state: weight}
    vector stepped through n more weighted rows, lumped onto the types of
    its states (_type): conjugation keeps labels and row weights, so every
    state of a type steps to each type with the same weight.  A type's
    transition list is built into `transitions` once, from the first state
    of it met, as (next type, its first state met, summed weight)."""
    states, lumped = {}, {}
    for state, weight in vector.items():
        states.setdefault(t := _type(p, state), state)
        lumped[t] = lumped.get(t, 0) + weight
    for _ in range(n):
        nxt: dict[tuple, int] = {}
        for t, weight in lumped.items():
            if t not in transitions:
                out: dict[tuple, list] = {}
                for row, w in rows:
                    to = _step(p, states[t], row)
                    out.setdefault(_type(p, to), [to, 0])[1] += w
                transitions[t] = [(k, to, w) for k, (to, w) in out.items()]
            for k, to, w in transitions[t]:
                states.setdefault(k, to)
                nxt[k] = nxt.get(k, 0) + weight * w
        lumped = nxt
    counts = [0] * len(_LABELS)
    for (j, _), weight in lumped.items():
        counts[j] += weight
    return counts


def stratum_census(key: CensusKey, budget: int = DEFAULT_BUDGET,
                   use_cache: bool = True) -> StratumCounts:
    """Count the points of every label by a dynamic program over the
    states of the classifier kernel (mold._step).

    The label of a tuple depends only on the trace-free rows (a - d, b, c)
    of its matrices (see mold._classify_entries), so it is unchanged by
    A -> A + lambda I.  Each class is represented by its member with
    d = 0 and weighted by how many matrices of the space it holds
    (_class_fibres).  Labels and weights are conjugation invariant, so the
    first class runs over one class r per PGL_2 orbit
    (FieldTables.class_orbits), weighted by the orbit size too: q + 1 steps
    from the scalar state, with no table.  The resulting {state: weight}
    vector goes through the m - 1 further positions by _tail_weights.
    """
    cached = _load_cache(key) if use_cache else None
    if cached is not None:
        return cached
    _check_budget(key, budget)
    T = field_tables(key.q)
    p = T.p
    weights = {c: len(lams) for c, lams in enumerate(_class_fibres(p, key.mode)) if lams}
    rows = [(T.classes[c][:3], w) for c, w in weights.items()]
    vector: dict[tuple, int] = {}
    for r, size in T.class_orbits().items():
        if r in weights:
            state = _step(p, _SCALAR, T.classes[r][:3])
            vector[state] = vector.get(state, 0) + size * weights[r]
    counts = _tail_weights(p, rows, vector, key.m - 1, {})
    result = StratumCounts(key=key, points=dict(zip(_LABELS, counts)), total=_space_size(key))
    if use_cache:
        _store_cache(key, result)
    return result


def _orbit_pass(key: CensusKey, budget: int) -> tuple[StratumCounts, list[tuple]]:
    """Orbit counts of the whole space, and the semi-simple leaves of the
    walk as (class tuple, translate sets), in walk order.

    The pass walks down the stabiliser chain of PGL_2(F_q) acting on class
    tuples (c_1, ..., c_m).  H_0 is the whole class table, and H_i the
    rows of H_(i-1) that also fix c_i.  At position i the class c_i runs
    over the least member of each orbit of H_(i-1) on the classes, so the
    walk meets every orbit of class tuples once, at its least member in
    lexicographic order, and the orbit has size s, the product of the
    orbit sizes |H_(i-1) c_i|.  The walk keeps an explicit stack, so deep
    ranks need no recursion, and it skips the classes that hold no matrix
    of the space (over F_2 in group mode): conjugation carries the
    translates of a class onto those of its image.  The g in H_m move each
    tuple over c, (A_i + lambda_i I), to (A_i + (lambda_i + mu_i(g)) I),
    where A_i is the d = 0 member of c_i.  mu is a homomorphism from H_m
    to F_q^m, zero unless q = 2 (g^-1 A g = A + mu I gives 2 mu = 0 on
    traces), so it is read over F_2 only; its image has k elements and
    acts freely.  The W tuples over c (_class_fibres) thus form W / k
    orbits of size s k over the class orbit, all with the label of the
    d = 0 member, which each leaf reads from classify_packed in one kernel
    step from its parent's state.

    Each frame carries the kernel state (mold._step) of its prefix.  When
    the walk finds H_i to be the identity row alone, every tail below is a
    free orbit of size s of its own, so the prefix's weight times the
    _tail_weights from its state, memoised by its _type and m - i within
    the call, count the subtree without visiting a leaf.  No semi-simple
    leaf lies there: the classes of a line always have a non-trivial
    stabiliser, so such a prefix has rank 2 or more.
    """
    _check_budget(key, budget)
    q = key.q
    if (size := (q**3 - q) * q**3) > budget:
        raise BudgetExceeded(f"census conjugation table (q^3 - q) q^3 = {size} entries "
                             f"exceeds budget {budget}")
    T = field_tables(q)
    fibres = _class_fibres(q, key.mode)
    live = [c for c, lams in enumerate(fibres) if lams]
    rows = [(T.classes[c][:3], len(fibres[c])) for c in live]
    m = key.m
    points = [0] * len(_LABELS)
    orbits = [0] * len(_LABELS)
    size_counts: list[dict[int, int]] = [{} for _ in _LABELS]

    def add(label: MoldLabel, s: int, n: int) -> None:
        j = _LABELS.index(label)
        points[j] += s * n
        orbits[j] += n
        size_counts[j][s] = size_counts[j].get(s, 0) + n

    tails: dict[tuple, list[int]] = {}
    transitions: dict[tuple, list] = {}
    semisimple = []
    # A frame (i, c, s, W, state, H) puts c at position i < m of chain,
    # whose positions 1 to i then hold a prefix with orbit size s, weight
    # W, kernel state `state` and stabiliser H; position 0 stands for the
    # empty prefix.  The children at position m are leaves, met in order
    # in their parent's loop.
    chain = [0] * m
    stack = [(0, 0, 1, 1, _SCALAR, T.pgl_perms())]
    while stack:
        i, c, size, weight, state, stabiliser = stack.pop()
        chain[i] = c
        if len(stabiliser) == 1:
            if (t := (_type(q, state), m - i)) not in tails:
                tails[t] = _tail_weights(q, rows, {state: 1}, m - i, transitions)
            for label, n in zip(_LABELS, tails[t]):
                if n:
                    add(label, size, weight * n)
            continue
        seen, children = set(), []
        for c in live:
            if c not in seen:
                orbit = {images[c] for images, _ in stabiliser}
                seen |= orbit
                children.append((c, size * len(orbit)))
        if i + 1 < m:
            stack += reversed([(i + 1, c, s, weight * len(fibres[c]),
                                _step(q, state, T.classes[c][:3]),
                                [g for g in stabiliser if g[0][c] == c]) for c, s in children])
            continue
        prefix = tuple(chain[1:])
        for c, s in children:
            classes = prefix + (c,)
            k = 1 if q != 2 else len({tuple(map(mu.__getitem__, classes))
                                      for images, mu in stabiliser if images[c] == c})
            label = classify_packed(T, classes, state)
            add(label, s * k, weight * len(fibres[c]) // k)
            if label is MoldLabel.SEMISIMPLE:
                semisimple.append((classes, [fibres[c] for c in classes]))
    counts = StratumCounts(key=key, points=dict(zip(_LABELS, points)), total=_space_size(key),
                           orbits=dict(zip(_LABELS, orbits)),
                           orbit_size_counts=dict(zip(_LABELS, size_counts)))
    return counts, semisimple


def _split_vectors(q: int, members: list[tuple], lams: list[tuple[int, ...]]):
    """Split coordinates (invariants._split_entries) of every tuple
    (A_j + lambda_j I), lambda in the product of lams and A_j the d = 0
    members, each encoded as ((s, det A_s), ((tr A_j, tr A_s A_j))_j).

    A translate keeps m, so it keeps s.  With t = lambda_s and u =
    lambda_j, tr A_j gains 2 u, tr A_s A_j gains t tr A_j + u tr A_s +
    2 t u, and det A_s gains t tr A_s + t^2: for each t the vectors are the
    product of one column per j over u in lams[j], with u = t alone at
    j = s.  Tuples of one orbit share their coordinates, so a set of the
    vectors counts each orbit's value once, with no coset restriction."""
    s, det, traces, pairs = _split_entries(q, [(e, 1) for e in members])
    x = traces[s]
    for t in lams[s]:
        columns = [[((a + 2 * u) % q, (b + t * a + u * x + 2 * t * u) % q)
                    for u in ((t,) if j == s else lams[j])]
                   for j, (a, b) in enumerate(zip(traces, pairs))]
        head = (s, (det + t * x + t * t) % q)
        for v in product(*columns):
            yield head, v


def orbit_census(key: CensusKey, budget: int = DEFAULT_BUDGET,
                 use_cache: bool = True) -> StratumCounts:
    """Partition every stratum into conjugation orbits."""
    cached = _load_cache(key) if use_cache else None
    if cached is not None and cached.orbits is not None:
        return cached
    result, _ = _orbit_pass(key, budget)
    if use_cache:
        _store_cache(key, result)
    return result


@dataclass(frozen=True)
class CheckResult:
    name: str
    source: str
    expected: object
    actual: object
    passed: bool


@dataclass
class Report:
    key: CensusKey
    counts: StratumCounts
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def consistency_report(key: CensusKey, budget: int = DEFAULT_BUDGET,
                       use_cache: bool = True) -> Report:
    """Pass/fail checks tying the census to the structural theory, from
    one orbit pass; the cache holds no representatives, so it is only
    written.  The split coordinates (invariants._split_entries) are
    conjugation invariants and a function of the full trace vector, so
    orbits they separate, the full vectors separate too.  The check
    collects them over every tuple of every semi-simple leaf
    (_split_vectors) and compares the number of distinct values with the
    number of semi-simple orbits."""
    counts, leaves = _orbit_pass(key, budget)
    if use_cache:
        _store_cache(key, counts)
    q, m = key.q, key.m
    T = field_tables(q)
    pgl_order = q**3 - q
    checks: list[CheckResult] = []

    checks.append(CheckResult(
        name="partition",
        source="the tuple space is the disjoint union of the six strata",
        expected=_space_size(key),
        actual=sum(counts.points.values()),
        passed=sum(counts.points.values()) == _space_size(key),
    ))

    air_points = counts.points[MoldLabel.AIR]
    checks.append(CheckResult(
        name="air_divisibility",
        source="conjugation acts freely on the full-algebra stratum",
        expected=0,
        actual=air_points % pgl_order,
        passed=air_points % pgl_order == 0,
    ))

    air_sizes = counts.orbit_size_counts[MoldLabel.AIR]
    bad_air = {s: c for s, c in air_sizes.items() if s != pgl_order}
    checks.append(CheckResult(
        name="air_orbit_sizes",
        source="every full-algebra orbit is a free orbit of size q^3 - q",
        expected={pgl_order: counts.orbits[MoldLabel.AIR]},
        actual=dict(sorted(air_sizes.items())),
        passed=not bad_air,
    ))

    vectors = set()
    for classes, lams in leaves:
        vectors.update(_split_vectors(q, [T.classes[c] for c in classes], lams))
    checks.append(CheckResult(
        name="semisimple_trace_separation",
        source="trace coordinates separate semi-simple orbits",
        expected=counts.orbits[MoldLabel.SEMISIMPLE],
        actual=len(vectors),
        passed=len(vectors) == counts.orbits[MoldLabel.SEMISIMPLE],
    ))

    if q % 2 == 1:
        if key.mode == GROUP:
            expected_u = (q - 1) ** m * (q**m - 1) // (q - 1)
            src = ("unipotent moduli is a projective (m-1)-space bundle over the "
                   "invertible character space")
        else:
            expected_u = q**m * (q**m - 1) // (q - 1)
            src = ("unipotent moduli is a projective (m-1)-space bundle over the "
                   "character space")
        actual_u = counts.orbits[MoldLabel.UNIPOTENT]
        checks.append(CheckResult(
            name="unipotent_orbit_count",
            source=src,
            expected=expected_u,
            actual=actual_u,
            passed=actual_u == expected_u,
        ))

    expected_scalar = (q - 1) ** m if key.mode == GROUP else q**m
    checks.append(CheckResult(
        name="scalar_orbits",
        source="conjugation fixes scalar tuples pointwise",
        expected=expected_scalar,
        actual=counts.orbits[MoldLabel.SCALAR],
        passed=(counts.orbits[MoldLabel.SCALAR] == expected_scalar
                and counts.points[MoldLabel.SCALAR] == expected_scalar),
    ))

    return Report(key=key, counts=counts, checks=checks)


# --- advisory on-disk cache -------------------------------------------------

def cache_dir() -> Path:
    return Path(os.environ.get("MOLDKIT_CACHE", ".moldkit-cache"))


def _cache_path(key: CensusKey) -> Path:
    return cache_dir() / f"census_q{key.q}_m{key.m}_{key.mode}.json"


def _payload_body(result: StratumCounts) -> dict:
    return {
        "version": CACHE_SCHEMA,
        "key": {"q": result.key.q, "m": result.key.m, "mode": result.key.mode},
        "points": result.points_by_value(),
        "total": result.total,
        "orbits": result.orbits_by_value(),
        "orbit_size_counts": result.orbit_sizes_by_value(),
    }


def _checksum(body: dict) -> str:
    # Imported here: hashlib maps OpenSSL (about 3.4 MB resident), which only
    # cache users need, not every importer of the library.
    import hashlib

    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def _store_cache(key: CensusKey, result: StratumCounts) -> None:
    """Write beside the cache file, then rename: no reader sees a partial payload."""
    body = _payload_body(result)
    body["checksum"] = _checksum(body)
    path = _cache_path(key)
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(json.dumps(body, sort_keys=True, indent=1) + "\n")
        os.replace(tmp, path)
    except OSError:  # cache is advisory
        with suppress(OSError):
            tmp.unlink(missing_ok=True)


def _load_cache(key: CensusKey) -> Optional[StratumCounts]:
    """Counts read back from the cache file of key, or None unless it holds
    a payload of this schema and key, with its checksum, whose counts are
    all ints under every label."""
    path = _cache_path(key)
    try:
        body = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(body, dict) or body.get("version") != CACHE_SCHEMA:
        return None
    checksum = body.pop("checksum", None)
    if checksum != _checksum(body):
        return None
    if body.get("key") != {"q": key.q, "m": key.m, "mode": key.mode}:
        return None
    try:
        counts = _counts_from_payload(key, body)
    except (KeyError, TypeError, ValueError, AttributeError):
        return None
    if (counts.orbits is None) != (counts.orbit_size_counts is None):
        return None
    sizes = counts.orbit_size_counts or {}
    values = [counts.total, *counts.points.values(), *(counts.orbits or {}).values(),
              *(c for by_size in sizes.values() for c in by_size.values())]
    return counts if all(type(v) is int for v in values) else None


def _counts_from_payload(key: CensusKey, body: dict) -> StratumCounts:
    points = {label: body["points"][label.value] for label in MoldLabel}
    orbits = None
    size_counts = None
    if body.get("orbits") is not None:
        orbits = {label: body["orbits"][label.value] for label in MoldLabel}
    if body.get("orbit_size_counts") is not None:
        size_counts = {
            label: {int(s): c for s, c in body["orbit_size_counts"][label.value].items()}
            for label in MoldLabel
        }
    return StratumCounts(key=key, points=points, total=body["total"],
                         orbits=orbits, orbit_size_counts=size_counts)
