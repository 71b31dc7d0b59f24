"""Census: packed classifier vs exact classifier, counts, orbits, caching."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from array import array
from collections import Counter
from itertools import combinations, product

import pytest

import moldkit
from moldkit import Mat2, MoldLabel, RepTuple, census, classify, conjugate
from moldkit.census import (
    _LABELS,
    DEFAULT_BUDGET,
    CensusKey,
    FieldTables,
    _class_fibres,
    _index_typecode,
    _orbit_pass,
    _tail_weights,
    _type,
    classify_packed,
    consistency_report,
    field_tables,
    orbit_census,
    stratum_census,
)
from moldkit.cli import run_command
from moldkit.errors import BudgetExceeded
from moldkit.fields import is_prime
from moldkit.invariants import _moduli_entries, _split_entries
from moldkit.mold import _SCALAR, _step

from conftest import (
    class_of,
    class_orbits_reference,
    class_orbits_under,
    classify_indices,
    conjugation_perms,
    least_image,
    lift_tuple,
    orbit_reference,
    pack,
    packed_entries,
    pgl_generators,
    pgl_perms_reference,
    pgl_reference_elements,
    projective_closure,
    scaled_state,
    semisimple_representatives,
    space_indices,
    stratum_polynomials,
    stratum_reference,
    tail_weights_reference,
    unpruned_orbit_pass,
)

MODES = ("monoid", "group")
# Every key whose space has at most 10^5 tuples.
SMALL_KEYS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (7, 1)]
# Every key within the default budget up to q = 7, and (11, 1).
BUDGET_KEYS = [(q, m) for q in (2, 3, 5, 7) for m in range(1, 7)
               if q ** (4 * m) <= DEFAULT_BUDGET] + [(11, 1)]
# Orbit passes that take well under a second each.
ORBIT_KEYS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1),
              (7, 2)]


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("MOLDKIT_CACHE", str(tmp_path / "cache"))


def test_classify_packed_agrees_with_exact():
    """Every matrix and every pair over F_2 and F_3: the label of the
    class tuple is the exact label of the tuple."""
    for q in (2, 3):
        T = field_tables(q)
        for i in range(q**4):
            assert classify_packed(T, (class_of(q, i),)) is classify(lift_tuple(q, (i,)))
        for i in range(q**4):
            for j in range(q**4):
                expected = classify(lift_tuple(q, (i, j)))
                assert classify_packed(T, (class_of(q, i), class_of(q, j))) is expected


def test_packed_invariant_vector_agrees_with_exact(rng):
    from moldkit import invariant_vector

    entries = packed_entries(3)
    for mode in ("monoid", "group"):
        pool = list(space_indices(3, mode))
        for _ in range(200):
            idxs = (rng.choice(pool), rng.choice(pool))
            mats = [(entries[i], 1) for i in idxs]
            dets, keys, traces = _moduli_entries(3, mats, mode == "group")
            vec = invariant_vector(lift_tuple(3, idxs, mode))
            assert dets == tuple(d.value for d in vec.dets)
            assert keys == tuple(sub for sub, _ in vec.traces)
            assert traces == tuple(v.value for _, v in vec.traces)


def test_classify_packed_agrees_with_exact_f5_sampled(rng):
    T = field_tables(5)
    for _ in range(400):
        i, j = rng.randrange(5**4), rng.randrange(5**4)
        expected = classify(lift_tuple(5, (i, j)))
        assert classify_packed(T, (class_of(5, i), class_of(5, j))) is expected
    for _ in range(100):
        idxs = tuple(rng.randrange(5**4) for _ in range(3))
        expected = classify(lift_tuple(5, idxs))
        assert classify_packed(T, tuple(class_of(5, i) for i in idxs)) is expected


def test_stratum_census_pinned_counts():
    r = stratum_census(CensusKey(2, 1))
    assert r.points_by_value() == {
        "air": 0, "borel": 0, "semi_simple": 8,
        "unipotent": 0, "unipotent_f2": 6, "scalar": 2,
    }
    assert r.total == 16
    r = stratum_census(CensusKey(3, 1))
    assert r.points[MoldLabel.SCALAR] == 3
    assert r.points[MoldLabel.SEMISIMPLE] == 54
    assert r.points[MoldLabel.UNIPOTENT] == 24
    assert sum(r.points.values()) == 81


def test_stratum_census_group_mode():
    r = stratum_census(CensusKey(2, 1, "group"))
    assert sum(r.points.values()) == 6
    assert r.total == 6
    assert r.points[MoldLabel.SCALAR] == 1
    assert r.points[MoldLabel.SEMISIMPLE] == 2
    assert r.points[MoldLabel.UNIPOTENT_F2] == 3
    r2 = stratum_census(CensusKey(3, 2, "group"))
    assert sum(r2.points.values()) == 48 * 48 == r2.total


def test_orbit_census_examples():
    r = orbit_census(CensusKey(3, 1))
    assert r.orbits[MoldLabel.UNIPOTENT] == 3
    r = orbit_census(CensusKey(2, 1))
    assert r.orbits[MoldLabel.UNIPOTENT_F2] == 2
    assert r.orbits[MoldLabel.SCALAR] == 2
    assert r.orbit_size_counts[MoldLabel.SCALAR] == {1: 2}


def test_orbit_sizes_divide_pgl_order():
    for key in (CensusKey(2, 2), CensusKey(3, 1), CensusKey(3, 2, "group")):
        r = orbit_census(key)
        pgl = key.q**3 - key.q
        for label in MoldLabel:
            for size, count in r.orbit_size_counts[label].items():
                assert pgl % size == 0
                assert count > 0
        assert sum(r.points.values()) == r.total


def test_air_orbits_are_free():
    for key in (CensusKey(2, 2), CensusKey(2, 3), CensusKey(3, 2)):
        r = orbit_census(key)
        sizes = r.orbit_size_counts[MoldLabel.AIR]
        assert set(sizes) == {key.q**3 - key.q}


def test_orbit_census_invariant_under_generator_permutation():
    key = CensusKey(2, 2)
    r = orbit_census(key)
    perms = conjugation_perms(2)
    # Recount orbits with the reversed tuple order; the relabelled space
    # has the same orbit structure.
    seen = set()
    counts = {label: 0 for label in MoldLabel}
    for idxs in product(range(2**4), repeat=2):
        rev = idxs[::-1]
        orbit = frozenset(tuple(p[i] for i in rev) for p in perms)
        if orbit in seen:
            continue
        seen.add(orbit)
        counts[classify_indices(2, rev)] += 1
    for label in MoldLabel:
        assert counts[label] == r.orbits[label]


@pytest.mark.parametrize("q", [2, 3, 5])
def test_pgl_perms_equal_the_conjugation_reference(q):
    perms = conjugation_perms(q)
    assert len(perms) == q**3 - q
    assert perms == pgl_perms_reference(q)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_class_table_equals_the_conjugation_reference(q):
    """Row g of the class table holds, for each class (x, y, z), the class
    (a - d, b, c) and the d entry of mat2.conjugate(g, M), M = (x, y, z, 0)."""
    table = FieldTables(q).pgl_perms()
    elements = pgl_reference_elements(q)
    assert len(table) == len(elements) == q**3 - q
    spec = elements[0].spec
    for (images, mu), g in zip(table, elements):
        want = [conjugate(g, Mat2.from_rows([[x, y], [z, 0]], spec)).values()
                for x, y, z in product(range(q), repeat=3)]
        assert list(images) == [((a - d) % q * q + b) * q + c for a, b, c, d in want]
        assert list(mu) == [d for _, _, _, d in want]


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11])
def test_class_orbits_are_the_least_members_and_sizes_of_the_orbits(q):
    """class_orbits maps the least class of each PGL_2(F_q) orbit of
    classes to the orbit's size, from the orbits of a generating set
    (under the whole reference action too, where that is cheap)."""
    generators = pgl_generators(q)
    assert projective_closure(q, generators) == {g.values() for g in pgl_reference_elements(q)}
    orbits = class_orbits_under(q, generators)
    if q <= 5:
        perms = pgl_perms_reference(q)
        assert orbits == {frozenset(class_of(q, perm[c * q]) for perm in perms)
                          for c in range(q**3)}
    reps = FieldTables(q).class_orbits()
    assert reps == {min(orbit): len(orbit) for orbit in sorted(orbits, key=min)}
    assert list(reps) == sorted(reps)
    assert sum(reps.values()) == q**3
    assert len(reps) == (4 if q == 2 else q + 1)


def test_class_table_typecode_holds_every_class_index():
    """The table's arrays take the narrowest typecode holding q^3 - 1:
    'H' overflows from q = 41 (q^3 = 68921) and a byte from q = 7, so
    the choice is checked on the limits, not on a built table."""
    assert {a.typecode for row in FieldTables(5).pgl_perms() for a in row} == {"B"}
    for q in (2, 5, 7, 37, 41, 257, 65537, 2642237):
        limit = q**3 - 1
        code = _index_typecode(limit)
        assert array(code, [limit])[0] == limit
        for narrower in "BHILQ":
            if array(narrower).itemsize < array(code).itemsize:
                with pytest.raises(OverflowError):
                    array(narrower, [limit])
    assert array(_index_typecode(41**3 - 1)).itemsize >= 4
    with pytest.raises(BudgetExceeded):
        _index_typecode(2**64)


def test_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        stratum_census(CensusKey(5, 3))
    with pytest.raises(BudgetExceeded):
        orbit_census(CensusKey(3, 2), budget=100)


def test_cache_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("MOLDKIT_CACHE", str(tmp_path / "c2"))
    key = CensusKey(3, 1)
    first = orbit_census(key)
    path = tmp_path / "c2" / "census_q3_m1_monoid.json"
    assert path.exists()
    second = orbit_census(key)
    assert second.points == first.points
    assert second.orbits == first.orbits
    assert second.orbit_size_counts == first.orbit_size_counts

    # Corrupted payloads are ignored, not trusted.
    body = json.loads(path.read_text())
    body["points"]["air"] = 999
    path.write_text(json.dumps(body))
    third = orbit_census(key)
    assert third.points == first.points

    # Version mismatches invalidate the record.
    body = json.loads(path.read_text())
    body["version"] = "0.0.0"
    path.write_text(json.dumps(body))
    fourth = orbit_census(key)
    assert fourth.points == first.points


def test_cache_rewrite_is_atomic(tmp_path, monkeypatch):
    directory = tmp_path / "c4"
    monkeypatch.setenv("MOLDKIT_CACHE", str(directory))
    key = CensusKey(2, 1)
    first = orbit_census(key)
    path = directory / "census_q2_m1_monoid.json"
    path.write_text(path.read_text()[:40])  # a torn, unparsable payload
    again = orbit_census(key)
    assert again.orbits == first.orbits
    assert [p.name for p in directory.iterdir()] == [path.name]
    assert census._load_cache(key) is not None

    # A failed write leaves the census result and no temporary file.
    path.unlink()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(census.os, "replace", fail)
    assert orbit_census(key).orbits == first.orbits
    assert list(directory.iterdir()) == []


def test_points_only_cache_upgraded_by_orbit_census(tmp_path, monkeypatch):
    monkeypatch.setenv("MOLDKIT_CACHE", str(tmp_path / "c3"))
    key = CensusKey(2, 2)
    pts = stratum_census(key)
    assert pts.orbits is None
    orb = orbit_census(key)
    assert orb.orbits is not None
    assert orb.points == pts.points
    again = stratum_census(key)
    assert again.points == pts.points


def test_consistency_report_passes():
    for key in (CensusKey(2, 1), CensusKey(2, 2), CensusKey(3, 1),
                CensusKey(3, 2), CensusKey(5, 1), CensusKey(3, 1, "group")):
        rep = consistency_report(key)
        assert rep.passed, [c for c in rep.checks if not c.passed]
        assert all(c.source for c in rep.checks)
        names = [c.name for c in rep.checks]
        assert "partition" in names and "air_orbit_sizes" in names


def test_report_classifies_each_orbit_representative_once(monkeypatch):
    calls = []

    def counted(T, classes, state=None):
        calls.append(classes)
        return classify_packed(T, classes, state)

    monkeypatch.setattr(census, "classify_packed", counted)
    code, out = run_command(["census", "--q", "3", "--m", "2", "--report", "--no-cache"])
    assert code == 0
    report = json.loads(out)
    assert report["report"]["passed"] is True
    # One call per orbit of class tuples, on tuples of class indices.
    assert all(type(classes) is tuple and len(classes) == 2
               and all(0 <= c < 3**3 for c in classes) for classes in calls)
    orbits = class_orbits_reference(3, 2)
    orbit_of = {tup: k for k, orbit in enumerate(orbits) for tup in orbit}
    assert len(calls) == len(orbits)
    assert {orbit_of[classes] for classes in calls} == set(range(len(orbits)))


def test_report_carries_the_checked_counts():
    key = CensusKey(3, 2, "group")
    rep = consistency_report(key, use_cache=False)
    counts = orbit_census(key, use_cache=False)
    assert rep.counts.points == counts.points
    assert rep.counts.orbits == counts.orbits
    assert rep.counts.orbit_size_counts == counts.orbit_size_counts
    checks = {c.name: c for c in rep.checks}
    assert checks["partition"].actual == sum(rep.counts.points.values())
    assert checks["semisimple_trace_separation"].expected == rep.counts.orbits[MoldLabel.SEMISIMPLE]


def test_semisimple_orbits_share_representative_vector_group_mode():
    for key in (CensusKey(3, 1, "group"), CensusKey(3, 2, "group")):
        entries = packed_entries(key.q)
        perms = conjugation_perms(key.q)
        orbits = 0
        for idxs in product(space_indices(key.q, key.mode), repeat=key.m):
            if classify_indices(key.q, idxs) is not MoldLabel.SEMISIMPLE:
                continue
            orbit = {tuple(p[i] for i in idxs) for p in perms}
            if idxs != min(orbit):
                continue
            orbits += 1
            vector = _moduli_entries(key.q, [(entries[i], 1) for i in idxs], True)
            for member in orbit:
                assert _moduli_entries(key.q, [(entries[i], 1) for i in member], True) == vector
        assert orbits == orbit_census(key, use_cache=False).orbits[MoldLabel.SEMISIMPLE]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("q,m", SMALL_KEYS)
def test_census_equals_brute_force_oracles(q, m, mode):
    key = CensusKey(q, m, mode)
    points, orbits, size_counts, semisimple = orbit_reference(key)
    assert stratum_reference(key) == points
    assert stratum_census(key, use_cache=False).points == points
    counts = orbit_census(key, use_cache=False)
    assert (counts.points, counts.orbits, counts.orbit_size_counts) == (points, orbits, size_counts)
    counts = consistency_report(key, use_cache=False).counts
    assert (counts.points, counts.orbits, counts.orbit_size_counts) == (points, orbits, size_counts)
    # Exactly one representative per semi-simple orbit: their least images
    # are the reference's representatives, each once.
    representatives = semisimple_representatives(key, DEFAULT_BUDGET)[1]
    perms = conjugation_perms(q)
    assert sorted(least_image(perms, tuple(pack(q, mat) for mat in rep))
                  for rep in representatives) == semisimple


def _counted_steps(monkeypatch):
    """The (state, row) of every step the census makes through its module
    global _step."""
    calls = []

    def counted(p, state, row):
        calls.append((state, row))
        return _step(p, state, row)

    monkeypatch.setattr(census, "_step", counted)
    return calls


def _class_index(q, row):
    x, y, z = row
    return (x * q + y) * q + z


def test_points_only_miss_classifies_one_tuple_of_classes_each(monkeypatch):
    """The points pass steps the kernel from the scalar state once per
    class orbit, then once per class from one state of each type it
    reached, building each transition list once; a cache hit makes no
    step."""
    calls = _counted_steps(monkeypatch)
    q, key = 3, CensusKey(3, 2)
    first = stratum_census(key)
    firsts = calls[:q + 1]
    assert all(state == _SCALAR for state, _ in firsts)
    stepped = {(_class_index(q, row),) for _, row in firsts}
    assert sorted(len(orbit & stepped) for orbit in class_orbits_reference(q, 1)) == [1] * (q + 1)
    later = calls[q + 1:]
    states = {state for state, _ in later}
    assert len({_type(q, state) for state in states}) == len(states) <= 6
    assert len(later) == len(set(later))
    assert len(calls) <= (q + 1) + len(states) * q**3
    assert {_class_index(q, row) for _, row in later} == set(range(q**3))
    calls.clear()
    assert stratum_census(key).points == first.points
    assert calls == []


@pytest.mark.parametrize("q", [2, 3, 17])
def test_points_census_at_rank_1_classifies_one_class_per_orbit(q, monkeypatch):
    """Rank 1 makes one step from the scalar state per class orbit, q + 1
    (4 over F_2), with no table; over F_2 and F_3 the stepped classes meet
    each orbit of the reference action once."""
    calls = _counted_steps(monkeypatch)
    stratum_census(CensusKey(q, 1), use_cache=False)
    assert len(calls) == (4 if q == 2 else q + 1)
    assert all(state == _SCALAR for state, _ in calls)
    stepped = [_class_index(q, row) for _, row in calls]
    assert stepped == list(field_tables(q).class_orbits())
    if q <= 3:
        assert sorted(len(orbit & {(c,) for c in stepped})
                      for orbit in class_orbits_reference(q, 1)) == [1] * len(calls)
    if q == 17:
        assert field_tables(q)._pgl_perms is None


@pytest.mark.parametrize("q,m,mode", [(3, 3, "monoid"), (5, 2, "group"), (2, 5, "group"),
                                      (2, 4, "monoid")])
def test_orbit_pass_classifies_one_class_tuple_per_orbit_from_a_representative(q, m, mode,
                                                                               monkeypatch):
    """The walk classifies exactly the least members of the orbits of class
    tuples that have no proper prefix with a trivial stabiliser; below such
    a prefix it counts by tail weights.  Over F_2 in group mode the zero
    class and (1, 1, 1) are fixed by all of PGL_2, and the classes
    (1, y, z) with yz = 0 hold no invertible matrix, so only the class
    tuples over tuples of the space count."""
    calls = []

    def counted(T, classes, state=None):
        calls.append(classes)
        return classify_packed(T, classes, state)

    monkeypatch.setattr(census, "classify_packed", counted)
    _orbit_pass(CensusKey(q, m, mode), DEFAULT_BUDGET)
    T = field_tables(q)
    perms = [[class_of(q, perm[c * q]) for c in range(q**3)] for perm in conjugation_perms(q)]
    live = sorted({class_of(q, i) for i in space_indices(q, mode)})
    least, seen = set(), set()
    for classes in product(live, repeat=m):
        if classes not in seen:
            orbit = {tuple(perm[c] for c in classes) for perm in perms}
            seen |= orbit
            least.add(min(orbit))
    # Burnside: the orbits number the mean count of class tuples a g fixes.
    fixed = sum(sum(perm[c] == c for c in live) ** m for perm in perms)
    assert fixed % len(perms) == 0 and len(least) == fixed // len(perms)

    def trivial(prefix):
        return sum(all(perm[c] == c for c in prefix) for perm in perms) == 1

    want = {classes for classes in least
            if not any(trivial(classes[:i]) for i in range(1, m))}
    assert len(calls) == len(set(calls))
    assert set(calls) == want
    # One class never has a trivial stabiliser, so rank 2 prunes nothing;
    # deeper keys prune more than the air prefixes alone would.
    air_only = {classes for classes in least
                if not any(trivial(classes[:i]) and classify_packed(T, classes[:i])
                           is MoldLabel.AIR for i in range(1, m))}
    assert want <= air_only <= least
    assert (want < least) == (m > 2)
    if (q, m) in ((3, 3), (2, 4)):
        assert want < air_only


class _FirstLeaf(Exception):
    pass


@pytest.mark.parametrize("m", [40, 1100])
@pytest.mark.parametrize("flag", ["--orbits", "--report"])
def test_orbit_pass_at_a_huge_budgeted_rank_reaches_its_first_leaf(flag, m, monkeypatch):
    """A budget of q^(4m) lets any rank through; the walk must then reach
    its first class tuple without sizing anything by the space and without
    recursing once per position."""
    def first_leaf(T, classes, state=None):
        raise _FirstLeaf(classes)

    monkeypatch.setattr(census, "classify_packed", first_leaf)
    argv = ["census", "--q", "2", "--m", str(m), flag, "--no-cache", "--budget", str(2 ** (4 * m))]
    with pytest.raises(_FirstLeaf) as leaf:
        run_command(argv)
    assert leaf.value.args[0] == (0,) * m


@pytest.mark.parametrize("q,m,mode", [(2, 4, "monoid"), (3, 3, "group"), (5, 2, "group")])
def test_semisimple_representatives_have_distinct_full_and_split_vectors(q, m, mode):
    """The report separates semi-simple orbits by their split coordinates;
    the full moduli vectors of the same representatives separate them too."""
    counts, representatives = semisimple_representatives(CensusKey(q, m, mode), DEFAULT_BUDGET)
    full = {_moduli_entries(q, [(e, 1) for e in mats], mode == "group") for mats in representatives}
    split = {_split_entries(q, [(e, 1) for e in mats]) for mats in representatives}
    assert len(full) == len(split) == len(representatives) == counts.orbits[MoldLabel.SEMISIMPLE]


def test_split_entries_need_a_matrix_with_nonzero_m():
    with pytest.raises(ValueError):
        _split_entries(3, [((1, 0, 0, 1), 1), ((0, 1, 0, 0), 1)])


@pytest.mark.parametrize("mode", MODES)
def test_stratum_points_equal_the_subalgebra_polynomials(mode):
    """Every key the default budget admits, and with the budget raised,
    every prime q < 20 at m = 2 and 3."""
    deep = [(q, m) for q in range(2, 20) if is_prime(q) for m in (2, 3)]
    for q, m in BUDGET_KEYS + deep:
        sizes = stratum_polynomials(q, m, mode)
        points = {label: sum(s * c for s, c in by_size.items()) for label, by_size in sizes.items()}
        budget = max(DEFAULT_BUDGET, q ** (4 * m))
        assert stratum_census(CensusKey(q, m, mode), budget, use_cache=False).points == points, (
            q, m)


@pytest.mark.parametrize("mode", MODES)
def test_orbits_equal_the_subalgebra_polynomials(mode):
    for q, m in ORBIT_KEYS:
        sizes = stratum_polynomials(q, m, mode)
        counts = orbit_census(CensusKey(q, m, mode), use_cache=False)
        assert counts.orbit_size_counts == sizes, (q, m)
        assert counts.orbits == {label: sum(by_size.values()) for label, by_size in sizes.items()}


def test_census_key_refuses_rank_0_and_an_unknown_mode():
    with pytest.raises(ValueError, match="^rank must be >= 1$"):
        CensusKey(2, 0)
    with pytest.raises(ValueError, match="^mode must be 'monoid' or 'group', got 'ring'$"):
        CensusKey(2, 1, "ring")


@pytest.mark.parametrize("q", [3215031751, 2**31 + 11])
def test_census_key_takes_field_spec_rule(q):
    """A census field must be one FieldSpec accepts: 3215031751 =
    151 751 28351 is the least composite that is_prime accepts, and
    2^31 + 11 is prime but past the modulus bound."""
    assert is_prime(q)
    with pytest.raises(ValueError, match=f"^prime modulus too large: {q}$"):
        CensusKey(q, 1)


def test_census_of_a_composite_past_the_primality_bound_is_one_line(capsys):
    assert run_command(["census", "--q", "3215031751", "--m", "1"]) == (1, "")
    assert capsys.readouterr().err == "error: prime modulus too large: 3215031751\n"


def test_census_budget_on_huge_ranks_is_one_line_and_fast(capsys):
    assert run_command(["census", "--q", "5", "--m", "3"]) == (1, "")
    assert capsys.readouterr().err == (
        "error: census space q^(4m) = 244140625 exceeds budget 10000000\n")
    for flags, size in ((["--m", "4000"], "2^16000"),
                        (["--m", "1000000000", "--report"], "2^4000000000")):
        start = time.perf_counter()
        assert run_command(["census", "--q", "2", *flags]) == (1, "")
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            f"error: census space q^(4m) = {size} exceeds budget 10000000\n")
    assert run_command(["census", "--q", "2", "--m", "3000", "--no-cache"]) == (1, "")
    assert capsys.readouterr().err == (
        f"error: census space q^(4m) = {2 ** 12000} exceeds budget 10000000\n")


def test_census_conjugation_table_counts_against_the_budget(capsys):
    # q = 17 is the first field whose class table passes the default budget.
    for flag in ("--orbits", "--report"):
        start = time.perf_counter()
        assert run_command(["census", "--q", "17", "--m", "1", flag]) == (1, "")
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == ("error: census conjugation table (q^3 - q) q^3 "
                                           "= 24054048 entries exceeds budget 10000000\n")
    code, out = run_command(["census", "--q", "17", "--m", "1"])
    assert code == 0 and json.loads(out)["total"] == 17**4


def test_orbits_at_q11_equal_the_subalgebra_polynomials():
    for m, flags in ((1, []), (2, ["--budget", str(11**8)])):
        code, out = run_command(["census", "--q", "11", "--m", str(m), "--orbits", "--no-cache",
                                 *flags])
        assert code == 0
        sizes = stratum_polynomials(11, m, "monoid")
        assert json.loads(out)["orbit_size_counts"] == {
            label.value: {str(s): c for s, c in sorted(by_size.items())}
            for label, by_size in sizes.items()}, m


# sha256 of the stdout of `moldkit census --orbits --report --no-cache` and
# of the cache file a `--report` run writes, for every key within the default
# budget with q <= 7, as the full-space orbit pass printed and wrote them.
REPORT_DIGESTS = {
    (2, 1, "monoid"): ("a6a2f87dd171b2cb7cd7ab927b7e0549db6bed2f7644cb0b8831de1267ea141e",
                       "0a7cfae616007571b9e80e5f40164a59b8a5f537ee61c7651eddb7d659a4ad6f"),
    (2, 1, "group"): ("18e964eedfb37c0de7e77aa0569f1a8c4f8041634199dcc5ce689d81b03a9fdf",
                      "2bc992a0e5b495051e32eb1811e76e238c306044d88bdb34946ea6a3ce236b52"),
    (2, 2, "monoid"): ("a076048390bc96ca956072be7f3c8cd695feaeb77f2ad7131b4596c1413a33db",
                       "f2329e0a694b94abc6b811ba18c3cd18351c20cd8f3032ec0c82492b407288ee"),
    (2, 2, "group"): ("47d343d91680c607f17cb47a2a55d39288dd17c77b0d63d4e0176273dffc00be",
                      "34be522e28b0e5545aab343e7acd23a2126231c1cc243da75b291a5753236424"),
    (2, 3, "monoid"): ("917259eb7f143b88a98dd32cf25f66bc5de3526ca59fafbdc7999aac5ce3414c",
                       "953898b8e3a2fb1d5f0c5a0d2fd01f71a060cce3282aa5168c67b51481b7ffbf"),
    (2, 3, "group"): ("b00ce6967efb400753765678dcdda8adbe966592d067be9bc2f5f8658bcdca11",
                      "5bbca0113c715fdd8c9e339837cfdd1e4990e82763395dff06525373b9b96fef"),
    (2, 4, "monoid"): ("a9a583f34b8e9500e621a4c1bb34e413fef8409d26767b415e798c893390f987",
                       "8592c1b4d2557e81e3c70365cb0bd54c93f32386b559eef260e680bf7c9b3748"),
    (2, 4, "group"): ("da0111cf5e3f7935495f2898f871875986a54aec1ac386297cfce612f0ac3a59",
                      "907e89ea0d2ce0e3a7331bf1b2e5d02881c98ddd5d57bebfa3d5d5bd23d58d1d"),
    (2, 5, "monoid"): ("9b8d0e8e5d63d610de1539dca40b138aa0f77c2e6b7a48e30caa16bac2897bdc",
                       "9642f166063f8ddddbcce3a6b2c46606fb7925964a039e43c07fc635c2be4a42"),
    (2, 5, "group"): ("bc4a7f5177e34ac6a0e6360224223b514eb048eec80cb222b61a97daefdc1643",
                      "0306d2b4b5c1409c7cca6e705f512328a83b7f30049b2e78cab83f1ed8783738"),
    (3, 1, "monoid"): ("f6f2d93550fcf6a7e4d5c5904c45d7f67e06e10d0d418e5471f53bd51de7368c",
                       "9e85dc4f5eb96e783cc08da588b2772da3f136fe055ddd13844a9302a81a4b9d"),
    (3, 1, "group"): ("3da5643fa67a6b18a3ff172b333b375b21edce9bea3321341a2ca988aa9c5af7",
                      "284549377e9f3853d6adc8f46aee7a7a1ed4f2e83d16d103a8d73fd5b4e484ac"),
    (3, 2, "monoid"): ("82822fa470cd7d6b533a54ad69cc0dd2d3a8e61b3d7d9cd952ad75883d15db81",
                       "c5092f9f801fabf1ea6504f1b8e96b38841b56f33786a1bc95de0516abce7a14"),
    (3, 2, "group"): ("e21966c7c0a3b5a5a47d1144e1237c0df44cf29cee6613fbb97a186974a9386d",
                      "c6a41439d4a0408803de527c6be3674a7321b4e996e8ff6935c4771f977c95c2"),
    (3, 3, "monoid"): ("ceb437c926d110c798558d78645a14d70f0318ded54d4be2cb9fc4ebeb0b8e2e",
                       "4e6c9801de8d43991493197bd2617515c4df3c999801c780a41c5b3b0762fc95"),
    (3, 3, "group"): ("d487bc1f475acbe90356b6332b05af33dbe6a0bec308f0eb593a77aa9d1ad01e",
                      "d0b064483062ef4f1713375511a2872f328cc0f069d2c8773669688a0fc87bb3"),
    (5, 1, "monoid"): ("0059efa7938d9a8f76af0f5464973ee8eddf2086effca1d058c151771c7c7d02",
                       "a3a2ca6858a5dc9d3e38e5f97b7899d8917b077e0e6ec93b78d97da1b8c947e6"),
    (5, 1, "group"): ("015fcf04df88c9bbc4c7e837f84ce40883c6896de8d6d848a178f646c258720a",
                      "81cd8dd7ef874b4b391cad0802cb82d3a35130f744dbdbfb0e8daf8f6c0ff2f2"),
    (5, 2, "monoid"): ("197fcb3b2d2c719043c96181e8bcdd855efdd6ee6b75081a31aee50bea918606",
                       "83cafd7bc486df7390b6d5b7840f739cc0f9eef49ade299ebcd4ea2f504e1d7a"),
    (5, 2, "group"): ("fef283163afe60c37a5e014f1bbfb606213b86551d5ae6c2204c2c43bac4300c",
                      "2d2cec2ab5889f352959aec863cd27ad158b163cfff035d8817d041607699427"),
    (7, 1, "monoid"): ("3518cb6cbc932aa96f33835211a99533c42a237b0bfddeb6e037d74425c45075",
                       "62a92275092197ddd68e87a2e7460c478e23aa388161fbf8edc0cafd54f7de46"),
    (7, 1, "group"): ("fbf7b63e3f72a4874877a8407433392ebfe45c759a84871dd924d1e4532dcc6b",
                      "d8bfba681a2984a82899cbe0cf9debaf8309b2fc4d387fbdca625e64c18086a0"),
    (7, 2, "monoid"): ("5d033100ddd855a22b38f63b8c7f78deeaf2af3a9d9bab8a5f072d9ef64ce72f",
                       "316d3adebd01d1413c2e56f1552fb1590e9ac4ba73e6ef8bffc4814f5bdfba07"),
    (7, 2, "group"): ("b5eee2a5ce40a8814f4ebc7e7f1aefc711001aed11f9ec15abfc790d42de3cbd",
                      "2aa6eb06333059b2649b610236529db3af1c8a5b5535c4afe910768540a21f5d"),
}


@pytest.mark.parametrize("q,m,mode", sorted(REPORT_DIGESTS))
def test_report_stdout_and_cache_bytes_are_pinned(q, m, mode, tmp_path):
    stdout_digest, cache_digest = REPORT_DIGESTS[q, m, mode]
    argv = ["census", "--q", str(q), "--m", str(m), "--mode", mode]
    code, out = run_command([*argv, "--orbits", "--report", "--no-cache"])
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == stdout_digest
    assert run_command([*argv, "--report"]) == (0, out)
    cache = tmp_path / "cache" / f"census_q{q}_m{m}_{mode}.json"
    assert hashlib.sha256(cache.read_bytes()).hexdigest() == cache_digest


# Keys past the default budget where most of the walk is counted by tail
# weights, in group mode with class weights that are not uniform.
DEEP_KEYS = [(q, m, mode) for q, m in [(3, 4), (5, 3), (2, 6)] for mode in MODES]


@pytest.mark.parametrize("q,m,mode", sorted(REPORT_DIGESTS) + DEEP_KEYS)
def test_orbit_pass_equals_the_unpruned_walk(q, m, mode):
    """Subtrees counted by tail weights change no count, and leave the
    semi-simple representatives and their order as the unpruned walk finds
    them."""
    key = CensusKey(q, m, mode)
    counts, representatives = semisimple_representatives(key, max(DEFAULT_BUDGET, q ** (4 * m)))
    want, want_representatives = unpruned_orbit_pass(key)
    assert counts.points == want.points
    assert counts.orbits == want.orbits
    assert counts.orbit_size_counts == want.orbit_size_counts
    assert representatives == want_representatives


@pytest.mark.parametrize("q", [2, 3])
def test_tail_weights_equal_the_brute_force_sums(q):
    """From the kernel state of every prefix of at most 2 live classes,
    the tail weights of n <= 2 more classes, times the prefix's weight,
    equal the weight products of the whole class tuples summed per label
    of classify, in both modes.  A tuple generates the algebra of its set
    of classes, so classify runs once per set, on its sorted members."""
    T = field_tables(q)
    members = [lift_tuple(q, (pack(q, entries),)).gens[0] for entries in T.classes]
    labels = {frozenset(): MoldLabel.SCALAR}
    for mode in MODES:
        weights = {c: len(lams) for c, lams in enumerate(_class_fibres(q, mode)) if lams}
        rows = [(T.classes[c][:3], w) for c, w in weights.items()]
        transitions = {}
        for k in range(3):
            for prefix in product(weights, repeat=k):
                state = _SCALAR
                for c in prefix:
                    state = _step(q, state, T.classes[c][:3])
                weight = math.prod(weights[c] for c in prefix)
                for n in range(3):
                    want = dict.fromkeys(MoldLabel, 0)
                    for tail in product(weights, repeat=n):
                        classes = frozenset(prefix + tail)
                        if classes not in labels:
                            labels[classes] = classify(
                                RepTuple(tuple(members[c] for c in sorted(classes)), "monoid"))
                        want[labels[classes]] += weight * math.prod(weights[c] for c in tail)
                    got = _tail_weights(q, rows, {state: 1}, n, transitions)
                    assert {label: weight * t for label, t in zip(_LABELS, got)} == want
        assert len(transitions) <= 6


def reached_states(q, rows):
    """Every kernel state that some tuple of the weighted rows reaches
    from the scalar state, unscaled."""
    seen, frontier = {_SCALAR}, [_SCALAR]
    while frontier:
        state = frontier.pop()
        for row, _ in rows:
            if (to := _step(q, state, row)) not in seen:
                seen.add(to)
                frontier.append(to)
    return seen


@pytest.mark.parametrize("q", [2, 3, 5, 7])
@pytest.mark.parametrize("mode", MODES)
def test_lumped_tail_weights_equal_the_per_state_dp(q, mode):
    """From every reached state, n <= 3 steps of the DP lumped onto types
    give the per-state DP's weights (Kemeny and Snell's strong
    lumpability), with one memo each across all the calls."""
    T = field_tables(q)
    rows = [(T.classes[c][:3], len(lams))
            for c, lams in enumerate(_class_fibres(q, mode)) if lams]
    states = reached_states(q, rows)
    assert len({scaled_state(q, s) for s in states}) > 6 or q == 2
    lumped, per_state = {}, {}
    for state in states:
        for n in range(4):
            assert (_tail_weights(q, rows, {state: 1}, n, lumped)
                    == tail_weights_reference(q, rows, state, n, per_state)), (state, n)
    assert len(lumped) <= 6


@pytest.mark.parametrize("q", [2, 3, 5])
def test_type_is_constant_on_conjugation_orbits_and_separates_them(q):
    """Over the states of every 1- and 2-class tuple (the state of a
    matrix tuple is that of its classes), every element of
    conjugation_perms keeps the _type of a tuple's state; and the
    conjugates of the first tuple met of a type reach every scaled state
    of that type.  Air is the exception: every later step keeps air, so
    its states are one type across their orbits."""
    T = field_tables(q)
    n = q**3
    perms = [[class_of(q, perm[c * q]) for c in range(n)] for perm in conjugation_perms(q)]
    rows = [T.classes[c][:3] for c in range(n)]
    singles = [_step(q, _SCALAR, row) for row in rows]
    pairs = [_step(q, state, row) for state in singles for row in rows]
    # The images of the flat index (c,) -> c, or (a, b) -> a n + b.
    images = {1: perms, 2: [[g[a] * n + g[b] for a in range(n) for b in range(n)] for g in perms]}
    for k, states in ((1, singles), (2, pairs)):
        types = [_type(q, state) for state in states]
        for image in images[k]:
            assert [types[i] for i in image] == types
        for t in set(types) - {(_LABELS.index(MoldLabel.AIR), 0)}:
            first = types.index(t)
            orbit = {scaled_state(q, states[image[first]]) for image in images[k]}
            assert orbit == {scaled_state(q, s) for s, u in zip(states, types) if u == t}, t
    assert len({_type(q, s) for s in singles + pairs}) == 6


@pytest.mark.parametrize("q,m", [(2, 6), (3, 4), (5, 3), (7, 2), (13, 3)])
@pytest.mark.parametrize("mode", MODES)
def test_no_census_call_builds_more_than_six_transition_lists(q, m, mode, monkeypatch):
    """Every _tail_weights call of one census call shares one memo, which
    ends with at most six lists, one per type; the points pass makes at
    most one step per first-class orbit and six per live class."""
    memos, steps = [], [0]

    def tail_weights(p, rows, vector, n, transitions):
        if not any(memo is transitions for memo in memos):
            memos.append(transitions)
        return _tail_weights(p, rows, vector, n, transitions)

    def step(*args):
        steps[0] += 1
        return _step(*args)

    monkeypatch.setattr(census, "_tail_weights", tail_weights)
    monkeypatch.setattr(census, "_step", step)
    key = CensusKey(q, m, mode)
    stratum_census(key, budget=q ** (4 * m), use_cache=False)
    assert len(memos) == 1 and len(memos[0]) <= 6
    assert steps[0] <= len(field_tables(q).class_orbits()) + 6 * q**3
    if q <= 5:
        memos.clear()
        orbit_census(key, budget=q ** (4 * m), use_cache=False)
        assert len(memos) == 1 and len(memos[0]) <= 6


@pytest.mark.parametrize("q,m,mode", sorted(REPORT_DIGESTS))
def test_each_leaf_is_one_step_from_its_prefix_state(q, m, mode, monkeypatch):
    """Every leaf hands classify_packed the kernel state of its class
    tuple's proper prefix, and the one step from there gives the label of
    the whole fold."""
    T = field_tables(q)
    calls = []

    def checked(T, classes, state=None):
        calls.append((classes, state))
        return classify_packed(T, classes, state)

    monkeypatch.setattr(census, "classify_packed", checked)
    _orbit_pass(CensusKey(q, m, mode), DEFAULT_BUDGET)
    assert calls
    for classes, state in calls:
        prefix = _SCALAR
        for c in classes[:-1]:
            prefix = _step(q, prefix, T.classes[c][:3])
        assert state == prefix
        assert classify_packed(T, classes, state) is classify_packed(T, classes)


def translate_split_entries(q, members, lams):
    """Multiset of the _split_entries of every tuple (A_j + lambda_j I),
    lambda in the product of lams, built explicitly, in the encoding of
    census._split_vectors."""
    want = Counter()
    for lam in product(*lams):
        mats = [(((x + t) % q, y, z, t), 1) for (x, y, z, _), t in zip(members, lam)]
        s, det, traces, pairs = _split_entries(q, mats)
        want[(s, det), tuple(zip(traces, pairs))] += 1
    return want


@pytest.mark.parametrize("q,m,mode", [(q, m, mode) for q, m in SMALL_KEYS for mode in MODES]
                         + [(3, 3, "group"), (5, 2, "group"), (2, 5, "group")])
def test_shifted_split_entries_equal_those_of_every_translate(q, m, mode):
    """The report shifts each semi-simple leaf's split coordinates to all
    of its translates; the multiset of shifted vectors equals that of the
    split coordinates of every translate, built explicitly."""
    T = field_tables(q)
    _, leaves = _orbit_pass(CensusKey(q, m, mode), DEFAULT_BUDGET)
    assert leaves
    for classes, lams in leaves:
        members = [T.classes[c] for c in classes]
        assert Counter(census._split_vectors(q, members, lams)) == translate_split_entries(
            q, members, lams)


@pytest.mark.parametrize("mode", MODES)
def test_shifted_split_entries_off_the_walk_equal_those_of_every_translate(mode):
    """Over an odd field every semi-simple leaf's members have trace 0
    (the least class of each orbit has x = 0), which hides the shift's
    t tr_j and u tr_s terms; every pair of classes over F_3 with a
    matrix of m != 0 shows them."""
    q = 3
    T = field_tables(q)
    fibres = _class_fibres(q, mode)
    checked = 0
    for classes in product(range(q**3), repeat=2):
        members = [T.classes[c] for c in classes]
        lams = [fibres[c] for c in classes]
        if any((x * x + 4 * y * z) % q for x, y, z, _ in members) and all(lams):
            assert Counter(census._split_vectors(q, members, lams)) == translate_split_entries(
                q, members, lams)
            checked += 1
    assert checked > q**5


def test_separation_check_fails_without_the_pair_coordinates(monkeypatch):
    """Traces and det A_s alone do not separate the semi-simple orbits:
    (diag(0, 1), diag(0, 1)) and (diag(0, 1), diag(1, 0)) share them.  So
    the check compares coordinate values, and fails when they lose
    tr A_s A_j."""
    split_vectors = census._split_vectors

    def traces_only(q, members, lams):
        return ((head, tuple(tr for tr, _ in v)) for head, v in split_vectors(q, members, lams))

    monkeypatch.setattr(census, "_split_vectors", traces_only)
    check, = (c for c in consistency_report(CensusKey(3, 2), use_cache=False).checks
              if c.name == "semisimple_trace_separation")
    assert not check.passed and check.actual < check.expected


@pytest.mark.parametrize("q", [2, 3])
def test_every_class_set_with_a_trivial_stabiliser_has_rank_2(q):
    """The walk counts below a trivial stabiliser by tail weights and
    records no leaf there, so such a prefix must have kernel rank 2 or
    more for every semi-simple orbit to reach the report.  Its stabiliser
    and its state's rank depend only on its set of classes, so checking
    every set of at most 4 classes covers every prefix up to m = 4, in
    both modes."""
    T = field_tables(q)
    perms = [[class_of(q, perm[c * q]) for c in range(q**3)] for perm in conjugation_perms(q)]
    trivial = 0
    for n in range(1, 5):
        for classes in combinations(range(q**3), n):
            if sum(all(perm[c] == c for c in classes) for perm in perms) == 1:
                trivial += 1
                state = _SCALAR
                for c in classes:
                    state = _step(q, state, T.classes[c][:3])
                assert state[0] >= 2, classes
    assert trivial


@pytest.mark.parametrize("q", [3, 5, 7])
def test_table_rows_fixing_a_class_have_mu_0_over_odd_fields(q):
    """The orbit pass reads mu over F_2 only: over an odd field a row
    that fixes a class adds no multiple of I to its d = 0 member."""
    for images, mu in field_tables(q).pgl_perms():
        assert all(mu[c] == 0 for c in range(q**3) if images[c] == c)


@pytest.mark.parametrize("q,m,mode", [(2, 1000, "group"), (3, 60, "monoid"), (13, 12, "group")])
def test_deep_points_equal_the_subalgebra_polynomials(q, m, mode):
    """With a budget of q^(4m) the points pass runs at any rank in time
    bounded by its kernel states, not by the space."""
    start = time.perf_counter()
    counts = stratum_census(CensusKey(q, m, mode), budget=q ** (4 * m), use_cache=False)
    assert time.perf_counter() - start < 2.0
    sizes = stratum_polynomials(q, m, mode)
    assert counts.points == {label: sum(s * c for s, c in by_size.items())
                             for label, by_size in sizes.items()}
    assert sum(counts.points.values()) == counts.total


def test_points_census_at_rank_1100_through_the_cli():
    m = 1100
    code, out = run_command(["census", "--q", "2", "--m", str(m), "--no-cache",
                             "--budget", str(2 ** (4 * m))])
    assert code == 0
    body = json.loads(out)
    assert body["total"] == 2 ** (4 * m)
    sizes = stratum_polynomials(2, m, "monoid")
    assert body["points"] == {label.value: sum(s * c for s, c in by_size.items())
                              for label, by_size in sizes.items()}


_LAZY_IMPORT_CHECK = """
import sys
import moldkit
loaded = sorted(name for name in sys.modules if name.startswith("moldkit"))
assert "moldkit.census" not in loaded and "moldkit.cli" not in loaded, loaded
namespace = {}
exec("from moldkit import *", namespace)
assert sorted(name for name in namespace if not name.startswith("__")) == sorted(moldkit.__all__)
import moldkit.census
assert namespace["stratum_census"] is moldkit.census.stratum_census
assert namespace["CensusKey"] is moldkit.census.CensusKey
assert "moldkit.cli" not in sys.modules
print(moldkit.stratum_census(moldkit.CensusKey(2, 1), use_cache=False).total)
"""


def test_import_moldkit_loads_neither_census_nor_cli(tmp_path):
    """A bare import moldkit, in a fresh interpreter, loads neither the
    census nor the CLI; the census names resolve all the same, through
    the package and through import *."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(moldkit.__file__)))
    env = {**os.environ, "PYTHONPATH": src, "MOLDKIT_CACHE": str(tmp_path)}
    out = subprocess.run([sys.executable, "-c", _LAZY_IMPORT_CHECK], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "16\n"


def test_package_census_names_follow_a_rebinding_in_census(monkeypatch):
    """The package's census names are looked up in moldkit.census on each
    access, so a wrapper bound there, as a tracer binds one, shows through
    moldkit.stratum_census too."""
    def wrapper(*args, **kwargs):
        return stratum_census(*args, **kwargs)

    monkeypatch.setattr(census, "stratum_census", wrapper)
    assert moldkit.stratum_census is wrapper
    assert "stratum_census" not in vars(moldkit)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        moldkit.no_such_name
