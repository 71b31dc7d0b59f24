"""Census: packed classifier vs exact classifier, counts, orbits, caching."""

import json
import time
from itertools import product

import pytest

from moldkit import Mat2, MoldLabel, RepTuple, census, classify
from moldkit.census import (
    DEFAULT_BUDGET,
    CensusKey,
    FieldTables,
    _invariant_vector_packed,
    _orbit_pass,
    classify_packed,
    consistency_report,
    field_tables,
    orbit_census,
    stratum_census,
)
from moldkit.cli import run_command
from moldkit.errors import BudgetExceeded

from conftest import (
    F2,
    F3,
    F5,
    orbit_reference,
    pgl_perms_reference,
    stratum_polynomials,
    stratum_reference,
)

MODES = ("monoid", "group")
# Every key whose space has at most 10^5 tuples.
SMALL_KEYS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (7, 1)]
# Every key within the default budget up to q = 7, and (11, 1).
BUDGET_KEYS = [(q, m) for q in (2, 3, 5, 7) for m in range(1, 7)
               if q ** (4 * m) <= DEFAULT_BUDGET] + [(11, 1)]
# Orbit passes that take well under a second each.
ORBIT_KEYS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1)]


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("MOLDKIT_CACHE", str(tmp_path / "cache"))


def lift(T, idx, spec):
    return Mat2.from_rows([T.entries[idx][:2], T.entries[idx][2:]], spec)


def test_classify_packed_agrees_with_exact():
    for spec in (F2, F3):
        T = field_tables(spec.p)
        for i in range(T.n):
            assert classify_packed(T, (i,)) is classify(RepTuple((lift(T, i, spec),)))
        for i in range(T.n):
            for j in range(T.n):
                expected = classify(RepTuple((lift(T, i, spec), lift(T, j, spec))))
                assert classify_packed(T, (i, j)) is expected


def test_packed_invariant_vector_agrees_with_exact(rng):
    from moldkit import invariant_vector
    from moldkit.census import _invariant_vector_packed

    T = field_tables(3)
    for mode in ("monoid", "group"):
        pool = T.invertible if mode == "group" else list(range(T.n))
        for _ in range(200):
            idxs = (rng.choice(pool), rng.choice(pool))
            dets, traces = _invariant_vector_packed(T, idxs, mode)
            t = RepTuple(tuple(lift(T, i, F3) for i in idxs), mode)
            vec = invariant_vector(t)
            assert dets == tuple(d.value for d in vec.dets)
            assert traces == tuple(v.value for _, v in vec.traces)


def test_classify_packed_agrees_with_exact_f5_sampled(rng):
    T = field_tables(5)
    for _ in range(400):
        i, j = rng.randrange(T.n), rng.randrange(T.n)
        expected = classify(RepTuple((lift(T, i, F5), lift(T, j, F5))))
        assert classify_packed(T, (i, j)) is expected
    for _ in range(100):
        i, j, k = (rng.randrange(T.n) for _ in range(3))
        expected = classify(RepTuple((lift(T, i, F5), lift(T, j, F5), lift(T, k, F5))))
        assert classify_packed(T, (i, j, k)) is expected


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
    T = field_tables(2)
    perms = T.pgl_perms()
    # Recount orbits with the reversed tuple order; the relabelled space
    # has the same orbit structure.
    seen = set()
    counts = {label: 0 for label in MoldLabel}
    for idxs in product(range(T.n), repeat=2):
        rev = idxs[::-1]
        orbit = frozenset(tuple(p[i] for i in rev) for p in perms)
        if orbit in seen:
            continue
        seen.add(orbit)
        counts[classify_packed(T, rev)] += 1
    for label in MoldLabel:
        assert counts[label] == r.orbits[label]


@pytest.mark.parametrize("q", [2, 3, 5])
def test_pgl_perms_equal_the_conjugation_reference(q):
    perms = FieldTables(q).pgl_perms()
    assert len(perms) == q**3 - q
    assert perms == pgl_perms_reference(q)


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

    def counted(T, idxs):
        calls.append(idxs)
        return classify_packed(T, idxs)

    monkeypatch.setattr(census, "classify_packed", counted)
    code, out = run_command(["census", "--q", "3", "--m", "2", "--report", "--no-cache"])
    assert code == 0
    report = json.loads(out)
    assert report["report"]["passed"] is True
    assert len(calls) == sum(report["orbits"].values())
    assert len(set(calls)) == len(calls)


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
        T = field_tables(key.q)
        perms = T.pgl_perms()
        orbits = 0
        for idxs in product(T.invertible, repeat=key.m):
            if classify_packed(T, idxs) is not MoldLabel.SEMISIMPLE:
                continue
            orbit = {tuple(p[i] for i in idxs) for p in perms}
            if idxs != min(orbit):
                continue
            orbits += 1
            vector = _invariant_vector_packed(T, idxs, key.mode)
            for member in orbit:
                assert _invariant_vector_packed(T, member, key.mode) == vector
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
    assert _orbit_pass(key, DEFAULT_BUDGET)[1] == semisimple


def test_points_only_miss_classifies_one_tuple_of_classes_each(monkeypatch):
    calls = []

    def counted(T, idxs):
        calls.append(idxs)
        return classify_packed(T, idxs)

    monkeypatch.setattr(census, "classify_packed", counted)
    key = CensusKey(3, 2)
    first = stratum_census(key)
    assert len(calls) == 27**2 == len(set(calls))
    T = field_tables(3)
    assert all(T.entries[i][3] == 0 for idxs in calls for i in idxs)
    assert stratum_census(key).points == first.points
    assert len(calls) == 27**2


@pytest.mark.parametrize("mode", MODES)
def test_stratum_points_equal_the_subalgebra_polynomials(mode):
    for q, m in BUDGET_KEYS:
        sizes = stratum_polynomials(q, m, mode)
        points = {label: sum(s * c for s, c in by_size.items()) for label, by_size in sizes.items()}
        assert stratum_census(CensusKey(q, m, mode), use_cache=False).points == points, (q, m)


@pytest.mark.parametrize("mode", MODES)
def test_orbits_equal_the_subalgebra_polynomials(mode):
    for q, m in ORBIT_KEYS:
        sizes = stratum_polynomials(q, m, mode)
        counts = orbit_census(CensusKey(q, m, mode), use_cache=False)
        assert counts.orbit_size_counts == sizes, (q, m)
        assert counts.orbits == {label: sum(by_size.values()) for label, by_size in sizes.items()}


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
    for flag in ("--orbits", "--report"):
        start = time.perf_counter()
        assert run_command(["census", "--q", "11", "--m", "1", flag]) == (1, "")
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == ("error: census conjugation table (q^3 - q) q^4 "
                                           "= 19326120 entries exceeds budget 10000000\n")
    code, out = run_command(["census", "--q", "11", "--m", "1"])
    assert code == 0 and json.loads(out)["total"] == 11**4
