"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Every tolerance is exact (integer/field equality); nothing is calibrated.
"""

import json
import random
import time
from itertools import product

import pytest

from moldkit import (
    Mat2,
    MoldLabel,
    RepTuple,
    Word,
    classify,
    air_by_discriminants,
    commutator_image_test,
    delta2,
    delta4,
    general_conjugator,
    m_power_closed,
    span_closure,
    ss_conjugator,
    tau3,
    uf2_decompose,
    uf2_reconstruct,
    uf2_transition,
    unipotent_decompose,
    unipotent_reconstruct,
)
from moldkit.census import CensusKey, orbit_census, stratum_census
from moldkit.cli import run_command
from moldkit.invariants import _moduli_entries
from moldkit.words import words_up_to

from conftest import (
    F2,
    F3,
    F5,
    Q,
    all_mats,
    classify_indices,
    conjugation_perms,
    lift_tuple,
    packed_entries,
    rand_invertible,
    rand_mat,
)


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("MOLDKIT_CACHE", str(tmp_path / "cache"))


def _verdict(num, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} {name} failed{suffix}"


def stratum_tuples(q, m, label):
    return [idxs for idxs in product(range(q**4), repeat=m)
            if classify_indices(q, idxs) is label]


def test_criterion_01_stratification_partition():
    keys = [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2)]
    start = time.time()
    ok = True
    for q, m in keys:
        counts = stratum_census(CensusKey(q, m), use_cache=False)
        ok = ok and sum(counts.points.values()) == q ** (4 * m)
        if (q, m) == (2, 1):
            ok = ok and counts.points_by_value() == {
                "air": 0, "borel": 0, "semi_simple": 8,
                "unipotent": 0, "unipotent_f2": 6, "scalar": 2}
        if (q, m) == (3, 1):
            ok = ok and counts.points_by_value() == {
                "air": 0, "borel": 0, "semi_simple": 54,
                "unipotent": 24, "unipotent_f2": 0, "scalar": 3}
    elapsed = time.time() - start
    ok = ok and elapsed < 60.0
    _verdict(1, "stratification partition", ok, f"{elapsed:.1f}s for {len(keys)} keys")


def test_criterion_02_air_freeness():
    ok = True
    details = []
    for q, m in [(2, 2), (2, 3), (3, 2)]:
        counts = orbit_census(CensusKey(q, m), use_cache=False)
        sizes = counts.orbit_size_counts[MoldLabel.AIR]
        ok = ok and set(sizes) == {q**3 - q}
        details.append(f"q={q},m={m}:{sorted(sizes)}")
    _verdict(2, "air freeness", ok, "; ".join(details))


def test_criterion_03_trace_equivalence_field_level():
    ok = True
    checked = 0
    for q, m in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        entries = packed_entries(q)
        perms = conjugation_perms(q)
        rep_to_vec = {}
        vec_to_rep = {}
        for idxs in stratum_tuples(q, m, MoldLabel.SEMISIMPLE):
            rep = min(tuple(p[i] for i in idxs) for p in perms)
            vec = _moduli_entries(q, [(entries[i], 1) for i in idxs], False)
            checked += 1
            if rep in rep_to_vec and rep_to_vec[rep] != vec:
                ok = False  # one orbit, two invariant vectors
            if vec in vec_to_rep and vec_to_rep[vec] != rep:
                ok = False  # one invariant vector, two orbits
            rep_to_vec.setdefault(rep, vec)
            vec_to_rep.setdefault(vec, rep)
    _verdict(3, "trace equivalence on semi-simple stratum", ok, f"{checked} tuples")


def test_criterion_04_discriminant_criterion():
    ok = True
    mismatches = 0
    mats2 = all_mats(F2)
    for m in (1, 2, 3):
        for gens in product(mats2, repeat=m):
            t = RepTuple(gens)
            if air_by_discriminants(t) != (span_closure(t).dim == 4):
                mismatches += 1
    mats3 = all_mats(F3)
    for m in (1, 2):
        for gens in product(mats3, repeat=m):
            t = RepTuple(gens)
            if air_by_discriminants(t) != (span_closure(t).dim == 4):
                mismatches += 1
    ok = ok and mismatches == 0
    # tau-necessity witness: pairwise delta2 = 0, tau3 = 1, air.
    A = Mat2.from_rows([[1, 0], [0, 2]], Q)
    B = Mat2.from_rows([[1, 0], [1, 2]], Q)
    C = Mat2.from_rows([[2, 1], [0, 1]], Q)
    witness = RepTuple((A, B, C))
    ok = ok and not delta2(A, B) and not delta2(B, C) and not delta2(C, A)
    ok = ok and tau3(A, B, C) == Q.one()
    ok = ok and classify(witness) is MoldLabel.AIR and air_by_discriminants(witness)
    _verdict(4, "discriminant criterion", ok, f"{mismatches} mismatches")


def test_criterion_05_identity_suite():
    rng = random.Random(1729)
    bad = 0

    def check_all(X, Y, Z, a, b):
        nonlocal bad
        spec = X.spec
        I = Mat2.identity(spec)
        if (X * X * Y).tr != X.tr * (X * Y).tr - X.det * Y.tr:
            bad += 1
        lhs = (X * Y * Z).tr
        rhs = (-(X * Z * Y).tr + X.tr * (Y * Z).tr + Y.tr * (Z * X).tr
               + Z.tr * (Y * X).tr - X.tr * Y.tr * Z.tr)
        if lhs != rhs:
            bad += 1
        if (X.scale(a) + Y.scale(b)).det != (
                a * a * X.det + b * b * Y.det + a * b * (X.tr * Y.tr - (X * Y).tr)):
            bad += 1
        if delta2(X, Y) != -delta4(I, X, Y, X * Y):
            bad += 1
        if X.det and Y.det:
            comm = X * Y * X.inverse() * Y.inverse() - I
            if delta2(X, Y) != X.det * Y.det * comm.tr:
                bad += 1
            if X.inverse().m != X.m * (X.det.inv() ** 2):
                bad += 1

    mats2 = all_mats(F2)
    f2_scalars = (F2.zero(), F2.one())
    for X, Y in product(mats2, repeat=2):
        for Z in mats2:
            check_all(X, Y, Z, F2.zero(), F2.one())
        for a in f2_scalars:
            for b in f2_scalars:
                check_all(X, Y, X * Y, a, b)
    cases = 0
    for spec in (F5, Q):
        for _ in range(1000):
            X, Y, Z = (rand_mat(rng, spec) for _ in range(3))
            a = spec.element(rng.randint(-9, 9))
            b = spec.element(rng.randint(-9, 9))
            check_all(X, Y, Z, a, b)
            cases += 1

    # m(A^n) closed formula, n <= 8: exhaustive over F2, F3.
    for spec in (F2, F3):
        for A in all_mats(spec):
            for n in range(1, 9):
                if m_power_closed(A, n) != A.pow(n).m:
                    bad += 1
    for spec in (F5, Q):
        for _ in range(150):
            A = rand_mat(rng, spec, span=4)
            for n in range(1, 9):
                if m_power_closed(A, n) != A.pow(n).m:
                    bad += 1

    # Commutator image = {tr Y = tr AY = 0} for every non-scalar A over F2, F3.
    for spec in (F2, F3):
        mats = all_mats(spec)
        for A in mats:
            if A.is_scalar:
                continue
            image = {(A * X - X * A).entries() for X in mats}
            for Y in mats:
                in_cut = not Y.tr and not (A * Y).tr
                if (Y.entries() in image) != in_cut:
                    bad += 1
                if commutator_image_test(A, Y) != in_cut:
                    bad += 1

    _verdict(5, "identity suite", bad == 0,
             f"{bad} violations; {cases} random cases per-field block")


def _unipotent_round_trip(q, m):
    failures = 0
    tuples = stratum_tuples(q, m, MoldLabel.UNIPOTENT)
    words = list(words_up_to(m, 4))
    for idxs in tuples:
        t = lift_tuple(q, idxs)
        cd = unipotent_decompose(t)
        for i, g in enumerate(t.gens, start=1):
            if unipotent_reconstruct(cd, Word((i,))) != g:
                failures += 1
        rv, dv = {}, {}
        for w in words:
            rv[w.letters], dv[w.letters] = cd.coords(w)
        for w1 in words:
            for w2 in words:
                cat = w1.letters + w2.letters
                if cat not in rv:
                    rv[cat], dv[cat] = cd.coords(Word(cat))
                if rv[cat] != rv[w1.letters] * rv[w2.letters]:
                    failures += 1
                if dv[cat] != (rv[w1.letters] * dv[w2.letters]
                               + dv[w1.letters] * rv[w2.letters]):
                    failures += 1
    return len(tuples), failures


def _uf2_round_trip(m):
    failures = 0
    tuples = stratum_tuples(2, m, MoldLabel.UNIPOTENT_F2)
    words = list(words_up_to(m, 4))
    for idxs in tuples:
        t = lift_tuple(2, idxs)
        ch = uf2_decompose(t)
        d_alpha = ch.d(ch.base_word)
        for i, g in enumerate(t.gens, start=1):
            if uf2_reconstruct(ch, Word((i,))) != g:
                failures += 1
        av, bv, dv = {}, {}, {}
        for w in words:
            av[w.letters], bv[w.letters], dv[w.letters] = ch.coords(w)
        for w1 in words:
            for w2 in words:
                cat = w1.letters + w2.letters
                if cat not in av:
                    av[cat], bv[cat], dv[cat] = ch.coords(Word(cat))
                if av[cat] != av[w1.letters] * av[w2.letters] + bv[w1.letters] * bv[w2.letters] * d_alpha:
                    failures += 1
                if bv[cat] != av[w1.letters] * bv[w2.letters] + bv[w1.letters] * av[w2.letters]:
                    failures += 1
        for w in words:
            if av[w.letters] ** 2 + bv[w.letters] ** 2 * d_alpha != dv[w.letters]:
                failures += 1
    return len(tuples), failures


def test_criterion_06_decomposition_round_trips():
    totals = []
    failures = 0
    for q, m in [(3, 1), (3, 2), (5, 1)]:
        n, f = _unipotent_round_trip(q, m)
        totals.append(f"u(q={q},m={m}):{n}")
        failures += f
    for m in (1, 2):
        n, f = _uf2_round_trip(m)
        totals.append(f"uf2(m={m}):{n}")
        failures += f
    _verdict(6, "decomposition round trips", failures == 0,
             f"{'; '.join(totals)}; {failures} failures")


def test_criterion_07_chart_cocycle():
    from moldkit.canon import ABChart

    failures = 0
    tuples_checked = 0
    for m in (1, 2):
        for idxs in stratum_tuples(2, m, MoldLabel.UNIPOTENT_F2):
            t = lift_tuple(2, idxs)
            ch = uf2_decompose(t)
            value_words = list(words_up_to(m, 2))
            overlap_words = [w for w in words_up_to(m, 3)
                             if not t.evaluate(w).is_scalar]
            tuples_checked += 1
            for beta in overlap_words:
                via = uf2_transition(ch, beta)
                direct = ABChart(tup=t, base_word=beta, Z=t.evaluate(beta))
                for w in value_words:
                    if via.a(w) != direct.a(w) or via.b(w) != direct.b(w):
                        failures += 1
                    if uf2_reconstruct(via, w) != t.evaluate(w):
                        failures += 1
                # Identity transition leaves the chart unchanged.
                same = uf2_transition(ch, ch.base_word)
                for w in value_words:
                    if same.a(w) != ch.a(w) or same.b(w) != ch.b(w):
                        failures += 1
                for gamma in overlap_words:
                    if not via.b(gamma):
                        continue
                    two_step = uf2_transition(via, gamma)
                    one_step = uf2_transition(ch, gamma)
                    for w in value_words:
                        if (two_step.a(w) != one_step.a(w)
                                or two_step.b(w) != one_step.b(w)):
                            failures += 1
    _verdict(7, "chart cocycle", failures == 0,
             f"{tuples_checked} tuples, {failures} failures")


def test_criterion_08_unipotent_orbit_counts():
    ok = True
    details = []
    for q, m in [(3, 1), (3, 2), (5, 1)]:
        counts = orbit_census(CensusKey(q, m), use_cache=False)
        expected = q**m * (q**m - 1) // (q - 1)
        actual = counts.orbits[MoldLabel.UNIPOTENT]
        details.append(f"q={q},m={m}:{actual}={expected}")
        ok = ok and actual == expected
    _verdict(8, "unipotent orbit count cross-check", ok, "; ".join(details))


def test_criterion_09_conjugator_certificates():
    rng = random.Random(4104)
    emitted = 0
    verified = 0

    def reverify(P, t1, t2):
        nonlocal verified
        det = P.a11 * P.a22 - P.a12 * P.a21
        assert det
        di = det.inv()
        Pinv = Mat2(di * P.a22, -(di * P.a12), -(di * P.a21), di * P.a11)
        if all(Pinv * A * P == B for A, B in zip(t1.gens, t2.gens)):
            verified += 1

    # Semi-simple certificates across whole orbits over F2 (m = 1, 2).
    for m in (1, 2):
        by_rep = {}
        perms = conjugation_perms(2)
        for idxs in stratum_tuples(2, m, MoldLabel.SEMISIMPLE):
            rep = min(tuple(p[i] for i in idxs) for p in perms)
            by_rep.setdefault(rep, []).append(idxs)
        for rep, members in by_rep.items():
            t_rep = lift_tuple(2, rep)
            for other in members:
                t_other = lift_tuple(2, other)
                P = ss_conjugator(t_rep, t_other)
                assert P is not None
                emitted += 1
                reverify(P, t_rep, t_other)

    # Solver certificates on random conjugate tuples over F5 and Q.
    for spec in (F5, Q):
        for _ in range(100):
            t1 = RepTuple((rand_mat(rng, spec), rand_mat(rng, spec)))
            t2 = t1.conjugated(rand_invertible(rng, spec))
            P = general_conjugator(t1, t2)
            assert P is not None
            emitted += 1
            reverify(P, t1, t2)

    _verdict(9, "conjugator certificates", emitted == verified and emitted > 0,
             f"{verified}/{emitted} re-verified")


def test_criterion_10_cli_determinism(tmp_path):
    def write_doc(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    docs = {
        "swap": write_doc("swap.json", {"field": {"p": 2}, "mode": "monoid",
                                        "generators": [[[0, 1], [1, 0]]]}),
        "a": write_doc("a.json", {"field": {"p": 5}, "mode": "monoid",
                                  "generators": [[[1, 0], [0, 2]]]}),
        "b": write_doc("b.json", {"field": {"p": 5}, "mode": "monoid",
                                  "generators": [[[2, 0], [0, 1]]]}),
        "uni": write_doc("uni.json", {"field": "Q", "mode": "monoid",
                                      "generators": [[[1, 1], [0, 1]]], "words": ["1,1"]}),
        "air": write_doc("air.json", {"field": {"p": 2}, "mode": "monoid",
                                      "generators": [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]}),
        "scalar": write_doc("scalar.json", {"field": "Q", "mode": "monoid",
                                            "generators": [[[2, 0], [0, 2]]]}),
        "grp": write_doc("grp.json", {"field": {"p": 3}, "mode": "group",
                                      "generators": [[[1, 1], [0, 1]]], "words": ["-1"]}),
    }
    commands = [
        ["classify", docs["swap"]],
        ["classify", docs["air"]],
        ["equiv", docs["a"], docs["b"]],
        ["invariants", docs["a"]],
        ["invariants", docs["grp"]],
        ["normalize", docs["swap"]],
        ["normalize", docs["uni"]],
        ["normalize", docs["air"]],
        ["normalize", docs["scalar"]],
        ["normalize", docs["a"]],
        ["census", "--q", "2", "--m", "1"],
        ["census", "--q", "2", "--m", "2", "--orbits"],
        ["census", "--q", "3", "--m", "1", "--orbits", "--report"],
        ["census", "--q", "3", "--m", "1", "--mode", "group", "--orbits", "--report"],
    ]
    ok = True
    for argv in commands:
        code1, out1 = run_command(argv)
        code2, out2 = run_command(argv)
        ok = ok and code1 == 0 and code2 == 0 and out1 == out2 and out1
    _verdict(10, "cli determinism", bool(ok), f"{len(commands)} commands, two runs each")
