"""Exact linear algebra on raw canonical values, and the solver's use of it."""

import ast
import inspect
import sys
from fractions import Fraction

import pytest

from moldkit import FieldElement, RepTuple, general_conjugator, linalg
from moldkit import canon, fields, mold

from conftest import (
    F2,
    F3,
    F65521,
    Q,
    in_span,
    nullspace_reference,
    rand_invertible,
    rand_mat,
    rank,
    rref_reference,
    stratum_samples,
)


def _random_system(rng, spec):
    """Rows that are random combinations of a few random rows, so the
    systems have every rank from 1 to the number of columns."""
    def value():
        if spec.p is None:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        return rng.randrange(spec.p)

    ncols = rng.randint(1, 6)
    base = [[value() for _ in range(ncols)] for _ in range(rng.randint(1, ncols))]
    return [tuple(spec.reduce(sum(value() * row[j] for row in base)) for j in range(ncols))
            for _ in range(rng.randint(1, 6))], ncols


@pytest.mark.parametrize("spec", [F2, F65521, Q], ids=str)
def test_rref_and_nullspace_return_canonical_values(rng, spec):
    def canonical(x):
        if spec.p is None:
            return type(x) is Fraction
        return type(x) is int and 0 <= x < spec.p

    for _ in range(300):
        rows, ncols = _random_system(rng, spec)
        red, pivots = linalg.rref(rows, spec.p)
        null = nullspace_reference(rows, ncols, spec.p)
        assert len(red) == len(pivots) == rank(rows, spec.p)
        assert len(red) + len(null) == ncols
        assert all(canonical(x) for row in red for x in row)
        for v in null:
            for row in rows:
                assert spec.reduce(sum(a * x for a, x in zip(row, v))) == 0
        for row in rows:
            assert in_span(red, pivots, row, spec.p)


def test_conjugacy_solver_builds_no_field_element_in_linalg(monkeypatch, rng):
    tree = ast.parse(inspect.getsource(linalg))
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    imported += [node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module]
    assert not any("fields" in name for name in imported)

    intertwiner_basis, calls, field_code = canon.intertwiner_basis, [], []
    pair_entries, screens = canon._pair_entries, []

    def screen(t1, t2):
        screens.append(t1)
        return pair_entries(t1, t2)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fields.__file__:
            field_code.append(frame.f_code.co_name)

    def watched(t1, t2, *, pairs):
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            basis = intertwiner_basis(t1, t2, pairs=pairs)
        finally:
            sys.setprofile(previous)
        calls.append(basis)
        assert not any(isinstance(x, FieldElement) for M in basis for x in M.values())
        return basis

    monkeypatch.setattr(canon, "intertwiner_basis", watched)
    monkeypatch.setattr(canon, "_pair_entries", screen)
    for spec in (F3, F65521, Q):
        for _ in range(10):
            t = RepTuple((rand_mat(rng, spec), rand_mat(rng, spec)))
            P = rand_invertible(rng, spec)
            assert general_conjugator(t, t.conjugated(P)) is not None
    assert len(calls) == 30 and field_code == []
    assert len(screens) == 30  # one screen per conjugator call, reused by the solver


def test_q_rref_and_nullspace_of_int_entries_are_fractions():
    red, pivots = linalg.rref([(3, 1), (1, 2)], None)
    assert red == [(1, 0), (0, 1)] and pivots == [0, 1]
    assert all(type(x) is Fraction for row in red for x in row)


def _q_system(rng):
    """Rows over Q of entries with numerators and denominators up to about
    10^12, some dependent on the others, with literal 0 and int entries
    and all-zero rows mixed in."""
    def value():
        kind = rng.random()
        if kind < 0.2:
            return 0
        if kind < 0.3:
            return rng.randint(-10**12, 10**12)
        return Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**12))

    ncols = rng.randint(1, 6)
    rows = [tuple(value() for _ in range(ncols)) for _ in range(rng.randint(1, 4))]
    for _ in range(rng.randint(0, 3)):
        a, b = rng.choice(rows), rng.choice(rows)
        k = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        rows.append(tuple(x + k * y for x, y in zip(a, b)))
    rows += [(0,) * ncols] * rng.randint(0, 2)
    rng.shuffle(rows)
    return rows, ncols


def test_q_rref_and_nullspace_equal_the_fraction_reference(rng):
    for _ in range(400):
        rows, _ = _q_system(rng)
        red, pivots = linalg.rref(rows, None)
        assert (red, pivots) == rref_reference(rows)
        assert all(type(x) is Fraction for row in red for x in row)


def _fp_systems(rng, p):
    """Systems over F_p: empty, all-zero and full-rank ones, then random rows
    with some dependent on the others and all-zero rows mixed in."""
    systems = [([], 3), ([(0,) * 4] * 3, 4)]
    for ncols in range(1, 7):
        rows = [[int(j == i) if j <= i else rng.randrange(p) for j in range(ncols)]
                for i in range(ncols)]
        for _ in range(ncols - 1):
            i, j = rng.sample(range(ncols), 2)
            k = rng.randrange(p)
            rows[i] = [(x + k * y) % p for x, y in zip(rows[i], rows[j])]
        rng.shuffle(rows)
        systems.append(([tuple(r) for r in rows], ncols))
    for _ in range(300):
        ncols = rng.randint(1, 6)
        rows = [tuple(rng.randrange(p) for _ in range(ncols)) for _ in range(rng.randint(1, 4))]
        for _ in range(rng.randint(0, 3)):
            a, b = rng.choice(rows), rng.choice(rows)
            k = rng.randrange(p)
            rows.append(tuple((x + k * y) % p for x, y in zip(a, b)))
        rows += [(0,) * ncols] * rng.randint(0, 2)
        rng.shuffle(rows)
        systems.append((rows, ncols))
    return systems


@pytest.mark.parametrize("p", [2, 3, 65521, 2**31 - 1])
def test_fp_rref_and_nullspace_equal_the_normalise_first_reference(rng, p):
    systems = _fp_systems(rng, p)
    assert [rank(rows, p) for rows, _ in systems[:8]] == [0, 0, 1, 2, 3, 4, 5, 6]
    for rows, _ in systems:
        red, pivots = linalg.rref(rows, p)
        assert (red, pivots) == rref_reference(rows, p)
        assert all(type(x) is int and 0 <= x < p for row in red for x in row)


def test_q_kernels_run_no_fraction_arithmetic(monkeypatch, rng):
    systems = [_q_system(rng)[0] for _ in range(100)]
    tuples = [[g.values() for g in t.gens]
              for rank in (1, 2, 3) for _ in range(10) for t in stratum_samples(rng, Q, rank)]
    tuples += [[(1, 0, 0, 1), (Fraction(1, 3), 2, 0, Fraction(1, 3))]]
    rrefs = [linalg.rref(rows, None) for rows in systems]
    labels = [mold._classify_entries(None, mats) for mats in tuples]
    assert len(set(labels)) == 5

    def refuse(*args):
        raise AssertionError("Fraction arithmetic in a Q kernel")

    for op in ("add", "sub", "mul", "truediv"):
        monkeypatch.setattr(Fraction, f"__{op}__", refuse)
        monkeypatch.setattr(Fraction, f"__r{op}__", refuse)
    with pytest.raises(AssertionError):
        Fraction(1, 2) + 1
    assert [linalg.rref(rows, None) for rows in systems] == rrefs
    assert [mold._classify_entries(None, mats) for mats in tuples] == labels
