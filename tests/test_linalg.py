"""Exact linear algebra on raw canonical values, and the solver's use of it."""

import ast
import inspect
import sys
from fractions import Fraction

import pytest

from moldkit import FieldElement, RepTuple, general_conjugator, linalg
from moldkit import fields

from conftest import F2, F3, F65521, Q, rand_invertible, rand_mat


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
        null = linalg.nullspace(rows, ncols, spec.p)
        assert len(red) == len(pivots) == linalg.rank(rows, spec.p)
        assert len(red) + len(null) == ncols
        assert all(canonical(x) for row in red + null for x in row)
        for v in null:
            for row in rows:
                assert spec.reduce(sum(a * x for a, x in zip(row, v))) == 0
        for row in rows:
            assert linalg.in_span(red, pivots, row, spec.p)


def test_conjugacy_solver_builds_no_field_element_in_linalg(monkeypatch, rng):
    tree = ast.parse(inspect.getsource(linalg))
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    imported += [node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module]
    assert not any("fields" in name for name in imported)

    nullspace, calls, field_code = linalg.nullspace, [], []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fields.__file__:
            field_code.append(frame.f_code.co_name)

    def watched(rows, ncols, p):
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            basis = nullspace(rows, ncols, p)
        finally:
            sys.setprofile(previous)
        calls.append(basis)
        assert not any(isinstance(x, FieldElement) for v in list(rows) + basis for x in v)
        return basis

    monkeypatch.setattr(linalg, "nullspace", watched)
    for spec in (F3, F65521, Q):
        for _ in range(10):
            t = RepTuple((rand_mat(rng, spec), rand_mat(rng, spec)))
            P = rand_invertible(rng, spec)
            assert general_conjugator(t, t.conjugated(P)) is not None
    assert len(calls) == 30 and field_code == []
