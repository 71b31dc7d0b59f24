"""Property-based check of the classifier's step kernel (mold._step and
mold._label): air absorbs every later row, scaling a line or plane state
by a nonzero scalar is invisible to every later step and label (the
census merges states by this rule), a borel state is kept by the rows in
its plane and turned air by every other, and _classify_entries is the
label of the folded state, over small and large primes and over Q."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from moldkit.linalg import _int_scaled
from moldkit.mold import _AIR, _SCALAR, MoldLabel, _classify_entries, _label, _step

PRIMES = (2, 3, 5, 7, 65521)
FIELDS = PRIMES + (None,)
FUZZ = settings(max_examples=200, derandomize=True, deadline=None, database=None)


def values(p):
    """Residues mod p, small ones often so that degenerate rows occur; over
    Q (p None) small fractions."""
    if p is None:
        return st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    return st.one_of(st.integers(0, min(p, 4) - 1), st.integers(0, p - 1))


def rows(p, max_size=5):
    v = values(p)
    return st.lists(st.tuples(v, v, v), max_size=max_size)


def field_and_rows():
    """A field, a prefix of trace-free rows and a tail of rows."""
    return st.sampled_from(FIELDS).flatmap(
        lambda p: st.tuples(st.just(p), rows(p), rows(p)))


def fold(p, state, rows):
    for row in rows:
        state = _step(p, state, row)
    return state


@FUZZ
@given(field_and_rows())
def test_appending_rows_keeps_an_air_state_air(case):
    p, prefix, tail = case
    state = fold(p, _SCALAR, prefix)
    if _label(p, state) is MoldLabel.AIR:
        assert _label(p, fold(p, state, tail)) is MoldLabel.AIR


@FUZZ
@given(field_and_rows(), st.integers(1, 65520), st.integers(1, 9))
def test_scaling_a_state_changes_no_label_after_any_rows(case, num, den):
    p, prefix, tail = case
    state = fold(p, _SCALAR, prefix)
    rank, *v = state
    if rank not in (1, 2):
        return
    if p is None:
        s = Fraction(num, den)
        scaled = rank, *(x * s for x in v)
    else:
        s = num % p or 1
        scaled = rank, *(x * s % p for x in v)
    assert _label(p, scaled) is _label(p, state)
    assert _label(p, fold(p, scaled, tail)) is _label(p, fold(p, state, tail))


def borel_state_and_rows():
    """A field, a rank-2 state whose w = r (a b, -a^2, b^2) is nonzero with
    w0^2 + w1 w2 = 0, so it labels borel, and rows: each one either
    arbitrary or w x y, which lies in the plane."""
    def case(p):
        v = values(p)
        row = st.tuples(v, v, v)
        return st.tuples(st.just(p), v, v, v, st.lists(st.tuples(st.booleans(), row),
                                                       max_size=5))

    return st.sampled_from(FIELDS).flatmap(case)


@FUZZ
@given(borel_state_and_rows())
def test_a_borel_state_is_kept_by_its_plane_and_turned_air_otherwise(case):
    p, a, b, r, rows = case
    w = [r * a * b, -r * a * a, r * b * b]
    if p:
        w = [x % p for x in w]
    if not any(w):
        return
    state = (2, *w)
    assert _label(p, state) is MoldLabel.BOREL
    for in_plane, (y0, y1, y2) in rows:
        x = (y0, y1, y2)
        if in_plane:
            x = (w[1] * y2 - w[2] * y1, w[2] * y0 - w[0] * y2, w[0] * y1 - w[1] * y0)
        if p:
            x = tuple(t % p for t in x)
        t = w[0] * x[0] + w[1] * x[1] + w[2] * x[2]
        kept = not (t % p if p else t)
        assert kept or not in_plane
        assert _step(p, state, x) == (state if kept else _AIR)


def field_and_entries():
    """A field and up to six raw (a, b, c, d) entry tuples over it."""
    def entries(p):
        v = values(p)
        return st.lists(st.tuples(v, v, v, v), max_size=6)

    return st.sampled_from(FIELDS).flatmap(lambda p: st.tuples(st.just(p), entries(p)))


@FUZZ
@given(field_and_entries())
def test_classify_entries_is_the_label_of_the_folded_state(case):
    """Over Q _classify_entries takes each matrix integer-scaled, as a
    RepTuple stores it, while the fold runs on the Fraction rows
    themselves, so the check covers the scaling."""
    p, mats = case
    trace_free = [((a - d) % p, b % p, c % p) if p else (a - d, b, c) for a, b, c, d in mats]
    entries = mats if p else [_int_scaled(e)[0] for e in mats]
    assert _classify_entries(p, entries) is _label(p, fold(p, _SCALAR, trace_free))
