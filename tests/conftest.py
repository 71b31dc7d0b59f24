"""Shared helpers: field fixtures, matrix enumeration and brute-force oracles."""

import math
import random
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product

import pytest

from moldkit import (
    FieldSpec,
    Mat2,
    MoldLabel,
    RepTuple,
    Word,
    conjugate,
    linalg,
    mold,
    span_closure,
)
from moldkit.canon import CharDeriv
from moldkit.errors import ScalarInput
from moldkit.census import (
    StratumCounts,
    _class_fibres,
    _orbit_pass,
    _space_size,
    classify_packed,
    field_tables,
)

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)
F7 = FieldSpec.prime(7)
F65521 = FieldSpec.prime(65521)


def all_mats(spec):
    """All of M_2(F_p), in lexicographic entry order."""
    p = spec.p
    return [Mat2.from_rows([[a, b], [c, d]], spec)
            for a, b, c, d in product(range(p), repeat=4)]


def nonscalar_mats(spec):
    return [M for M in all_mats(spec) if not M.is_scalar]


def invertible_mats(spec):
    return [M for M in all_mats(spec) if M.det]


def rand_mat(rng, spec, span=9):
    """Random matrix; rational entries use small random fractions."""
    if spec.p is None:
        def e():
            return Fraction(rng.randint(-span, span), rng.randint(1, 5))
    else:
        def e():
            return rng.randrange(spec.p)
    return Mat2.from_rows([[e(), e()], [e(), e()]], spec)


def rand_invertible(rng, spec, span=9):
    while True:
        M = rand_mat(rng, spec, span)
        if M.det:
            return M


def stratum_samples(rng, spec, rank, mat=None):
    """Tuples built to reach every label outside characteristic 2: random,
    upper-triangular, x I + y X, x I + y N with N nilpotent, and scalar.
    mat() draws the random matrices, rand_mat(rng, spec) by default."""
    mat = mat or (lambda: rand_mat(rng, spec))

    def scalar():
        return mat().a11

    I = Mat2.identity(spec)
    X = mat()
    P = mat()
    while not P.det:
        P = mat()
    N = P.inverse() * Mat2.from_rows([[0, 1], [0, 0]], spec) * P
    kinds = [
        mat,
        lambda: Mat2(scalar(), scalar(), spec.zero(), scalar()),
        lambda: I.scale(scalar()) + X.scale(scalar()),
        lambda: I.scale(scalar()) + N.scale(scalar()),
        lambda: I.scale(scalar()),
    ]
    return [RepTuple(tuple(make() for _ in range(rank))) for make in kinds]


def det4_oracle(rows):
    """Permutation-sum determinant of a 4x4 matrix of field elements."""
    spec = rows[0][0].spec
    acc = spec.zero()
    for perm in permutations(range(4)):
        sign = 1
        seen = list(perm)
        for i in range(4):
            for j in range(i + 1, 4):
                if seen[i] > seen[j]:
                    sign = -sign
        term = spec.one()
        for i in range(4):
            term = term * rows[i][perm[i]]
        acc = acc + (term if sign == 1 else -term)
    return acc


def rref_reference(rows, p=None):
    """Normalise-first Gauss-Jordan, on residues over F_p or on Fractions
    over Q (p None): (nonzero rows, pivot columns), the reference the
    fraction-free linalg.rref must equal exactly."""
    def reduce(xs):
        return [x % p for x in xs] if p else xs

    work = [list(r) if p else [Fraction(x) for x in r] for r in rows]
    pivots, r = [], 0
    for c in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        scale = pow(work[r][c], -1, p) if p else 1 / work[r][c]
        work[r] = reduce([x * scale for x in work[r]])
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = reduce([x - f * y for x, y in zip(work[i], work[r])])
        pivots.append(c)
        r += 1
    return [tuple(row) for row in work[:r]], pivots


def nullspace_reference(rows, ncols, p=None):
    """Nullspace basis read off rref_reference, one vector per free column
    in increasing order."""
    red, pivots = rref_reference(rows, p)
    zero, one = (0, 1) if p else (Fraction(0), Fraction(1))
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [zero] * ncols
        v[fc] = one
        for row, c in zip(red, pivots):
            v[c] = -row[fc] % p if p else -row[fc]
        basis.append(tuple(v))
    return basis


def intertwiner_reference(t1, t2):
    """Basis of {P : t1_i P = P t2_i for all i} as Mat2s, from the
    nullspace_reference of the 4m x 4 system whose rows are the entries of
    A_i P - P B_i as linear forms in (p11, p12, p21, p22), on the raw values
    of any pair, screened or not."""
    spec = t1.spec
    r = spec.reduce
    rows = []
    for A, B in zip(t1.gens, t2.gens):
        a, b, c, d, e, f, g, h = A.values() + B.values()
        rows += [(r(a - e), r(-g), b, 0), (r(-f), r(a - h), 0, b),
                 (c, 0, r(d - e), r(-g)), (0, c, r(-f), r(d - h))]
    return [Mat2.from_rows([v[:2], v[2:]], spec) for v in nullspace_reference(rows, 4, spec.p)]


def rank(rows, p):
    """Rank of a list of raw-value rows over F_p (Q when p is None)."""
    return len(linalg.rref(rows, p)[0])


def in_span(basis_rref, pivots, v, p):
    """Whether v lies in the row space of an already-reduced basis."""
    residue = list(v)
    for row, c in zip(basis_rref, pivots):
        if f := residue[c]:
            residue = [(x - f * y) % p if p else x - f * y for x, y in zip(residue, row)]
    return not any(residue)


def span_closure_reference(t):
    """The closure as a fixpoint of span + span*span, from {I} and the
    generators, in Mat2 products and rref_reference: each round boxes the
    basis, multiplies every ordered pair and reduces the old rows with the
    products, until a round adds no row or the dimension is 4.  The
    reference mold.span_closure, a walk over words on integer rows, must
    equal exactly."""
    spec = t.spec

    def box(row):
        return Mat2.from_rows([row[:2], row[2:]], spec)

    rows, _ = rref_reference([Mat2.identity(spec).values()] + [g.values() for g in t.gens],
                             spec.p)
    while len(rows) < 4:
        mats = [box(row) for row in rows]
        new_rows, _ = rref_reference(rows + [(x * y).values() for x in mats for y in mats],
                                     spec.p)
        if len(new_rows) == len(rows):
            break
        rows = new_rows
    return mold.SubalgebraBasis(tuple(box(row) for row in rows))


def closure_label(t):
    """Six-way label read off the span closure: dim 4 air, 3 borel, 1
    scalar; dim 2 is semi-simple when some basis element has m != 0, else
    unipotent (split by characteristic).  Independent of the discriminants."""
    closure = span_closure(t)
    if closure.dim == 4:
        return MoldLabel.AIR
    if closure.dim == 3:
        return MoldLabel.BOREL
    if closure.dim == 1:
        return MoldLabel.SCALAR
    if any(X.m for X in closure.basis):
        return MoldLabel.SEMISIMPLE
    if t.spec.characteristic() == 2:
        return MoldLabel.UNIPOTENT_F2
    return MoldLabel.UNIPOTENT


def word_images(t, max_len):
    """Images of all positive words of length <= max_len (including I)."""
    images = [Mat2.identity(t.spec)]
    frontier = [Mat2.identity(t.spec)]
    for _ in range(max_len):
        frontier = [M * g for M in frontier for g in t.gens]
        images.extend(frontier)
    return images


def span_coords(M, X):
    """(x, y) with M = x I + y X for a non-scalar X, or None when M is
    outside span{I, X}, in FieldElement arithmetic: y from the first
    nonzero of X's a12, a21 and a11 - a22, then x = M_11 - y X_11."""
    a, b, c, d = X.entries()
    m11, m12, m21, m22 = M.entries()
    for u, v in ((b, m12), (c, m21), (a - d, m11 - m22)):
        if u:
            break
    else:
        raise ScalarInput("span{I, X} needs a non-scalar X")
    y = v / u
    x = m11 - y * a
    if (y * b, y * c, x + y * d) != (m12, m21, m22):
        return None
    return x, y


def chart_reference(chart, w):
    """A chart's values on w read from the word's evaluated image, apart
    from canon's fold: ((r, d), r I + d eta) for a CharDeriv, from the
    coordinates of the image in span{I, A_alpha}, and ((a, b, d),
    a I + b Z) for an ABChart, from its coordinates in the root chart's
    span{I, Z} carried by the chart's constants c and k."""
    spec = chart.tup.spec
    M = chart.tup.evaluate(w)
    I = Mat2.identity(spec)
    if isinstance(chart, CharDeriv):
        _, d = span_coords(M, chart.tup.gens[chart.alpha_index - 1])
        r = M.tr / spec.element(2)
        return (r, d), I.scale(r) + chart.eta_mat.scale(d)
    a, b = span_coords(M, (chart.root or chart).Z)
    if chart.root is not None:
        a, b = a + chart.c * b, chart.k * b
    return (a, b, M.det), I.scale(a) + chart.Z.scale(b)


def signed_words(rank, max_len):
    """All words of length <= max_len in the letters +-1, ..., +-rank."""
    letters = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    return [Word(w) for n in range(max_len + 1) for w in product(letters, repeat=n)]


def increasing_subsequences(n):
    """All nonempty increasing subsequences of (1..n), lexicographically:
    the key order of the moduli vector, built here from combinations and
    a sort."""
    subs = [c for k in range(1, n + 1) for c in combinations(range(1, n + 1), k)]
    return sorted(subs)


def moduli_reference(t):
    """(dets, traces) of a tuple as invariant_vector keys them, from
    Mat2.__mul__, Mat2.inverse and .tr alone: the generators, followed by
    their inverses in group mode, det A = (tr(A)^2 - tr(A A)) / 2 (outside
    characteristic 2), and each increasing product its prefix times one
    more matrix."""
    mats = list(t.gens) + ([A.inverse() for A in t.gens] if t.mode == "group" else [])
    dets = tuple((A.tr * A.tr - (A * A).tr) / 2 for A in mats)
    products = {}
    for key in increasing_subsequences(len(mats)):
        M = mats[key[-1] - 1]
        products[key] = products[key[:-1]] * M if len(key) > 1 else M
    return dets, tuple((key, M.tr) for key, M in products.items())


def invertible_in_span_reference(basis):
    """The first of the basis vectors, then their pairwise sums, with det
    != 0, in plain field arithmetic on Mat2s; None if there is none.  The
    candidate order of canon._invertible_in_span outside tiny fields."""
    candidates = list(basis) + [A + B for A, B in combinations(basis, 2)]
    return next((M for M in candidates if M.det), None)


@cache
def packed_entries(q):
    """The raw entries (a, b, c, d) of M_2(F_q), indexed by the packed
    index ((a q + b) q + c) q + d."""
    return list(product(range(q), repeat=4))


def pack(q, entries):
    """Packed index of raw entries (a, b, c, d) over F_q."""
    a, b, c, d = entries
    return ((a * q + b) * q + c) * q + d


def space_indices(q, mode):
    """Packed indices of the matrices a census key's tuples draw from."""
    if mode == "group":
        return [i for i, (a, b, c, d) in enumerate(packed_entries(q)) if (a * d - b * c) % q]
    return range(q**4)


def class_of(q, idx):
    """Class index (x q + y) q + z of the packed matrix idx, from its
    trace-free coordinates (a - d, b, c)."""
    a, b, c, d = packed_entries(q)[idx]
    return ((a - d) % q * q + b) * q + c


def classify_indices(q, idxs):
    """Mold label of a tuple of packed indices, through mold's kernel."""
    entries = packed_entries(q)
    return mold._classify_entries(q, [entries[i] for i in idxs])


def lift_tuple(q, idxs, mode="monoid"):
    """The RepTuple of a tuple of packed indices over F_q."""
    spec, entries = FieldSpec.prime(q), packed_entries(q)
    return RepTuple(tuple(Mat2.from_rows([entries[i][:2], entries[i][2:]], spec) for i in idxs),
                    mode)


def stratum_reference(key):
    """Points per label of a census key, one classifier call per tuple of
    the space."""
    points = {label: 0 for label in MoldLabel}
    for idxs in product(space_indices(key.q, key.mode), repeat=key.m):
        points[classify_indices(key.q, idxs)] += 1
    return points


@cache
def conjugation_perms(q):
    """Conjugation permutation of the packed index space of M_2(F_q), one
    per element g of PGL_2(F_q): M -> g^-1 M g = adj(g) M g / det g, for g
    over the invertible matrices whose first nonzero entry (a, or b when
    a = 0) is 1, in index order.  Equal to pgl_perms_reference(q)."""
    entries = packed_entries(q)
    perms = []
    for a, b, c, d in entries:
        if (a or b) != 1 or not (a * d - b * c) % q:
            continue
        s = pow(a * d - b * c, -1, q)
        # Row vectors (u, v) times g, packed as u q + v.  The rows of
        # adj(g) M / det g are s (d row_1 - b row_2) and s (a row_2 - c row_1).
        times_g = [(u * a + v * c) % q * q + (u * b + v * d) % q
                   for u in range(q) for v in range(q)]
        perms.append([times_g[(d * x - b * z) * s % q * q + (d * y - b * w) * s % q] * q * q
                      + times_g[(a * z - c * x) * s % q * q + (a * w - c * y) * s % q]
                      for x, y, z, w in entries])
    return perms


def least_image(perms, idxs):
    """The least image of a packed tuple under the permutations: the
    canonical member of its conjugation orbit."""
    return min(tuple(perm[i] for i in idxs) for perm in perms)


def orbit_reference(key):
    """(points, orbits, orbit_size_counts, semi-simple representatives) of a
    census key, partitioning the space by each tuple's least image under
    every conjugation permutation; representatives in increasing order."""
    perms = conjugation_perms(key.q)
    sizes = {}
    for idxs in product(space_indices(key.q, key.mode), repeat=key.m):
        least = least_image(perms, idxs)
        sizes[least] = sizes.get(least, 0) + 1
    points = {label: 0 for label in MoldLabel}
    orbits = {label: 0 for label in MoldLabel}
    size_counts = {label: {} for label in MoldLabel}
    semisimple = []
    for rep in sorted(sizes):
        label = classify_indices(key.q, rep)
        points[label] += sizes[rep]
        orbits[label] += 1
        size_counts[label][sizes[rep]] = size_counts[label].get(sizes[rep], 0) + 1
        if label is MoldLabel.SEMISIMPLE:
            semisimple.append(rep)
    return points, orbits, size_counts, semisimple


def class_orbits_reference(q, m):
    """The PGL_2(F_q) orbits of m-tuples of trace-free classes, each as the
    set of its class tuples.  A class is the packed index of its member
    with d = 0 (the matrix index with its d digit dropped), and the class of
    any matrix is that of its trace-free coordinates (a - d, b, c)."""
    perms = conjugation_perms(q)
    orbits = {}
    for tup in product(range(q**3), repeat=m):
        orbit = frozenset(tuple(class_of(q, perm[c * q]) for c in tup) for perm in perms)
        orbits[min(orbit)] = orbit
    return list(orbits.values())


def pgl_generators(q):
    """[[1, 1], [0, 1]], [[1, 0], [1, 1]] and diag(1, w), w the least
    generator of F_q^x: the transvections generate SL_2(F_q) and diag(1, w)
    reaches every determinant, so together they generate GL_2(F_q)."""
    spec = FieldSpec.prime(q)
    w = next(w for w in range(1, q) if len({pow(w, k, q) for k in range(q - 1)}) == q - 1)
    return [Mat2.from_rows(rows, spec)
            for rows in ([[1, 1], [0, 1]], [[1, 0], [1, 1]], [[1, 0], [0, w]])]


def projective_closure(q, generators):
    """The values of the elements of PGL_2(F_q) that products of the
    generators reach, each scaled so its first nonzero entry is 1."""
    def scaled(g):
        vals = g.values()
        s = pow(next(x for x in vals if x), -1, q)
        return tuple(x * s % q for x in vals)

    identity = Mat2.identity(FieldSpec.prime(q))
    seen, frontier = {scaled(identity)}, [identity]
    while frontier:
        g = frontier.pop()
        for gh in (g * h for h in generators):
            if (key := scaled(gh)) not in seen:
                seen.add(key)
                frontier.append(gh)
    return seen


def class_orbits_under(q, generators):
    """The orbits of the q^3 trace-free classes under conjugation
    (mat2.conjugate) by the group the generators generate, as frozensets
    of class indices (x q + y) q + z."""
    spec = FieldSpec.prime(q)
    members = [Mat2.from_rows([[x, y], [z, 0]], spec) for x, y, z in product(range(q), repeat=3)]

    def image(g, c):
        a, b, cc, d = conjugate(g, members[c]).values()
        return ((a - d) % q * q + b) * q + cc

    orbits, seen = set(), set()
    for c in range(q**3):
        if c in seen:
            continue
        orbit, frontier = {c}, [c]
        while frontier:
            x = frontier.pop()
            for g in generators:
                if (y := image(g, x)) not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        seen |= orbit
        orbits.add(frozenset(orbit))
    return orbits


def pgl_reference_elements(q):
    """The elements of PGL_2(F_q) as matrices: every invertible g scaled so
    its first nonzero entry is 1, de-duplicated and sorted by packed index."""
    spec = FieldSpec.prime(q)
    mats = all_mats(spec)
    index = {M.values(): i for i, M in enumerate(mats)}
    reps = set()
    for M in mats:
        if M.det:
            vals = M.values()
            s = pow(next(x for x in vals if x), -1, q)
            reps.add(index[tuple(x * s % q for x in vals)])
    return [mats[r] for r in sorted(reps)]


def pgl_perms_reference(q):
    """Conjugation permutations of the packed index space of M_2(F_q), one
    per element g of pgl_reference_elements(q), applied as
    mat2.conjugate(g, M) = g^-1 M g."""
    mats = all_mats(FieldSpec.prime(q))
    index = {M.values(): i for i, M in enumerate(mats)}
    return [[index[conjugate(g, M).values()] for M in mats] for g in pgl_reference_elements(q)]


def stratum_polynomials(q, m, mode):
    """{label: {orbit size: orbit count}} of the census of M_2(F_q)^m (GL_2
    in group mode) in closed form, from the unital subalgebras a tuple can
    generate: F_q; q(q+1)/2 split tori F_q x F_q; q(q-1)/2 non-split tori
    F_{q^2}; q + 1 dual-number algebras F_q[e]; q + 1 Borels; M_2 (air).

    A tuple lies in a subalgebra A iff every entry does: |A|^m tuples, or
    |A^x|^m in group mode.  Subtracting the proper subalgebras gives the
    tuples that generate A exactly.  PGL_2 moves each tuple in its
    stratum's orbit: free (q^3 - q) on air and borel; q(q+1) and q(q-1) on
    split and non-split tori, whose normalisers act through the swap of
    two eigenvalues; q^2 - 1 on F_q[e], where the Borel scales e; fixed on
    scalars.  Shares no code with the census."""
    def within(order, units):
        return (units if mode == "group" else order) ** m

    scalar = within(q, q - 1)
    split = within(q**2, (q - 1) ** 2) - scalar
    nonsplit = within(q**2, q**2 - 1) - scalar
    dual = within(q**2, q * (q - 1)) - scalar
    borel = within(q**3, q * (q - 1) ** 2) - q * split - dual - scalar
    pgl = q**3 - q
    air = (within(q**4, (q**2 - 1) * (q**2 - q)) - scalar - q * (q + 1) // 2 * split
           - q * (q - 1) // 2 * nonsplit - (q + 1) * dual - (q + 1) * borel)
    unipotent = MoldLabel.UNIPOTENT_F2 if q == 2 else MoldLabel.UNIPOTENT
    sizes = {label: {} for label in MoldLabel}
    sizes[MoldLabel.AIR][pgl] = air // pgl
    sizes[MoldLabel.BOREL][pgl] = borel // (q * (q - 1))
    sizes[MoldLabel.SEMISIMPLE][q * (q + 1)] = split // 2
    sizes[MoldLabel.SEMISIMPLE][q * (q - 1)] = nonsplit // 2
    sizes[unipotent][q * q - 1] = dual // (q - 1)
    sizes[MoldLabel.SCALAR][1] = scalar
    return {label: {s: c for s, c in by_size.items() if c} for label, by_size in sizes.items()}


def scaled_state(p, state):
    """A kernel state with its vector scaled so that the first nonzero
    entry is 1, or mold._AIR when it labels air: no later step or label
    tells such states apart."""
    if len(state) == 1:
        return state
    rank, v0, v1, v2 = state
    if rank == 2 and mold._label(p, state) is MoldLabel.AIR:
        return mold._AIR
    s = pow(v0 or v1 or v2, -1, p)
    return rank, v0 * s % p, v1 * s % p, v2 * s % p


def tail_weights_reference(p, rows, state, n, transitions):
    """census._tail_weights without lumping onto types, over scaled
    states: the summed weight per label, in MoldLabel order, of the scaled
    state stepped through n more weighted rows.  Each state's transition
    list is built into `transitions` once: one step per row, weights
    summed per next scaled state.  _AIR steps to itself, so air absorbs."""
    vector = {scaled_state(p, state): 1}
    for _ in range(n):
        nxt = {}
        for state, weight in vector.items():
            if state not in transitions:
                out = {}
                for row, w in rows:
                    to = scaled_state(p, mold._step(p, state, row))
                    out[to] = out.get(to, 0) + w
                transitions[state] = list(out.items())
            for to, w in transitions[state]:
                nxt[to] = nxt.get(to, 0) + weight * w
        vector = nxt
    counts = [0] * len(MoldLabel)
    for state, weight in vector.items():
        counts[list(MoldLabel).index(mold._label(p, state))] += weight
    return counts


def translates(T, classes, lams):
    """The raw entries (x + lambda_i, y, z, lambda_i) of one tuple per
    orbit among the tuples over a class tuple, from the d = 0 members
    (x, y, z, 0), in lexicographic order of lambda.  The rows of the
    class table that fix every class move those tuples by their mu
    images, a subspace V of F_q^m whose nonzero vectors lead at the pivots
    of its reduced echelon basis.  The product of lams is a union of
    cosets of V, so the lams at the pivots hold 0, and each coset meets
    the product in one vector that is 0 at every pivot, its least one."""
    q = T.p
    lams = list(lams)
    for mu in {tuple(row[c] for c in classes) for images, row in T.pgl_perms()
               if all(images[c] == c for c in classes)}:
        if any(mu):
            lams[next(j for j, t in enumerate(mu) if t)] = (0,)
    members = [T.classes[c] for c in classes]
    return [tuple(((x + t) % q, y, z, t) for (x, y, z, _), t in zip(members, lam))
            for lam in product(*lams)]


def semisimple_representatives(key, budget):
    """Counts of the orbit pass of a census key, and the raw entries of one
    tuple per semi-simple orbit, built from the pass's leaves in walk order
    by the coset restriction of translates."""
    counts, leaves = _orbit_pass(key, budget)
    T = field_tables(key.q)
    return counts, [mats for leaf in leaves for mats in translates(T, *leaf)]


def unpruned_orbit_pass(key):
    """The orbit pass without tail-weight subtrees: the same walk down
    the stabiliser chain, classifying every orbit of class tuples at its
    least member.  Returns the counts and the raw entries of one tuple per
    semi-simple orbit, in walk order."""
    q, m = key.q, key.m
    T = field_tables(q)
    fibres = _class_fibres(q, key.mode)
    live = [c for c, lams in enumerate(fibres) if lams]
    points = {label: 0 for label in MoldLabel}
    orbits = {label: 0 for label in MoldLabel}
    size_counts = {label: {} for label in MoldLabel}
    semisimple = []
    chain = [0] * (m + 1)
    stack = [(0, 0, 1, T.pgl_perms())]
    while stack:
        i, c, size, stabiliser = stack.pop()
        chain[i] = c
        if i < m:
            seen, frames = set(), []
            for c in live:
                if c not in seen:
                    orbit = {images[c] for images, _ in stabiliser}
                    seen |= orbit
                    frames.append((i + 1, c, size * len(orbit),
                                   [g for g in stabiliser if g[0][c] == c]))
            stack += reversed(frames)
            continue
        classes = tuple(chain[1:])
        k = len({tuple(mu[c] for c in classes) for _, mu in stabiliser})
        lams = [fibres[c] for c in classes]
        weight = math.prod(map(len, lams))
        label = classify_packed(T, classes)
        points[label] += size * weight
        orbits[label] += weight // k
        by_size = size_counts[label]
        by_size[size * k] = by_size.get(size * k, 0) + weight // k
        if label is MoldLabel.SEMISIMPLE:
            semisimple.extend(translates(T, classes, lams))
    counts = StratumCounts(key=key, points=points, total=_space_size(key),
                           orbits=orbits, orbit_size_counts=size_counts)
    return counts, semisimple


@pytest.fixture
def rng():
    return random.Random(20260810)
