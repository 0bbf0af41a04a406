"""Fraction-free elimination and the polytope layer against minor-based oracles."""

import random
from fractions import Fraction

import pytest
from conftest import (
    det_bareiss,
    inverse_adjugate,
    is_delzant_by_minors,
    kernel_vector_minors,
    random_unimodular,
    recognize_by_bipartitions,
    scramble_polytope,
    solve_cramer,
    vertices_by_cramer,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from toricbundles import (
    BundleTuple,
    DelzantPolytope,
    Facet,
    ToricError,
    build,
    is_delzant,
    recognize,
    transform_polytope,
    vertices,
)
from toricbundles import _linalg as la


@st.composite
def square_matrices(draw, max_dim=8):
    """n x n integer matrices; half of them products B C with inner dimension
    k <= n, so that singular and rank-deficient ones are common."""
    n = draw(st.integers(1, max_dim))
    entry = st.integers(-2, 2)
    if draw(st.booleans()):
        return [tuple(draw(entry) for _ in range(n)) for _ in range(n)]
    k = draw(st.integers(0, n))
    B = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=n, max_size=n))
    C = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    return [tuple(sum(B[i][t] * C[t][j] for t in range(k)) for j in range(n)) for i in range(n)]


@settings(max_examples=150, deadline=None)
@given(square_matrices(), st.data())
def test_gauss_jordan_solve_matches_cramer(A, data):
    n = len(A)
    rhs = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    d, y = la.gauss_jordan(A, [(x,) for x in rhs])
    assert d == det_bareiss(A)
    want = solve_cramer(A, rhs)
    if d == 0:
        assert y is None and want is None
    else:
        assert tuple(Fraction(row[0], d) for row in y) == want


@settings(max_examples=150, deadline=None)
@given(square_matrices())
def test_adjugate_columns_are_kernel_minors(A):
    n = len(A)
    d, adj = la.gauss_jordan(A, la.identity(n))
    if d == 0:
        assert adj is None
        return
    for k in range(n):
        want = kernel_vector_minors(A[:k] + A[k + 1 :], n)
        assert tuple((-1) ** k * row[k] for row in adj) == want


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_inverse_unimodular_matches_adjugate(n, seed):
    M = random_unimodular(random.Random(seed), n)
    inv = la.inverse_unimodular(M)
    assert inv == inverse_adjugate(M)
    assert tuple(la.mat_vec(inv, col) for col in la.transpose(M)) == la.identity(n)


@settings(max_examples=100, deadline=None)
@given(square_matrices())
def test_inverse_unimodular_rejects_other_determinants(A):
    d = det_bareiss(A)
    if d in (1, -1):
        assert la.inverse_unimodular(A) == inverse_adjugate(A)
        return
    with pytest.raises(ValueError) as new:
        la.inverse_unimodular(A)
    with pytest.raises(ValueError) as old:
        inverse_adjugate(A)
    assert str(new.value) == str(old.value) == f"matrix is not unimodular (determinant {d})"


def outcome(f, P):
    """The result of f(P), or the type and text of the domain error it raised."""
    try:
        return f(P)
    except ToricError as exc:
        return type(exc).__name__, str(exc)


def assert_same_as_oracles(P):
    assert outcome(vertices, P) == outcome(vertices_by_cramer, P)
    rep = outcome(is_delzant, P)
    want = outcome(is_delzant_by_minors, P)
    assert (rep if isinstance(rep, tuple) else (rep.ok, rep.reason)) == want
    got = outcome(recognize, P)
    want = outcome(recognize_by_bipartitions, P)
    if isinstance(got, list):
        got = [(f.bundle, f.matrix, f.translation, f.scale) for f in got]
        want = [(f.bundle, f.matrix, f.translation, f.scale) for f in want]
    assert got == want


SQUARE = ((-1, 0), (1, 0), (0, -1), (0, 1))

SPECIAL = [
    # square with a diagonal facet through a corner: not simple
    DelzantPolytope(2, tuple(Facet(c, 1) for c in SQUARE) + (Facet((1, 1), 2),)),
    # unbounded: a strip, a quadrant cut once, too few facets
    DelzantPolytope(2, (Facet((1, 0), 1), Facet((-1, 0), 1))),
    DelzantPolytope(2, (Facet((-1, 0), 1), Facet((0, -1), 1), Facet((1, 0), 1))),
    DelzantPolytope(3, (Facet((1, 0, 0), 1), Facet((0, 1, 0), 1))),
    DelzantPolytope(
        3, (Facet((-1, 0, 0), 1), Facet((0, -1, 0), 1), Facet((1, 1, 0), 1), Facet((0, 0, 1), 2))
    ),
    # empty
    DelzantPolytope(2, (Facet((1, 0), -2),) + tuple(Facet(c, 1) for c in SQUARE[:1] + SQUARE[2:])),
    # not Delzant: a non-primitive conormal, a skew vertex cone
    DelzantPolytope(2, (Facet((-2, 0), 2), Facet((1, 0), 1), Facet((0, -1), 1), Facet((0, 1), 1))),
    DelzantPolytope(2, (Facet((-1, 0), 1), Facet((1, 0), 1), Facet((0, -1), 1), Facet((1, 2), 4))),
    # a simplex (no bipartition) and a rescaled square
    DelzantPolytope(
        3, tuple(Facet(c, 1) for c in ((-1, 0, 0), (0, -1, 0), (0, 0, -1), (1, 1, 1)))
    ),
    DelzantPolytope(2, tuple(Facet(c, Fraction(3, 2)) for c in SQUARE)),
    # a triangle with a redundant facet: Delzant, dim + 2 facets, one group of 1
    DelzantPolytope(
        2, (Facet((-1, 0), 1), Facet((0, -1), 1), Facet((1, 1), 1), Facet((1, 0), 5))
    ),
]


@pytest.mark.parametrize("P", SPECIAL, ids=range(len(SPECIAL)))
def test_polytope_layer_matches_oracles_on_special_inputs(P):
    assert_same_as_oracles(P)


def bundle_tuples():
    for r, s in ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (3, 2), (2, 3)):
        for a in ((0,) * r, (1,) * r, tuple(range(r)), tuple(range(1, 2 * r, 2))):
            for dk in (1, Fraction(7, 2)):
                yield BundleTuple(r, s, a, sum(a) - s + dk)


def test_polytope_layer_matches_oracles_on_bundles():
    rng = random.Random(2024)
    for t in bundle_tuples():
        P = build(t)
        assert_same_as_oracles(P)
        Q = scramble_polytope(P, rng)
        assert_same_as_oracles(Q)
        rescaled = transform_polytope(Q, la.identity(Q.dim), (0,) * Q.dim, Fraction(2, 3))
        assert_same_as_oracles(rescaled)
        facets = list(Q.facets)
        rng.shuffle(facets)
        assert_same_as_oracles(DelzantPolytope(Q.dim, tuple(facets)))
        f = facets[0]
        facets[0] = Facet(tuple(2 * x for x in f.conormal), 2 * f.constant)
        assert_same_as_oracles(DelzantPolytope(Q.dim, tuple(facets)))
        assert_same_as_oracles(DelzantPolytope(Q.dim, tuple(facets[1:])))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_polytope_layer_matches_oracles_on_random_facets(data):
    n = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(1, n + 3))
    conormal = st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any)
    constant = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    facet = st.builds(Facet, conormal.map(tuple), constant)
    facets = data.draw(st.lists(facet, min_size=m, max_size=m))
    assert_same_as_oracles(DelzantPolytope(n, tuple(facets)))


def test_vertices_returns_a_fresh_list():
    P = build(BundleTuple(2, 2, (1, 2), 2))
    first = vertices(P)
    want = list(first)
    first.clear()
    assert vertices(P) == want
    assert vertices(P) is not vertices(P)


def test_recognize_scrambled_dim_16():
    t = BundleTuple(8, 8, tuple(range(1, 9)), 100)
    Q = scramble_polytope(build(t), random.Random(16))
    forms = recognize(Q)
    assert [f.bundle for f in forms] == [t]
    image = transform_polytope(Q, forms[0].matrix, forms[0].translation, forms[0].scale)
    assert sorted((f.conormal, f.constant) for f in image.facets) == sorted(
        (f.conormal, f.constant) for f in build(t).facets
    )
