"""Polytope construction, measurement, and normal-form recognition."""

import random
from fractions import Fraction

import pytest
from conftest import (
    ehrhart_volume,
    exact_volume_multinomial,
    nondecreasing_vectors,
    scramble_polytope,
)

from toricbundles import (
    BundleTuple,
    DelzantPolytope,
    Facet,
    InvalidKappa,
    NotABundle,
    NotSimple,
    Unbounded,
    build,
    exact_volume,
    fiber_fingerprint,
    is_delzant,
    nominal_volume,
    recognize,
    transform_polytope,
    vertices,
)

SWEEP = [
    (tuple(a), s)
    for r in (1, 2, 3)
    for a in nondecreasing_vectors(r, 6)
    for s in (1, 2, 3)
]


def sweep_tuples():
    for a, s in SWEEP:
        base = sum(a) - s
        for kappa in (base + 1, base + 5):
            yield BundleTuple(len(a), s, a, kappa)


def facet_key(P):
    return sorted((f.conormal, f.constant) for f in P.facets)


def test_build_pinned_facets():
    P = build(BundleTuple(1, 1, (1,), 1))
    assert [(f.conormal, f.constant) for f in P.facets] == [
        ((-1, 0), 1),
        ((1, 0), 1),
        ((0, -1), 1),
        ((-1, 1), 1),
    ]
    P = build(BundleTuple(3, 2, (1, 4, 4), 8))
    assert len(P.facets) == 7
    assert P.facets[-1].conormal == (-1, -4, -4, 1, 1)
    square = build(BundleTuple(1, 1, (0,), 1))
    assert sorted(v.point for v in vertices(square)) == [
        (-1, -1),
        (-1, 1),
        (1, -1),
        (1, 1),
    ]


def test_build_rejects_degenerate_kappa():
    with pytest.raises(InvalidKappa):
        BundleTuple(3, 2, (1, 4, 4), 7)
    with pytest.raises(InvalidKappa):
        BundleTuple(1, 1, (3,), 2)
    BundleTuple(1, 1, (3,), Fraction(9, 4))


def test_vertices_pinned():
    P = build(BundleTuple(1, 1, (1,), 1))
    assert [v.point for v in vertices(P)] == [(-1, -1), (-1, 0), (1, -1), (1, 2)]
    P = build(BundleTuple(2, 2, (1, 2), 2))
    assert len(vertices(P)) == 9


def test_vertices_unbounded_and_not_simple():
    with pytest.raises(Unbounded):
        vertices(
            DelzantPolytope(2, (Facet((-1, 0), 1), Facet((0, -1), 1), Facet((1, 0), 1)))
        )
    with pytest.raises(Unbounded):
        vertices(DelzantPolytope(2, (Facet((1, 0), 1), Facet((-1, 0), 1))))
    # square with a diagonal facet through a corner: 3 facets meet at (1, 1)
    with pytest.raises(NotSimple):
        vertices(
            DelzantPolytope(
                2,
                (
                    Facet((-1, 0), 1),
                    Facet((1, 0), 1),
                    Facet((0, -1), 1),
                    Facet((0, 1), 1),
                    Facet((1, 1), 2),
                ),
            )
        )


def test_vertices_empty_polytope():
    P = DelzantPolytope(2, (Facet((1, 0), -2), Facet((-1, 0), 1), Facet((0, 1), 1), Facet((0, -1), 1)))
    assert vertices(P) == []
    assert not is_delzant(P)


def test_is_delzant_diagnostics():
    rep = is_delzant(
        DelzantPolytope(
            2,
            (Facet((-2, 0), 2), Facet((1, 0), 1), Facet((0, -1), 1), Facet((0, 1), 1)),
        )
    )
    assert not rep and "primitive" in rep.reason
    # triangle with vertices (0,0), (2,0), (0,1): the two facets meeting at
    # (0,1) have determinant -2
    rep = is_delzant(
        DelzantPolytope(2, (Facet((0, -1), 0), Facet((-1, 0), 0), Facet((1, 2), 2)))
    )
    assert not rep and "determinant" in rep.reason


def test_sweep_built_polytopes_are_delzant():
    for t in sweep_tuples():
        P = build(t)
        assert is_delzant(P), (t, is_delzant(P).reason)
        assert len(vertices(P)) == (t.r + 1) * (t.s + 1)


def test_exact_volume_pinned():
    assert exact_volume(BundleTuple(1, 1, (1,), 1)) == 4
    assert exact_volume(BundleTuple(1, 2, (1,), 1)) == Fraction(28, 3)
    assert exact_volume(BundleTuple(2, 2, (0, 0), 1)) == Fraction(81, 4)


def test_nominal_volume_pinned():
    assert nominal_volume(1, 1, 1) == 4
    assert nominal_volume(2, 2, 1) == Fraction(81, 4)
    assert nominal_volume(1, 2, 1) == 9


def test_volume_against_ehrhart_oracle():
    for t in (
        BundleTuple(1, 1, (1,), 1),
        BundleTuple(1, 1, (0,), 3),
        BundleTuple(1, 2, (1,), 1),
        BundleTuple(2, 1, (0, 2), 2),
        BundleTuple(1, 2, (2,), 2),
        BundleTuple(3, 1, (1, 1, 2), 4),
    ):
        assert exact_volume(t) == ehrhart_volume(build(t))


def test_closed_form_volume_matches_multinomial_oracle():
    rng = random.Random(12)
    cases = list(sweep_tuples())
    for _ in range(500):
        r, s = rng.randint(1, 4), rng.randint(1, 5)
        a = tuple(sorted(rng.randint(0, 6) for _ in range(r)))
        kappa = sum(a) - s + Fraction(rng.randint(1, 60), rng.randint(1, 7))
        cases.append(BundleTuple(r, s, a, kappa))
    for t in cases:
        assert exact_volume(t) == exact_volume_multinomial(t), t


def test_volume_properties_on_sweep():
    for t in sweep_tuples():
        ev = exact_volume(t)
        nv = nominal_volume(t.r, t.s, t.kappa)
        if t.s == 1 or not any(t.a):
            assert ev == nv, t
        else:
            assert ev > nv, t
        bumped = BundleTuple(t.r, t.s, t.a, t.kappa + 1)
        assert exact_volume(bumped) > ev


def test_volume_gap_for_twisted_higher_base():
    t = BundleTuple(1, 2, (1,), 1)
    assert exact_volume(t) == Fraction(28, 3)
    assert nominal_volume(1, 2, 1) == 9
    assert exact_volume(t) != nominal_volume(1, 2, 1)


def test_fiber_fingerprint_pinned():
    assert fiber_fingerprint(BundleTuple(1, 1, (1,), 1)) == [1, 3]
    assert fiber_fingerprint(BundleTuple(3, 2, (1, 4, 4), 8)) == [1, 5, 17, 17]
    assert fiber_fingerprint(BundleTuple(2, 2, (0, 0), 5)) == [7, 7, 7]
    assert fiber_fingerprint(BundleTuple(2, 1, (0, 0), Fraction(5, 2))) == [
        Fraction(7, 2)
    ] * 3


def test_fiber_fingerprint_injective_on_sweep():
    seen = {}
    for t in sweep_tuples():
        key = (t.r, t.s, tuple(fiber_fingerprint(t)))
        assert key not in seen or seen[key] == (t.a, t.kappa), (t, seen[key])
        seen[key] = (t.a, t.kappa)


def test_recognize_round_trip_plain():
    for t in sweep_tuples():
        forms = recognize(build(t))
        tuples = [f.bundle for f in forms]
        assert t in tuples, t
        if any(t.a) or t.r == t.s:
            assert len(forms) == 1, (t, tuples)
        else:
            assert len(forms) == 2, (t, tuples)
            other = [f.bundle for f in forms if f.bundle != t][0]
            assert (other.r, other.s) == (t.s, t.r)
            assert other.a == (0,) * t.s
            assert other.kappa == Fraction(
                (t.s + 1) * (t.r + 1), t.kappa + t.s
            ) - t.r


def test_recognize_round_trip_scrambled():
    rng = random.Random(4711)
    for t in sweep_tuples():
        P = scramble_polytope(build(t), rng)
        forms = recognize(P)
        assert t in [f.bundle for f in forms], t
        # the returned affine map really carries the input onto the normal form
        for f in forms:
            image = transform_polytope(P, f.matrix, f.translation, f.scale)
            assert facet_key(image) == facet_key(build(f.bundle))


def test_recognize_rejects_non_bundles():
    simplex = DelzantPolytope(
        3,
        (
            Facet((-1, 0, 0), 1),
            Facet((0, -1, 0), 1),
            Facet((0, 0, -1), 1),
            Facet((1, 1, 1), 1),
        ),
    )
    with pytest.raises(NotABundle):
        recognize(simplex)
    # right facet count, but a vertex fails the lattice-basis condition
    skew = DelzantPolytope(
        2,
        (
            Facet((-1, 0), 1),
            Facet((1, 0), 1),
            Facet((0, -1), 1),
            Facet((1, 2), 4),
        ),
    )
    with pytest.raises(NotABundle):
        recognize(skew)


def test_transform_facets_and_scale():
    t = BundleTuple(2, 1, (1, 2), 3)
    P = build(t)
    u = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    w = (1, Fraction(1, 2), 0)
    Q = transform_polytope(P, u, w)
    # the inverse map y -> u^{-1} y - u^{-1} w carries the image back
    uinv = ((1, -1, 0), (0, 1, 0), (0, 0, 1))
    winv = (-Fraction(1, 2), -Fraction(1, 2), 0)
    assert facet_key(transform_polytope(Q, uinv, winv)) == facet_key(P)
    # doubling constants is the image under scale 2 with no rotation
    doubled = transform_polytope(P, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), (0, 0, 0), 2)
    assert [f.constant for f in doubled.facets] == [2 * f.constant for f in P.facets]
    with pytest.raises(ValueError):
        transform_polytope(P, u, w, 0)
    with pytest.raises(ValueError):
        transform_polytope(P, ((2, 0, 0), (0, 1, 0), (0, 0, 1)), (0, 0, 0))


def test_polytope_json_round_trip():
    for t in (BundleTuple(1, 1, (1,), 1), BundleTuple(2, 2, (0, 2), Fraction(7, 3))):
        P = build(t)
        again = DelzantPolytope.from_json_obj(P.to_json_obj())
        assert again == P
    with pytest.raises(ValueError):
        DelzantPolytope.from_json_obj({"dim": 2})
    with pytest.raises(ValueError):
        DelzantPolytope.from_json_obj(
            {"dim": 2, "facets": [{"conormal": [1, "x"], "constant": "1"}]}
        )
