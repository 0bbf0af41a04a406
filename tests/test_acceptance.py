"""Acceptance suite: one test per headline guarantee of the engine.

Each test prints a single summary line; `pytest -v` shows one pass/fail line
per criterion.
"""

import itertools
import random
from fractions import Fraction

import pytest
from conftest import class_key, class_table, nondecreasing_vectors, scramble_polytope

from toricbundles import (
    BundleTuple,
    ZeroVector,
    build,
    c_bounds,
    census,
    count_at,
    count_at_infinity,
    deformation_class,
    enumerate_b,
    exact_volume,
    find_shift,
    generate_family,
    hirzebruch_equiv,
    is_delzant,
    is_fano,
    lift_class,
    move_path,
    nominal_volume,
    recognize,
    verify_step_structure,
)
from toricbundles.errors import ParityError

# the shared sweep: base dimension >= 2, small fibers, small total twist
SWEEP_S = (2, 3, 4)
SWEEP_R = (1, 2, 3, 4)
SWEEP_SIGMA1 = 8


def sweep_vectors(r):
    return nondecreasing_vectors(r, SWEEP_SIGMA1, include_zero=False)


def test_c01_reference_class_and_counts():
    res = census((1, 4, 4), 2)
    assert res.vectors == ((1, 4, 4), (2, 2, 5))
    assert [(bp.kappa, bp.new_members) for bp in res.breakpoints] == [
        (7, ((1, 4, 4), (2, 2, 5)))
    ]
    assert res.count(6) == 0
    assert res.count(7) == 0
    assert res.count(Fraction(15, 2)) == 2
    assert res.count(100) == 2
    print("criterion 01 PASS: census of (1,4,4) over s=2 matches exactly")


def test_c02_degree_two_classes_for_r_3_4_5():
    for r in (3, 4, 5):
        a = (0,) * (r - 1) + (2,)
        partner = tuple(sorted((1,) * (r - 3) + (2, 2, 2)))
        res = census(a, 2)
        assert res.vectors == (a, partner), (r, res.vectors)
        assert [bp.kappa for bp in res.breakpoints] == [0, r + 1]
        assert res.count(0) == 0
        assert res.count(Fraction(1, 2)) == 1
        assert res.count(r + 1) == 1
        assert res.count(r + 2) == 2
    print("criterion 02 PASS: degree-two classes over s=2 for r=3,4,5")


def test_c03_fano_squares_have_one_structure():
    for a in ((0, 1), (1, 1), (0, 2)):
        assert is_fano(a, 2)
        assert count_at_infinity(a, 2) == 1, a
    with pytest.raises(ZeroVector):
        count_at_infinity((0, 0), 2)
    print("criterion 03 PASS: r=s=2 Fano vectors have a unique toric structure")


def test_c04_zero_one_vectors_are_rigid():
    checked = 0
    for r in range(2, 7):
        for s in range(2, r + 1):
            for k in range(1, r + 1):
                a = (0,) * (r - k) + (1,) * k
                assert count_at_infinity(a, s) == 1, (a, s)
                checked += 1
    assert checked == 70
    print("criterion 04 PASS: 0/1-twist bundles are rigid for 2 <= s <= r <= 6")


def test_c05_wide_base_singletons():
    for r in (1, 2, 3):
        for s in range(r + 1, 5):
            for a in sweep_vectors(r):
                res = census(a, s)
                assert res.vectors == (a,), (a, s)
                k_a = sum(a) - s
                assert res.count(k_a) == 0
                assert res.count(Fraction(2 * k_a + 1, 2)) == 1
                assert res.count(k_a + 1000) == 1
    print("criterion 05 PASS: r < s <= 4 classes are singletons, N = 1 past K_a")


def test_c06_fano_uniqueness_at_monotone_kappa():
    for r in range(1, 5):
        for s in range(1, 5):
            for a in nondecreasing_vectors(r, s, include_zero=False):
                if s == 1:
                    assert count_at(a, s, 1, sigma1_cap=2) == 1, (a, s)
                else:
                    assert count_at(a, s, 1) == 1, (a, s)
    print("criterion 06 PASS: every Fano tuple is unique at kappa = 1")


def test_c07_step_structure_on_the_sweep():
    for s in SWEEP_S:
        for r in SWEEP_R:
            for a in sweep_vectors(r):
                res = census(a, s)
                rep = verify_step_structure(res)
                assert rep, (a, s, rep.reason)
                base = res.breakpoints[0].kappa
                for bp in res.breakpoints:
                    assert (bp.kappa - base) % (r + 1) == 0
                    if r == s:
                        assert len(bp.new_members) == 1, (a, s, bp)
    print("criterion 07 PASS: breakpoints lie on one residue class mod r+1")


def test_c08_shift_bounds_sound_and_counts_stabilize():
    for s in SWEEP_S:
        for r in SWEEP_R:
            for a in sweep_vectors(r):
                lo, hi = c_bounds(a)
                for c in range(int(lo) - 3, int(hi) + 4):
                    if enumerate_b(a, c, s):
                        assert lo <= c <= hi, (a, s, c)
                res = census(a, s)
                th = res.stabilization_threshold
                assert res.count(th + 1) == count_at_infinity(a, s), (a, s)
    print("criterion 08 PASS: no witnesses outside the shift window; counts stabilize")


def test_c09_pruned_census_equals_unpruned():
    for s in SWEEP_S:
        for r in SWEEP_R:
            for a in sweep_vectors(r):
                fast = deformation_class(a, s, prune=True)
                slow = deformation_class(a, s, prune=False)
                assert fast.members == slow.members, (a, s)
    print("criterion 09 PASS: the second-symmetric-function cutoff loses nothing")


# (r, largest query sigma_1): a query's members have sigma_1 < (r + 1) times its own
KEY_SWEEP = ((2, 40), (3, 16), (4, 10), (5, 7))


def test_classes_equal_their_key_groups():
    # an oracle that shares nothing with the shift scan: one pass over all
    # vectors up to the largest member sigma_1, grouped by class_key
    checked = 0
    for r, top in KEY_SWEEP:
        for s in range(2, r + 1):
            table = class_table(r, s, (r + 1) * top)
            for a in nondecreasing_vectors(r, top, include_zero=False):
                assert deformation_class(a, s).vectors == tuple(table[class_key(a, s)]), (a, s)
                checked += 1
    print(f"key sweep PASS: {checked} classes over 2 <= s <= r <= 5 equal their key groups")


def test_r5_pruned_classes_equal_unpruned():
    for a in nondecreasing_vectors(5, 12, include_zero=False):
        assert deformation_class(a, 2).members == deformation_class(a, 2, prune=False).members, a
    print("r = 5 sweep PASS: the cutoff loses nothing over CP^2")


def test_c10_certified_family_of_three():
    cert = generate_family(3, c=2)
    assert cert.K == 11 and cert.a == (11, 13)
    assert [w.b for w in cert.witnesses] == [(2, 13), (7, 14)]
    for w in cert.witnesses:
        assert find_shift(cert.a, w.b, 2) == w.C
    assert census((11, 13), 2).stable_count >= 3
    lifted = lift_class(cert, 1)
    assert len(lifted) == 3 and all(len(v) == 3 for v in lifted)
    for u, v in itertools.combinations(lifted, 2):
        assert find_shift(u, v, 2) == 0
    print("criterion 10 PASS: certified family with three structures, lift included")


def test_c11_moves_exhaustive():
    for r in (1, 2, 3, 4):
        vectors = nondecreasing_vectors(r, 10)
        for a, b in itertools.product(vectors, repeat=2):
            if (sum(b) - sum(a)) % (r + 1) == 0:
                assert move_path(a, b).replay() == b, (a, b)
            else:
                with pytest.raises(ParityError):
                    move_path(a, b)
    assert hirzebruch_equiv(0, 4) and hirzebruch_equiv(3, 7)
    assert not hirzebruch_equiv(0, 1)
    print("criterion 11 PASS: moves realize exactly the congruent pairs")


def test_c12_polytope_suite():
    rng = random.Random(20260816)
    gap_tuple = BundleTuple(1, 2, (1,), 1)
    assert exact_volume(gap_tuple) == Fraction(28, 3)
    assert nominal_volume(1, 2, 1) == 9
    for r in (1, 2, 3):
        for s in (1, 2, 3):
            for a in nondecreasing_vectors(r, 6):
                k_a = sum(a) - s
                for kappa in (k_a + 1, k_a + 5):
                    t = BundleTuple(r, s, a, kappa)
                    P = build(t)
                    assert is_delzant(P), t
                    assert t in [f.bundle for f in recognize(P)], t
                    scrambled = scramble_polytope(P, rng)
                    assert t in [f.bundle for f in recognize(scrambled)], t
                    ev = exact_volume(t)
                    if s == 1 or not any(a):
                        assert ev == nominal_volume(r, s, kappa), t
                    assert exact_volume(BundleTuple(r, s, a, kappa + 1)) > ev
    print("criterion 12 PASS: build/recognize round trips and volume laws hold")


def test_c13_equivalence_relation_on_random_triples():
    rng = random.Random(13)
    pool = [(a, s) for s in SWEEP_S for r in SWEEP_R for a in sweep_vectors(r)]
    for _ in range(500):
        a, s = pool[rng.randrange(len(pool))]
        members = deformation_class(a, s).vectors
        b = members[rng.randrange(len(members))]
        c = members[rng.randrange(len(members))]
        c_aa = find_shift(a, a, s)
        c_ab = find_shift(a, b, s)
        c_ba = find_shift(b, a, s)
        c_bc = find_shift(b, c, s)
        c_ac = find_shift(a, c, s)
        assert c_aa == 0
        assert c_ab is not None and c_ba == -c_ab
        assert c_bc is not None and c_ac == c_ab + c_bc
    print("criterion 13 PASS: reflexive, symmetric, transitive on 500 triples")
