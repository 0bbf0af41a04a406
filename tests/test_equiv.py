"""Deformation equivalence: shift search, bounds, and class enumeration."""

import gc
import itertools
import random
from fractions import Fraction
from math import ceil, floor

import pytest
from conftest import class_key, nondecreasing_vectors, sigma_newton
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toricbundles import (
    CapRequired,
    LengthMismatch,
    ZeroVector,
    c_bounds,
    census,
    deformation_class,
    elem_sym,
    enumerate_b,
    find_shift,
    k_min,
    shift,
    sigma2_holds,
)
from toricbundles.equiv import shift_window


def test_find_shift_pinned():
    assert find_shift((1, 4, 4), (2, 2, 5), 2) == 0
    assert find_shift((0, 0, 2), (2, 2, 2), 2) == 1
    assert find_shift((2, 2, 2), (0, 0, 2), 2) == -1
    assert find_shift((1, 5), (4, 5), 1) == 1
    assert find_shift((1, 4, 4), (1, 4, 5), 2) is None
    assert find_shift((1, 4, 4), (2, 2, 6), 2) is None


def test_find_shift_errors():
    with pytest.raises(LengthMismatch):
        find_shift((1, 2), (1, 2, 3), 2)
    with pytest.raises(ZeroVector):
        find_shift((0, 0), (0, 0), 2)
    with pytest.raises(ValueError):
        find_shift((1, 2), (1, 2), 0)
    # zero against nonzero is a decidable non-match, not an error
    assert find_shift((0, 0), (1, 1), 2) is None


def test_find_shift_is_congruence_test_for_projective_line_base():
    for a1, b1 in itertools.product(range(9), repeat=2):
        for a2 in range(a1, 9):
            for b2 in range(b1, 9):
                a, b = (a1, a2), (b1, b2)
                if a == (0, 0) or b == (0, 0):
                    continue
                c = find_shift(a, b, 1)
                if (sum(b) - sum(a)) % 3 == 0:
                    assert c == (sum(b) - sum(a)) // 3
                else:
                    assert c is None


def test_c_bounds_pinned():
    lo, hi = c_bounds((1, 4, 4))
    assert (lo, hi) == (Fraction(-9, 4), 6)
    assert c_bounds((0, 0, 2)) == (Fraction(-1, 2), Fraction(4, 3))
    with pytest.raises(ZeroVector):
        c_bounds((0, 0))


def test_enumerate_b_pinned():
    assert enumerate_b((1, 4, 4), 0, 2) == [(1, 4, 4), (2, 2, 5)]
    assert enumerate_b((0, 0, 2), 1, 2) == [(2, 2, 2)]
    assert enumerate_b((1, 4, 4), -3, 2) == []
    assert enumerate_b((1, 5), 1, 1) == [
        (0, 9),
        (1, 8),
        (2, 7),
        (3, 6),
        (4, 5),
    ]


@pytest.mark.parametrize("s", [0, -1, 2.5, 2.0, True])
def test_nonpositive_s_is_rejected(s):
    for call in (
        lambda: enumerate_b((1, 2), 0, s),
        lambda: k_min((1, 2), s),
        lambda: find_shift((1, 2), (1, 2), s),
        lambda: deformation_class((1, 2), s),
    ):
        with pytest.raises(ValueError, match="^s must be a positive integer$"):
            call()


def test_boolean_entries_are_rejected():
    message = "^exponent entries must be integers, got (True|False)$"
    for call in (lambda: census((True, 2), 2), lambda: find_shift((1, 2), (False, 3), 2)):
        with pytest.raises(ValueError, match=message):
            call()


def test_enumeration_does_not_recurse_per_entry():
    # more entries than the default recursion limit of 1,000 frames
    a = (0,) * 999 + (1,)
    assert deformation_class(a, 2).vectors == (a,)
    assert census(a, 2).vectors == (a,)
    assert enumerate_b(a, 0, 2) == [a]
    assert deformation_class(a, 1, sigma1_cap=3).vectors == (a,)


def test_enumerate_b_matches_brute_force():
    for a in ((1, 4, 4), (0, 0, 2), (2, 3), (1, 1, 2, 2)):
        r = len(a)
        for s in (2, 3):
            for c in range(-3, 7):
                target = sum(a) + (r + 1) * c
                if target < 0:
                    assert enumerate_b(a, c, s) == []
                    continue
                brute = []
                for b in nondecreasing_vectors(r, target):
                    if sum(b) != target:
                        continue
                    lhs = tuple([c] + [x + c for x in a])
                    rhs = tuple([0] + list(b))
                    m = min(r + 1, s)
                    if all(
                        elem_sym(lhs, i) == elem_sym(rhs, i) for i in range(1, m + 1)
                    ):
                        brute.append(b)
                assert sorted(enumerate_b(a, c, s)) == sorted(brute), (a, c, s)


def sorted_vectors_with_sum(r, total, lo=0):
    """Every non-decreasing r-vector of integers >= lo with the given sum."""
    if r == 1:
        return [(total,)] if total >= lo else []
    return [
        (v,) + rest
        for v in range(lo, total // r + 1)
        for rest in sorted_vectors_with_sum(r - 1, total - v, v)
    ]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_enumerate_b_matches_brute_force_in_order(data):
    r = data.draw(st.integers(1, 4))
    entries = st.lists(st.integers(0, 6), min_size=r, max_size=r).filter(any)
    a = tuple(sorted(data.draw(entries)))
    s = data.draw(st.integers(1, r + 2))
    lo, hi = c_bounds(a)
    c = data.draw(st.integers(ceil(lo) - 1, floor(hi) + 1))
    u = (c,) + shift(a, c)
    m = min(r + 1, s)
    brute = sorted(
        b
        for b in sorted_vectors_with_sum(r, sum(u))
        if all(sigma_newton((0,) + b, i) == sigma_newton(u, i) for i in range(2, m + 1))
    )
    assert enumerate_b(a, c, s) == brute, (a, c, s)


def test_sigma2_holds_pinned():
    # at shift 1 the balanced competitor of (1,4,4) is (0,4,4,5) minus one unit:
    # max sigma_2 with first entry 0 and total 12 over 4 slots is 56 <= 57
    assert sigma2_holds((1, 4, 4), 1)
    # equality case: the balanced competitor at shift 1 is exactly (2, 2, 2)
    assert sigma2_holds((0, 0, 2), 1)
    assert sigma2_holds((0, 0, 2), 2)
    assert not sigma2_holds((0, 9), 1)
    with pytest.raises(ValueError):
        sigma2_holds((1, 4, 4), 0)


def test_sigma2_holds_justifies_pruning():
    for a in ((1, 4, 4), (0, 0, 2), (1, 1), (2, 3, 4), (0, 1, 1, 2)):
        for c in range(1, 8):
            if sigma2_holds(a, c):
                for cc in range(c + 1, c + 6):
                    assert enumerate_b(a, cc, 2) == [], (a, cc)
                break


def test_deformation_class_pinned():
    cls = deformation_class((1, 4, 4), 2)
    assert cls.vectors == ((1, 4, 4), (2, 2, 5))
    assert cls.complete
    cls = deformation_class((0, 0, 2), 2)
    assert cls.vectors == ((0, 0, 2), (2, 2, 2))
    cls = deformation_class((11, 13), 2)
    assert set(cls.vectors) == {(2, 13), (7, 14), (11, 13)}
    assert dict(cls.members) == {(2, 13): -3, (7, 14): -1, (11, 13): 0}
    assert deformation_class((2, 3), 3).vectors == ((2, 3),)


def test_deformation_class_errors():
    with pytest.raises(ZeroVector):
        deformation_class((0, 0, 0), 2)
    with pytest.raises(CapRequired):
        deformation_class((5,), 1)
    with pytest.raises(CapRequired):
        deformation_class((5,), 1, sigma1_cap=4)


def test_deformation_class_s1_capped():
    cls = deformation_class((5,), 1, sigma1_cap=9)
    assert cls.vectors == ((1,), (3,), (5,), (7,), (9,))
    assert not cls.complete
    assert "9" in str(cls.bound_used)
    members = dict(cls.members)
    assert members[(1,)] == -2 and members[(9,)] == 2


def test_deformation_class_s1_capped_matches_brute_force():
    # over s = 1 every vector with a congruent sigma_1 is a member
    for r in (1, 2, 3):
        pool = nondecreasing_vectors(r, 4 * r + 2 * (r + 1))
        for a in nondecreasing_vectors(r, 4 * r, include_zero=False):
            if a[-1] > 4:
                continue
            s1 = sum(a)
            for cap in range(s1, s1 + 2 * (r + 1) + 1):
                brute = sorted(
                    ((b, (sum(b) - s1) // (r + 1)) for b in pool
                     if sum(b) <= cap and (sum(b) - s1) % (r + 1) == 0),
                    key=lambda bc: (sum(bc[0]), bc[0]),
                )
                assert deformation_class(a, 1, cap).members == tuple(brute), (a, cap)


def _reflect(a):
    """b with {0} + b = max - ({0} + a): same sigma_1 residue and same even
    centred power sums, so equivalent to a when m = min(r + 1, s) <= 2."""
    top = max(a)
    return tuple(sorted(top - u for u in (0, *a)))[1:]


def _congruent(v, a):
    """v with its last entry raised until sigma_1 is congruent to a's mod r + 1."""
    return v[:-1] + (v[-1] + (sum(a) - sum(v)) % (len(a) + 1),)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_class_key_decides_equivalence(data):
    r = data.draw(st.integers(1, 5), label="r")
    s = data.draw(st.integers(1, 7), label="s")
    vec = st.lists(st.integers(0, 12), min_size=r, max_size=r).map(lambda v: tuple(sorted(v)))
    a = data.draw(vec, label="a")
    b = data.draw(
        st.one_of(vec, st.just(a), st.just(_reflect(a)), vec.map(lambda v: _congruent(v, a))),
        label="b",
    )
    assume(any(a) or any(b))
    assert (class_key(a, s) == class_key(b, s)) == (find_shift(a, b, s) is not None)


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 10**30), st.integers(1, 10**30))
def test_quadratic_leaf_is_exact_on_big_integers(x, y):
    # r = 2, s = 2: each shift fixes sigma_1 and sigma_2 of (0, b), so its only
    # member is the root pair; a float square root loses it at this size
    y += -(x + y) % 3
    a = tuple(sorted((x, y)))
    b = _reflect(a)
    c = find_shift(a, b, 2)
    assert c is not None
    assert enumerate_b(a, c, 2) == [b]
    assert enumerate_b(a, 0, 2) == [a]


def test_membership_is_an_equivalence_relation():
    seen = {}
    for a in nondecreasing_vectors(3, 8, include_zero=False):
        cls = deformation_class(a, 2)
        assert a in cls.vectors  # reflexive, with shift 0
        assert dict(cls.members)[a] == 0
        for b in cls.vectors:
            c_ab = find_shift(a, b, 2)
            c_ba = find_shift(b, a, 2)
            assert c_ab is not None and c_ba == -c_ab  # symmetric
            if b in seen:
                # transitive: the class computed from any member is identical
                assert seen[b].vectors == cls.vectors, (a, b)
        for b in cls.vectors:
            seen.setdefault(b, cls)


def test_class_members_share_invariants():
    for a in ((1, 4, 4), (0, 0, 2), (11, 13), (1, 2, 2, 3)):
        r = len(a)
        cls = deformation_class(a, 2)
        for b, c in cls.members:
            assert sum(b) == sum(a) + (r + 1) * c
            assert find_shift(a, b, 2) == c


def test_c_bounds_are_sound():
    rng = random.Random(20240816)
    vectors = [v for v in nondecreasing_vectors(3, 9, include_zero=False)]
    sample = rng.sample(vectors, 25) + [(1, 4, 4), (0, 0, 2)]
    for a in sample:
        lo, hi = c_bounds(a)
        found = set()
        for c in range(int(lo) - 3, int(hi) + 4):
            for b in enumerate_b(a, c, 2):
                found.add(c)
        for c in found:
            assert lo <= c <= hi, (a, c, lo, hi)


def test_pruning_does_not_change_the_class():
    for a in nondecreasing_vectors(2, 9, include_zero=False):
        fast = deformation_class(a, 2, prune=True)
        full = deformation_class(a, 2, prune=False)
        assert fast.members == full.members, a


def test_class_above_r_matches_the_shift_scan():
    # For s > r, enumerate_b fixes m = min(r+1, s) = r+1 sigmas whatever s
    # is, so one scan of the shift window serves s = r+1..r+3.
    for r in range(1, 5):
        for a in itertools.combinations_with_replacement(range(7), r):
            if not any(a):
                continue
            shifts, bound = shift_window(a, r + 1)
            scan = [(b, c) for c in shifts for b in enumerate_b(a, c, r + 1)]
            scan.sort(key=lambda mc: (sum(mc[0]), mc[0]))
            for s in range(r + 1, r + 4):
                assert deformation_class(a, s) == (r, s, tuple(scan), True, bound), (a, s)


def test_small_total_classes_are_singletons():
    # wider fiber than base: the shift window collapses to c = 0
    for r in (1, 2, 3):
        for s in (r + 1, r + 2):
            for a in nondecreasing_vectors(r, 6, include_zero=False):
                cls = deformation_class(a, s)
                assert cls.vectors == (a,), (a, s)
    # small totals are rigid for any base dimension
    for a in ((1,), (1, 1), (0, 1), (0, 0, 1), (1, 1, 1)):
        for s in (2, 3):
            if len(a) >= s:
                assert deformation_class(a, s).vectors == (a,)


def test_shift_vector_matches_shift_helper():
    # members are reconstructed by shifting and re-sorting never changes them
    cls = deformation_class((11, 13), 2)
    for b, c in cls.members:
        u = (c,) + shift((11, 13), c)
        v = (0,) + b
        assert elem_sym(u, 1) == elem_sym(v, 1)
        assert elem_sym(u, 2) == elem_sym(v, 2)


def test_deformation_class_leaves_no_reference_cycles():
    gc.collect()
    gc.disable()
    try:
        deformation_class((3, 10, 20), 3)
        assert gc.collect() == 0
    finally:
        gc.enable()
