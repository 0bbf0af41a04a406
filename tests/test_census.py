"""Counting toric structures as a step function of the size parameter."""

from fractions import Fraction

import pytest
from conftest import nondecreasing_vectors

from toricbundles import (
    INFINITE,
    CapRequired,
    InfiniteMarker,
    ZeroVector,
    census,
    count_at,
    count_at_infinity,
    deformation_class,
    is_fano,
    is_monotone,
    verify_step_structure,
)


def test_census_pinned_table():
    res = census((1, 4, 4), 2)
    assert res.vectors == ((1, 4, 4), (2, 2, 5))
    assert [(bp.kappa, bp.new_members) for bp in res.breakpoints] == [
        (7, ((1, 4, 4), (2, 2, 5))),
    ]
    assert res.stable_count == 2
    assert res.stabilization_threshold == Fraction(31)
    assert res.count(6) == 0
    assert res.count(7) == 0  # strictly fewer than kappa + s
    assert res.count(Fraction(15, 2)) == 2
    assert res.count(100) == 2


def test_census_two_breakpoints():
    res = census((0, 0, 2), 2)
    assert [bp.kappa for bp in res.breakpoints] == [0, 4]
    assert res.count(0) == 0
    assert res.count(Fraction(1, 2)) == 1
    assert res.count(4) == 1
    assert res.count(5) == 2
    assert res.stable_count == 2


def test_census_wide_base_singleton():
    res = census((2, 3), 3)
    assert res.vectors == ((2, 3),)
    assert [bp.kappa for bp in res.breakpoints] == [2]
    assert res.count(2) == 0 and res.count(3) == 1


def test_census_projective_line_base_is_infinite():
    res = census((5,), 1, sigma1_cap=11)
    assert res.stable_count is INFINITE
    assert res.stabilization_threshold is None
    assert not res.complete
    # K values 1 - 1, 3 - 1, ... climb without bound
    assert [bp.kappa for bp in res.breakpoints] == [0, 2, 4, 6, 8, 10]
    with pytest.raises(CapRequired):
        census((5,), 1)


def test_count_at_pinned():
    assert count_at((1,), 1, 6, sigma1_cap=7) == 3
    assert count_at((1, 4, 4), 2, Fraction(15, 2)) == 2
    assert count_at((0, 0, 2), 2, 1) == 1
    with pytest.raises(CapRequired):
        count_at((1,), 1, 6)
    with pytest.raises(CapRequired):
        count_at((1,), 1, 6, sigma1_cap=6)
    # the class's own errors come before the cap check, as in census --kappa
    with pytest.raises(CapRequired, match="^sigma1_cap = 3 is below sigma_1"):
        count_at((5,), 1, 9, sigma1_cap=3)
    with pytest.raises(ZeroVector):
        count_at((0, 0), 1, 9)


def test_count_at_infinity_pinned():
    assert count_at_infinity((0, 2), 2) == 1
    assert count_at_infinity((1, 4, 4), 2) == 2
    assert count_at_infinity((11, 13), 2) == 3
    assert count_at_infinity((5,), 1) is INFINITE
    with pytest.raises(ZeroVector):
        count_at_infinity((0, 0), 2)


def test_infinite_marker_is_a_singleton():
    assert InfiniteMarker() is INFINITE
    assert str(INFINITE) == "infinite"


def test_fano_and_monotone():
    assert not is_fano((1, 4, 4), 2)  # minimal kappa is 7, far above 1
    assert is_fano((0, 1), 2)
    assert is_fano((1, 1), 2)
    assert is_fano((1,), 1)
    assert not is_fano((3,), 1)
    with pytest.raises(ValueError, match="^s must be a positive integer$"):
        is_fano((1, 2), -5)
    assert is_monotone(1)
    assert is_monotone(Fraction(2, 2))
    assert not is_monotone(Fraction(15, 2))


def test_verify_step_structure():
    for a in ((1, 4, 4), (0, 0, 2), (11, 13), (2, 3)):
        rep = verify_step_structure(census(a, 2))
        assert rep, (a, rep.reason)
    with pytest.raises(ValueError):
        verify_step_structure(census((5,), 1, sigma1_cap=9))


def test_counts_stabilize_at_threshold():
    for a in ((1, 4, 4), (0, 0, 2), (1, 2), (2, 3, 4)):
        res = census(a, 2)
        th = res.stabilization_threshold
        assert res.count(th + 1) == res.stable_count
        assert res.count(th + 1000) == res.stable_count
        # below the first breakpoint nothing is countable
        assert res.count(res.breakpoints[0].kappa) < res.stable_count


def test_census_is_class_invariant():
    for a in ((1, 4, 4), (0, 0, 2), (11, 13)):
        base = census(a, 2)
        for b in deformation_class(a, 2).vectors:
            other = census(b, 2)
            assert other.vectors == base.vectors
            assert [(bp.kappa, bp.new_members) for bp in other.breakpoints] == [
                (bp.kappa, bp.new_members) for bp in base.breakpoints
            ]
            assert other.stable_count == base.stable_count


def test_breakpoints_partition_members():
    for r, s in ((2, 2), (3, 2), (3, 3)):
        for a in nondecreasing_vectors(r, 7, include_zero=False):
            res = census(a, s)
            spread = [m for bp in res.breakpoints for m in bp.new_members]
            assert sorted(spread) == sorted(res.vectors), (a, s)
            kappas = [bp.kappa for bp in res.breakpoints]
            assert kappas == sorted(kappas)
            assert len(set(kappas)) == len(kappas)
            for bp in res.breakpoints:
                for m in bp.new_members:
                    assert sum(m) - s == bp.kappa
