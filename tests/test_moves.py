"""Elementary moves connecting equivalent tuples over a projective-line base."""

import itertools

import pytest
from conftest import nondecreasing_vectors

from toricbundles import (
    IndexOutOfRange,
    LengthMismatch,
    ParityError,
    apply_move,
    e1,
    eij,
    find_shift,
    hirzebruch_equiv,
    move_path,
)


def test_e1_pinned():
    assert e1((0,)) == (2,)
    assert e1((1, 4, 4)) == (3, 5, 5)
    assert e1((0, 0, 9)) == (2, 1, 10)
    with pytest.raises(ValueError):
        e1(())


def test_eij_pinned():
    assert eij((3, 5, 5), 1, 2) == (2, 6, 5)
    assert eij((3, 5, 5), 2, 1) == (4, 4, 5)
    assert eij((0, 7), 2, 1) == (1, 6)
    with pytest.raises(IndexOutOfRange):
        eij((3, 5), 0, 1)
    with pytest.raises(IndexOutOfRange):
        eij((3, 5), 1, 3)
    with pytest.raises(ValueError):
        eij((3, 5), 2, 2)


def test_apply_move_dispatch():
    v = (1, 4, 4)
    assert apply_move(v, ("e1",)) == e1(v)
    assert apply_move(e1(v), ("e1_inv",)) == v
    assert apply_move(v, ("eij", 1, 2)) == eij(v, 1, 2)
    assert apply_move(v, ("eij_inv", 1, 2)) == eij(v, 2, 1)
    with pytest.raises(ValueError):
        apply_move(v, ("warp", 1))


def test_move_path_pinned():
    path = move_path((0,), (4,))
    assert path.steps == (("e1",), ("e1",))
    assert path.end == (4,)
    assert path.kappa_floor == 3
    path = move_path((1, 4), (3, 8))
    assert len(path.steps) == 4
    assert path.replay() == (3, 8)
    with pytest.raises(ParityError):
        move_path((1,), (2,))
    with pytest.raises(LengthMismatch):
        move_path((1, 4), (3,))


def test_move_path_negative_intermediates_stay_formal():
    path = move_path((0, 0, 9), (3, 3, 3))
    assert path.replay() == (3, 3, 3)
    # replaying tracks every stage, so the floor covers the worst stage
    assert path.kappa_floor >= max(sum((0, 0, 9)), sum((3, 3, 3))) - 1


def test_move_path_reverse_uses_formal_inverses():
    # a drop in total twist is realized by inverting the climbing path
    fwd = move_path((0,), (4,))
    bwd = move_path((4,), (0,))
    assert fwd.steps == (("e1",), ("e1",))
    assert bwd.steps == (("e1_inv",), ("e1_inv",))
    fwd = move_path((1, 4), (3, 8))
    bwd = move_path((3, 8), (1, 4))
    inverted = {"e1": "e1_inv", "e1_inv": "e1", "eij": "eij_inv", "eij_inv": "eij"}
    assert bwd.steps == tuple((inverted[s[0]],) + s[1:] for s in reversed(fwd.steps))
    assert bwd.replay() == (1, 4)
    assert bwd.kappa_floor == fwd.kappa_floor


def test_move_path_exhaustive_small():
    for r in (1, 2, 3, 4):
        vectors = nondecreasing_vectors(r, 10)
        for a, b in itertools.product(vectors, repeat=2):
            congruent = (sum(b) - sum(a)) % (r + 1) == 0
            if not congruent:
                with pytest.raises(ParityError):
                    move_path(a, b)
                continue
            path = move_path(a, b)
            assert path.start == a and path.end == b
            assert path.replay() == b
            assert path.kappa_floor >= max(sum(a), sum(b)) - 1


def test_kappa_floor_matches_replay():
    pairs = [((0, 0, 9), (3, 3, 3)), ((1, 4), (3, 8)), ((0,), (8,))]
    for r in (1, 2, 3):
        vectors = nondecreasing_vectors(r, 8)
        pairs += [
            (a, b)
            for a, b in itertools.product(vectors, repeat=2)
            if (sum(b) - sum(a)) % (r + 1) == 0
        ]
    for a, b in pairs:
        path = move_path(a, b)
        cur = list(a)
        worst = sum(a)
        for step in path.steps:
            cur = list(apply_move(tuple(cur), step))
            worst = max(worst, sum(cur))
        assert path.kappa_floor == worst - 1


def test_hirzebruch_parity():
    assert hirzebruch_equiv(0, 4)
    assert hirzebruch_equiv(1, 5)
    assert not hirzebruch_equiv(0, 1)
    with pytest.raises(ValueError):
        hirzebruch_equiv(-1, 1)
    # agrees with the one-twist move criterion
    for a, b in itertools.product(range(7), repeat=2):
        assert hirzebruch_equiv(a, b) == ((b - a) % 2 == 0)


def test_moves_agree_with_shift_search():
    # a path exists exactly when the two tuples are deformation equivalent
    vectors = nondecreasing_vectors(2, 8)
    for a, b in itertools.product(vectors, repeat=2):
        if a == (0, 0) or b == (0, 0):
            continue
        c = find_shift(a, b, 1)
        try:
            path = move_path(a, b)
            assert c is not None
            assert c == (sum(b) - sum(a)) // 3
            assert path.replay() == b
        except ParityError:
            assert c is None
