"""Elementary moves between s = 1 bundle vectors.

Over a one-dimensional base the equivalence criterion degenerates to a
congruence of sigma_1 mod r+1, and it is witnessed constructively: the move
e1 raises sigma_1 by exactly r+1 and the balancing moves e_{i,j} shuffle one
unit between entries.  move_path emits the explicit sequence taking one
canonical vector to another, together with the smallest kappa floor above
which every intermediate stage is itself a valid tuple.
"""

from collections import namedtuple

from .errors import IndexOutOfRange, LengthMismatch, ParityError
from .symfun import Vec, exponent_vector

Step = tuple


def e1(a) -> Vec:
    """First entry +2, every other entry +1 (sigma_1 grows by r+1)."""
    a = tuple(int(x) for x in a)
    if not a:
        raise ValueError("the vector must have at least one entry")
    return (a[0] + 2,) + tuple(x + 1 for x in a[1:])


def _e1_inv(a: Vec) -> Vec:
    return (a[0] - 2,) + tuple(x - 1 for x in a[1:])


def eij(a, i: int, j: int) -> Vec:
    """Entry i down one, entry j up one (1-based; sigma_1 preserved)."""
    a = tuple(int(x) for x in a)
    r = len(a)
    if not (1 <= i <= r) or not (1 <= j <= r):
        raise IndexOutOfRange(f"move indices must lie in 1..{r}, got ({i}, {j})")
    if i == j:
        raise ValueError("the two move indices must differ")
    out = list(a)
    out[i - 1] -= 1
    out[j - 1] += 1
    return tuple(out)


def apply_move(v, step: Step) -> Vec:
    """Apply one path step, one of ("e1",), ("e1_inv",), ("eij", i, j),
    ("eij_inv", i, j)."""
    kind = step[0]
    if kind == "e1":
        return e1(v)
    if kind == "e1_inv":
        return _e1_inv(tuple(int(x) for x in v))
    if kind == "eij":
        return eij(v, step[1], step[2])
    if kind == "eij_inv":
        return eij(v, step[2], step[1])
    raise ValueError(f"unknown move kind {kind!r}")


_INVERSE = {"e1": "e1_inv", "e1_inv": "e1", "eij": "eij_inv", "eij_inv": "eij"}


class MovePath(namedtuple("MovePath", "start steps end kappa_floor")):
    """A verified move sequence from start to end.

    kappa_floor is the largest sigma_1(stage) - 1 over all stages: every
    intermediate vector is a valid s = 1 tuple exactly for kappa above it.
    """

    __slots__ = ()

    def replay(self) -> Vec:
        cur = self.start
        for step in self.steps:
            cur = apply_move(cur, step)
        return cur


def _finish(start: Vec, steps: tuple[Step, ...], end: Vec) -> MovePath:
    """The verified path.  Its e1 moves come first and its e1_inv moves last,
    and e(i,j) keeps sigma_1, so the worst stage is start or end."""
    path = MovePath(start, steps, end, max(sum(start), sum(end)) - 1)
    landed = path.replay()
    if landed != end:
        raise AssertionError(f"move construction landed on {landed}, wanted {end}")
    return path


def move_path(a, b) -> MovePath:
    """An explicit move sequence from a to b (both canonical s = 1 vectors).

    With sigma_1(a) <= sigma_1(b): apply e1 exactly C = diff/(r+1) times,
    then for i = 1..r-1 move entry i onto b_i with powers of e_{i,i+1} (the
    inverse power when the entry is short); entry r then matches by sigma_1
    conservation.  The opposite direction returns the formal inverse of the
    path from b to a.  Intermediates may be unsorted or negative.
    """
    a = exponent_vector(a)
    b = exponent_vector(b)
    if len(a) != len(b):
        raise LengthMismatch(f"vectors have lengths {len(a)} and {len(b)}")
    r = len(a)
    diff = sum(b) - sum(a)
    if diff % (r + 1):
        raise ParityError(
            f"sigma_1 differs by {diff}, not a multiple of r + 1 = {r + 1}; "
            "the tuples are inequivalent over a one-dimensional base"
        )
    if diff < 0:
        forward = move_path(b, a)
        steps = tuple((_INVERSE[st[0]],) + st[1:] for st in reversed(forward.steps))
        return _finish(a, steps, b)
    c = diff // (r + 1)
    steps = [("e1",)] * c
    cur = list(a)
    cur[0] += 2 * c
    for idx in range(1, r):
        cur[idx] += c
    for i in range(1, r):
        t = cur[i - 1] - b[i - 1]
        if t >= 0:
            steps.extend([("eij", i, i + 1)] * t)
        else:
            steps.extend([("eij_inv", i, i + 1)] * (-t))
        cur[i - 1] -= t
        cur[i] += t
    return _finish(a, tuple(steps), b)


def hirzebruch_equiv(a: int, b: int) -> bool:
    """Whether the r = s = 1 bundles with twists a and b are diffeomorphic."""
    a = int(a)
    b = int(b)
    if a < 0 or b < 0:
        raise ValueError("twists are non-negative integers")
    return (b - a) % 2 == 0
