"""Deformation equivalence of bundle tuples.

Two tuples (a; kappa) and (b; kappa') over the same base dimension s are
deformation equivalent exactly when some integer shift C makes the first
min(r+1, s) elementary symmetric functions of (C, a_1+C, ..., a_r+C) agree
with those of (0, b_1, ..., b_r).  Since sigma_1 pins C, equivalence testing
is a single divisibility plus finitely many sigma comparisons, and for s >= 2
whole classes are finite; a bounded C-range, sigma_2 pruning and (over CP^2) a
quadratic root leaf make their enumeration exhaustive and fast.
"""

from collections import namedtuple
from fractions import Fraction
from math import ceil, floor, isqrt

from .errors import CapRequired, LengthMismatch, ZeroVector
from .symfun import Vec, elem_sym_all, exponent_vector, shift, truncated_sym_equal


class DeformationClass(namedtuple("DeformationClass", "r s members complete bound_used")):
    """All known members of one deformation class, each with its shift C
    relative to the query vector; complete is True only when the bounded
    search proves exhaustiveness (s >= 2)."""

    __slots__ = ()

    @property
    def vectors(self) -> tuple[Vec, ...]:
        return tuple(b for b, _ in self.members)


def _check_s(s) -> None:
    if isinstance(s, bool) or not isinstance(s, int) or s < 1:
        raise ValueError("s must be a positive integer")


def k_min(a, s: int) -> int:
    """The degeneration threshold sigma_1(a) - s; a structure needs kappa above it."""
    a = exponent_vector(a)
    _check_s(s)
    return sum(a) - s


def find_shift(a, b, s: int):
    """The witness C making a and b equivalent over base dimension s, else None.

    sigma_1 forces C = (sigma_1(b) - sigma_1(a)) / (r+1); the candidate is
    rejected if that is not an integer or any later sigma up to min(r+1, s)
    disagrees.
    """
    a = exponent_vector(a)
    b = exponent_vector(b)
    if len(a) != len(b):
        raise LengthMismatch(f"vectors have lengths {len(a)} and {len(b)}")
    _check_s(s)
    if not any(a) and not any(b):
        raise ZeroVector(
            "both vectors are zero: the tuples are products and the shift "
            "criterion does not apply"
        )
    r = len(a)
    c, rem = divmod(sum(b) - sum(a), r + 1)
    if rem:
        return None
    m = min(r + 1, s)
    if truncated_sym_equal((c,) + shift(a, c), (0,) + b, m):
        return c
    return None


def c_bounds(a) -> tuple[Fraction, Fraction]:
    """The closed interval of shifts C that can admit witnesses when s >= 2.

    Lower end: sigma_1(0, b) = sigma_1(a) + (r+1)C must be non-negative.
    Upper end: sigma_2 of (C, C+a) caps C at (r-1) sigma_1(a) / r.
    """
    a = exponent_vector(a)
    if not any(a):
        raise ZeroVector("a = 0 has no twisting; the bounds assume a nonzero vector")
    s1 = sum(a)
    r = len(a)
    return Fraction(-s1, r + 1), Fraction((r - 1) * s1, r)


def _compositions(slots, total, cap, exact=False):
    """Stream the non-decreasing non-negative t of slots >= 2 entries summing to
    total with sigma_2(t) <= cap (== cap if exact), in lexicographic order.

    An explicit stack walks the prefixes; sigma_2 only grows, so it bounds each
    entry.  A leaf places the last two: a plain loop, or if exact the integer
    roots (p -+ d)/2 of t^2 - p t + q, for p the sum still to place,
    q = cap - sigma_2(prefix) - sigma_1(prefix) p and d = isqrt(p^2 - 4q) (which
    has p's parity), with the smaller root at least the last prefix entry.
    """
    stack = [((), 0, 0, 0)]
    while stack:
        prefix, lo, psum, ps2 = stack.pop()
        p, k = total - psum, slots - len(prefix)
        hi = min(p // k, (cap - ps2) // psum) if psum else p // k
        if k > 2:
            stack.extend((prefix + (v,), v, psum + v, ps2 + psum * v)
                         for v in range(hi, lo - 1, -1))
        elif exact:
            disc = p * p - 4 * (cap - ps2 - psum * p)
            if disc >= 0 and (d := isqrt(disc)) ** 2 == disc and p - d >= 2 * lo:
                yield prefix + ((p - d) // 2, (p + d) // 2)
        else:
            for v in range(lo, hi + 1):
                if ps2 + psum * p + v * (p - v) <= cap:
                    yield prefix + (v, p - v)


def enumerate_b(a, c: int, s: int) -> list[Vec]:
    """All sorted non-negative b with find_shift(a, b, s) == c, in lexicographic order.

    The sigmas of u = (C, a+C) are computed once.  Compositions of sigma_1(u)
    are streamed under the sigma_2(u) cut and kept when their first
    m = min(r+1, s) sigmas equal those of u: sigma_i(0, b) = sigma_i(b), and
    both vanish at i = r+1.  At m = 2 the walk solves for the last two entries
    from sigma_2(u); at m = 1 the cap sigma_1(u)^2 cuts nothing; r = 1 forces b.
    """
    a = exponent_vector(a)
    _check_s(s)
    m = min(len(a) + 1, s)
    sig = elem_sym_all((c,) + shift(a, c), m)
    if sig[1] < 0:
        return []
    cap = sig[2] if m >= 2 else sig[1] ** 2
    candidates = _compositions(len(a), sig[1], cap, m == 2) if len(a) > 1 else [(sig[1],)]
    return [b for b in candidates if elem_sym_all(b, m) == sig]


def sigma2_holds(a, c: int) -> bool:
    """Whether the balanced vector's sigma_2 stays within sigma_2(C, C+a) at C = c.

    At a fixed sum the balanced non-negative vector (k,...,k,k+1,...,k+1)
    maximizes sigma_2, so a True answer means no b can satisfy the sigma_2
    equation at any larger shift: the search may stop right after enumerating
    this c.  Only meaningful for c >= 1.
    """
    a = exponent_vector(a)
    if c < 1:
        raise ValueError("the stopping test applies to shifts c >= 1 only")
    r = len(a)
    u = (c,) + shift(a, c)
    k, l = divmod(sum(u), r)
    balanced = (k,) * (r - l) + (k + 1,) * l
    return elem_sym_all(balanced, 2)[2] <= elem_sym_all(u, 2)[2]


def shift_window(a, s: int, sigma1_cap=None) -> tuple[range, str]:
    """The shifts C that deformation_class(a, s, sigma1_cap) scans, with the
    text of their bound: the integers in c_bounds for s >= 2, and for s = 1
    those with 0 <= sigma_1(a) + (r+1)C <= sigma1_cap.  Raises the class's
    input errors, so a query can be checked before it is enumerated.
    """
    a = exponent_vector(a)
    _check_s(s)
    if not any(a):
        raise ZeroVector(
            "a = 0 is a product of projective spaces; its extra fibration is "
            "not governed by the shift criterion, so classes are defined for "
            "nonzero a only"
        )
    if s > 1:
        lo, hi = c_bounds(a)
        return range(ceil(lo), floor(hi) + 1), f"integer shifts C in [{lo}, {hi}]"
    if sigma1_cap is None:
        raise CapRequired(
            "the s = 1 class is infinite; pass sigma1_cap to bound the listing"
        )
    cap, s1, r1 = int(sigma1_cap), sum(a), len(a) + 1
    if cap < s1:
        raise CapRequired(
            f"sigma1_cap = {cap} is below sigma_1(a) = {s1}; "
            "the class listing must at least contain a itself"
        )
    shifts = range(-(s1 // r1), (cap - s1) // r1 + 1)
    return shifts, f"sigma_1(b) <= {cap} with sigma_1(b) = {s1} mod {r1}"


def deformation_class(a, s: int, sigma1_cap=None, prune: bool = True) -> DeformationClass:
    """The deformation class of (a; *) over base dimension s.

    One loop runs enumerate_b over the shift_window.  For s >= 2 the result
    is provably complete; for s > r it is {a} alone, because the r+1 fixed
    sigmas make the multisets {C, a_1+C, ..., a_r+C} and {0, b_1, ..., b_r}
    equal, and their minima give C = 0.  For s = 1 the class is infinite
    (only a congruence constrains sigma_1), so sigma1_cap is required and the
    members are all congruent vectors with sigma_1 up to the cap.  Members are
    sorted by sigma_1, then lexicographically.  prune=False disables the
    s >= 2 sigma_2 stopping rule; the result must not change (tested property).
    """
    a = exponent_vector(a)
    shifts, bound = shift_window(a, s, sigma1_cap)
    if s > len(a):
        return DeformationClass(len(a), s, ((a, 0),), True, bound)
    members = []
    for c in shifts:
        members.extend((b, c) for b in enumerate_b(a, c, s))
        if prune and s > 1 and c >= 1 and sigma2_holds(a, c):
            break
    members.sort(key=lambda mc: (sum(mc[0]), mc[0]))
    return DeformationClass(len(a), s, tuple(members), s > 1, bound)
