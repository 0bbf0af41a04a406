"""Deformation equivalence of bundle tuples.

Two tuples (a; kappa) and (b; kappa') over the same base dimension s are
deformation equivalent exactly when some integer shift C makes the first
min(r+1, s) elementary symmetric functions of (C, a_1+C, ..., a_r+C) agree
with those of (0, b_1, ..., b_r).  Since sigma_1 pins C, equivalence testing
is a single divisibility plus finitely many sigma comparisons, and for s >= 2
whole classes are finite; the bounded C-range and the balanced-vector sigma_2
pruning below make their enumeration exhaustive and fast.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor

from .errors import CapRequired, LengthMismatch, ZeroVector
from .symfun import Vec, elem_sym_all, exponent_vector, shift, truncated_sym_equal


@dataclass(frozen=True)
class DeformationClass:
    """All known members of one deformation class, each with its shift C
    relative to the query vector; complete is True only when the bounded
    search proves exhaustiveness (s >= 2)."""

    r: int
    s: int
    members: tuple[tuple[Vec, int], ...]
    complete: bool
    bound_used: str

    @property
    def vectors(self) -> tuple[Vec, ...]:
        return tuple(b for b, _ in self.members)


def k_min(a, s: int) -> int:
    """The degeneration threshold sigma_1(a) - s; a structure needs kappa above it."""
    return sum(exponent_vector(a)) - int(s)


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
    if s < 1:
        raise ValueError("s must be a positive integer")
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


def enumerate_b(a, c: int, s: int) -> list[Vec]:
    """All sorted non-negative b with find_shift(a, b, s) == c, by direct search.

    Candidates are the non-decreasing compositions of sigma_1(a) + (r+1)c;
    branches whose partial sigma_2 already exceeds the target are cut (entries
    are non-negative, so sigma_2 only grows), and survivors are filtered by
    the full truncated sigma comparison.
    """
    a = exponent_vector(a)
    r = len(a)
    target = sum(a) + (r + 1) * int(c)
    if target < 0:
        return []
    m = min(r + 1, s)
    u = (c,) + shift(a, c)
    sig = elem_sym_all(u, min(2, m))
    s2_cap = sig[2] if m >= 2 else None
    out = []

    def grow(prefix, lo, remaining, psum, ps2):
        slots = r - len(prefix)
        if slots == 1:
            if remaining >= lo and (s2_cap is None or ps2 + psum * remaining <= s2_cap):
                out.append(prefix + (remaining,))
            return
        for v in range(lo, remaining // slots + 1):
            ns2 = ps2 + psum * v
            if s2_cap is not None and ns2 > s2_cap:
                break
            grow(prefix + (v,), v, remaining - v, psum + v, ns2)

    grow((), 0, target, 0, 0)
    del grow  # it refers to itself, so only the cyclic collector would free it
    return [b for b in out if truncated_sym_equal(u, (0,) + b, m)]


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


def _class_s1(a: Vec, cap: int) -> list[tuple[Vec, int]]:
    s1 = sum(a)
    r = len(a)
    members = []
    c = -(s1 // (r + 1))
    while s1 + (r + 1) * c <= cap:
        members.extend((b, c) for b in enumerate_b(a, c, 1))
        c += 1
    return members


def deformation_class(a, s: int, sigma1_cap=None, prune: bool = True) -> DeformationClass:
    """The deformation class of (a; *) over base dimension s.

    For s >= 2 the integer shifts range over c_bounds and the result is
    provably complete.  For s = 1 the class is infinite (only a congruence
    constrains sigma_1), so sigma1_cap is required and the members are all
    congruent vectors with sigma_1 up to the cap.  prune=False disables the
    sigma_2 stopping rule; the result must not change (tested property).
    """
    a = exponent_vector(a)
    if s < 1:
        raise ValueError("s must be a positive integer")
    if not any(a):
        raise ZeroVector(
            "a = 0 is a product of projective spaces; its extra fibration is "
            "not governed by the shift criterion, so classes are defined for "
            "nonzero a only"
        )
    r = len(a)
    if s == 1:
        if sigma1_cap is None:
            raise CapRequired(
                "the s = 1 class is infinite; pass sigma1_cap to bound the listing"
            )
        cap = int(sigma1_cap)
        if cap < sum(a):
            raise CapRequired(
                f"sigma1_cap = {cap} is below sigma_1(a) = {sum(a)}; "
                "the class listing must at least contain a itself"
            )
        members = _class_s1(a, cap)
        bound = f"sigma_1(b) <= {cap} with sigma_1(b) = {sum(a)} mod {r + 1}"
        complete = False
    else:
        lo, hi = c_bounds(a)
        members = []
        for c in range(ceil(lo), floor(hi) + 1):
            members.extend((b, c) for b in enumerate_b(a, c, s))
            if prune and c >= 1 and sigma2_holds(a, c):
                break
        bound = f"integer shifts C in [{lo}, {hi}]"
        complete = True
    members.sort(key=lambda mc: (sum(mc[0]), mc[0]))
    return DeformationClass(r, s, tuple(members), complete, bound)
