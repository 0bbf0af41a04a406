"""The counting step function kappa -> N(a; kappa).

A bundle tuple (b; kappa) exists only for kappa strictly above
K_b = sigma_1(b) - s, so the number of toric structures on the deformation
class of a at a given kappa is the number of class members b with K_b < kappa.
The census groups the class by these thresholds into breakpoints; for s >= 2
the function stabilizes at the finite class size once kappa passes
(r + 1 - 1/r) sigma_1(a) - s, while for s = 1 it grows without bound.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import groupby

from .equiv import deformation_class, k_min, shift_window
from .errors import CapRequired, ZeroVector
from .symfun import Vec, exponent_vector


class InfiniteMarker:
    """Singleton standing for an infinite limit count (the s = 1 case)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "InfiniteMarker()"

    def __str__(self):
        return "infinite"


INFINITE = InfiniteMarker()


class Breakpoint(namedtuple("Breakpoint", "kappa new_members")):
    """One jump of the step function: the members whose threshold equals kappa
    (they are counted for every kappa' > kappa)."""

    __slots__ = ()


class StepReport(namedtuple("StepReport", "ok reason", defaults=("",))):
    __slots__ = ()

    def __bool__(self) -> bool:
        return self.ok


class CensusResult(
    namedtuple(
        "CensusResult",
        "r s query breakpoints stable_count stabilization_threshold complete members",
    )
):
    """The step function of one deformation class, as sorted breakpoints.

    stable_count is an int, or INFINITE for s = 1; stabilization_threshold is
    a Fraction, or None for s = 1; members pairs each vector with its shift.
    """

    __slots__ = ()

    @property
    def vectors(self) -> tuple[Vec, ...]:
        """The member vectors without their shifts."""
        return tuple(b for b, _ in self.members)

    def count(self, kappa) -> int:
        """N(kappa): members with threshold strictly below kappa."""
        kappa = Fraction(kappa)
        return sum(len(bp.new_members) for bp in self.breakpoints if bp.kappa < kappa)


def census(a, s: int, sigma1_cap=None) -> CensusResult:
    """Group the deformation class of a by the thresholds K_b = sigma_1(b) - s."""
    a = exponent_vector(a)
    cls = deformation_class(a, s, sigma1_cap)
    # Members come sorted by (sigma_1, lex), so each threshold is one run.
    breakpoints = tuple(
        Breakpoint(kap, tuple(b for b, _ in run))
        for kap, run in groupby(cls.members, key=lambda m: sum(m[0]) - s)
    )
    if s == 1:
        stable: "int | InfiniteMarker" = INFINITE
        threshold = None
    else:
        stable = len(cls.members)
        r = len(a)
        threshold = (r + 1 - Fraction(1, r)) * sum(a) - s
    return CensusResult(
        len(a), s, a, breakpoints, stable, threshold, cls.complete, cls.members
    )


def count_at(a, s: int, kappa, sigma1_cap=None) -> int:
    """N(a; kappa) exactly; for s = 1 the cap must reach kappa + s so that no
    member below the threshold is missed."""
    kappa = Fraction(kappa)
    check_count_cap(a, s, kappa, sigma1_cap)
    return census(a, s, sigma1_cap).count(kappa)


def check_count_cap(a, s: int, kappa, sigma1_cap) -> None:
    """Raise the class's own input errors (from shift_window) first, then
    CapRequired unless a census capped at sigma1_cap counts every member
    below kappa (always true for s >= 2, whose classes are finite)."""
    shift_window(a, s, sigma1_cap)
    kappa = Fraction(kappa)
    if s == 1 and (sigma1_cap is None or sigma1_cap < kappa + s):
        raise CapRequired(
            f"counting at kappa = {kappa} with s = 1 needs sigma1_cap >= "
            f"kappa + s = {kappa + s}"
        )


def count_at_infinity(a, s: int):
    """The limit count: the class size for s >= 2, infinite for s = 1."""
    a = exponent_vector(a)
    if not any(a):
        raise ZeroVector(
            "a = 0 is a product of projective spaces; counting applies to "
            "nonzero a only"
        )
    if s == 1:
        return INFINITE
    return len(deformation_class(a, s).members)


def is_fano(a, s: int) -> bool:
    """Whether the bundle with twisting a over base dimension s is Fano."""
    return k_min(a, s) < 1


def is_monotone(kappa) -> bool:
    """Whether the symplectic form is monotone (kappa = 1 exactly)."""
    return Fraction(kappa) == 1


def verify_step_structure(res: CensusResult) -> StepReport:
    """Check the step-function shape for s >= 2: all breakpoints congruent to
    the smallest one mod r+1, and jumps of size at most 1 when r = s."""
    if res.s == 1:
        raise ValueError("the step structure is established for s >= 2 only")
    if not res.breakpoints:
        return StepReport(True)
    base = res.breakpoints[0].kappa
    mod = res.r + 1
    for bp in res.breakpoints:
        if (bp.kappa - base) % mod:
            return StepReport(
                False,
                f"breakpoint {bp.kappa} is not congruent to the smallest "
                f"breakpoint {base} mod {mod}",
            )
        if res.r == res.s and len(bp.new_members) > 1:
            return StepReport(
                False,
                f"jump of size {len(bp.new_members)} at kappa = {bp.kappa} "
                f"although r = s = {res.r}",
            )
    return StepReport(True)
