"""Exact classification of toric projective-space bundles with b_2 = 2.

The package decides deformation equivalence of bundle tuples (a; kappa),
enumerates complete deformation classes, evaluates the toric-structure
counting step function, builds and recognizes the underlying Delzant
polytopes, constructs explicit move sequences in the s = 1 case, and
generates certified families with arbitrarily many inequivalent toric
structures.  All arithmetic is exact (integers and rationals).

``census``, ``equiv``, ``errors`` and ``symfun`` load with the package.  The
names from ``families``, ``moves`` and ``polytope`` load on first use (PEP 562
``__getattr__``), so that a census or equivalence query, or a bare CLI start,
never compiles or runs them.  ``census`` cannot be deferred: importing a
submodule binds it as a package attribute, which would replace the function
``census`` with the module ``census``.
"""

from .census import (
    INFINITE,
    Breakpoint,
    CensusResult,
    InfiniteMarker,
    StepReport,
    census,
    count_at,
    count_at_infinity,
    is_fano,
    is_monotone,
    verify_step_structure,
)
from .equiv import (
    DeformationClass,
    c_bounds,
    deformation_class,
    enumerate_b,
    find_shift,
    k_min,
    sigma2_holds,
)
from .errors import (
    CapRequired,
    CertificateInvalid,
    IndexOutOfRange,
    InvalidKappa,
    LengthMismatch,
    NotABundle,
    NotSimple,
    ParityError,
    ToricError,
    Unbounded,
    ZeroVector,
)
from .symfun import (
    chern_coeffs,
    elem_sym,
    elem_sym_all,
    exponent_vector,
    shift,
    truncated_sym_equal,
)

# The names that the package's __getattr__ loads from their submodule.
_LAZY = {
    "families": ("FamilyCertificate", "Witness", "coprime_sequence", "generate_family",
                 "lift_class"),
    "moves": ("MovePath", "apply_move", "e1", "eij", "hirzebruch_equiv", "move_path"),
    "polytope": ("BundleTuple", "DelzantPolytope", "DelzantReport", "Facet",
                 "RecognizedForm", "Vertex", "build", "exact_volume", "fiber_fingerprint",
                 "is_delzant", "nominal_volume", "recognize", "transform_polytope",
                 "vertices"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__version__ = "0.1.0"

__all__ = [
    "INFINITE",
    "Breakpoint",
    "BundleTuple",
    "CapRequired",
    "CensusResult",
    "CertificateInvalid",
    "DeformationClass",
    "DelzantPolytope",
    "DelzantReport",
    "Facet",
    "FamilyCertificate",
    "IndexOutOfRange",
    "InfiniteMarker",
    "InvalidKappa",
    "LengthMismatch",
    "MovePath",
    "NotABundle",
    "NotSimple",
    "ParityError",
    "RecognizedForm",
    "StepReport",
    "ToricError",
    "Unbounded",
    "Vertex",
    "Witness",
    "ZeroVector",
    "apply_move",
    "build",
    "c_bounds",
    "census",
    "chern_coeffs",
    "coprime_sequence",
    "count_at",
    "count_at_infinity",
    "deformation_class",
    "e1",
    "eij",
    "elem_sym",
    "elem_sym_all",
    "enumerate_b",
    "exact_volume",
    "exponent_vector",
    "fiber_fingerprint",
    "find_shift",
    "generate_family",
    "hirzebruch_equiv",
    "is_delzant",
    "is_fano",
    "is_monotone",
    "k_min",
    "lift_class",
    "move_path",
    "nominal_volume",
    "recognize",
    "shift",
    "sigma2_holds",
    "transform_polytope",
    "truncated_sym_equal",
    "verify_step_structure",
    "vertices",
]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
