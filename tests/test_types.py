"""The result types: named tuples with fixed reprs, immutable fields, and
validation on construction; importing the package stays light."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

import toricbundles as tb
from toricbundles.polytope import _corners

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Import the package and build the CLI parser the way a fresh `toricbundles`
# call does.  Loading these modules, and dataclass decoration, took about a
# third of a CLI call's start-up; `polytope`, `families` and `moves` load on
# first use, so a census or equiv call never compiles them.
COLD_START = (
    "import sys, toricbundles, toricbundles.cli; toricbundles.cli._build_parser(); "
    "print(sorted({'dataclasses', 'inspect', 'typing', 'toricbundles.polytope', "
    "'toricbundles._linalg', 'toricbundles.families', 'toricbundles.moves'} "
    "& set(sys.modules)))"
)

# Resolve every exported name, run the CLI commands that load the deferred
# modules, then import one of them directly: `census` must stay the function,
# not become the submodule of the same name.
SURFACE = """
import io, sys
from contextlib import redirect_stdout
import toricbundles as tb
from toricbundles import cli
census = sys.modules["toricbundles.census"].census
assert set(tb.__all__) <= set(dir(tb)), set(tb.__all__) - set(dir(tb))
for name in tb.__all__:
    obj = getattr(tb, name)
    assert getattr(sys.modules[obj.__module__], name) is obj, name
    assert vars(tb)[name] is obj, name
for argv in (["census", "--a", "1,4,4", "--s", "2"], ["polytope", "--a", "1,2", "--s", "2",
             "--kappa", "5"], ["family", "--k", "3"]):
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    assert tb.census is census, argv
import toricbundles.polytope
assert tb.census is census
try:
    tb.no_such_name
except AttributeError as exc:
    print(exc)
"""


def _fresh(code):
    """stdout of code run in a fresh interpreter; -S keeps site hooks, which
    may preload modules, out of the check."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_dataclasses_inspect_or_typing():
    assert _fresh(COLD_START) == "[]\n"


def test_package_surface_in_a_fresh_interpreter():
    assert _fresh(SURFACE) == "module 'toricbundles' has no attribute 'no_such_name'\n"
    star = "import toricbundles as tb; from toricbundles import *; print(len(tb.__all__), "
    star += "sorted(n for n in tb.__all__ if globals().get(n) is not getattr(tb, n)))"
    assert _fresh(star) == "60 []\n"


SEGMENT = "tb.DelzantPolytope(1, (tb.Facet((-1,), 0), tb.Facet((1,), Fraction(1, 2))))"

# (type, an expression building one, its repr, a field name)
TYPES = [
    (
        tb.BundleTuple,
        "tb.BundleTuple(1, 2, (1,), Fraction(3, 2))",
        "BundleTuple(r=1, s=2, a=(1,), kappa=Fraction(3, 2))",
        "kappa",
    ),
    (
        tb.Facet,
        "tb.Facet((1, -1), 2)",
        "Facet(conormal=(1, -1), constant=Fraction(2, 1))",
        "constant",
    ),
    (
        tb.DelzantPolytope,
        SEGMENT,
        "DelzantPolytope(dim=1, facets=(Facet(conormal=(-1,), constant=Fraction(0, 1)), "
        "Facet(conormal=(1,), constant=Fraction(1, 2))))",
        "facets",
    ),
    (
        tb.Vertex,
        f"tb.vertices({SEGMENT})[1]",
        "Vertex(point=(Fraction(1, 2),), active=frozenset({1}))",
        "point",
    ),
    (
        tb.DelzantReport,
        "tb.is_delzant(tb.DelzantPolytope(1, (tb.Facet((-2,), 0), tb.Facet((1,), 1))))",
        "DelzantReport(ok=False, reason='conormal (-2,) of facet 0 is not primitive (gcd 2)')",
        "ok",
    ),
    (
        tb.RecognizedForm,
        "tb.recognize(tb.build(tb.BundleTuple(1, 1, (1,), 1)))[0]",
        "RecognizedForm(bundle=BundleTuple(r=1, s=1, a=(1,), kappa=Fraction(1, 1)), "
        "matrix=((1, 0), (0, 1)), translation=(Fraction(0, 1), Fraction(0, 1)), "
        "scale=Fraction(1, 1))",
        "scale",
    ),
    (
        tb.Breakpoint,
        "tb.census((1, 4, 4), 2).breakpoints[0]",
        "Breakpoint(kappa=7, new_members=((1, 4, 4), (2, 2, 5)))",
        "new_members",
    ),
    (
        tb.StepReport,
        "tb.verify_step_structure(tb.census((1, 4, 4), 2))",
        "StepReport(ok=True, reason='')",
        "reason",
    ),
    (
        tb.CensusResult,
        "tb.census((1,), 1, sigma1_cap=3)",
        "CensusResult(r=1, s=1, query=(1,), breakpoints=(Breakpoint(kappa=0, "
        "new_members=((1,),)), Breakpoint(kappa=2, new_members=((3,),))), "
        "stable_count=InfiniteMarker(), stabilization_threshold=None, complete=False, "
        "members=(((1,), 0), ((3,), 1)))",
        "members",
    ),
    (
        tb.DeformationClass,
        "tb.deformation_class((1, 4, 4), 2)",
        "DeformationClass(r=3, s=2, members=(((1, 4, 4), 0), ((2, 2, 5), 0)), "
        "complete=True, bound_used='integer shifts C in [-9/4, 6]')",
        "complete",
    ),
    (
        tb.Witness,
        "tb.generate_family(2).witnesses[0]",
        "Witness(n=2, x=-2, C=-1, b=(2, 7))",
        "b",
    ),
    (
        tb.FamilyCertificate,
        "tb.generate_family(2)",
        "FamilyCertificate(k=2, c=2, strategy='greedy', n_seq=(2,), moduli=(3,), K=5, "
        "a=(5, 7), witnesses=(Witness(n=2, x=-2, C=-1, b=(2, 7)),))",
        "K",
    ),
    (
        tb.MovePath,
        "tb.move_path((1, 2), (0, 0))",
        "MovePath(start=(1, 2), steps=(('eij_inv', 1, 2), ('e1_inv',)), end=(0, 0), "
        "kappa_floor=2)",
        "kappa_floor",
    ),
]


@pytest.mark.parametrize("cls, expr, text, field", TYPES, ids=[t[0].__name__ for t in TYPES])
def test_result_type_repr_and_immutability(cls, expr, text, field):
    obj = eval(expr)
    assert type(obj) is cls
    assert repr(obj) == text
    assert eval(text, {**vars(tb), "Fraction": Fraction}) == obj
    with pytest.raises(AttributeError):
        setattr(obj, field, getattr(obj, field))
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert tuple(obj) == obj and hash(tuple(obj)) == hash(obj)


@pytest.mark.parametrize("cls", [tb.DelzantReport, tb.StepReport])
def test_report_reason_default_and_truth(cls):
    assert cls(True).reason == cls(False).reason == ""
    assert bool(cls(True)) is True
    assert bool(cls(False)) is False
    assert bool(cls(False, "why")) is False
    ok, reason = cls(True, "note")
    assert (ok, reason) == (True, "note")


@pytest.mark.parametrize(
    "expr, error, message",
    [
        ("tb.BundleTuple(0, 1, (2, 1), 1)", ValueError, "need r >= 1 and s >= 1, got r=0, s=1"),
        ("tb.BundleTuple(1, 0, (1,), 1)", ValueError, "need r >= 1 and s >= 1, got r=1, s=0"),
        ("tb.BundleTuple(2, 1, (2, 1), 5)", ValueError,
         "exponent entries must be sorted non-decreasing: (2, 1)"),
        ("tb.BundleTuple(1, 1, (-1,), 5)", ValueError, "exponent entries must be non-negative, got -1"),
        ("tb.BundleTuple(1, 1, (1.5,), 5)", ValueError, "exponent entries must be integers, got 1.5"),
        ("tb.BundleTuple(2, 1, (1,), 0)", tb.LengthMismatch, "a has length 1, expected r = 2"),
        ("tb.BundleTuple(1, 1, (3,), 2)", tb.InvalidKappa,
         "kappa = 2 must exceed sigma_1(a) - s = 2; at or below it the fiber over the "
         "corner base vertex collapses"),
        ("tb.BundleTuple(3, 2, (1, 4, 4), Fraction(13, 2))", tb.InvalidKappa,
         "kappa = 13/2 must exceed sigma_1(a) - s = 7; at or below it the fiber over the "
         "corner base vertex collapses"),
        ("tb.Facet((0, 0), 1)", ValueError, "a facet conormal must be nonzero"),
        ("tb.Facet((), 1)", ValueError, "a facet conormal must be nonzero"),
        ("tb.DelzantPolytope(0, (tb.Facet((1,), 1),))", ValueError, "dimension must be >= 1"),
        ("tb.DelzantPolytope(2, (tb.Facet((1, 0), 1), tb.Facet((1,), 1)))", tb.LengthMismatch,
         "conormal (1,) has length 1, expected 2"),
    ],
)
def test_validation_errors_and_messages(expr, error, message):
    with pytest.raises(error) as exc:
        eval(expr)
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_construction_normalizes_fields():
    t = tb.BundleTuple(r=1, s=2, a=[1], kappa="3/2")
    assert t == (1, 2, (1,), Fraction(3, 2)) and type(t.a) is tuple
    assert type(t.kappa) is Fraction
    f = tb.Facet([1, 0], 2)
    assert f.conormal == (1, 0) and type(f.constant) is Fraction
    P = tb.DelzantPolytope(2, [f])
    assert type(P.facets) is tuple


def test_vertex_memo_hits_an_equal_polytope():
    t = tb.BundleTuple(2, 2, (1, 3), 7)
    first, second = tb.build(t), tb.build(t)
    assert first == second and first is not second
    tb.vertices(first)
    hits = _corners.cache_info().hits
    tb.vertices(second)
    assert _corners.cache_info().hits == hits + 1
