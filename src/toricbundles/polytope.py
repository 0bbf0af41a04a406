"""Delzant polytopes of projective-bundle type.

A bundle tuple (r, s, a, kappa) with a non-negative sorted and
kappa > sigma_1(a) - s describes the polytope in R^(r+s) cut out by

    x_i >= -1                    (1 <= i <= r)
    x_1 + ... + x_r <= 1
    x_{r+j} >= -1                (1 <= j <= s)
    x_{r+1} + ... + x_{r+s} <= kappa + a_1 x_1 + ... + a_r x_r

whose first r coordinates run over a standard simplex (edge length r + 1)
and whose fibers are simplices of linearly varying size.  This module
builds such polytopes, enumerates their vertices exactly, checks the
Delzant conditions, measures volumes and fiber sizes, and recognizes the
normal form inside an arbitrary H-description.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, gcd, lcm

from . import _linalg as la
from .errors import InvalidKappa, LengthMismatch, NotABundle, NotSimple, Unbounded
from .symfun import exponent_vector


class BundleTuple(namedtuple("BundleTuple", "r s a kappa")):
    """Normalized bundle data (r, s, a, kappa); validates on construction.

    Build it by calling the class: _make and _replace skip the normalization
    and the checks in __new__.
    """

    __slots__ = ()

    def __new__(cls, r: int, s: int, a, kappa):
        if r < 1 or s < 1:
            raise ValueError(f"need r >= 1 and s >= 1, got r={r}, s={s}")
        self = super().__new__(cls, r, s, exponent_vector(a), Fraction(kappa))
        if len(self.a) != r:
            raise LengthMismatch(f"a has length {len(self.a)}, expected r = {r}")
        if self.kappa <= self.k_min:
            raise InvalidKappa(
                f"kappa = {self.kappa} must exceed sigma_1(a) - s = {self.k_min}; "
                "at or below it the fiber over the corner base vertex collapses"
            )
        return self

    @property
    def k_min(self) -> int:
        return sum(self.a) - self.s

    @property
    def dim(self) -> int:
        return self.r + self.s


class Facet(namedtuple("Facet", "conormal constant")):
    """One inequality <x, conormal> <= constant with a primitive integer conormal.

    Build it by calling the class: _make and _replace skip the normalization
    and the nonzero check in __new__.
    """

    __slots__ = ()

    def __new__(cls, conormal, constant):
        conormal = tuple(int(x) for x in conormal)
        constant = Fraction(constant)
        if not any(conormal):
            raise ValueError("a facet conormal must be nonzero")
        return super().__new__(cls, conormal, constant)


class DelzantPolytope(namedtuple("DelzantPolytope", "dim facets")):
    """H-description container; the Delzant conditions are checked by
    is_delzant, not at construction, so defective inputs can be diagnosed.

    Build it by calling the class: _make and _replace skip the dimension and
    conormal-length checks in __new__.
    """

    __slots__ = ()

    def __new__(cls, dim: int, facets):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        facets = tuple(facets)
        for f in facets:
            if len(f.conormal) != dim:
                raise LengthMismatch(
                    f"conormal {f.conormal} has length {len(f.conormal)}, expected {dim}"
                )
        return super().__new__(cls, dim, facets)

    def to_json_obj(self) -> dict:
        return {
            "dim": self.dim,
            "facets": [
                {"conormal": list(f.conormal), "constant": str(f.constant)}
                for f in self.facets
            ],
        }

    @classmethod
    def from_json_obj(cls, obj) -> "DelzantPolytope":
        """Parse to_json_obj output; any malformed input raises ValueError."""
        if not isinstance(obj, dict):
            raise ValueError("polytope JSON must be an object")
        dim = obj.get("dim")
        if not _is_int(dim):
            raise ValueError("polytope JSON needs an integer 'dim'")
        raw = obj.get("facets")
        if not isinstance(raw, list) or not raw:
            raise ValueError("polytope JSON needs a non-empty 'facets' list")
        facets = []
        for item in raw:
            if not isinstance(item, dict):
                raise ValueError(f"facet must be an object: {item!r}")
            conormal = item.get("conormal")
            if not isinstance(conormal, list) or not all(_is_int(x) for x in conormal):
                raise ValueError(f"facet conormal must be a list of integers: {item!r}")
            if len(conormal) != dim:
                raise ValueError(f"facet conormal must have length dim = {dim}: {item!r}")
            const = item.get("constant")
            if not (isinstance(const, str) or _is_int(const)):
                raise ValueError(f"facet constant must be 'p/q' or an integer: {item!r}")
            try:
                facets.append(Facet(tuple(conormal), Fraction(const)))
            except ZeroDivisionError:
                raise ValueError(f"facet constant has a zero denominator: {item!r}")
        return cls(dim, tuple(facets))


def _is_int(x) -> bool:
    """A JSON integer; bool is an int subclass but stands for true/false."""
    return isinstance(x, int) and not isinstance(x, bool)


class Vertex(namedtuple("Vertex", "point active")):
    """A vertex point (a tuple of Fractions) with the frozenset of facet
    indices active at it (0-based)."""

    __slots__ = ()


class DelzantReport(namedtuple("DelzantReport", "ok reason", defaults=("",))):
    __slots__ = ()

    def __bool__(self) -> bool:
        return self.ok


class RecognizedForm(namedtuple("RecognizedForm", "bundle matrix translation scale")):
    """One bundle presentation of a polytope.

    The map x -> scale * (matrix @ x) + translation sends the input polytope
    exactly onto build(bundle); matrix is unimodular and scale is the positive
    rational that makes the base simplex standard (1 whenever the input is
    already normalized up to a lattice-affine map).
    """

    __slots__ = ()


def build(t: BundleTuple) -> DelzantPolytope:
    """The normal-form polytope of a bundle tuple (facets in definition order)."""
    r, s = t.r, t.s
    n = r + s
    facets = []
    for i in range(r):
        facets.append(Facet(tuple(-1 if j == i else 0 for j in range(n)), Fraction(1)))
    facets.append(Facet((1,) * r + (0,) * s, Fraction(1)))
    for j in range(s):
        facets.append(
            Facet(tuple(-1 if k == r + j else 0 for k in range(n)), Fraction(1))
        )
    facets.append(Facet(tuple(-x for x in t.a) + (1,) * s, t.kappa))
    return DelzantPolytope(n, tuple(facets))


def vertices(P: DelzantPolytope) -> list[Vertex]:
    """All vertices of a bounded polytope, sorted by coordinates.

    Every invertible n-subset of facets is solved exactly and kept when the
    solution satisfies the remaining inequalities.  Raises Unbounded when the
    conormals do not span or a recession direction exists, and NotSimple when
    some vertex lies on more than n facets.
    """
    return [v for v, _ in _corners(P)]


@lru_cache(maxsize=8)
def _corners(P: DelzantPolytope) -> tuple[tuple[Vertex, int], ...]:
    """vertices(P), each with the determinant of its sorted active conormals.

    Memoised, as is_delzant, vertices, recognize and fiber_fingerprint each
    ask for the vertices of the same polytope; only results are cached, so
    Unbounded and NotSimple are raised on every call.
    """
    n = P.dim
    A = [f.conormal for f in P.facets]
    m = len(A)
    if m < n:
        raise Unbounded("fewer facets than the dimension; the polyhedron cannot be bounded")
    # With integer constants b / scale a solution is num / (den * scale).
    scale = lcm(*(f.constant.denominator for f in P.facets))
    b = [int(f.constant * scale) for f in P.facets]
    unit = la.identity(n)
    points = {}  # reduced (num, den) -> determinant of the subset
    # Column k of adj(A_S) is, up to sign, the signed maximal minors of S
    # without its k-th facet, which span that (n-1)-subset's kernel.  The
    # sign is immaterial: the conormals span, so at most one of +-ray is a
    # recession direction.
    rays: dict[tuple, tuple] = {}
    for idx in combinations(range(m), n):
        d, y = la.gauss_jordan([A[i] for i in idx], [(b[i],) + unit[k] for k, i in enumerate(idx)])
        if not d:
            continue
        for k in range(n):
            rays.setdefault(idx[:k] + idx[k + 1 :], tuple(row[k + 1] for row in y))
        num = tuple(row[0] if d > 0 else -row[0] for row in y)
        if all(la.dot(a, num) <= bj * abs(d) for a, bj in zip(A, b)):
            g = gcd(d, *num)
            points[tuple(x // g for x in num), abs(d) // g] = d
    if not rays:
        raise Unbounded("facet conormals do not span the ambient space")
    if not points:
        return ()
    for idx in sorted(rays):
        for d in (rays[idx], tuple(-x for x in rays[idx])):
            if all(la.dot(a, d) <= 0 for a in A):
                raise Unbounded(f"recession direction {d}")
    out = []
    common = lcm(*(den for _, den in points))
    for num, den in sorted(points, key=lambda p: [x * (common // p[1]) for x in p[0]]):
        p = tuple(Fraction(x, den * scale) for x in num)
        act = frozenset(j for j in range(m) if la.dot(A[j], num) == b[j] * den)
        if len(act) > n:
            raise NotSimple(f"vertex {p} lies on {len(act)} facets (> dim = {n})")
        out.append((Vertex(p, act), points[num, den]))
    return tuple(out)


def is_delzant(P: DelzantPolytope) -> DelzantReport:
    """Check the Delzant conditions: simple, primitive conormals, and at every
    vertex the active conormals form a lattice basis (determinant +-1).

    The vertices come first, so Unbounded and NotSimple take precedence over
    a non-primitive conormal.
    """
    try:
        corners = _corners(P)
    except NotSimple as exc:
        return DelzantReport(False, f"not simple: {exc}")
    for i, f in enumerate(P.facets):
        g = gcd(*f.conormal)
        if g != 1:
            reason = f"conormal {f.conormal} of facet {i} is not primitive (gcd {g})"
            return DelzantReport(False, reason)
    if not corners:
        return DelzantReport(False, "the polytope is empty")
    for v, d in corners:
        if d not in (1, -1):
            return DelzantReport(False, f"conormals at vertex {v.point} have determinant {d}")
    return DelzantReport(True)


def exact_volume(t: BundleTuple) -> Fraction:
    """Exact Euclidean volume of build(t) by fiber integration.

    The fiber over a base point is a simplex of volume L^s / s!, with L
    affine on the base simplex.  Mapped onto the unit simplex (Jacobian
    (r+1)^r), int L^s = s! h_s(l_0, ..., l_r) / (r + s)!, where h_s is the
    complete homogeneous symmetric function (Macdonald I.2) of L's vertex
    values l_0 = kappa + s - sigma_1(a) and l_i = l_0 + (r+1) a_i.  So the
    volume is (r+1)^r h_s(l) / (r+s)!, with h_s from the O(r s) recurrence.
    """
    r, s = t.r, t.s
    l0 = t.kappa + s - sum(t.a)
    h = [Fraction(1)] + [Fraction(0)] * s
    for x in (l0,) + tuple(l0 + (r + 1) * ai for ai in t.a):
        for j in range(1, s + 1):
            h[j] += x * h[j - 1]
    return (r + 1) ** r * h[s] / factorial(r + s)


def nominal_volume(r: int, s: int, kappa) -> Fraction:
    """The closed product formula (1/r!)(1/s!)(r+1)^r (kappa+s)^s.

    This treats the fiber size as constant at its corner value; it equals
    exact_volume whenever s = 1 or a = 0 and undercounts otherwise (the
    integrand is convex in the base variables), so both are reported and
    neither is ever used to recover kappa.
    """
    return Fraction((r + 1) ** r, factorial(r) * factorial(s)) * (Fraction(kappa) + s) ** s


def fiber_fingerprint(t: BundleTuple) -> list[Fraction]:
    """Sorted multiset of the r+1 fiber edge lengths over the base vertices.

    Computed from actual vertex coordinates: vertices are grouped by their
    base coordinates and each group's edge length is the spread of the fiber
    coordinate sums.  Equals sorted({kappa+s-sigma_1(a)} and
    {kappa+s-sigma_1(a) + (r+1) a_i}); together with (r, s) it determines
    (a, kappa).
    """
    P = build(t)
    groups: dict[tuple, list] = {}
    for v in vertices(P):
        groups.setdefault(v.point[: t.r], []).append(sum(v.point[t.r :]))
    assert len(groups) == t.r + 1
    return sorted(max(sums) - min(sums) for sums in groups.values())


def transform_polytope(P: DelzantPolytope, matrix, translation, scale=1) -> DelzantPolytope:
    """Image of P under x -> scale * (matrix @ x) + translation.

    matrix must be integer unimodular and scale a positive rational; facet
    conormals map by the inverse transpose and constants by
    scale * constant + <new conormal, translation>.
    """
    scale = Fraction(scale)
    if scale <= 0:
        raise ValueError("scale must be positive")
    minv_t = la.transpose(la.inverse_unimodular(matrix))
    facets = []
    for f in P.facets:
        eta = la.mat_vec(minv_t, f.conormal)
        facets.append(Facet(eta, scale * f.constant + la.dot(eta, translation)))
    return DelzantPolytope(P.dim, tuple(facets))


def _corner_form(P, v, pair, base, r, s):
    """Try to normalize P from vertex v, with base as the base facet group.

    pair is the two facets v misses: one of the base group (the far facet)
    and one of the fiber group (the kappa facet).  Returns a RecognizedForm,
    or None unless the normalized facet set equals build(t) exactly.
    """
    far, kap = pair if pair[0] in base else pair[::-1]
    base_active = tuple(i for i in sorted(v.active) if i in base)
    fiber_active = tuple(i for i in sorted(v.active) if i not in base)
    conormals = [f.conormal for f in P.facets]
    constants = [f.constant for f in P.facets]
    # The corner's conormals are a lattice basis (P passed the Delzant check).
    # H has them as columns; U^{-T} = -H^{-1} sends them to -e_k, and the far
    # facet to (1, ..., 1, 0, ..., 0), as the base conormals sum to zero.
    H = la.transpose([conormals[i] for i in base_active + fiber_active])
    uinv_t = tuple(tuple(-x for x in row) for row in la.inverse_unimodular(H))
    eta_kap = la.mat_vec(uinv_t, conormals[kap])
    # Ordering the base facets by a_i permutes the first r rows of U^{-T}
    # alike, which leaves the far facet's image unchanged.
    perm = sorted(range(r), key=lambda i: (-eta_kap[i], base_active[i]))
    order = tuple(base_active[i] for i in perm)
    eta_kap = tuple(eta_kap[i] for i in perm) + eta_kap[r:]
    avals = tuple(-x for x in eta_kap[:r])
    if any(x < 0 for x in avals):
        return None

    denom = constants[far] + sum(constants[i] for i in order)
    if denom <= 0:
        return None
    lam = Fraction(r + 1) / denom
    w = tuple(lam * constants[i] - 1 for i in order + fiber_active)
    kappa = lam * constants[kap] + la.dot(eta_kap, w)
    try:
        t = BundleTuple(r, s, avals, kappa)
    except InvalidKappa:
        return None
    # U = -H^T with the base columns in the new order.
    U = tuple(tuple(-x for x in conormals[i]) for i in order + fiber_active)
    if sorted(transform_polytope(P, U, w, lam).facets) != sorted(build(t).facets):
        return None
    return RecognizedForm(t, U, w, lam)


def recognize(P: DelzantPolytope) -> list[RecognizedForm]:
    """All bundle presentations of a Delzant polytope, sorted by (r, s).

    The facets must number dim + 2.  A simple d-polytope with d + 2 facets is
    a product of two simplices (Kleinschmidt 1988), so each vertex misses one
    facet of each group: the groups are facet 0's partners in the missed
    pairs and the rest, and the missed pairs must be exactly the pairs across
    them, with at least 2 facets per group.  A group whose conormals sum to
    zero is tried as the base (r + 1 = its size): corner by corner, the
    corner conormals are mapped onto the normal-form frame and the scale is
    pinned by making the base simplex standard.  The only acceptance test is
    that the transformed facet set equals the normal form exactly.  Per (r, s)
    a presentation realized without rescaling wins over a rescaled one; a
    product polytope (a = 0) is reported under both fibrations.
    """
    n = P.dim
    if len(P.facets) != n + 2:
        raise NotABundle(f"{len(P.facets)} facets, expected dim + 2 = {n + 2}")
    report = is_delzant(P)
    if not report:
        raise NotABundle(f"not a Delzant polytope: {report.reason}")
    verts = vertices(P)
    missed = [tuple(sorted(set(range(n + 2)) - v.active)) for v in verts]
    partners = tuple(sorted(j for i, j in missed if i == 0))
    groups = [partners, tuple(i for i in range(n + 2) if i not in partners)]
    cross = sorted((min(i, j), max(i, j)) for i in groups[0] for j in groups[1])
    if min(map(len, groups)) < 2 or sorted(missed) != cross:
        raise NotABundle("no facet bipartition matches the bundle normal form")

    found: dict[tuple[int, int], RecognizedForm] = {}
    for base in sorted(groups, key=lambda g: (len(g), g)):
        # The base conormals of a normal form sum to zero, and so do their
        # images under any linear map: skip a group that cannot be the base.
        if any(map(sum, zip(*(P.facets[i].conormal for i in base)))):
            continue
        r = len(base) - 1
        for v, pair in zip(verts, missed):
            form = _corner_form(P, v, pair, base, r, n - r)
            if form is None:
                continue
            key = (r, n - r)
            if key not in found or (found[key].scale != 1 and form.scale == 1):
                found[key] = form
            break
    if not found:
        raise NotABundle("no facet bipartition matches the bundle normal form")
    return [found[k] for k in sorted(found)]
