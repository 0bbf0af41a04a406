"""Shared test helpers: independent oracles and sweep generators."""

import random
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, lcm

from toricbundles import (
    BundleTuple,
    InvalidKappa,
    NotABundle,
    NotSimple,
    RecognizedForm,
    Unbounded,
    Vertex,
    build,
    transform_polytope,
)
from toricbundles import _linalg as la


def sigma_subsets(v, i):
    """Elementary symmetric function by direct subset expansion (exponential oracle)."""
    if i == 0:
        return 1
    return sum(prod for prod in (_product(sub) for sub in combinations(v, i)))


def _product(vals):
    out = 1
    for x in vals:
        out *= x
    return out


def sigma_newton(v, i):
    """Elementary symmetric function from power sums via Newton's identities."""
    n = len(v)
    if i > n:
        return 0
    p = [sum(x**k for x in v) for k in range(i + 1)]
    e = [1]
    for m in range(1, i + 1):
        acc = 0
        for k in range(1, m + 1):
            acc += (-1) ** (k - 1) * e[m - k] * p[k]
        q, rem = divmod(acc, m)
        assert rem == 0, "Newton recurrence must stay integral"
        e.append(q)
    return e[i]


def class_key(v, s):
    """Shift-criterion invariant: equal keys exactly when find_shift succeeds.

    With n = r + 1 and S = sigma_1(v), the shift C exists as an integer iff
    S mod n agrees, and the shifted sigmas up to m = min(r + 1, s) agree iff
    (Newton) the power sums of the centred multiset {n*u - S : u in {0} + v}
    agree for k = 2..m; the k = 1 sum is always 0.
    """
    r, total = len(v), sum(v)
    n = r + 1
    centred = [n * u - total for u in (0, *v)]
    sums = tuple(sum(x**k for x in centred) for k in range(2, min(r + 1, s) + 1))
    return r, total % n, sums


def nondecreasing_vectors(r, max_sum, include_zero=True):
    """All sorted non-negative integer vectors of length r with sum <= max_sum."""
    out = []

    def grow(prefix, lo, budget):
        if len(prefix) == r:
            out.append(prefix)
            return
        for v in range(lo, budget + 1):
            grow(prefix + (v,), v, budget - v)

    grow((), 0, max_sum)
    if not include_zero:
        out = [v for v in out if any(v)]
    return out


def class_table(r, s, sigma1_max):
    """Every nonzero sorted vector of length r with sigma_1 <= sigma1_max, grouped
    by class_key and ordered by (sigma_1, lex) within a group: a's group is its
    deformation class over CP^s once sigma1_max covers a's shift window."""
    table = {}
    vectors = nondecreasing_vectors(r, sigma1_max, include_zero=False)
    for v in sorted(vectors, key=lambda v: (sum(v), v)):
        table.setdefault(class_key(v, s), []).append(v)
    return table


def random_unimodular(rng: random.Random, n: int):
    """A random integer matrix of determinant +-1 built from elementary operations."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        op = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if op == 0 and i != j:
            c = rng.choice((-2, -1, 1, 2))
            for k in range(n):
                m[i][k] += c * m[j][k]
        elif op == 1 and i != j:
            m[i], m[j] = m[j], m[i]
        elif op == 2:
            m[i] = [-x for x in m[i]]
    mat = tuple(tuple(row) for row in m)
    assert det_bareiss(mat) in (1, -1)
    return mat


def scramble_polytope(P, rng: random.Random):
    """Image of P under a random unimodular map and integer translation."""
    u = random_unimodular(rng, P.dim)
    w = tuple(rng.randint(-3, 3) for _ in range(P.dim))
    return transform_polytope(P, u, w)


def ehrhart_volume(P):
    """Exact volume of an integral polytope by Ehrhart interpolation.

    Counts lattice points of the dilates mP for m = 0..n and takes the n-th
    finite difference over n!; valid because every vertex of P is integral.
    """
    n = P.dim
    counts = [_lattice_points(P, m) for m in range(n + 1)]
    for _ in range(n):
        counts = [b - a for a, b in zip(counts, counts[1:])]
    vol = Fraction(counts[0])
    for k in range(2, n + 1):
        vol /= k
    return vol


def _lattice_points(P, m):
    from toricbundles import vertices

    if m == 0:
        return 1
    verts = [v.point for v in vertices(P)]
    assert all(x.denominator == 1 for v in verts for x in v), "integral polytope required"
    lo = [min(int(v[i]) for v in verts) * m for i in range(P.dim)]
    hi = [max(int(v[i]) for v in verts) * m for i in range(P.dim)]
    rows = [f.conormal for f in P.facets]
    consts = [m * f.constant for f in P.facets]
    count = 0
    point = lo[:]

    def rec(idx):
        nonlocal count
        if idx == P.dim:
            count += all(
                sum(row[i] * point[i] for i in range(P.dim)) <= c
                for row, c in zip(rows, consts)
            )
            return
        for val in range(lo[idx], hi[idx] + 1):
            point[idx] = val
            rec(idx + 1)

    rec(0)
    return count


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def exact_volume_multinomial(t):
    """Volume of build(t) by expanding the fiber volume multinomially.

    Integrates (1/s!) (kappa + s + sum a_i x_i)^s over the base simplex:
    after the affine map onto the unit simplex each monomial uses
    int_{unit simplex} y^alpha dy = prod(alpha_i!) / (r + |alpha|)!.
    Sums C(r+s, r) terms; the reference for exact_volume's closed form.
    """
    r, s = t.r, t.s
    c0 = t.kappa + s - sum(t.a)
    w = [(r + 1) * ai for ai in t.a]
    total = Fraction(0)
    for alpha in _compositions(s, r + 1):
        term = c0 ** alpha[0] / Fraction(factorial(alpha[0]))
        for wi, e in zip(w, alpha[1:]):
            if e:
                term *= wi**e
        term /= factorial(r + s - alpha[0])
        total += term
    return (r + 1) ** r * total


# --- Exact linear algebra by minors: the reference for toricbundles._linalg.


def det_bareiss(rows) -> int:
    """Determinant by fraction-free forward elimination (Bareiss)."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i = m[i]
            row_k = m[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pk - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pk
    return sign * m[-1][-1]


def solve_cramer(rows, rhs):
    """Solve the n x n integer system A x = b by Cramer's rule; None when A is
    singular.  rhs entries may be ints or Fractions; returns Fractions."""
    n = len(rows)
    d = det_bareiss(rows)
    if d == 0:
        return None
    fracs = [Fraction(x) for x in rhs]
    scale = lcm(*(f.denominator for f in fracs))
    bi = [int(f * scale) for f in fracs]
    sol = []
    for j in range(n):
        mj = [list(r) for r in rows]
        for i in range(n):
            mj[i][j] = bi[i]
        sol.append(Fraction(det_bareiss(mj), d * scale))
    return tuple(sol)


def kernel_vector_minors(rows, n: int):
    """The signed maximal minors of an (n-1) x n integer matrix: a kernel
    vector when the rank is n - 1, None when it is smaller."""
    if n == 1:
        return (1,)
    vec = []
    for j in range(n):
        sub = [tuple(r[:j]) + tuple(r[j + 1 :]) for r in rows]
        vec.append((-1) ** j * det_bareiss(sub))
    if all(x == 0 for x in vec):
        return None
    return tuple(vec)


def inverse_adjugate(rows):
    """Integer inverse of a matrix with determinant +-1 from its n^2 minors."""
    n = len(rows)
    d = det_bareiss(rows)
    if d not in (1, -1):
        raise ValueError(f"matrix is not unimodular (determinant {d})")
    if n == 1:
        return ((d,),)
    rows = [tuple(r) for r in rows]
    inv = []
    for i in range(n):
        out_row = []
        for j in range(n):
            minor = [r[:i] + r[i + 1 :] for k, r in enumerate(rows) if k != j]
            out_row.append(d * (-1) ** (i + j) * det_bareiss(minor))
        inv.append(tuple(out_row))
    return tuple(inv)


# --- Polytope algorithms by direct search: the reference for vertices,
# --- is_delzant and recognize.


def vertices_by_cramer(P):
    """Every invertible n-subset solved by Cramer's rule, every (n-1)-subset's
    minors tried as a recession direction."""
    n = P.dim
    A = [f.conormal for f in P.facets]
    b = [f.constant for f in P.facets]
    m = len(A)
    if m < n:
        raise Unbounded("fewer facets than the dimension; the polyhedron cannot be bounded")
    spans = False
    points = {}
    for idx in combinations(range(m), n):
        sol = solve_cramer([A[i] for i in idx], [b[i] for i in idx])
        if sol is None:
            continue
        spans = True
        if all(la.dot(A[j], sol) <= b[j] for j in range(m)):
            points[sol] = None
    if not spans:
        raise Unbounded("facet conormals do not span the ambient space")
    if not points:
        return []
    for idx in combinations(range(m), n - 1):
        ray = kernel_vector_minors([A[i] for i in idx], n)
        if ray is None:
            continue
        for d in (ray, tuple(-x for x in ray)):
            if all(la.dot(A[j], d) <= 0 for j in range(m)):
                raise Unbounded(f"recession direction {d}")
    out = []
    for p in sorted(points):
        act = frozenset(j for j in range(m) if la.dot(A[j], p) == b[j])
        if len(act) > n:
            raise NotSimple(f"vertex {p} lies on {len(act)} facets (> dim = {n})")
        out.append(Vertex(p, act))
    return out


def _delzant_reason_by_minors(P, verts):
    for i, f in enumerate(P.facets):
        g = gcd(*(abs(x) for x in f.conormal))
        if g != 1:
            return f"conormal {f.conormal} of facet {i} is not primitive (gcd {g})"
    if not verts:
        return "the polytope is empty"
    for v in verts:
        d = det_bareiss([P.facets[i].conormal for i in sorted(v.active)])
        if d not in (1, -1):
            return f"conormals at vertex {v.point} have determinant {d}"
    return ""


def is_delzant_by_minors(P):
    """(ok, reason) of the Delzant check on vertices_by_cramer."""
    try:
        verts = vertices_by_cramer(P)
    except NotSimple as exc:
        return False, f"not simple: {exc}"
    reason = _delzant_reason_by_minors(P, verts)
    return not reason, reason


def _corner_form_twice(
    P, conormals, constants, base_active, fiber_active, far_facet, kappa_facet, r, s
):
    n = r + s

    def attempt(order):
        cols = [conormals[i] for i in order] + [conormals[i] for i in fiber_active]
        H = tuple(tuple(cols[t][k] for t in range(n)) for k in range(n))
        if det_bareiss(H) not in (1, -1):
            return None
        uinv_t = tuple(tuple(-x for x in row) for row in inverse_adjugate(H))
        eta_far = la.mat_vec(uinv_t, conormals[far_facet])
        if eta_far != (1,) * r + (0,) * s:
            return None
        eta_kap = la.mat_vec(uinv_t, conormals[kappa_facet])
        if eta_kap[r:] != (1,) * s:
            return None
        avals = tuple(-x for x in eta_kap[:r])
        if any(x < 0 for x in avals):
            return None
        return H, eta_kap, avals

    got = attempt(base_active)
    if got is None:
        return None
    order = tuple(f for _, f in sorted(zip(got[2], base_active)))
    got = attempt(order)
    if got is None:
        return None
    H, eta_kap, avals = got
    denom = constants[far_facet] + sum(constants[i] for i in order)
    if denom <= 0:
        return None
    lam = Fraction(r + 1) / denom
    w = tuple(lam * constants[i] - 1 for i in order) + tuple(
        lam * constants[i] - 1 for i in fiber_active
    )
    kappa = lam * constants[kappa_facet] + la.dot(eta_kap, w)
    try:
        t = BundleTuple(r, s, avals, kappa)
    except InvalidKappa:
        return None
    U = tuple(tuple(-H[j][i] for j in range(n)) for i in range(n))
    image = transform_polytope(P, U, w, lam)
    if sorted((f.conormal, f.constant) for f in image.facets) != sorted(
        (f.conormal, f.constant) for f in build(t).facets
    ):
        return None
    return RecognizedForm(t, U, w, lam)


def recognize_by_bipartitions(P):
    """recognize by trying every facet subset of every size as the base group."""
    n = P.dim
    if len(P.facets) != n + 2:
        raise NotABundle(f"{len(P.facets)} facets, expected dim + 2 = {n + 2}")
    try:
        verts = vertices_by_cramer(P)
    except NotSimple as exc:
        raise NotABundle(f"not a Delzant polytope: not simple: {exc}")
    reason = _delzant_reason_by_minors(P, verts)
    if reason:
        raise NotABundle(f"not a Delzant polytope: {reason}")
    m = n + 2
    conormals = [f.conormal for f in P.facets]
    constants = [f.constant for f in P.facets]
    missed = [tuple(sorted(set(range(m)) - v.active)) for v in verts]
    found = {}
    for p in range(2, n + 1):
        r = p - 1
        s = n - r
        if len(verts) != (r + 1) * (s + 1):
            continue
        for base_group in combinations(range(m), p):
            bset = frozenset(base_group)
            if any((pr[0] in bset) + (pr[1] in bset) != 1 for pr in missed):
                continue
            if len(set(missed)) != len(verts):
                continue
            for v, pr in zip(verts, missed):
                far = pr[0] if pr[0] in bset else pr[1]
                kap = pr[1] if far == pr[0] else pr[0]
                base_active = tuple(i for i in sorted(v.active) if i in bset)
                fiber_active = tuple(i for i in sorted(v.active) if i not in bset)
                form = _corner_form_twice(
                    P, conormals, constants, base_active, fiber_active, far, kap, r, s
                )
                if form is None:
                    continue
                key = (r, s)
                if key not in found or (found[key].scale != 1 and form.scale == 1):
                    found[key] = form
                break
    if not found:
        raise NotABundle("no facet bipartition matches the bundle normal form")
    return [found[k] for k in sorted(found)]
