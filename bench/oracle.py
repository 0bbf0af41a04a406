"""Independent checks of the engine's answers, written from the definitions.

Nothing here imports toricbundles: sigma functions come from Newton's
identities, class completeness from a brute-force composition sweep over a
shift range derived below, polytopes from the normal-form inequalities, and
volumes from the integral of a power of a linear form over a simplex.  Each
check raises OracleError with the reason when an answer is wrong.
"""

from fractions import Fraction
from math import factorial, gcd

# Class completeness is swept by brute force only up to these sigma_1(a); the
# sweep costs about sigma_1^(r-1) per shift, so larger vectors are checked
# member by member only.
BRUTE_SIGMA1_MAX = {2: 40, 3: 20, 4: 12}


class OracleError(Exception):
    """An engine answer disagrees with the oracle."""


def fail(reason):
    raise OracleError(reason)


# ---------------------------------------------------------------- sigma


def sigmas(v, m):
    """[sigma_1, ..., sigma_m] of v from power sums by Newton's identities."""
    p = [sum(x**k for x in v) for k in range(m + 1)]
    e = [1]
    for k in range(1, m + 1):
        acc = sum((-1) ** (i - 1) * e[k - i] * p[i] for i in range(1, k + 1))
        q, rem = divmod(acc, k)
        if rem:
            fail(f"Newton recurrence left a remainder for {v}")
        e.append(q)
    return e[1:]


def is_member(a, b, c, s):
    """Whether (C, a + C) and (0, b) agree in sigma_1..sigma_min(r+1, s)."""
    m = min(len(a) + 1, s)
    return sigmas((c,) + tuple(x + c for x in a), m) == sigmas((0,) + tuple(b), m)


def shift_range(a):
    """All integer shifts C that can carry a witness when s >= 2.

    sigma_1(0, b) = sigma_1(a) + (r+1)C =: S must be >= 0.  By Cauchy-Schwarz
    sigma_2(b) <= (r-1) S^2 / (2r) for any b of length r with sum S, and
    sigma_2(C, a + C) = (S^2 - sum u_i^2) / 2, so the sigma_2 equation needs
    (r+1) C^2 + 2 sigma_1(a) C <= r sum a_i^2 - sigma_1(a)^2.  The left side
    is convex in C and holds at the lower end, so the range is an interval.
    """
    r, s1 = len(a), sum(a)
    rhs = r * sum(x * x for x in a) - s1 * s1
    c = -(s1 // (r + 1))
    out = []
    while (r + 1) * c * c + 2 * s1 * c <= rhs:
        out.append(c)
        c += 1
    return out


def sorted_vectors(r, total, lo=0):
    """All non-decreasing vectors of length r, entries >= lo, summing to total."""
    if r == 1:
        if total >= lo:
            yield (total,)
        return
    for v in range(lo, total // r + 1):
        for rest in sorted_vectors(r - 1, total - v, v):
            yield (v,) + rest


def brute_class(a, s, cap=None):
    """The full class of a as sorted [(b, C)] by sweeping every composition.

    For s = 1 the members are all vectors with sigma_1 congruent to
    sigma_1(a) mod r+1 up to cap; for s >= 2 the sweep covers shift_range(a).
    """
    r, s1 = len(a), sum(a)
    if s == 1:
        shifts = range(-(s1 // (r + 1)), (cap - s1) // (r + 1) + 1)
    else:
        shifts = shift_range(a)
    out = []
    for c in shifts:
        total = s1 + (r + 1) * c
        # sigma_2 of (0, b) is (total^2 - sum b_i^2) / 2: compare sums of squares
        # first, then confirm with the full sigma equalities.
        u = (c,) + tuple(x + c for x in a)
        squares = sum(x * x for x in u)
        for b in sorted_vectors(r, total):
            if (s == 1 or sum(x * x for x in b) == squares) and is_member(a, b, c, s):
                out.append((b, c))
    out.sort(key=lambda bc: (sum(bc[0]), bc[0]))
    return out


def brute_ok(a, s, cap=None):
    """Whether brute_class is cheap enough to run for this query."""
    if s == 1:
        return cap is not None and cap <= 40
    return sum(a) <= BRUTE_SIGMA1_MAX.get(len(a), 0)


# ---------------------------------------------------------------- classes


def check_members(a, s, members, cap=None):
    """members: [(b, C)] as reported.  Checks shape, order, sigma equalities,
    that a itself is present with C = 0, and completeness when affordable."""
    a = tuple(a)
    r = len(a)
    seen = set()
    prev = None
    for b, c in members:
        b = tuple(b)
        if len(b) != r:
            fail(f"member {b} has length {len(b)}, expected {r}")
        if any(x < 0 for x in b) or list(b) != sorted(b):
            fail(f"member {b} is not sorted and non-negative")
        if b in seen:
            fail(f"member {b} listed twice")
        seen.add(b)
        key = (sum(b), b)
        if prev is not None and key <= prev:
            fail(f"members out of order at {b}")
        prev = key
        if not is_member(a, b, c, s):
            fail(f"member {b} with shift {c} fails the sigma equalities for a = {a}")
        if s == 1 and cap is not None and sum(b) > cap:
            fail(f"member {b} exceeds the cap {cap}")
    if a not in seen:
        fail(f"the query {a} is missing from its own class")
    if brute_ok(a, s, cap):
        want = brute_class(a, s, cap)
        got = [(tuple(b), c) for b, c in members]
        if got != want:
            missing = sorted(set(want) - set(got))[:3]
            fail(f"class of {a} over s = {s} incomplete: missing {missing}")


def count_from(members, s, kappa):
    """N(kappa) from the member list: members with sigma_1(b) - s < kappa."""
    kappa = Fraction(kappa)
    return sum(1 for b, _ in members if sum(b) - s < kappa)


def check_breakpoints(members, s, breakpoints):
    """breakpoints: [(kappa, [b, ...])] must group the members by threshold."""
    want = {}
    for b, _ in members:
        want.setdefault(sum(b) - s, []).append(tuple(b))
    got_kappas = [k for k, _ in breakpoints]
    if got_kappas != sorted(want):
        fail(f"breakpoints {got_kappas} do not match thresholds {sorted(want)}")
    for k, bs in breakpoints:
        if [tuple(b) for b in bs] != sorted(want[k]):
            fail(f"breakpoint {k} lists {bs}, expected {sorted(want[k])}")


def check_census(a, s, result):
    """result: dict with members [(b, C)], breakpoints, stable, complete,
    counts [(kappa, value)] as the benchmark recorded them."""
    members = result["members"]
    check_members(a, s, members, cap=result.get("cap"))
    check_breakpoints(members, s, result["breakpoints"])
    if s >= 2:
        if result["stable"] != len(members):
            fail(f"stable count {result['stable']} != class size {len(members)}")
        if result["complete"] is not True:
            fail("an s >= 2 class must be reported complete")
    elif str(result["stable"]) != "infinite" or result["complete"] is not False:
        fail("a capped s = 1 listing must be reported infinite and not complete")
    for kappa, value in result.get("counts", ()):
        want = count_from(members, s, kappa)
        if value != want:
            fail(f"N({kappa}) = {value}, expected {want}")


def check_shift(a, b, s, c):
    """c: the reported witness shift or None (inequivalent)."""
    r = len(a)
    q, rem = divmod(sum(b) - sum(a), r + 1)
    want = q if not rem and is_member(a, b, q, s) else None
    if c != want:
        fail(f"shift of {a} -> {b} over s = {s} is {c}, expected {want}")


# ---------------------------------------------------------------- moves, families


def apply_step(v, step):
    v = list(v)
    kind = step[0]
    if kind in ("e1", "e1_inv"):
        d = 1 if kind == "e1" else -1
        v[0] += d
        v = [x + d for x in v]
    elif kind in ("eij", "eij_inv"):
        i, j = step[1] - 1, step[2] - 1
        if kind == "eij_inv":
            i, j = j, i
        v[i] -= 1
        v[j] += 1
    else:
        fail(f"unknown move {step!r}")
    return tuple(v)


def check_move_path(a, b, start, steps, end, floor):
    if tuple(start) != tuple(a) or tuple(end) != tuple(b):
        fail(f"path runs {start} -> {end}, expected {a} -> {b}")
    cur = tuple(a)
    top = sum(cur) - 1
    for step in steps:
        cur = apply_step(cur, step)
        top = max(top, sum(cur) - 1)
    if cur != tuple(b):
        fail(f"path from {a} replays to {cur}, expected {b}")
    if floor != top:
        fail(f"kappa floor {floor}, expected {top}")


def check_family(k, c, K, a, witnesses, lifted=None, lift=None):
    """witnesses: [(n, x, C, b)].  Each must satisfy the sigma equalities of
    (C, a + C) and (0, b) over s = 2, with pairwise coprime moduli."""
    if tuple(a) != (K, c + K):
        fail(f"family vector {a} is not (K, c + K) for K = {K}, c = {c}")
    if len(witnesses) != k - 1:
        fail(f"{len(witnesses)} witnesses for k = {k}")
    seen = {tuple(a)}
    mods = []
    for n, x, cw, b in witnesses:
        b = tuple(b)
        if min(b) < 0 or list(b) != sorted(b) or b in seen:
            fail(f"witness {b} is negative, unsorted or repeated")
        seen.add(b)
        if not is_member(tuple(a), b, cw, 2):
            fail(f"witness {b} with C = {cw} fails the sigma equalities")
        mods.append(n * n - n + 1)
    for i in range(len(mods)):
        for j in range(i + 1, len(mods)):
            if gcd(mods[i], mods[j]) != 1:
                fail(f"moduli {mods[i]} and {mods[j]} are not coprime")
    if lift is not None:
        if len(lifted) != k:
            fail(f"lift has {len(lifted)} vectors, expected {k}")
        first = tuple(lifted[0])
        for v in lifted:
            v = tuple(v)
            if len(v) != 2 + lift or min(v) < 0 or list(v) != sorted(v):
                fail(f"lifted vector {v} is malformed")
            if sigmas(v, 2) != sigmas(first, 2):
                fail(f"lifted vectors {first} and {v} are not equivalent with shift 0")
        if len({tuple(v) for v in lifted}) != k:
            fail("lifted vectors are not distinct")


# ---------------------------------------------------------------- polytopes


def normal_form(r, s, a, kappa):
    """The facets (conormal, constant) of the bundle polytope, from its definition."""
    n = r + s
    unit = lambda i, v: tuple(v if j == i else 0 for j in range(n))  # noqa: E731
    facets = [(unit(i, -1), Fraction(1)) for i in range(r)]
    facets.append(((1,) * r + (0,) * s, Fraction(1)))
    facets += [(unit(r + j, -1), Fraction(1)) for j in range(s)]
    facets.append((tuple(-x for x in a) + (1,) * s, Fraction(kappa)))
    return facets


def inverse(m):
    """Exact inverse of a square integer matrix by Gauss-Jordan; None if singular."""
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def image_facets(facets, matrix, translation, scale=1):
    """Facets of the image under x -> scale * matrix x + translation, sorted.

    <n, x> <= c becomes <M^-T n, y> <= scale c + <M^-T n, translation>.
    """
    minv = inverse(matrix)
    if minv is None:
        fail(f"matrix {matrix} is singular")
    n = len(matrix)
    scale = Fraction(scale)
    out = []
    for normal, c in facets:
        eta = [sum(minv[i][j] * normal[i] for i in range(n)) for j in range(n)]
        if any(x.denominator != 1 for x in eta):
            fail(f"matrix {matrix} is not unimodular")
        eta = tuple(int(x) for x in eta)
        out.append((eta, scale * Fraction(c) + sum(e * Fraction(t) for e, t in zip(eta, translation))))
    return sorted(out)


def fiber_lengths(r, s, a, kappa):
    """Fiber simplex edge lengths over the r+1 base vertices, sorted."""
    c0 = Fraction(kappa) + s - sum(a)
    return sorted([c0] + [c0 + (r + 1) * x for x in a])


def volume(r, s, a, kappa):
    """Exact volume: the integral of (1/s!) l^s over the base simplex is
    vol(base) r! s! / (r+s)! * h_s(l at the base vertices), and the values of l
    at the base vertices are the fiber lengths."""
    h = [Fraction(1)] + [Fraction(0)] * s
    for x in fiber_lengths(r, s, a, kappa):
        for k in range(1, s + 1):
            h[k] += x * h[k - 1]
    return Fraction((r + 1) ** r, factorial(r + s)) * h[s]


def nominal(r, s, kappa):
    return Fraction((r + 1) ** r, factorial(r) * factorial(s)) * (Fraction(kappa) + s) ** s


def check_vertices(facets, points, actives=None):
    """Every point satisfies every facet with exactly dim of them active, the
    points are distinct and sorted, and their number is (r+1)(s+1) for the
    product-of-simplices combinatorics (checked by the caller)."""
    dim = len(facets[0][0])
    if list(points) != sorted(points) or len(set(points)) != len(points):
        fail("vertices are not sorted and distinct")
    for idx, p in enumerate(points):
        act = set()
        for j, (normal, c) in enumerate(facets):
            val = sum(x * y for x, y in zip(normal, p))
            if val > c:
                fail(f"vertex {p} violates facet {j}")
            if val == c:
                act.add(j)
        if len(act) != dim:
            fail(f"vertex {p} has {len(act)} active facets, expected {dim}")
        if actives is not None and set(actives[idx]) != act:
            fail(f"vertex {p} reports active set {sorted(actives[idx])}, expected {sorted(act)}")


def check_form(facets, bundle, matrix, translation, scale):
    """A recognized presentation must carry the input facets onto the normal
    form of its own bundle, compared as facet sets."""
    r, s, a, kappa = bundle
    if len(a) != r or r + s != len(matrix) or any(x < 0 for x in a) or list(a) != sorted(a):
        fail(f"recognized bundle {bundle} is malformed")
    if Fraction(kappa) <= sum(a) - s:
        fail(f"recognized kappa {kappa} is at or below the degeneration threshold")
    if image_facets(facets, matrix, translation, scale) != sorted(normal_form(r, s, a, kappa)):
        fail(f"recognized map does not carry the polytope onto the normal form of {bundle}")


def check_volumes(r, s, a, kappa, exact, nom, fingerprint):
    if exact != volume(r, s, a, kappa):
        fail(f"exact volume {exact}, expected {volume(r, s, a, kappa)}")
    if nom != nominal(r, s, kappa):
        fail(f"nominal volume {nom}, expected {nominal(r, s, kappa)}")
    if (s == 1 or not any(a)) and exact != nom:
        fail("exact and nominal volumes must agree when s = 1 or a = 0")
    if list(fingerprint) != fiber_lengths(r, s, a, kappa):
        fail(f"fiber fingerprint {fingerprint}, expected {fiber_lengths(r, s, a, kappa)}")
