"""Small exact linear algebra over the integers.

One routine does the elimination: gauss_jordan, a fraction-free
Gauss-Jordan pass (Bareiss 1968, Math. Comp. 22) on an augmented matrix
[A | R] that yields det A and adj(A) R together -- a solve when R is a
column, the adjugate when R is the identity.  Every intermediate entry is a
minor of the input, so each division is exact and no Fraction is formed.
Matrices here are tiny (the ambient dimension of a polytope), so clarity and
exactness win over asymptotics.
"""

from operator import mul


def gauss_jordan(rows, extra):
    """(det A, adj(A) R) for a square integer matrix A and an integer matrix R
    with one row per row of A, by one fraction-free Gauss-Jordan pass on
    [A | R]; (0, None) when A is singular.  adj(A) = det(A) A^-1."""
    n = len(rows)
    m = [list(a) + list(e) for a, e in zip(rows, extra)]
    prev = 1
    for k in range(n):
        # m[i] holds columns k.. of row i; eliminated columns are dropped.
        if m[k][0] == 0:
            for i in range(k + 1, n):
                if m[i][0]:
                    # swap and negate, which keeps the determinant
                    m[k], m[i] = [-x for x in m[i]], m[k]
                    break
            else:
                return 0, None
        pk = m[k][0]
        row_k = m[k] = m[k][1:]
        for i in range(n):
            if i != k:
                mik = m[i][0]
                if mik:
                    m[i] = [(x * pk - mik * y) // prev for x, y in zip(m[i][1:], row_k)]
                else:
                    m[i] = [x * pk // prev for x in m[i][1:]]
        prev = pk
    return prev, m


def inverse_unimodular(rows):
    """Integer inverse of an integer matrix with determinant +-1 (Gauss-Jordan
    on [M | I])."""
    d, adj = gauss_jordan(rows, identity(len(rows)))
    if d not in (1, -1):
        raise ValueError(f"matrix is not unimodular (determinant {d})")
    return tuple(tuple(d * x for x in row) for row in adj)


def transpose(rows):
    return tuple(zip(*rows))


def mat_vec(rows, v):
    return tuple(dot(row, v) for row in rows)


def dot(u, v):
    return sum(map(mul, u, v))


def identity(n: int):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
