"""Exact elementary symmetric function arithmetic on integer vectors.

All functions are pure and work on plain sequences of Python ints, so every
value is arbitrary precision and nothing here ever touches floats.
"""

from .errors import IndexOutOfRange, LengthMismatch

Vec = tuple[int, ...]


def elem_sym_all(entries, upto: int) -> list[int]:
    """Return [sigma_0, ..., sigma_upto] by the one-pass O(n * upto) recurrence.

    Entries beyond the vector length come out as 0, matching the convention
    that sigma_i of an n-vector vanishes for i > n.
    """
    e = [0] * (upto + 1)
    e[0] = 1
    for x in entries:
        for j in range(upto, 0, -1):
            e[j] += x * e[j - 1]
    return e


def elem_sym(entries, i: int) -> int:
    """The i-th elementary symmetric function sigma_i(entries); sigma_0 = 1."""
    n = len(entries)
    if i < 0 or i > n:
        raise IndexOutOfRange(f"sigma_{i} is undefined for a vector of length {n}")
    return elem_sym_all(entries, i)[i]


def truncated_sym_equal(u, v, m: int) -> bool:
    """True iff sigma_i(u) == sigma_i(v) for every 1 <= i <= m."""
    if len(u) != len(v):
        raise LengthMismatch(f"vectors have lengths {len(u)} and {len(v)}")
    if not 1 <= m <= len(u):
        raise IndexOutOfRange(f"truncation degree {m} not in 1..{len(u)}")
    return elem_sym_all(u, m)[1:] == elem_sym_all(v, m)[1:]


def shift(v, c: int) -> Vec:
    """Add the constant c to every entry."""
    return tuple(x + c for x in v)


def chern_coeffs(v, m: int) -> list[int]:
    """Coefficients of t^0..t^m of prod_j (1 - v_j t); entry k is (-1)^k sigma_k(v).

    The product has degree len(v), so coefficients past that are 0.
    """
    if m < 1:
        raise IndexOutOfRange(f"need m >= 1, got {m}")
    deg = min(m, len(v))
    e = elem_sym_all(v, deg)
    out = [(-1) ** k * e[k] for k in range(deg + 1)]
    out.extend([0] * (m - deg))
    return out


def exponent_vector(entries) -> Vec:
    """Validate and return a canonical exponent vector (non-negative, sorted).

    Raises ValueError on an empty vector, a negative, boolean or non-integer entry,
    or entries out of non-decreasing order; callers that accept unsorted
    user input should sort before calling.
    """
    v = tuple(entries)
    if not v:
        raise ValueError("an exponent vector must have length >= 1")
    for x in v:
        if isinstance(x, bool) or not isinstance(x, int):
            raise ValueError(f"exponent entries must be integers, got {x!r}")
        if x < 0:
            raise ValueError(f"exponent entries must be non-negative, got {x}")
    if any(v[i] > v[i + 1] for i in range(len(v) - 1)):
        raise ValueError(f"exponent entries must be sorted non-decreasing: {v}")
    return v
