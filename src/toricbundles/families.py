"""Certified families with many inequivalent toric structures (r = s = 2).

For a = (K, c+K) the sigma equations admit, for each modulus
N = n^2 - n + 1 dividing (n-1)c - K, an explicit witness vector b built from
x = n((n-1)c - K)/N and C = x/n.  Choosing pairwise coprime moduli and
solving the simultaneous congruences with the Chinese remainder theorem
yields one a whose class provably contains k distinct members; every
certificate is re-verified against the raw sigma equalities before it is
returned.  lift_class pads such a family to longer vectors (r > 2) without
breaking pairwise equivalence over s = 2.
"""

from collections import namedtuple
from math import factorial, gcd

from .equiv import find_shift
from .errors import CertificateInvalid
from .symfun import Vec, elem_sym_all, shift

_K_SCAN_STEPS = 64


class Witness(namedtuple("Witness", "n x C b")):
    """One class member b for a = (K, c+K), produced by the modulus of n."""

    __slots__ = ()


class FamilyCertificate(
    namedtuple("FamilyCertificate", "k c strategy n_seq moduli K a witnesses")
):
    __slots__ = ()


def _modulus(n: int) -> int:
    return n * n - n + 1


def _largest_prime_factor(m: int, limit: int = 10**6) -> int:
    best = 1
    d = 2
    while d * d <= m:
        if d > limit:
            raise ValueError(
                f"trial division beyond {limit} needed to factor {m}; "
                "the factorial strategy only supports small k"
            )
        while m % d == 0:
            best = d
            m //= d
        d += 1
    return m if m > 1 else best


def coprime_sequence(k: int, strategy: str = "greedy") -> list[int]:
    """k-1 values of n whose moduli n^2 - n + 1 are pairwise coprime.

    greedy: smallest admissible n each time (2, 3, 4, 6, 7, ...).
    factorial: n_1 = 2, then each n is the factorial of the largest prime
    factor of the previous modulus; exact but astronomically large from the
    third term on, and factoring stops it soon after.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if strategy == "greedy":
        ns: list[int] = []
        mods: list[int] = []
        n = 2
        while len(ns) < k - 1:
            m = _modulus(n)
            if all(gcd(m, seen) == 1 for seen in mods):
                ns.append(n)
                mods.append(m)
            n += 1
    elif strategy == "factorial":
        ns = [2]
        while len(ns) < k - 1:
            ns.append(factorial(_largest_prime_factor(_modulus(ns[-1]))))
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    mods = [_modulus(n) for n in ns]
    for i in range(len(mods)):
        for j in range(i + 1, len(mods)):
            if gcd(mods[i], mods[j]) != 1:
                raise CertificateInvalid(
                    f"moduli {mods[i]} and {mods[j]} are not coprime"
                )
    return ns


def _crt(residues, moduli) -> int:
    """Smallest non-negative solution of x = r_i mod m_i (moduli coprime)."""
    x = 0
    m = 1
    for r, mod in zip(residues, moduli):
        t = ((r - x) * pow(m, -1, mod)) % mod
        x += m * t
        m *= mod
    return x % m


def _sigma12(v) -> tuple[int, int]:
    sig = elem_sym_all(v, 2)
    return sig[1], sig[2]


def _attempt(k, c, strategy, ns, mods, K):
    """Build the certificate at one K, or None when a witness degenerates."""
    a = (K, c + K)
    seen = {a}
    witnesses = []
    for n, mod in zip(ns, mods):
        x, rem = divmod(n * ((n - 1) * c - K), mod)
        if rem:
            raise CertificateInvalid(
                f"x for n = {n} is not an integer although K = {K} satisfies "
                "the congruence"
            )
        C, rem = divmod(x, n)
        if rem:
            raise CertificateInvalid(f"x = {x} is not divisible by n = {n}")
        b = tuple(sorted((C + K + x, 2 * C + c + K - x)))
        if b[0] < 0:
            return None
        if _sigma12((0,) + b) != _sigma12((C, C + K, C + c + K)):
            raise CertificateInvalid(
                f"sigma equalities fail for n = {n}, K = {K}: b = {b}, C = {C}"
            )
        if b in seen:
            return None
        seen.add(b)
        witnesses.append(Witness(n, x, C, b))
    return FamilyCertificate(
        k, c, strategy, tuple(ns), tuple(mods), K, a, tuple(witnesses)
    )


def generate_family(k: int, c: int = 2, strategy: str = "greedy") -> FamilyCertificate:
    """A certified class with at least k members, a = (K, c+K).

    Solves K = (n_i - 1) c mod N_i simultaneously; the smallest solution can
    make a witness collapse onto a itself (x_i = 0), so K advances through
    the residue class until every witness is distinct, non-negative, and
    passes the sigma checks.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if c < 2:
        raise ValueError("c must be at least 2 (c = 1 degenerates)")
    ns = coprime_sequence(k, strategy)
    mods = [_modulus(n) for n in ns]
    k0 = _crt([(n - 1) * c % m for n, m in zip(ns, mods)], mods)
    period = 1
    for m in mods:
        period *= m
    for t in range(_K_SCAN_STEPS):
        cert = _attempt(k, c, strategy, ns, mods, k0 + t * period)
        if cert is not None:
            return cert
    raise CertificateInvalid(
        f"no valid K among the first {_K_SCAN_STEPS} solutions of the congruences"
    )


def lift_class(cert: FamilyCertificate, l: int) -> list[Vec]:
    """Pad every class member to length 2 + l, preserving equivalence over s = 2.

    Each member (with shift C relative to a) is shifted up by C* - C where
    C* = max(0, all witness shifts), prefixed by that gap and l-1 zeros, and
    sorted; the lifted vectors all share sigma_1 and sigma_2, which is
    re-verified pairwise before returning.
    """
    if l < 1:
        raise ValueError("l must be at least 1")
    members = [(cert.a, 0)] + [(w.b, w.C) for w in cert.witnesses]
    cstar = max(0, max(w.C for w in cert.witnesses))
    lifted = []
    for vec, c in members:
        gap = cstar - c
        out = tuple(sorted((0,) * (l - 1) + (gap,) + shift(vec, gap)))
        if out[0] < 0:
            raise CertificateInvalid(f"lift of {vec} has a negative entry: {out}")
        lifted.append(out)
    for i in range(len(lifted)):
        for j in range(i + 1, len(lifted)):
            if find_shift(lifted[i], lifted[j], 2) != 0:
                raise CertificateInvalid(
                    f"lifted vectors {lifted[i]} and {lifted[j]} are not "
                    "equivalent with shift 0"
                )
    return lifted
