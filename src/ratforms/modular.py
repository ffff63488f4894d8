"""Modular-arithmetic utilities: primality, prime selection, CRT and
rational reconstruction, plus deterministic seed derivation.

Everything here is deterministic.  Randomized callers derive their RNG
from (seed, label) pairs via :func:`derive_seed` so that identical
inputs always replay the same sample sequence.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction

# The two largest 31-bit primes; defaults for every sampling backend.
M31 = 2147483647
DEFAULT_PRIMES = (2147483647, 2147483629)

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin; deterministic for n < 3.3e24 with the fixed bases."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_below(bound: int, count: int = 2) -> tuple[int, ...]:
    """The `count` largest primes strictly below `bound`, descending."""
    if bound <= 3:
        raise ValueError("bound too small")
    found = []
    n = bound - 1
    while len(found) < count and n >= 2:
        if is_probable_prime(n):
            found.append(n)
        n -= 1
    if len(found) < count:
        raise ValueError("not enough primes below bound")
    return tuple(found)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns (g, s, t) with s*a + t*b = g = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def inv_mod(a: int, p: int) -> int:
    try:
        return pow(a, -1, p)
    except ValueError:
        raise ZeroDivisionError(f"{a} not invertible mod {p}") from None


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """Residue mod m1*m2 congruent to r1 mod m1 and r2 mod m2 (coprime moduli)."""
    g, s, _ = xgcd(m1, m2)
    if g != 1:
        raise ValueError("moduli not coprime")
    return (r1 + (r2 - r1) * s % m2 * m1) % (m1 * m2)


def rational_reconstruct(a: int, m: int) -> Fraction | None:
    """Recover n/d == a (mod m) with |n|, d <= sqrt(m/2), gcd(d, m) = 1.

    Standard half-extended Euclid lattice reduction.  Returns None when no
    representative exists within the bound (caller should add more primes).
    """
    a %= m
    if a == 0:
        return Fraction(0)
    bound = int((m // 2) ** 0.5)
    old_r, r = m, a
    old_t, t = 0, 1
    while r > bound:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_t, t = t, old_t - q * t
    if abs(t) > bound or t == 0:
        return None
    if xgcd(t, m)[0] != 1:
        return None
    if t < 0:
        r, t = -r, -t
    return Fraction(r, t)


def frac_mod(c: Fraction, p: int) -> int:
    """Image of an exact rational in GF(p); raises if the denominator drops."""
    den = c.denominator % p
    if den == 0:
        raise ZeroDivisionError(f"denominator {c.denominator} vanishes mod {p}")
    return c.numerator % p * inv_mod(den, p) % p


def derive_seed(seed: int, label: str) -> int:
    h = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(h[:8], "big")


def rng_for(seed: int, label: str) -> random.Random:
    """Deterministic per-purpose RNG; independent labels give independent streams."""
    return random.Random(derive_seed(seed, label))


def rank_mod(rows: list[list[int]], p: int) -> int:
    """Rank of an integer matrix over GF(p), destructive on a local copy."""
    m = [[x % p for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, nrows):
            if m[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = inv_mod(m[rank][col], p)
        prow = m[rank]
        for j in range(col, ncols):
            prow[j] = prow[j] * inv % p
        for i in range(nrows):
            if i != rank and m[i][col]:
                f = m[i][col]
                row = m[i]
                for j in range(col, ncols):
                    row[j] = (row[j] - f * prow[j]) % p
        rank += 1
        if rank == nrows:
            break
    return rank


def nullspace_vector_mod(rows: list[list[int]], p: int) -> list[int] | None:
    """One deterministic nullspace vector of the matrix over GF(p).

    Reduces to RREF and, if any free column exists, returns the canonical
    kernel vector for the first free column (that coordinate set to 1).
    Returns None when the kernel is trivial.
    """
    m = [[x % p for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: list[int] = []  # pivots[i] = column of pivot in row i
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, nrows):
            if m[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = inv_mod(m[rank][col], p)
        prow = m[rank]
        for j in range(col, ncols):
            prow[j] = prow[j] * inv % p
        for i in range(nrows):
            if i != rank and m[i][col]:
                f = m[i][col]
                row = m[i]
                for j in range(col, ncols):
                    row[j] = (row[j] - f * prow[j]) % p
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    pivot_set = set(pivots)
    free = next((c for c in range(ncols) if c not in pivot_set), None)
    if free is None:
        return None
    vec = [0] * ncols
    vec[free] = 1
    for i, pc in enumerate(pivots):
        vec[pc] = (-m[i][free]) % p
    return vec


@dataclass(frozen=True)
class PrimeCtx:
    """Evaluation context for probabilistic identity testing.

    p must be prime (>= 2**30 for the default soundness margins); seed
    feeds the deterministic sample streams.
    """

    p: int
    seed: int = 0

    def __post_init__(self):
        if not is_probable_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    def rng(self, label: str) -> random.Random:
        return rng_for(self.seed, f"{self.p}:{label}")
