"""Modular-arithmetic utilities: primality, prime selection, CRT and
rational reconstruction, univariate division and row reduction over
GF(p), plus deterministic seed derivation.  The one Horner loop on
univariate coefficient lists lives here too (_eval): its callers reduce
its value themselves, modulo a prime or a prime power, or read it exactly.

Everything here is deterministic.  Randomized callers derive their RNG
from (seed, label) pairs via :func:`derive_seed` so that identical
inputs always replay the same sample sequence.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

# The two largest 31-bit primes; defaults for every sampling backend.
DEFAULT_PRIMES = (2147483647, 2147483629)
#: Random draws a sampling loop may spend before it gives up.
RETRIES = 64

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=4096)
def is_probable_prime(n: int) -> bool:
    """Miller-Rabin; deterministic for n < 3.3e24 with the fixed bases.

    Memoised: a prime pool that passes over a given prime (see
    coprime_primes) walks the same integers below it on every call, so the
    walk tests each one once per process; the bound keeps the cache small
    under any walk.
    """
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


def coprime_primes(primes: tuple[int, ...], den: int, count: int) -> Iterator[int]:
    """Up to `count` primes that do not divide den, lazily: those of
    `primes`, then the largest primes below all of them, then, once those
    run out, the smallest primes above all of them.

    Repeated walks test the same integers, so after the first walk their
    primality comes from is_probable_prime's cache.
    """
    below = range(min(primes) - 1, 1, -1)
    above = itertools.count(max(primes) + 1)
    walk = itertools.chain(primes, filter(is_probable_prime, itertools.chain(below, above)))
    return itertools.islice((q for q in walk if den % q), count)


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """Residue mod m1*m2 congruent to r1 mod m1 and r2 mod m2 (coprime moduli)."""
    if gcd(m1, m2) != 1:
        raise ValueError("moduli not coprime")
    return (r1 + (r2 - r1) * pow(m1, -1, m2) % m2 * m1) % (m1 * m2)


def rational_reconstruct(a: int, m: int) -> Fraction | None:
    """Recover n/d == a (mod m) with |n|, d <= sqrt(m/2), gcd(d, m) = 1.

    Standard half-extended Euclid lattice reduction.  Returns None when no
    representative exists within the bound (caller should add more primes).
    """
    a %= m
    if a == 0:
        return Fraction(0)
    bound = isqrt(m // 2)
    old_r, r = m, a
    old_t, t = 0, 1
    while r > bound:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_t, t = t, old_t - q * t
    if abs(t) > bound or t == 0:
        return None
    if gcd(t, m) != 1:
        return None
    if t < 0:
        r, t = -r, -t
    return Fraction(r, t)


def derive_seed(seed: int, label: str) -> int:
    h = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(h[:8], "big")


def rng_for(seed: int, label: str) -> random.Random:
    """Deterministic per-purpose RNG; independent labels give independent streams."""
    return random.Random(derive_seed(seed, label))


def _trim(f: list[int]) -> list[int]:
    while f and not f[-1]:
        f.pop()
    return f


def _eval(a: list, x):
    """a(x) by Horner's rule, for a coefficient list a, lowest first, and
    any x its coefficients mix with; unreduced."""
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _divmod_mod(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of f by the nonzero g over GF(p)."""
    r = list(f)
    dg = len(g) - 1
    inv = pow(g[-1], -1, p)
    q = [0] * max(0, len(r) - dg)
    for k in range(len(r) - 1, dg - 1, -1):
        c = r[k] * inv % p
        if c:
            q[k - dg] = c
            for j in range(dg + 1):
                r[k - dg + j] = (r[k - dg + j] - c * g[j]) % p
    return _trim(q), _trim(r[:dg])


def _rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over GF(p) of a copy of the matrix.

    Returns the reduced matrix and its pivot columns; pivot k sits in row k.
    """
    m = [[x % p for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        pivot = None
        for i in range(rank, nrows):
            if m[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], -1, p)
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
        if len(pivots) == nrows:
            break
    return m, pivots


def rank_mod(rows: list[list[int]], p: int) -> int:
    """Rank of an integer matrix over GF(p)."""
    return len(_rref(rows, p)[1])


def nullspace_vector_mod(rows: list[list[int]], p: int) -> list[int] | None:
    """One deterministic nullspace vector of the matrix over GF(p).

    Reduces to RREF and, if any free column exists, returns the canonical
    kernel vector for the first free column (that coordinate set to 1).
    Returns None when the kernel is trivial.
    """
    m, pivots = _rref(rows, p)
    ncols = len(m[0]) if m else 0
    pivot_set = set(pivots)
    free = next((c for c in range(ncols) if c not in pivot_set), None)
    if free is None:
        return None
    vec = [0] * ncols
    vec[free] = 1
    for i, pc in enumerate(pivots):
        vec[pc] = (-m[i][free]) % p
    return vec
