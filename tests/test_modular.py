"""Tests for modular arithmetic helpers: primes, CRT, reconstruction, ranks."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain, count
from math import isqrt, prod

import pytest

from ratforms.modular import (
    DEFAULT_PRIMES,
    coprime_primes,
    crt_pair,
    is_probable_prime,
    nullspace_vector_mod,
    primes_below,
    rank_mod,
    rational_reconstruct,
    rng_for,
)


def test_default_primes_are_the_two_largest_31_bit_primes():
    assert DEFAULT_PRIMES == (2147483647, 2147483629)
    assert primes_below(1 << 31, 2) == DEFAULT_PRIMES


def test_primes_below_small_bounds():
    assert primes_below(10, 3) == (7, 5, 3)
    assert primes_below(4, 1) == (3,)
    for p in primes_below(1 << 20, 4):
        assert is_probable_prime(p)
    try:
        primes_below(3, 1)
        raise AssertionError("expected ValueError for tiny bound")
    except ValueError:
        pass


def test_is_probable_prime_on_known_values():
    assert is_probable_prime(2)
    assert is_probable_prime(2147483647)
    assert not is_probable_prime(1)
    assert not is_probable_prime(2147483647 * 2147483629)
    carmichael = 561
    assert not is_probable_prime(carmichael)


def _reference_pool(primes, den, want):
    """coprime_primes by a plain walk with the uncached primality test."""
    prime = is_probable_prime.__wrapped__
    pool = [p for p in primes if den % p]
    for q in chain(range(min(primes) - 1, 1, -1), count(max(primes) + 1)):
        if len(pool) >= want:
            return tuple(pool)
        if den % q and prime(q):
            pool.append(q)


@pytest.mark.parametrize(
    "primes, den, want, pool",
    (
        # the default primes and a full certificate pool (24 lift primes and
        # a spare)
        (DEFAULT_PRIMES, 1, 25, None),
        # the 4-bit pool walks every prime below the given ones, then goes on
        # above them
        ((13, 11), 1, 8, (13, 11, 7, 5, 3, 2, 17, 19)),
        # a pool prime dividing den is skipped, the walk goes on below
        (DEFAULT_PRIMES, 5 * 2147483629 * 2147483587, 6, None),
        ((13, 11), 5 * 11, 6, (13, 7, 3, 2, 17, 19)),
        # every prime below divides den: the top-up is above the given ones
        ((13, 11), 30030, 2, (17, 19)),
    ),
    ids=("default", "4-bit", "default-divisor", "4-bit-divisor", "above"),
)
def test_coprime_primes_matches_an_uncached_walk(primes, den, want, pool):
    got = tuple(coprime_primes(primes, den, want))
    assert got == _reference_pool(primes, den, want)
    assert pool is None or got == pool


def test_a_repeated_prime_pool_runs_no_primality_test():
    from ratforms.oracle import MAX_LIFT_PRIMES, prime_pool
    from ratforms.ratfun import parse

    fs = [parse("x/3 + y^2", ("x", "y")), parse("x*y", ("x", "y"))]
    assert is_probable_prime.cache_info().maxsize is not None
    first = tuple(prime_pool(DEFAULT_PRIMES, fs, MAX_LIFT_PRIMES + 1))
    misses = is_probable_prime.cache_info().misses
    assert tuple(prime_pool(DEFAULT_PRIMES, fs, MAX_LIFT_PRIMES + 1)) == first
    assert is_probable_prime.cache_info().misses == misses


def test_crt_pair_agrees_with_both_moduli():
    rng = random.Random(11)
    p, q = DEFAULT_PRIMES
    for _ in range(20):
        x = rng.randrange(p * q)
        r = crt_pair(x % p, p, x % q, q)
        assert r == x
    with pytest.raises(ValueError):
        crt_pair(1, 6, 2, 9)


def test_rational_reconstruction_roundtrip():
    rng = random.Random(13)
    p, q = DEFAULT_PRIMES
    m = p * q
    for _ in range(50):
        val = Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**4))
        residue = (val.numerator * pow(val.denominator, -1, m)) % m
        assert rational_reconstruct(residue, m) == val


def test_rational_reconstruction_reaches_its_exact_bound():
    # the modulus of a full 24-prime certificate lift, and one past 2^1024
    m = prod(primes_below(1 << 31, 24))
    n = isqrt(m // 2) - 1
    assert rational_reconstruct(n % m, m) == n
    m = prod(primes_below(1 << 31, 40))
    assert m > 1 << 1024
    assert rational_reconstruct(3 * pow(7, -1, m) % m, m) == Fraction(3, 7)


def test_rng_for_is_deterministic_and_label_separated():
    a1 = rng_for(0, "alpha").random()
    a2 = rng_for(0, "alpha").random()
    b = rng_for(0, "beta").random()
    c = rng_for(1, "alpha").random()
    assert a1 == a2
    assert a1 != b
    assert a1 != c


def test_rank_mod_known_matrices():
    p = 97
    assert rank_mod([[1, 0], [0, 1]], p) == 2
    assert rank_mod([[1, 2], [2, 4]], p) == 1
    assert rank_mod([[0, 0], [0, 0]], p) == 0
    assert rank_mod([[1, 2, 3], [4, 5, 6], [7, 8, 9]], p) == 2


def test_nullspace_vector_is_in_the_kernel():
    p = 2147483647
    rows = [[1, 2, 3], [2, 4, 6]]
    v = nullspace_vector_mod(rows, p)
    assert v is not None and any(v)
    for row in rows:
        assert sum(r * x for r, x in zip(row, v)) % p == 0
    assert nullspace_vector_mod([[1, 0], [0, 1]], p) is None


@pytest.mark.parametrize("p", (7, 101))
def test_rank_and_nullspace_share_one_reduction(p):
    """Random tall, wide, square and zero matrices mod a small prime.

    nullspace_vector_mod returns None exactly when rank_mod equals the
    number of columns, and any vector it returns is a nonzero kernel vector.
    """
    rng = random.Random(p)
    for nrows, ncols in ((6, 3), (3, 6), (4, 4), (5, 1), (1, 5)):
        # density: the share of entries that are not multiples of p; 0 gives
        # matrices that are zero mod p, low densities give rank deficiency
        for density in (0.0, 0.3, 1.0):
            for _ in range(6):
                rows = [
                    [rng.randrange(-3 * p, 3 * p) if rng.random() < density
                     else p * rng.randrange(-2, 3) for _ in range(ncols)]
                    for _ in range(nrows)
                ]
                rank = rank_mod(rows, p)
                assert 0 <= rank <= min(nrows, ncols)
                vec = nullspace_vector_mod(rows, p)
                assert (vec is None) == (rank == ncols)
                if vec is not None:
                    assert len(vec) == ncols and any(vec)
                    for row in rows:
                        assert sum(r * x for r, x in zip(row, vec)) % p == 0
    assert rank_mod([], p) == 0
    assert nullspace_vector_mod([], p) is None

