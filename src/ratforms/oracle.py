"""Exact oracles: symbolic rank and polynomial relations.

symbolic_rank eliminates the *symbolic* Jacobian with fraction-free
Bareiss steps, so its answer is exact and shares no randomness with
generic_rank.  annihilating_poly searches for an exact polynomial
relation among given functions; composition_relation finds the relation
a(q)*p - b(q) of P = (b/a)(s) far faster, and the certificate search
tries it first.  Every returned relation is verified by exact
composition, never by sampling alone.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import partial

from .modular import (
    DEFAULT_PRIMES,
    _divmod_mod,
    _eval_uni_mod,
    _interpolate_mod,
    _trim,
    coprime_primes,
    crt_pair,
    nullspace_vector_mod,
    rational_reconstruct,
    rng_for,
)
from .poly import Poly, divexact, grlex_key
from .ratfun import RatFun, compose_numerator, pole_free_values
from .dimension import DoublingMap

MAX_ORACLE_DEGREE = 6


class OracleGuardError(ValueError):
    """Input outside the size range the exact oracle is willing to handle."""


def symbolic_rank(dm: DoublingMap) -> int:
    """Exact generic rank of the doubling-map Jacobian.

    Row b of the Jacobian, scaled by its own squared denominator (a
    nonzero function, so rank is preserved), has polynomial entries
    (N_i' D - N D_i') renamed through the copy pattern of b.  Bareiss
    fraction-free elimination with full pivoting then counts pivots; all
    divisions are exact, so the count is the true rank over Q(x).
    """
    f = dm.f
    if f.total_degree() > MAX_ORACLE_DEGREE:
        raise OracleGuardError(
            f"symbolic rank limited to total degree {MAX_ORACLE_DEGREE}"
        )
    n = dm.n
    m = 2 * n
    num, den = f.num, f.den
    cleared = [
        num.derivative(i) * den - num * den.derivative(i) for i in range(n)
    ]
    rows: list[list[Poly]] = []
    for b in range(1 << n):
        mapping = tuple(i + n * ((b >> i) & 1) for i in range(n))
        row = [Poly.zero(m)] * m
        for i in range(n):
            row[mapping[i]] = cleared[i].embed(m, mapping)
        rows.append(row)

    rank = 0
    prev = Poly.const(1, m)
    nrows, ncols = len(rows), m
    k = 0
    while k < min(nrows, ncols):
        pivot = None
        for i in range(k, nrows):
            for j in range(k, ncols):
                e = rows[i][j]
                if not e.is_zero:
                    if pivot is None or len(e.ints) < len(rows[pivot[0]][pivot[1]].ints):
                        pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        rows[k], rows[pi] = rows[pi], rows[k]
        if pj != k:
            for r in rows:
                r[k], r[pj] = r[pj], r[k]
        piv = rows[k][k]
        for i in range(k + 1, nrows):
            rik = rows[i][k]
            for j in range(k + 1, ncols):
                t = rows[i][j] * piv - rik * rows[k][j]
                rows[i][j] = t if prev.is_constant and prev.constant_value() == 1 else divexact(t, prev)
            rows[i][k] = Poly.zero(m)
        prev = piv
        rank += 1
        k += 1
    return rank


# ---------------------------------------------------------------------------
# annihilating polynomial search
# ---------------------------------------------------------------------------


def _monomials(k: int, d: int) -> list[tuple[int, ...]]:
    out = [e for e in itertools.product(range(d + 1), repeat=k) if sum(e) <= d]
    out.sort(key=grlex_key)
    return out


def _kernel_vector(fs, monos, d, seed, p):
    """Kernel vector mod p of the monomials f^a evaluated at random points.

    Returns None when a point cannot be drawn or the matrix has full rank;
    full rank is an exact proof that no degree-d relation exists.
    """
    pts = pole_free_values(fs, len(monos) + 8, p, rng_for(seed, f"ann:d{d}:p{p}"))
    if pts is None:
        return None
    k = len(fs)
    rows = []
    for vals in pts:
        pows = [[1] * (d + 1) for _ in range(k)]
        for i in range(k):
            for e in range(1, d + 1):
                pows[i][e] = pows[i][e - 1] * vals[i] % p
        rows.append([_prod_mod(pows, a, p) for a in monos])
    return nullspace_vector_mod(rows, p)


def _prod_mod(pows, a, p):
    v = 1
    for i, e in enumerate(a):
        if e:
            v = v * pows[i][e] % p
    return v


def _normalize_coeffs(vec: list[Fraction], monos) -> dict | None:
    """Integer-primitive coefficients with positive leading (grlex) sign."""
    support = [(a, c) for a, c in zip(monos, vec) if c]
    if not support:
        return None
    from math import gcd, lcm

    den = lcm(*(c.denominator for _, c in support))
    ints = [(a, int(c * den)) for a, c in support]
    g = 0
    for _, c in ints:
        g = gcd(g, c)
    ints = [(a, c // g) for a, c in ints]
    # sign convention: positive coefficient on the lex-greatest monomial,
    # first slot dominant (so relations read "p ... = ...")
    lead = max(ints, key=lambda t: t[0])
    if lead[1] < 0:
        ints = [(a, -c) for a, c in ints]
    return dict(ints)


def annihilating_poly(
    fs: list[RatFun],
    dmax: int,
    primes: tuple[int, ...] = DEFAULT_PRIMES,
    seed: int = 0,
) -> Poly | None:
    """Lowest-degree polynomial relation A with A(f_1,...,f_k) = 0, or None.

    Degrees are tried incrementally.  Candidate relations come from the
    nullspace of a modular evaluation matrix, are lifted to Q by CRT plus
    rational reconstruction, and count only if exact composition vanishes
    identically.  A full-rank evaluation matrix modulo any prime is an
    exact proof that no relation of that degree exists.
    """
    k = len(fs)
    if not 2 <= k <= 8:
        raise ValueError("relation search supports between 2 and 8 functions")
    arity = fs[0].arity
    if any(f.arity != arity for f in fs):
        raise ValueError("functions must share one ambient variable list")
    pool = prime_pool(primes, fs)
    for d in range(1, dmax + 1):
        monos = _monomials(k, d)
        solve = partial(_kernel_vector, fs, monos, d, seed)
        cand = _lift_and_verify(fs, monos, len(primes), pool, solve)
        if cand is not None:
            return cand
    return None


def prime_pool(primes: tuple[int, ...], fs: list[RatFun], count: int = 6) -> tuple[int, ...]:
    """`count` primes modulo which every function of fs has an image: the
    given primes that divide no coefficient denominator of fs, then the
    largest such primes below them (see coprime_primes)."""
    den = 1
    for f in fs:
        den *= f.num.content.denominator * f.den.content.denominator
    return coprime_primes(primes, den, count)


def _lift_and_verify(fs, monos, nprimes, pool, solve):
    """Relation with coefficients on monos from per-prime vectors, or None.

    solve(p) returns the coefficient vector mod p, scaled the same way at
    every prime, or None.  None at the first prime ends the search; at a
    later one it skips that prime (one too small to give enough distinct
    sample values, or an unlucky one).  From the first nprimes vectors on,
    they are CRT-combined, reconstructed over Q and normalized, and the
    candidate counts only if its exact composition with fs vanishes.  A
    failed reconstruction or a nonzero composition only ever means an
    unlucky prime; more primes are drawn until the pool runs dry
    (soundness never depends on this path).
    """
    used = []
    for p in pool:
        v = solve(p)
        if v is None:
            if p == pool[0]:
                return None
            continue
        used.append((p, v))
        if len(used) < nprimes:
            continue
        acc = list(used[0][1])
        m = used[0][0]
        for q, w in used[1:]:
            acc = [crt_pair(a, m, b, q) for a, b in zip(acc, w)]
            m *= q
        rat = [rational_reconstruct(a % m, m) for a in acc]
        if all(r is not None for r in rat):
            coeffs = _normalize_coeffs(rat, monos)
            if coeffs:
                cand = Poly.from_ints(coeffs, len(fs))
                if compose_numerator(cand, fs).is_zero:
                    return cand
    return None


# ---------------------------------------------------------------------------
# composition relations by Cauchy interpolation
# ---------------------------------------------------------------------------

#: Sample points beyond the 2m + 1 interpolation nodes that a fitted
#: relation must also satisfy before it is lifted.
_CONFIRM_POINTS = 3


def _conv_mod(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = (out[i + j] + x * y) % p
    return out


def _sub_mod(f: list[int], g: list[int], p: int) -> list[int]:
    n = max(len(f), len(g))
    f, g = f + [0] * (n - len(f)), g + [0] * (n - len(g))
    return _trim([(a - b) % p for a, b in zip(f, g)])


def _cauchy_mod(pts: list[list[int]], m: int, p: int) -> dict | None:
    """Relation a(q)*p - b(q) mod p with deg a, deg b <= m, or None.

    pts holds (t_i, v_i) = (s, P) values with distinct t_i.  The first
    2m + 1 points fix b/a: the half-extended Euclidean algorithm on
    (prod (t - t_i), U), with U interpolating them, stops at the first
    remainder of degree <= m, which is b, with its cofactor a (von zur
    Gathen & Gerhard, Modern Computer Algebra, 5.7-5.9).  The remaining
    points must satisfy the relation too.  The result maps exponents in
    (p, q) to residues, scaled so that the grlex-leading one is 1.
    """
    n = 2 * m + 1
    ts = [t for t, _ in pts[:n]]
    r0: list[int] = [1]
    for t in ts:
        r0 = _conv_mod(r0, [-t % p, 1], p)
    r1 = _interpolate_mod(ts, [v for _, v in pts[:n]], p)
    c0: list[int] = []
    c1: list[int] = [1]
    while len(r1) > m + 1:
        quo, rem = _divmod_mod(r0, r1, p)
        r0, r1 = r1, rem
        c0, c1 = c1, _sub_mod(c0, _conv_mod(quo, c1, p), p)
    a, b = c1, r1
    for t, v in pts[n:]:
        if (_eval_uni_mod(a, t, p) * v - _eval_uni_mod(b, t, p)) % p:
            return None
    rel = {(1, i): c for i, c in enumerate(a) if c}
    rel.update({(0, j): -c % p for j, c in enumerate(b) if c})
    inv = pow(rel[max(rel, key=grlex_key)], -1, p)
    return {e: c * inv % p for e, c in rel.items()}


def composition_relation(
    P: RatFun,
    s: RatFun,
    dmax: int,
    primes: tuple[int, ...] = DEFAULT_PRIMES,
    seed: int = 0,
) -> Poly | None:
    """Relation a(q)*p - b(q) with a(s)*P = b(s) exactly, or None.

    Finds P = (b/a)(s) for univariate a, b by rational (Cauchy)
    interpolation of sampled pairs (s(w), P(w)) modulo the first prime,
    with the degree bound m = 1, 2, 4, ... capped at dmax.  Once a fit
    holds there, each prime of the pool of annihilating_poly refits at the
    degree it found, and the fits are lifted and normalized as there: the
    relation is returned only if its total degree is at most dmax and its
    exact composition with (P, s) vanishes.  Since s is nonconstant, every
    relation between P and s is then a multiple of this one (Gauss's
    lemma), so it is also the relation annihilating_poly([P, s], dmax)
    returns.  None carries no claim: P may lie outside Q(s), or the
    samples were unlucky.
    """
    fs = [s, P]
    pool = prime_pool(primes, fs)
    samples = {}

    def fit(m, p):
        if p not in samples:
            samples[p] = (rng_for(seed, f"cauchy:p{p}"), set(), [])
        rng, seen, pts = samples[p]
        need = 2 * m + 1 + _CONFIRM_POINTS - len(pts)
        if need > 0:
            more = pole_free_values(fs, need, p, rng, distinct=seen)
            if more is None:
                return None
            pts.extend(more)
        return _cauchy_mod(pts, m, p)

    bound = 1
    while True:
        bound = min(bound, dmax)
        rel = fit(bound, pool[0])
        if rel is not None and max(map(sum, rel)) <= dmax:
            # every prime refits with the degree the first one found
            m = max(e[1] for e in rel)
            support = {(1, i) for i in range(min(m, dmax - 1) + 1)}
            support |= {(0, j) for j in range(m + 1)}
            monos = sorted(support, key=grlex_key)

            def solve(p):
                fitted = fit(m, p)
                if fitted is None or not fitted.keys() <= support:
                    return None
                return [fitted.get(e, 0) for e in monos]

            cand = _lift_and_verify([P, s], monos, len(primes), pool, solve)
            if cand is not None:
                return cand
        if bound >= dmax:
            return None
        bound *= 2
