"""Exact oracles: symbolic rank and polynomial relations.

symbolic_rank eliminates the *symbolic* Jacobian with fraction-free
Bareiss steps, so its answer is exact and shares no randomness with
image_dimension.  composition_relation finds the relation a(q)*p - b(q) of
P = (b/a)(s) by rational interpolation at nodes on lines parallel to an
axis, confirmed at points in general position; it is the only search
behind the dependence certificates.  annihilating_poly is a standalone
search for a polynomial relation among any given functions, over all
monomials of each degree, at points in general position.  Both lift
per-prime fits one prime at a time, reconstruct a candidate after every
prime and refute a false one by its value modulo a prime not yet
combined, within MAX_LIFT_PRIMES primes (_lift_and_verify).
Every returned relation is proven to vanish exactly, never by sampling
alone (see _vanishes).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from fractions import Fraction
from functools import partial

from .modular import (
    DEFAULT_PRIMES,
    RETRIES,
    _divmod_mod,
    _eval_uni_mod,
    _interpolate_mod,
    _node_poly,
    _trim,
    coprime_primes,
    crt_pair,
    nullspace_vector_mod,
    rational_reconstruct,
    rng_for,
)
from .calculus import _mul, _sub
from .poly import Poly, divexact, grlex_key
from .ratfun import RatFun, compose_numerator, pole_free_values
from .dimension import DoublingMap

MAX_ORACLE_DEGREE = 6
#: Primes a certificate lift may combine.  Its pool holds one more, so a
#: prime the lift has not combined is always left for the spot value.
MAX_LIFT_PRIMES = 24


class OracleGuardError(ValueError):
    """Input outside the size range the exact oracle is willing to handle."""


class LiftBudgetError(ArithmeticError):
    """No relation found, and a lift spent all MAX_LIFT_PRIMES primes."""


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
    for d in range(1, dmax + 1):
        monos = _monomials(k, d)
        solve = partial(_kernel_vector, fs, monos, d, seed)
        pool = prime_pool(primes, fs, MAX_LIFT_PRIMES + 1)
        cand = _lift_and_verify(fs, monos, pool, solve, seed)
        if cand is not None:
            return cand
    return None


def prime_pool(primes: tuple[int, ...], fs: list[RatFun], count: int) -> Iterator[int]:
    """Up to `count` primes modulo which every function of fs has an image,
    lazily: the given primes that divide no coefficient denominator of fs,
    then the largest such primes below them, then the smallest above them
    (see coprime_primes)."""
    den = 1
    for f in fs:
        den *= f.num.content.denominator * f.den.content.denominator
    return coprime_primes(primes, den, count)


def _lift_and_verify(fs, monos, pool, solve, seed):
    """Relation with coefficients on monos from per-prime vectors, or None.

    solve(p) returns the coefficient vector mod p, scaled the same way at
    every prime, or None.  None at the first pool prime ends the search; at
    a later one it skips that prime (one too small to give enough distinct
    sample values, or an unlucky one).  Each vector is CRT-combined with
    those before it, and after every prime, the first included, the
    residues are reconstructed over Q and normalized.  Each new candidate
    is tested once by _vanishes, with the next pool prime, which the lift
    has not combined, as the spare for its spot value.  The lift stops at
    the first candidate that vanishes exactly, or returns None when only
    the last pool prime is left: a candidate refuted or not yet
    reconstructed only ever means too small a modulus or an unlucky prime
    (soundness never depends on this path).
    """
    acc = [0] * len(monos)
    mod = 1
    refuted = set()
    for p, spare in itertools.pairwise(pool):
        v = solve(p)
        if v is None:
            if mod == 1:
                return None
            continue
        acc = [crt_pair(a, mod, b, p) for a, b in zip(acc, v)]
        mod *= p
        rat = [rational_reconstruct(a, mod) for a in acc]
        if any(r is None for r in rat):
            continue
        coeffs = _normalize_coeffs(rat, monos)
        if not coeffs:
            continue
        key = frozenset(coeffs.items())
        if key in refuted:
            continue
        cand = Poly.from_ints(coeffs, len(fs))
        if _vanishes(cand, fs, (spare,), seed):
            return cand
        refuted.add(key)
    return None


def _vanishes(A: Poly, fs: list[RatFun], spare, seed: int) -> bool:
    """Is A(f_1, ..., f_k) the zero function?  Exact, in three steps.

    A nonzero value of A at one random pole-free point modulo the first
    spare prime that yields a point is an exact disproof.  The spares must
    be primes the lift did not combine: a CRT candidate vanishes modulo its
    own lift primes whether or not it is true.  A relation linear in its
    first slot, between two functions, then holds when its homogenized
    parts are proportional to f_1 (_proportional); that settles every true
    certificate of a reduced s without a large product.  When neither step
    decides, the exact expansion of compose_numerator does.
    """
    for p in spare:
        pts = pole_free_values(fs, 1, p, rng_for(seed, f"spot:p{p}"))
        if pts is not None:
            if A.eval_mod(pts[0], p):
                return False
            break
    if len(fs) == 2 and A.degree_in(0) == 1 and _proportional(A, *fs):
        return True
    return compose_numerator(A, fs).is_zero


def _proportional(A: Poly, P: RatFun, s: RatFun) -> bool:
    """Sufficient test for A(P, s) = 0 with A linear in its first slot p.

    Write A = sum_k a_k p q^k + sum_k c_k q^k with E = deg_q A, and build
    alpha = sum_k a_k N_s^k D_s^(E-k) and gamma = sum_k c_k N_s^k D_s^(E-k)
    by Horner's rule.  compose_numerator(A, [P, s]) is N_P alpha + D_P gamma,
    which vanishes when alpha = lam D_P and gamma = -lam N_P for one
    rational lam.  For reduced P and s and a relation a(q) p - b(q) with
    coprime a and b that is also necessary (a common factor of alpha and
    gamma would divide a power of N_s and of D_s), so a False here only
    sends the caller to its other checks.
    """
    E = A.degree_in(1)
    # A's content scales alpha and gamma alike, so its integer part suffices
    a, c = [0] * (E + 1), [0] * (E + 1)
    for (i, k), v in A.ints.items():
        (a if i else c)[k] = v
    dpow = [Poly.const(1, s.arity)]
    for _ in range(E):
        dpow.append(dpow[-1] * s.den)

    def horner(co):
        h = Poly.const(co[E], s.arity)
        for k in range(E - 1, -1, -1):
            h = h * s.num + dpow[E - k].scale(co[k])
        return h

    alpha = horner(a)
    if alpha.is_zero:  # alpha = D_s^E a(s) vanishes only for a constant s
        return False
    lam = alpha.leading()[1] / P.den.leading()[1]
    return alpha == P.den.scale(lam) and horner(c) == P.num.scale(-lam)


# ---------------------------------------------------------------------------
# composition relations by Cauchy interpolation
# ---------------------------------------------------------------------------

#: Sample points beyond the 2m + 1 interpolation nodes that a fitted
#: relation must also satisfy before it is lifted.
_CONFIRM_POINTS = 3


def _nodes(s: RatFun, P: RatFun, count: int, p: int, rng) -> list[list[int]] | None:
    """count interpolation nodes (s(w), P(w)) mod p, with pairwise distinct
    values of a nonconstant s, at points w on lines parallel to an axis, or
    None when a node runs out of draws.

    Each line runs through a random point w in a random variable that s
    moves, drawn in that order, and the numerators and denominators of s and
    P are restricted to it once (Poly.line_mod), so a node costs one Horner
    step per restriction: the black-box model of Kaltofen & Trager, J.
    Symbolic Comput. 9 (1990).  A draw that hits a pole or repeats a value of
    s moves to a fresh line; each node gets RETRIES draws.
    """
    polys = (s.num, s.den, P.num, P.den)
    moved = [i for i in range(s.arity) if s.num.degree_in(i) or s.den.degree_in(i)]
    line = None
    seen: set[int] = set()
    pts: list[list[int]] = []
    while len(pts) < count:
        for _ in range(RETRIES):
            if line is None:
                w = [rng.randrange(1, p) for _ in range(s.arity)]
                i = rng.choice(moved)
                line = [f.line_mod(w, i, p) for f in polys]
            t = rng.randrange(1, p)
            ns, ds, nP, dP = (_eval_uni_mod(f, t, p) for f in line)
            if ds and dP:
                inv = pow(ds * dP, -1, p)
                v = ns * dP * inv % p
                if v not in seen:
                    seen.add(v)
                    pts.append([v, nP * ds * inv % p])
                    break
            line = None
        else:
            return None
    return pts


def _cauchy_mod(nodes: list[list[int]], checks: list[list[int]], m: int, p: int) -> dict | None:
    """Relation a(q)*p - b(q) mod p with deg a, deg b <= m, or None.

    nodes holds 2m + 1 pairs (t_i, v_i) = (s, P) with distinct t_i; they
    fix b/a: the half-extended Euclidean algorithm on (prod (t - t_i), U),
    with U interpolating them, stops at the first remainder of degree <= m,
    which is b, with its cofactor a (von zur Gathen & Gerhard, Modern
    Computer Algebra, 5.7-5.9).  The pairs of checks must satisfy the
    relation too.  The result maps exponents in (p, q) to residues, scaled
    so that the grlex-leading one is 1.
    """
    ts = [t for t, _ in nodes]
    r0 = _node_poly(ts, p)
    r1 = _interpolate_mod(ts, [v for _, v in nodes], p, r0)
    c0: list[int] = []
    c1: list[int] = [1]
    while len(r1) > m + 1:
        quo, rem = _divmod_mod(r0, r1, p)
        r0, r1 = r1, rem
        c0, c1 = c1, _trim([c % p for c in _sub(c0, _mul(quo, c1))])
    a, b = c1, r1
    for t, v in checks:
        if (_eval_uni_mod(a, t, p) * v - _eval_uni_mod(b, t, p)) % p:
            return None
    rel = {(1, i): c for i, c in enumerate(a) if c}
    rel.update({(0, j): -c % p for j, c in enumerate(b) if c})
    inv = pow(rel[max(rel, key=grlex_key)], -1, p)
    return {e: c * inv % p for e, c in rel.items()}


def composition_relation(
    P: RatFun,
    s: RatFun,
    dmax: int | None = None,
    primes: tuple[int, ...] = DEFAULT_PRIMES,
    seed: int = 0,
) -> Poly | None:
    """Relation a(q)*p - b(q) with a(s)*P = b(s) exactly, or None.

    Finds P = (b/a)(s) for univariate a, b by rational (Cauchy)
    interpolation of sampled pairs (s(w), P(w)) at the one degree bound
    m = deg P / deg s, after P and s are reduced.  That bound is exact: the
    degree of a composition is multiplicative (Zippel, ISSAC 1991), and for
    a multivariate s the homogenized a(N_h, D_h) and b(N_h, D_h) are coprime
    forms of degree deg q * deg s that the new variable divides at most one
    of, so a reduced P = q(s) has deg P = deg q * deg s.  When deg s does
    not divide deg P, or m exceeds dmax, there is nothing to fit.  The 2m + 1
    interpolation nodes lie on lines parallel to an axis (_nodes).  On such
    a line P can be a function of s when it is not one on the whole space
    (x^2 + y*z and s = x + y + z), so the fit must also hold at
    _CONFIRM_POINTS points that are not taken from the lines:
    general-position draws of pole_free_values, each of which lies on a
    given node line with probability (p - 1)^-(n - 1) in n variables.  The
    primes of prime_pool(primes, [s, P]) (at most MAX_LIFT_PRIMES, plus one
    spare, that divide no coefficient denominator of P or s) fit once each,
    on the monomials of total degree at most dmax (None: no cap), and
    _lift_and_verify reconstructs a candidate after each: the relation is
    returned only if it is proven to vanish on (P, s), by homogenized
    proportionality or, where that does not apply, by the exact expansion
    (_vanishes).
    Since s is nonconstant, every relation between P and s is then a
    multiple of this one (Gauss's lemma), so annihilating_poly([P, s], d)
    returns it at its total degree d.  None carries no claim: P may lie
    outside Q(s), or the samples were unlucky.  LiftBudgetError says a lift
    spent all MAX_LIFT_PRIMES primes and none of them found it.
    """
    P, s = P.reduce(), s.reduce()
    m, rem = divmod(P.total_degree(), s.total_degree())
    if rem or (dmax is not None and m > dmax):
        return None
    support = {e for e in itertools.product((0, 1), range(m + 1)) if dmax is None or sum(e) <= dmax}
    monos = sorted(support, key=grlex_key)
    fs = [s, P]

    def solve(p):
        rng = rng_for(seed, f"cauchy:p{p}")
        confirm = pole_free_values(fs, _CONFIRM_POINTS, p, rng)
        nodes = None if confirm is None else _nodes(s, P, 2 * m + 1, p, rng)
        fitted = None if nodes is None else _cauchy_mod(nodes, confirm, m, p)
        if fitted is None or not fitted.keys() <= support:
            return None
        return [fitted.get(e, 0) for e in monos]

    pool = prime_pool(primes, fs, MAX_LIFT_PRIMES + 1)
    cand = _lift_and_verify([P, s], monos, pool, solve, seed)
    # the lift has drawn the whole pool only if it ran out of primes
    if cand is None and next(pool, None) is None:
        raise LiftBudgetError(f"no relation within {MAX_LIFT_PRIMES} lift primes")
    return cand
