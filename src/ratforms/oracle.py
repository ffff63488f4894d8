"""Exact oracles: symbolic rank and polynomial relations.

symbolic_rank eliminates the *symbolic* Jacobian with fraction-free
Bareiss steps, so its answer is exact and shares no randomness with
image_dimension.  composition_relation finds the relation a(q)*p - b(q) of
P = (b/a)(s) by exact interpolation of its two homogenized parts at nodes
on one line parallel to an axis, and proves it by their proportionality
(_proportional, which builds both parts in integers on packed exponent
codes); it is the only search behind the dependence certificates, and it
evaluates nothing modulo a prime.  annihilating_poly is a
standalone search for a polynomial relation among any given functions,
over all monomials of each degree, at points in general position; it lifts
per-prime fits one prime at a time, reconstructs a candidate after every
prime and refutes a false one by its value modulo a prime not yet
combined, within MAX_LIFT_PRIMES primes (_lift_and_verify).
Every returned relation is proven to vanish exactly, never by sampling
alone.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from fractions import Fraction
from functools import partial
from math import gcd, lcm, prod

from .modular import (
    DEFAULT_PRIMES,
    RETRIES,
    _eval,
    coprime_primes,
    crt_pair,
    nullspace_vector_mod,
    rational_reconstruct,
    rng_for,
)
from .poly import Poly, _axis_line, _codes, _qpowers, divexact, grlex_key
from .ratfun import RatFun, compose_numerator, pole_free_values
from .dimension import DoublingMap

MAX_ORACLE_DEGREE = 6
#: Primes the lift of annihilating_poly may combine.  Its pool holds one
#: more, so a prime the lift has not combined is always left for the spot
#: value.
MAX_LIFT_PRIMES = 24


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
    """Up to `count` primes modulo which every function of fs has an image
    with its numerator, its denominator and its partials in the variables
    it involves nonzero, lazily: the given primes, then the largest primes
    below them, then the smallest above them (see coprime_primes), less
    those that divide a content numerator or denominator of fs, or every
    coefficient of N_v and of D_v for such a variable v (13 for
    (x+y+z)^13).  That test stops at the first coefficient a prime leaves."""
    bad, moved = 1, []
    for f in fs:
        for c in (f.num.content, f.den.content):
            bad *= c.numerator * c.denominator
        ints = (f.num.ints, f.den.ints)
        for v in range(f.arity):
            # the first coefficient of N_v or D_v, 0 when f does not involve v
            first = next((c * e[v] for t in ints for e, c in t.items() if e[v]), 0)
            if first:
                moved.append((first, ints, v))

    def sighted(p: int) -> bool:
        return all(first % p or any(c * e[v] % p for t in ints for e, c in t.items())
                   for first, ints, v in moved)

    return itertools.islice(filter(sighted, coprime_primes(primes, bad, None)), count)


def _lift_and_verify(fs, monos, pool, solve, seed):
    """Relation with coefficients on monos from per-prime vectors, or None:
    the lift of annihilating_poly.

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
    """Is A(f_1, ..., f_k) the zero function, for a candidate of
    _lift_and_verify?  Exact, in three steps.

    A nonzero value of A at one random pole-free point modulo the first
    spare prime that yields a point is an exact disproof.  The spares must
    be primes the lift did not combine: a CRT candidate vanishes modulo its
    own lift primes whether or not it is true.  A relation linear in its
    first slot, between two functions, then holds when its homogenized
    parts are proportional to f_1 (_proportional), which settles a relation
    a(q)*p - b(q) of a reduced f_2 without a large product.  When neither
    step decides, the exact expansion of compose_numerator does.
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
    gamma would divide a power of N_s and of D_s): a False refutes the
    candidate of composition_relation, and sends _vanishes on to its checks.

    Both sums run in integers on packed exponent codes (poly._codes), in a
    base above every total degree that they and P reach, so that a monomial
    product is one integer add.  The contents fold into the integer
    coefficients: with c(N_s)/c(D_s) = u/v, the sums take a_k u^k v^(E-k)
    and c_k u^k v^(E-k).  D_P's integer part is primitive, so lam is an
    integer multiplier of it, and gamma is compared with N_P's integer part
    by cross-multiplied equality with P's content ratio: no Poly and no
    Fraction is built per step.
    """
    E = A.degree_in(1)
    r = s.num.content / s.den.content
    fold = [r.numerator**k * r.denominator ** (E - k) for k in range(E + 1)]
    # A's content scales alpha and gamma alike, so its integer part suffices
    a, c = [0] * (E + 1), [0] * (E + 1)
    for (i, k), x in A.ints.items():
        (a if i else c)[k] = x * fold[k]
    base = 1 + max(E * s.total_degree(), P.total_degree())
    ns, ds, nP, dP = (_codes(f.ints, base) for f in (s.num, s.den, P.num, P.den))
    # Horner's rule for both sums at once, with D_s^(E-k) built as it goes
    alpha, gamma, dk = {0: a[E]}, {0: c[E]}, {0: 1}
    for k in range(E - 1, -1, -1):
        alpha, gamma, dk = _cmul(alpha, ns), _cmul(gamma, ns), _cmul(dk, ds)
        for key, x in dk.items():
            alpha[key] = alpha.get(key, 0) + a[k] * x
            gamma[key] = gamma.get(key, 0) + c[k] * x
    alpha = {key: x for key, x in alpha.items() if x}
    if not alpha:  # alpha = D_s^E a(s) vanishes only for a constant s
        return False
    k0 = next(iter(dP))
    lam, rest = divmod(alpha.get(k0, 0), dP[k0])
    g = P.num.content / P.den.content
    return (not rest and alpha == {key: lam * x for key, x in dP.items()}
            and {key: g.denominator * x for key, x in gamma.items() if x}
            == {key: -lam * g.numerator * x for key, x in nP.items()})


def _cmul(f: dict, h: dict) -> dict:
    """The product of term dicts on packed exponent codes, f's zeros skipped."""
    out: dict = {}
    get = out.get
    hi = list(h.items())
    for kf, cf in f.items():
        if cf:
            for kh, ch in hi:
                out[kf + kh] = get(kf + kh, 0) + cf * ch
    return out


# ---------------------------------------------------------------------------
# composition relations by exact interpolation
# ---------------------------------------------------------------------------

def _restrict(f: Poly, point, i: int) -> list[int]:
    """The integer terms of f restricted to the line through an integer
    point parallel to the x_i axis: coefficients in x_i, lowest first, to be
    multiplied by f.content; one pass over the terms."""
    rows, degs, _, _ = _qpowers(f.ints, point, i)
    return _axis_line(f.ints, rows, i, degs[i])


def _line_nodes(s: RatFun, P: RatFun, count: int, rng) -> list[tuple[int, int, int, int]] | None:
    """count nodes (n, d, v, u) with pairwise distinct n/d, or None when
    RETRIES lines run short.

    Each line runs through a point with coordinates in 1..15 and is parallel
    to the axis of a variable that s moves, drawn in that order; N_s, D_s,
    N_P and D_P are restricted to it exactly, once each (_restrict), and
    read at x = 0, 1, 2, ... as the integers n, d, v and u, each its
    polynomial's value divided by the content.  A node skips a point where
    D_s vanishes and a repeated value n/d of s.  Where s has degree k > 0 on
    the line, it has at most k poles and takes each value at most k times,
    so (count + 1) * k points hold count nodes.  Where the restricted N_s
    and D_s are proportional, s is constant or undefined on the line, which
    holds at most one node; the search moves to a fresh line at once,
    reading no point of it.
    """
    polys = (s.num, s.den, P.num, P.den)
    moved = [i for i in range(s.arity) if s.num.degree_in(i) or s.den.degree_in(i)]
    for _ in range(RETRIES):
        w = [rng.randint(1, 15) for _ in range(s.arity)]
        i = rng.choice(moved)
        ns, ds, vs, us = (_restrict(f, w, i) for f in polys)
        pairs = list(itertools.zip_longest(ns, ds, fillvalue=0))
        a, b = next((pair for pair in pairs if any(pair)), (0, 0))
        if all(a * d == b * n for n, d in pairs):
            continue
        seen: set[Fraction] = set()
        nodes = []
        for x in range((count + 1) * (max(len(ns), len(ds)) - 1)):
            n, d = _eval(ns, x), _eval(ds, x)
            if d and (t := Fraction(n, d)) not in seen:
                seen.add(t)
                nodes.append((n, d, _eval(vs, x), _eval(us, x)))
                if len(nodes) == count:
                    return nodes
    return None


def _interpolate(nodes: list[tuple[int, int, int, int]]) -> tuple[list[int], list[int]]:
    """W times the polynomials of degree <= m through the points
    (n/d, v / d^m) and through the points (n/d, u / d^m), for m + 1 nodes
    (n, d, v, u) of pairwise distinct n/d and one integer W that depends on
    n and d alone.

    Lagrange form over the integer node polynomial M = prod (d_j t - n_j):
    the first is sum_j v_j L_j / W_j with L_j = M / (d_j t - n_j), whose
    coefficients are integers, and W_j = prod_(i != j) (n_j d_i - n_i d_j),
    in which the d_j^m of the values cancels; W is the lcm of the W_j.
    """
    M = [1]
    for n, d, _, _ in nodes:
        # M <- M * (d t - n), lowest coefficient first
        M = [-n * M[0]] + [d * a - n * b for a, b in zip(M, M[1:])] + [d * M[-1]]
    weights = [prod(nj * di - ni * dj for i, (ni, di, _, _) in enumerate(nodes) if i != j)
               for j, (nj, dj, _, _) in enumerate(nodes)]
    W = lcm(*weights)
    size = len(nodes)
    vout, uout = [0] * size, [0] * size
    for (n, d, v, u), wj in zip(nodes, weights):
        v, u = v * (W // wj), u * (W // wj)
        # L_j by synthetic division of M by d t - n, from the top
        q = 0
        for k in range(size, 0, -1):
            q = (M[k] + n * q) // d
            vout[k - 1] += v * q
            uout[k - 1] += u * q
    return vout, uout


def composition_relation(P: RatFun, s: RatFun, dmax: int | None = None) -> Poly | None:
    """Relation a(q)*p - b(q) with a(s)*P = b(s) exactly, or None.

    After P and s are reduced, P = (b/a)(s) with coprime a and b holds only
    at m = deg P / deg s = max(deg a, deg b): the degree of a composition is
    multiplicative (Zippel, ISSAC 1991), and for a multivariate s the
    homogenized a(N_h, D_h) and b(N_h, D_h) are coprime forms of degree
    deg q * deg s that the new variable divides at most one of.  When deg s
    does not divide deg P, or m exceeds dmax, there is nothing to find.
    With c = -b and P = N_P/D_P, s = N_s/D_s, the homogenized parts
    sum a_k N_s^k D_s^(m-k) and sum c_k N_s^k D_s^(m-k) are then lam D_P and
    -lam N_P for one rational lam (see _proportional), so at lam = 1 the
    values a(s(w)) = D_P(w) / D_s(w)^m and c(s(w)) = -N_P(w) / D_s(w)^m at
    m + 1 points w with distinct values of s fix a and c by plain
    interpolation over Q.  The points lie on one line parallel to an axis,
    drawn from one fixed stream, rng_for(0, "certificate-line")
    (_line_nodes), and the interpolation runs in integers (_interpolate).
    The one candidate is normalized and returned only if it vanishes on
    (P, s) by homogenized proportionality, and only if its total degree is
    at most dmax (None: no cap).  On such a line P can be a function of s
    when it is not one on the whole space (x^2 + y*z and s = x + y + z);
    _proportional refutes that candidate, and since no other degree can
    hold, the search ends there.

    The certificate is unique up to scale, so it depends on neither the
    line nor a prime, and the search takes no seed.  Since s is
    nonconstant, every relation between P and s is a multiple of it
    (Gauss's lemma), so annihilating_poly([P, s], d) returns it at its
    total degree d.  None says P lies outside Q(s), or,
    only if RETRIES lines all run short, that s was constant on each.
    """
    P, s = P.reduce(), s.reduce()
    m, rem = divmod(P.total_degree(), s.total_degree())
    if rem or (dmax is not None and m > dmax):
        return None
    nodes = _line_nodes(s, P, m + 1, rng_for(0, "certificate-line"))
    if nodes is None:
        return None
    # s = (cN/cD) * n/d for the contents cN, cD of N_s, D_s; the factor
    # 1 / (cD^m W) common to every coefficient is dropped
    r = s.den.content / s.num.content
    c, a = _interpolate(nodes)
    rel = {(1, k): P.den.content * v * r**k for k, v in enumerate(a) if v}
    rel.update({(0, k): -P.num.content * v * r**k for k, v in enumerate(c) if v})
    if not rel or (dmax is not None and max(map(sum, rel)) > dmax):
        return None
    cand = Poly.from_ints(_normalize_coeffs(list(rel.values()), list(rel)), 2)
    return cand if _proportional(cand, P, s) else None
