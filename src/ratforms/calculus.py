"""Differential algebra on one variable at a time.

Everything here treats a RatFun as univariate in a chosen variable with
coefficients in the exact field generated by the remaining variables:
Hermite reduction finds rational antiderivatives, and residue arithmetic
recognizes logarithmic derivatives r'/r so that r can be rebuilt from its
pole multiplicities.  The exact separability test of H across two
variable blocks lives here too.

The univariate core (Euclid, Yun, Hermite, residues) works on dense
coefficient lists in the chosen variable, lowest degree first, with no
trailing zeros.  A coefficient free of the other variables is a Fraction
and any other is a RatFun; the two mix in arithmetic, so each algorithm is
written once.  A function univariate over Q, which is every function the
fitters integrate, is thus handled in Fraction arithmetic throughout.
RatFun and Poly values are built only for the results.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import gcd, lcm

from .modular import _eval, _trim, is_probable_prime, rational_reconstruct
from .poly import Poly
from .ratfun import RatFun

_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# dense coefficient lists
# ---------------------------------------------------------------------------


def _add(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return _trim(out)


def _sub(a: list, b: list) -> list:
    out = a + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = out[i] - c
    return _trim(out)


def _mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _scale(a: list, c) -> list:
    """c * a for a nonzero scalar c."""
    return [x * c for x in a]


def _monic(a: list) -> list:
    return _scale(a, _ONE / a[-1])


def _deriv(a: list) -> list:
    return [i * a[i] for i in range(1, len(a))]


def _divmod(a: list, b: list) -> tuple[list, list]:
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    n = len(b) - 1
    inv = _ONE / b[-1]
    rem = list(a)
    q = [0] * max(0, len(a) - n)
    while len(rem) > n:
        k = len(rem) - 1 - n
        c = rem.pop() * inv
        q[k] = c
        for j in range(n):
            rem[k + j] -= c * b[j]
        _trim(rem)
    return q, rem


def _rem(a: list, b: list) -> list:
    return _divmod(a, b)[1]


def _divexact(a: list, b: list) -> list:
    q, r = _divmod(a, b)
    if r:
        raise ValueError("inexact univariate division")
    return q


def _gcd(a: list, b: list) -> list:
    """Monic gcd of a and b, not both zero."""
    while b:
        a, b = b, _rem(a, b)
    return _monic(a)


def _inverse_mod(a: list, modulus: list) -> list:
    """Inverse of a in K[x]/(modulus); requires gcd(a, modulus) = 1."""
    r0, r1 = modulus, _rem(a, modulus)
    t0, t1 = [], [_ONE]
    while r1:
        q, r = _divmod(r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, _sub(t0, _mul(q, t1))
    if len(r0) != 1:
        raise ZeroDivisionError("element not invertible modulo the factor")
    return _rem(_scale(t0, _ONE / r0[0]), modulus)


# ---------------------------------------------------------------------------
# conversion at the boundary
# ---------------------------------------------------------------------------


def _coeffs(p: Poly, var: int) -> list:
    """Coefficients of p in var: a Fraction where a coefficient is free of
    the other variables, a RatFun in them otherwise."""
    rows: dict[int, dict] = {}
    for e, c in p.ints.items():
        rows.setdefault(e[var], {})[e[:var] + (0,) + e[var + 1 :]] = c
    zero = (0,) * p.arity
    out = [0] * (max(rows, default=-1) + 1)
    for i, row in rows.items():
        if row.keys() == {zero}:
            out[i] = p.content * row[zero]
        else:
            out[i] = RatFun.from_poly(Poly.from_ints(row, p.arity, p.content))
    return out


def _poly(a: list, var: int, arity: int) -> Poly:
    """The polynomial with the rational coefficient list a in var."""
    pad = (0,) * (arity - var - 1)
    return Poly({(0,) * var + (i,) + pad: c for i, c in enumerate(a)}, arity)


def _ratfun(num: list, den: list, var: int, arity: int) -> RatFun:
    """The RatFun num/den in var, for a monic den."""
    if any(isinstance(c, RatFun) for c in num + den):
        x = RatFun.variable(var, arity)
        return _eval(num, x) / _eval(den, x)
    if len(den) == 1:
        return RatFun.from_poly(_poly(num, var, arity))
    return RatFun(_poly(num, var, arity), _poly(den, var, arity))


def _pseudo_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """(q, r) with l^k * a = q*b + r and deg r < deg b, in integers, for the
    lead l of b and k = len(q) = max(0, deg a - deg b + 1) (Knuth, TAOCP
    vol. 2, 4.6.1, Algorithm R)."""
    n, lead = len(b) - 1, b[-1]
    rem = list(a)
    q = [0] * max(0, len(a) - n)
    for k in range(len(q) - 1, -1, -1):
        c = rem.pop()
        q[k] = c * lead**k
        rem = [x * lead for x in rem]
        for j in range(n):
            rem[k + j] -= c * b[j]
    return q, _trim(rem)


def _int_coeffs(p: Poly, var: int) -> list[int] | None:
    """The integer coefficient list of p in var, lowest first, when p is
    free of the other variables; else None."""
    out = [0] * (p.degree_in(var) + 1) if p.ints else []
    for e, c in p.ints.items():
        if sum(e) != e[var]:
            return None
        out[e[var]] = c
    return out


def _proper_parts(f: RatFun, var: int) -> tuple[list, list, list]:
    """f = q + r/d with d monic in var, deg r < deg d, gcd(r, d) = 1.

    Where f is free of the other variables, its integer numerator is
    pseudo-divided by its integer denominator, and the contents and the
    powers of the lead are applied once per coefficient."""
    f = f.reduce()
    n, d = _int_coeffs(f.num, var), _int_coeffs(f.den, var)
    if n is not None and d is not None:
        lead = d[-1]
        q, r = _pseudo_divmod(n, d)
        c = f.num.content / f.den.content
        sq = c / lead ** len(q)
        sr = sq / lead
        return [x * sq for x in q], [x * sr for x in r], [Fraction(x, lead) for x in d]
    d = _coeffs(f.den, var)
    inv = _ONE / d[-1]
    d = _scale(d, inv)
    q, r = _divmod(_scale(_coeffs(f.num, var), inv), d)
    return q, r, d


def yun_squarefree(d: list) -> list[tuple[list, int]]:
    """Squarefree factorization of monic d: list of (factor, multiplicity).

    The factors are monic and pairwise coprime, by ascending multiplicity.
    """
    out: list[tuple[list, int]] = []
    dp = _deriv(d)
    g = _gcd(d, dp)
    if len(g) == 1:
        return [(d, 1)] if len(d) > 1 else []
    c = _divexact(d, g)
    w = _sub(_divexact(dp, g), _deriv(c))
    i = 1
    while len(c) > 1:
        p = _gcd(c, w)
        if len(p) > 1:
            out.append((p, i))
        c = _divexact(c, p)
        w = _sub(_divexact(w, p), _deriv(c))
        i += 1
    return out


# ---------------------------------------------------------------------------
# Hermite reduction
# ---------------------------------------------------------------------------


def _hermite_core(a: list, d: list, factors) -> tuple[list, list, list, list]:
    """Reduce proper a/d to g' + s/d* with d* squarefree.

    d is monic, coprime to a, with squarefree factorization factors.
    Returns (gn, gd, s, d*), where g = gn/gd is proper, gd is monic and
    coprime to gn, and d* is the product of the factors.  For a factor v of
    multiplicity m, d = u*v^m, each j = m-1, ..., 1 solves
    b*u*v' + c*v = -a/j with deg b < deg v; then
    a/(u*v^(j+1)) - (b/v^j)' = (-j*c - u*b')/(u*v^j)
    (Bronstein, Symbolic Integration I, section 2.2).
    """
    gn, gd, dstar = [], [_ONE], [_ONE]
    for v, m in factors:
        dstar = _mul(dstar, v)
        if m == 1:
            continue
        u = d
        for _ in range(m):
            u = _divexact(u, v)
        uvp = _mul(u, _deriv(v))
        inv = _inverse_mod(uvp, v)
        num, vpow = [], [_ONE]  # sum of b_j * v^(m-1-j), and v^(m-1-j)
        for j in range(m - 1, 0, -1):
            t = _scale(a, Fraction(-1, j))
            b = _rem(_mul(_rem(t, v), inv), v)
            c = _divexact(_sub(t, _mul(b, uvp)), v)
            a = _sub(_scale(c, -j), _mul(u, _deriv(b)))
            num = _add(num, _mul(b, vpow))
            vpow = _mul(vpow, v)
        # the parts of g at distinct factors have coprime denominators
        gn = _add(_mul(gn, vpow), _mul(num, gd))
        gd = _mul(gd, vpow)
        d = _mul(u, v)
    return gn, gd, a, dstar


def hermite_antiderivative(f: RatFun, var: int) -> RatFun | None:
    """Antiderivative of f in var when one exists inside rational functions.

    Hermite reduction leaves f = g' + s/d* with d* squarefree; a rational
    antiderivative exists exactly when s = 0.  The additive constant is
    normalized to zero (no constant term is ever introduced).
    """
    q, r, d = _proper_parts(f, var)
    acc = _trim([0] + [c * Fraction(1, i + 1) for i, c in enumerate(q)])
    if not r:
        return _ratfun(acc, [_ONE], var, f.arity)
    gn, gd, s, _ = _hermite_core(r, d, yun_squarefree(d))
    if s:
        return None
    return _ratfun(_add(_mul(acc, gd), gn), gd, var, f.arity)


# ---------------------------------------------------------------------------
# residues
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResidueProfile:
    """Pole structure of f in one variable over Q.

    squarefree_poles: (monic squarefree factor, multiplicity) of the
    denominator.  residues: after Hermite reduction, (x - a, residue at a,
    True) for every rational pole a, in ascending order per squarefree
    factor, then (cofactor, trace, False) for the part of that factor with
    no rational root, if any: the trace is the exact sum of the residues at
    its poles.
    """

    var: int
    squarefree_poles: tuple[tuple[Poly, int], ...]
    residues: tuple[tuple[Poly, Fraction, bool], ...]
    polynomial_part: Poly


def _rational_roots(p: list) -> tuple[list[Fraction], list]:
    """(rational roots of squarefree p, ascending; monic deflated cofactor).

    The roots of the integer form c_0 + ... + c_d x^d of p are found modulo
    the first prime q that does not divide c_d and at which they are all
    simple, lifted q-adically by Newton's iteration until q^k exceeds
    2*max(|c_0|, |c_d|)^2, and rebuilt by rational reconstruction.  Every
    rational root a/b has |a| <= |c_0| and b | c_d, and distinct ones stay
    distinct modulo q, so every one is found; a candidate is kept only if it
    is an exact root (Loos, SIAM J. Comput. 12, 1983).  A prime that
    qualifies exists because p is squarefree.
    """
    roots: list[Fraction] = []
    cur = list(p)
    if cur[0] == 0:
        roots.append(Fraction(0))
        cur = cur[1:]
    if len(cur) == 2:
        roots.append(-cur[0] / cur[1])
        cur = cur[1:]
    elif len(cur) > 2:
        den = lcm(*(c.denominator for c in cur))
        ints = [int(c * den) for c in cur]
        dp = _deriv(ints)
        for q in filter(is_probable_prime, count(2)):
            if ints[-1] % q:
                found = [r for r in range(q) if _eval(ints, r) % q == 0]
                if all(_eval(dp, r) % q for r in found):
                    break
        bound = 2 * max(abs(ints[0]), abs(ints[-1])) ** 2
        for r in found:
            m = q
            while m <= bound:
                m *= m
                r = (r - _eval(ints, r) * pow(_eval(dp, r), -1, m)) % m
            a = rational_reconstruct(r, m)
            if a is not None and _eval(cur, a) == 0:
                roots.append(a)
                cur = _divexact(cur, [-a, _ONE])
    return sorted(roots), _monic(cur)


def residue_profile(f: RatFun, var: int) -> ResidueProfile:
    """Exact pole/residue data of f in var; requires f univariate over Q.

    Each squarefree factor of the denominator gives up all of its rational
    roots (see _rational_roots); what is left of it is one cofactor, whose
    trace is read off without its irrational roots.
    """
    if f.is_zero:
        raise ValueError("residue profile of the zero function")
    q, r, d = _proper_parts(f, var)
    if any(isinstance(c, RatFun) for c in q + r + d):
        raise ValueError("profile requires a function univariate over Q")
    arity = f.arity
    factors = yun_squarefree(d)
    sq = tuple((_poly(v, var, arity), m) for v, m in factors)
    poly_part = _poly(q, var, arity)
    if not r:
        return ResidueProfile(var, sq, (), poly_part)
    _, _, s, dstar = _hermite_core(r, d, factors)
    dsp = _deriv(dstar)
    residues: list[tuple[Poly, Fraction, bool]] = []
    for v, _m in factors:
        roots, cof = _rational_roots(v)
        for a in roots:
            factor = Poly.variable(var, arity) - Poly.const(a, arity)
            residues.append((factor, _eval(s, a) / _eval(dsp, a), True))
        if len(cof) > 1:
            # the residue at a root a of cof, of degree d, is w(a); by Lagrange
            # interpolation at those roots, their sum is the x^(d-1) coefficient of w*cof'
            w = _rem(_mul(_rem(s, cof), _inverse_mod(dsp, cof)), cof)
            h = _rem(_mul(w, _deriv(cof)), cof)
            trace = Fraction(h[-1] if len(h) == len(cof) - 1 else 0)
            residues.append((_poly(cof, var, arity), trace, False))
    return ResidueProfile(var, sq, tuple(residues), poly_part)


def logderiv_integrate(parts) -> tuple[list[RatFun] | None, Fraction | str]:
    """Solve g_k'/g_k = c * f_k for rational g_k and one least constant c.

    parts is [(f_k, var_k), ...], each f_k univariate over Q in var_k.
    A multiple of f is a log-derivative only if f is proper with simple,
    split poles; the nonzero residues of all parts are then pooled, and c is
    the least positive rational that makes them coprime integers.  Returns
    (gs, c), where g_k is the monic product of (var_k - root)^(c * residue),
    or (None, reason): zero-part, profile-error (see residue_profile),
    nonzero-poly-part, multiple-pole or non-splitting-factor, for the first
    part that fails (Bronstein, Symbolic Integration I, sections 2.4-2.5).
    """
    profs = []
    for f, var in parts:
        if f.is_zero:
            return None, "zero-part"
        try:
            prof = residue_profile(f, var)
        except (ValueError, ZeroDivisionError):
            return None, "profile-error"
        if not prof.polynomial_part.is_zero:
            return None, "nonzero-poly-part"
        if any(m > 1 for _, m in prof.squarefree_poles):
            return None, "multiple-pole"
        if any(not splits for _, _, splits in prof.residues):
            return None, "non-splitting-factor"
        profs.append(prof)
    # a nonzero proper fraction with simple, split poles has a nonzero residue
    pool = [res for prof in profs for _, res, _ in prof.residues if res]
    lcd = lcm(*(res.denominator for res in pool))
    c = Fraction(lcd, gcd(*(res.numerator * (lcd // res.denominator) for res in pool)))
    gs = []
    for prof in profs:
        # distinct monic linear factors: the two products are coprime
        num = den = Poly.const(1, prof.polynomial_part.arity)
        for factor, res, _ in prof.residues:
            e = int(c * res)
            if e > 0:
                num = num * factor ** e
            elif e < 0:
                den = den * factor ** -e
        gs.append(RatFun.coprime(num, den))
    return gs, c


# ---------------------------------------------------------------------------
# separability
# ---------------------------------------------------------------------------


def separability_identity(
    H: RatFun, X: frozenset | set | tuple, Y: frozenset | set | tuple
) -> bool:
    """Exact separability test of H across the variable blocks X | Y.

    Holds iff H(X,Y) * H(X0,Y0) = H(X,Y0) * H(X0,Y) identically, with
    (X0, Y0) fresh symbolic copies of the two blocks; that identity is
    equivalent to H factoring as u(X, params) / v(Y, params).
    """
    X = sorted(set(X))
    Y = sorted(set(Y))
    if not X or not Y or set(X) & set(Y):
        raise ValueError("X and Y must be disjoint nonempty variable blocks")
    if H.is_zero:
        raise ValueError("H must be nonzero")
    arity = H.arity
    k = len(X) + len(Y)
    big = arity + k
    copy_slot = {v: arity + i for i, v in enumerate(X + Y)}
    ident = tuple(range(arity))
    sub_x = tuple(copy_slot[i] if i in X else i for i in range(arity))
    sub_y = tuple(copy_slot[i] if i in Y else i for i in range(arity))
    sub_xy = tuple(copy_slot[i] if i in X or i in Y else i for i in range(arity))
    hxy = H.embed(big, ident)
    h00 = H.embed(big, sub_xy)
    hx0 = H.embed(big, sub_y)  # Y replaced by the copies: H(X, Y0)
    h0y = H.embed(big, sub_x)  # X replaced: H(X0, Y)
    t = hxy.num * h00.num * hx0.den * h0y.den - hx0.num * h0y.num * hxy.den * h00.den
    return t.is_zero
