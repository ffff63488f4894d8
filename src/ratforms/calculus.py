"""Differential algebra on one variable at a time.

Every function integrated here is univariate over Q in a chosen variable,
and it comes as a LineFn: coprime primitive integer coefficient lists,
lowest degree first, and one Fraction scale, the form in which the fitters'
line ratios reach their parts.  Hermite reduction finds rational
antiderivatives, and residue arithmetic recognizes logarithmic derivatives
r'/r so that r can be rebuilt from its pole multiplicities.  The exact
separability test of H across two variable blocks lives here too.

The proper form, the squarefree split (Yun's loop), the rational roots and
the residues stay in integers.  Only Hermite's reduction of a multiple pole,
over the monic forms of the integer factors, and the trace of a cofactor
with no rational root work on Fraction lists.  RatFun and Poly values are
built only for the results, those of a ResidueProfile on first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import count
from math import comb, gcd, lcm

from .modular import _eval, _trim, is_probable_prime, rational_reconstruct
from .poly import Poly, _ddivexact, _dense_gcd, _unit_content
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
# the line form
# ---------------------------------------------------------------------------


def _poly(a: list, var: int, arity: int) -> Poly:
    """The polynomial with the rational coefficient list a in var."""
    pad = (0,) * (arity - var - 1)
    return Poly({(0,) * var + (i,) + pad: c for i, c in enumerate(a)}, arity)


class LineFn:
    """c*num/den, univariate over Q: num and den coprime primitive integer
    lists, lowest degree first, den with a positive lead, c a nonzero
    Fraction (num [] for zero), and arity that of the results' variables."""

    __slots__ = ("num", "den", "c", "arity")

    def __init__(self, num: list[int], den: list[int], c: Fraction, arity: int):
        if den[-1] < 0:
            num, den = [-x for x in num], [-x for x in den]
        self.num, self.den, self.c, self.arity = num, den, c, arity

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __call__(self, x) -> Fraction:
        """The value at x by Horner's rule; ZeroDivisionError at a pole."""
        return self.c * _eval(self.num, x) / _eval(self.den, x)

    def ratfun(self, var: int) -> RatFun:
        """The canonical RatFun in x_var, with no gcd."""
        return RatFun.coprime(Poly.from_coeffs(self.num, var, self.arity, self.c),
                              Poly.from_coeffs(self.den, var, self.arity))


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
        if lead != 1:
            rem = [x * lead for x in rem]
        for j in range(n):
            rem[k + j] -= c * b[j]
    return q, _trim(rem)


def _proper_parts(f: LineFn) -> tuple[list[int], list[int], list[int], Fraction]:
    """(q, r, d, s) with f = s*(q + r/d), deg r < deg d, gcd(r, d) = 1, on
    integer lists: for f = c*n/d, l^k * n = q*d + r pseudo-divides n by d,
    with l = lead(d) and k = len(q), and s = c/l^k."""
    q, r = _pseudo_divmod(f.num, f.den)
    return q, r, f.den, f.c / f.den[-1] ** len(q)


def _gcd_split(a: list[int], b: list[int]) -> tuple[list[int], list[int], list[int]]:
    """(h, a/h, b/h) for h = gcd(a, b), a primitive integer list a and any
    integer list b: h is primitive with a positive lead.  The shared power
    of x and the content of b come out for _dense_gcd and go back after it."""
    if not b:
        h = _unit_content(a)
        return h, [a[-1] // h[-1]], []
    k = 0
    while not (a[k] or b[k]):
        k += 1
    cb = gcd(*b)
    h, qa, qb = _dense_gcd(a[k:], [c // cb for c in b[k:]])
    return [0] * k + h, qa, [c * cb for c in qb]


def yun_squarefree(d: list[int]) -> list[tuple[list[int], int]]:
    """Squarefree factorization of a primitive integer list d: list of
    (factor, multiplicity).

    The factors are pairwise coprime, by ascending multiplicity, and
    primitive with positive leads (see _gcd_split).  Yun's w and y share one
    scale, so the integer z = y - w' is exact (Yun, 1976).
    """
    out: list[tuple[list[int], int]] = []
    _, w, y = _gcd_split(d, _deriv(d))
    i = 1
    while len(w) > 1:
        p, w, y = _gcd_split(w, _sub(y, _deriv(w)))
        if len(p) > 1:
            out.append((p, i))
        i += 1
    return out


# ---------------------------------------------------------------------------
# Hermite reduction
# ---------------------------------------------------------------------------


def _hermite_core(a: list, d: list, factors) -> tuple[list, list, list, list]:
    """Reduce proper a/d to g' + s/d* with d* squarefree, in Fractions.

    d is coprime to a, with squarefree factorization factors, each up to a
    unit (the integer factors of yun_squarefree); a/d is first written over
    the monic d, and each factor made monic.  Returns (gn, gd, s, d*), where
    g = gn/gd is proper, gd is monic and coprime to gn, and d* is the
    product of the monic factors.  For a factor v of multiplicity m,
    d = u*v^m, each j = m-1, ..., 1 solves b*u*v' + c*v = -a/j with
    deg b < deg v; then a/(u*v^(j+1)) - (b/v^j)' = (-j*c - u*b')/(u*v^j)
    (Bronstein, Symbolic Integration I, section 2.2).
    """
    a, d = _scale(a, _ONE / d[-1]), _monic(d)
    gn, gd, dstar = [], [_ONE], [_ONE]
    for v, m in factors:
        v = _monic(v)
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


def hermite_antiderivative(f: LineFn, var: int) -> RatFun | None:
    """Antiderivative of f in var when one exists inside rational functions.

    Hermite reduction leaves f = g' + s/d* with d* squarefree; a rational
    antiderivative exists exactly when s = 0.  The additive constant is
    normalized to zero (no constant term is ever introduced).  On the
    integer lists of _proper_parts, a polynomial integrates over the lcm of
    its raised exponents, and a nonzero r over a squarefree d (every
    multiplicity of yun_squarefree(d) is 1) gives None at once; a multiple
    pole is reduced in Fractions over those integer factors.
    """
    q, r, d, s = _proper_parts(f)
    if not r:
        den = lcm(*(i + 1 for i, c in enumerate(q) if c))
        acc = [0] + [c * (den // (i + 1)) if c else 0 for i, c in enumerate(q)]
        return RatFun.from_poly(Poly.from_coeffs(acc, var, f.arity, s / den))
    factors = yun_squarefree(d)
    if all(m == 1 for _, m in factors):
        return None
    gn, gd, rest, _ = _hermite_core(_scale(r, s), d, factors)
    if rest:
        return None
    acc = _trim([0] + [c * s / (i + 1) for i, c in enumerate(q)])
    return RatFun.coprime(_poly(_add(_mul(acc, gd), gn), var, f.arity), _poly(gd, var, f.arity))


# ---------------------------------------------------------------------------
# residues
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResidueProfile:
    """Pole structure of f in one variable over Q.

    squarefree_poles: (monic squarefree factor, multiplicity) of the
    denominator.  residues: after Hermite reduction, (x - a, residue at a,
    True) for every rational pole a, in ascending order per squarefree
    factor, then (monic cofactor, trace, False) for the part of that factor
    with no rational root, if any: the trace, a Fraction as every residue
    is, is the exact sum of the residues at its poles.  Each Poly field is
    built on first read off the fields, which equal functions share.
    """

    var: int
    arity: int
    _poles: list[tuple[list[int], int]]
    _residues: list[tuple[list[int], Fraction, bool]]  # x - a/b as [-a, b]
    _q: list[Fraction]

    def _monic(self, v: list[int]) -> Poly:
        return Poly.from_coeffs(v, self.var, self.arity, Fraction(1, v[-1]))

    squarefree_poles = cached_property(lambda self: tuple((self._monic(v), m) for v, m in self._poles))
    residues = cached_property(lambda self: tuple((self._monic(v), *rest) for v, *rest in self._residues))
    polynomial_part = cached_property(lambda self: _poly(self._q, self.var, self.arity))


def _homog(p: list[int], a: int, b: int, n: int) -> int:
    """b^n * p(a/b) in integers, for deg p <= n."""
    return sum(c * a**i * b ** (n - i) for i, c in enumerate(p))


def _rational_roots(p: list[int]) -> tuple[list[Fraction], list[int]]:
    """(rational roots of p, ascending; deflated cofactor) for a squarefree
    primitive integer list p with a positive lead, which the cofactor keeps.

    A linear p = c_0 + c_1 x gives -c_0/c_1.  The roots of a larger
    c_0 + ... + c_d x^d are found modulo the first prime q that does not
    divide c_d and at which they are all simple, lifted q-adically by
    Newton's iteration until q^k exceeds 2*max(|c_0|, |c_d|)^2, and rebuilt
    by rational reconstruction.  Every rational root a/b has |a| <= |c_0|
    and b | c_d, and distinct ones stay distinct modulo q, so every one is
    found; a candidate is kept only if b^d * p(a/b) = 0, and b*x - a divides
    out exactly (Loos, SIAM J. Comput. 12, 1983).  A prime that qualifies
    exists because p is squarefree.
    """
    roots: list[Fraction] = []
    cur = p
    if cur[0] == 0:
        roots.append(Fraction(0))
        cur = cur[1:]
    if len(cur) == 2:
        roots.append(Fraction(-cur[0], cur[1]))
        cur = [1]
    elif len(cur) > 2:
        ints, dp = cur, _deriv(cur)
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
            if a is not None and _homog(cur, a.numerator, a.denominator, len(cur) - 1) == 0:
                roots.append(a)
                cur = _ddivexact(cur, [-a.numerator, a.denominator])
    return sorted(roots), cur


def residue_profile(f: LineFn, var: int) -> ResidueProfile:
    """Exact pole/residue data of a nonzero f in var.

    Each squarefree factor of the integer denominator (yun_squarefree)
    gives up all of its rational roots (see _rational_roots); the residue at
    a root a/b is one Fraction of homogenized integer values at (a, b), or
    of Fraction ones after Hermite's reduction of a multiple pole over the
    same factors.  What is left of the factor is one cofactor, whose trace
    is read off without its irrational roots.
    """
    if f.is_zero:
        raise ValueError("residue profile of the zero function")
    q, r, d, s = _proper_parts(f)
    factors, quotient, residues = yun_squarefree(d), _scale(q, s), []
    if not r:
        return ResidueProfile(var, f.arity, factors, residues, quotient)
    if any(m > 1 for _, m in factors):
        _, _, r, d = _hermite_core(_scale(r, s), d, factors)
        s = _ONE
    dp, n = _deriv(d), len(d) - 2
    for v, _m in factors:
        roots, cof = _rational_roots(v)
        for a in roots:
            num, den = a.numerator, a.denominator
            res = Fraction(s.numerator * _homog(r, num, den, n), s.denominator * _homog(dp, num, den, n))
            residues.append(([-num, den], res, True))
        if len(cof) > 1:
            # the residue at a root a of cof, of degree e, is w(a); by Lagrange
            # interpolation at those roots, their sum is the x^(e-1)
            # coefficient of w*cof' mod cof over the lead of cof
            w = _rem(_mul(_rem(r, cof), _inverse_mod(dp, cof)), cof)
            h = _rem(_mul(w, _deriv(cof)), cof)
            trace = s * h[-1] / cof[-1] if len(h) == len(cof) - 1 else Fraction(0)
            residues.append((cof, trace, False))
    return ResidueProfile(var, f.arity, factors, residues, quotient)


def logderiv_integrate(parts) -> tuple[list[RatFun] | None, Fraction | str]:
    """Solve g_k'/g_k = c * f_k for rational g_k and one least constant c.

    parts is [(f_k, var_k), ...], each f_k a LineFn in var_k.  A multiple
    of f is a log-derivative only if f is proper with simple, split poles;
    the nonzero residues of all parts are then pooled, and c is the least
    positive rational that makes them coprime integers.  Returns (gs, c),
    where g_k is the monic product of (var_k - root)^(c * residue), or
    (None, reason): zero-part, nonzero-poly-part, multiple-pole or
    non-splitting-factor, for the first part that fails (Bronstein,
    Symbolic Integration I, sections 2.4-2.5).  g_k's numerator and
    denominator are integer products of the b*x - a.
    """
    profs = []
    for f, var in parts:
        if f.is_zero:
            return None, "zero-part"
        prof = residue_profile(f, var)
        if prof._q:
            return None, "nonzero-poly-part"
        if any(m > 1 for _, m in prof._poles):
            return None, "multiple-pole"
        if any(not splits for _, _, splits in prof._residues):
            return None, "non-splitting-factor"
        profs.append(prof)
    # a nonzero proper fraction with simple, split poles has a nonzero residue
    pool = [res for prof in profs for _, res, _ in prof._residues if res]
    lcd = lcm(*(res.denominator for res in pool))
    c = Fraction(lcd, gcd(*(res.numerator * (lcd // res.denominator) for res in pool)))
    gs = []
    for prof in profs:
        # distinct linear factors: the numerator and the denominator are coprime
        sides = [[1], [1]]
        for (c0, c1), res, _ in prof._residues:
            k = abs(e := int(c * res))
            power = [comb(k, i) * c0 ** (k - i) * c1**i for i in range(k + 1)] if c0 else [0] * k + [c1**k]
            sides[e < 0] = _mul(sides[e < 0], power)
        gs.append(RatFun.coprime(*map(prof._monic, sides)))
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
