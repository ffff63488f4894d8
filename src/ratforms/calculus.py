"""Differential algebra on one variable at a time.

Everything here treats a RatFun as univariate in a chosen variable with
coefficients in the exact field generated by the remaining variables:
Hermite reduction finds rational antiderivatives, and residue arithmetic
recognizes logarithmic derivatives r'/r so that r can be rebuilt from its
pole multiplicities.  The exact separability test of H across two
variable blocks lives here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .poly import Poly
from .ratfun import RatFun


# ---------------------------------------------------------------------------
# univariate view
# ---------------------------------------------------------------------------


class UPoly:
    """Dense polynomial in one ambient variable, RatFun coefficients.

    Coefficients must not involve the main variable.  Used for the
    field-arithmetic steps (Euclid, Yun, Hermite) where sparse
    multivariate representation is the wrong shape.
    """

    __slots__ = ("coeffs", "var", "arity")

    def __init__(self, coeffs: list[RatFun], var: int, arity: int):
        while coeffs and coeffs[-1].is_zero:
            coeffs.pop()
        self.coeffs = coeffs
        self.var = var
        self.arity = arity

    @classmethod
    def zero(cls, var: int, arity: int) -> "UPoly":
        return cls([], var, arity)

    @classmethod
    def from_poly(cls, p: Poly, var: int) -> "UPoly":
        rows: dict[int, dict] = {}
        for e, c in p.ints.items():
            k = list(e)
            d = k[var]
            k[var] = 0
            rows.setdefault(d, {})[tuple(k)] = c
        deg = max(rows) if rows else -1
        coeffs = [
            RatFun.from_poly(Poly.from_ints(rows.get(i, {}), p.arity, p.content))
            for i in range(deg + 1)
        ]
        return cls(coeffs, var, p.arity)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self) -> RatFun:
        return self.coeffs[-1]

    def coeff(self, i: int) -> RatFun:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return RatFun.const(0, self.arity)

    def __add__(self, other: "UPoly") -> "UPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UPoly(
            [self.coeff(i) + other.coeff(i) for i in range(n)], self.var, self.arity
        )

    def __sub__(self, other: "UPoly") -> "UPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UPoly(
            [self.coeff(i) - other.coeff(i) for i in range(n)], self.var, self.arity
        )

    def __neg__(self) -> "UPoly":
        return UPoly([-c for c in self.coeffs], self.var, self.arity)

    def __mul__(self, other: "UPoly") -> "UPoly":
        if self.is_zero or other.is_zero:
            return UPoly.zero(self.var, self.arity)
        out = [RatFun.const(0, self.arity)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UPoly(out, self.var, self.arity)

    def scale(self, c: RatFun) -> "UPoly":
        return UPoly([a * c for a in self.coeffs], self.var, self.arity)

    def monic(self) -> "UPoly":
        if self.is_zero or self.lc().is_constant and self.lc().constant_value() == 1:
            return self
        return self.scale(RatFun.const(1, self.arity) / self.lc())

    def divmod(self, other: "UPoly") -> tuple["UPoly", "UPoly"]:
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        q = [RatFun.const(0, self.arity)] * max(0, self.degree - other.degree + 1)
        rem = list(self.coeffs)
        inv = RatFun.const(1, self.arity) / other.lc()
        while len(rem) - 1 >= other.degree and rem:
            k = len(rem) - 1 - other.degree
            f = rem[-1] * inv
            q[k] = f
            for j, b in enumerate(other.coeffs):
                rem[k + j] = rem[k + j] - f * b
            while rem and rem[-1].is_zero:
                rem.pop()
        return UPoly(q, self.var, self.arity), UPoly(rem, self.var, self.arity)

    def mod(self, other: "UPoly") -> "UPoly":
        return self.divmod(other)[1]

    def divexact(self, other: "UPoly") -> "UPoly":
        q, r = self.divmod(other)
        if not r.is_zero:
            raise ValueError("inexact univariate division")
        return q

    def pow(self, n: int) -> "UPoly":
        out = UPoly([RatFun.const(1, self.arity)], self.var, self.arity)
        for _ in range(n):
            out = out * self
        return out

    def derivative(self) -> "UPoly":
        return UPoly(
            [c * Fraction(i) for i, c in enumerate(self.coeffs)][1:],
            self.var,
            self.arity,
        )

    def gcd(self, other: "UPoly") -> "UPoly":
        a, b = self, other
        while not b.is_zero:
            a, b = b, a.mod(b)
        return a.monic()

    def inverse_mod(self, modulus: "UPoly") -> "UPoly":
        """Inverse in K[x]/(modulus); requires gcd(self, modulus) = 1."""
        r0, r1 = modulus, self.mod(modulus)
        t0 = UPoly.zero(self.var, self.arity)
        t1 = UPoly([RatFun.const(1, self.arity)], self.var, self.arity)
        while not r1.is_zero:
            q, r = r0.divmod(r1)
            r0, r1 = r1, r
            t0, t1 = t1, t0 - q * t1
        if r0.degree != 0:
            raise ZeroDivisionError("element not invertible modulo the factor")
        return t0.scale(RatFun.const(1, self.arity) / r0.coeffs[0]).mod(modulus)

    def eval(self, c) -> RatFun:
        if not isinstance(c, RatFun):
            c = RatFun.const(c, self.arity)
        acc = RatFun.const(0, self.arity)
        for a in reversed(self.coeffs):
            acc = acc * c + a
        return acc

    def to_ratfun(self) -> RatFun:
        x = RatFun.variable(self.var, self.arity)
        acc = RatFun.const(0, self.arity)
        for a in reversed(self.coeffs):
            acc = acc * x + a
        return acc

    def to_poly(self) -> Poly:
        """Only valid when every coefficient is a polynomial."""
        acc = Poly.zero(self.arity)
        for i, c in enumerate(self.coeffs):
            cf = c.reduce()
            if not cf.den.is_constant:
                raise ValueError("coefficient is not polynomial")
            num = cf.num.scale(1 / cf.den.constant_value())
            acc = acc + num * Poly.variable(self.var, self.arity) ** i
        return acc


def yun_squarefree(d: UPoly) -> list[tuple[UPoly, int]]:
    """Squarefree factorization of monic d: list of (factor, multiplicity)."""
    out: list[tuple[UPoly, int]] = []
    dp = d.derivative()
    g = d.gcd(dp)
    if g.degree == 0:
        return [(d, 1)] if d.degree > 0 else []
    c = d.divexact(g)
    w = dp.divexact(g) - c.derivative()
    i = 1
    while c.degree > 0:
        p = c.gcd(w)
        if p.degree > 0:
            out.append((p, i))
        c = c.divexact(p)
        w = w.divexact(p) - c.derivative()
        i += 1
    return out


# ---------------------------------------------------------------------------
# Hermite reduction
# ---------------------------------------------------------------------------


def _hermite_core(a: UPoly, d: UPoly) -> tuple[RatFun, UPoly, UPoly]:
    """Reduce proper a/d to g' + s/d* with d* squarefree.

    Returns (g, s, d*).  One multiplicity is peeled per pass: with
    d = u*v^m, choose b = -a * ((m-1) u v')^{-1} mod v, so that
    a/d - (b/v^{m-1})' has denominator u*v^{m-1}.
    """
    arity = a.arity
    g = RatFun.const(0, arity)
    fac = yun_squarefree(d)
    while True:
        m = max((mult for _, mult in fac), default=1)
        if m <= 1:
            break
        idx = next(i for i, (_, mult) in enumerate(fac) if mult == m)
        v = fac[idx][0]
        u = d
        for _ in range(m):
            u = u.divexact(v)
        vp = v.derivative()
        w = (u * vp).scale(RatFun.const(m - 1, arity)).mod(v)
        b = ((-a).mod(v) * w.inverse_mod(v)).mod(v)
        num = a + (u * vp * b).scale(RatFun.const(m - 1, arity)) - b.derivative() * u * v
        a = num.divexact(v)
        g = g + b.to_ratfun() / v.to_ratfun() ** (m - 1)
        d = u * v.pow(m - 1)
        fac[idx] = (v, m - 1)
    return g, a, d


def _proper_parts(f: RatFun, var: int) -> tuple[UPoly, UPoly, UPoly]:
    """f = q + r/d with d monic in var, deg r < deg d, gcd(r, d) = 1."""
    f = f.reduce()
    n = UPoly.from_poly(f.num, var)
    d = UPoly.from_poly(f.den, var)
    inv = RatFun.const(1, f.arity) / d.lc()
    n = n.scale(inv)
    d = d.scale(inv)
    q, r = n.divmod(d)
    return q, r, d


def _integrate_poly_part(q: UPoly) -> RatFun:
    out = UPoly(
        [RatFun.const(0, q.arity)]
        + [c * Fraction(1, i + 1) for i, c in enumerate(q.coeffs)],
        q.var,
        q.arity,
    )
    return out.to_ratfun()


def hermite_antiderivative(f: RatFun, var: int) -> RatFun | None:
    """Antiderivative of f in var when one exists inside rational functions.

    Hermite reduction leaves f = g' + s/d* with d* squarefree; a rational
    antiderivative exists exactly when s = 0.  The additive constant is
    normalized to zero (no constant term is ever introduced).
    """
    q, r, d = _proper_parts(f, var)
    acc = _integrate_poly_part(q)
    if r.is_zero:
        return acc
    g, s, _ = _hermite_core(r, d)
    if not s.is_zero:
        return None
    return acc + g


# ---------------------------------------------------------------------------
# residues
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResidueProfile:
    """Pole structure of f in one variable over Q.

    squarefree_poles: (monic squarefree factor, multiplicity) of the
    denominator.  residues: per simple-pole factor after Hermite
    reduction, (factor, residue, splits_over_Q); for a factor that does
    not split over Q the recorded value is the exact trace (sum of the
    residues at its conjugate poles) and the flag is False.
    """

    var: int
    squarefree_poles: tuple[tuple[Poly, int], ...]
    residues: tuple[tuple[Poly, Fraction, bool], ...]
    polynomial_part: Poly


def _upoly_fractions(p: UPoly) -> list[Fraction]:
    out = []
    for c in p.coeffs:
        cf = c.reduce()
        if not (cf.num.is_constant or cf.num.is_zero) or not cf.den.is_constant:
            raise ValueError("profile requires a function univariate over Q")
        out.append(cf.constant_value() if not cf.num.is_zero else Fraction(0))
    return out


def _divisors(n: int, budget: int = 1 << 20) -> list[int] | None:
    """All positive divisors of n, or None when n is too hard to factor."""
    n = abs(n)
    if n == 0:
        return None
    fac: dict[int, int] = {}
    m = n
    p = 2
    while p * p <= m:
        if p > budget:
            return None
        while m % p == 0:
            fac[p] = fac.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        fac[m] = fac.get(m, 0) + 1
    divs = [1]
    for q, e in fac.items():
        divs = [d * q**k for d in divs for k in range(e + 1)]
    divs.sort()
    return divs


def _rational_roots(p: UPoly) -> tuple[list[Fraction], UPoly, bool]:
    """(roots with multiplicity ignored: p squarefree, deflated cofactor, complete).

    complete=False means the divisor search ran out of budget, so the
    cofactor may still have rational roots we could not certify.
    """
    coeffs = _upoly_fractions(p)
    roots: list[Fraction] = []
    cur = list(coeffs)

    def deflate(cs: list[Fraction], a: Fraction) -> list[Fraction]:
        # synthetic division by (x - a); remainder is known to be zero
        q = [Fraction(0)] * (len(cs) - 1)
        carry = cs[-1]
        for i in range(len(cs) - 2, -1, -1):
            q[i] = carry
            carry = cs[i] + carry * a
        return q

    complete = True
    while len(cur) > 1:
        # strip root at zero
        if cur[0] == 0:
            roots.append(Fraction(0))
            cur = cur[1:]
            continue
        den_l = 1
        for c in cur:
            den_l = den_l * c.denominator // gcd(den_l, c.denominator)
        ints = [int(c * den_l) for c in cur]
        g0 = 0
        for c in ints:
            g0 = gcd(g0, c)
        ints = [c // g0 for c in ints]
        d0 = _divisors(ints[0])
        dl = _divisors(ints[-1])
        if d0 is None or dl is None:
            complete = False
            break
        found = None
        for q in dl:
            for r in d0:
                for num in (r, -r):
                    cand = Fraction(num, q)
                    acc = Fraction(0)
                    for c in reversed(cur):
                        acc = acc * cand + c
                    if acc == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            break
        roots.append(found)
        cur = deflate(cur, found)

    arity = p.arity
    cof = UPoly([RatFun.const(c, arity) for c in cur], p.var, arity)
    return roots, cof.monic(), complete


def _power_sums(f: UPoly, upto: int) -> list[Fraction]:
    """Newton power sums p_0..p_upto of the roots of monic f over Q."""
    cs = _upoly_fractions(f.monic())
    d = len(cs) - 1
    e = [Fraction(0)] * (d + 1)  # e[k] = elementary symmetric with sign fix
    for k in range(1, d + 1):
        e[k] = (-1) ** k * cs[d - k]
    ps = [Fraction(d)]
    for k in range(1, upto + 1):
        if k <= d:
            acc = Fraction(0)
            for j in range(1, k):
                acc += (-1) ** (j - 1) * e[j] * ps[k - j]
            acc += (-1) ** (k - 1) * e[k] * k
            ps.append(acc)
        else:
            acc = Fraction(0)
            for j in range(1, d + 1):
                acc += (-1) ** (j - 1) * e[j] * ps[k - j]
            ps.append(acc)
    return ps


def residue_profile(f: RatFun, var: int) -> ResidueProfile:
    """Exact pole/residue data of f in var; requires f univariate over Q."""
    if f.is_zero:
        raise ValueError("residue profile of the zero function")
    q, r, d = _proper_parts(f, var)
    poly_part = q.to_poly()
    factors = yun_squarefree(d)
    sq = tuple((v.to_poly(), m) for v, m in factors)
    if r.is_zero:
        return ResidueProfile(var, sq, (), poly_part)
    _, s, dstar = _hermite_core(r, d)
    dsp = dstar.derivative()
    residues: list[tuple[Poly, Fraction, bool]] = []
    arity = f.arity
    for v, _m in factors:
        roots, cof, _complete = _rational_roots(v)
        for a in roots:
            num = s.eval(a).constant_value()
            den = dsp.eval(a).constant_value()
            factor = Poly.variable(var, arity) - Poly.const(a, arity)
            residues.append((factor, num / den, True))
        if cof.degree >= 1:
            w = (s.mod(cof) * dsp.inverse_mod(cof)).mod(cof)
            ps = _power_sums(cof, max(0, w.degree))
            trace = Fraction(0)
            for j, c in enumerate(w.coeffs):
                trace += c.constant_value() * ps[j]
            residues.append((cof.to_poly(), trace, False))
    return ResidueProfile(var, sq, tuple(residues), poly_part)


def logderiv_obstruction(prof: ResidueProfile) -> str | None:
    """Why no multiple of the profiled f is a log-derivative g'/g, or None.

    The reason codes are nonzero-poly-part, multiple-pole and
    non-splitting-factor; None leaves only the residues to be integers.
    """
    if not prof.polynomial_part.is_zero:
        return "nonzero-poly-part"
    if any(m > 1 for _, m in prof.squarefree_poles):
        return "multiple-pole"
    if any(not splits for _, _, splits in prof.residues):
        return "non-splitting-factor"
    return None


def logderiv_integrate(
    prof: ResidueProfile, scale: Fraction | int
) -> tuple[RatFun | None, str | None]:
    """Solve g'/g = scale * f for rational g, f the profiled function.

    Scaling f by a nonzero constant scales its residues and leaves its
    poles and their order alone, so the profile of f serves for scale * f.
    Succeeds when logderiv_obstruction finds nothing and every scaled
    residue is an integer; then g is the monic product of
    (var - root)^residue.  Otherwise returns (None, reason): a code of
    logderiv_obstruction or non-integer-residue.
    """
    reason = logderiv_obstruction(prof)
    if reason is not None:
        return None, reason
    residues = [(factor, scale * res) for factor, res, _ in prof.residues]
    if any(res.denominator != 1 for _, res in residues):
        return None, "non-integer-residue"
    g = RatFun.const(1, prof.polynomial_part.arity)
    for factor, res in residues:
        e = int(res)
        if e:
            g = g * RatFun.from_poly(factor) ** e
    return g, None


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
