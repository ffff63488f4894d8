"""Deterministic generators of canonical-form instances for the test suite.

Every generator takes a seeded random.Random so corpora are reproducible.
Trivariate instances are built exactly as the canonical forms prescribe: a
form s0 in splitting univariate parts, wrapped in an outer Mobius map q
drawn from MOBIUS_SCHEDULE.  The fitters accept any nonconstant univariate
rational q; the fixed list only keeps the corpora reproducible.  Frozen
handwritten lists cover the cases that must not depend on generator luck.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from collections import namedtuple
from fractions import Fraction
from itertools import count
from math import gcd, lcm
from pathlib import Path

from ratforms.calculus import (
    _ONE,
    _add,
    _deriv,
    _divexact,
    _divmod,
    _hermite_core,
    _inverse_mod,
    _monic,
    _mul,
    _poly,
    _rem,
    _scale,
    _sub,
    _trim,
    LineFn,
    hermite_antiderivative,
    separability_identity,
)
from ratforms.classify import _twisted_g
from ratforms.modular import _eval, is_probable_prime, rational_reconstruct
from ratforms.poly import Poly, _axis_line, _qpowers
from ratforms.ratfun import DegenerateSpecializationError, PoleError, RatFun

TRI = ("x", "y", "z")
BI = ("x", "y")

#: Outer Mobius maps of the generated instances, as (label, (a, b, c, d))
#: with m(t) = (a*t + b) / (c*t + d): shifts, inversions and their
#: compositions.
MOBIUS_SCHEDULE: tuple[tuple[str, tuple[int, int, int, int]], ...] = (
    ("t", (1, 0, 0, 1)),
    ("1/t", (0, 1, 1, 0)),
    ("t-1", (1, -1, 0, 1)),
    ("1/(t-1)", (0, 1, 1, -1)),
    ("t/(t-1)", (1, 0, 1, -1)),
    ("(t-1)/t", (1, -1, 1, 0)),
    ("t+1", (1, 1, 0, 1)),
    ("1-t", (-1, 1, 0, 1)),
    ("1/(1-t)", (0, 1, -1, 1)),
    ("(t+1)/t", (1, 1, 1, 0)),
)


def apply_mobius(s0: RatFun, coeffs: tuple[int, int, int, int]) -> RatFun:
    a, b, c, d = coeffs
    return (s0 * a + b) / (s0 * c + d)


def pick_mobius(rng: random.Random) -> tuple[str, tuple[int, int, int, int]]:
    return MOBIUS_SCHEDULE[rng.randrange(len(MOBIUS_SCHEDULE))]


def nonzero_int(rng: random.Random, hi: int = 6) -> int:
    v = 0
    while v == 0:
        v = rng.randint(-hi, hi)
    return v


def splitting_part(
    rng: random.Random, var: int, arity: int = 3, max_deg: int = 3
) -> RatFun:
    """Univariate polynomial part that splits over Q: distinct linear factors.

    Simple roots keep every factor multiplicity 1, so the exponent recovery
    of the field fitter is never blocked by a shared multiplicity.
    """
    deg = rng.randint(1, max_deg)
    roots: set[Fraction] = set()
    while len(roots) < deg:
        roots.add(Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3))))
    x = RatFun.variable(var, arity)
    part = RatFun.const(Fraction(nonzero_int(rng), rng.choice((1, 2))), arity)
    for root in sorted(roots):
        part = part * (x - root)
    return part


def dense_poly_part(
    rng: random.Random, var: int, arity: int = 3, max_deg: int = 3
) -> RatFun:
    """Univariate polynomial part with dense random coefficients."""
    deg = rng.randint(1, max_deg)
    x = RatFun.variable(var, arity)
    part = RatFun.const(rng.randint(-9, 9), arity)
    for k in range(1, deg):
        part = part + x**k * rng.randint(-9, 9)
    return part + x**deg * nonzero_int(rng, 9)


def make_additive(rng: random.Random) -> RatFun:
    """q(r1(x) + r2(y) + r3(z)) with q drawn from MOBIUS_SCHEDULE."""
    s0 = sum((splitting_part(rng, i) for i in range(1, 3)), splitting_part(rng, 0))
    return apply_mobius(s0, pick_mobius(rng)[1])


def make_multiplicative(rng: random.Random) -> RatFun:
    """q(r1(x) * r2(y) * r3(z)) with q drawn from MOBIUS_SCHEDULE."""
    s0 = splitting_part(rng, 0) * splitting_part(rng, 1) * splitting_part(rng, 2)
    return apply_mobius(s0, pick_mobius(rng)[1])


def make_field(rng: random.Random) -> tuple[RatFun, int]:
    """q(r1(x) * (r2(y) + r3(z))^n) with n <= 5 and q from MOBIUS_SCHEDULE."""
    n = rng.randint(1, 5)
    s0 = splitting_part(rng, 0) * (splitting_part(rng, 1) + splitting_part(rng, 2)) ** n
    return apply_mobius(s0, pick_mobius(rng)[1]), n


def make_twisted(rng: random.Random) -> RatFun:
    """q((r1(x) + r2(y)) / (r2(y) + r3(z))) with q from MOBIUS_SCHEDULE."""
    r1 = splitting_part(rng, 0)
    r2 = splitting_part(rng, 1)
    r3 = splitting_part(rng, 2)
    s0 = (r1 + r2) / (r2 + r3)
    return apply_mobius(s0, pick_mobius(rng)[1])


def make_twisted_form(rng: random.Random) -> RatFun:
    """Bare twisted form (r1+r2)/(r2+r3) with dense random parts, no wrap."""
    r1 = dense_poly_part(rng, 0)
    r2 = dense_poly_part(rng, 1)
    r3 = dense_poly_part(rng, 2)
    if (r1 + r2).is_zero or (r2 + r3).is_zero:
        return make_twisted_form(rng)
    return (r1 + r2) / (r2 + r3)


def make_bivariate_additive(rng: random.Random) -> RatFun:
    """q(F(x) + G(y)) with splitting F, G and q from MOBIUS_SCHEDULE."""
    s0 = splitting_part(rng, 0, arity=2) + splitting_part(rng, 1, arity=2)
    return apply_mobius(s0, pick_mobius(rng)[1])


def make_bivariate_multiplicative(rng: random.Random) -> RatFun:
    """q(F(x) * G(y)) with splitting F, G and q from MOBIUS_SCHEDULE."""
    s0 = splitting_part(rng, 0, arity=2) * splitting_part(rng, 1, arity=2)
    return apply_mobius(s0, pick_mobius(rng)[1])


# Non-twisted trivariate functions on which cube identity (1) must fail:
# each couples x to z additively somewhere, so f(x2,y,z)/f(x1,y,z) genuinely
# depends on z.
NON_TWISTED = (
    "x + y + z",
    "(x + y + z)^2",
    "x + y + z + x^2*y^2*z^2",
    "x*y + z",
    "x + y*z",
    "x^2 + y^2 + z^2",
    "x + y + z^3",
    "x*y + z*y + x",
    "(x + z)/(1 + y)",
    "x + z + x*y*z",
)


def ref_subs(terms: dict, values: dict) -> dict:
    """The Fraction model of pinning variables: values[i] is substituted
    for x_i term by term in {exponent: coefficient}, and zero sums dropped."""
    out: dict = {}
    for e, c in terms.items():
        k = list(e)
        for i, v in values.items():
            c *= Fraction(v) ** e[i]
            k[i] = 0
        out[tuple(k)] = out.get(tuple(k), 0) + c
    return {e: c for e, c in out.items() if c}


def partial_ratio(f: RatFun, a: int, b: int) -> RatFun:
    """The ratio f_a / f_b, raw, with the common denominator cancelled upfront."""
    n, d = f.num, f.den
    na = n.derivative(a) * d - n * d.derivative(a)
    nb = n.derivative(b) * d - n * d.derivative(b)
    if nb.is_zero:
        raise ZeroDivisionError("denominator partial is identically zero")
    return RatFun.raw(na, nb)


def restrict(f: Poly, point, i: int) -> Poly:
    """The reference for Poly.line_jet: the restriction of f to the line
    through point parallel to the x_i axis, a polynomial in x_i alone, read
    off in one pass over the terms at exact powers (poly._qpowers and
    poly._axis_line).  Coordinates are ints or Fractions; point[i] is not
    used."""
    if not f.ints:
        return f
    rows, degs, den, _ = _qpowers(f.ints, point, i)
    scale = f.content / den if den > 1 else f.content
    return Poly.from_coeffs(_axis_line(f.ints, rows, i, degs[i]), i, f.arity, scale)


def line_ratio(f: RatFun, a: int, b: int, point, free: int) -> RatFun:
    """The reference for classify._Fn.specialized_ratio: f_a / f_b on the
    line through point parallel to the x_free axis, from the restriction of
    each partial of N and D and one reduction through RatFun."""
    N, D = f.num, f.den
    n, d = restrict(N, point, free), restrict(D, point, free)
    (na, da), (nb, db) = ((restrict(N.derivative(v), point, free), restrict(D.derivative(v), point, free))
                          for v in (a, b))
    den = nb * d - n * db
    if den.is_zero:
        raise DegenerateSpecializationError("partial ratio degenerates")
    return RatFun(na * d - n * da, den)


def twisted_parts(fn, rng):
    """The reference for classify._twisted_parts, on Polys and RatFuns: the
    same draws and the same parts, with every partial of N and D that
    _twisted_g reads differentiated in full and restricted to the line, each
    quotient -g_y g_k / delta reduced as a RatFun, u read back as a LineFn
    for Hermite, and r1 and r3 formed in RatFun arithmetic."""
    def ratio(point, free, k):
        g, delta = _twisted_g(lambda *vs: tuple(restrict(f, point, free) for f in fn.partials(*vs)))
        return RatFun(-(g[1] * g[k]), delta)

    for _ in range(8):
        cx, cy, cz = (rng.randrange(2, 98) for _ in range(3))
        try:
            u = ratio((cx, cy, cz), 1, 2).partial(1)
            if u.is_zero:
                continue
            r2 = hermite_antiderivative(line(u, 1), 1)
            if r2 is None:
                return
            r2cy, r2cy1 = (r2.eval_q((cx, c, cz)) for c in (cy, cy + 1))
            W, W1 = (ratio((cx, c, cz), 0, 2) for c in (cy, cy + 1))
            V, V1 = (ratio((cx, c, cz), 2, 0) for c in (cy, cy + 1))
            step = RatFun.const(r2cy1 - r2cy, W.arity)
            r1 = W * (step / (W1 - W)) - r2cy
            r3 = V * (step / (V1 - V)) - r2cy
        except (DegenerateSpecializationError, PoleError, ZeroDivisionError, ValueError):
            continue
        yield r1, r2, r3


def exact_2decomposed(P: RatFun) -> tuple[bool, dict[str, bool]]:
    """Exact separability of every partial ratio P_a/P_b: all, and each one.

    The doubled-variable identity of each pair is checked as an exact
    polynomial identity in five variables; this is the reference the
    classifier's sampled probe (classify._decomposed_detail) must match.
    """
    detail = {
        f"2dec_{TRI[a]}{TRI[b]}": separability_identity(partial_ratio(P, a, b), (a,), (b,))
        for a, b in ((0, 1), (0, 2), (1, 2))
    }
    return all(detail.values()), detail


# Handwritten 2-decomposed trivariate functions (all three partial ratios
# separable) with their expected classification.
HANDWRITTEN_2DEC = (
    ("x + y + z", "GroupAdditive"),
    ("x*y*z", "GroupMultiplicative"),
    ("(x + y)/(y + z)", "Twisted"),
    ("x*(y + z)^2", "Field"),
    ("(x + y + z)^2", "GroupAdditive"),
    ("1/(x*y*z)", "GroupMultiplicative"),
    ("x^2*(y^3 + z)^5", "Field"),
    ("(x*y*z - 1)/(x*y*z + 1)", "GroupMultiplicative"),
    ("(x + y + z)/(x + y + z + 1)", "GroupAdditive"),
    ("((x^2 + 1)*(y^2 + 1)*(z^2 + 1))^2", "Unresolved"),
)

# Bivariate functions with no algebraic constraint (image dimension 4):
# P_x/P_y fails the exact separability identity for each.
UNCONSTRAINED_BIVARIATE = (
    "x + y + x^2*y^3",
    "x + y^2 + x^3*y",
    "x^2 + y + x*y^3",
    "x + y + x^2*y^2 + x^3*y",
    "x*y + x + y^2 + x^2*y^3",
    "(x + y^2)/(y + x^2)",
    "x^3 + y^3 + x*y^2",
    "x + y + x*y + x^2*y^3",
    "x^2*y + x*y^3 + y",
    "(x + y)/(1 + x*y^2) + x",
)

# Rank-agreement corpus: total degree <= 4, mixed arity, mixed structure.
RANK_CORPUS_BI = (
    "x + y",
    "x*y",
    "x - y",
    "x/y",
    "x + y^2",
    "x^2 + y^2",
    "x*y + 1",
    "(x + y)^2",
    "x^2*y^2",
    "x + y + x*y",
    "x + y + x^2*y^2",
    "x + y + x^3*y",
    "x + y + x^2*y^3 - x^2*y^3",  # reduces to x + y
    "1/(x + y)",
    "(x - y)/(x + y)",
    "x^2/y",
    "x + 1/y",
    "x^2*y + x*y^2",
)

RANK_CORPUS_TRI = (
    "x + y + z",
    "x*y*z",
    "(x + y)/(y + z)",
    "x + y + z^2",
    "x*y + z",
    "x + y*z",
    "(x + y + z)^2",
    "x*(y + z)^2",
    "x^2 + y^2 + z^2",
    "1/(x + y + z)",
    "x + 2*y + 3*z",
    "x*y + y*z",
    "(x + z)/(1 + y)",
    "x + y + z + x*y*z",
    "x^2*y*z",
    "x/(y*z)",
    "x*y*z + x + 1",
    "(x*y + z)^2",
)


# The Fraction-list calculus that calculus.py's integer lists replaced, kept
# as the reference for a function univariate over Q: every coefficient is a
# Fraction, the denominator is made monic up front, and Euclid's gcd drives
# Yun's split.  It reads its own coefficient lists and takes its own gcd, so
# that it shares no front end with the code it checks.


def _ints(p: Poly, var: int) -> list[int]:
    """The integer coefficient list of p in var, lowest first, for p free of
    the other variables; ValueError otherwise."""
    out = [0] * (p.degree_in(var) + 1) if p.ints else []
    for e, c in p.ints.items():
        if sum(e) != e[var]:
            raise ValueError("not univariate over Q")
        out[e[var]] = c
    return out


def _coeffs(p: Poly, var: int) -> list[Fraction]:
    """The Fraction coefficient list of p in var, lowest first, for p free
    of the other variables."""
    return [p.content * c for c in _ints(p, var)]


def _gcd(a: list, b: list) -> list:
    """Monic gcd of the Fraction lists a and b, not both zero."""
    while b:
        a, b = b, _rem(a, b)
    return _monic(a)


def line(f: RatFun, var: int) -> LineFn:
    """f, univariate over Q in var, as the LineFn the calculus takes."""
    f = f.reduce()
    return LineFn(_ints(f.num, var), _ints(f.den, var), f.num.content / f.den.content, f.arity)


def _fraction_parts(f: RatFun, var: int) -> tuple[list, list, list]:
    """f = q + r/d with d monic in var, deg r < deg d, gcd(r, d) = 1."""
    f = f.reduce()
    d = _coeffs(f.den, var)
    inv = _ONE / d[-1]
    d = _scale(d, inv)
    q, r = _divmod(_scale(_coeffs(f.num, var), inv), d)
    return q, r, d


def ref_yun_squarefree(d: list) -> list[tuple[list, int]]:
    """Squarefree factorization of monic d: monic, pairwise coprime factors
    by ascending multiplicity."""
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


def ref_hermite_antiderivative(f: RatFun, var: int) -> RatFun | None:
    """The reference for calculus.hermite_antiderivative."""
    q, r, d = _fraction_parts(f, var)
    acc = _trim([0] + [c * Fraction(1, i + 1) for i, c in enumerate(q)])
    if not r:
        return RatFun.from_poly(_poly(acc, var, f.arity))
    gn, gd, s, _ = _hermite_core(r, d, ref_yun_squarefree(d))
    if s:
        return None
    return RatFun.coprime(_poly(_add(_mul(acc, gd), gn), var, f.arity), _poly(gd, var, f.arity))


def ref_rational_roots(p: list) -> tuple[list[Fraction], list]:
    """The reference for calculus._rational_roots on a monic squarefree
    Fraction list: (rational roots, ascending; monic deflated cofactor)."""
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


def bench_corpus(monkeypatch):
    """bench/corpus.py, loaded by path: it builds its inputs without ratforms."""
    path = Path(__file__).resolve().parent.parent / "bench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("_bench_corpus", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for its dataclass
    spec.loader.exec_module(module)
    return module


#: The public fields of a calculus.ResidueProfile, which the reference builds.
RefProfile = namedtuple("RefProfile", "var squarefree_poles residues polynomial_part")


def public_profile(prof) -> RefProfile:
    """The public fields of a calculus.ResidueProfile, to compare with the
    reference's."""
    return RefProfile(prof.var, prof.squarefree_poles, prof.residues, prof.polynomial_part)


def ref_residue_profile(f: RatFun, var: int) -> RefProfile:
    """The reference for calculus.residue_profile: its public fields."""
    if f.is_zero:
        raise ValueError("residue profile of the zero function")
    q, r, d = _fraction_parts(f, var)
    arity = f.arity
    factors = ref_yun_squarefree(d)
    sq = tuple((_poly(v, var, arity), m) for v, m in factors)
    poly_part = _poly(q, var, arity)
    if not r:
        return RefProfile(var, sq, (), poly_part)
    _, _, s, dstar = _hermite_core(r, d, factors)
    dsp = _deriv(dstar)
    residues: list[tuple[Poly, Fraction, bool]] = []
    for v, _m in factors:
        roots, cof = ref_rational_roots(v)
        for a in roots:
            factor = Poly.variable(var, arity) - Poly.const(a, arity)
            residues.append((factor, _eval(s, a) / _eval(dsp, a), True))
        if len(cof) > 1:
            w = _rem(_mul(_rem(s, cof), _inverse_mod(dsp, cof)), cof)
            h = _rem(_mul(w, _deriv(cof)), cof)
            trace = Fraction(h[-1] if len(h) == len(cof) - 1 else 0)
            residues.append((_poly(cof, var, arity), trace, False))
    return RefProfile(var, sq, tuple(residues), poly_part)


def ref_logderiv_integrate(parts) -> tuple[list[RatFun] | None, Fraction | str]:
    """The reference for calculus.logderiv_integrate: the same pooling on
    ref_residue_profile, with each g_k a product of Poly powers."""
    profs = []
    for f, var in parts:
        if f.is_zero:
            return None, "zero-part"
        prof = ref_residue_profile(f, var)
        if not prof.polynomial_part.is_zero:
            return None, "nonzero-poly-part"
        if any(m > 1 for _, m in prof.squarefree_poles):
            return None, "multiple-pole"
        if any(not splits for _, _, splits in prof.residues):
            return None, "non-splitting-factor"
        profs.append(prof)
    pool = [res for prof in profs for _, res, _ in prof.residues if res]
    lcd = lcm(*(res.denominator for res in pool))
    c = Fraction(lcd, gcd(*(res.numerator * (lcd // res.denominator) for res in pool)))
    gs = []
    for prof in profs:
        num = den = Poly.const(1, prof.polynomial_part.arity)
        for factor, res, _ in prof.residues:
            e = int(c * res)
            if e > 0:
                num = num * factor**e
            elif e < 0:
                den = den * factor**-e
        gs.append(RatFun.coprime(num, den))
    return gs, c


def ref_proportional(A: Poly, P: RatFun, s: RatFun) -> bool:
    """The reference for oracle._proportional: both homogenized parts of A
    by Horner's rule on Poly objects, compared with D_P and -N_P through the
    ratio of their grlex leads."""
    E = A.degree_in(1)
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
    if alpha.is_zero:
        return False
    lam = alpha.leading()[1] / P.den.leading()[1]
    return alpha == P.den.scale(lam) and horner(c) == P.num.scale(-lam)
