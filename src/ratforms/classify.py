"""Canonical-form classification of constrained rational functions.

A bivariate function whose doubling map has a constrained image decomposes
through F(x) + G(y) or F(x) * G(y), the group template for two variables;
a trivariate one decomposes through r1 + r2 + r3, r1 * r2 * r3,
r_i * (r_j + r_l)^n, or the twisted quotient
(r1(x) + r2(y)) / (r2(y) + r3(z)), each inside an outer map q that is any
nonconstant univariate rational function: every fitter reads the inner
parts off partial ratios or log-derivatives from which q cancels.  The
fitters recover the inner parts exactly and back every positive verdict
with a machine-checkable dependence certificate: the relation
a(q)*p - b(q) stating P = (b/a)(s), verified by exact expansion.

fit_bivariate and classify_trivariate share one pipeline: the
nondegeneracy check, the fitters (group; then field and twisted for three
variables), and one measurement of the image dimension, which decides
NoConstraint when no form certifies.

Fitting runs in two phases.  Cheap modular value probes ("gates") reject
wrong shapes fast -- an unequal pair of residues is an exact disproof of the
identity being probed, so gates never eliminate a true match except with
negligible probability, and a fluke pass is harmless because every positive
path ends in a verified certificate.  Recovery then works on exact
univariate specializations, so no step ever multiplies two large
multivariate polynomials except the single certificate expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from typing import NamedTuple

from .calculus import (
    hermite_antiderivative,
    logderiv_integrate,
    logderiv_obstruction,
    residue_profile,
    separability_identity,
)
from .dimension import image_dimension, is_nondegenerate
from .modular import DEFAULT_PRIMES, RETRIES, rng_for
from .oracle import composition_relation, prime_pool
from .poly import Poly
from .ratfun import (
    DegenerateSpecializationError,
    PoleError,
    RatFun,
    compose_numerator,
    partial_ratio,
    pole_free_values,
)

_VN = ("x", "y", "z")
#: fit_field's diagnostic suffix for each logderiv_obstruction code.
_FIELD_OBSTRUCTION = {
    "nonzero-poly-part": "proper",
    "multiple-pole": "simple_poles",
    "non-splitting-factor": "residues_split",
}

@dataclass
class DependenceCertificate:
    """Exact witness that P and the fitted s are algebraically dependent.

    annihilator is a nonzero bivariate polynomial in slots (p, q) with
    annihilator(P, s) = 0 as a function; the fitters' certificates are
    a(q)*p - b(q), that is P = (b/a)(s).  verified records that the exact
    expansion of that composition was checked to vanish.
    """

    annihilator: Poly
    degree_bound: int
    verified: bool


@dataclass
class FormReport:
    """Outcome of classification: verdict, fitted parts, certificate.

    verdict is one of GroupAdditive, GroupMultiplicative, Field, Twisted,
    NoConstraint, Degenerate, Unresolved.  Positive verdicts always carry
    fitted parts and a verified certificate.  fitted maps "r1", "r2" and
    "s" (and "r3" for a trivariate input) to the parts of the canonical
    form: r_i is the part in the i-th variable and s the inner function
    the certificate relates to the input.  diagnostics maps named probe
    steps to booleans; for Field, pivot is the 1-based index of the variable
    outside the inner sum and exponent is the outer power n.
    image_dimension is set for every nondegenerate input.
    """

    verdict: str
    fitted: dict[str, RatFun] | None
    certificate: DependenceCertificate | None
    diagnostics: dict[str, bool]
    pivot: int | None = None
    exponent: int | None = None
    image_dimension: int | None = None


class GroupFit(NamedTuple):
    verdict: str
    r1: RatFun
    r2: RatFun
    r3: RatFun | None
    s: RatFun
    certificate: DependenceCertificate


class FieldFit(NamedTuple):
    pivot: int
    exponent: int
    r1: RatFun
    r2: RatFun
    r3: RatFun
    s: RatFun
    certificate: DependenceCertificate


class TwistedFit(NamedTuple):
    r1: RatFun
    r2: RatFun
    r3: RatFun
    s: RatFun
    certificate: DependenceCertificate


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def _gradients_not_parallel(P: RatFun, s: RatFun, primes, seed: int) -> bool:
    """True when some 2x2 minor of [grad P; grad s] is provably nonzero.

    Minors are evaluated mod p at random points with the pole factors
    cleared; a nonzero residue is an exact disproof of parallelism, so a
    True return is certain while a False return only means every sampled
    minor vanished.
    """
    n = P.arity
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    for p in primes:
        rng = rng_for(seed, f"minors:p{p}")
        done = 0
        tries = 0
        while done < 4 and tries < RETRIES:
            tries += 1
            w = ([rng.randrange(1, p) for _ in range(n)],)
            (pdv, *pdg), = P.den.eval_grad_mod(w, p)
            (sdv, *sdg), = s.den.eval_grad_mod(w, p)
            if pdv == 0 or sdv == 0:
                continue
            (pnv, *png), = P.num.eval_grad_mod(w, p)
            (snv, *sng), = s.num.eval_grad_mod(w, p)
            gp = [png[i] * pdv - pnv * pdg[i] for i in range(n)]
            gs = [sng[i] * sdv - snv * sdg[i] for i in range(n)]
            for a, b in pairs:
                if (gp[a] * gs[b] - gp[b] * gs[a]) % p:
                    return True
            done += 1
    return False


def dependence_certificate(
    P: RatFun,
    s: RatFun,
    dmax: int | None = None,
    primes: tuple[int, ...] = DEFAULT_PRIMES,
    seed: int = 0,
) -> DependenceCertificate | None:
    """Relation a(q)*p - b(q) stating P = (b/a)(s), or None.

    Every fitter builds s with P = q(s) for a univariate rational q, so the
    certificate is that relation, of total degree at most dmax (by default
    2 * (deg P + deg s)), fitted by rational interpolation and verified by
    exact expansion.  It is linear in p: a dependence of higher degree in p
    means P lies outside Q(s), so s does not explain P and no certificate
    is returned.  P and s are dependent iff their gradients are parallel,
    so provably non-parallel gradients end the search immediately; their
    minors are sampled modulo primes that divide no coefficient denominator
    of P or s (see prime_pool).
    """
    if P.arity != s.arity:
        raise ValueError("P and s must share one ambient variable list")
    if s.is_constant:
        raise ValueError("the fitted function s must be nonconstant")
    if P.is_constant:
        raise ValueError("P must be nonconstant")
    if _gradients_not_parallel(P, s, prime_pool(primes, [P, s], len(primes)), seed):
        return None
    bound = dmax if dmax is not None else 2 * max(1, P.total_degree() + s.total_degree())
    ann = composition_relation(P, s, bound, primes=primes, seed=seed)
    if ann is None:
        return None
    # composition_relation only returns a relation whose exact composition
    # with (P, s) vanished identically, so the certificate is born verified.
    return DependenceCertificate(ann, ann.total_degree(), True)


def verify_certificate(
    cert: DependenceCertificate,
    P: RatFun,
    s: RatFun,
    primes: tuple[int, ...] = DEFAULT_PRIMES,
    seed: int = 0,
) -> bool:
    """Re-check a certificate from scratch: is annihilator(P, s) = 0 exactly?

    Modular spot evaluations run first so that a corrupted certificate fails
    in microseconds; agreement at every sample falls through to the exact
    symbolic expansion, which is the final word.  The spot checks skip a
    prime that divides a coefficient denominator of P or s (see prime_pool).
    """
    if P.arity != s.arity:
        raise ValueError("P and s must share one ambient variable list")
    ann = cert.annihilator
    if ann.arity != 2 or ann.is_zero:
        return False
    for p in prime_pool(primes, [P, s], len(primes)):
        pts = pole_free_values([P, s], 4, p, rng_for(seed, f"certcheck:p{p}"))
        if pts is not None and any(ann.eval_mod(pt, p) for pt in pts):
            return False
    return compose_numerator(ann, [P, s]).is_zero


# ---------------------------------------------------------------------------
# evaluation and specialization helpers
# ---------------------------------------------------------------------------


class _Fn:
    """Point-evaluation and exact-specialization views of one function.

    Wraps the raw numerator/denominator pair (which need not be reduced)
    and caches the partial-derivative polynomials; all partial values use
    (N_i D - N D_i) / D^2 so no symbolic quotient is ever formed.
    """

    __slots__ = ("num", "den", "_dn", "_dd")

    def __init__(self, f: RatFun):
        self.num = f.num
        self.den = f.den
        self._dn: dict[tuple[int, ...], Poly] = {}
        self._dd: dict[tuple[int, ...], Poly] = {}

    def dnum(self, *vs: int) -> Poly:
        """N differentiated in the variables vs, in order."""
        if vs not in self._dn:
            self._dn[vs] = (self.dnum(*vs[:-1]) if len(vs) > 1 else self.num).derivative(vs[-1])
        return self._dn[vs]

    def dden(self, *vs: int) -> Poly:
        """D differentiated in the variables vs, in order."""
        if vs not in self._dd:
            self._dd[vs] = (self.dden(*vs[:-1]) if len(vs) > 1 else self.den).derivative(vs[-1])
        return self._dd[vs]

    def ratio_mod(self, a: int, b: int, w, p: int) -> int:
        """(f_a / f_b)(w) mod p; PoleError on any vanishing denominator."""
        (dv, *dg), = self.den.eval_grad_mod((w,), p)
        if dv == 0:
            raise PoleError("pole at sample point")
        (nv, *ng), = self.num.eval_grad_mod((w,), p)
        pb = (ng[b] * dv - nv * dg[b]) % p
        if pb == 0:
            raise PoleError("vanishing partial at sample point")
        return (ng[a] * dv - nv * dg[a]) * pow(pb, p - 2, p) % p

    def ratio_value(self, a: int, b: int, w) -> Fraction:
        """(f_a / f_b)(w) over Q."""
        dv = self.den.eval_q(w)
        if dv == 0:
            raise PoleError("pole at sample point")
        nv = self.num.eval_q(w)
        pb = self.dnum(b).eval_q(w) * dv - nv * self.dden(b).eval_q(w)
        if pb == 0:
            raise PoleError("vanishing partial at sample point")
        pa = self.dnum(a).eval_q(w) * dv - nv * self.dden(a).eval_q(w)
        return pa / pb

    def specialized_ratio(self, a: int, b: int, vals: dict[int, Fraction]) -> RatFun:
        """(f_a / f_b) with the variables in vals pinned, exact and reduced."""
        n = self.num.subs_scalars(vals)
        d = self.den.subs_scalars(vals)
        na = self.dnum(a).subs_scalars(vals)
        da = self.dden(a).subs_scalars(vals)
        nb = self.dnum(b).subs_scalars(vals)
        db = self.dden(b).subs_scalars(vals)
        den = nb * d - n * db
        if den.is_zero:
            raise DegenerateSpecializationError("partial ratio degenerates")
        return RatFun(na * d - n * da, den)


def _split_partial_ratio(fn: _Fn, a: int, b: int, X: int, Y: int, rng):
    """Split f_a/f_b into (u(X), v(Y)) by specialization, scale shared.

    u is the ratio on a random X-line and v = H(point)/H on a random Y-line,
    so u/v equals the ratio exactly whenever it is separable; validity for
    a non-separable ratio is *not* checked here -- downstream exact anchors
    (integration, identity checks, certificates) reject those fits.
    """
    arity = fn.num.arity
    for _ in range(RETRIES):
        vals = {i: Fraction(rng.randrange(2, 98)) for i in range(arity)}
        try:
            u = fn.specialized_ratio(a, b, {i: c for i, c in vals.items() if i != X})
            hy = fn.specialized_ratio(a, b, {i: c for i, c in vals.items() if i != Y})
            point = tuple(vals[i] for i in range(arity))
            h0 = u.eval_q(point)
        except (DegenerateSpecializationError, PoleError, ZeroDivisionError):
            continue
        if h0 == 0 or u.is_zero or hy.is_zero:
            continue
        return u, RatFun.coprime(hy.den.scale(h0), hy.num)
    return None


def _gate_ratio_separable(
    fn: _Fn, a: int, b: int, X: int, Y: int, rng, p: int, rounds: int = 2
) -> bool:
    """Probe H(X,Y) H(X0,Y0) = H(X,Y0) H(X0,Y) for H = f_a/f_b mod p.

    An unequal residue pair is an exact disproof of separability; `rounds`
    agreeing probes are strong (not absolute) evidence for it.
    """
    arity = fn.num.arity
    ok = 0
    tries = 0
    while ok < rounds and tries < RETRIES:
        tries += 1
        w = [rng.randrange(1, p) for _ in range(arity)]
        x0 = rng.randrange(1, p)
        y0 = rng.randrange(1, p)
        wx = list(w)
        wx[X] = x0
        wy = list(w)
        wy[Y] = y0
        wxy = list(wx)
        wxy[Y] = y0
        try:
            v = fn.ratio_mod(a, b, w, p)
            v00 = fn.ratio_mod(a, b, wxy, p)
            vx = fn.ratio_mod(a, b, wx, p)
            vy = fn.ratio_mod(a, b, wy, p)
        except PoleError:
            continue
        if v * v00 % p != vy * vx % p:
            return False
        ok += 1
    return ok == rounds


def _gate_value_indep(valfn, arity: int, var: int, rng, p: int, rounds: int = 2) -> bool:
    """Probe that a mod-p value function does not depend on one variable."""
    ok = 0
    tries = 0
    while ok < rounds and tries < RETRIES:
        tries += 1
        w = [rng.randrange(1, p) for _ in range(arity)]
        w2 = list(w)
        w2[var] = rng.randrange(1, p)
        if w2[var] == w[var]:
            continue
        try:
            if valfn(w, p) != valfn(w2, p):
                return False
        except PoleError:
            continue
        ok += 1
    return ok == rounds


def _gate_ratio_indep(fn: _Fn, a: int, b: int, var: int, rng, p: int, rounds: int = 2) -> bool:
    return _gate_value_indep(
        lambda w, p: fn.ratio_mod(a, b, w, p), fn.num.arity, var, rng, p, rounds
    )


def _fraction_gcd(vals) -> Fraction:
    """Positive gcd of a nonempty set of rationals (lattice generated by them)."""
    denlcm = 1
    for v in vals:
        denlcm = lcm(denlcm, v.denominator)
    g = 0
    for v in vals:
        g = gcd(g, abs(v.numerator) * (denlcm // v.denominator))
    return Fraction(g, denlcm)


def _joint_logderiv(parts):
    """Integrate each part as a log-derivative after one shared rescaling.

    parts is a list of (candidate c * g_i'/g_i, variable).  The residues of
    every part are pooled and divided by their common rational gcd, which
    removes the shared unknown scale c while keeping the recovered exponent
    vector primitive; each rescaled part must then be a genuine logarithmic
    derivative.  Returns (functions, None) or (None, reason).
    """
    profs = []
    pool = []
    for f, var in parts:
        if f.is_zero:
            return None, "zero-part"
        prof = residue_profile(f, var)
        reason = logderiv_obstruction(prof)
        if reason is not None:
            return None, reason
        profs.append(prof)
        pool.extend(r for _, r, _ in prof.residues if r != 0)
    if not pool:
        return None, "no-poles"
    scale = 1 / _fraction_gcd(pool)
    out = []
    for prof in profs:
        g, reason = logderiv_integrate(prof, scale)
        if g is None:
            return None, reason
        out.append(g)
    return out, None


# ---------------------------------------------------------------------------
# canonical-form fitters
# ---------------------------------------------------------------------------


def test_2decomposed(P: RatFun) -> tuple[bool, dict[str, bool]]:
    """Exact separability of every partial ratio P_a/P_b, with detail.

    For each variable pair the doubled-variable identity is checked as an
    exact polynomial identity in five variables; the function is
    2-decomposed iff all three hold.
    """
    if P.arity != 3:
        raise ValueError("test_2decomposed expects a trivariate function")
    return _every_pair(lambda a, b: separability_identity(partial_ratio(P, a, b), (a,), (b,)))


def _every_pair(check) -> tuple[bool, dict[str, bool]]:
    """check(a, b) for every variable pair a < b: all of them, and each one."""
    detail = {f"2dec_{_VN[a]}{_VN[b]}": check(a, b) for a, b in ((0, 1), (0, 2), (1, 2))}
    return all(detail.values()), detail


def _decomposed_detail(P: RatFun, p: int, seed: int) -> tuple[bool, dict[str, bool]]:
    """test_2decomposed, or its sampled analogue when P is too large."""
    if len(P.num.ints) + len(P.den.ints) <= 60:
        return test_2decomposed(P)
    fn = _Fn(P)
    return _every_pair(
        lambda a, b: _gate_ratio_separable(fn, a, b, a, b, rng_for(seed, f"2dec:{a}{b}"), p)
    )


def fit_group(
    P: RatFun,
    dmax: int | None = None,
    primes: tuple[int, ...] = DEFAULT_PRIMES,
    seed: int = 0,
    diagnostics: dict[str, bool] | None = None,
) -> GroupFit | None:
    """Fit P = Q(r1 + ... + rn) or Q(r1 * ... * rn), n = 2 or 3, certified.

    P_x/P_y of such a P is separable, and for n = 3 every partial ratio is
    separable and free of the third variable; the splits of P_x/P_y and
    P_y/P_z then share the middle part r2', which pins all three derivative
    parts to one common scale.  The additive branch integrates the parts
    directly, the multiplicative branch integrates them as log-derivatives
    after the shared residue rescaling.  A bivariate fit has r3 None.
    """
    diag = diagnostics if diagnostics is not None else {}
    n = P.arity
    fn = _Fn(P)
    rng = rng_for(seed, "fit-group")
    for a, b, c in ((0, 1, 2), (1, 2, 0), (0, 2, 1))[: 1 if n == 2 else 3]:
        if not _gate_ratio_separable(fn, a, b, a, b, rng, primes[0]):
            diag[f"group_sep_{_VN[a]}{_VN[b]}"] = False
            return None
        if n == 3 and not _gate_ratio_indep(fn, a, b, c, rng, primes[0]):
            diag[f"group_indep_{_VN[a]}{_VN[b]}"] = False
            return None
    # the split of P_a/P_(a+1) is (c_a * r_a', c_a * r_(a+1)')
    pairs = [_split_partial_ratio(fn, a, a + 1, a, a + 1, rng) for a in range(n - 1)]
    if any(pair is None for pair in pairs):
        diag["group_split"] = False
        return None
    parts = list(pairs[0])
    if n == 3:
        u2, v2 = pairs[1]
        try:
            mu = u2 / parts[1]
        except ZeroDivisionError:
            diag["group_split"] = False
            return None
        if not mu.is_constant or mu.constant_value() == 0:
            diag["group_scale_consistent"] = False
            return None
        parts.append(v2.scale(1 / mu.constant_value()))
    pad = [None] * (3 - n)

    try:
        rs = [hermite_antiderivative(parts[k], k) for k in range(n)]
    except (ValueError, ZeroDivisionError):
        rs = [None]
    if all(r is not None for r in rs):
        s = sum(rs[1:], rs[0])
        cert = dependence_certificate(P, s, dmax=dmax, primes=primes, seed=seed)
        if cert is not None:
            diag["group_additive"] = True
            return GroupFit("GroupAdditive", *rs, *pad, s, cert)
        diag["group_additive_certificate"] = False
    else:
        diag["group_additive_integrable"] = False

    try:
        rs, reason = _joint_logderiv([(parts[k], k) for k in range(n)])
    except (ValueError, ZeroDivisionError):
        rs, reason = None, "profile-error"
    if rs is not None:
        s = prod(rs[1:], start=rs[0])
        cert = dependence_certificate(P, s, dmax=dmax, primes=primes, seed=seed)
        if cert is not None:
            diag["group_multiplicative"] = True
            return GroupFit("GroupMultiplicative", *rs, *pad, s, cert)
        diag["group_multiplicative_certificate"] = False
    else:
        diag[f"group_multiplicative_{reason}"] = False
    return None


def _solve_beta(fn: _Fn, i: int, j: int, uj: RatFun, B0: RatFun, rng) -> Fraction | None:
    """Constant beta making M/(B0 + beta) free of x_j, M = P_i * r_j' / P_j.

    Two points on an x_j-line give one linear equation for beta; a second
    independent line must reproduce the same value, otherwise no constant
    works and the pivot is rejected.
    """
    found = []
    tries = 0
    while len(found) < 2 and tries < RETRIES:
        tries += 1
        w = tuple(Fraction(rng.randrange(3, 1 << 20)) for _ in range(3))
        w2 = list(w)
        w2[j] = Fraction(rng.randrange(3, 1 << 20))
        w2 = tuple(w2)
        if w2[j] == w[j]:
            continue
        try:
            m1 = fn.ratio_value(i, j, w) * uj.eval_q(w)
            m2 = fn.ratio_value(i, j, w2) * uj.eval_q(w2)
            b1 = B0.eval_q(w)
            b2 = B0.eval_q(w2)
        except (PoleError, ZeroDivisionError):
            continue
        if m1 == m2:
            continue
        found.append((m1 * b2 - m2 * b1) / (m2 - m1))
    if len(found) < 2 or found[0] != found[1]:
        return None
    return found[0]


def fit_field(
    P: RatFun,
    dmax: int | None = None,
    primes: tuple[int, ...] = DEFAULT_PRIMES,
    seed: int = 0,
    diagnostics: dict[str, bool] | None = None,
) -> FieldFit | None:
    """Fit P = Q(r_i * (r_j + r_l)^n) over the three pivot choices.

    For the correct pivot x_i, the ratio P_j/P_l = r_j'/r_l' recovers the
    inner sum B = r_j + r_l up to scale and shift; the shift comes from the
    constancy of M * r_j'/M_j - B0 with M = P_i * r_j' / P_j, the exponent n
    from the denominators of the residues of K = M/(B0+beta) = r_i'/(n r_i),
    and r_i from integrating n*K as a log-derivative.
    """
    diag = diagnostics if diagnostics is not None else {}
    fn = _Fn(P)
    deg_cap = 2 * max(1, P.total_degree())
    for i in range(3):
        j, l = (t for t in range(3) if t != i)
        tag = f"field_pivot_{_VN[i]}"
        rng = rng_for(seed, f"fit-field:{i}")
        if not (_gate_ratio_separable(fn, j, l, j, l, rng, primes[0])
                and _gate_ratio_indep(fn, j, l, i, rng, primes[0])):
            diag[f"{tag}_gates"] = False
            continue
        pair = _split_partial_ratio(fn, j, l, j, l, rng)
        if pair is None:
            diag[f"{tag}_split"] = False
            continue
        uj, vl = pair
        try:
            rj = hermite_antiderivative(uj, j)
            rl = hermite_antiderivative(vl, l)
        except (ValueError, ZeroDivisionError):
            rj = rl = None
        if rj is None or rl is None:
            diag[f"{tag}_integrable"] = False
            continue
        B0 = rj + rl
        beta = _solve_beta(fn, i, j, uj, B0, rng)
        if beta is None:
            diag[f"{tag}_shift"] = False
            continue
        Bc = B0 + beta

        def kval(w, p, _bc=Bc, _uj=uj, _i=i, _j=j):
            t = fn.ratio_mod(_i, _j, w, p) * _uj.eval_mod(w, p) % p
            bv = _bc.eval_mod(w, p)
            if bv == 0:
                raise PoleError("inner sum vanishes at sample point")
            return t * pow(bv, p - 2, p) % p

        if not (_gate_value_indep(kval, 3, j, rng, primes[0])
                and _gate_value_indep(kval, 3, l, rng, primes[0])):
            diag[f"{tag}_pivot_ratio_independent"] = False
            continue
        khat = None
        for _ in range(RETRIES):
            cj = Fraction(rng.randrange(2, 98))
            cl = Fraction(rng.randrange(2, 98))
            point = [Fraction(1)] * 3
            point[j], point[l] = cj, cl
            try:
                base = fn.specialized_ratio(i, j, {j: cj, l: cl})
                ujv = uj.eval_q(tuple(point))
                bv = Bc.eval_q(tuple(point))
            except (DegenerateSpecializationError, PoleError, ZeroDivisionError):
                continue
            if ujv == 0 or bv == 0:
                continue
            khat = base.scale(ujv / bv)
            break
        if khat is None or khat.is_zero:
            diag[f"{tag}_pivot_ratio"] = False
            continue
        try:
            prof = residue_profile(khat, i)
        except (ValueError, ZeroDivisionError):
            diag[f"{tag}_pivot_ratio"] = False
            continue
        obstruction = logderiv_obstruction(prof)
        if obstruction is not None:
            diag[f"{tag}_{_FIELD_OBSTRUCTION[obstruction]}"] = False
            continue
        res = [r for _, r, _ in prof.residues if r != 0]
        if not res:
            diag[f"{tag}_pivot_ratio"] = False
            continue
        n = 1
        for r in res:
            n = lcm(n, r.denominator)
        if n > deg_cap:
            diag[f"{tag}_exponent_bound"] = False
            continue
        ri, reason = logderiv_integrate(prof, n)
        if ri is None:
            diag[f"{tag}_{reason}"] = False
            continue
        s = ri * Bc ** n
        cert = dependence_certificate(P, s, dmax=dmax, primes=primes, seed=seed)
        if cert is None:
            diag[f"{tag}_certificate"] = False
            continue
        diag[tag] = True
        rr: list[RatFun] = [None, None, None]  # type: ignore[list-item]
        rr[i], rr[j], rr[l] = ri, rj, rl
        return FieldFit(i + 1, n, rr[0], rr[1], rr[2], s, cert)
    return None


def _twisted_g(fn: _Fn, grad):
    """(g, delta) of f = N/D with every polynomial read through grad.

    g[i] = N_i D - N D_i is the numerator of f_i and delta = (g_x)_y g_z -
    g_x (g_z)_y the numerator of the y-derivative of log(f_x/f_z).  grad
    maps a polynomial to its value and x, y and z partials in one ring (a
    residue, an exact restriction to a line, or a first-order expansion in
    y) and the arithmetic runs in that ring.
    """
    (n, *nd), (d, *dd) = grad(fn.num), grad(fn.den)
    (_, nyx, _, nyz), (_, dyx, _, dyz) = grad(fn.dnum(1)), grad(fn.dden(1))
    g = [nd[i] * d - n * dd[i] for i in range(3)]
    gx_y = nyx * d + nd[0] * dd[1] - nd[1] * dd[0] - n * dyx
    gz_y = nyz * d + nd[2] * dd[1] - nd[1] * dd[2] - n * dyz
    return g, gx_y * g[2] - g[0] * gz_y


def _twisted_logpartial_mod(fn: _Fn, i: int):
    """Mod-p value function of (log T)_i, i in {x, z}, for P = q(T).

    A = P_x/P_z = T_x/T_z does not see q, and (log T)_y = -(log A)_y, so
    (log T)_x = -delta/(g_y g_z) and (log T)_z = -delta/(g_y g_x).
    """
    def val(w, p):
        g, delta = _twisted_g(fn, lambda f: f.eval_grad_mod((w,), p)[0])
        den = g[1] * g[2 - i] % p
        if den == 0:
            raise PoleError("vanishing partial at sample point")
        return -delta * pow(den, p - 2, p) % p

    return val


def _value_and_slope(num: Poly, den: Poly) -> tuple[RatFun, RatFun]:
    """(h, h_y) at y = 0 for h = num/den expanded to first order in y."""
    at0 = {1: 0}
    n0, d0 = num.subs_scalars(at0), den.subs_scalars(at0)
    n1, d1 = num.derivative(1).subs_scalars(at0), den.derivative(1).subs_scalars(at0)
    return RatFun(n0, d0), RatFun(n1 * d0 - n0 * d1, d0 * d0)


def _twisted_recover(P, fn, rng, dmax, primes, seed):
    """Recover (r1, r2, r3) of P = q((r1+r2)/(r2+r3)) and certify, or None.

    W = T/T_x = (r1+r2)/r1' = -g_y g_z/delta and V = T/T_z = -(r2+r3)/r3' =
    -g_y g_x/delta are read off P on univariate lines only.  On the y-line
    u = W_y = r2'/r1' yields r2; on the x-line and the z-line, W and V are
    expanded to first order in y at y = cy (the y slot then holds y - cy),
    which gives r1' = u(cy)/W_y and r3' = -u(cy)/V_y at the scale of r2.
    The additive constants come from W and V at y = cy.  The parts are
    univariate by construction, and the certificate P = q(s) is the exact
    check.
    """
    eps = Poly.variable(1, 3)

    def exact(ev):
        return lambda f: [ev(f)] + [ev(f.derivative(i)) for i in range(3)]

    def jet(vals):
        return exact(lambda f: f.subs_scalars(vals) + eps * f.derivative(1).subs_scalars(vals))

    for _ in range(8):
        cx, cy, cz = (Fraction(rng.randrange(2, 98)) for _ in range(3))
        try:
            vxz = {0: cx, 2: cz}
            g, delta = _twisted_g(fn, exact(lambda f: f.subs_scalars(vxz)))
            if delta.is_zero:
                continue
            u = RatFun(-(g[1] * g[2]), delta).partial(1)
            if u.is_zero:
                continue
            u0 = u.subs_scalars({1: cy}).constant_value()
            if u0 == 0:
                continue
            r2 = hermite_antiderivative(u, 1)
            if r2 is None:
                return None
            r2cy = r2.subs_scalars({1: cy}).constant_value()
            g, delta = _twisted_g(fn, jet({1: cy, 2: cz}))
            W, Wy = _value_and_slope(-(g[1] * g[2]), delta)
            g, delta = _twisted_g(fn, jet({0: cx, 1: cy}))
            V, Vy = _value_and_slope(-(g[1] * g[0]), delta)
            if Wy.is_zero or Vy.is_zero:
                continue
            r1 = W * (u0 / Wy) - r2cy
            r3 = V * (u0 / Vy) - r2cy
        except (DegenerateSpecializationError, PoleError, ZeroDivisionError, ValueError):
            continue
        s1, s2 = r1 + r2, r2 + r3
        if s2.is_zero:
            continue
        shat = s1 / s2
        if shat.is_constant:
            continue
        cert = dependence_certificate(P, shat, dmax=dmax, primes=primes, seed=seed)
        if cert is None:
            return None
        return TwistedFit(r1, r2, r3, shat, cert)
    return None


def fit_twisted(
    P: RatFun,
    dmax: int | None = None,
    primes: tuple[int, ...] = DEFAULT_PRIMES,
    seed: int = 0,
    diagnostics: dict[str, bool] | None = None,
) -> TwistedFit | None:
    """Fit P = q((r1(x) + r2(y)) / (r2(y) + r3(z))) for any outer map q.

    q is any nonconstant univariate rational function: it cancels from
    P_x/P_z, so (log T)_x and (log T)_z are read off P directly.  The gates
    check that (log T)_x is free of z and (log T)_z is free of x (both exact
    properties of the twisted shape); the recovery then rebuilds T on
    univariate lines and certifies P = q(T).
    """
    diag = diagnostics if diagnostics is not None else {}
    fn = _Fn(P)
    rng = rng_for(seed, "fit-twisted:t")
    if not (_gate_value_indep(_twisted_logpartial_mod(fn, 0), 3, 2, rng, primes[0])
            and _gate_value_indep(_twisted_logpartial_mod(fn, 2), 3, 0, rng, primes[0])):
        diag["twisted_gates"] = False
        return None
    fit = _twisted_recover(P, fn, rng, dmax, primes, seed)
    if fit is None:
        diag["twisted_gates"] = True
    else:
        diag["twisted"] = True
    return fit


def verify_twisted_identities(
    r1: RatFun,
    r2: RatFun,
    r3: RatFun,
    trials: int = 100,
    seed: int = 0,
) -> bool:
    """Spot-check the three value-cube identities of the fitted twisted form.

    Builds s = (r1+r2)/(r2+r3) and requires all three cube identities of
    cube_identities to hold at `trials` exact random integer cubes.
    """
    s = (r1 + r2) / (r2 + r3)
    return all(cube_identities(s, trials=trials, seed=seed))


def cube_identities(f: RatFun, trials: int = 20, seed: int = 0) -> tuple[bool, bool, bool]:
    """Exact cube-identity checks on f over random integer cubes.

    With t_ijk = f(u_i, v_j, w_k) over a random 2x2x2 cube, the twisted
    form satisfies (1) t211/t111 = t212/t112, (2) (t211-1)/(t111-1) =
    (t221-1)/(t121-1), and (3) the reciprocal variant of (2) in the last
    coordinate.  Each returned flag is the AND over all sampled cubes;
    degenerate cubes (poles or vanishing inner denominators) are resampled.
    """
    if f.arity != 3:
        raise ValueError("cube identities require a trivariate function")
    rng = rng_for(seed, "twisted-cubes")
    flags = [True, True, True]
    done = 0
    tries = 0
    while done < trials and tries < RETRIES * max(1, trials):
        tries += 1
        us = [Fraction(rng.randrange(1, 10 ** 6 + 1)) for _ in range(2)]
        vs = [Fraction(rng.randrange(1, 10 ** 6 + 1)) for _ in range(2)]
        ws = [Fraction(rng.randrange(1, 10 ** 6 + 1)) for _ in range(2)]
        try:
            t = {(i, j, k): f.eval_q((us[i], vs[j], ws[k]))
                 for i in (0, 1) for j in (0, 1) for k in (0, 1)}
        except PoleError:
            continue
        t111, t211 = t[0, 0, 0], t[1, 0, 0]
        t112, t212 = t[0, 0, 1], t[1, 0, 1]
        t121, t221 = t[0, 1, 0], t[1, 1, 0]
        t122 = t[0, 1, 1]
        if 0 in (t111, t112, t121, t122) or 1 in (t111, t121):
            continue
        flags[0] = flags[0] and t211 / t111 == t212 / t112
        flags[1] = flags[1] and (t211 - 1) / (t111 - 1) == (t221 - 1) / (t121 - 1)
        flags[2] = flags[2] and (
            (1 / t112 - 1) / (1 / t111 - 1) == (1 / t122 - 1) / (1 / t121 - 1)
        )
        done += 1
        if not any(flags):
            break
    if done == 0:
        raise DegenerateSpecializationError("no usable cube found for identity checks")
    return flags[0], flags[1], flags[2]


def fit_polynomial_composition(
    P: RatFun, s: RatFun, degree_cap: int | None = None
) -> Poly | None:
    """Experimental probe: univariate polynomial u with P = u(s), or None.

    The case of composition_relation where the relation a(q)*p - b(q) has
    a constant a = a0, so u = b / a0; deg u is capped at deg P // deg s by
    default.  Used to probe the conjectured polynomial-composition shape of
    2-decomposed polynomials; a None carries no claim in either direction.
    """
    if P.arity != s.arity:
        raise ValueError("P and s must share one ambient variable list")
    if s.is_constant:
        return None
    sd = max(1, s.total_degree())
    cap = degree_cap if degree_cap is not None else max(1, P.total_degree() // sd)
    rel = composition_relation(P, s, cap)
    if rel is None or any(e[0] == 1 and e[1] for e in rel.ints):
        return None
    a0 = rel.ints[(1, 0)]
    u_terms = {(e[1],): Fraction(-c, a0) for e, c in rel.ints.items() if e[0] == 0}
    return Poly(u_terms, 1) if u_terms else None


# ---------------------------------------------------------------------------
# classification pipeline
# ---------------------------------------------------------------------------


def fit_bivariate(
    P: RatFun,
    dmax: int | None = None,
    primes: tuple[int, ...] = DEFAULT_PRIMES,
    seed: int = 0,
    samples: int = 16,
) -> FormReport:
    """Classify a bivariate function: Q(F+G), Q(F*G), or no constraint.

    The group template for two variables (see fit_group), then the image
    dimension; see _classify.
    """
    if P.arity != 2:
        raise ValueError("fit_bivariate expects a bivariate function")
    return _classify(P, dmax, primes, samples, seed)


def classify_trivariate(
    P: RatFun,
    dmax: int | None = None,
    primes: tuple[int, ...] = DEFAULT_PRIMES,
    samples: int = 16,
    seed: int = 0,
) -> FormReport:
    """Classify a trivariate function into the group, field and twisted
    forms, tried in that order, or no constraint; see _classify."""
    if P.arity != 3:
        raise ValueError("classify_trivariate expects a trivariate function")
    return _classify(P, dmax, primes, samples, seed)


def _classify(
    P: RatFun, dmax: int | None, primes: tuple[int, ...], samples: int, seed: int
) -> FormReport:
    """The pipeline for n = 2 or 3 variables: degeneracy, fits, dimension.

    The fitters run first; a certified fit proves the constraint, and its
    certificate P = q(s) bounds the image dimension by n + 1, which one
    rank sample then reaches.  Without one, the dimension separates
    NoConstraint (2n, proven by a full-rank sample) from Unresolved, a
    constraint no form explains (for n = 3 a partial one at 5 or a full one
    at 4 or less), which rests on the unanimity of the rank samples.
    """
    n = P.arity
    P = P if P.canonical else P.reduce()
    if not is_nondegenerate(P):
        return FormReport("Degenerate", None, None, {"nondegenerate": False})
    diag: dict[str, bool] = {"nondegenerate": True}
    report = _fit(P, dmax, primes, seed, diag)
    ceiling = n + 1 if report is not None else None
    d = image_dimension(P, primes=primes, samples=samples, seed=seed, ceiling=ceiling)
    if report is None:
        diag["constraint"] = d < 2 * n
        if n == 3 and d == 5:
            diag["partial_constraint_dim5"] = True
        elif n == 3 and d < 5:
            two, detail = _decomposed_detail(P, primes[0], seed)
            diag.update(detail)
            diag["2decomposed"] = two
        report = FormReport("NoConstraint" if d == 2 * n else "Unresolved", None, None, diag)
    report.image_dimension = d
    return report


def _fit(
    P: RatFun, dmax: int | None, primes: tuple[int, ...], seed: int, diag: dict[str, bool]
) -> FormReport | None:
    """The first certified fit among group, field and twisted, or None."""
    gf = fit_group(P, dmax=dmax, primes=primes, seed=seed, diagnostics=diag)
    if gf is not None:
        return FormReport(gf.verdict, _fitted(gf), gf.certificate, diag)
    if P.arity == 2:
        return None
    ff = fit_field(P, dmax=dmax, primes=primes, seed=seed, diagnostics=diag)
    if ff is not None:
        return FormReport("Field", _fitted(ff), ff.certificate, diag,
                          pivot=ff.pivot, exponent=ff.exponent)
    tf = fit_twisted(P, dmax=dmax, primes=primes, seed=seed, diagnostics=diag)
    if tf is not None:
        diag["twisted_cube_identities"] = verify_twisted_identities(
            tf.r1, tf.r2, tf.r3, trials=8, seed=seed
        )
        return FormReport("Twisted", _fitted(tf), tf.certificate, diag)
    return None


def _fitted(fit) -> dict[str, RatFun]:
    """The parts and s of a fit, by report key; a bivariate fit has no r3."""
    return {k: getattr(fit, k) for k in ("r1", "r2", "r3", "s") if getattr(fit, k) is not None}
