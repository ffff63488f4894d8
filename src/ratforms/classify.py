"""Canonical-form classification of constrained rational functions.

A bivariate function whose doubling map has a constrained image decomposes
through F(x) + G(y) or F(x) * G(y), the group template for two variables;
a trivariate one decomposes through r1 + r2 + r3, r1 * r2 * r3,
r_i * (r_j + r_l)^n, or the twisted quotient
(r1(x) + r2(y)) / (r2(y) + r3(z)), each inside an outer map q that is any
nonconstant univariate rational function.  TEMPLATES states each inner
function s once.  Every fitter reads the inner parts exactly off partial
ratios or log-derivatives, from which q cancels, and reports through
_certified, which moves the parts to the one representative of their form
that NORMAL_FORMS fixes, builds s from TEMPLATES and backs the verdict with a
machine-checkable dependence certificate: the relation a(q)*p - b(q)
stating P = (b/a)(s), checked exactly when it is found (its homogenized
parts in (N_s, D_s) are proportional to D_P and -N_P, see
oracle._proportional) and re-checked from scratch by verify_certificate's
full expansion.

fit_bivariate and classify_trivariate share one pipeline: the
nondegeneracy check, the fitters (group; then field and twisted for three
variables), and, when no form certifies, one measurement of the image
dimension, which decides NoConstraint.

Fitting runs in two phases.  Cheap modular probes ("gates") reject wrong
shapes fast: _probe reads the two sides of an identity among the partials
of P (see Poly.eval_grad_mod) at random pairs of points mod p, and an
unequal pair is an exact disproof, so gates never eliminate a true match
except with negligible probability (Schwartz, J. ACM 27, 1980); a fluke
pass is harmless because every positive path ends in a verified
certificate.  Every gate reads one sample per input and seed (see
_Fn.tries), whose 2^n mixtures carry every such identity at once.
Recovery then works on exact univariate specializations (lines on which
every other variable is pinned to a small integer), read as integer lists
in one term pass per polynomial (see Poly.line_jet), reduced by one dense
gcd (see _line_quotient) and kept as integer lists (calculus.LineFn) up to
the fitted parts, which TEMPLATES combine with no gcd.  Each recovery step
reads its lines through one drawn point: one split gives every part of a
group fit at one scale (see _split_partial_ratio), and one pair of lines
gives the field pivot's shift and ratio (see _pivot_lines).  No fitter
evaluates P at an exact multivariate point, and only a certificate's proof
and its re-check multiply large multivariate polynomials, the proof as
integer term dicts on packed exponent codes (oracle._proportional) and the
re-check as Poly products (verify_certificate's expansion).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd
from operator import mul as _times, sub as _minus

from .calculus import LineFn, _deriv, _mul, _scale, _sub, hermite_antiderivative, logderiv_integrate
from .dimension import image_dimension, is_nondegenerate
from .modular import DEFAULT_PRIMES, RETRIES, rng_for
from .oracle import composition_relation, prime_pool
from .poly import Poly, _dense_gcd, grlex_key
from .ratfun import (
    DegenerateSpecializationError,
    PoleError,
    RatFun,
    _product,
    _raw_sum,
    compose_numerator,
    pole_free_values,
)

_VN = ("x", "y", "z")
#: fit_field's diagnostic suffix for each logderiv_integrate obstruction code;
#: any other reason is pivot_ratio.
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
    a(q)*p - b(q), that is P = (b/a)(s).  verified records that
    annihilator(P, s) = 0 was checked exactly when the relation was found,
    by homogenized proportionality (see oracle._proportional).
    """

    annihilator: Poly
    degree_bound: int
    verified: bool


@dataclass
class FormReport:
    """Outcome of classification, or of one fitter: verdict, parts, certificate.

    verdict is one of GroupAdditive, GroupMultiplicative, Field, Twisted,
    NoConstraint, Degenerate, Unresolved.  Positive verdicts always carry
    fitted parts and a verified certificate.  fitted maps "r1", "r2" and
    "s" (and "r3" for a trivariate input) to the parts of the canonical
    form: r_i is the part in the i-th variable and s, which is
    TEMPLATES[verdict] of the parts, pivot and exponent, the inner function
    the certificate relates to the input.  diagnostics maps named probe
    steps to booleans; for Field, pivot is the 1-based index of the variable
    outside the inner sum and exponent is the outer power n.
    image_dimension is set for every nondegenerate input once classified.
    """

    verdict: str
    fitted: dict[str, RatFun] | None
    certificate: DependenceCertificate | None
    diagnostics: dict[str, bool]
    pivot: int | None = None
    exponent: int | None = None
    image_dimension: int | None = None


def _coprime_fold(op, r):
    s = reduce(op, r[1:], r[0])
    return RatFun.coprime(s.num, s.den)


#: The one statement of each canonical form P = q(s): s from the parts
#: r = (r1, r2[, r3]), the pivot i and the exponent n (both Field only).
#: The parts are canonical, each in its own variable, so their sums and
#: products, also with a constant, take no gcd: for n1/d1 and n2/d2 in
#: disjoint variables, or one constant, an irreducible factor of d1 divides
#: none of n1, d2 and a nonzero n2, so not n1*d2 + n2*d1 nor n1*n2 != 0 (a zero
#: one is 0/1); d1*d2 has grlex lead 1.  The twisted quotient keeps its
#: reducing division: with r1 and r3 constant, its s is not reduced.
TEMPLATES = {
    "GroupAdditive": lambda r, i, n: _coprime_fold(_raw_sum, r),
    "GroupMultiplicative": lambda r, i, n: _coprime_fold(_product, r),
    "Field": lambda r, i, n: _coprime_fold(
        _product, (r[i - 1], _coprime_fold(_raw_sum, r[: i - 1] + r[i:]) ** n)),
    "Twisted": lambda r, i, n: _coprime_fold(_raw_sum, r[:2]) / _coprime_fold(_raw_sum, r[1:]),
}


def _unit(f: RatFun) -> Fraction:
    """The c with c*f = N/D for primitive integer N and D whose grlex
    leading coefficients are positive; 1 for the zero function.  Contents
    and leading coefficients are multiplicative (Gauss's lemma), so any
    fraction f, reduced or not, gives the same c."""
    if f.is_zero:
        return Fraction(1)
    c = f.den.content / f.num.content
    return c if (f.num.leading()[1] > 0) == (f.den.leading()[1] > 0) else -c


def _terms_desc(p: Poly):
    """p's integer terms from the grlex-leading one down."""
    return sorted(((grlex_key(e), c) for e, c in p.ints.items()), reverse=True)


def _additive_normal(r, i, n):
    c = _unit(reduce(_raw_sum, r[1:], r[0]))
    return [rk.scale(c) for rk in r]


def _multiplicative_normal(r, i, n):
    r = [rk.scale(_unit(rk)) for rk in r]
    first = next((rk for rk in r if not rk.is_constant), None)
    if first is not None and _terms_desc(first.den) > _terms_desc(first.num):
        r = [RatFun.coprime(rk.den, rk.num) for rk in r]
    return r


def _field_normal(r, i, n):
    j, l = (k for k in range(3) if k != i - 1)
    b = _unit(_raw_sum(r[j], r[l]))
    return [rk.scale(_unit(rk) if k == i - 1 else b) for k, rk in enumerate(r)]


def _twisted_normal(r, i, n):
    b = _unit(_raw_sum(r[1], r[2]))
    return [rk.scale(b) for rk in r]


#: Beside each template, its one normalization rule: it moves the parts
#: along the symmetries of the form (those that keep P = q(s) for some q)
#: to one representative that depends on P alone.  A function is called
#: primitive here when it is N/D for primitive integer N and D with
#: positive grlex leads (see _unit); products of primitive functions are
#: primitive (Gauss's lemma).  The shifts among the additive parts are
#: fixed before a rule runs: every part that hermite_antiderivative
#: returns has a polynomial part with constant term 0, which pins each
#: GroupAdditive r_k, the Field r_l (r_j carries the inner sum's constant)
#: and the Twisted r2 (the shift (r1 + c, r2 - c, r3 + c)).  So the rules
#: are scales:
#: - GroupAdditive: a common scale makes s primitive.
#: - GroupMultiplicative: each r_k is primitive, so s is (the scale goes on
#:   r1); of s and 1/s, s is the one whose first nonconstant part has the
#:   numerator that comes later under _terms_desc (the grlex-leading
#:   monomial, then its coefficient, then the next term).
#: - Field, with j < l the variables of the block B = r_j + r_l: B and r_i
#:   are primitive, so s = r_i * B^n is.
#: - Twisted: a common scale makes r2 + r3 primitive; s does not change.
#: A scale of s is raised to the degree of q in the certificate, so the
#: normalized s also keeps the certificate's coefficients small.
NORMAL_FORMS = {
    "GroupAdditive": _additive_normal,
    "GroupMultiplicative": _multiplicative_normal,
    "Field": _field_normal,
    "Twisted": _twisted_normal,
}


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def dependence_certificate(P: RatFun, s: RatFun, dmax: int | None = None) -> DependenceCertificate | None:
    """Relation a(q)*p - b(q) stating P = (b/a)(s), or None.

    Every fitter builds s with P = q(s) for a univariate rational q, so the
    certificate is that relation, interpolated exactly on one line and
    checked exactly by composition_relation; it is unique up to scale, so
    it depends on no prime and no draw.  Its degree in q is deg P / deg s,
    as the degree of a composition is multiplicative, so a cap dmax on its
    total degree (None: no cap) only turns certificates away.  It is linear
    in p: a dependence of higher degree in p means P lies outside Q(s), so
    s does not explain P and no certificate is returned.  An independent
    pair has no relation to find, so the search rejects it.
    """
    if P.arity != s.arity:
        raise ValueError("P and s must share one ambient variable list")
    if s.is_constant:
        raise ValueError("the fitted function s must be nonconstant")
    if P.is_constant:
        raise ValueError("P must be nonconstant")
    ann = composition_relation(P, s, dmax)
    if ann is None:
        return None
    # composition_relation only returns a relation that was proven to vanish
    # identically on (P, s), so the certificate is born verified.
    return DependenceCertificate(ann, ann.total_degree(), True)


def verify_certificate(cert: DependenceCertificate, P: RatFun, s: RatFun) -> bool:
    """Re-check a certificate from scratch: is annihilator(P, s) = 0 exactly?

    This is the independent check: it shares nothing with the proportionality
    test that accepted the certificate.  Modular spot evaluations run first
    so that a corrupted certificate fails in microseconds; agreement at every
    sample falls through to the full exact expansion (compose_numerator),
    which is the final word, so the answer is the expansion's.  The spot
    checks sample modulo DEFAULT_PRIMES, skipping a prime that divides a
    coefficient denominator of P or s (see prime_pool), and read the
    annihilator's primitive integer part, which vanishes where it does.
    """
    if P.arity != s.arity:
        raise ValueError("P and s must share one ambient variable list")
    ann = cert.annihilator
    if ann.arity != 2 or ann.is_zero:
        return False
    primitive = Poly.from_ints(ann.ints, 2)
    for p in prime_pool(DEFAULT_PRIMES, [P, s], len(DEFAULT_PRIMES)):
        pts = pole_free_values([P, s], 4, p, rng_for(0, f"certcheck:p{p}"))
        if pts is not None and any(primitive.eval_mod(pt, p) for pt in pts):
            return False
    return compose_numerator(ann, [P, s]).is_zero


# ---------------------------------------------------------------------------
# evaluation and specialization helpers
# ---------------------------------------------------------------------------


class _Fn:
    """One input f = N/D, its seed and its gate prime p: partials, values
    mod p, exact lines.

    _classify builds one per input and hands it to every fitter and to
    _decomposed_detail, which read f, seed and p off it.  It wraps the raw
    numerator/denominator pair (which need not be reduced) and caches the
    partial-derivative pairs (N_vs, D_vs) for the gates; every partial uses
    (N_i D - N D_i) / D^2, so the only exact quotient formed is one of
    polynomials restricted to a line, whose partials come from one pass
    over the terms (see Poly.line_jet).  Values mod p come from
    Poly.eval_grad_mod at every mixture of two points; every gate reads
    them off the one sample of the input (see tries).
    """

    __slots__ = ("f", "seed", "p", "num", "den", "_parts", "_rng", "_tries")

    def __init__(self, f: RatFun, seed: int = 0, p: int = DEFAULT_PRIMES[0]):
        self.f, self.seed, self.p = f, seed, p
        self.num, self.den = f.num, f.den
        self._parts: dict[tuple[int, ...], tuple[Poly, Poly]] = {(): (f.num, f.den)}
        self._rng, self._tries = rng_for(seed, "gates"), []

    def tries(self):
        """The gates' one sample mod p, up to RETRIES tries drawn lazily
        from one stream and kept: (w, w2, walks), w2[i] drawn from the
        residues other than w[i] (none for p = 2), and walks the
        Poly.eval_grad_mod rows of N and of D at all 2^n mixtures, one walk
        each for every gate identity."""
        drawn, rng, p = self._tries, self._rng, self.p
        for k in range(RETRIES):
            if k == len(drawn):
                w = [rng.randrange(1, p) for _ in range(self.num.arity)]
                w2 = [(c + rng.randrange(max(1, p - 2))) % (p - 1) + 1 for c in w]
                drawn.append((w, w2, [f.eval_grad_mod((w, w2), p) for f in (self.num, self.den)]))
            yield drawn[k]

    def partials(self, *vs: int) -> tuple[Poly, Poly]:
        """(N, D) differentiated in the variables vs, in order; cached."""
        if vs not in self._parts:
            n, d = self.partials(*vs[:-1])
            self._parts[vs] = n.derivative(vs[-1]), d.derivative(vs[-1])
        return self._parts[vs]

    def specialized_ratio(self, a: int, b: int, point, free: int) -> LineFn:
        """(f_a / f_b) on the line through point parallel to the x_free
        axis, exact and reduced, a LineFn in x_free.

        The numerators g_v = N_v D - N D_v of f_a and f_b are integer
        coefficient lists off one jet pass over N and one over D (see
        Poly.line_jet): both carry the product of the two jets' scales,
        which cancels.  _line_quotient reduces their quotient, and no Poly
        is built.
        """
        (_, n), (_, d) = self.num.line_jet(point, free), self.den.line_jet(point, free)
        ga, gb = (_sub(_mul(n[1 + v], d[0]), _mul(n[0], d[1 + v])) for v in (a, b))
        return _line_quotient(ga, gb, self.num.arity)


def _line_quotient(ga: list[int], gb: list[int], arity: int, c=1) -> LineFn:
    """c*ga/gb in lowest terms, a LineFn, for trimmed integer coefficient
    lists (lowest first); DegenerateSpecializationError for gb = [].  The
    shared power of the variable and the contents come out before the gcd (a
    dense heuristic gcd, poly._dense_gcd, whose cost grows with the square of
    the degree), so that it reads short lists on a sparse line such as that
    of x^65536*y."""
    if not gb:
        raise DegenerateSpecializationError("quotient on a line degenerates")
    if not ga:
        return LineFn([], [1], Fraction(1), arity)
    k = next(i for i, pair in enumerate(zip(ga, gb)) if any(pair))
    ga, gb = ga[k:], gb[k:]
    ca, cb = gcd(*ga), gcd(*gb)
    _, qa, qb = _dense_gcd([x // ca for x in ga], [x // cb for x in gb])
    return LineFn(qa, qb, c * Fraction(ca, cb), arity)


def _split_partial_ratio(fn: _Fn, a: int, b: int, rng, rest=()):
    """Split f_a/f_b into LineFns (u(x_a), v(x_b)) by specialization, scale
    shared, followed by one w(x_c) for each variable c in rest.

    All of them are read on lines through one drawn point: u is the ratio
    H = f_a/f_b on the x_a-line, v = H(point)/H on the x_b-line and w the
    ratio f_c/f_b on the x_c-line, so u/v equals H exactly whenever it is
    separable, and for a group form, where f_k/f_b = r_k'/r_b' (for the
    multiplicative one read r_k'/r_k), every part is r_k' over the one
    constant r_b'(point); H(point) is u's Horner value, v swaps H's lists.  A
    non-separable ratio is *not* rejected here -- downstream exact anchors
    (integration, identity checks, certificates) reject those fits.
    """
    arity = fn.num.arity
    for _ in range(RETRIES):
        point = [rng.randrange(2, 98) for _ in range(arity)]
        try:
            u = fn.specialized_ratio(a, b, point, a)
            hy = fn.specialized_ratio(a, b, point, b)
            h0 = u(point[a])
            ws = [fn.specialized_ratio(c, b, point, c) for c in rest]
        except (DegenerateSpecializationError, PoleError, ZeroDivisionError):
            continue
        if h0 == 0 or u.is_zero or hy.is_zero or any(w.is_zero for w in ws):
            continue
        return u, LineFn(hy.den, hy.num, h0 / hy.c, arity), *ws
    return None


def _ratios(walks, a: int, b: int, p: int, ks) -> list[int]:
    """(f_a / f_b) mod p at the mixtures ks, read off a try's walks of N and
    D (see _Fn.tries): f_v has numerator N_v D - N D_v.  PoleError where D
    or f_b vanishes at one."""
    out = []
    for k in ks:
        (nv, *ng), (dv, *dg) = walks[0][k], walks[1][k]
        gb = (ng[b] * dv - nv * dg[b]) % p
        if not (dv and gb):
            raise PoleError("pole or vanishing partial at sample point")
        out.append((ng[a] * dv - nv * dg[a]) * pow(gb, -1, p) % p)
    return out


def _moved(w, w2, v: int) -> list[int]:
    """The point of mixture 1 << v of a try: w with x_v taken from w2."""
    pt = list(w)
    pt[v] = w2[v]
    return pt


def _probe(sides, tries) -> bool:
    """Probe an identity mod p on tries (w, w2, walks) of the input's one
    sample (see _Fn.tries), at most RETRIES of them.

    A copy w2 equal to w is skipped, since every mixture is then w and any
    identity holds vacuously; otherwise w2 differs from w in every
    coordinate.  sides(*try) returns the identity's two sides or raises
    PoleError, which skips the try.  An unequal pair is an exact disproof
    and returns False at once; two agreeing tries return True.
    """
    ok = 0
    for t in tries:
        if t[0] == t[1]:
            continue
        try:
            lhs, rhs = sides(*t)
        except PoleError:
            continue
        if lhs != rhs:
            return False
        ok += 1
        if ok == 2:
            return True
    return False


def _gate_ratio_separable(fn: _Fn, a: int, b: int) -> bool:
    """Probe H(X,Y) H(X0,Y0) = H(X,Y0) H(X0,Y) for H = f_a/f_b mod fn.p, with
    X = x_a and Y = x_b: the four corners are the mixtures with every other
    coordinate at copy 0.  A False disproves separability; a True is strong
    (not absolute) evidence for it."""
    p = fn.p

    def sides(w, w2, walks):
        v, vx, vy, v00 = _ratios(walks, a, b, p, (0, 1 << a, 1 << b, (1 << a) | (1 << b)))
        return v * v00 % p, vy * vx % p

    return _probe(sides, fn.tries())


def _gate_ratio_indep(fn: _Fn, a: int, b: int, var: int) -> bool:
    """Probe that f_a/f_b mod fn.p does not depend on x_var: its values at
    mixtures 0 and 1 << var agree."""
    return _probe(lambda w, w2, walks: _ratios(walks, a, b, fn.p, (0, 1 << var)), fn.tries())


# ---------------------------------------------------------------------------
# canonical-form fitters
# ---------------------------------------------------------------------------


def _decomposed_detail(fn: _Fn) -> tuple[bool, dict[str, bool]]:
    """Is every partial ratio P_a/P_b separable mod fn.p, for P = fn.f: all of
    them, and each one.

    P is 2-decomposed iff all three are; each pair is probed by
    _gate_ratio_separable on the sample the fitters read.  A False is an
    exact disproof; a fluke True has probability at most deg/p per probe
    (Schwartz-Zippel).
    """
    detail = {
        f"2dec_{_VN[a]}{_VN[b]}": _gate_ratio_separable(fn, a, b)
        for a, b in ((0, 1), (0, 2), (1, 2))
    }
    return all(detail.values()), detail


def _certified(verdict, parts, key, fn, dmax, diag, pivot=None, exponent=None):
    """Certify P = q(s), P = fn.f, for s = TEMPLATES[verdict](parts, pivot, exponent),
    the parts first normalized by NORMAL_FORMS[verdict], the one call of
    dependence_certificate: record diagnostic key True and return the
    report, or record key_certificate False (fit_twisted records Twisted's)
    and return None.  A constant s raises DegenerateSpecializationError."""
    parts = NORMAL_FORMS[verdict](parts, pivot, exponent)
    s = TEMPLATES[verdict](parts, pivot, exponent)
    if s.is_constant:
        raise DegenerateSpecializationError("the fitted parts give a constant s")
    cert = dependence_certificate(fn.f, s, dmax=dmax)
    if cert is None:
        if verdict != "Twisted":
            diag[f"{key}_certificate"] = False
        return None
    diag[key] = True
    fitted = dict(zip(("r1", "r2", "r3"), parts), s=s)
    return FormReport(verdict, fitted, cert, diag, pivot=pivot, exponent=exponent)


def fit_group(
    fn: _Fn,
    dmax: int | None = None,
    diagnostics: dict[str, bool] | None = None,
) -> FormReport | None:
    """Fit P = fn.f = Q(r1 + ... + rn) or Q(r1 * ... * rn), n = 2 or 3, certified.

    P_x/P_y of such a P is separable, and for n = 3 every partial ratio is
    separable and free of the third variable.  One split then reads every
    derivative part through one point, each over the one constant that
    P_y carries there (see _split_partial_ratio); the gates passed force
    that scale, so no second split ties two scales.  The additive branch
    integrates the parts directly, the multiplicative branch integrates
    them as log-derivatives after the shared residue rescaling.  A
    bivariate fit has no r3.
    """
    diag = diagnostics if diagnostics is not None else {}
    n = fn.f.arity
    for a, b, c in ((0, 1, 2), (1, 2, 0), (0, 2, 1))[: 1 if n == 2 else 3]:
        if not _gate_ratio_separable(fn, a, b):
            diag[f"group_sep_{_VN[a]}{_VN[b]}"] = False
            return None
        if n == 3 and not _gate_ratio_indep(fn, a, b, c):
            diag[f"group_indep_{_VN[a]}{_VN[b]}"] = False
            return None
    parts = _split_partial_ratio(fn, 0, 1, rng_for(fn.seed, "fit-group"), range(2, n))
    if parts is None:
        diag["group_split"] = False
        return None

    try:
        rs = [hermite_antiderivative(parts[k], k) for k in range(n)]
    except (ValueError, ZeroDivisionError):
        rs = [None]
    if all(r is not None for r in rs):
        report = _certified("GroupAdditive", rs, "group_additive", fn, dmax, diag)
        if report is not None:
            return report
    else:
        diag["group_additive_integrable"] = False

    rs, reason = logderiv_integrate([(parts[k], k) for k in range(n)])
    if rs is None:
        diag[f"group_multiplicative_{reason}"] = False
        return None
    return _certified("GroupMultiplicative", rs, "group_multiplicative", fn, dmax, diag)


def _pivot_lines(fn: _Fn, i: int, j: int, uj: RatFun, rj: RatFun, rl: RatFun, rng):
    """(beta, khat) for the field pivot x_i off the x_j- and x_i-lines through
    one drawn point, with uj = r_j' up to scale and M = P_i * uj / P_j.

    A field form has M = K * (r_j + r_l + beta), K = r_i'/(n r_i) up to scale.
    On the x_j-line, b = r_j + r_l(point) and K is constant, so K = M'/b' and
    beta = M/K - b; on the x_i-line khat = M/(b(point) + beta) is K, a
    LineFn.  M = 0 (x_i pinned where r_i' vanishes), a pole or a degenerate
    line draws another point; a K on the x_j-line that is not a nonzero
    constant rejects the pivot (beta None).  khat is None when beta is found
    but no point gives an x_i-line.
    """
    beta = None
    for _ in range(RETRIES):
        point = [rng.randrange(2, 98) for _ in range(3)]
        try:
            M = fn.specialized_ratio(i, j, point, j).ratfun(j) * uj
            b = _coprime_fold(_raw_sum, (rj, RatFun.const(rl.eval_q(point), 3)))
            K = M.partial(j) / b.partial(j)
        except (DegenerateSpecializationError, PoleError, ZeroDivisionError):
            continue
        if M.is_zero:
            continue
        if not K.is_constant or K.is_zero:
            return None, None
        # (M/K - b)' = M'/K - b' = 0, so M/K - b is the constant beta
        beta = (M.scale(1 / K.constant_value()) - b).constant_value()
        try:
            base = fn.specialized_ratio(i, j, point, i)
            ujv, bv = uj.eval_q(point), b.eval_q(point) + beta
        except (DegenerateSpecializationError, PoleError, ZeroDivisionError):
            continue
        if ujv and bv:
            return beta, LineFn(base.num, base.den, base.c * ujv / bv, 3)
    return beta, None


def _field_k_mod(fn: _Fn, i: int, j: int, v: int, uj: RatFun, Bc: RatFun):
    """Sides (see _probe) of K = P_i * r_j' / (P_j * B) mod fn.p at mixtures
    0 and 1 << v of a try, for the field pivot x_i with inner sum B = Bc
    and uj = r_j' up to scale; free of x_j and x_l for a field form.
    P_i/P_j comes off the try's walks, so the probe walks nothing.  K does
    not see a constant scale of uj or Bc, so each is read off the primitive
    integer parts of its numerator and denominator, which have an image
    modulo every prime.
    """
    p = fn.p
    un, ud, bn, bd = (Poly.from_ints(f.ints, 3) for f in (uj.num, uj.den, Bc.num, Bc.den))

    def sides(w, w2, walks):
        out = []
        for r, pt in zip(_ratios(walks, i, j, p, (0, 1 << v)), (w, _moved(w, w2, v))):
            nu, du, nb, db = (f.eval_mod(pt, p) for f in (un, ud, bn, bd))
            if du * nb * db % p == 0:
                raise PoleError("pole or vanishing inner sum at sample point")
            out.append(r * nu * db * pow(du * nb, -1, p) % p)
        return out

    return sides


def fit_field(
    fn: _Fn,
    dmax: int | None = None,
    diagnostics: dict[str, bool] | None = None,
) -> FormReport | None:
    """Fit P = fn.f = Q(r_i * (r_j + r_l)^n) over the three pivot choices.

    For the correct pivot x_i, the ratio P_j/P_l = r_j'/r_l' recovers the
    inner sum B0 = r_j + r_l up to scale and shift.  With M = P_i * r_j'/P_j,
    K = M/(B0+beta) = r_i'/(n r_i) is free of x_j and x_l: the x_j-line
    through one drawn point gives the shift beta, which r_j takes on, and
    the x_i-line through the same point gives K (see _pivot_lines).  K is
    integrated as a log-derivative, g'/g = c*K (see logderiv_integrate):
    the exponent n is the numerator of c, the lcm of the residue denominators
    of K, and r_i = g^(denominator of c).
    """
    diag = diagnostics if diagnostics is not None else {}
    deg_cap = 2 * max(1, fn.f.total_degree())
    for i in range(3):
        j, l = (t for t in range(3) if t != i)
        tag = f"field_pivot_{_VN[i]}"
        rng = rng_for(fn.seed, f"fit-field:{i}")
        if not (_gate_ratio_separable(fn, j, l) and _gate_ratio_indep(fn, j, l, i)):
            diag[f"{tag}_gates"] = False
            continue
        pair = _split_partial_ratio(fn, j, l, rng)
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
        uj = uj.ratfun(j)
        beta, khat = _pivot_lines(fn, i, j, uj, rj, rl, rng)
        if beta is None:
            diag[f"{tag}_shift"] = False
            continue
        rj = _coprime_fold(_raw_sum, (rj, RatFun.const(beta, 3)))
        Bc = _coprime_fold(_raw_sum, (rj, rl))
        if not all(_probe(_field_k_mod(fn, i, j, v, uj, Bc), fn.tries()) for v in (j, l)):
            diag[f"{tag}_pivot_ratio_independent"] = False
            continue
        if khat is None:
            diag[f"{tag}_pivot_ratio"] = False
            continue
        gs, c = logderiv_integrate([(khat, i)])
        if gs is None:
            diag[f"{tag}_{_FIELD_OBSTRUCTION.get(c, 'pivot_ratio')}"] = False
            continue
        # c = L/A for L the lcm of K's residue denominators and A prime to L
        n = c.numerator
        if n > deg_cap:
            diag[f"{tag}_exponent_bound"] = False
            continue
        rs = [rj, rl]
        rs.insert(i, gs[0] ** c.denominator)
        report = _certified("Field", rs, tag, fn, dmax, diag, pivot=i + 1, exponent=n)
        if report is not None:
            return report
    return None


def _twisted_g(part, mul=_times, sub=_minus):
    """(g, delta) of f = N/D, with part(*vs) -> (N_vs, D_vs) reading partials.

    g[i] = N_i D - N D_i is the numerator of f_i and delta = (g_x)_y g_z -
    g_x (g_z)_y the numerator of the y-derivative of log(f_x/f_z).  part
    reads the partials in one ring, and mul and sub are its operations:
    residues mod p at a sample point (see _twisted_logpartial_mod), or
    integer coefficient lists on an exact line (see _twisted_line).
    """
    def det(a, b, c, e):
        return sub(mul(a, b), mul(c, e))

    (n, d), (nyx, dyx), (nyz, dyz) = part(), part(1, 0), part(1, 2)
    nd, dd = zip(*(part(i) for i in range(3)))
    g = [det(nd[i], d, n, dd[i]) for i in range(3)]
    gx_y = sub(det(nyx, d, n, dyx), det(nd[1], dd[0], nd[0], dd[1]))
    gz_y = sub(det(nyz, d, n, dyz), det(nd[1], dd[2], nd[2], dd[1]))
    return g, det(gx_y, g[2], g[0], gz_y)


def _twisted_line(fn: _Fn, point, free: int):
    """(g, delta) of _twisted_g on the line through point parallel to the
    x_free axis, integer lists in x_free times the product of the jets'
    scales (delta its square), from one term pass over each of N and D (see
    Poly.line_jet with mixed); a second partial in x_free is the derivative
    of a first partial's list."""
    jets = [f.line_jet(point, free, mixed=True)[1] for f in (fn.num, fn.den)]

    def part(*vs):
        if len(vs) < 2:
            return tuple(jet[1 + vs[0] if vs else 0] for jet in jets)
        if free not in vs:
            return tuple(jet[4] for jet in jets)
        other = vs[0] if vs[1] == free else vs[1]
        return tuple(_deriv(jet[1 + other]) for jet in jets)

    return _twisted_g(part, _mul, _sub)


def _twisted_logpartial_mod(fn: _Fn, i: int, seen: list):
    """Sides (see _probe) of (log T)_i mod fn.p, i in {x, z}, for P = q(T),
    at mixtures 0 and 1 << v of a try, v = 2 - i the variable it must be free
    of; each try appends to seen whether a side is nonzero.

    A = P_x/P_z = T_x/T_z does not see q, and (log T)_y = -(log A)_y, so
    (log T)_x = -delta/(g_y g_z) and (log T)_z = -delta/(g_y g_x).  N and D
    are read off the try's walks, and one two-point walk each of N_y and D_y
    gives the rest.
    """
    v, p = 2 - i, fn.p

    def sides(w, w2, walks):
        pts = (w, _moved(w, w2, v))
        walks = {(): walks, (1,): [f.eval_grad_mod(pts, p) for f in fn.partials(1)]}
        out = []
        for k in (0, 1 << v):
            def part(*vs, k=k):
                nw, dw = walks[vs[:-1]]
                j = 1 + vs[-1] if vs else 0
                return nw[k][j], dw[k][j]

            g, delta = _twisted_g(part)
            den = g[1] * g[2 - i] % p
            if den == 0:
                raise PoleError("vanishing partial at sample point")
            out.append(-delta * pow(den, -1, p) % p)
        seen.append(any(out))
        return out

    return sides


def _twisted_part(W, W1, k: Fraction, r0: Fraction, free: int) -> RatFun:
    """W*k/(W1 - W) - r0 in x_free for W = c*a/b and W1 = c1*a1/b1: with
    E = c1.num*c.den*a1*b - c.num*c1.den*a*b1, W1 - W is E/(c.den*c1.den*b*b1)
    and the part t*a*b1/E - r0 for t = k*c.num*c1.den, one integer-list
    quotient reduced once (E = [] raises)."""
    (a, b, c), (a1, b1, c1) = ((w.num, w.den, w.c) for w in (W, W1))
    ab1 = _mul(a, b1)
    E = _sub(_scale(_mul(a1, b), c1.numerator * c.denominator), _scale(ab1, c.numerator * c1.denominator))
    t = k * c.numerator * c1.denominator
    num = _sub(_scale(ab1, t.numerator * r0.denominator), _scale(E, r0.numerator * t.denominator))
    return _line_quotient(num, _scale(E, t.denominator * r0.denominator), 3).ratfun(free)


def _twisted_parts(fn: _Fn, rng):
    """Yield (r1, r2, r3) of P = q((r1+r2)/(r2+r3)), P = fn.f, for each of
    at most 8 drawn points (cx, cy, cz) that gets that far; stop when the
    part in y does not integrate.

    W = T/T_x = (r1+r2)/r1' = -g_y g_z/delta and V = T/T_z = -(r2+r3)/r3' =
    -g_y g_x/delta are read off P on exact univariate lines only, as integer
    lists (see _twisted_line) reduced once, where the scales cancel.  On the
    y-line u = W_y = r2'/r1' yields r2.  W and V are affine in r2(y), so two
    x-lines at y = cy and cy + 1 give, at the scale of r2,
    r1'/r1'(cx) = (r2(cy+1) - r2(cy))/(W|cy+1 - W|cy), and two z-lines give
    r3' from V likewise; the additive constants come from W and V at y = cy
    (see _twisted_part).  u is a LineFn, r1 and r3 are the only RatFuns
    built, and each part is univariate by construction.
    """
    def ratio(point, free, k):  # -g_y g_k/delta, a LineFn
        g, delta = _twisted_line(fn, point, free)
        return _line_quotient(_mul(g[1], g[k]), [-c for c in delta], 3)

    for _ in range(8):
        cx, cy, cz = (rng.randrange(2, 98) for _ in range(3))
        try:
            w = ratio((cx, cy, cz), 1, 2)
            a, b = w.num, w.den
            u = _line_quotient(_sub(_mul(_deriv(a), b), _mul(a, _deriv(b))), _mul(b, b), 3, w.c)
            if u.is_zero:
                continue
            r2 = hermite_antiderivative(u, 1)
            if r2 is None:
                return
            r2cy, r2cy1 = (r2.eval_q((cx, y, cz)) for y in (cy, cy + 1))
            r1, r3 = (_twisted_part(*(ratio((cx, y, cz), v, 2 - v) for y in (cy, cy + 1)),
                                    r2cy1 - r2cy, r2cy, v) for v in (0, 2))
        except (DegenerateSpecializationError, PoleError, ZeroDivisionError, ValueError):
            continue
        yield r1, r2, r3


def _twisted_recover(fn, rng, dmax, diag):
    """Certify the first parts of _twisted_parts with a nonconstant s, or None."""
    for parts in _twisted_parts(fn, rng):
        try:
            return _certified("Twisted", parts, "twisted", fn, dmax, diag)
        except (DegenerateSpecializationError, ZeroDivisionError):
            continue  # r2 + r3 = 0, or a constant s
    return None


def fit_twisted(
    fn: _Fn,
    dmax: int | None = None,
    diagnostics: dict[str, bool] | None = None,
) -> FormReport | None:
    """Fit P = fn.f = q((r1(x) + r2(y)) / (r2(y) + r3(z))) for any outer map q.

    q is any nonconstant univariate rational function: it cancels from
    P_x/P_z, so (log T)_x and (log T)_z are read off P directly.  The gates
    check that (log T)_x is free of z and (log T)_z is free of x (both exact
    properties of the twisted shape), and that delta is not 0: a twisted
    form has (log T)_x = r1'/(r1 + r2), while every P with P_x/P_z free of
    y, each group form among them, has delta = 0, and both identities hold
    for it vacuously.  So the x-gate fails when its agreeing tries read 0
    on both sides, which for delta != 0 has probability about (deg/p)^2.
    The recovery then rebuilds T on univariate lines and certifies P = q(T).
    """
    diag = diagnostics if diagnostics is not None else {}
    seen = []
    if not all(_probe(_twisted_logpartial_mod(fn, i, seen), fn.tries())
               and any(seen) for i in (0, 2)):
        diag["twisted_gates"] = False
        return None
    report = _twisted_recover(fn, rng_for(fn.seed, "fit-twisted:t"), dmax, diag)
    if report is None:
        diag["twisted_gates"] = True
    return report


def verify_twisted_identities(
    r1: RatFun,
    r2: RatFun,
    r3: RatFun,
    trials: int = 100,
    seed: int = 0,
) -> bool:
    """Spot-check the three value-cube identities of the fitted twisted form.

    Builds s from TEMPLATES and requires all three cube identities of
    cube_identities to hold at `trials` exact random integer cubes.
    """
    s = TEMPLATES["Twisted"]((r1, r2, r3), None, None)
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


# ---------------------------------------------------------------------------
# classification pipeline
# ---------------------------------------------------------------------------


def fit_bivariate(
    P: RatFun,
    dmax: int | None = None,
    primes: tuple[int, ...] = DEFAULT_PRIMES,
    samples: int = 16,
    seed: int = 0,
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

    The fitters run first (group; then field and twisted for n = 3), and the
    first report one returns is the verdict: a certified fit proves the
    constraint, and with P nondegenerate its certificate P = q(s) proves the
    image dimension is n + 1 (see the dimension module), so no rank is
    sampled.  Without one,
    the sampled dimension separates NoConstraint (2n, proven by a full-rank
    sample) from Unresolved, a constraint no form explains (for n = 3 a
    partial one at 5 or a full one at 4 or less), which rests on the
    unanimity of the rank samples.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    n = P.arity
    P = P if P.canonical else P.reduce()
    if not is_nondegenerate(P):
        return FormReport("Degenerate", None, None, {"nondegenerate": False})
    diag: dict[str, bool] = {"nondegenerate": True}
    fn = _Fn(P, seed, primes[0])
    for fitter in (fit_group,) if n == 2 else (fit_group, fit_field, fit_twisted):
        report = fitter(fn, dmax=dmax, diagnostics=diag)
        if report is not None:
            report.image_dimension = n + 1
            return report
    d = image_dimension(P, primes=primes, samples=samples, seed=seed)
    diag["constraint"] = d < 2 * n
    if n == 3 and d == 5:
        diag["partial_constraint_dim5"] = True
    elif n == 3 and d < 5:
        two, detail = _decomposed_detail(fn)
        diag.update(detail)
        diag["2decomposed"] = two
    verdict = "NoConstraint" if d == 2 * n else "Unresolved"
    return FormReport(verdict, None, None, diag, image_dimension=d)
