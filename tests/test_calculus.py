"""Tests for separability, Hermite antiderivatives, and residue arithmetic."""

from __future__ import annotations

import dataclasses
import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest

from synth import (
    bench_corpus,
    partial_ratio,
    public_profile,
    ref_hermite_antiderivative,
    ref_logderiv_integrate,
    ref_residue_profile,
)
from ratforms.calculus import (
    _ONE,
    _add,
    _coeffs,
    _divexact,
    _gcd,
    _hermite_core,
    _int_coeffs,
    _inverse_mod,
    _monic,
    _mul,
    _poly,
    _proper_parts,
    _pseudo_divmod,
    _rational_roots,
    _scale,
    _trim,
    hermite_antiderivative,
    logderiv_integrate,
    residue_profile,
    separability_identity,
    yun_squarefree,
)
from ratforms import classify
from ratforms.calculus import LineFn
from ratforms.classify import _Fn, _line_quotient, _split_partial_ratio
from ratforms.modular import DEFAULT_PRIMES, rng_for
from ratforms.poly import Poly
from ratforms.ratfun import RatFun, parse

BI = ("x", "y")
TRI = ("x", "y", "z")


def _logderiv(f, var=0):
    """(g, c) with g'/g = c*f for one part, or (None, reason)."""
    gs, c = logderiv_integrate([(f, var)])
    return (None, c) if gs is None else (gs[0], c)


# -- separability --------------------------------------------------------------


def _split(f):
    """The one separable split, of f_x/f_y; u/v must equal that ratio exactly."""
    got = _split_partial_ratio(_Fn(f), 0, 1, rng_for(0, "test-split"))
    assert got is not None
    u, v = (h.ratfun(var) for var, h in enumerate(got))
    assert u / v == partial_ratio(f, 0, 1)
    assert u.independent_of(1) and v.independent_of(0)
    return u, v


def test_separable_product_simple_quotient():
    # f_x/f_y = x/y
    _split(parse("x^2 + y^2", BI))


def test_separable_product_with_negative_powers():
    # f_x/f_y = x^2*y^3
    _split(parse("x^3/3 - 1/(2*y^2)", BI))


def test_separability_identity_is_exact():
    assert separability_identity(parse("x^2*y^3", BI), [0], [1])
    assert not separability_identity(parse("x+y", BI), [0], [1])
    assert separability_identity(parse("(y+z)/(3*x)", TRI), [0], [1])


def test_separable_product_soundness_and_completeness_on_corpus():
    rng = random.Random(17)
    for k in range(15):
        # f = a(x) + b(y) or a(x) * b(y), a and b of degree <= 4, so that
        # f_x/f_y is separable
        ca = [rng.randint(-5, 5) for _ in range(5)]
        cb = [rng.randint(-5, 5) for _ in range(5)]
        ca[rng.randrange(1, 5)] = rng.choice((-1, 1))
        cb[rng.randrange(1, 5)] = rng.choice((-1, 1))
        a = "+".join(f"{c}*x^{e}" for e, c in enumerate(ca) if c)
        b = "+".join(f"{c}*y^{e}" for e, c in enumerate(cb) if c)
        op = "+" if k % 2 else "*"
        f = parse(f"({a}){op}({b})", BI)
        assert separability_identity(partial_ratio(f, 0, 1), [0], [1])
        _split(f)


# -- independence ----------------------------------------------------------------


def test_independent_of_examples():
    p = parse("x+y+z", TRI)
    h = p.partial(0) / p.partial(1)
    assert h.independent_of(2)
    assert not parse("(y+z)/(3*x)", TRI).independent_of(2)
    assert parse("5", TRI).independent_of(0)


# -- Hermite antiderivatives -------------------------------------------------------


def test_hermite_inverse_square():
    g = hermite_antiderivative(parse("1/x^2", ("x",)), 0)
    assert g is not None
    assert g == parse("-1/x", ("x",))


def test_hermite_polynomial():
    g = hermite_antiderivative(parse("2*x+3", ("x",)), 0)
    assert g is not None
    assert g.partial(0) == parse("2*x+3", ("x",))
    assert g == parse("x^2 + 3*x", ("x",))


def test_hermite_logarithmic_part_blocks():
    assert hermite_antiderivative(parse("1/x", ("x",)), 0) is None


def test_hermite_roundtrip_with_parameters():
    corpus = (
        "x^3 - 2*x + y",
        "y/(x + 1)^2",
        "(x^2 + y)/(x - 3)^2",
        "1/(x + y)^3",
    )
    for expr in corpus:
        g = parse(expr, BI)
        f = g.partial(0)
        back = hermite_antiderivative(f, 0)
        assert back is not None
        # equal up to an additive function of the parameters only
        diff = back - g
        assert diff.independent_of(0)


# -- residues ---------------------------------------------------------------------


def test_residue_profile_single_scaled_pole():
    prof = residue_profile(parse("3/(2*x)", ("x",)), 0)
    assert len(prof.residues) == 1
    _, res, splits = prof.residues[0]
    assert res == Fraction(3, 2) and splits


def test_residue_profile_two_simple_poles():
    prof = residue_profile(parse("1/(x-1) + 2/(x+1)", ("x",)), 0)
    vals = sorted(res for _, res, _ in prof.residues)
    assert vals == [1, 2]
    assert all(splits for _, _, splits in prof.residues)


def test_residue_profile_splits_a_linear_factor_with_a_large_root():
    # a linear factor's root is read off directly, however large
    prof = residue_profile(parse("1/(x - 2199023255579)", ("x",)), 0)
    assert len(prof.residues) == 1
    factor, res, splits = prof.residues[0]
    assert splits and res == 1
    assert factor == Poly.variable(0, 1) - Poly.const(2199023255579, 1)


def test_residue_profile_splits_a_quadratic_factor_with_large_roots():
    # Yun's split keeps the linear factors of 1/((x - a)(x - b)) in one
    # squarefree quadratic, and those of 1/((x - a)(x - b)(x - c)) in one
    # cubic, with roots near 2^41; every root is split off, with residue
    # 1 / prod (root - other root)
    a, b, c = 2199023255579, 2199023255591, 2199023255617
    x = Poly.variable(0, 1)
    for roots in ((a, b), (a, b, c)):
        den = "*".join(f"(x - {r})" for r in roots)
        prof = residue_profile(parse(f"1/({den})", ("x",)), 0)
        want = []
        for r in roots:
            res = Fraction(1)
            for o in roots:
                res /= r - o if o != r else 1
            want.append((str(x - r), res, True))
        assert sorted((str(f), r, s) for f, r, s in prof.residues) == sorted(want)
    # a quadratic of the same size with no rational root stays whole
    prof = residue_profile(parse(f"1/(x^2 - {2 * a * b})", ("x",)), 0)
    assert [(f.degree_in(0), s) for f, _, s in prof.residues] == [(2, False)]


def test_residue_profile_flags_non_splitting_factor():
    prof = residue_profile(parse("x/(x^2+1)", ("x",)), 0)
    assert len(prof.residues) == 1
    factor, res, splits = prof.residues[0]
    assert not splits
    assert res == 1  # rational total over the conjugate pair
    assert factor.degree_in(0) == 2


def test_residue_scaling_and_minimal_integer_multiplier():
    f = parse("3/(2*x) + 5/(3*(x - 1))", ("x",))
    prof = residue_profile(f, 0)
    dens = [res.denominator for _, res, _ in prof.residues]
    n = lcm(*dens)
    assert n == 6
    scaled = residue_profile(f * n, 0)
    assert all(res.denominator == 1 for _, res, _ in scaled.residues)
    by_factor = {fac.to_str(("x",)): res for fac, res, _ in prof.residues}
    by_factor_scaled = {fac.to_str(("x",)): res for fac, res, _ in scaled.residues}
    for key, res in by_factor.items():
        assert by_factor_scaled[key] == n * res


def test_residue_profiles_compare_by_value():
    # profiles are frozen values: two compare equal exactly when their
    # public fields do, also for functions that differ in a scale the
    # fields do not show (the residue 0 of c/(x-1)^2, the polynomial part
    # 2x of 2x + c/(x-1)^2)
    X = ("x",)
    texts = ["1/(x-1)^2", "2/(x-1)^2", "2*x + 1/(x-1)^2", "2*x + 2/(x-1)^2", "1/(x-1)", "2/(x-1)",
             "x/(x^2+1)", "(2*x^2 + 1)/(x^2+1)", "3/(2*x)", "3/(2*x) + x"]
    profs = [residue_profile(parse(t, X), 0) for t in texts]
    for p in profs:
        for q in profs:
            assert (p == q) == (public_profile(p) == public_profile(q)), (p, q)
    assert profs[0] == profs[1] and profs[2] == profs[3] and profs[4] != profs[5]
    assert profs[0] == residue_profile(parse("1/(x^2 - 2*x + 1)", X), 0)
    assert repr(profs[4]).startswith("ResidueProfile(var=0, arity=1, ")
    with pytest.raises(dataclasses.FrozenInstanceError):
        profs[4].var = 1


# -- logarithmic derivatives ---------------------------------------------------------


def test_logderiv_integrate_power():
    g, c = _logderiv(parse("2/x", ("x",)))
    assert (g, c) == (parse("x", ("x",)), Fraction(1, 2))
    assert g ** c.denominator == parse("x^2", ("x",))


def test_logderiv_integrate_quotient():
    g, c = _logderiv(parse("1/(x-1) - 3/x", ("x",)))
    assert c == 1
    assert g == parse("(x-1)/x^3", ("x",))


def test_logderiv_integrate_non_integer_residue():
    # the least c making the residue an integer, not a rejection
    g, c = _logderiv(parse("3/(2*x)", ("x",)))
    assert (g, c) == (parse("x", ("x",)), Fraction(2, 3))


def test_logderiv_integrate_pools_the_residues_of_every_part():
    (gx, gy), c = logderiv_integrate([(parse("2/x", BI), 0), (parse("4/(y-1)", BI), 1)])
    assert c == Fraction(1, 2)
    assert gx == parse("x", BI) and gy == parse("(y-1)^2", BI)


def test_logderiv_integrate_scale_matches_scaled_profile():
    # k*f has the poles of f and residues scaled by k: the same g for k > 0,
    # 1/g for k < 0, and c*|k| constant
    cases = (
        ("3/(2*x) + 5/(3*(x - 1))", Fraction(6)),
        ("1/(x-1) - 3/x", Fraction(-2, 1)),
        ("4/(x+2) + 8/(x-5)", Fraction(1, 4)),
        ("1/(3*x)", Fraction(-1, 2)),
    )
    for expr, k in cases:
        f = parse(expr, ("x",))
        g, c = _logderiv(f)
        gk, ck = _logderiv(f.scale(k))
        assert gk == (g if k > 0 else 1 / g)
        assert gk.to_str(("x",)) == (g if k > 0 else 1 / g).to_str(("x",))
        assert ck * abs(k) == c


def test_logderiv_integrate_gives_the_field_exponent_rule():
    # K = r'/(n*r) for r = prod (x - a_k)^m_k has residue m_k/n at a_k; the
    # field pivot's exponent is the lcm L of their denominators, and its
    # part the product with exponents L*m_k/n
    rng = random.Random(2505)
    for _ in range(40):
        roots = rng.sample(range(-20, 21), rng.randint(1, 4))
        ms = [-rng.randint(1, 6)] + [rng.choice((-4, -3, -2, -1, 1, 2, 3, 4, 6)) for _ in roots[1:]]
        n = rng.randint(1, 8)
        r = _product([(f"x - ({a})", m) for a, m in zip(roots, ms)])
        g, c = _logderiv(r.partial(0) / r.scale(n))
        L = lcm(*(Fraction(m, n).denominator for m in ms))
        want = _product([(f"x - ({a})", L * m // n) for a, m in zip(roots, ms)])
        assert c.numerator == L
        assert g ** c.denominator == want


def test_logderiv_obstruction_reason_codes():
    cases = (
        ("1/x^2", "multiple-pole"),
        ("x + 1/x", "nonzero-poly-part"),
        ("x/(x^2+1)", "non-splitting-factor"),
    )
    for expr, want in cases:
        assert _logderiv(parse(expr, ("x",))) == (None, want)
    assert _logderiv(parse("3/(2*x)", ("x",)))[0] is not None


def test_logderiv_integrate_non_splitting_factor():
    g, reason = _logderiv(parse("x/(x^2+1)", ("x",)))
    assert g is None
    assert reason == "non-splitting-factor"


def test_logderiv_roundtrip():
    corpus = ("x^2*(x - 1)", "(x + 2)/(x - 5)^3", "x*(x + 1)*(x + 2)")
    for expr in corpus:
        g = parse(expr, ("x",))
        f = g.partial(0) / g
        back, c = _logderiv(f)
        assert c == 1 and back is not None
        # equal up to a multiplicative constant
        ratio = back / g
        assert ratio.is_constant


def test_logderiv_rejects_zero_input():
    assert _logderiv(parse("x - x", ("x",))) == (None, "zero-part")


# -- the dense univariate core ------------------------------------------------------

X = ("x",)


def _rand_linear_roots(rng, k):
    return rng.sample(sorted({Fraction(n, d) for n in range(-9, 10) for d in (1, 2, 3)}), k)


def _product(factors):
    out = parse("1", X)
    for text, m in factors:
        out = out * parse(text, X) ** m
    return out


def test_hermite_inverts_the_derivative_on_random_repeated_factors():
    rng = random.Random(41)
    for _ in range(25):
        # g = a polynomial without constant term plus a proper fraction whose
        # denominator has repeated linear and quadratic factors
        a, b = _rand_linear_roots(rng, 2)
        den = _product([(f"x - {a}", rng.randint(1, 3)), (f"x - {b}", rng.randint(2, 3)),
                        (f"x^2 + {rng.randint(1, 5)}", rng.randint(1, 2))]).num
        num = "+".join(f"{rng.randint(-6, 6)}*x^{e}" for e in range(den.degree_in(0)))
        poly = "+".join(f"{rng.randint(-4, 4)}*x^{e}" for e in range(1, 4))
        g = parse(poly, X) + RatFun(parse(num, X).num, den)
        assert hermite_antiderivative(g.partial(0), 0) == g


def test_hermite_rejects_a_logarithmic_part_on_random_inputs():
    rng = random.Random(43)
    for _ in range(10):
        (a,) = _rand_linear_roots(rng, 1)
        g = parse(f"1/(x - {a})^2", X)
        f = g.partial(0) + parse(f"{rng.randint(1, 9)}/(x - {a})", X)
        assert hermite_antiderivative(f, 0) is None


def test_yun_squarefree_recovers_known_multiplicities():
    rng = random.Random(47)
    for _ in range(20):
        roots = _rand_linear_roots(rng, 3)
        mults = rng.sample(range(1, 5), 3)
        c = rng.randint(1, 7)
        parts = [(f"x - {r}", m) for r, m in zip(roots, mults)]
        qm = rng.choice([m for m in range(1, 5) if m not in mults] + mults)
        parts.append((f"x^2 + {c}", qm))
        d = _int_coeffs(_product(parts).num, 0)
        got = yun_squarefree(d)
        assert all(type(c) is int for v, _ in got for c in v)
        assert all(gcd(*v) == 1 and v[-1] > 0 for v, _ in got)
        want = {}
        for text, m in parts:
            want[m] = want.get(m, parse("1", X)) * parse(text, X)
        assert [m for _, m in got] == sorted(want)
        for v, m in got:
            assert _poly(_monic(v), 0, 1) == want[m].num


def test_residue_profile_exact_residues_and_trace():
    rng = random.Random(53)
    for _ in range(20):
        roots = _rand_linear_roots(rng, 3)
        cs = [Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4)) for _ in roots]
        k, e = rng.randint(1, 6), rng.randint(-4, 4)
        b = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        f = parse(f"({b.numerator}/{b.denominator}*x + {e})/(x^2 + {k})", X)
        for r, c in zip(roots, cs):
            f = f + parse(f"({c.numerator}/{c.denominator})/(x - {r})", X)
        # an irreducible cubic x^3 + k3 under a quadratic numerator: the
        # residues (a*t^2 + ...)/(3*t^2) at its roots t sum to a
        k3, a = rng.choice((2, 3, 4, 5, 6, 7, 9, 10)), rng.choice((-3, -1, 1, 2, 5))
        f = f + parse(f"({a}*x^2 + {rng.randint(-4, 4)}*x + {rng.randint(-4, 4)})/(x^3 + {k3})", X)
        prof = residue_profile(f, 0)
        assert prof.polynomial_part.is_zero
        assert all(m == 1 for _, m in prof.squarefree_poles)
        split = {fac.to_str(X): res for fac, res, ok in prof.residues if ok}
        assert split == {parse(f"x - {r}", X).to_str(X): c for r, c in zip(roots, cs)}
        # Yun keeps both irreducible factors in one squarefree cofactor
        (traced,) = [(fac, res) for fac, res, ok in prof.residues if not ok]
        assert traced == (parse(f"(x^2 + {k})*(x^3 + {k3})", X).num, b + a)


def test_rational_roots_of_planted_factors():
    # distinct roots n/d with |n|, d up to 2^45 times an irreducible x^2 + k,
    # then two cubics whose first primes are skipped: (x-1)(x-3)(x-4) has a
    # double root mod 2 and mod 3, and the integer form of (2x-1)(3x-1)(x-2)
    # has a leading coefficient divisible by 2 and 3; p is the primitive
    # integer product of the cofactor and the factors d*x - n
    rng = random.Random(61)
    big = 1 << 45
    cases = [([Fraction(1), Fraction(3), Fraction(4)], []),
             ([Fraction(1, 3), Fraction(1, 2), Fraction(2)], [])]
    for _ in range(12):
        roots = {Fraction(rng.randint(-big, big), rng.randint(1, big)) for _ in range(rng.randint(1, 4))}
        cases.append((sorted(roots), [rng.randint(1, big), 0]))
    for roots, cof in cases:
        cof = cof + [1]
        p = cof
        for r in roots:
            p = _mul(p, [-r.numerator, r.denominator])
        assert _rational_roots(p) == (roots, cof)


def test_fraction_and_ratfun_coefficients_agree():
    # the same univariate input, once as Fraction lists and once with every
    # coefficient a constant RatFun, gives equal factors and reductions
    rng = random.Random(59)

    def as_ratfun(a):
        return [RatFun.const(c, 2) for c in a]

    def value(a):
        return [c.constant_value() if isinstance(c, RatFun) else Fraction(c) for c in a]

    for _ in range(8):
        a, b = _rand_linear_roots(rng, 2)
        p = _product([(f"x - {a}", 3), (f"x - {b}", 1), (f"x^2 + {rng.randint(1, 5)}", 2)]).num
        d = _monic(_coeffs(p, 0))
        r = _trim([Fraction(rng.randint(-5, 5)) for _ in range(len(d) - 1)])
        fq = yun_squarefree(d)
        fr = yun_squarefree(as_ratfun(d))
        assert fq == [(value(v), m) for v, m in fr]
        # the integer split of the primitive form has the same monic factors
        assert [(_monic(v), m) for v, m in yun_squarefree(_int_coeffs(p, 0))] == fq
        if _gcd(r, d) != [1]:
            continue
        got_q = _hermite_core(r, d, fq)
        got_r = _hermite_core(as_ratfun(r), as_ratfun(d), fr)
        assert [value(a) for a in got_q] == [value(a) for a in got_r]


def test_pseudo_division_is_exact_in_integers():
    rng = random.Random(61)
    cases = [([], [3]), ([5, 1], [1, 0, 2]), ([7], [-2]), ([4, 0, 0, 6], [1, -3])]
    for _ in range(40):
        cases.append(([rng.randint(-9, 9) for _ in range(rng.randint(1, 7))] + [rng.randint(1, 9)],
                      [rng.randint(-9, 9) for _ in range(rng.randint(0, 4))] + [rng.choice([-6, -1, 1, 4])]))
    for a, b in cases:
        q, r = _pseudo_divmod(a, b)
        assert len(q) == max(0, len(a) - len(b) + 1) and len(r) < len(b)
        assert all(type(c) is int for c in q + r)
        assert _add(_mul(q, b), r) == _trim([b[-1] ** len(q) * c for c in a])


def test_proper_parts_of_a_univariate_function():
    # f = s*(q + r/d) with deg r < deg d, on integer lists with d primitive,
    # for f free of the other variables, and with d monic and s = 1 for the
    # same f times a factor in them (read off its RatFun coefficients)
    rng = random.Random(67)

    def part(deg):
        a = [Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 14])) for _ in range(deg + 1)]
        a[-1] = a[-1] or Fraction(5, 2)
        return a

    def lift(a):
        return [c if isinstance(c, RatFun) else RatFun.const(c, 2) for c in a]

    y = RatFun.variable(1, 2)
    for _ in range(30):
        f = RatFun(_poly(part(rng.randint(0, 6)), 0, 2), _poly(part(rng.randint(0, 4)), 0, 2))
        q, r, d, s = _proper_parts(f, 0)
        assert gcd(*d) == 1 and len(r) < len(d) and type(s) is Fraction
        assert all(type(c) is int for c in q + r + d)
        back = RatFun.from_poly(_poly(q, 0, 2))
        if r:
            back = back + RatFun(_poly(r, 0, 2), _poly(d, 0, 2))
        assert back.scale(s) == f
        # the same parts as Fraction lists with a monic denominator
        q, r, d = _scale(q, s), _scale(r, s / d[-1]), _monic(d)
        qy, ry, dy, sy = _proper_parts(f * (y + 1), 0)
        assert sy == 1 and dy[-1] == 1
        assert lift(qy) == [c * (y + 1) for c in lift(q)] and lift(ry) == [c * (y + 1) for c in lift(r)]
        assert lift(dy) == lift(d)


def _long_quotient(num: list, den: list) -> list:
    """Reference: the quotient of the long division of num by den, Fraction
    lists lowest first."""
    rem, m = list(num), len(den) - 1
    q = [Fraction(0)] * max(0, len(num) - m)
    for k in range(len(q) - 1, -1, -1):
        q[k] = rem[k + m] / den[-1]
        for j, d in enumerate(den):
            rem[k + j] -= q[k] * d
    return q


def test_the_polynomial_part_is_the_long_division_quotient():
    rng = random.Random(38)

    def coeffs(deg):
        out = [Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 14])) for _ in range(deg + 1)]
        out[-1] = out[-1] or Fraction(1)
        return out

    cases = [
        ([], [Fraction(1)]),  # the zero part
        ([Fraction(2), Fraction(5)], [Fraction(1), Fraction(0), Fraction(3)]),  # deg num < deg den
        ([Fraction(7, 3), Fraction(1, 6), Fraction(5, 2)], [Fraction(2, 5), Fraction(4, 3)]),  # content 1/30
        ([Fraction(-7, 4)], [Fraction(3)]),  # a constant part
    ]
    cases += [(coeffs(rng.randint(0, 6)), coeffs(rng.randint(0, 4))) for _ in range(60)]
    for num, den in cases:
        for var in range(3):
            r = RatFun(_poly(num, var, 3), _poly(den, var, 3))
            q, _, _, s = _proper_parts(r, var)
            assert _scale(q, s) == _long_quotient(num, den), (num, den, var)


def test_hermite_antiderivatives_have_no_constant_term():
    # the normal forms rest on this: the polynomial part of every
    # antiderivative hermite_antiderivative returns has constant term 0, so
    # no fitted additive part carries a shift of its own
    rng = random.Random(39)

    def coeffs(deg):
        out = [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 7])) for _ in range(deg + 1)]
        out[-1] = out[-1] or Fraction(1)
        return out

    def proper(var, most):
        den = [_ONE]
        for _ in range(rng.randint(1, 2)):
            a = Fraction(rng.randint(-5, 5), rng.choice([1, 2]))
            for _ in range(rng.randint(1, most)):
                den = _mul(den, [-a, _ONE])
        if rng.random() < 0.3:
            den = _mul(den, [Fraction(rng.randint(1, 5)), 0, _ONE])
        return RatFun(_poly(coeffs(len(den) - 2), var, 3), _poly(den, var, 3))

    kinds = {
        "polynomial": lambda var: RatFun.from_poly(_poly(coeffs(rng.randint(1, 5)), var, 3)),
        "proper": lambda var: proper(var, 1),
        "mixed": lambda var: RatFun.from_poly(_poly(coeffs(rng.randint(1, 4)), var, 3)) + proper(var, 2),
        "multiple poles": lambda var: proper(var, 3),
    }
    for kind, make in kinds.items():
        for k in range(60):
            var = k % 3
            f = make(var).partial(var)
            got = hermite_antiderivative(f, var)
            assert got is not None and got.partial(var) == f, kind
            q = _proper_parts(got, var)[0]
            assert not q or q[0] == 0, (kind, f)


def test_dense_core_exceptions():
    with pytest.raises(ValueError, match="inexact"):
        _divexact([Fraction(1), Fraction(0), Fraction(1)], [Fraction(1), Fraction(1)])
    with pytest.raises(ZeroDivisionError):
        # x + 1 is not invertible modulo (x + 1)(x - 1)
        _inverse_mod([Fraction(1), Fraction(1)], [Fraction(-1), Fraction(0), Fraction(1)])
    with pytest.raises(ValueError, match="univariate over Q"):
        residue_profile(parse("y/x + x", BI), 0)


def test_residue_profiles_hold_fractions_and_monic_factors():
    # every root, residue and trace is a Fraction (a linear factor's root is
    # -c0/c1 as a Fraction, not a float), and every stored factor is monic
    big = 2199023255579
    cases = ("1/(3*x-7)", "x/((3*x-7)*(5*x+2))", "1/(x*(2*x+1))", f"1/((x - {big})*(3*x + {big + 12}))",
             "x/(x^2+1) + 1/(3*x-7)^2")
    for expr in cases:
        f = parse(expr, X)
        for v, _ in yun_squarefree(_int_coeffs(f.den, 0)):
            roots, cof = _rational_roots(v)
            assert all(type(a) is Fraction for a in roots) and type(cof[-1]) is int
        prof = residue_profile(f, 0)
        assert all(type(res) is Fraction for _, res, _ in prof.residues)
        factors = [v for v, _ in prof.squarefree_poles] + [fac for fac, _, _ in prof.residues]
        assert all(fac.leading()[1] == 1 for fac in factors)
    (factor, res, splits), = residue_profile(parse("1/(3*x-7)", X), 0).residues
    assert (factor, res, splits) == (parse("x - 7/3", X).num, Fraction(1, 3), True)
    assert _rational_roots([-7, 3]) == ([Fraction(7, 3)], [1])


def _random_univariate(rng, var, arity):
    """A random nonzero function univariate over Q in var, scaled by a
    content such as -1/30: simple split poles, or a polynomial part plus a
    proper part, or the derivative of one.  Its poles include 0, roots with
    denominators (as of 3*x - 7), roots near 2^41, multiplicities up to 4
    and the roots of a j*x^2 + k that does not split."""
    x = RatFun.variable(var, arity)
    zero = RatFun.const(0, arity)

    def root():
        u = rng.random()
        if u < 0.15:
            return Fraction(0)
        if u < 0.3:
            return Fraction(rng.choice((2199023255579, 2199023255591, -2199023255617)))
        return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 5)))

    def lin(a):
        return x * a.denominator - a.numerator

    def general():
        den = RatFun.const(1, arity)
        for a in {root() for _ in range(rng.randint(0, 3))}:
            den = den * lin(a) ** rng.choice((1, 1, 2, 3, 4))
        if rng.random() < 0.35:
            den = den * (x**2 * rng.choice((1, 2, 5)) + rng.choice((1, 2, 3, 7))) ** rng.choice((1, 1, 2))
        num = sum((x**i * rng.randint(-9, 9) for i in range(den.num.degree_in(var))), RatFun.const(rng.randint(-9, 9), arity))
        out = num / den
        if rng.random() < 0.4:
            out = out + sum((x**i * rng.randint(-5, 5) for i in range(rng.randint(1, 4))), zero)
        return out

    kind = rng.randrange(3)
    if kind == 0:
        f = sum((RatFun.const(Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 4)), arity) / lin(a)
                 for a in {root() for _ in range(rng.randint(1, 4))}), zero)
    else:
        f = general()
        if kind == 1:
            f = f.partial(var)
    f = f.scale(Fraction(rng.choice((1, -1, 7, -3)), rng.choice((1, 30, 4))))
    return f if not f.is_zero else _random_univariate(rng, var, arity)


def test_integer_calculus_matches_the_fraction_list_reference():
    # residue_profile, hermite_antiderivative and logderiv_integrate on
    # integer lists against the Fraction-list code they replaced
    # (synth.ref_*), on 200 random functions in several variables
    rng = random.Random(40)
    seen = {"antiderivative": 0, "logderiv": 0, "multiple-pole": 0, "non-split": 0, "zero root": 0,
            "large root": 0}
    for k in range(200):
        var, arity = ((0, 1), (1, 2), (2, 3))[k % 3]
        f = _random_univariate(rng, var, arity)
        prof = residue_profile(f, var)
        assert public_profile(prof) == ref_residue_profile(f, var), f
        g = hermite_antiderivative(f, var)
        assert g == ref_hermite_antiderivative(f, var), f
        got = logderiv_integrate([(f, var)])
        assert got == ref_logderiv_integrate([(f, var)]), f
        seen["antiderivative"] += g is not None
        seen["logderiv"] += got[0] is not None
        seen["multiple-pole"] += any(m > 1 for _, m in prof.squarefree_poles)
        seen["non-split"] += any(not ok for _, _, ok in prof.residues)
        seen["zero root"] += any(fac == Poly.variable(var, arity) for fac, _, _ in prof.residues)
        seen["large root"] += any(abs(fac.eval_q([0] * arity)) > 1 << 40 for fac, _, _ in prof.residues)
    assert min(seen.values()) >= 15, seen


# -- the line form ---------------------------------------------------------------


def _assert_line_form_matches_its_ratfun(f, var):
    """hermite_antiderivative, every field of residue_profile and
    logderiv_integrate (its gs and c) give one result on the LineFn f and on
    the RatFun it converts to; returns that profile's fields or the error."""
    g = f.ratfun(var)
    assert g.canonical
    assert hermite_antiderivative(f, var) == hermite_antiderivative(g, var)
    try:
        want = residue_profile(g, var)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)):
            residue_profile(f, var)
        want = type(exc)
    else:
        got = residue_profile(f, var)
        assert got == want
        assert public_profile(got) == public_profile(want)
    assert logderiv_integrate([(f, var)]) == logderiv_integrate([(g, var)])
    return want


def test_the_line_form_matches_its_ratfun_on_the_replayed_split_ratios(monkeypatch):
    # every split ratio the fitters read on the seed-3 inputs of the three
    # benchmark workloads, integrated as a LineFn and as its RatFun
    corpus = bench_corpus(monkeypatch)
    split, seen = classify._split_partial_ratio, []

    def spy(fn, a, b, rng, rest=()):
        got = split(fn, a, b, rng, rest)
        seen.extend(zip(got or (), (a, b, *rest)))
        return got

    monkeypatch.setattr(classify, "_split_partial_ratio", spy)
    for workload in sorted(corpus.WORKLOADS):
        for it in corpus.build(workload, 3):
            classify._classify(parse(it.expr, it.names), None, DEFAULT_PRIMES, 16, 0)
    monkeypatch.undo()
    kinds = Counter()
    for f, var in seen:
        assert isinstance(f, LineFn) and f.den[-1] > 0
        want = _assert_line_form_matches_its_ratfun(f, var)
        kinds["profile"] += not isinstance(want, type)
        kinds["antiderivative"] += hermite_antiderivative(f, var) is not None
        kinds["logderiv"] += logderiv_integrate([(f, var)])[0] is not None
        kinds["negative c"] += f.c < 0
    assert len(seen) > 900 and min(kinds.values()) >= 100, (len(seen), kinds)


@pytest.mark.parametrize(
    "ga, gb, var, arity, reason",
    [
        ([1, 2], [4, 0, -1], 0, 2, None),  # a negative-lead denominator, 4 - x^2
        ([0, 0, 3, 1], [0, 0, 0, 2, 5], 2, 3, None),  # a shared power x^2
        ([0, 0, 7], [0, 0, 5], 0, 2, "nonzero-poly-part"),  # the constant 7/5
        ([0, -7], [0, 5], 1, 2, "nonzero-poly-part"),  # the constant -7/5
        ([], [1, 1], 1, 3, "zero-part"),
        ([-1], [1, -2, 1], 0, 3, "multiple-pole"),  # (1/(x - 1))'
        ([5, 1], [2, -3, 0, 1], 1, 2, "multiple-pole"),  # (x + 5)/((x - 1)^2 (x + 2))
        ([-4, 2], [-3, 0, 1], 1, 3, "non-splitting-factor"),  # (2x - 4)/(x^2 - 3)
        ([7], [2, 0, 1], 2, 3, "non-splitting-factor"),
    ],
)
def test_the_line_form_matches_its_ratfun_on_generated_cases(ga, gb, var, arity, reason):
    f = _line_quotient(ga, gb, arity)
    assert f.den[-1] > 0
    _assert_line_form_matches_its_ratfun(f, var)
    gs, c = logderiv_integrate([(f, var)])
    assert (None if gs is not None else c) == reason
    if gb == [1, -2, 1]:
        # Hermite's Fraction branch reduces the double pole
        assert hermite_antiderivative(f, var) == 1 / (RatFun.variable(var, arity) - 1)
