"""Tests for canonical-form fitting, certificates, and the trivariate pipeline."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import synth
from ratforms.classify import (
    DependenceCertificate,
    classify_trivariate,
    cube_identities,
    dependence_certificate,
    fit_bivariate,
    fit_field,
    fit_group,
    fit_polynomial_composition,
    fit_twisted,
    verify_certificate,
    verify_twisted_identities,
)
from ratforms.classify import test_2decomposed as is_2decomposed
from ratforms.oracle import symbolic_rank
from ratforms.dimension import doubling_map, generic_rank, image_dimension
from ratforms.poly import Poly
from ratforms.ratfun import compose_numerator, parse

BI = ("x", "y")
TRI = ("x", "y", "z")


# -- dependence certificates ---------------------------------------------------


def test_certificate_square_relation():
    cert = dependence_certificate(parse("(x+y)^2", BI), parse("x+y", BI), dmax=2)
    assert cert is not None and cert.verified
    assert cert.annihilator.terms == {(1, 0): Fraction(1), (0, 2): Fraction(-1)}
    assert cert.degree_bound >= cert.annihilator.total_degree()


def test_certificate_none_for_independent_pair():
    assert dependence_certificate(parse("x+y", BI), parse("x*y", BI), dmax=4) is None


def test_certificate_mobius_of_field_form():
    P = parse("(x*(y+z)^3 + 1)/(x*(y+z)^3 - 1)", TRI)
    s = parse("x*(y+z)^3", TRI)
    cert = dependence_certificate(P, s, dmax=2)
    assert cert is not None
    # p(q - 1) - (q + 1)
    assert cert.annihilator.terms == {
        (1, 1): Fraction(1),
        (1, 0): Fraction(-1),
        (0, 1): Fraction(-1),
        (0, 0): Fraction(-1),
    }


def test_certificate_substitutes_to_zero():
    P = parse("(x+y)^2", BI)
    s = parse("x+y", BI)
    cert = dependence_certificate(P, s, dmax=2)
    assert compose_numerator(cert.annihilator, [P, s]).is_zero


def test_certificate_none_when_p_not_in_q_of_s():
    # x*y and x^2*y^2 are dependent (p^2 - q), but x*y is not a rational
    # function of x^2*y^2, so no relation a(q)*p - b(q) exists
    assert dependence_certificate(parse("x*y", BI), parse("x^2*y^2", BI)) is None


def test_certificate_respects_max_degree():
    assert dependence_certificate(parse("(x+y)^3", BI), parse("x+y", BI), dmax=2) is None


def test_certificate_found_without_dense_search(monkeypatch):
    import ratforms.oracle

    def no_dense_search(rows, p):
        raise AssertionError("dense relation search ran")

    monkeypatch.setattr(ratforms.oracle, "nullspace_vector_mod", no_dense_search)
    cert = dependence_certificate(parse("(x+y+z)^24", TRI), parse("x+y+z", TRI))
    assert cert is not None
    assert cert.annihilator.terms == {(1, 0): Fraction(1), (0, 24): Fraction(-1)}


def test_certificate_rejects_constant_s():
    with pytest.raises(ValueError):
        dependence_certificate(parse("x+y", BI), parse("3", BI), dmax=2)


def test_verify_certificate_accepts_true_and_rejects_corrupted():
    P = parse("(x+y)^2", BI)
    s = parse("x+y", BI)
    cert = dependence_certificate(P, s, dmax=2)
    assert verify_certificate(cert, P, s)

    rng = random.Random(31)
    for _ in range(20):
        terms = dict(cert.annihilator.terms)
        key = rng.choice(sorted(terms))
        terms[key] = terms[key] + Fraction(rng.randint(1, 9))
        bad = DependenceCertificate(
            Poly({k: v for k, v in terms.items() if v != 0}, 2),
            cert.degree_bound,
            True,
        )
        assert not verify_certificate(bad, P, s)


def test_verify_certificate_rejects_wrong_pair():
    P = parse("(x+y)^2", BI)
    s = parse("x+y", BI)
    cert = dependence_certificate(P, s, dmax=2)
    assert not verify_certificate(cert, P, parse("x*y", BI))


def test_certificate_samples_modulo_primes_coprime_to_the_denominators_of_s():
    # s has no image modulo 11, which divides its coefficient denominator 44,
    # so the gradient minors and the spot checks sample modulo another prime
    P = parse("x^2 + y^2", BI)
    s = parse("1/44*x^2 + 1/44*y^2", BI)
    cert = dependence_certificate(P, s, primes=(13, 11))
    assert cert is not None and cert.verified
    assert cert.annihilator.terms == {(1, 0): Fraction(1), (0, 1): Fraction(-44)}
    assert verify_certificate(cert, P, s, primes=(13, 11))


def test_verify_certificate_rejects_mismatched_arity():
    cert = dependence_certificate(parse("(x+y)^2", BI), parse("x+y", BI), dmax=2)
    # s in more variables than P, and in fewer
    for P, s in ((parse("(x+y)^2", BI), parse("x+y+z", TRI)),
                 (parse("(x+y+z)^2", TRI), parse("x+y", BI))):
        with pytest.raises(ValueError):
            dependence_certificate(P, s, dmax=2)
        with pytest.raises(ValueError):
            verify_certificate(cert, P, s)


# -- bivariate dichotomy ---------------------------------------------------------


def test_bivariate_additive_square():
    rep = fit_bivariate(parse("(x+y)^2", BI))
    assert rep.verdict == "GroupAdditive"
    assert rep.fitted["s"] == parse("x+y", BI)
    assert rep.certificate.annihilator.terms == {
        (1, 0): Fraction(1),
        (0, 2): Fraction(-1),
    }


def test_bivariate_multiplicative_square():
    rep = fit_bivariate(parse("x^2*y^2", BI))
    assert rep.verdict == "GroupMultiplicative"
    assert rep.fitted["s"] == parse("x*y", BI)
    assert rep.certificate.annihilator.terms == {
        (1, 0): Fraction(1),
        (0, 2): Fraction(-1),
    }
    assert rep.fitted["r1"] * rep.fitted["r2"] == rep.fitted["s"]


def test_bivariate_no_constraint():
    rep = fit_bivariate(parse("x + y + x^2*y^3", BI))
    assert rep.verdict == "NoConstraint"
    assert rep.certificate is None and rep.fitted is None
    assert rep.diagnostics["group_sep_xy"] is False


def test_bivariate_degenerate():
    rep = fit_bivariate(parse("x + 1", BI))
    assert rep.verdict == "Degenerate"
    assert rep.diagnostics == {"nondegenerate": False}


def test_bivariate_separable_but_not_rationally_integrable():
    # (x^2+1)(y^2+1): the multiplicative structure exists but the factors
    # do not split over Q, so neither branch recovers parts; the verdict
    # must be Unresolved with the splitting reason, never NoConstraint.
    rep = fit_bivariate(parse("(x^2+1)*(y^2+1)", BI))
    assert rep.verdict == "Unresolved"
    assert rep.diagnostics.get("group_multiplicative_non-splitting-factor") is False


@pytest.mark.parametrize(
    "expr",
    [
        "x + y + x^2*y^3",
        "(x + y)/(1 + x*y^2) + x",
        "(x+y)^2",
        "(1/(x+1) + y^2)^2 + 3",
        "x^2*y^2",
        "(x*y - 1)/(x*y + 1)",
        "(x^2+1)*(y^2+1)",
    ],
)
def test_bivariate_verdict_agrees_with_the_exact_rank(expr):
    # NoConstraint exactly when the symbolic Jacobian rank of the doubling
    # map is full, and the reported dimension is that rank
    f = parse(expr, BI)
    rank = symbolic_rank(doubling_map(f))
    rep = fit_bivariate(f)
    assert rep.image_dimension == rank
    assert (rep.verdict == "NoConstraint") == (rank == 4)


def test_bivariate_additive_with_rational_parts():
    P = parse("(1/(x+1) + y^2)^2 + 3", BI)
    rep = fit_bivariate(P)
    assert rep.verdict == "GroupAdditive"
    assert verify_certificate(rep.certificate, P, rep.fitted["s"])


# -- 2-decomposability ------------------------------------------------------------


def test_2decomposed_field_form():
    ok, detail = is_2decomposed(parse("x*(y+z)^3", TRI))
    assert ok
    assert detail == {"2dec_xy": True, "2dec_xz": True, "2dec_yz": True}


def test_2decomposed_twisted_form():
    ok, _ = is_2decomposed(parse("(x+y)/(y+z)", TRI))
    assert ok


def test_2decomposed_failure_pinpoints_pair():
    # P_x/P_z = (1 + 2xz)/(y + x^2) couples x and z through the 2xz term,
    # so the (x,z) split is the one that fails; P_x/P_y = (1 + 2xz)/z does
    # not involve y at all and splits trivially.
    ok, detail = is_2decomposed(parse("x + y*z + x^2*z", TRI))
    assert not ok
    assert detail["2dec_xz"] is False
    assert detail["2dec_xy"] is True


# -- group fitter -----------------------------------------------------------------


def test_fit_group_additive():
    fit = fit_group(parse("(x+y+z)^2", TRI))
    assert fit is not None
    assert fit.verdict == "GroupAdditive"
    assert fit.s == parse("x+y+z", TRI)


def test_fit_group_multiplicative():
    fit = fit_group(parse("x*y*z", TRI))
    assert fit is not None
    assert fit.verdict == "GroupMultiplicative"
    assert fit.s == parse("x*y*z", TRI)
    assert fit.certificate.annihilator.terms == {
        (1, 0): Fraction(1),
        (0, 1): Fraction(-1),
    }


def test_fit_group_rejects_field_form():
    assert fit_group(parse("x*(y+z)^3", TRI)) is None


# -- field fitter -----------------------------------------------------------------


def test_fit_field_square():
    fit = fit_field(parse("x*(y+z)^2", TRI))
    assert fit is not None
    assert fit.pivot == 1 and fit.exponent == 2
    assert fit.r1 == parse("x", TRI)
    assert fit.r2 == parse("y", TRI)
    assert fit.r3 == parse("z", TRI)
    assert fit.s == parse("x*(y+z)^2", TRI)


def test_fit_field_high_exponent():
    fit = fit_field(parse("x^2*(y^3+z)^5", TRI))
    assert fit is not None
    assert fit.pivot == 1 and fit.exponent == 5
    assert fit.r1 == parse("x^2", TRI)
    assert fit.r2 == parse("y^3", TRI)
    assert fit.r3 == parse("z", TRI)
    assert fit.certificate.annihilator.terms == {
        (1, 0): Fraction(1),
        (0, 1): Fraction(-1),
    }


def test_fit_field_rejects_twisted():
    assert fit_field(parse("(x+y)/(y+z)", TRI)) is None


# -- twisted fitter ---------------------------------------------------------------


def test_fit_twisted_identity_parts():
    P = parse("(x+y)/(y+z)", TRI)
    fit = fit_twisted(P)
    assert fit is not None
    assert fit.s == P
    assert fit.r1 == parse("x", TRI)
    assert fit.r2 == parse("y", TRI)
    assert fit.r3 == parse("z", TRI)
    assert fit.certificate.annihilator.terms == {
        (1, 0): Fraction(1),
        (0, 1): Fraction(-1),
    }


def test_fit_twisted_polynomial_parts():
    P = parse("(x^2+y)/(y+z^3)", TRI)
    fit = fit_twisted(P)
    assert fit is not None
    assert fit.s == P
    assert (fit.r1 + fit.r2) / (fit.r2 + fit.r3) == P
    # parts are recovered up to one shared scale
    kappa = fit.r2 / parse("y", TRI)
    assert kappa.is_constant
    assert fit.r1 == parse("x^2", TRI) * kappa
    assert fit.r3 == parse("z^3", TRI) * kappa


def test_fit_twisted_rejects_additive():
    assert fit_twisted(parse("x+y+z", TRI)) is None


def test_twisted_gates_reject_non_twisted_input():
    diag = {}
    assert fit_twisted(parse("x*y*z + x + 1", TRI), diagnostics=diag) is None
    assert diag == {"twisted_gates": False}


def _assert_twisted_with_inner(expr: str, inner: str) -> None:
    P = parse(expr, TRI)
    T = parse(inner, TRI)
    rep = classify_trivariate(P)
    assert rep.verdict == "Twisted", (expr, rep.diagnostics)
    f = rep.fitted
    assert f["s"] == T
    assert (f["r1"] + f["r2"]) / (f["r2"] + f["r3"]) == f["s"]
    assert verify_certificate(rep.certificate, P, f["s"])


#: Outer maps q outside the generators' Mobius list, as text in the slot T.
OUTER_MAPS = ("3*T", "T/(T+1)", "T^2", "T^2+1", "T+2", "(2*T+1)/(T-1)")


@pytest.mark.parametrize("inner", ("(x+y)/(y+z)", "(x^2+y)/(y+z^3)"))
@pytest.mark.parametrize("outer", OUTER_MAPS)
def test_twisted_under_any_outer_map(inner, outer):
    _assert_twisted_with_inner(outer.replace("T", f"({inner})"), inner)


def test_twisted_high_power():
    _assert_twisted_with_inner("(x+y)^30/(y+z)^30", "(x+y)/(y+z)")


# -- twisted cube identities -------------------------------------------------------


def _cube_values(expr: str, us, vs, ws):
    f = parse(expr, TRI)
    return {
        (i, j, k): f.eval_q((Fraction(us[i - 1]), Fraction(vs[j - 1]), Fraction(ws[k - 1])))
        for i in (1, 2)
        for j in (1, 2)
        for k in (1, 2)
    }


def test_identity_one_on_twisted_cube():
    t = _cube_values("(x+y)/(y+z)", (1, 2), (1, 3), (2, 5))
    assert t[2, 1, 1] / t[1, 1, 1] == t[2, 1, 2] / t[1, 1, 2]


def test_identity_one_trivial_on_degenerate_cube():
    t = _cube_values("(x+y)/(y+z)", (4, 4), (1, 3), (2, 5))
    assert t[2, 1, 1] / t[1, 1, 1] == 1
    assert t[2, 1, 2] / t[1, 1, 2] == 1


def test_identity_one_fails_for_additive():
    t = _cube_values("x+y+z", (1, 2), (1, 3), (2, 5))
    assert t[2, 1, 1] / t[1, 1, 1] != t[2, 1, 2] / t[1, 1, 2]


def test_cube_identities_hold_for_twisted_forms():
    assert all(cube_identities(parse("(x+y)/(y+z)", TRI), trials=30, seed=0))
    rng = random.Random(41)
    for _ in range(3):
        s = synth.make_twisted_form(rng)
        assert all(cube_identities(s, trials=10, seed=0))


def test_verify_twisted_identities_for_fitted_parts():
    P = parse("(x+y)/(y+z)", TRI)
    fit = fit_twisted(P)
    assert verify_twisted_identities(fit.r1, fit.r2, fit.r3, trials=25, seed=0)


# -- full trivariate pipeline -------------------------------------------------------


def test_classify_twisted_identity():
    rep = classify_trivariate(parse("(x+y)/(y+z)", TRI))
    assert rep.verdict == "Twisted"
    assert rep.fitted["r1"] == parse("x", TRI)
    assert rep.diagnostics["twisted_cube_identities"] is True


def test_classify_field_cube():
    rep = classify_trivariate(parse("x*(y+z)^3", TRI))
    assert rep.verdict == "Field"
    assert rep.pivot == 1 and rep.exponent == 3


def test_classify_degenerate():
    rep = classify_trivariate(parse("x+y", TRI))
    assert rep.verdict == "Degenerate"


def _classify(f):
    return fit_bivariate(f) if f.arity == 2 else classify_trivariate(f)


def test_a_certified_verdict_bounds_the_rank_by_n_plus_1():
    # the rank corpora, plus two seeded instances of every canonical form;
    # the exact oracle's cost grows fast with degree, the twisted form's most
    caps = {synth.make_twisted: 1}
    makers = (
        synth.make_additive,
        synth.make_multiplicative,
        lambda rng: synth.make_field(rng)[0],
        synth.make_twisted,
        synth.make_bivariate_additive,
        synth.make_bivariate_multiplicative,
    )
    fs = [parse(e, BI) for e in synth.RANK_CORPUS_BI]
    fs += [parse(e, TRI) for e in synth.RANK_CORPUS_TRI]
    rng = random.Random(20261)
    for make in makers:
        cap = caps.get(make, 3)
        drawn = [f for f in (make(rng) for _ in range(60)) if f.total_degree() <= cap]
        assert len(drawn) >= 2
        fs += drawn[:2]
    verdicts = set()
    for f in fs:
        rep = _classify(f)
        if rep.certificate is None:
            continue
        verdicts.add((f.arity, rep.verdict))
        dm = doubling_map(f)
        ceiled = generic_rank(dm, ceiling=f.arity + 1).rank
        assert ceiled == generic_rank(dm).rank == symbolic_rank(dm) == f.arity + 1
    assert verdicts == {
        (2, "GroupAdditive"),
        (2, "GroupMultiplicative"),
        (3, "GroupAdditive"),
        (3, "GroupMultiplicative"),
        (3, "Field"),
        (3, "Twisted"),
    }


def test_classify_verdict_agrees_with_oracle_dimension():
    f = parse("x + y + z + x*y*z", TRI)
    dim = symbolic_rank(doubling_map(f))
    rep = classify_trivariate(f)
    if dim == 6:
        assert rep.verdict == "NoConstraint"
    else:
        assert rep.verdict in {
            "GroupAdditive",
            "GroupMultiplicative",
            "Field",
            "Twisted",
            "Unresolved",
        }


def test_classify_no_constraint_has_dimension_diagnostic():
    rep = classify_trivariate(parse("x + y + z + x^2*y^2*z^2", TRI))
    assert rep.verdict == "NoConstraint"
    assert rep.diagnostics["constraint"] is False


def test_classify_positive_verdicts_imply_verified_certificates():
    for expr, want in synth.HANDWRITTEN_2DEC:
        rep = classify_trivariate(parse(expr, TRI))
        assert rep.verdict == want
        if want in {"GroupAdditive", "GroupMultiplicative", "Field", "Twisted"}:
            assert rep.certificate is not None and rep.certificate.verified
            assert compose_numerator(
                rep.certificate.annihilator, [parse(expr, TRI), rep.fitted["s"]]
            ).is_zero


def test_unresolved_always_names_a_failed_step():
    rep = classify_trivariate(parse("((x^2+1)*(y^2+1)*(z^2+1))^2", TRI))
    assert rep.verdict == "Unresolved"
    assert any(v is False for v in rep.diagnostics.values())
    assert rep.diagnostics.get("group_multiplicative_non-splitting-factor") is False


def test_field_with_non_splitting_pivot_is_unresolved():
    rep = classify_trivariate(parse("(x^2+1)*(y+z)^2", TRI))
    assert rep.verdict == "Unresolved"
    failed = [k for k, v in rep.diagnostics.items() if k.startswith("field") and v is False]
    assert failed


def test_mobius_closure_of_positive_verdicts():
    cases = (
        ("(x+y+z)^2", "GroupAdditive"),
        ("x*y*z", "GroupMultiplicative"),
        ("x*(y+z)^2", "Field"),
        ("(x+y)/(y+z)", "Twisted"),
    )
    for expr, want in cases:
        P = parse(expr, TRI)
        for _, (a, b, c, d) in synth.MOBIUS_SCHEDULE:
            num = P * a + b
            den = P * c + d
            if den.is_zero:
                continue
            Q = num / den
            if Q.is_constant:
                continue
            rep = classify_trivariate(Q)
            assert rep.verdict == want, (expr, (a, b, c, d), rep.verdict)


def test_group_additive_and_twisted_never_both_certify():
    rng = random.Random(43)
    pool = [synth.make_additive(rng) for _ in range(3)]
    pool += [synth.make_twisted(rng) for _ in range(3)]
    pool += [parse(e, TRI) for e, _ in synth.HANDWRITTEN_2DEC]
    for P in pool:
        g = fit_group(P)
        t = fit_twisted(P)
        assert not (g is not None and g.verdict == "GroupAdditive" and t is not None)


def test_synthetic_recovery_with_cross_certificates():
    rng = random.Random(47)
    for maker, want in (
        (synth.make_additive, "GroupAdditive"),
        (synth.make_multiplicative, "GroupMultiplicative"),
        (synth.make_twisted, "Twisted"),
    ):
        for _ in range(3):
            P = maker(rng)
            rep = classify_trivariate(P)
            assert rep.verdict == want
            assert verify_certificate(rep.certificate, P, rep.fitted["s"])
    for _ in range(3):
        P, n = synth.make_field(rng)
        rep = classify_trivariate(P)
        assert rep.verdict == "Field" and rep.exponent == n


def test_fitted_s_is_dependent_with_generating_s():
    rng = random.Random(53)
    r1 = synth.splitting_part(rng, 0, max_deg=2)
    r2 = synth.splitting_part(rng, 1, max_deg=2)
    r3 = synth.splitting_part(rng, 2, max_deg=2)
    s0 = r1 + r2 + r3
    P = synth.apply_mobius(s0, synth.MOBIUS_SCHEDULE[4][1])
    rep = classify_trivariate(P)
    assert rep.verdict == "GroupAdditive"
    cross = dependence_certificate(rep.fitted["s"], s0, dmax=4)
    assert cross is not None and cross.verified


# -- experimental polynomial-composition probe ---------------------------------------


def test_probe_recovers_outer_polynomial():
    P = parse("(x+y+z)^3 - 2*(x+y+z) + 5", TRI)
    s = parse("x+y+z", TRI)
    u = fit_polynomial_composition(P, s)
    assert u is not None
    assert u.terms == {
        (3,): Fraction(1),
        (1,): Fraction(-2),
        (0,): Fraction(5),
    }


def test_probe_returns_none_without_composition():
    P = parse("x^2*y^2 + x*y^3", BI)
    assert fit_polynomial_composition(P, parse("x*y", BI)) is None


def test_probe_handles_rational_inner_function():
    P = parse("((x+y)/(y+z))^2", TRI)
    s = parse("(x+y)/(y+z)", TRI)
    u = fit_polynomial_composition(P, s)
    assert u is not None and u.terms == {(2,): Fraction(1)}
