"""Tests for canonical-form fitting, certificates, and the trivariate pipeline."""

from __future__ import annotations

import functools
import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest

import synth
from synth import partial_ratio, ref_subs
from ratforms import classify, cli, oracle, poly, ratfun
from ratforms.classify import (
    TEMPLATES,
    DependenceCertificate,
    FormReport,
    classify_trivariate,
    cube_identities,
    dependence_certificate,
    fit_bivariate,
    fit_field,
    fit_group,
    fit_twisted,
    verify_certificate,
    verify_twisted_identities,
)
from ratforms.classify import (
    _coprime_fold,
    _decomposed_detail,
    _Fn,
    _gate_ratio_indep,
    _gate_ratio_separable,
    _probe,
    _ratios,
    _twisted_line,
    _twisted_logpartial_mod,
    _twisted_parts,
    _twisted_recover,
)
from ratforms.oracle import symbolic_rank
from ratforms.dimension import doubling_map, image_dimension, is_nondegenerate
from ratforms.modular import DEFAULT_PRIMES, primes_below, rng_for
from ratforms.poly import Poly, grlex_key
from ratforms.ratfun import (
    DegenerateSpecializationError,
    PoleError,
    RatFun,
    _raw_sum,
    compose_numerator,
    parse,
)

BI = ("x", "y")
TRI = ("x", "y", "z")
GOLDEN = Path(__file__).with_name("golden") / "reports_seed0.json"


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


def _certificate_cases() -> list[tuple[RatFun, RatFun, Poly]]:
    """(P, s, certificate) of every positive golden report and of 20
    synthetic inputs per canonical form."""
    pq = ("p", "q")
    cases = {
        (r["function"], tuple(r["vars"])): (r["fitted"]["s"], r["certificate"]["annihilator"])
        for run in json.loads(GOLDEN.read_text(encoding="utf-8"))
        for r in run["reports"] if r["certificate"]
    }
    cases = [(parse(f, names), parse(s, names), parse(ann, pq).num) for (f, names), (s, ann) in cases.items()]
    assert len(cases) >= 10
    rng = random.Random(3601)
    makers = (
        synth.make_additive,
        synth.make_multiplicative,
        lambda rng: synth.make_field(rng)[0],
        synth.make_twisted,
        synth.make_bivariate_additive,
        synth.make_bivariate_multiplicative,
    )
    for make in makers:
        for _ in range(20):
            P = make(rng)
            rep = _classify(P)
            assert rep.certificate is not None
            cases.append((P, rep.fitted["s"], rep.certificate.annihilator))
    return cases


def test_a_certificate_has_degree_deg_P_over_deg_s_in_q(monkeypatch):
    # the degree of a composition is multiplicative, so the certificate of
    # P = q(s) has degree deg P / deg s in q: each composition_relation call
    # reads that many nodes plus one and makes one proportionality test;
    # with no degree cap it finds every certificate of _certificate_cases
    cases = _certificate_cases()
    reads, tests = [], []
    nodes, proportional = oracle._line_nodes, oracle._proportional

    def spy_nodes(s, P, count, rng):
        reads.append(count)
        return nodes(s, P, count, rng)

    def spy_test(A, P, s):
        tests.append(proportional(A, P, s))
        return tests[-1]

    monkeypatch.setattr(oracle, "_line_nodes", spy_nodes)
    monkeypatch.setattr(oracle, "_proportional", spy_test)
    for P, s, ann in cases:
        reads.clear()
        tests.clear()
        assert ann.degree_in(1) * s.total_degree() == P.total_degree()
        assert classify.composition_relation(P, s) == ann
        assert (reads, tests) == ([ann.degree_in(1) + 1], [True])


def test_a_certificate_needs_no_modular_arithmetic(monkeypatch):
    # the search interpolates over the integers on one exact line: with the
    # lift and every mod-p evaluation of a polynomial disabled it still
    # returns each certificate
    cases = _certificate_cases()

    def disabled(*args, **kwargs):
        raise AssertionError("a modular step ran")

    monkeypatch.setattr(oracle, "_lift_and_verify", disabled)
    for name in ("eval_mod", "eval_grad_mod", "_compiled"):
        monkeypatch.setattr(Poly, name, disabled)
    for P, s, ann in cases:
        cert = dependence_certificate(P, s)
        assert cert is not None and cert.annihilator == ann


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


def test_verify_certificate_is_blind_to_the_annihilator_content():
    # a content with a sampling prime in its denominator, or in its
    # numerator, changes nothing: the check expands over the rationals
    P = parse("x*y + 1", BI)
    s = parse("x*y", BI)
    ann = dependence_certificate(P, s).annihilator
    p0 = DEFAULT_PRIMES[0]
    for k in (Fraction(1, p0), p0, -1):
        assert verify_certificate(DependenceCertificate(ann.scale(k), 1, True), P, s)
        bad = ann.scale(k) + Poly.const(1, 2)
        assert not verify_certificate(DependenceCertificate(bad, 1, True), P, s)


def test_verify_certificate_rejects_wrong_pair():
    P = parse("(x+y)^2", BI)
    s = parse("x+y", BI)
    cert = dependence_certificate(P, s, dmax=2)
    assert not verify_certificate(cert, P, parse("x*y", BI))


def test_certificate_of_an_s_with_no_image_modulo_a_prime():
    # s has no image modulo 11, which divides its coefficient denominator 44;
    # the search and the check read s exactly, so they need no prime
    P = parse("x^2 + y^2", BI)
    s = parse("1/44*x^2 + 1/44*y^2", BI)
    cert = dependence_certificate(P, s)
    assert cert is not None and cert.verified
    assert cert.annihilator.terms == {(1, 0): Fraction(1), (0, 1): Fraction(-44)}
    assert verify_certificate(cert, P, s)
    bad = DependenceCertificate(cert.annihilator + Poly.const(1, 2), 1, True)
    assert not verify_certificate(bad, P, s)


def test_verify_certificate_rejects_mismatched_arity():
    cert = dependence_certificate(parse("(x+y)^2", BI), parse("x+y", BI), dmax=2)
    # s in more variables than P, and in fewer
    for P, s in ((parse("(x+y)^2", BI), parse("x+y+z", TRI)),
                 (parse("(x+y+z)^2", TRI), parse("x+y", BI))):
        with pytest.raises(ValueError):
            dependence_certificate(P, s, dmax=2)
        with pytest.raises(ValueError):
            verify_certificate(cert, P, s)


def _perturbed(ann: Poly) -> Poly:
    """ann with 1 added to its coefficient of least grlex order."""
    terms = dict(ann.terms)
    key = min(terms, key=grlex_key)
    terms[key] += 1
    return Poly({k: v for k, v in terms.items() if v}, 2)


@functools.cache
def _positive_reports() -> tuple[object, list[dict], list[dict]]:
    """(bench/corpus.py, the positive golden reports, the positive reports of
    the seed-3 inputs of the benchmark's three workloads)."""
    with pytest.MonkeyPatch.context() as mp:
        corpus = synth.bench_corpus(mp)
    golden = [r for run in json.loads(GOLDEN.read_text(encoding="utf-8"))
              for r in run["reports"] if r["certificate"]]
    primes = primes_below(1 << 31, 2)
    workloads = []
    for workload in ("tri-corpus", "bi-corpus", "cert-ladder"):
        for item in corpus.build(workload, 3):
            rep, _ = cli.analyze_function(item.expr, item.names, primes, 16, 0, None, False)
            if rep["certificate"] is not None:
                workloads.append(rep)
    assert len(golden) == 40 and len(workloads) > 400
    return corpus, golden, workloads


def _reader(corpus):
    """A reader of printed functions, as bench/run.py reads them."""
    def read(text, names):
        num, den = corpus.read_ratfun(text, names)
        return RatFun.raw(Poly(num, len(names)), Poly(den, len(names)))
    return read


def test_the_certificate_check_reads_no_prime(monkeypatch):
    # certificates read back from their printed strings: every golden one,
    # and the seed-3 ones of the benchmark's three workloads; with every
    # mod-p reading of a polynomial disabled the check still accepts each
    # one and rejects it with a perturbed coefficient
    corpus, golden, workloads = _positive_reports()
    read = _reader(corpus)

    def case(rep):
        names = tuple(rep["vars"])
        ann = read(rep["certificate"]["annihilator"], ("p", "q")).num
        return parse(rep["function"], names), read(rep["fitted"]["s"], names), ann

    golden, workloads = [case(rep) for rep in golden], [case(rep) for rep in workloads]

    def disabled(*args, **kwargs):
        raise AssertionError("a polynomial was read modulo a prime")

    monkeypatch.setattr(Poly, "_compiled", disabled)
    for P, s, ann in golden:
        assert verify_certificate(DependenceCertificate(ann, ann.total_degree(), True), P, s)
        bad = _perturbed(ann)
        assert not verify_certificate(DependenceCertificate(bad, bad.total_degree(), True), P, s)
    for P, s, ann in workloads:
        for a in (ann, _perturbed(ann)):
            got = verify_certificate(DependenceCertificate(a, a.total_degree(), True), P, s)
            assert got == compose_numerator(a, [P, s]).is_zero == (a is ann)


def test_every_positive_report_states_its_input_as_q_of_s():
    # P = q(s), rebuilt exactly from the printed function, s and q of every
    # positive golden report and every positive seed-3 workload report:
    # with q = b/a of degree m, D_s^m b(s) / (D_s^m a(s)) is P
    corpus, golden, workloads = _positive_reports()
    read = _reader(corpus)
    for rep in golden + workloads:
        names = tuple(rep["vars"])
        P, s = parse(rep["function"], names), read(rep["fitted"]["s"], names)
        q = read(rep["fitted"]["q"], ("t",))
        m = max(q.num.total_degree(), q.den.total_degree())
        b, a = (compose_numerator(h, [s]) * s.den ** (m - h.total_degree()) for h in (q.num, q.den))
        assert RatFun.raw(b, a) == P, rep["function"]


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
    P = parse("x + y + x^2*y^3", BI)
    rep = fit_bivariate(P)
    assert rep.verdict == "NoConstraint"
    assert rep.certificate is None and rep.fitted is None
    assert rep.diagnostics["group_sep_xy"] is False
    # the same parameter order as classify_trivariate: ..., samples, seed
    assert fit_bivariate(P, None, DEFAULT_PRIMES, 16, 0) == rep


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


def _2decomposed(P, seed=0):
    return _decomposed_detail(_Fn(P, seed))


def test_2decomposed_field_form():
    ok, detail = _2decomposed(parse("x*(y+z)^3", TRI))
    assert ok
    assert detail == {"2dec_xy": True, "2dec_xz": True, "2dec_yz": True}


def test_2decomposed_twisted_form():
    ok, _ = _2decomposed(parse("(x+y)/(y+z)", TRI))
    assert ok


def test_2decomposed_failure_pinpoints_pair():
    # P_x/P_z = (1 + 2xz)/(y + x^2) couples x and z through the 2xz term,
    # so the (x,z) split is the one that fails; P_x/P_y = (1 + 2xz)/z does
    # not involve y at all and splits trivially.
    ok, detail = _2decomposed(parse("x + y*z + x^2*z", TRI))
    assert not ok
    assert detail["2dec_xz"] is False
    assert detail["2dec_xy"] is True


def _golden_trivariate():
    runs = json.loads(GOLDEN.read_text(encoding="utf-8"))
    exprs = {rep["function"] for run in runs for rep in run["reports"] if rep["vars"] == list(TRI)}
    return sorted(e for e in exprs if is_nondegenerate(parse(e, TRI).reduce()))


@pytest.mark.parametrize(
    "expr",
    [e for e, _ in synth.HANDWRITTEN_2DEC]
    + _golden_trivariate()
    # a large input: 65 terms
    + ["((x^2+1)*(y^2+1)*(z^2+1))^3"],
)
def test_sampled_2decomposition_matches_the_exact_identity(expr):
    P = parse(expr, TRI).reduce()
    want = synth.exact_2decomposed(P)
    for seed in (0, 1, 2):
        assert _2decomposed(P, seed) == want


# -- group fitter -----------------------------------------------------------------


def test_fit_group_additive():
    rep = fit_group(_Fn(parse("(x+y+z)^2", TRI)))
    assert rep is not None
    assert rep.verdict == "GroupAdditive"
    assert rep.fitted["s"] == parse("x+y+z", TRI)


def test_fit_group_multiplicative():
    rep = fit_group(_Fn(parse("x*y*z", TRI)))
    assert rep is not None
    assert rep.verdict == "GroupMultiplicative"
    assert rep.fitted["s"] == parse("x*y*z", TRI)
    assert rep.certificate.annihilator.terms == {
        (1, 0): Fraction(1),
        (0, 1): Fraction(-1),
    }


def _spy_recovery(monkeypatch):
    """A log of the exact line ratios (a, b, point, free) that a fit reads,
    with "gcd" for each ratfun.poly_gcd call, "hermite" for each
    hermite_antiderivative call, "coeffs" for each Poly.from_coeffs call and
    "cert" for each dependence_certificate call, in order."""
    events = []
    ratio, gcd, hermite = _Fn.specialized_ratio, ratfun.poly_gcd, classify.hermite_antiderivative
    coeffs, cert = Poly.from_coeffs, classify.dependence_certificate

    def spy_ratio(self, a, b, point, free):
        events.append((a, b, tuple(point), free))
        return ratio(self, a, b, point, free)

    monkeypatch.setattr(_Fn, "specialized_ratio", spy_ratio)
    monkeypatch.setattr(ratfun, "poly_gcd", lambda *a: events.append("gcd") or gcd(*a))
    monkeypatch.setattr(classify, "hermite_antiderivative", lambda *a: events.append("hermite") or hermite(*a))
    monkeypatch.setattr(Poly, "from_coeffs", classmethod(lambda cls, *a: events.append("coeffs") or coeffs(*a)))
    monkeypatch.setattr(classify, "dependence_certificate", lambda *a, **k: events.append("cert") or cert(*a, **k))
    return events


@pytest.mark.parametrize(
    "expr, names, verdict",
    [
        ("(x + y^2 + z)^3 + 1", TRI, "GroupAdditive"),
        ("(x*y*z + 1)^2", TRI, "GroupMultiplicative"),
        ("(x + y^2)^3 + 1", BI, "GroupAdditive"),
    ],
)
def test_a_group_fit_reads_every_part_through_one_point(monkeypatch, expr, names, verdict):
    # one split reads f_x/f_y on the x- and y-lines and f_z/f_y on the
    # z-line through one point, each part at one scale, so nothing divides
    # one split's part by another's before the parts are integrated; the
    # parts reach the calculus as integer lists, and the template builds s
    # from the integrated parts with no gcd
    events = _spy_recovery(monkeypatch)
    rep = fit_group(_Fn(parse(expr, names)))
    assert rep is not None and rep.verdict == verdict
    first = events.index("hermite")
    lines = [e for e in events[:first] if isinstance(e, tuple)]
    assert [free for *_, free in lines] == list(range(len(names)))
    assert len({point for _, _, point, _ in lines}) == 1
    assert "gcd" not in events[events.index(lines[-1]):first]
    assert "coeffs" not in events[events.index(lines[0]):first]
    assert "gcd" not in events[first:events.index("cert")]


def test_a_field_pivot_reads_its_shift_and_ratio_through_one_point(monkeypatch):
    # for the pivot x of x*(y + z)^3, P_x/P_y on the y-line gives the shift
    # and on the x-line through the same point the pivot ratio
    events = _spy_recovery(monkeypatch)
    rep = fit_field(_Fn(parse("x*(y + z)^3", TRI)))
    assert rep is not None and (rep.pivot, rep.exponent) == (1, 3)
    lines = [e for e in events if isinstance(e, tuple) and e[:2] == (0, 1)]
    assert [free for *_, free in lines] == [1, 0]
    assert lines[0][2] == lines[1][2]


def _random_part(rng, var, arity):
    """A random canonical part in x_var: a constant (0 among them), or a
    quotient of polynomials with rational coefficients, maybe shifted by a
    constant and scaled by a negative content."""
    x = RatFun.variable(var, arity)
    if rng.random() < 0.2:
        return RatFun.const(Fraction(rng.randint(-3, 3), rng.randint(1, 4)), arity)

    def poly():
        while True:
            p = sum((x**i * Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for i in range(rng.randint(1, 4))),
                    RatFun.const(0, arity))
            if not p.is_zero:
                return p

    f = poly() / poly()
    if rng.random() < 0.4:
        f = f + Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return f.scale(Fraction(-rng.randint(1, 7), rng.randint(1, 5))) if rng.random() < 0.5 else f


def _twisted_draw(rng, k):
    """Parts for the twisted template: random ones, constant r1 and r3 (equal
    on every other such draw), constant r2 = -r3 (so r2 + r3 = 0), or one
    constant among r1 and r3."""
    r = [_random_part(rng, v, 3) for v in range(3)]
    c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    if k % 4 == 1:
        r[0], r[2] = RatFun.const(c, 3), RatFun.const(c if k % 8 == 1 else c + rng.randint(1, 3), 3)
    elif k % 4 == 2:
        r[1], r[2] = RatFun.const(c, 3), RatFun.const(-c, 3)
        if k % 8 == 2:
            r[0] = r[2]
    elif k % 4 == 3:
        r[k % 8 // 4 * 2] = RatFun.const(c, 3)
    return r


def _or_zero_division(build):
    try:
        return build()
    except ZeroDivisionError:
        return None


def test_gcd_free_templates_equal_the_gcd_reduced_functions(monkeypatch):
    # parts in distinct variables are coprime, so the group, field and
    # twisted s, the field's inner sum and its shifts need no gcd and equal
    # the reduced RatFun arithmetic, numerator and denominator alike; the
    # twisted s is 1 for equal constants r1 and r3, and r2 + r3 = 0 raises
    rng = random.Random(43)
    real, calls = ratfun.poly_gcd, []
    cases, twisted = 0, Counter()
    for k in range(240):
        n = 2 + k % 2
        r = [_random_part(rng, v, n) for v in range(n)]
        i, e, beta = rng.randint(1, 3), rng.randint(1, 3), Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        r3 = [_random_part(rng, v, 3) for v in range(3)]
        rj, rl = r3[: i - 1] + r3[i:]
        t = _twisted_draw(rng, k)
        wants = [sum(r[1:], r[0]), prod(r[1:], start=r[0]), r3[i - 1] * (rj + rl) ** e, rj + rl, rj + beta]
        want_t = _or_zero_division(lambda: (t[0] + t[1]) / (t[1] + t[2]))
        monkeypatch.setattr(ratfun, "poly_gcd", lambda a, b: calls.append((a, b)) or real(a, b))
        gots = [TEMPLATES["GroupAdditive"](r, None, None), TEMPLATES["GroupMultiplicative"](r, None, None),
                TEMPLATES["Field"](r3, i, e), _coprime_fold(_raw_sum, (rj, rl)),
                _coprime_fold(_raw_sum, (rj, RatFun.const(beta, 3)))]
        got_t = _or_zero_division(lambda: TEMPLATES["Twisted"](t, None, None))
        monkeypatch.undo()
        assert not calls
        assert (got_t is None) == (want_t is None), t
        if want_t is not None:
            gots.append(got_t)
            wants.append(want_t)
            twisted["constant r1, r3" if t[0].is_constant and t[2].is_constant else "other"] += 1
            twisted["s = 1"] += want_t == RatFun.const(1, 3)
        else:
            twisted["r2 + r3 = 0"] += 1
        for got, want in zip(gots, wants):
            assert got.canonical and (got.num, got.den) == (want.num, want.den), (r, r3, i, e, beta, t)
            cases += not want.is_constant
    assert cases > 1000
    assert twisted["r2 + r3 = 0"] >= 50 and twisted["s = 1"] >= 25 and twisted["constant r1, r3"] >= 50
    # constant parts that cancel give the canonical zero
    zero = TEMPLATES["GroupAdditive"]([RatFun.const(2, 2), RatFun.const(-2, 2)], None, None)
    assert (zero.num, zero.den) == (Poly.zero(2), Poly.const(1, 2))


def test_an_analysis_reduces_only_at_the_parse(monkeypatch):
    # the parse reduces the input once; every fit then builds its functions
    # from coprime parts (the field pivot on integer lists, the templates by
    # Gauss's lemma, Hermite's reduction from its reduced g), so classifying
    # the parsed input calls poly_gcd not once, whatever the verdict
    inputs = [("(x*(y+z)^3 + 1)/(x*(y+z)^3 - 1)", TRI, "Field"),
              ("(2*(x+y)/(y+z) + 1)/((x+y)/(y+z) - 1)", TRI, "Twisted"),
              ("(x^3+1)/(x-2)^2 + y/(y+1)^4", BI, "GroupAdditive")]
    inputs += [(it.expr, TRI, None) for it in synth.bench_corpus(monkeypatch).build("tri-corpus", 3)]
    real, calls, verdicts = ratfun.poly_gcd, [], Counter()
    for expr, names, verdict in inputs:
        P = parse(expr, names)
        with monkeypatch.context() as m:
            m.setattr(ratfun, "poly_gcd", lambda a, b: calls.append(expr) or real(a, b))
            rep = (fit_bivariate if len(names) == 2 else classify_trivariate)(P)
        assert verdict in (None, rep.verdict), expr
        verdicts[rep.verdict] += 1
    assert not calls
    assert {"GroupAdditive", "GroupMultiplicative", "Field", "Twisted", "NoConstraint"} <= set(verdicts)


def test_fit_group_rejects_field_form():
    assert fit_group(_Fn(parse("x*(y+z)^3", TRI))) is None


def test_normalized_certificates_have_small_coefficients():
    # a scale of s is raised to the degree of q in a(q)*p - b(q); the
    # normalized s of these forms keeps every certificate coefficient below
    # 2^15, where the fitted scales gave fractions far above it
    rng = random.Random(2)
    verdicts = Counter()
    for k in range(16):
        fn = synth.make_field(rng)[0] if k % 2 else synth.make_additive(rng)
        rep = classify_trivariate(fn)
        verdicts[rep.verdict] += 1
        ann = rep.certificate.annihilator
        assert ann.content == 1 and max(map(abs, ann.ints.values())) < 2**15, fn.to_str(TRI)
    assert verdicts == {"Field": 8, "GroupAdditive": 8}


# -- field fitter -----------------------------------------------------------------


def test_fit_field_square():
    # r2 carries the shift of the inner sum, so the parts rebuild s
    for inner, r2 in (("y+z", "y"), ("y+z+1", "y+1")):
        expr = f"x*({inner})^2"
        rep = fit_field(_Fn(parse(expr, TRI)))
        assert rep is not None
        assert rep.pivot == 1 and rep.exponent == 2
        f = rep.fitted
        assert f["r1"] == parse("x", TRI)
        assert f["r2"] == parse(r2, TRI)
        assert f["r3"] == parse("z", TRI)
        assert f["r2"] + f["r3"] == parse(inner, TRI)
        assert f["s"] == parse(expr, TRI)


def test_only_a_field_fit_carries_pivot_and_exponent():
    reps = {
        "GroupAdditive": fit_group(_Fn(parse("(x+y+z)^2", TRI))),
        "GroupMultiplicative": fit_group(_Fn(parse("x*y", BI))),
        "Field": fit_field(_Fn(parse("x*(y+z)^2", TRI))),
        "Twisted": fit_twisted(_Fn(parse("(x+y)/(y+z)", TRI))),
    }
    for verdict, rep in reps.items():
        assert isinstance(rep, FormReport) and rep.verdict == verdict
        parts = [rep.fitted[k] for k in ("r1", "r2", "r3") if k in rep.fitted]
        assert TEMPLATES[verdict](parts, rep.pivot, rep.exponent) == rep.fitted["s"]
        if verdict == "Field":
            assert (rep.pivot, rep.exponent) == (1, 2)
        else:
            assert rep.pivot is None and rep.exponent is None
    assert "r3" not in reps["GroupMultiplicative"].fitted


def test_fit_field_high_exponent():
    rep = fit_field(_Fn(parse("x^2*(y^3+z)^5", TRI)))
    assert rep is not None
    assert rep.pivot == 1 and rep.exponent == 5
    assert rep.fitted["r1"] == parse("x^2", TRI)
    assert rep.fitted["r2"] == parse("y^3", TRI)
    assert rep.fitted["r3"] == parse("z", TRI)
    assert rep.certificate.annihilator.terms == {
        (1, 0): Fraction(1),
        (0, 1): Fraction(-1),
    }


def test_fit_field_pivot_part_with_a_common_exponent():
    # K = r1'/(3*r1) has residues 2/3 and -4/3: n = 3, and r1 is the square
    # of the integrated g = (x-1)/(x+1)^2
    rep = fit_field(_Fn(parse("(x-1)^2/(x+1)^4*(y^3+z)^3", TRI)))
    assert rep is not None
    assert rep.pivot == 1 and rep.exponent == 3
    assert rep.fitted["r1"] == parse("(x-1)^2/(x+1)^4", TRI)


def test_fit_field_rejects_twisted():
    assert fit_field(_Fn(parse("(x+y)/(y+z)", TRI))) is None


@pytest.mark.parametrize(
    "expr, n", [("x*(y^2+z+5)^3", 3), ("(x+1)/(x-2)*(1/(y+1)+z-2)^2", 2)]
)
def test_field_shift_puts_the_constant_back_inside_s(expr, n):
    # the inner sum is integrated only up to a constant; the shift step
    # recovers it (the +5, the -2) on one exact y-line
    P = parse(expr, TRI)
    rep = classify_trivariate(P)
    assert rep.verdict == "Field" and rep.pivot == 1 and rep.exponent == n
    assert rep.fitted["r3"] == parse("z", TRI)
    assert rep.fitted["s"] == P


def test_field_shift_redraws_a_line_through_a_critical_point_of_r1(monkeypatch):
    # at seed 111 the shift step first pins x = 5, where r1' = 2*x - 10
    # vanishes, so M = 0 on that line and says nothing about the shift
    events = _spy_recovery(monkeypatch)
    rep = classify_trivariate(parse("x*(x-10)*(y+z)^2", TRI), seed=111)
    assert rep.verdict == "Field" and rep.pivot == 1 and rep.exponent == 2
    shift_lines = [e[2] for e in events if e not in ("gcd", "hermite") and e[:2] == (0, 1) and e[3] == 1]
    assert shift_lines[0][0] == 5 and len(shift_lines) >= 2


def test_field_pivot_without_a_constant_shift_is_rejected():
    rep = classify_trivariate(parse("x*(y+z)^2 + x", TRI))
    assert rep.verdict == "Unresolved"
    assert rep.diagnostics["field_pivot_x_shift"] is False


@pytest.mark.parametrize("p", [DEFAULT_PRIMES[0], 13])
@pytest.mark.parametrize("seed", [0, 5])
def test_a_field_pivot_whose_k_varies_stops_at_the_exact_shift_test(p, seed):
    # x^2*(y+z)^3 + x passes the pivot x's gates; its K is not constant on
    # the exact y-line, so the shift step rejects the pivot at any gate prime
    diag = {}
    assert fit_field(_Fn(parse("x^2*(y+z)^3 + x", TRI), seed=seed, p=p), None, diag) is None
    assert diag["field_pivot_x_shift"] is False


@pytest.mark.parametrize(
    "a, b, vals",
    [
        (0, 1, {1: Fraction(3, 2), 2: Fraction(-5)}),  # x = x_a is free
        (2, 0, {1: Fraction(7), 2: Fraction(2, 3)}),  # x = x_b is free
        (0, 1, {0: Fraction(4), 1: Fraction(-1, 3)}),  # z is free
    ],
)
def test_specialized_ratio_matches_six_substitutions(a, b, vals):
    fn = _Fn(parse("(x^2*y + z^3 + 1)/(x*y*z + 2) + x*z^2", TRI))
    (free,) = set(range(3)) - set(vals)

    def sub(poly):
        return Poly(ref_subs(poly.terms, vals), 3)

    n, d = sub(fn.num), sub(fn.den)
    (na, da), (nb, db) = fn.partials(a), fn.partials(b)
    want = RatFun(sub(na) * d - n * sub(da), sub(nb) * d - n * sub(db))
    got = fn.specialized_ratio(a, b, [vals.get(t, 0) for t in range(3)], free).ratfun(free)
    assert (got.num, got.den) == (want.num, want.den)


@pytest.mark.parametrize(
    "expr, a, b, free",
    [
        ("(x^2*y + z^3 + 1)/(x*y*z + 2) + x*z^2", 0, 1, 0),  # free == a
        ("(x^2*y + z^3 + 1)/(x*y*z + 2) + x*z^2", 2, 0, 0),  # free == b
        ("x^3*y^2 - 7*x*z + y*z^4 + 11", 1, 2, 1),  # constant D
        ("(x^2*y^3 + z)/(x^2 + 3*x*z - 5)", 0, 1, 0),  # D free of the pinned y
        ("(y^2 + z)/(y*z + 1)", 0, 1, 1),  # f_a = 0: a zero numerator
        ("(x + y*z)^3/((x*y + z)^2 + 1)", 2, 1, 0),  # neither a nor b free
        ("((x+y+z+10000000000/7)^3 + 1)/((x+y+z+10000000000/7)^3 + 2)", 0, 1, 0),
        ("1/((x-2199023255579)*y*z + 1)", 1, 2, 2),
    ],
)
def test_specialized_ratio_matches_the_poly_level_reference(expr, a, b, free):
    f = parse(expr, TRI)
    rng = random.Random(31)
    # integer coordinates, and fractional ones whose denominators the jets'
    # slope rows must carry
    draws = (lambda: rng.randint(-9, 9), lambda: Fraction(2 * rng.randint(-4, 4) + 1, rng.choice((2, 4))))
    for draw in draws * 2:
        point = [draw() for _ in range(3)]
        want = synth.line_ratio(f, a, b, point, free)
        got = _Fn(f).specialized_ratio(a, b, point, free).ratfun(free)
        assert got.canonical and (got.num, got.den) == (want.num, want.den)


def test_sparse_line_ratios_stay_within_a_gcd_work_budget(monkeypatch):
    """On an x-line of x^65536*y the numerators g_x and g_y share the power
    x^65535.  It comes out before the dense gcd, whose digit loop would
    otherwise call _smod about 65536 times on numbers of about 65536 digits
    in base xi; a budget of 1000 calls ends that early."""
    smod, calls = poly._smod, []

    def budget(c, m):
        calls.append(m)
        if len(calls) > 1000:
            raise AssertionError("gcd work budget exhausted")
        return smod(c, m)

    monkeypatch.setattr(poly, "_smod", budget)
    f = parse("x^65536*y", BI)
    for free in (0, 1):
        want = synth.line_ratio(f, 0, 1, (3, 5), free)
        got = _Fn(f).specialized_ratio(0, 1, (3, 5), free).ratfun(free)
        assert (got.num, got.den) == (want.num, want.den)
    report, status = cli.analyze_function("x^65536*y*z + 1", TRI, DEFAULT_PRIMES, 16, 0, None, False)
    assert (report["verdict"], status) == ("group-multiplicative", 0)


def test_specialized_ratio_with_a_zero_other_numerator_degenerates():
    # f is free of y, so g_y = N_y D - N D_y is zero on every line
    f = parse("(x^2 + z)/(x*z + 2)", TRI)
    point = (4, 3, Fraction(-2, 3))
    with pytest.raises(DegenerateSpecializationError):
        synth.line_ratio(f, 0, 1, point, 0)
    with pytest.raises(DegenerateSpecializationError):
        _Fn(f).specialized_ratio(0, 1, point, 0)


@pytest.mark.parametrize(
    "expr, vals",
    [
        # x-line: N_yx is a list derivative, N_yz the pass's mixed partial
        ("(x^2*y + z^3 + 1)/(x*y*z + 2) + x*z^2*y^2", {1: Fraction(3, 2), 2: Fraction(-5)}),
        # y-line: both second partials are list derivatives
        ("(x^2*y + z^3 + 1)/(x*y*z + 2) + x*z^2*y^2", {0: Fraction(7), 2: Fraction(2, 3)}),
        # z-line: N_yx the mixed partial, N_yz a list derivative
        ("(x^2*y + z^3 + 1)/(x*y*z + 2) + x*z^2*y^2", {0: Fraction(4), 1: Fraction(-1, 3)}),
        # D has degree 0 in the pinned y, so its mixed partial is zero
        ("(x^2 + y^3 + 1)/(x^2 + 1 - z^2 + z)", {1: Fraction(-2), 2: Fraction(5, 3)}),
        ("(x^2 + y^3 + 1)/(x^2 + 1 - z^2 + z)", {0: Fraction(3), 1: Fraction(1, 2)}),
    ],
)
def test_twisted_g_on_a_line_matches_the_substituted_definition(expr, vals):
    f = parse(expr, TRI)
    N, D = f.num, f.den
    (free,) = set(range(3)) - set(vals)
    point = [vals.get(t, 0) for t in range(3)]

    def sub(poly):
        return Poly(ref_subs(poly.terms, vals), 3)

    # one term pass over each of N and D: the restriction, the three first
    # partials and the second partial in the two pinned variables
    jets = [h.line_jet(point, free, mixed=True) for h in (N, D)]
    for k, vs in enumerate(((), (0,), (1,), (2,), tuple(set(range(3)) - {free}))):
        for h, (scale, jet) in zip((N, D), jets):
            for v in vs:
                h = h.derivative(v)
            assert Poly.from_coeffs(jet[k], free, 3, scale) == sub(h)
    # g_i = N_i D - N D_i and delta = (g_x)_y g_z - g_x (g_z)_y, built on the
    # full polynomials and then restricted to the line; the lists carry the
    # product of the two jets' scales, and delta its square
    g = [N.derivative(i) * D - N * D.derivative(i) for i in range(3)]
    delta = g[0].derivative(1) * g[2] - g[0] * g[2].derivative(1)
    got_g, got_delta = _twisted_line(_Fn(f), point, free)
    scale = jets[0][0] * jets[1][0]
    assert [Poly.from_coeffs(gi, free, 3, scale) for gi in got_g] == [sub(gi) for gi in g]
    assert Poly.from_coeffs(got_delta, free, 3, scale**2) == sub(delta)


def test_twisted_recovery_restricts_each_partial_once(monkeypatch):
    # Every line the recovery reads takes one term pass over N and one over
    # D (Poly.line_jet with the mixed partial), and no partial of N or D is
    # differentiated as a multivariate polynomial: the second partial in
    # the two pinned variables comes from that pass, and one in the free
    # variable is the derivative of a list.  Restricting the cached second
    # partials as well reads N_y and N_yx or N_yz in two more passes per
    # line and differentiates N twice.
    derivs, passes = [], Counter()
    derivative, line_jet = Poly.derivative, Poly.line_jet

    def counted_derivative(self, i):
        if sum(any(e[v] for e in self.ints) for v in range(self.arity)) >= 2:
            derivs.append(i)
        return derivative(self, i)

    def counted_jet(self, point, i, mixed=False):
        assert mixed
        passes[(self.content, frozenset(self.ints.items()), tuple(point), i)] += 1
        return line_jet(self, point, i, mixed)

    # (x+y+z)^11 has delta = 0, so the gates turn it away; after them, run
    # the recovery on it directly: all eight attempts end on their y-line,
    # read in one pass over N and one over D = 1
    P = parse("(x+y+z)^11", TRI)
    fn, seen = _Fn(P), []
    for i in (0, 2):
        assert _probe(_twisted_logpartial_mod(fn, i, seen), fn.tries(), agree=2)
    assert seen == [False] * 4
    monkeypatch.setattr(Poly, "derivative", counted_derivative)
    monkeypatch.setattr(Poly, "line_jet", counted_jet)
    diag = {}
    assert _twisted_recover(fn, rng_for(0, "fit-twisted:t"), None, diag) is None
    assert diag == {} and derivs == []
    assert sorted(i for *_, i in passes) == [1] * 16 and set(passes.values()) == {1}

    # a twisted form, t/(t - 1) of (x^2 + y^3 + 1)/(y^3 + z^2 - z): one
    # y-line, two x-lines and two z-lines, each read once for N and for D
    passes.clear()
    fn = _Fn(parse("(x^2 + y^3 + 1)/(x^2 + 1 - z^2 + z)", TRI))
    parts = next(_twisted_parts(fn, rng_for(0, "fit-twisted:t")))
    assert derivs == []
    assert sorted(i for *_, i in passes) == [0] * 4 + [1] * 2 + [2] * 4 and set(passes.values()) == {1}
    assert [[v for v in range(3) if not r.independent_of(v)] for r in parts] == [[0], [1], [2]]


def test_twisted_parts_match_the_reference_recovery():
    # the list recovery and the Poly/RatFun reference (synth.twisted_parts)
    # give the same parts, draw by draw, on the golden twisted inputs and on
    # 50 synthetic twisted inputs
    golden = {report["function"] for run in json.loads(GOLDEN.read_text(encoding="utf-8"))
              for report in run["reports"] if report["verdict"] == "twisted"}
    rng = random.Random(3501)
    inputs = [parse(f, TRI) for f in sorted(golden)] + [synth.make_twisted(rng) for _ in range(50)]
    assert len(golden) >= 2
    for P in inputs:
        fn = _Fn(P.reduce())
        got, want = (list(itertools.islice(parts(fn, rng_for(0, "fit-twisted:t")), 2))
                     for parts in (_twisted_parts, synth.twisted_parts))
        assert got and got == want


@pytest.mark.parametrize("expr", ["(x+y+z)^11", "(x^2+1)*(y^2+1)*z", "y*(x+z)^2", "x^2*y*z"])
@pytest.mark.parametrize("p", [DEFAULT_PRIMES[0], 13])
def test_the_twisted_gates_turn_away_delta_zero(monkeypatch, expr, p):
    # P_x/P_z is free of y for each of these (group forms and a field form
    # with pivot y), so delta = 0 and both gate identities hold vacuously:
    # the x-gate fails on its two agreeing tries, four walks each (N and D
    # for the try, N_y and D_y for the gate), where skipping every try that
    # reads 0 spent all RETRIES of them
    def never(*args):
        raise AssertionError("the recovery ran on an input with delta = 0")

    walks = []
    eval_grad_mod = Poly.eval_grad_mod

    def counted(self, points, q):
        walks.append(q)
        return eval_grad_mod(self, points, q)

    monkeypatch.setattr(classify, "_twisted_recover", never)
    monkeypatch.setattr(Poly, "eval_grad_mod", counted)
    diag = {}
    assert fit_twisted(_Fn(parse(expr, TRI), p=p), diagnostics=diag) is None
    assert diag == {"twisted_gates": False}
    assert 8 <= len(walks) <= 16


# -- modular probes ---------------------------------------------------------------


def _walks(P, points, p):
    """The walks of a try (see _Fn.tries) of P at points."""
    return [f.eval_grad_mod(points, p) for f in (P.num, P.den)]


@pytest.mark.parametrize(
    "names, expr, a, b",
    [
        (BI, "(x^3*y + 2*y^2 - x)/(x*y + 3)", 0, 1),
        (BI, "(x^3*y + 2*y^2 - x)/(x*y + 3)", 1, 0),
        (TRI, "(x^2*y + z^3 + 1)/(x*y*z + 2) + x*z^2", 0, 2),
        (TRI, "(x^2*y + z^3 + 1)/(x*y*z + 2) + x*z^2", 2, 1),
    ],
)
def test_two_copy_ratios_match_per_point_reference(names, expr, a, b):
    P = parse(expr, names)
    ref = partial_ratio(P, a, b)
    n = P.arity
    p = DEFAULT_PRIMES[0]
    rng = random.Random(17)
    for _ in range(10):
        w = ([rng.randrange(1, p) for _ in range(n)], [rng.randrange(1, p) for _ in range(n)])
        got = _ratios(_walks(P, w, p), a, b, p, range(1 << n))
        for k in range(1 << n):
            point = [w[(k >> i) & 1][i] for i in range(n)]
            assert got[k] == ref.eval_mod(point, p)


def test_two_copy_ratios_mark_poles():
    # f = x*y/(x + y): f_x/f_y = y^2/x^2, with D = x + y and g_y = x^2
    P = parse("x*y/(x + y)", BI)
    walks = _walks(P, ([3, -3], [0, 5]), 101)
    # (3, -3) is a pole, (0, -3) and (0, 5) have f_y = 0, (3, 5) is regular
    assert _ratios(walks, 0, 1, 101, [2]) == [25 * pow(9, -1, 101) % 101]
    for k in (0, 1, 3):
        with pytest.raises(PoleError):
            _ratios(walks, 0, 1, 101, [2, k])


def test_probes_walk_each_polynomial_once(monkeypatch):
    walks = []
    walk = Poly.eval_grad_mod

    def counted(self, points, p):
        walks.append((self, len(points)))
        return walk(self, points, p)

    monkeypatch.setattr(Poly, "eval_grad_mod", counted)

    def copies(probe):
        walks.clear()
        assert probe()
        return [n for _, n in walks]

    P = parse("(x + y^2 + z)^3 + 1", TRI)
    group = _Fn(P)
    # a shared try is one walk of N and one of D at two points that differ
    # in every coordinate, which gives all 2^3 mixtures
    tries = copies(lambda: list(itertools.islice(group.tries(), 3)))
    assert tries == [2] * 6
    for w, w2, (nw, dw) in itertools.islice(group.tries(), 3):
        assert all(a != b for a, b in zip(w, w2)) and len(nw) == len(dw) == 8
    # so do the copies mod 3, where an independent draw would often repeat one
    assert all(a != b for w, w2, _ in itertools.islice(_Fn(P, p=3).tries(), 8) for a, b in zip(w, w2))
    # every gate identity reads the tries already drawn, with no walk
    assert copies(lambda: _gate_ratio_separable(group, 0, 1)) == []
    assert copies(lambda: _gate_ratio_indep(group, 0, 1, 2)) == []
    # fit_group reads all six gate identities off one try, since one
    # agreeing try passes a partial-ratio gate: 2 walks, where two tries
    # took 4 and one pair of draws per gate took 24
    walks.clear()
    assert fit_group(_Fn(P)).verdict == "GroupAdditive"
    assert [n for _, n in walks] == [2] * 2
    # a twisted gate reads N and D off its two tries and walks N_y and D_y,
    # once each per try at its two points
    twisted = _Fn(parse("(x + y^2)/(y^2 + z^3)", TRI))
    list(itertools.islice(twisted.tries(), 2))
    for i in (0, 2):
        logpartial = _twisted_logpartial_mod(twisted, i, [])
        assert copies(lambda: _probe(logpartial, twisted.tries(), agree=2)) == [2] * 4
        assert [f for f, _ in walks] == list(twisted.partials(1)) * 2


def test_a_probe_whose_copies_all_equal_w_fails():
    # mod 2 every coordinate is 1, so every copy equals w and each try is
    # vacuous; counting those as agreement passed this ratio, which is not
    # separable in x and y (f_x/f_y = (1 + y)/(2*y*z + x))
    P = parse("x + y^2*z + x*y", TRI)
    assert not _gate_ratio_separable(_Fn(P, p=2), 0, 1)
    assert not _gate_ratio_separable(_Fn(P), 0, 1)


def test_one_try_settles_a_partial_ratio_gate():
    # an unequal pair disproves at once and an agreeing one passes, so a
    # partial-ratio gate draws one try either way
    fn = _Fn(parse("x + y^2*z + x*y", TRI))
    assert not _gate_ratio_separable(fn, 0, 1)
    assert len(fn._tries) == 1
    fn = _Fn(parse("(x + y^2 + z)^3 + 1", TRI))
    assert _gate_ratio_separable(fn, 0, 1) and _gate_ratio_indep(fn, 0, 1, 2)
    assert len(fn._tries) == 1


@pytest.mark.parametrize("expr", [
    "(x^3 - 5/6*y^3 - 10*x^2 + 40/9*y^2 + 3*x + 185/18*y + 451/9)/(x^3 - 10*x^2 + 1/3*z^2 + 3*x + 4/3*z + 55)",
    "(-1/10*y^3 + x^2 + 11/15*y^2 - 2*x - 47/30*y - 31/15)/(x^2 - 2*x - 3/5*z - 21/5)",
])
def test_the_twisted_gates_read_two_tries_at_a_small_prime(expr):
    # modulo 13 the first try of the twisted zero check reads 0 on both
    # sides for these twisted inputs, so with one try their gates fail and
    # they end unresolved; the second try passes them
    rep = classify_trivariate(parse(expr, TRI), primes=(13, 11))
    assert rep.verdict == "Twisted" and rep.certificate.verified


@pytest.mark.parametrize("expr", ["x*y + z", "x + y*z + x*z"])
@pytest.mark.parametrize("primes", [DEFAULT_PRIMES, (13, 11)])
def test_a_planted_gate_fluke_certifies_nothing(monkeypatch, expr, primes):
    # a partial-ratio gate passes on one try, so a fluke is likelier than
    # with two; plant one in every such gate of an input of no group form:
    # the exact recovery fails, and no positive verdict lacks a certificate
    monkeypatch.setattr(classify, "_gate_ratio_separable", lambda *args: True)
    monkeypatch.setattr(classify, "_gate_ratio_indep", lambda *args: True)
    P = parse(expr, TRI)
    diag = {}
    assert fit_group(_Fn(P, p=primes[0]), diagnostics=diag) is None
    assert diag and not any(diag.values())
    rep = classify_trivariate(P, primes=primes)
    if rep.verdict in {"GroupAdditive", "GroupMultiplicative", "Field", "Twisted"}:
        assert rep.certificate is not None and rep.certificate.verified
        assert verify_certificate(rep.certificate, P, rep.fitted["s"])


def test_gates_give_one_answer_per_pair_identity(monkeypatch):
    # fit_group, fit_field and _decomposed_detail read the one sample of an
    # input and seed, so an identity gets one answer in all three, the
    # flukes of a small prime included, even from separate _Fn objects
    seen = {}

    def spy(gate):
        def recorded(fn, *args):
            out = gate(fn, *args)
            seen.setdefault(args, set()).add(out)
            return out
        return recorded

    monkeypatch.setattr(classify, "_gate_ratio_separable", spy(_gate_ratio_separable))
    monkeypatch.setattr(classify, "_gate_ratio_indep", spy(_gate_ratio_indep))
    flukes = 0
    for expr in ("x + y*z + x^2*z", "(x*y+1)/(x+y) + z", "x + y + z + x^2*y^2*z^2"):
        P = parse(expr, TRI).reduce()
        for seed in range(3):
            answers = []
            for p in (DEFAULT_PRIMES[0], 7, 5):
                seen.clear()
                fit_group(_Fn(P, seed, p))
                fit_field(_Fn(P, seed, p))
                _decomposed_detail(_Fn(P, seed, p))
                assert all(len(outs) == 1 for outs in seen.values()), (expr, seed, p, seen)
                answers.append({key: outs.pop() for key, outs in seen.items()})
            flukes += sum(small.get(key, exact) != exact
                          for small in answers[1:] for key, exact in answers[0].items())
    # the small primes do pass identities that fail at the large one
    assert flukes


def test_classify_builds_one_fn_per_input(monkeypatch):
    # every fitter and the 2dec_* check read the _Fn that _classify builds,
    # so the tries of an input are drawn once; a degenerate input reaches
    # no fitter and builds none
    built = []
    init = _Fn.__init__

    def counted(self, f, seed=0, p=DEFAULT_PRIMES[0]):
        built.append(seed)
        init(self, f, seed, p)

    monkeypatch.setattr(_Fn, "__init__", counted)
    verdicts = set()
    for expr in _golden_trivariate() + ["x + y", "x*(y+z)^2 + x"]:
        built.clear()
        rep = classify_trivariate(parse(expr, TRI), seed=3)
        verdicts.add(rep.verdict)
        assert built == ([] if rep.verdict == "Degenerate" else [3]), expr
    assert verdicts == {"GroupAdditive", "GroupMultiplicative", "Field", "Twisted",
                        "NoConstraint", "Unresolved", "Degenerate"}


def test_field_and_twisted_fits_read_the_tries_fit_group_drew(monkeypatch):
    # x*(y+z)^3: fit_group reads one try before its independence gate
    # fails; fit_field then reads every gate, the K probe included, off
    # that one, and the twisted gates draw the second try of N and D and
    # walk N_y and D_y on both (they pass here, and the recovery, on exact
    # lines, walks nothing)
    walks = []
    walk = Poly.eval_grad_mod

    def counted(self, points, p):
        walks.append(self)
        return walk(self, points, p)

    monkeypatch.setattr(Poly, "eval_grad_mod", counted)
    fn = _Fn(parse("x*(y+z)^3", TRI))
    assert fit_group(fn) is None
    assert walks == [fn.num, fn.den]
    walks.clear()
    assert fit_field(fn).verdict == "Field"
    assert walks == []
    assert fit_twisted(fn) is None
    ny = list(fn.partials(1))
    assert walks == ny + [fn.num, fn.den] + ny * 3


@pytest.mark.parametrize("seed", [0, 5])
def test_fit_twisted_reads_the_tries_of_its_seed(monkeypatch, seed):
    read = []
    probe = classify._probe

    def spy(sides, tries, agree=1):
        def recorded():
            for t in tries:
                read.append((t[0], t[1]))
                yield t
        return probe(sides, recorded(), agree)

    monkeypatch.setattr(classify, "_probe", spy)
    P = parse("(x^2+y)/(y+z^3)", TRI)
    assert fit_twisted(_Fn(P, seed)).verdict == "Twisted"
    want = [(w, w2) for w, w2, _ in itertools.islice(_Fn(P, seed).tries(), 2)]
    assert read[:2] == want
    other = [(w, w2) for w, w2, _ in itertools.islice(_Fn(P, seed + 1).tries(), 2)]
    assert want != other


def test_an_independent_pair_has_no_certificate():
    for P, s in (
        (parse("x + y", BI), parse("x*y", BI)),
        (parse("(x+y+z)^10 + x", TRI), parse("x*y*z + y", TRI)),
    ):
        assert dependence_certificate(P, s) is None


# -- twisted fitter ---------------------------------------------------------------


def test_fit_twisted_identity_parts():
    P = parse("(x+y)/(y+z)", TRI)
    rep = fit_twisted(_Fn(P))
    assert rep is not None
    assert rep.fitted["s"] == P
    assert rep.fitted["r1"] == parse("x", TRI)
    assert rep.fitted["r2"] == parse("y", TRI)
    assert rep.fitted["r3"] == parse("z", TRI)
    assert rep.certificate.annihilator.terms == {
        (1, 0): Fraction(1),
        (0, 1): Fraction(-1),
    }


def test_fit_twisted_polynomial_parts():
    P = parse("(x^2+y)/(y+z^3)", TRI)
    rep = fit_twisted(_Fn(P))
    assert rep is not None
    f = rep.fitted
    assert f["s"] == P
    assert (f["r1"] + f["r2"]) / (f["r2"] + f["r3"]) == P
    # parts are recovered up to one shared scale
    kappa = f["r2"] / parse("y", TRI)
    assert kappa.is_constant
    assert f["r1"] == parse("x^2", TRI) * kappa
    assert f["r3"] == parse("z^3", TRI) * kappa


def test_fit_twisted_rejects_additive():
    assert fit_twisted(_Fn(parse("x+y+z", TRI))) is None


def test_twisted_gates_reject_non_twisted_input():
    diag = {}
    assert fit_twisted(_Fn(parse("x*y*z + x + 1", TRI)), diagnostics=diag) is None
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
    f = fit_twisted(_Fn(P)).fitted
    assert verify_twisted_identities(f["r1"], f["r2"], f["r3"], trials=25, seed=0)


# -- full trivariate pipeline -------------------------------------------------------


def test_classify_twisted_identity():
    rep = classify_trivariate(parse("(x+y)/(y+z)", TRI))
    assert rep.verdict == "Twisted"
    assert rep.fitted["r1"] == parse("x", TRI)
    # r1, r2 and r3 are univariate in x, y and z by construction, so all
    # three cube identities hold identically and no diagnostic records them
    assert "twisted_cube_identities" not in rep.diagnostics


def test_a_twisted_verdict_needs_no_cube_check(monkeypatch):
    def cubes(*args, **kwargs):
        raise AssertionError("the univariate parts make the cube identities exact")

    monkeypatch.setattr("ratforms.classify.verify_twisted_identities", cubes)
    rep = classify_trivariate(parse("(2*(x^2+y)/(y+z^3) + 1)/((x^2+y)/(y+z^3) - 1)", TRI))
    assert rep.verdict == "Twisted"
    assert "twisted_cube_identities" not in rep.diagnostics


#: One input per template and the variable permutations its form allows,
#: each as the names the variables x, y, z (or x, y) take: any permutation
#: for a group form, a swap of the block variables and both moves of the
#: pivot for the field form, the swap of x and z for the twisted form,
#: which carries T to the twisted 1/T.
METAMORPHIC = [
    (TRI, "1/(x+1) + y^2 + z/(z-2)", "GroupAdditive", list(itertools.permutations(TRI))),
    (TRI, "(x*y^2*z)^3/(x+1)^2", "GroupMultiplicative", list(itertools.permutations(TRI))),
    (TRI, "x^2*(y^3+z)^3", "Field", [TRI, ("x", "z", "y"), ("y", "x", "z"), ("z", "y", "x")]),
    (TRI, "(x^2+y)/(y+z^3)", "Twisted", [TRI, ("z", "y", "x")]),
    (BI, "(1/(x+1) + y^2)^2 + 3", "GroupAdditive", [BI, ("y", "x")]),
    (BI, "x^2*y^3/(y+1)", "GroupMultiplicative", [BI, ("y", "x")]),
]


@pytest.mark.parametrize("names, expr, verdict, perms", METAMORPHIC)
def test_a_verdict_is_invariant_under_scaling_and_allowed_permutations(names, expr, verdict, perms):
    # x -> 2x, then a permutation of the variables: the verdict, the image
    # dimension and the exponent stay, and a field pivot follows x
    for text in (expr, expr.replace("x", "(2*x)")):
        for perm in perms:
            rep = _classify(parse(text, perm))
            assert (rep.verdict, rep.image_dimension) == (verdict, len(names) + 1), (text, perm)
            if verdict == "Field":
                assert (rep.pivot, rep.exponent) == (perm.index("x") + 1, 3), (text, perm)


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
        if rep.verdict == "Degenerate":
            continue
        dm = doubling_map(f)
        rank = symbolic_rank(dm)
        # nondegeneracy alone bounds the rank from below by n + 1
        assert rank >= f.arity + 1
        if rep.certificate is not None:
            verdicts.add((f.arity, rep.verdict))
            assert rep.image_dimension == image_dimension(f) == rank == f.arity + 1
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
        g = fit_group(_Fn(P))
        t = fit_twisted(_Fn(P))
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
