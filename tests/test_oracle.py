"""Tests for the exact symbolic rank oracle and the annihilator search."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ratforms import oracle
from ratforms.classify import classify_trivariate, fit_bivariate, verify_certificate
from ratforms.dimension import doubling_map, image_dimension
from ratforms.modular import DEFAULT_PRIMES
from ratforms.oracle import (
    MAX_ORACLE_DEGREE,
    OracleGuardError,
    annihilating_poly,
    composition_relation,
    prime_pool,
    symbolic_rank,
)
from ratforms.poly import Poly
from ratforms.ratfun import RatFun, compose_numerator, parse, pole_free_values

BI = ("x", "y")
TRI = ("x", "y", "z")


def test_symbolic_rank_matches_known_dimensions():
    cases = (
        ("x+y", BI, 3),
        ("x*y", BI, 3),
        ("(x+y)/(y+z)", TRI, 4),
        ("x+y+z", TRI, 4),
        ("x + y + x^2*y^3", BI, 4),
    )
    for expr, names, want in cases:
        assert symbolic_rank(doubling_map(parse(expr, names))) == want


def test_symbolic_rank_degree_guard():
    f = parse("x^7 + y", BI)
    assert f.total_degree() > MAX_ORACLE_DEGREE
    with pytest.raises(OracleGuardError):
        symbolic_rank(doubling_map(f))


def test_symbolic_rank_agrees_with_generic_rank_on_corpus():
    import synth

    for names, corpus in ((BI, synth.RANK_CORPUS_BI), (TRI, synth.RANK_CORPUS_TRI)):
        for expr in corpus:
            f = parse(expr, names)
            assert image_dimension(f) == symbolic_rank(doubling_map(f))


def test_annihilating_poly_additive_doubling_relation():
    dm = doubling_map(parse("x+y", BI))
    rel = annihilating_poly(list(dm.components), 1)
    assert rel is not None
    # f00 - f10 - f01 + f11 with the sign convention fixing the
    # lexicographically greatest monomial positive
    assert rel.terms == {
        (1, 0, 0, 0): Fraction(1),
        (0, 1, 0, 0): Fraction(-1),
        (0, 0, 1, 0): Fraction(-1),
        (0, 0, 0, 1): Fraction(1),
    }
    assert compose_numerator(rel, list(dm.components)).is_zero


def test_annihilating_poly_multiplicative_doubling_relation():
    dm = doubling_map(parse("x*y", BI))
    rel = annihilating_poly(list(dm.components), 2)
    assert rel is not None
    assert rel.terms == {
        (1, 0, 0, 1): Fraction(1),
        (0, 1, 1, 0): Fraction(-1),
    }
    assert compose_numerator(rel, list(dm.components)).is_zero


def test_annihilating_poly_pair_relation():
    P = parse("(x+y)^2", BI)
    s = parse("x+y", BI)
    rel = annihilating_poly([P, s], 2)
    assert rel is not None
    assert rel.terms == {(1, 0): Fraction(1), (0, 2): Fraction(-1)}


def test_annihilating_poly_none_when_independent():
    P = parse("x+y", BI)
    s = parse("x*y", BI)
    assert annihilating_poly([P, s], 3) is None


def test_annihilating_poly_result_substitutes_to_zero():
    cases = (
        (["(x*y)^3", "x*y"], 3),
        (["(x+y)/(x-y)", "x+y+x-y"], 4),
        (["x^2*y^2 + x*y", "x*y"], 2),
    )
    for exprs, dmax in cases:
        fs = [parse(e, BI) for e in exprs]
        rel = annihilating_poly(fs, dmax)
        if rel is not None:
            assert compose_numerator(rel, fs).is_zero


def test_annihilating_poly_is_deterministic():
    P = parse("x^2*y^2 + 1", BI)
    s = parse("x*y", BI)
    a = annihilating_poly([P, s], 2)
    b = annihilating_poly([P, s], 2)
    assert a is not None and a.terms == b.terms


# -- composition relations by Cauchy interpolation ------------------------------

# (P, s, names) with P = q(s) for a univariate rational q
_COMPOSITIONS = (
    # s a Mobius map of the twisted quotient T = (x^2+y)/(y+z^3), P = T
    ("(x^2+y)/(y+z^3)", "(2*(x^2+y) + y+z^3)/(x^2+y - 3*(y+z^3))", TRI),
    ("(x+y+z)^12", "x+y+z", TRI),
    ("1/((x+y+z)^9+1)", "x+y+z", TRI),
    # binomial coefficients up to 924 exercise the CRT lift
    ("(x*y*z+1)^12", "x*y*z", TRI),
    ("(x+y^2)^3 + 2*(x+y^2)", "x+y^2", BI),
    ("(x*y^2+2)/(3*x*y^2-1)", "x*y^2", BI),
)


@pytest.mark.parametrize("P, s, names", _COMPOSITIONS)
def test_composition_relation_matches_dense_search(P, s, names):
    fs = [parse(P, names), parse(s, names)]
    cap = 2 * (fs[0].total_degree() + fs[1].total_degree())
    fast = composition_relation(fs[0], fs[1], cap)
    dense = annihilating_poly(fs, cap)
    assert fast is not None and dense is not None
    assert fast.terms == dense.terms


def test_composition_relation_none_outside_q_of_s():
    # x*y is algebraic over Q(x^2*y^2) but not in it
    P, s = parse("x*y", BI), parse("x^2*y^2", BI)
    assert composition_relation(P, s, 8) is None
    assert annihilating_poly([P, s], 8).terms == {(2, 0): Fraction(1), (0, 1): Fraction(-1)}


def test_composition_relation_respects_degree_cap():
    P, s = parse("(x+y)^3", BI), parse("x+y", BI)
    assert composition_relation(P, s, 2) is None
    rel = composition_relation(P, s, 3)
    assert rel is not None and rel.terms == {(1, 0): Fraction(1), (0, 3): Fraction(-1)}


# -- exact acceptance of a lifted relation -------------------------------------


def _forbid_expansion(monkeypatch):
    def expand(coeffs, fs):
        raise AssertionError("compose_numerator ran")

    monkeypatch.setattr(oracle, "compose_numerator", expand)


def _count_expansions(monkeypatch) -> list:
    calls = []

    def expand(coeffs, fs):
        calls.append(coeffs)
        return compose_numerator(coeffs, fs)

    monkeypatch.setattr(oracle, "compose_numerator", expand)
    return calls


@pytest.mark.parametrize(
    "expr, names, verdict",
    [
        ("(x + y^2 + 1/(z+1))^2 + 3", TRI, "GroupAdditive"),
        ("(x*z^2/(y+1))^2 - 1", TRI, "GroupMultiplicative"),
        ("x*(y^2+z+5)^3", TRI, "Field"),
        ("((x^2+y)/(y+z^3))^2 + 1", TRI, "Twisted"),
        ("(1/(x+1) + y^2)^2 + 3", BI, "GroupAdditive"),
    ],
)
def test_true_certificates_are_accepted_without_expansion(monkeypatch, expr, names, verdict):
    # alpha and gamma, the homogenized parts of a(q)*p - b(q) in (N_s, D_s),
    # are proportional to D_P and -N_P, so no composition is expanded
    _assert_certified_without_expansion(monkeypatch, expr, names, verdict, DEFAULT_PRIMES)


_S = "((x^5+3*x+1)/(x^2+7) + (y^7-y)/(y^3+2) + (z^4+z)/(z^2+5))"


@pytest.mark.parametrize(
    "expr, names, verdict, primes",
    [
        (_S + "^2", TRI, "GroupAdditive", DEFAULT_PRIMES),
        (_S + "^3", TRI, "GroupAdditive", DEFAULT_PRIMES),
        ("(x+y+z+10000000000/7)^4", TRI, "GroupAdditive", DEFAULT_PRIMES),
        ("(x*y*z + 123456789/1000)^5", TRI, "GroupMultiplicative", DEFAULT_PRIMES),
        # the primes below 11 give too few distinct values of s; the pool
        # goes on above 13
        ("(x*y+5)^2", BI, "GroupMultiplicative", (13, 11)),
    ],
)
def test_certificates_needing_many_lift_primes_are_accepted_without_expansion(
    monkeypatch, expr, names, verdict, primes
):
    # a fixed pool of six primes certified none of these
    _assert_certified_without_expansion(monkeypatch, expr, names, verdict, primes)


def _assert_certified_without_expansion(monkeypatch, expr, names, verdict, primes):
    _forbid_expansion(monkeypatch)
    f = parse(expr, names)
    fit = classify_trivariate if len(names) == 3 else fit_bivariate
    rep = fit(f, primes=primes)
    assert rep.verdict == verdict
    assert verify_certificate(rep.certificate, f, rep.fitted["s"])


def test_a_candidate_equal_modulo_the_lift_primes_is_rejected_without_expansion(monkeypatch):
    P, s = parse("(x*y+5)^6", BI), parse("x*y", BI)
    true = composition_relation(P, s, 12)
    m1, m2 = DEFAULT_PRIMES
    ints = dict(true.ints)
    ints[(0, 1)] += m1 * m2
    false = Poly.from_ints(ints, 2)
    pool = tuple(prime_pool(DEFAULT_PRIMES, [P, s], 3))
    assert pool[:2] == (m1, m2)
    # modulo either lift prime the false candidate vanishes on (P, s) too
    for m in (m1, m2):
        (pt,) = pole_free_values([P, s], 1, m, random.Random(0))
        assert false.eval_mod(pt, m) == 0
    _forbid_expansion(monkeypatch)
    assert not oracle._vanishes(false, [P, s], pool[2:], 0)
    assert oracle._vanishes(true, [P, s], pool[2:], 0)


def test_false_lifts_are_rejected_by_a_spot_value_at_a_spare_prime(monkeypatch):
    # modulo 251 * 257, and then times 241, coefficients of (q + 5)^6 such as
    # 9375 reconstruct to wrong rationals; each wrong candidate vanishes
    # modulo the primes it was lifted from, so only a spare prime refutes it
    _forbid_expansion(monkeypatch)
    seen = []
    vanishes = oracle._vanishes

    def spy(A, fs, spare, seed):
        seen.append(vanishes(A, fs, spare, seed))
        return seen[-1]

    monkeypatch.setattr(oracle, "_vanishes", spy)
    P, s = parse("(x*y+5)^6", BI), parse("x*y", BI)
    rel = composition_relation(P, s, 12, primes=(251, 257))
    assert rel == parse("p - (q+5)^6", ("p", "q")).num
    assert seen == [False, False, True]


def test_an_unreduced_s_falls_back_to_the_expansion(monkeypatch):
    # the common factor x + 1 of s enters alpha and gamma, so they are not
    # constant multiples of D_P and N_P; the spot value is 0 and the exact
    # expansion decides
    calls = _count_expansions(monkeypatch)
    x, y = (parse(v, BI).num for v in BI)
    s = RatFun.raw((x + y) * (x + 1), (x - y) * (x + 1))
    P = parse("((x+y)/(x-y))^2", BI)
    rel = parse("p - q^2", ("p", "q")).num
    spare = tuple(prime_pool(DEFAULT_PRIMES, [P, s], 2))[1:]
    assert oracle._vanishes(rel, [P, s], spare, 0)
    assert len(calls) == 1
    # composition_relation reduces s first, so proportionality settles it
    assert composition_relation(P, s, 4) == rel
    assert len(calls) == 1


def test_a_relation_quadratic_in_p_falls_back_to_the_expansion(monkeypatch):
    calls = _count_expansions(monkeypatch)
    P, s = parse("x+y", BI), parse("(x+y)^2", BI)
    pq = ("p", "q")
    pool = tuple(prime_pool(DEFAULT_PRIMES, [P, s], 3))
    true, false = parse("p^2 - q", pq).num, parse("p^2 - 2*q", pq).num
    assert oracle._vanishes(true, [P, s], pool[2:], 0)
    assert len(calls) == 1
    # no spare prime left: the expansion alone decides
    assert oracle._vanishes(true, [P, s], (), 0)
    assert not oracle._vanishes(false, [P, s], (), 0)
    assert len(calls) == 3
    # a spare prime refutes the false one before any expansion
    assert not oracle._vanishes(false, [P, s], pool[2:], 0)
    assert len(calls) == 3


# -- the lift: one prime at a time, a candidate after each ---------------------


def _spy_vanishes(monkeypatch) -> list:
    seen = []
    vanishes = oracle._vanishes

    def spy(A, fs, spare, seed):
        seen.append((A, tuple(spare), vanishes(A, fs, spare, seed)))
        return seen[-1][2]

    monkeypatch.setattr(oracle, "_vanishes", spy)
    return seen


def _counted_points(monkeypatch) -> tuple[list, list]:
    """Points drawn in general position, and interpolation nodes, per prime."""
    points, nodes = [], []

    def counted(fs, count, p, rng):
        pts = pole_free_values(fs, count, p, rng)
        points.append((p, len(pts or ())))
        return pts

    draw = oracle._nodes

    def counted_nodes(s, P, count, p, rng):
        pts = draw(s, P, count, p, rng)
        nodes.append((p, len(pts or ())))
        return pts

    monkeypatch.setattr(oracle, "pole_free_values", counted)
    monkeypatch.setattr(oracle, "_nodes", counted_nodes)
    return points, nodes


def _counted_fits(monkeypatch) -> list:
    fits = []
    cauchy = oracle._cauchy_mod

    def counted(nodes, checks, m, p):
        fits.append((p, m))
        return cauchy(nodes, checks, m, p)

    monkeypatch.setattr(oracle, "_cauchy_mod", counted)
    return fits


def test_a_one_prime_relation_samples_one_fit_and_one_spot_value(monkeypatch):
    # the fit is at m = deg P / deg s = 12; its 2m + 1 nodes and
    # _CONFIRM_POINTS confirm points at the first prime reconstruct
    # p - q^12 in one Cauchy fit, and one spot value at the second prime
    # precedes the proportionality test
    points, nodes = _counted_points(monkeypatch)
    fits = _counted_fits(monkeypatch)
    P, s = parse("(x+y+z)^12", TRI), parse("x+y+z", TRI)
    assert composition_relation(P, s, 26) == parse("p - q^12", ("p", "q")).num
    p1, p2 = DEFAULT_PRIMES
    assert nodes == [(p1, 2 * 12 + 1)]
    assert points == [(p1, oracle._CONFIRM_POINTS), (p2, 1)]
    assert fits == [(p1, 12)]


@pytest.mark.parametrize("s", ["x^2*y", "x^2*y^3"])
def test_nodes_move_to_a_fresh_line_when_s_repeats(s):
    # on an x-line s = x^2*y takes at most 6 values mod 13, one per square;
    # x^2*y^3 takes at most 6 on an x-line and 4, one per cube, on a y-line
    p = 13
    for y in range(1, p):
        assert len({x * x * y % p for x in range(1, p)}) == 6
    P, s = parse(f"{s} + 1", BI), parse(s, BI)
    for seed in range(5):
        pts = oracle._nodes(s, P, 7, p, random.Random(seed))
        assert pts is not None and len(pts) == 7
        assert len({t for t, _ in pts}) == 7
        assert all(v == (t + 1) % p for t, v in pts)


def test_nodes_draw_a_point_then_a_variable_per_line():
    # the seeded stream behind every certificate: a line's point w, then
    # its variable i, then one t per node on that line while nodes hold
    p, seed = 101, 7
    s, P = parse("x + 2*y^2", BI), parse("(x + 2*y^2)^2 + 1", BI)
    rng = random.Random(seed)
    w = [rng.randrange(1, p) for _ in BI]
    i = rng.choice([0, 1])
    want = []
    for _ in range(2):
        w[i] = rng.randrange(1, p)
        want.append([s.eval_mod(w, p), P.eval_mod(w, p)])
    assert oracle._nodes(s, P, 2, p, random.Random(seed)) == want


@pytest.mark.parametrize(
    "P, s",
    [
        # along any line parallel to an axis each P is a function of s, of
        # degree deg P / deg s = 2, so only the confirm points, which are
        # off the lines, reject its fit; no larger bound can succeed where
        # that one failed, so no other bound or prime is tried
        ("x^2 + y*z", "x + y + z"),
        ("x^2*y^2 + z", "x*y + z"),
    ],
)
def test_a_fit_on_the_node_lines_is_rejected_by_the_confirm_points(monkeypatch, P, s):
    def no_check(*args):
        raise AssertionError("a candidate reached _vanishes")

    fits = []
    cauchy = oracle._cauchy_mod

    def spy(nodes, checks, m, p):
        # the nodes alone admit a fit; the checks refute it
        fits.append((p, m, cauchy(nodes, [], m, p) is not None, cauchy(nodes, checks, m, p)))
        return fits[-1][3]

    monkeypatch.setattr(oracle, "_vanishes", no_check)
    monkeypatch.setattr(oracle, "_cauchy_mod", spy)
    assert composition_relation(parse(P, TRI), parse(s, TRI), 12) is None
    assert [(p, m) for p, m, _, _ in fits] == [(DEFAULT_PRIMES[0], 2)]
    assert all(on_lines and rel is None for _, _, on_lines, rel in fits)


@pytest.mark.parametrize(
    "P, s, dmax, primes",
    [
        # deg P = 3 is no multiple of deg s = 2, so P = q(s) is impossible
        ("x^2*y + z", "x*y + z", 12, DEFAULT_PRIMES),
        # P = (q + 1)^12 has degree 12 in q, above the cap, so nothing is
        # fitted; modulo 4-bit primes a fit of degree 2 can hold by chance
        ("(x*y*z+1)^12", "x*y*z", 2, (13, 11)),
    ],
)
def test_a_pair_with_no_certificate_by_degree_draws_no_node(monkeypatch, P, s, dmax, primes):
    points, nodes = _counted_points(monkeypatch)
    fits = _counted_fits(monkeypatch)
    assert composition_relation(parse(P, TRI), parse(s, TRI), dmax, primes=primes) is None
    assert points == nodes == fits == []


# the constant p1 + 5 reads 5 modulo the first default prime p1
_WRONG_MOD_P1 = f"x*y + {DEFAULT_PRIMES[0] + 5}"


def test_a_wrong_one_prime_candidate_is_refuted_at_an_uncombined_prime(monkeypatch):
    _forbid_expansion(monkeypatch)
    seen = _spy_vanishes(monkeypatch)
    P, s = parse(_WRONG_MOD_P1, BI), parse("x*y", BI)
    rel = composition_relation(P, s, 4)
    pq = ("p", "q")
    assert rel == parse(f"p - q - {DEFAULT_PRIMES[0] + 5}", pq).num
    p1, p2 = DEFAULT_PRIMES
    (wrong, spare, held), *rest = seen
    assert (wrong, spare, held) == (parse("p - q - 5", pq).num, (p2,), False)
    # p1 * p2 is still too small for p1 + 5, so the third prime settles it
    assert [(A, held) for A, _, held in rest] == [(rel, True)]
    assert rest[0][1] not in {(p1,), (p2,)}


def test_the_lift_gives_up_when_its_primes_run_out(monkeypatch):
    P, s = parse(_WRONG_MOD_P1, BI), parse("x*y", BI)
    monkeypatch.setattr(oracle, "MAX_LIFT_PRIMES", 2)
    with pytest.raises(oracle.LiftBudgetError):
        composition_relation(P, s, 4)
    monkeypatch.setattr(oracle, "MAX_LIFT_PRIMES", 3)
    assert composition_relation(P, s, 4) is not None
