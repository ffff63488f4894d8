"""Tests for the exact symbolic rank oracle and the annihilator search."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from synth import ref_proportional
import ratforms.poly as poly_module
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
from ratforms.poly import Poly, poly_gcd
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


# -- composition relations by exact interpolation -------------------------------

# (P, s, names) with P = q(s) for a univariate rational q
_COMPOSITIONS = (
    # s a Mobius map of the twisted quotient T = (x^2+y)/(y+z^3), P = T
    ("(x^2+y)/(y+z^3)", "(2*(x^2+y) + y+z^3)/(x^2+y - 3*(y+z^3))", TRI),
    ("(x+y+z)^12", "x+y+z", TRI),
    ("1/((x+y+z)^9+1)", "x+y+z", TRI),
    # binomial coefficients up to 924, read off one line exactly
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
        # the gates run modulo 13; the certificate uses no prime
        ("(x*y+5)^2", BI, "GroupMultiplicative", (13, 11)),
    ],
)
def test_certificates_with_large_coefficients_are_accepted_without_expansion(
    monkeypatch, expr, names, verdict, primes
):
    # coefficients far above any sampling prime are interpolated exactly
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


# -- the search: one line, one interpolation, one proportionality test --------


def _spy(monkeypatch, name) -> list:
    """Calls of oracle.<name>, each as (args, result)."""
    calls = []
    fn = getattr(oracle, name)

    def spy(*args):
        calls.append((args, fn(*args)))
        return calls[-1][1]

    monkeypatch.setattr(oracle, name, spy)
    return calls


def test_a_relation_reads_m_plus_one_nodes_and_one_proportionality_test(monkeypatch):
    # m = deg P / deg s = 12: 13 nodes on one line fix a and c, and one
    # proportionality test proves the candidate; nothing is read mod p
    lines = _spy(monkeypatch, "_line_nodes")
    tests = _spy(monkeypatch, "_proportional")
    monkeypatch.setattr(oracle, "pole_free_values", None)
    P, s = parse("(x+y+z)^12", TRI), parse("x+y+z", TRI)
    assert composition_relation(P, s, 26) == parse("p - q^12", ("p", "q")).num
    assert [(args[2], len(nodes)) for args, nodes in lines] == [(13, 13)]
    assert [held for _, held in tests] == [True]


class _Script:
    """An rng that replays the given randint and choice results in order."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def randint(self, lo, hi):
        v = self.draws.pop(0)
        assert lo <= v <= hi
        return v

    def choice(self, seq):
        v = self.draws.pop(0)
        assert v in seq
        return v


def test_line_nodes_skip_poles_and_repeated_values_of_s():
    # on the x-line through (., 2), s = (x-1)^2/(x-3) + y has a pole at
    # x = 3, and x = 7 repeats the value 9 + 2 that x = 4 took
    s = parse("(x-1)^2/(x-3) + y", BI)
    P = RatFun(s.num * s.num + s.den * s.den, s.den * s.den)
    nodes = oracle._line_nodes(s, P, 7, _Script(5, 2, 0))
    xs = [0, 1, 2, 4, 5, 6, 8]
    assert [Fraction(n, d) for n, d, _, _ in nodes] == [s.eval_q([x, 2]) for x in xs]
    assert [Fraction(v, u) for _, _, v, u in nodes] == [P.eval_q([x, 2]) for x in xs]


def test_line_nodes_move_to_a_fresh_line_where_s_is_constant():
    # s = x*(y-3) + z is constant on the x-line through (., 3, 7); the next
    # line, through (2, 4, 5) in z, gives the nodes
    s = parse("x*(y-3) + z", TRI)
    P = parse("(x*(y-3) + z)^2", TRI)
    nodes = oracle._line_nodes(s, P, 3, _Script(1, 3, 7, 0, 2, 4, 5, 2))
    assert [(n, d, v, u) for n, d, v, u in nodes] == [(2 + z, 1, (2 + z) ** 2, 1) for z in range(3)]


def test_line_nodes_read_no_point_of_a_line_where_s_is_constant(monkeypatch):
    # N_s vanishes on the y-line through (3, ., 1), so N_s and D_s are
    # proportional there and s can give it one node at most: the search
    # moves to the x-line through (., 4, 5) before it reads a point, and
    # the relation comes off that line alone
    s = parse("x*(x-3)*(x+1)*(15*y-6*z-41)", TRI)
    P = s * s + 1
    draws = (3, 1, 1, 1, 2, 4, 5, 0)
    evals = _spy(monkeypatch, "_eval")
    nodes = oracle._line_nodes(s, P, 3, _Script(*draws))
    cost = len(evals)
    evals.clear()
    assert oracle._line_nodes(s, P, 3, _Script(*draws[4:])) == nodes
    assert len(evals) == cost
    monkeypatch.setattr(oracle, "rng_for", lambda seed, label: _Script(*draws))
    assert composition_relation(P, s) == parse("p - q^2 - 1", ("p", "q")).num


def test_line_nodes_draw_a_point_then_a_variable_per_line():
    # the seeded stream behind every certificate: a line's point w, with
    # coordinates in 1..15, then its variable i; nodes at x_i = 0, 1, ...
    seed = 7
    s, P = parse("x + 2*y^2", BI), parse("(x + 2*y^2)^2 + 1", BI)
    rng = random.Random(seed)
    w = [rng.randint(1, 15) for _ in BI]
    i = rng.choice([0, 1])
    want = []
    for x in range(3):
        w[i] = x
        want.append((int(s.eval_q(w)), 1, int(P.eval_q(w)), 1))
    assert oracle._line_nodes(s, P, 3, random.Random(seed)) == want


def _lagrange(points):
    """The reference: Lagrange interpolation over Fraction."""
    out = [Fraction(0)] * len(points)
    for j, (tj, vj) in enumerate(points):
        basis, den = [Fraction(1)], Fraction(1)
        for i, (ti, _) in enumerate(points):
            if i != j:
                basis = [a - ti * b for a, b in zip([Fraction(0)] + basis, basis + [0])]
                den *= tj - ti
        out = [o + vj * b / den for o, b in zip(out, basis)]
    return out


def test_integer_interpolation_matches_fraction_lagrange():
    rng = random.Random(37)
    for size in (1, 2, 3, 5, 9, 17):
        ts = set()
        while len(ts) < size:
            d = rng.choice([-3, -1, 1, 2, 7])
            ts.add(Fraction(rng.randint(-20, 20), d))
        nodes = [(t.numerator * k, t.denominator * k, rng.randint(-99, 99), rng.randint(-99, 99))
                 for t, k in zip(sorted(ts), itertools.cycle((1, -2, 3)))]
        vs, us = oracle._interpolate(nodes)
        m = size - 1
        want_v = _lagrange([(Fraction(n, d), Fraction(v, d**m)) for n, d, v, _ in nodes])
        want_u = _lagrange([(Fraction(n, d), Fraction(u, d**m)) for n, d, _, u in nodes])
        # one integer W scales both
        W = next(Fraction(a) / b for a, b in zip(vs + us, want_v + want_u) if b)
        assert [W * b for b in want_v] == vs and [W * b for b in want_u] == us


@pytest.mark.parametrize(
    "P, s",
    [
        # along any line parallel to an axis each P is a function of s, of
        # degree deg P / deg s = 2, so the line admits a fit; one
        # proportionality test refutes it, and no other degree can hold
        ("x^2 + y*z", "x + y + z"),
        ("x^2*y^2 + z", "x*y + z"),
    ],
)
def test_a_fit_on_the_line_is_refuted_by_one_proportionality_test(monkeypatch, P, s):
    _forbid_expansion(monkeypatch)
    tests = _spy(monkeypatch, "_proportional")
    lines = _spy(monkeypatch, "_line_nodes")
    P, s = parse(P, TRI), parse(s, TRI)
    assert composition_relation(P, s, 12) is None
    [((cand, _, _), held)] = tests
    assert not held
    # the candidate holds at every node of the line: s and P have content 1
    # and no denominator there
    [(_, nodes)] = lines
    assert len(nodes) == 3
    assert all(cand.eval_q([Fraction(v, u), Fraction(n, d)]) == 0 for n, d, v, u in nodes)


@pytest.mark.parametrize(
    "P, s, dmax",
    [
        # deg P = 3 is no multiple of deg s = 2, so P = q(s) is impossible
        ("x^2*y + z", "x*y + z", 12),
        # P = (q + 1)^12 has degree 12 in q, above the cap, so nothing is
        # interpolated
        ("(x*y*z+1)^12", "x*y*z", 2),
    ],
)
def test_a_pair_with_no_certificate_by_degree_reads_no_node(monkeypatch, P, s, dmax):
    lines = _spy(monkeypatch, "_line_nodes")
    tests = _spy(monkeypatch, "_proportional")
    assert composition_relation(parse(P, TRI), parse(s, TRI), dmax) is None
    assert lines == tests == []


def test_a_constant_above_the_sampling_primes_is_exact(monkeypatch):
    # the constant p1 + 5 reads 5 modulo the first default prime p1; the
    # interpolation runs over the integers, so no prime, lift or spot value
    # is involved
    _forbid_expansion(monkeypatch)
    monkeypatch.setattr(oracle, "_lift_and_verify", None)
    monkeypatch.setattr(oracle, "_vanishes", None)
    c = DEFAULT_PRIMES[0] + 5
    P, s = parse(f"x*y + {c}", BI), parse("x*y", BI)
    assert composition_relation(P, s, 4) == parse(f"p - q - {c}", ("p", "q")).num


# -- the proof on coded exponents ---------------------------------------------


def _random_part(rng, arity: int, deg: int) -> Poly:
    """A nonzero polynomial of total degree at most deg with a few terms and
    a random rational content."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, 3)):
            e = [0] * arity
            for _ in range(rng.randint(0, deg)):
                e[rng.randrange(arity)] += 1
            terms[tuple(e)] = rng.randint(-6, 6)
        f = Poly(terms, arity)
        if not f.is_zero:
            return f.scale(Fraction(rng.randint(1, 9), rng.choice([1, 2, 3, 7])))


def _outer(rng, m: int, linear: bool) -> tuple[list[int], list[int]]:
    """Coprime integer a(q), b(q) of degree at most m, one of them of
    degree m: a Mobius map when linear."""
    while True:
        if linear:
            a, b = [rng.randint(-4, 4), rng.randint(-4, 4)], [rng.randint(-4, 4), rng.randint(-4, 4)]
            if a[0] * b[1] != a[1] * b[0]:
                return a, b
            continue
        a = [rng.randint(-3, 3) for _ in range(m + 1)] if rng.random() < 0.5 else [rng.randint(1, 3)]
        b = [rng.randint(-3, 3) for _ in range(m)] + [rng.choice([-2, -1, 1, 2])]
        A, B = Poly.from_coeffs(a, 0, 1), Poly.from_coeffs(b, 0, 1)
        if not A.is_zero and poly_gcd(A, B).is_constant:
            return a, b


def _at(coeffs: list[int], s: RatFun) -> RatFun:
    """sum_k coeffs[k] s^k, lowest coefficient first."""
    out = RatFun.const(0, s.arity)
    for c in reversed(coeffs):
        out = out * s + c
    return out


def _exchanged(f: RatFun) -> RatFun:
    """f with its first two variables exchanged."""
    def swap(p: Poly) -> Poly:
        return Poly.from_ints({(e[1], e[0], *e[2:]): c for e, c in p.ints.items()}, p.arity, p.content)

    return RatFun(swap(f.num), swap(f.den))


def test_coded_proportionality_matches_the_poly_horner_reference():
    # _proportional on coded exponents against the Poly Horner it replaced
    # (synth.ref_proportional), on true relations P = (b/a)(s) and on false
    # ones in arities 2 and 3.  Linear s and P have the base 2; a base of 1
    # would code every variable alike and so read each function on the
    # diagonal alone, where P with two variables exchanged passes for true.
    rng = random.Random(41)
    seen = dict.fromkeys(("true", "perturbed", "swapped", "sign", "exchanged",
                          "contents", "top degree"), 0)
    triples = 0
    for k in range(70):
        arity, linear = 2 + k % 2, k % 5 == 0
        deg = 1 if linear else rng.randint(1, 3)
        num = _random_part(rng, arity, deg)
        den = _random_part(rng, arity, 1 if linear else rng.randint(0, 2))
        s = RatFun(num, den)
        if s.is_constant or (linear and s.total_degree() != 1):
            continue
        a, b = _outer(rng, 1 if linear else rng.randint(1, 3), linear)
        P = (_at(b, s) / _at(a, s)).reduce()
        A = composition_relation(P, s)
        assert A is not None and ref_proportional(A, P, s)
        ints = dict(A.ints)
        e = rng.choice(list(ints))
        ints[e] += rng.choice([-1, 1])
        perturbed = Poly.from_ints({e: c for e, c in ints.items() if c}, 2)
        sign = Poly.from_ints({(i, j): c if i else -c for (i, j), c in A.ints.items()}, 2)
        cases = [("true", A, P, s), ("perturbed", perturbed, P, s), ("swapped", A, s, P),
                 ("sign", sign, P, s), ("exchanged", A, _exchanged(P), s)]
        for kind, rel, p, q in cases:
            held = ref_proportional(rel, p, q)
            assert oracle._proportional(rel, p, q) == held, (kind, rel, p, q)
            seen[kind] += held == (kind == "true")
            triples += 1
        r = s.num.content / s.den.content
        seen["contents"] += not s.den.is_constant and r.denominator != 1
        # a term of P has total degree base - 1, the largest the base codes
        seen["top degree"] += P.total_degree() >= A.degree_in(1) * s.total_degree()
    assert triples >= 200
    assert min(seen.values()) >= 10, seen


def test_the_proof_multiplies_no_poly(monkeypatch):
    # the Horner sums run on coded term dicts: no Poly product, no _imul
    triples = []
    for P, s, names in [("(x + y^2 + 1/(z+1))^2 + 3", "x + y^2 + 1/(z+1)", TRI),
                        ("((6*x^2+2*y)/(5*y+3*z^3))^3 - 1/7", "(6*x^2+2*y)/(5*y+3*z^3)", TRI),
                        ("1/((2/3*x*y + 5)^4 + 1)", "2/3*x*y + 5", BI)]:
        P, s = parse(P, names), parse(s, names)
        triples.append((composition_relation(P, s), P, s))

    # the second s has a nonconstant D_s and c(N_s)/c(D_s) = 2, the third 1/3
    def forbidden(*args):
        raise AssertionError("a Poly product ran")

    monkeypatch.setattr(poly_module, "_imul", forbidden)
    monkeypatch.setattr(Poly, "__mul__", forbidden)
    assert all(oracle._proportional(A, P, s) for A, P, s in triples)


def test_the_recheck_shares_no_code_with_the_proof(monkeypatch):
    # verify_certificate's expansion never reaches the exponent coding that
    # the proof (and exact division) use
    cases = [("(x + y^2 + 1/(z+1))^2 + 3", TRI), ("x*(y^2+z+5)^3", TRI), ("(1/(x+1) + y^2)^2 + 3", BI)]
    reports = []
    for expr, names in cases:
        f = parse(expr, names)
        rep = (classify_trivariate if len(names) == 3 else fit_bivariate)(f)
        reports.append((rep, f))
    calls, codes = [], poly_module._codes

    def spy(a, base):
        calls.append(base)
        return codes(a, base)

    monkeypatch.setattr(poly_module, "_codes", spy)
    monkeypatch.setattr(oracle, "_codes", spy)
    assert all(verify_certificate(rep.certificate, f, rep.fitted["s"]) for rep, f in reports)
    assert calls == []
