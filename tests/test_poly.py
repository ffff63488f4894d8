"""Tests for sparse polynomial arithmetic, canonical order, and exact gcd."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest

from synth import ref_subs, restrict
import ratforms.poly as poly_module
from ratforms.calculus import _mul
from ratforms.modular import _trim
from ratforms.poly import (
    BadPrimeError,
    _LINE_P,
    Poly,
    _axis_line,
    _codes,
    _dense_gcd,
    _gcd_degree_bound,
    _heu_gcd,
    _idivexact,
    _imul,
    _powers,
    _prs_gcd,
    _total_deg,
    divexact,
    gcd_int,
    grlex_key,
    poly_gcd,
)


def _p(expr: str, names: tuple[str, ...]) -> Poly:
    from ratforms.ratfun import parse

    f = parse(expr, names)
    assert f.den.is_constant and f.den.constant_value() == 1
    return f.num


def test_zero_polynomial_is_empty_map():
    z = Poly.zero(2)
    assert z.is_zero
    assert z.terms == {}
    assert (z + z).is_zero
    assert (Poly.variable(0, 2) - Poly.variable(0, 2)).is_zero


def test_no_stored_zero_coefficients():
    x = Poly.variable(0, 2)
    y = Poly.variable(1, 2)
    q = (x + y) * (x - y) - x * x
    assert q.terms == {(0, 2): Fraction(-1)}


def test_grlex_order_grades_by_total_degree_first():
    # x^2 has higher grlex key than x*y^0 terms of lower degree,
    # and within a degree the lexicographically larger exponent wins.
    assert grlex_key((2, 0)) > grlex_key((1, 0))
    assert grlex_key((2, 0)) > grlex_key((1, 1))
    assert grlex_key((1, 1)) > grlex_key((0, 2))
    xy = _p("x^2 + x*y + y^3", ("x", "y"))
    assert xy.leading()[0] == (0, 3)


def test_arithmetic_matches_integer_evaluation():
    rng = random.Random(3)
    names = ("x", "y", "z")
    a = _p("x^2*y - 3*z + 1", names)
    b = _p("y*z + x - 7", names)
    for _ in range(20):
        pt = tuple(Fraction(rng.randint(-9, 9)) for _ in range(3))
        assert (a + b).eval_q(pt) == a.eval_q(pt) + b.eval_q(pt)
        assert (a - b).eval_q(pt) == a.eval_q(pt) - b.eval_q(pt)
        assert (a * b).eval_q(pt) == a.eval_q(pt) * b.eval_q(pt)


def test_derivative_product_rule():
    names = ("x", "y")
    a = _p("x^3*y + x", names)
    b = _p("y^2 - x", names)
    lhs = (a * b).derivative(0)
    rhs = a.derivative(0) * b + a * b.derivative(0)
    assert (lhs - rhs).is_zero


def test_degree_accessors():
    q = _p("x^2*y^3 + x^4", ("x", "y"))
    assert q.total_degree() == 5
    assert q.degree_in(0) == 4
    assert q.degree_in(1) == 3
    assert Poly.zero(2).total_degree() == 0


def test_poly_gcd_on_known_factorizations():
    names = ("x", "y")
    f = _p("(x + y)^2*(x - y)", names)
    g = _p("(x + y)*(x + 2*y)", names)
    d = poly_gcd(f, g)
    assert divexact(d, _p("x + y", names)).is_constant


def test_poly_gcd_univariate_and_content():
    names = ("x",)
    f = _p("2*x^2 - 2", names)
    g = _p("4*x + 4", names)
    d = poly_gcd(f, g)
    # gcd is x + 1 up to the unit normalization used by the library
    assert divexact(d, _p("x + 1", names)).is_constant


def test_poly_gcd_coprime_is_constant():
    names = ("x", "y")
    f = _p("x^2 + 1", names)
    g = _p("y^2 + 1", names)
    assert poly_gcd(f, g).is_constant


def test_divexact_inverts_multiplication():
    rng = random.Random(5)
    names = ("x", "y", "z")
    for _ in range(10):
        a = Poly.const(rng.randint(1, 5), 3)
        for i in range(3):
            a = a * (Poly.variable(i, 3) + Poly.const(rng.randint(-4, 4), 3))
        b = Poly.variable(rng.randrange(3), 3) + Poly.const(rng.randint(1, 9), 3)
        prod = a * b
        assert (divexact(prod, b) - a).is_zero


def test_embed_renames_variables():
    q = _p("x + 2*y", ("x", "y"))
    w = q.embed(4, (2, 3))
    assert w.arity == 4
    assert w.terms == {(0, 0, 1, 0): Fraction(1), (0, 0, 0, 1): Fraction(2)}


def test_eval_mod_matches_rational_eval():
    q = _p("x^3 - 5*x*y + 2", ("x", "y"))
    p = 2147483647
    rng = random.Random(9)
    for _ in range(20):
        pt = tuple(rng.randrange(p) for _ in range(2))
        want = q.eval_q(tuple(Fraction(v) for v in pt))
        got = q.eval_mod(pt, p)
        assert got == (want.numerator % p)


# ---------------------------------------------------------------------------
# content x primitive-integer core against a plain {exponent: Fraction} model
# ---------------------------------------------------------------------------


def _ref_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def _ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            k = tuple(x + y for x, y in zip(ea, eb))
            out[k] = out.get(k, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _ref_eval(a: dict, point) -> Fraction:
    acc = Fraction(0)
    for e, c in a.items():
        for x, k in zip(point, e):
            c *= Fraction(x) ** k
        acc += c
    return acc


def _random_terms(rng: random.Random, arity: int, nterms: int = 5) -> dict:
    terms = {}
    for _ in range(rng.randint(0, nterms)):
        e = tuple(rng.randint(0, 3) for _ in range(arity))
        terms[e] = Fraction(rng.randint(-30, 30), rng.choice([1, 1, 2, 3, 4, 9, 10]))
    return terms


def _assert_canonical(p: Poly) -> None:
    assert isinstance(p.content, Fraction) and p.content > 0
    if not p.ints:
        assert p.content == 1
    else:
        assert all(type(c) is int and c for c in p.ints.values())
        assert reduce(gcd, p.ints.values(), 0) == 1
    assert dict(p.terms) == {e: p.content * c for e, c in p.ints.items()}


def _cases(seed: int, count: int = 60):
    rng = random.Random(seed)
    for _ in range(count):
        arity = rng.randint(1, 3)
        yield rng, arity, _random_terms(rng, arity), _random_terms(rng, arity)


def test_arithmetic_matches_the_fraction_model():
    for rng, arity, ta, tb in _cases(11):
        a, b = Poly(ta, arity), Poly(tb, arity)
        clean_a = {e: c for e, c in ta.items() if c}
        for got, want in (
            (a + b, _ref_add(ta, tb)),
            (a - b, _ref_add(ta, tb, -1)),
            (-a, {e: -c for e, c in clean_a.items()}),
            (a * b, _ref_mul(ta, tb)),
            (a ** 2, _ref_mul(ta, ta)),
            (a ** 3, _ref_mul(_ref_mul(ta, ta), ta)),
            (a ** 0, {(0,) * arity: Fraction(1)}),
        ):
            _assert_canonical(got)
            assert dict(got.terms) == want
            assert got == Poly(want, arity)


def test_sum_matches_repeated_addition():
    rng = random.Random(13)
    for count in (0, 1, 2, 7, 40):
        for arity in (1, 3):
            polys = [Poly(_random_terms(rng, arity), arity) for _ in range(count)]
            want = Poly.zero(arity)
            for f in polys:
                want = want + f
            got = Poly.sum(iter(polys), arity)
            _assert_canonical(got)
            assert got == want
    x = Poly.variable(0, 2)
    assert Poly.sum([x.scale(Fraction(1, 3)), x.scale(Fraction(-1, 3))], 2).is_zero


@pytest.mark.parametrize("factor", [Fraction(-3, 7), -2, 0, Fraction(5, 6), 4, 1])
def test_scale_matches_the_fraction_model(factor):
    for _rng, arity, ta, _tb in _cases(12, 20):
        got = Poly(ta, arity).scale(factor)
        _assert_canonical(got)
        assert dict(got.terms) == {e: c * factor for e, c in ta.items() if c * factor}


def test_derivative_and_embed_match_the_fraction_model():
    for _rng, arity, ta, _tb in _cases(13):
        a = Poly(ta, arity)
        for i in range(arity):
            got = a.derivative(i)
            _assert_canonical(got)
            want = {}
            for e, c in ta.items():
                if e[i] and c:
                    k = list(e)
                    k[i] -= 1
                    want[tuple(k)] = c * e[i]
            assert dict(got.terms) == want
        mapping = tuple(range(arity, 2 * arity))[::-1]
        got = a.embed(2 * arity, mapping)
        _assert_canonical(got)
        want = {}
        for e, c in ta.items():
            if c:
                k = [0] * (2 * arity)
                for i, v in enumerate(e):
                    k[mapping[i]] = v
                want[tuple(k)] = c
        assert dict(got.terms) == want


def test_line_matches_the_fraction_model():
    values = [0, 1, -1, 3, Fraction(-2, 3), Fraction(7, 4)]
    for rng, arity, ta, _tb in _cases(14):
        point = [rng.choice(values) for _ in range(arity)]
        for i in range(arity):
            got = restrict(Poly(ta, arity), point, i)
            _assert_canonical(got)
            assert dict(got.terms) == ref_subs(ta, {j: x for j, x in enumerate(point) if j != i})
    for arity in (1, 2, 3):
        zero, point = Poly.zero(arity), [Fraction(-2, 3)] * arity
        assert restrict(zero, point, arity - 1) == zero
        assert zero.eval_q(point) == 0


def test_evaluation_matches_the_fraction_model():
    p = 1000003
    for rng, arity, ta, _tb in _cases(15):
        a = Poly(ta, arity)
        qpoint = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(arity)]
        assert a.eval_q(qpoint) == _ref_eval(ta, qpoint)
        ipoint = [rng.randrange(p) for _ in range(arity)]
        want = _ref_eval(ta, ipoint)
        got = a.eval_q(ipoint)
        assert type(got) is Fraction and got == want
        assert a.eval_mod(ipoint, p) == want.numerator * pow(want.denominator, -1, p) % p


def test_gcd_and_exact_division_match_the_fraction_model():
    for rng, arity, ta, tb in _cases(16, 40):
        a, b = Poly(ta, arity), Poly(tb, arity)
        common = Poly(_random_terms(rng, arity, 3), arity) + Poly.variable(0, arity)
        fa, fb = a * common, b * common
        g = poly_gcd(fa, fb)
        _assert_canonical(g)
        assert g.content == 1
        if not g.is_zero:
            assert g.leading()[1] > 0
            for f in (fa, fb):
                q = divexact(f, g)
                _assert_canonical(q)
                assert dict((q * g).terms) == dict(f.terms)
            if not (fa.is_zero and fb.is_zero):
                assert divexact(g, poly_gcd(common, common)).ints
        if not b.is_zero:
            q = divexact(a * b, b)
            _assert_canonical(q)
            assert dict(q.terms) == {e: c for e, c in ta.items() if c}


def test_codes_add_under_products_and_keep_grlex_order():
    # in a base above the product's total degree, the code of a product term
    # is the sum of its factors' codes, distinct vectors get distinct codes,
    # and codes sort as grlex_key does
    rng = random.Random(41)
    checked = 0
    for _ in range(80):
        arity = rng.randint(1, 4)
        a = Poly(_random_terms(rng, arity, 7), arity).ints
        b = Poly(_random_terms(rng, arity, 7), arity).ints
        if not a or not b:
            continue
        f = _imul(a, b)
        base = _total_deg(f) + 1
        ca, cb = _codes(a, base), _codes(b, base)
        coded: dict = {}
        for ka, x in ca.items():
            for kb, y in cb.items():
                coded[ka + kb] = coded.get(ka + kb, 0) + x * y
        assert {k: v for k, v in coded.items() if v} == _codes(f, base)
        box = [e for e in itertools.product(range(base), repeat=arity) if sum(e) < base]
        codes = list(_codes(dict.fromkeys(box, 1), base))
        assert len(set(codes)) == len(box)
        assert [e for _, e in sorted(zip(codes, box))] == sorted(box, key=grlex_key)
        checked += 1
    assert checked > 50
    assert _codes({}, 5) == {}


def _idivexact_by_scan(f: dict, h: dict) -> dict | None:
    """Exact division that finds each leading term of the remainder by a
    scan of all its terms: the reference for _idivexact."""
    lh = max(h, key=grlex_key)
    rem, q = dict(f), {}
    while rem:
        lr = max(rem, key=grlex_key)
        ke = tuple(a - b for a, b in zip(lr, lh))
        if min(ke) < 0 or rem[lr] % h[lh]:
            return None
        cq = q[ke] = rem[lr] // h[lh]
        for e, c in h.items():
            k = tuple(a + b for a, b in zip(ke, e))
            v = rem.get(k, 0) - cq * c
            if v:
                rem[k] = v
            else:
                del rem[k]
    return q


def test_exact_division_matches_the_scan_division():
    rng = random.Random(26)
    checked = 0
    for _ in range(120):
        arity = rng.randint(1, 4)
        a = Poly(_random_terms(rng, arity, 9), arity).ints
        b = Poly(_random_terms(rng, arity, 6), arity).ints
        if not a or not b:
            continue
        f = _imul(a, b)
        for h in (a, b, f, {e: -c for e, c in b.items()}):
            q = _idivexact(f, h)
            assert q is not None and list(q.items()) == list(_idivexact_by_scan(f, h).items())
        if _total_deg(b) > 0:
            # f + 1 is not a multiple of a nonconstant divisor of f
            g = dict(f)
            zero = (0,) * arity
            g[zero] = g.get(zero, 0) + 1
            if not g[zero]:
                del g[zero]
            assert _idivexact(g, b) is None and _idivexact_by_scan(g, b) is None
            checked += 1
        if _total_deg(a) > 0:
            assert _idivexact(b, f) is None
    assert checked > 60


def test_exact_divisions_ignore_the_heuristic_step_cap(monkeypatch):
    # past DIV_STEP_CAP quotient terms only _heu_gcd's trial division gives
    # up, which leaves its candidate to subresultants; an exact division
    # still returns its quotient, however many terms it has
    from ratforms.ratfun import parse

    monkeypatch.setattr(poly_module, "DIV_STEP_CAP", 5)
    names = ("x", "y")
    big, lin = _p("(x+y+1)^4*(x-y)", names), _p("x+y+1", names)
    want = _p("(x+y+1)^3*(x-y)", names)
    assert len(want.ints) > 5 and _idivexact(big.ints, lin.ints, 5) is None
    assert divexact(big, lin) == want
    f = parse("((x+y+1)^4*(x-y))/((x+y+1)*(x+y))", names)
    assert (f.num, f.den) == (want, _p("x + y", names))


def test_equal_values_have_one_representation():
    x = Poly.variable(0, 1)
    half = Poly({(1,): Fraction(1, 2), (0,): Fraction(1, 2)}, 1)
    assert (x + 1).scale(Fraction(1, 2)) == half
    assert half.ints == {(1,): 1, (0,): 1} and half.content == Fraction(1, 2)
    assert (x + 1) * Fraction(1, 2) == half == Poly.const(Fraction(1, 2), 1) * (x + 1)
    assert Poly({(1,): 6, (0,): -4}, 1) == (x.scale(3) - 2).scale(2)
    assert Poly({(1,): 6, (0,): -4}, 1).ints == {(1,): 3, (0,): -2}
    assert -Poly.const(5, 1) == Poly.const(-5, 1)
    assert Poly.const(-5, 1).ints == {(0,): -1} and Poly.const(-5, 1).content == 5
    zero = x - x
    assert zero == Poly.zero(1) == Poly({(1,): 0}, 1) == half.scale(0)
    assert (zero.ints, zero.content) == ({}, 1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Poly({(1, 0): 0.1}, 2),
        lambda: Poly.const(0.5, 2),
        lambda: Poly.variable(0, 2).scale(0.5),
        lambda: Poly.variable(0, 2) * 0.5,
        lambda: Poly({(1, 0): "1/2"}, 2),
    ],
)
def test_float_and_other_coefficients_are_rejected(build):
    with pytest.raises(TypeError):
        build()


def test_terms_view_is_read_only():
    q = Poly({(1,): Fraction(2, 3)}, 1)
    with pytest.raises(TypeError):
        q.terms[(0,)] = Fraction(1)
    assert q.terms == {(1,): Fraction(2, 3)}


def test_compiled_form_rejects_a_prime_dividing_a_denominator():
    q = Poly({(1, 0): Fraction(1, 14), (0, 1): Fraction(1)}, 2)
    assert q.eval_mod((3, 2), 5) == (3 * pow(14, -1, 5) + 2) % 5
    for evaluate in (q.eval_mod, lambda w, p: q.eval_grad_mod((w,), p)):
        with pytest.raises(BadPrimeError) as info:
            evaluate((3, 2), 7)
        assert info.value.prime == 7
        assert isinstance(info.value, ArithmeticError)


# ---------------------------------------------------------------------------
# the compiled modular form and the gcd line test
# ---------------------------------------------------------------------------


def _residue(v: Fraction, p: int) -> int:
    return v.numerator * pow(v.denominator, -1, p) % p


def _exact_jet(q: Poly, point, p: int) -> list[int]:
    qpoint = [Fraction(x) for x in point]
    return [_residue(f.eval_q(qpoint), p) for f in [q] + [q.derivative(i) for i in range(q.arity)]]


def test_compiled_values_and_partials_match_exact_derivatives():
    rng = random.Random(21)
    p = 1000003
    for arity in range(1, 7):
        for _ in range(10):
            content = Fraction(rng.randint(1, 40), rng.choice([1, 3, 7, 10]))
            q = Poly(_random_terms(rng, arity), arity).scale(content)
            points = [[rng.randrange(p) for _ in range(arity)] for _ in range(2)]
            points[0][rng.randrange(arity)] = 0
            for point in points:
                want = _exact_jet(q, point, p)
                assert q.eval_mod(point, p) == want[0]
                assert q.eval_grad_mod((point,), p) == [want]
            # with two points, entry k takes x_i from points[bit i of k]
            # and a coordinate the points share (also as a different
            # representative mod p) is walked once, with the same rows
            shared = [x + p if rng.random() < 0.5 else y for x, y in zip(*points)]
            for pair in (points, [points[0], shared], [points[0], points[0]]):
                rows = q.eval_grad_mod(pair, p)
                assert len(rows) == 1 << arity
                for k, row in enumerate(rows):
                    mixed = [pair[(k >> i) & 1][i] for i in range(arity)]
                    assert row == _exact_jet(q, mixed, p)


def _assert_walks_match_exact_jets(q: Poly, pair, p: int) -> None:
    """Both walks at each point and at every mixture of the pair agree with
    the exact jets, and eval_mod is the value column of eval_grad_mod."""
    for point in pair:
        want = _exact_jet(q, point, p)
        assert q.eval_mod(point, p) == want[0]
        assert q.eval_grad_mod((point,), p) == [want]
    rows = q.eval_grad_mod(pair, p)
    assert len(rows) == 1 << q.arity
    for k, row in enumerate(rows):
        mixed = [pair[(k >> i) & 1][i] for i in range(q.arity)]
        assert row == _exact_jet(q, mixed, p)
        assert q.eval_mod(mixed, p) == row[0]


def test_compiled_walks_of_zero_constants_single_terms_and_powers():
    """The compiled form keeps the last two variables in one flat term list:
    shapes that leave it empty, give it one term, or give every group above
    it many terms, at point pairs that differ everywhere, only in the last
    two coordinates, or only above them."""
    rng = random.Random(29)
    p = 1000003
    for arity in range(1, 5):
        xs = [Poly.variable(i, arity) for i in range(arity)]
        linear = Poly.sum(xs, arity)
        shapes = [
            Poly.zero(arity),
            Poly.const(1, arity),
            Poly.const(Fraction(-7, 3), arity),
            Poly({(3,) + (0,) * (arity - 2) + (5,) if arity > 1 else (8,): Fraction(2, 5)}, arity),
            xs[-1] ** 4,
            linear,
            linear ** 6,
            (linear + Poly.const(1, arity)) ** 3,
        ]
        for q in shapes:
            a = [rng.randrange(p) for _ in range(arity)]
            b = [rng.randrange(p) for _ in range(arity)]
            a[rng.randrange(arity)] = 0
            low = a[:-2] + b[-2:]  # differs from a in the last two coordinates only
            high = b[:-2] + a[-2:]  # differs from a above them only
            for pair in ([a, b], [a, low], [a, high]):
                _assert_walks_match_exact_jets(q, pair, p)


def test_line_of_a_high_power_reads_only_the_exponents_of_its_terms():
    """x^1048576*y: the exact powers are those of the terms' exponents, not
    of every exponent up to the degree, on a line along either axis."""
    e = 1 << 20
    q = Poly({(e, 1): Fraction(3, 2)}, 2)
    for x in (2, Fraction(1, 3)):
        y_line = restrict(q, (x, Fraction(-4, 9)), 1)
        assert dict(y_line.terms) == {(0, 1): Fraction(3, 2) * Fraction(x) ** e}
    for y in (5, Fraction(5, 7)):
        x_line = restrict(q, (Fraction(1, 3), y), 0)
        assert dict(x_line.terms) == {(e, 0): Fraction(3, 2) * y}
        assert x_line.content == Fraction(3, 2) * y
    assert q.eval_q((2, Fraction(5, 7))) == Fraction(3, 2) * 2 ** e * Fraction(5, 7)


def test_the_gcd_line_test_reads_the_exact_restriction_mod_p():
    """_gcd_degree_bound restricts to an axis-parallel line with _axis_line
    over the powers eval_mod reads (_powers); times the content mod p and
    trimmed, that is the exact restriction reduced mod p."""
    rng = random.Random(24)
    p = 1000003

    def residues(terms, arity, i, deg):
        out = [_residue(terms.get(tuple(j if k == i else 0 for k in range(arity)), Fraction(0)), p)
               for j in range(deg + 1)]
        while out and not out[-1]:
            out.pop()
        return out

    for arity in range(1, 4):
        for _ in range(20):
            terms = _random_terms(rng, arity)
            q = Poly(terms, arity)
            point = [rng.randrange(1, p) for _ in range(arity)]
            for i in range(arity):
                restriction = ref_subs(terms, {j: x for j, x in enumerate(point) if j != i})
                powers = _powers(q._degrees(), point, p)
                scale = q._content_mod(p)
                got = _trim([c * scale % p for c in _axis_line(q.ints, powers, i, q.degree_in(i))])
                assert got == residues(restriction, arity, i, q.degree_in(i))
                # the modular restriction is the exact one, reduced mod p
                assert got == residues(restrict(q, point, i).terms, arity, i, q.degree_in(i))


def test_gcd_degree_bound_is_at_least_the_shared_degree():
    rng = random.Random(23)
    shared = bounded = 0
    for _ in range(60):
        arity = rng.randint(1, 3)
        g, a, b = (Poly(_random_terms(rng, arity), arity) for _ in range(3))
        if g.total_degree() == 0 or a.is_zero or b.is_zero:
            continue
        shared += 1
        f, h = g * a, g * b
        bound = _gcd_degree_bound(f.ints, h.ints, arity)
        if bound is not None:
            bounded += 1
            assert sorted(bound) == [v for v in range(arity) if f.degree_in(v) and h.degree_in(v)]
            assert all(bound.get(v, 0) >= g.degree_in(v) for v in range(arity))
    assert shared >= 20 and bounded >= 20
    names = ("x", "y", "z")

    def bound(f: str, g: str):
        return _gcd_degree_bound(_p(f, names).ints, _p(g, names).ints, 3)

    assert bound("x + y", "x*y + 1") == {0: 0, 1: 0}
    assert bound("x^2 - 1", "x^2 + 2*x + 1") == {0: 1}
    assert bound("y^3 - 1", "y^2 + 1") == {1: 0}
    # y and z each occur in one input only, so neither is bounded
    assert bound("(x + 1)*y", "(x + 1)*z") == {0: 1}
    # the line prime divides the leading coefficient in x, so the images
    # on every x-line drop their degree and there is no bound
    x, y = Poly.variable(0, 2), Poly.variable(1, 2)
    g = x * x * y * _LINE_P + x + y
    f, h = (g * (x + 2)).ints, (g * (x - 5)).ints
    assert _gcd_degree_bound(f, h, 2) is None
    assert gcd_int(f, h, 2) == g.ints == _reference_gcd(f, h, 0, 2)


def _uni(rng: random.Random, v: int, arity: int, lo: int, hi: int) -> Poly:
    """A random polynomial in x_v alone, of degree lo..hi."""
    deg = rng.randint(lo, hi)
    terms = {}
    for k in range(deg + 1):
        e = [0] * arity
        e[v] = k
        terms[tuple(e)] = rng.randint(-9, 9) or 1
    return Poly(terms, arity)


def _reference_gcd(f: dict, g: dict, v: int, arity: int) -> dict:
    """The subresultant gcd, made primitive with a positive leading term."""
    h = Poly.from_ints(_prs_gcd(f, g, v, arity), arity)
    return (h if h.leading()[1] > 0 else -h).ints


def test_gcd_of_one_variable_pairs_matches_subresultants():
    rng = random.Random(1501)
    for arity in (1, 2, 3):
        for _ in range(40):
            v = rng.randrange(arity)
            g = _uni(rng, v, arity, 1, 4)
            a, b = _uni(rng, v, arity, 0, 4), _uni(rng, v, arity, 0, 4)
            f, h = (g * a).ints, (g * b).ints
            got = gcd_int(f, h, arity)
            assert got == _reference_gcd(f, h, v, arity)
            assert _total_deg(got) >= g.total_degree()
    # a leading coefficient divisible by the line prime drops the degree
    # of the image, so there is no bound; a pair in one variable needs none,
    # since the dense gcd decides it
    x = Poly.variable(0, 1)
    g = x * x * _LINE_P + x * 3 + 1
    f, h = (g * (x + 2)).ints, (g * (x - 5)).ints
    assert _gcd_degree_bound(f, h, 1) is None
    assert gcd_int(f, h, 1) == g.ints == _reference_gcd(f, h, 0, 1)


def test_gcd_takes_no_point_evaluation(monkeypatch):
    def no_walk(*_):
        raise AssertionError("eval_mod called")

    monkeypatch.setattr(Poly, "eval_mod", no_walk)
    names = ("x", "y", "z")
    for f, g, want in (
        ("z^2 - 1", "z^2 + 2*z + 1", "z + 1"),
        ("(x^3 + 2)*(x - 4)^2", "(x - 4)*(x + 9)", "x - 4"),
        ("y^5 + y + 1", "y^4 - 3", "1"),
        ("6*z^3 - 6*z", "4*z^2 + 4*z", "z^2 + z"),
        ("(x + y)*(x*z + 1)", "(x + y)*(y - z)", "x + y"),
        ("x*y + 1", "x + y", "1"),
    ):
        assert poly_gcd(_p(f, names), _p(g, names)) == _p(want, names)


def test_heuristic_gcd_divides_out_the_content_of_its_candidate():
    # the digits of the evaluated gcd read 2*x + 2 here; only its primitive
    # part divides both inputs, so without it the heuristic gives up and
    # subresultants decide
    f, g = _p("(x+1)*(x^3+2*x+5)", ("x",)).ints, _p("(x+1)*(x^2-3)", ("x",)).ints
    assert _heu_gcd(f, g, 1) == _p("x + 1", ("x",)).ints
    assert gcd_int(f, g, 1) == _reference_gcd(f, g, 0, 1)
    # the dense gcd of the same pair takes the primitive part too
    fl, gl = ([a.get((k,), 0) for k in range(max(a)[0] + 1)] for a in (f, g))
    assert _dense_gcd(fl, gl)[0] == [1, 1]


def _planted(rng: random.Random, arity: int, height: int, lo: int, hi: int) -> Poly:
    """A random polynomial of degree lo..hi in x_0 whose coefficient of the
    top power of x_0 is an integer, plus up to four terms below it in all
    variables, with coefficients of size up to height."""
    deg = rng.randint(lo, hi)
    terms = {(deg,) + (0,) * (arity - 1): rng.choice((-1, 1)) * rng.randint(1, height)}
    for _ in range(rng.randint(1, 4)):
        e = (rng.randint(0, deg - 1) if deg else 0,) + tuple(rng.randint(0, 2) for _ in range(arity - 1))
        terms[e] = rng.choice((-1, 1)) * rng.randint(1, height)
    return Poly(terms, arity)


def test_heuristic_gcd_answers_with_no_closure_pass(monkeypatch):
    """On planted pairs g*a and g*b in two to four variables, gcd_int is the
    subresultant gcd, and where the heuristic gcd answers at depth 0 its
    answer stands: no subresultant chain runs.  The leading coefficients in
    x_0 are integers, so the reference (primitive in x_0) is the whole gcd."""
    calls = []
    heu, prs = poly_module._heu_gcd, poly_module._prs_gcd

    def heu_spy(f, g, arity, depth=0):
        h = heu(f, g, arity, depth)
        calls.append(("heu", depth, h is not None))
        return h

    monkeypatch.setattr(poly_module, "_heu_gcd", heu_spy)
    monkeypatch.setattr(poly_module, "_prs_gcd", lambda *a: calls.append(("prs",)) or prs(*a))
    rng = random.Random(4201)
    answered = 0
    for k in range(300):
        arity = 2 + k % 3
        height = rng.choice((3, 10, 1000, 10**6))
        g = _planted(rng, arity, height, 1, 2)
        a, b = _planted(rng, arity, height, 0, 2), _planted(rng, arity, height, 0, 2)
        f, h = (g * a).ints, (g * b).ints
        want = _reference_gcd(f, h, 0, arity)
        calls.clear()
        assert gcd_int(f, h, arity) == want
        assert _total_deg(want) >= g.total_degree()
        if ("heu", 0, True) in calls:
            answered += 1
            assert ("prs",) not in calls
    assert answered >= 100


def test_subresultant_gcd_is_primitive_with_a_positive_lead():
    # the chain of the first pair ends in 69*x - 207; the content with
    # respect to x is a constant, which leaves the 69 in unless the result
    # is normalized; the other pairs end with a negative lead
    for f, g, want, names in (
        ("(x-3)*(5*x+7)", "(x-3)*(2*x-11)", "x - 3", ("x",)),
        ("(3-x)*(5*x+7)", "(x-3)*(2*x-11)", "x - 3", ("x",)),
        ("(2-x*y)*(5*x+7)", "(x*y-2)*(2*x-11*y)", "x*y - 2", ("x", "y")),
    ):
        f, g = _p(f, names).ints, _p(g, names).ints
        assert _prs_gcd(f, g, 0, len(names)) == _p(want, names).ints


def test_line_jet_is_the_line_of_each_first_partial():
    """One jet pass gives the restriction and those of every first partial,
    at integer, zero and fractional coordinates; arities 1 and 4 take the
    padded and the general term loop.  For three variables, the mixed jet
    is the same jet and the restriction of the second partial in the two
    pinned variables, also when one of them does not occur."""
    rng = random.Random(3001)
    coords = (lambda: rng.randint(-9, 9), lambda: 0, lambda: Fraction(rng.randint(-9, 9), rng.randint(2, 7)))
    for arity in (1, 2, 3, 4):
        for _ in range(40):
            q = Poly(_random_terms(rng, arity, 8), arity)
            point = [rng.choice(coords)() for _ in range(arity)]
            for i in range(arity):
                scale, jet = q.line_jet(point, i)
                assert len(jet) == arity + 1
                assert Poly.from_coeffs(jet[0], i, arity, scale) == restrict(q, point, i)
                for v in range(arity):
                    assert Poly.from_coeffs(jet[1 + v], i, arity, scale) == restrict(q.derivative(v), point, i)
                if arity == 3:
                    _assert_mixed_jet(q, point, i, scale, jet)
    # y does not occur, so the mixed partial on an x- or z-line is zero
    q = Poly({(2, 0, 1): Fraction(1), (1, 0, 0): Fraction(3), (0, 0, 2): Fraction(-2, 5)}, 3)
    for i in range(3):
        point = [Fraction(-3, 2), 4, 7]
        _assert_mixed_jet(q, point, i, *q.line_jet(point, i))


def _assert_mixed_jet(q, point, i, scale, jet):
    u, v = (w for w in range(3) if w != i)
    mixed_scale, mixed = q.line_jet(point, i, mixed=True)
    assert (mixed_scale, mixed[:-1]) == (scale, jet)
    assert Poly.from_coeffs(mixed[-1], i, 3, scale) == restrict(q.derivative(u).derivative(v), point, i)


def _int_list(rng: random.Random, lo: int, hi: int, size: int = 9) -> list[int]:
    """Integer coefficients, lowest first, of a degree in lo..hi, nonzero lead."""
    out = [rng.randint(-size, size) for _ in range(rng.randint(lo, hi) + 1)]
    out[-1] = out[-1] or 1
    return out


def _primitive_list(c: list[int]) -> list[int]:
    g = gcd(*c)
    return [x // g for x in c]


def _prs_list(f: list[int], g: list[int]) -> list[int]:
    """The subresultant gcd of coefficient lists, primitive, positive lead."""
    h = _reference_gcd(*({(k,): c for k, c in enumerate(a) if c} for a in (f, g)), 0, 1)
    return [h.get((k,), 0) for k in range(max(h)[0] + 1)]


def test_dense_gcd_matches_subresultants_without_falling_back(monkeypatch):
    """Products that share a factor, coprime pairs and inputs equal up to
    sign: the heuristic alone finds the gcd and both cofactors."""
    prs = []
    monkeypatch.setattr(poly_module, "_prs_gcd", lambda *a: prs.append(a))
    rng = random.Random(3002)
    pairs = []
    for _ in range(60):
        h = _int_list(rng, 1, 4)
        pairs.append((_mul(h, _int_list(rng, 0, 4)), _mul(h, _int_list(rng, 0, 4))))
        pairs.append((_int_list(rng, 1, 5, 10**6), _int_list(rng, 1, 5, 10**6)))
        f = _int_list(rng, 0, 5)
        pairs += [(f, list(f)), (f, [-c for c in f])]
    # negative roots and a negative lead need balanced digits
    pairs.append(([-10, -3, 1], [15, 2, -1]))
    for f, g in pairs:
        f, g = _primitive_list(f), _primitive_list(g)
        h, qf, qg = _dense_gcd(f, g)
        monkeypatch.undo()
        assert h == _prs_list(f, g) and h[-1] > 0
        monkeypatch.setattr(poly_module, "_prs_gcd", lambda *a: prs.append(a))
        assert _mul(h, qf) == f and _mul(h, qg) == g
    assert not prs


def test_dense_gcd_falls_back_past_the_size_guard(monkeypatch):
    """A divisor of degree 20 with coefficients of 200000 bits puts the
    first xi past the size guard, so subresultants decide, with the same
    gcd and cofactors."""
    prs = []
    fallback = poly_module._prs_gcd
    monkeypatch.setattr(poly_module, "_prs_gcd", lambda *a: prs.append(a) or fallback(*a))
    rng = random.Random(3003)
    h = _primitive_list([rng.getrandbits(200_000) - (1 << 199_999) for _ in range(21)])
    f, g = _mul(h, [2, -1]), h
    got, qf, qg = _dense_gcd(f, g)
    assert len(prs) == 1
    assert got == (h if h[-1] > 0 else [-c for c in h])
    assert _mul(got, qf) == f and _mul(got, qg) == g


def test_a_parse_past_the_heuristic_points_cancels_through_subresultants(monkeypatch):
    """Roots of about 13 960 bits leave _xi_schedule no point for a gcd of
    degree up to 301, so the parse cancels x^300 + 1 through the dense
    gcd's subresultant fallback; the planted input of tests/test_reach.py
    and of CI's certificate tail."""
    from ratforms.ratfun import parse

    prs = []
    fallback = poly_module._prs_gcd
    monkeypatch.setattr(poly_module, "_prs_gcd", lambda *a: prs.append(a) or fallback(*a))
    a, b = 10**4201 + 7, 3 * 10**4201 + 1
    f = parse(f"((x^300+1)*(x+{a}))/((x^300+1)*(x+{b}))*y", ("x", "y"))
    assert prs
    assert f == parse(f"(x+{a})*y/(x+{b})", ("x", "y"))


def test_gcd_of_univariate_inputs_keeps_content_sign_and_monomials(monkeypatch):
    """gcd_int on two inputs in one shared variable runs the dense gcd, and
    takes the monomial content out first and the sign and integer content
    last, as it does for every input."""
    def unused(*_):
        raise AssertionError("multivariate gcd path taken")

    rng = random.Random(3004)
    for arity in (1, 2, 3):
        for _ in range(30):
            v = rng.randrange(arity)
            g = _uni(rng, v, arity, 1, 3)
            a, b = _uni(rng, v, arity, 1, 3), _uni(rng, v, arity, 1, 3)
            mono = [0] * arity
            mono[v] = rng.randint(0, 2)
            x = Poly({tuple(mono): rng.choice((-6, -1, 2, 15))}, arity)
            f, h = (x * g * a).ints, (g * b * x * x).ints
            want = _reference_gcd(f, h, v, arity)
            monkeypatch.setattr(poly_module, "_heu_gcd", unused)
            monkeypatch.setattr(poly_module, "_gcd_degree_bound", unused)
            got = gcd_int(f, h, arity)
            monkeypatch.undo()
            assert got == want
            lead = got[max(got, key=grlex_key)]
            assert lead > 0 and reduce(gcd, got.values()) == 1


def test_compiled_forms_read_the_degrees_once(monkeypatch):
    rng = random.Random(3005)
    p = 1000003
    q = Poly(_random_terms(rng, 3, 8), 3) + Poly.variable(0, 3)
    pair = ((5, 7, 9), (2, 4, 6))
    want = q.eval_grad_mod(pair, p)
    monkeypatch.setattr(poly_module, "_deg_in", lambda *_: pytest.fail("degrees read again"))
    assert q.eval_grad_mod(pair, p) == want
    assert q.eval_mod((5, 7, 9), 1000033) == q.eval_mod((5, 7, 9), 1000033)
    bad = Poly({(1, 0, 0): Fraction(1, p)}, 3)
    with pytest.raises(BadPrimeError):
        bad.eval_mod((5, 7, 9), p)
