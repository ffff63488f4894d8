"""Tests for parsing and exact rational-function arithmetic."""

from __future__ import annotations

import random
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest

from synth import bench_corpus, partial_ratio
from ratforms import ratfun
from ratforms.modular import DEFAULT_PRIMES, RETRIES
from ratforms.poly import Poly, grlex_key
from ratforms.ratfun import (
    ParseError,
    PoleError,
    RatFun,
    compose_numerator,
    parse,
    pole_free,
)

BI = ("x", "y")
TRI = ("x", "y", "z")


# -- parsing ----------------------------------------------------------------


def test_parse_literal_fraction_of_polynomials():
    f = parse("(x+y)/(y+z)", TRI)
    assert f.num == parse("x+y", TRI).num
    assert f.den == parse("y+z", TRI).num


def test_parse_reduces_common_factors():
    f = parse("x/x", ("x",))
    assert f.is_constant and f.constant_value() == 1


def test_parse_cancellation_to_zero():
    assert parse("x^2*y - y*x^2", BI).is_zero


def test_parse_rational_coefficients_and_unary_minus():
    f = parse("-x + 1/2", ("x",))
    assert f.eval_q((Fraction(0),)) == Fraction(1, 2)
    assert f.eval_q((Fraction(1),)) == Fraction(-1, 2)


def test_parse_precedence_power_over_product_over_sum():
    f = parse("2*x^3 + y", BI)
    assert f.eval_q((Fraction(2), Fraction(1))) == 17


def test_parse_errors_are_position_annotated():
    with pytest.raises(ParseError) as err:
        parse("x + (y", BI)
    assert err.value.pos == 6
    with pytest.raises(ParseError):
        parse("x + w", BI)


@pytest.mark.parametrize(
    "names, message",
    [
        (("x", "2"), "'2' is not an identifier"),
        (("x", "y z"), "'y z' is not an identifier"),
        (("x", ""), "'' is not an identifier"),
        (("x", "x"), "duplicate variable names"),
    ],
)
def test_parse_rejects_names_it_cannot_read(names, message):
    with pytest.raises(ValueError, match=message):
        parse("x", names)
    with pytest.raises(ParseError):
        parse("x / (y - y)", BI)
    with pytest.raises(ParseError):
        parse("x ^ y", BI)


def _tri_vars():
    return tuple(RatFun.variable(i, 3) for i in range(3))


# Each expression beside the same function built with RatFun operators,
# which reduce at every node.  The parser keeps polynomial subtrees as Polys
# and quotients unreduced, and reduces once at the end: the result must be
# the same reduced num/den.
PER_NODE_REDUCED = (
    ("1/(x+1) - 1/(x+1)", lambda x, y, z: 1 / (x + 1) - 1 / (x + 1)),
    ("(x^2-1)/(x-1)", lambda x, y, z: (x**2 - 1) / (x - 1)),
    (
        "((x+y)/(y+z))^3/((x+y)/(y+z))",
        lambda x, y, z: ((x + y) / (y + z)) ** 3 / ((x + y) / (y + z)),
    ),
    ("0/x", lambda x, y, z: RatFun.const(0, 3) / x),
    ("5/6*y^2", lambda x, y, z: RatFun.const(5, 3) / 6 * y**2),
    ("-(-x)", lambda x, y, z: -(-x)),
    ("2^0", lambda x, y, z: RatFun.const(2, 3) ** 0),
    ("x/(2/3) - 3/2*x", lambda x, y, z: x / (RatFun.const(2, 3) / 3) - RatFun.const(3, 3) / 2 * x),
    ("(1/x + 1/y)^2*x^2*y", lambda x, y, z: (1 / x + 1 / y) ** 2 * x**2 * y),
    ("(x-y)/(y-x) + z/(y*z)", lambda x, y, z: (x - y) / (y - x) + z / (y * z)),
)


@pytest.mark.parametrize("expr,build", PER_NODE_REDUCED)
def test_parse_matches_per_node_reduction(expr, build):
    f = parse(expr, TRI)
    want = build(*_tri_vars())
    assert f.canonical and want.canonical
    assert f.num == want.num
    assert f.den == want.den


NINES = "9" * 5000
TOO_LONG = "integer of more than 4300 digits"
# read with int()'s digit limit lowered to 640 (PYTHONINTMAXSTRDIGITS=640)
LOWERED_LIMIT = 640
UNDER_LOWERED_LIMIT = f"x^{'9' * 700}*y"


@pytest.mark.parametrize(
    "expr,message",
    (
        ("x/(y-y)", "division by the zero polynomial (at position 1)"),
        ("(x+1)/((1/y)-(1/y))", "division by the zero polynomial (at position 5)"),
        ("2*x/(0/y)", "division by the zero polynomial (at position 3)"),
        ("x^1048577", "exponent 1048577 too large (at position 2)"),
        # errors inside products: a zero or unknown divisor, a bad exponent,
        # a missing or stray factor, a character outside the grammar
        ("x/0", "division by the zero polynomial (at position 1)"),
        ("x/-0^1", "division by the zero polynomial (at position 1)"),
        ("2*x/0*w", "division by the zero polynomial (at position 3)"),
        ("x^y", "exponent must be a nonnegative integer (at position 2)"),
        ("x/y^w", "exponent must be a nonnegative integer (at position 4)"),
        ("y*x^1048577", "exponent 1048577 too large (at position 4)"),
        ("x/2^1048577", "exponent 1048577 too large (at position 4)"),
        ("x*", "unexpected token 'end of input' (at position 2)"),
        ("x*-", "unexpected token 'end of input' (at position 3)"),
        ("x*/y", "unexpected token '/' (at position 2)"),
        ("2x", "unexpected token 'x' (at position 1)"),
        ("x^2^3", "unexpected token '^' (at position 3)"),
        ("3 $ x", "unrecognized character '$' (at position 2)"),
        ("x/0*$", "unrecognized character '$' (at position 4)"),
        ("x/w", "unknown identifier 'w' (at position 2)"),
        ("x/2*w", "unknown identifier 'w' (at position 4)"),
        # inside one monomial token: a name before its exponent, and a
        # divisor with its power before the factors after it
        ("xy^", "unknown identifier 'xy' (at position 0)"),
        ("xx^1048577", "unknown identifier 'xx' (at position 0)"),
        ("2/0^1*x", "division by the zero polynomial (at position 1)"),
        # an integer longer than int() reads is an error at its first digit:
        # an exponent, a power of a parenthesis, a coefficient, a divisor
        pytest.param(f"x^{NINES}*y", f"{TOO_LONG} (at position 2)", id="long-exponent"),
        pytest.param(f"(x+y)^{NINES}", f"{TOO_LONG} (at position 6)", id="long-power"),
        pytest.param(f"{NINES}*x*y", f"{TOO_LONG} (at position 0)", id="long-coefficient"),
        pytest.param(f"x*y/{NINES}", f"{TOO_LONG} (at position 4)", id="long-divisor"),
        # the guard reads the interpreter's limit, not the default one
        pytest.param(
            UNDER_LOWERED_LIMIT,
            f"integer of more than {LOWERED_LIMIT} digits (at position 2)",
            id="long-under-lowered-limit",
        ),
        # an error before it, a shorter integer, leading zeros included, and a
        # name with any number of digits keep their messages
        pytest.param(
            f"x/0*{NINES}", "division by the zero polynomial (at position 1)", id="zero-before-long"
        ),
        pytest.param(
            "x^" + "9" * 4300,
            f"exponent {'9' * 4300} too large (at position 2)",
            id="exponent-4300-digits",
        ),
        pytest.param(
            "x^" + "0" * 4290 + "1048577",
            "exponent 1048577 too large (at position 2)",
            id="exponent-leading-zeros",
        ),
        pytest.param(
            f"x*w{NINES}", f"unknown identifier 'w{NINES}' (at position 2)", id="long-name"
        ),
    ),
)
def test_parse_error_messages_and_positions(expr, message):
    with _int_digit_limit(LOWERED_LIMIT if expr == UNDER_LOWERED_LIMIT else None):
        with pytest.raises(ParseError) as err:
            parse(expr, TRI)
    assert str(err.value) == message


@contextmanager
def _int_digit_limit(limit):
    """int()'s digit limit set to limit (None: left as it is) for the block."""
    if limit is None:
        yield
        return
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int() digit limit")
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(default)


def _c(n) -> Poly:
    return Poly.const(n, 3)


# Products of integer and variable factors, each beside the same product
# built factor by factor with Poly (or, for a quotient, RatFun) arithmetic.
PRODUCTS = (
    ("2*x*3", lambda x, y, z: _c(2) * x * _c(3)),
    ("x/2/3*y", lambda x, y, z: x.scale(Fraction(1, 2)).scale(Fraction(1, 3)) * y),
    ("x/y*2", lambda x, y, z: RatFun.from_poly(x) / RatFun.from_poly(y) * 2),
    ("2^3*x", lambda x, y, z: _c(2) ** 3 * x),
    ("x/2^3", lambda x, y, z: x.scale(1 / (_c(2) ** 3).constant_value())),
    ("0*x", lambda x, y, z: _c(0) * x),
    ("x^0*y", lambda x, y, z: x**0 * y),
    ("x*-y", lambda x, y, z: x * -y),
    ("(x+1)/2*y^2/3", lambda x, y, z: (x + 1).scale(Fraction(1, 2)) * y**2 * Fraction(1, 3)),
    ("-2^2*x/-z^3*z", lambda x, y, z: RatFun.from_poly(-(_c(2) ** 2) * x) / -(z**3) * z),
    ("x/y^0*--3", lambda x, y, z: x * _c(3)),
    # forms that straddle a monomial token: left-associative '/', a power
    # on a denominator, and a coefficient after a variable
    ("x/y*z", lambda x, y, z: RatFun.from_poly(x) / RatFun.from_poly(y) * z),
    ("2/3*x", lambda x, y, z: _c(2).scale(Fraction(1, 3)) * x),
    ("2/3^2*x", lambda x, y, z: _c(2).scale(1 / (_c(3) ** 2).constant_value()) * x),
    ("x*2/3*y", lambda x, y, z: (x * _c(2)).scale(Fraction(1, 3)) * y),
    ("160/9*x^2*y^4*z^9", lambda x, y, z: _c(160).scale(Fraction(1, 9)) * x**2 * y**4 * z**9),
    # a ^k after a monomial token binds to its last factor only
    ("1/2 ^3*x", lambda x, y, z: x.scale(Fraction(1, 8))),
    ("x*y ^2", lambda x, y, z: x * y**2),
)


@pytest.mark.parametrize("expr,build", PRODUCTS)
def test_parse_products_match_factor_by_factor_arithmetic(expr, build):
    want = build(*(Poly.variable(i, 3) for i in range(3)))
    if isinstance(want, Poly):
        want = RatFun.from_poly(want)
    got = parse(expr, TRI)
    assert got.num == want.num and got.den == want.den


def test_parse_long_sum_matches_term_by_term_arithmetic():
    rng = random.Random(23)
    text = "0"
    want = Poly.zero(3)
    for _ in range(520):
        c = Fraction(rng.randint(0, 40), rng.choice([1, 1, 2, 3, 7, 12]))
        e = tuple(rng.randint(0, 4) for _ in range(3))
        sign = rng.choice("+-")
        text += f" {sign} {c}*x^{e[0]}*y^{e[1]}*z^{e[2]}"
        term = Poly({e: c}, 3)
        want = want + term if sign == "+" else want - term
    f = parse(text, TRI)
    assert len(want.ints) > 100
    assert f.num == want and f.den == Poly.const(1, 3)
    # a quotient among the terms keeps the same function
    g = parse(text + " + 1/(x + y)", TRI)
    assert g == RatFun.from_poly(want) + 1 / (RatFun.variable(0, 3) + RatFun.variable(1, 3))


@pytest.mark.parametrize(
    "base, n",
    [("-2/3*x^2*y", 3), ("-x", 4), ("7/5*z^3", 1), ("3/5*z", 0), ("-1/2", 5), ("0", 0), ("0", 3)],
)
def test_parse_single_term_powers_match_repeated_products(base, n):
    b = parse(base, TRI).num
    want = Poly.const(1, 3)
    for _ in range(n):
        want = want * b
    got = parse(f"({base})^{n}", TRI)
    assert got.num == want and got.den == Poly.const(1, 3)
    assert b**n == want


# -- arithmetic -------------------------------------------------------------


def _random_poly(rng: random.Random, arity: int, nterms: int) -> Poly:
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, 4) for _ in range(arity))
        terms[e] = Fraction(rng.randint(-60, 60), rng.choice([1, 1, 2, 3, 9, 14]))
    return Poly(terms, arity)


def _printed(p: Poly, names: tuple[str, ...]) -> str:
    """Poly.to_str's format, read off the Fraction view: the reference."""
    pieces = []
    for e in sorted(p.terms, key=grlex_key, reverse=True):
        c = p.terms[e]
        mono = "*".join(n if v == 1 else f"{n}^{v}" for n, v in zip(names, e) if v)
        piece = str(abs(c)) if not mono else mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        pieces.append(("- " if c < 0 else "+ ") + piece)
    text = " ".join(pieces) or "+ 0"
    return text[2:] if text[0] == "+" else "-" + text[2:]


def test_printed_forms_read_back_in_printed_order():
    """Polynomials and quotients with rational coefficients, printed one
    monomial per term, read back to the same function and text, with the
    reference content and the terms in printed (descending grlex) order."""
    rng = random.Random(26)
    for _ in range(80):
        arity = rng.randint(1, 3)
        names = TRI[:arity]
        num = _random_poly(rng, arity, rng.randint(0, 14))
        den = _random_poly(rng, arity, rng.randint(1, 6))
        if den.is_zero:
            continue
        for f in (RatFun.from_poly(num), RatFun(num, den)):
            text = f.to_str(names)
            for p in (f.num, f.den):
                assert p.to_str(names) == _printed(p, names)
            got = parse(text, names)
            assert got == f and got.to_str(names) == text
            for a, b in ((got.num, f.num), (got.den, f.den)):
                assert a.content == b.content and a.ints == b.ints
                assert list(a.ints) == sorted(b.ints, key=grlex_key, reverse=True)


def test_generated_benchmark_inputs_read_as_the_num_and_den_they_print(monkeypatch):
    """Every generated input of the three workloads reads back as exactly
    the coprime num/den it was printed from, denominator made monic."""
    corpus = bench_corpus(monkeypatch)
    checked = 0
    for workload in sorted(corpus.WORKLOADS):
        for it in corpus.build(workload, 1):
            if it.num is None:
                continue
            arity = len(it.names)
            want = RatFun.coprime(Poly(it.num, arity), Poly(it.den, arity))
            got = parse(it.expr, it.names)
            assert (got.num, got.den) == (want.num, want.den), it.expr
            checked += 1
    assert checked > 400


def test_powers_of_a_canonical_function_need_no_gcd(monkeypatch):
    # powers of a coprime num and den stay coprime, and a grlex lead of 1
    # stays 1, so f**n of a canonical f is the reduced fraction at no gcd
    rng = random.Random(40)

    def poly():
        terms = {(rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))
                 for _ in range(rng.randint(1, 4))}
        return Poly(terms, 2)

    fs = [RatFun.const(0, 2)] + [RatFun(poly(), poly()) for _ in range(24)]
    real, calls = ratfun.poly_gcd, []
    monkeypatch.setattr(ratfun, "poly_gcd", lambda a, b: calls.append((a, b)) or real(a, b))
    got = [(f, n, f**n) for f in fs for n in range(-3, 4) if n >= 0 or not f.is_zero]
    assert not calls
    monkeypatch.undo()
    for f, n, g in got:
        want = RatFun(f.num**n, f.den**n) if n >= 0 else RatFun(f.den**-n, f.num**-n)
        assert g.canonical and (g.num, g.den) == (want.num, want.den)
    assert len(got) == 7 * 25 - 3


def test_coprime_of_a_zero_numerator_is_the_canonical_zero():
    # as scale does: 0/(x + 1) is the zero function, over 1
    x = Poly.variable(0, 2)
    for den in (x + 1, Poly.const(3, 2), x * x - 2):
        f = RatFun.coprime(Poly.zero(2), den)
        assert f.canonical and f.is_zero and f.is_constant
        assert (f.num, f.den) == (Poly.zero(2), Poly.const(1, 2))
        assert f == RatFun.const(0, 2) and f.to_str(BI) == "0"
    with pytest.raises(ZeroDivisionError):
        RatFun.coprime(Poly.zero(2), Poly.zero(2))


def test_arith_add_and_factor_cancelling_division():
    x, y = RatFun.variable(0, 2), RatFun.variable(1, 2)
    assert x + y == parse("x+y", BI)
    q = parse("x^2-y^2", BI) / parse("x-y", BI)
    assert q == parse("x+y", BI)


def test_arith_sub_self_is_zero():
    for expr in ("x*y + 1", "(x+y)/(x-y)", "x^4/(y+2)"):
        f = parse(expr, BI)
        assert (f - f).is_zero


def test_division_by_zero_function_raises():
    with pytest.raises(ZeroDivisionError):
        parse("x", BI) / parse("x - x", BI)


# -- differentiation --------------------------------------------------------


def test_partial_quotient_rule_example():
    f = parse("(x+y)/(y+z)", TRI)
    assert f.partial(0) == parse("1/(y+z)", TRI)


def test_partial_power_example():
    f = parse("x*(y+z)^3", TRI)
    assert f.partial(1) == parse("3*x*(y+z)^2", TRI)


def test_partial_of_constant_is_zero():
    assert RatFun.const(7, 3).partial(0).is_zero


def test_partials_commute():
    rng = random.Random(2)
    for expr in ("(x+y)/(y+z)", "x^2*y*z + 1/(x+1)", "(x*y - z)/(x + y^2)"):
        f = parse(expr, TRI)
        i, j = rng.sample(range(3), 2)
        assert f.partial(i).partial(j) == f.partial(j).partial(i)


# -- evaluation -------------------------------------------------------------


def test_eval_rational_point():
    f = parse("(x+y)/(y+z)", TRI)
    assert f.eval_q((Fraction(1), Fraction(2), Fraction(3))) == Fraction(3, 5)


def test_eval_pole_raises():
    with pytest.raises(PoleError):
        parse("1/x", ("x",)).eval_q((Fraction(0),))


def test_eval_modular_point():
    p = 2**31 - 1
    assert parse("x*y", BI).eval_mod((3, 4), p) == 12
    assert parse("x/y", BI).eval_mod((3, 4), p) == 3 * pow(4, -1, p) % p
    # rational coefficients map to GF(p) as numerator * denominator^-1
    want = (3 * pow(4, -1, 101) - pow(2, -1, 101)) % 101
    assert parse("3/4*x - 1/2", BI).eval_mod((1, 0), 101) == want


def test_pole_free_redraws_a_pole_in_draw_order():
    # mod 5 a quarter of the draws hit the pole x = 1 of f
    f = parse("1/(x - 1) + y", BI)
    got = list(pole_free(lambda w: (w, f.eval_mod(w, 5)), 2, 40, 5, random.Random(0)))
    ref, rng = [], random.Random(0)
    while len(ref) < 40:
        w = (rng.randrange(1, 5), rng.randrange(1, 5))
        if w[0] != 1:
            ref.append((w, f.eval_mod(w, 5)))
    assert got == ref
    # a point whose draws all hit a pole gives None, and nothing more is
    # drawn until the next point is asked for
    def pole(w):
        raise PoleError("pole")

    rng, ref = random.Random(0), random.Random(0)
    points = pole_free(pole, 2, 3, 5, rng)
    assert next(points) is None
    for _ in range(2 * RETRIES):
        ref.randrange(1, 5)
    assert rng.random() == ref.random()
    assert list(points) == [None, None]


def test_eval_is_a_homomorphism():
    rng = random.Random(4)
    a = parse("(x + 2*y)/(y + 3)", BI)
    b = parse("x*y - 1", BI)
    ops = (lambda u, v: u + v, lambda u, v: u - v,
           lambda u, v: u * v, lambda u, v: u / v)
    done = 0
    while done < 12:
        pt = (Fraction(rng.randint(-20, 20)), Fraction(rng.randint(-20, 20)))
        for op in ops:
            try:
                want = op(a.eval_q(pt), b.eval_q(pt))
                got = op(a, b).eval_q(pt)
            except (PoleError, ZeroDivisionError):
                continue
            assert got == want
            done += 1


# -- substitution -----------------------------------------------------------


def test_substitute_function_value():
    # x^2 at x = y + 1, as the composition numerator of the slot polynomial t^2
    t2 = Poly({(2,): Fraction(1)}, 1)
    assert compose_numerator(t2, [parse("y+1", BI)]) == parse("y^2 + 2*y + 1", BI).num


# -- identity testing -------------------------------------------------------


def test_is_zero_on_log_separability_witness():
    h = parse("x/y", BI)
    hx, hy = h.partial(0), h.partial(1)
    hxy = hx.partial(1)
    assert (h * hxy - hx * hy).is_zero


def test_is_zero_basic_cases():
    assert parse("x + y - y - x", BI).is_zero
    assert not parse("x - y", BI).is_zero


def test_canonicality_matches_modular_sampling():
    """f == g as canonical forms iff they agree at random modular points."""
    rng = random.Random(6)
    pool = [parse(e, BI) for e in (
        "(x^2 - y^2)/(x - y)", "x + y", "x*y/(x + y)",
        "(x^3 + x*y)/(x^2 + y)", "x/(y + 1) + y",
    )]
    for f in pool:
        for g in pool:
            same = (f - g).is_zero
            agree = True
            for p in DEFAULT_PRIMES:
                hits = 0
                while hits < 20:
                    pt = (rng.randrange(1, p), rng.randrange(1, p))
                    try:
                        lhs = f.eval_mod(pt, p)
                        rhs = g.eval_mod(pt, p)
                    except PoleError:
                        continue
                    hits += 1
                    if lhs != rhs:
                        agree = False
                        break
                if not agree:
                    break
            assert same == agree


def test_ring_axioms_hold_at_representation_level():
    a = parse("(x + y)/(x - y + 3)", BI)
    b = parse("x*y - 2", BI)
    c = parse("1/(y + 5)", BI)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


# -- helpers used by the fitters ---------------------------------------------


def test_partial_ratio_is_quotient_of_partials():
    f = parse("x*(y+z)^3", TRI)
    h = partial_ratio(f, 0, 1)
    assert h == parse("(y+z)/(3*x)", TRI)


def test_compose_numerator_vanishes_iff_relation_holds():
    P = parse("(x+y)^2", BI)
    s = parse("x+y", BI)
    rel = Poly({(1, 0): Fraction(1), (0, 2): Fraction(-1)}, 2)  # p - q^2
    assert compose_numerator(rel, [P, s]).is_zero
    bad = Poly({(1, 0): Fraction(1), (0, 2): Fraction(1)}, 2)
    assert not compose_numerator(bad, [P, s]).is_zero


@pytest.mark.parametrize("c", [Fraction(-3, 7), -2, 0, Fraction(5, 6), 4, 1])
@pytest.mark.parametrize("expr", ["(x^2 - y)/(3*x*y + 2)", "x + y/2", "0", "(x - 1)/(x^2 - 1)"])
def test_scale_of_canonical_and_raw_functions_matches_the_reduce_path(expr, c):
    names = ("x", "y")
    f = parse(expr, names)
    raw = RatFun.raw(f.num * (Poly.variable(0, 2) + 5), f.den * (Poly.variable(0, 2) + 5))
    want = RatFun(f.num.scale(c), f.den)
    assert f.canonical and not raw.canonical
    for g in (f, raw):
        got = g.scale(c)
        assert got.canonical and (got.num, got.den) == (want.num, want.den)
