"""Tests for parsing and exact rational-function arithmetic."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ratforms.modular import DEFAULT_PRIMES, PrimeCtx
from ratforms.ratfun import (
    DegenerateSpecializationError,
    ParseError,
    PoleError,
    RatFun,
    arith,
    compose_numerator,
    evaluate,
    parse,
    partial,
    partial_ratio,
    substitute,
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


@pytest.mark.parametrize(
    "expr,message",
    (
        ("x/(y-y)", "division by the zero polynomial (at position 1)"),
        ("(x+1)/((1/y)-(1/y))", "division by the zero polynomial (at position 5)"),
        ("2*x/(0/y)", "division by the zero polynomial (at position 3)"),
        ("x^1048577", "exponent 1048577 too large (at position 2)"),
    ),
)
def test_parse_error_messages_and_positions(expr, message):
    with pytest.raises(ParseError) as err:
        parse(expr, TRI)
    assert str(err.value) == message


# -- arithmetic -------------------------------------------------------------


def test_arith_add_and_factor_cancelling_division():
    x, y = RatFun.variable(0, 2), RatFun.variable(1, 2)
    assert arith("add", x, y) == parse("x+y", BI)
    q = arith("div", parse("x^2-y^2", BI), parse("x-y", BI))
    assert q == parse("x+y", BI)


def test_arith_sub_self_is_zero():
    for expr in ("x*y + 1", "(x+y)/(x-y)", "x^4/(y+2)"):
        f = parse(expr, BI)
        assert arith("sub", f, f).is_zero


def test_division_by_zero_function_raises():
    with pytest.raises(ZeroDivisionError):
        arith("div", parse("x", BI), parse("x - x", BI))


# -- differentiation --------------------------------------------------------


def test_partial_quotient_rule_example():
    f = parse("(x+y)/(y+z)", TRI)
    assert partial(f, 0) == parse("1/(y+z)", TRI)


def test_partial_power_example():
    f = parse("x*(y+z)^3", TRI)
    assert partial(f, 1) == parse("3*x*(y+z)^2", TRI)


def test_partial_of_constant_is_zero():
    assert partial(RatFun.const(7, 3), 0).is_zero


def test_partials_commute():
    rng = random.Random(2)
    for expr in ("(x+y)/(y+z)", "x^2*y*z + 1/(x+1)", "(x*y - z)/(x + y^2)"):
        f = parse(expr, TRI)
        i, j = rng.sample(range(3), 2)
        assert partial(partial(f, i), j) == partial(partial(f, j), i)


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
    ctx = PrimeCtx(p, 0)
    assert evaluate(parse("x*y", BI), (3, 4), ctx) == 12
    assert evaluate(parse("x*y", BI), (Fraction(3), Fraction(4))) == 12


def test_eval_is_a_homomorphism():
    rng = random.Random(4)
    a = parse("(x + 2*y)/(y + 3)", BI)
    b = parse("x*y - 1", BI)
    ops = {"add": lambda u, v: u + v, "sub": lambda u, v: u - v,
           "mul": lambda u, v: u * v, "div": lambda u, v: u / v}
    done = 0
    while done < 12:
        pt = (Fraction(rng.randint(-20, 20)), Fraction(rng.randint(-20, 20)))
        for name, op in ops.items():
            try:
                want = op(a.eval_q(pt), b.eval_q(pt))
                got = arith(name, a, b).eval_q(pt)
            except (PoleError, ZeroDivisionError):
                continue
            assert got == want
            done += 1


# -- substitution -----------------------------------------------------------


def test_substitute_scalar():
    f = parse("(x+y)/(y+z)", TRI)
    assert substitute(f, {2: 0}) == parse("(x+y)/y", TRI)


def test_substitute_empty_assignment_is_identity():
    f = parse("(x+y)/(y+z)", TRI)
    assert substitute(f, {}) == f


def test_substitute_function_value():
    f = parse("x^2", BI)
    assert substitute(f, {0: parse("y+1", BI)}) == parse("y^2 + 2*y + 1", BI)


def test_substitute_onto_identical_pole_is_degenerate():
    f = parse("1/(x - y)", BI)
    with pytest.raises(DegenerateSpecializationError):
        substitute(f, {0: parse("y", BI)})


# -- identity testing -------------------------------------------------------


def test_is_zero_on_log_separability_witness():
    h = parse("x/y", BI)
    hx, hy = partial(h, 0), partial(h, 1)
    hxy = partial(hx, 1)
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
    h = partial_ratio(f, 0, 1, reduce=True)
    assert h == parse("(y+z)/(3*x)", TRI)


def test_compose_numerator_vanishes_iff_relation_holds():
    from ratforms.poly import Poly

    P = parse("(x+y)^2", BI)
    s = parse("x+y", BI)
    rel = Poly({(1, 0): Fraction(1), (0, 2): Fraction(-1)}, 2)  # p - q^2
    assert compose_numerator(rel, [P, s]).is_zero
    bad = Poly({(1, 0): Fraction(1), (0, 2): Fraction(1)}, 2)
    assert not compose_numerator(bad, [P, s]).is_zero
