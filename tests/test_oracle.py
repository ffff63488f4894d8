"""Tests for the exact symbolic rank oracle and the annihilator search."""

from __future__ import annotations

from fractions import Fraction

import pytest

from ratforms.dimension import doubling_map, generic_rank
from ratforms.oracle import (
    MAX_ORACLE_DEGREE,
    OracleGuardError,
    annihilating_poly,
    composition_relation,
    symbolic_rank,
)
from ratforms.ratfun import compose_numerator, parse

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
            dm = doubling_map(parse(expr, names))
            assert generic_rank(dm).rank == symbolic_rank(dm)


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
