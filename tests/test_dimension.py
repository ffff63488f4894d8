"""Tests for the doubling map, generic rank, and the constraint predicates."""

from __future__ import annotations

import random
from math import inf

import pytest

from ratforms.classify import classify_trivariate
from ratforms.dimension import (
    _budget,
    _jacobian_rows,
    doubling_map,
    image_dimension,
    is_nondegenerate,
)
from ratforms.modular import DEFAULT_PRIMES
from ratforms.oracle import symbolic_rank
from ratforms.ratfun import PoleError, RatFun, parse, pole_free_values

BI = ("x", "y")
TRI = ("x", "y", "z")
AMB4 = ("x0", "y0", "x1", "y1")
AMB6 = ("x0", "y0", "z0", "x1", "y1", "z1")


# -- doubling map construction ------------------------------------------------


def test_doubling_map_components_additive():
    dm = doubling_map(parse("x+y", BI))
    assert dm.n == 2 and len(dm.components) == 4
    want = ("x0+y0", "x1+y0", "x0+y1", "x1+y1")
    for comp, expr in zip(dm.components, want):
        assert comp == parse(expr, AMB4)


def test_doubling_map_univariate_identity():
    dm = doubling_map(RatFun.variable(0, 1))
    assert len(dm.components) == 2
    assert dm.components[0] == parse("v0", ("v0", "v1"))
    assert dm.components[1] == parse("v1", ("v0", "v1"))


def test_doubling_map_trivariate_component_index_5():
    dm = doubling_map(parse("(x+y)/(y+z)", TRI))
    assert len(dm.components) == 8
    # index 5 = binary 101: bits 0 and 2 set, so x and z use the 1-copy
    assert dm.components[5] == parse("(x1+y0)/(y0+z1)", AMB6)


# -- generic rank ---------------------------------------------------------------


def test_generic_rank_forced_constraints():
    assert image_dimension(parse("x+y", BI)) == 3
    assert image_dimension(parse("x*y", BI)) == 3


def test_generic_rank_twisted_is_4():
    assert image_dimension(parse("(x+y)/(y+z)", TRI)) == 4


def test_generic_rank_unconstrained_bivariate():
    assert image_dimension(parse("x + y + x^2*y^3", BI)) == 4


def test_generic_rank_all_poles_is_surfaced():
    # mod 5 every value of x^5 - x is 0 and mod 11 every value of x^11 - x
    # is 0, so each prime sees only poles: no rank, rather than one made up
    f = parse("y + 1/((x^5 - x)*(x^11 - x))", BI)
    assert image_dimension(f, primes=(5, 11), samples=4) is None
    # the sampler the rank draws through gives None for such a point
    assert pole_free_values([f], 1, 5, random.Random(0)) is None
    # an empty sample budget is a usage error, not a function of poles,
    # also where a certified fit never reaches the rank
    with pytest.raises(ValueError, match="samples"):
        image_dimension(f, samples=0)
    with pytest.raises(ValueError, match="samples"):
        classify_trivariate(parse("x+y+z", TRI), samples=0)


def _exact_rows(f: RatFun, w: list[int], p: int) -> list[list[int]] | None:
    """Doubling-map Jacobian rows from the exact partials of f, mod p, row b
    scaled by D(w_b)^2, or None at a pole."""
    n = f.arity
    partials = [f.partial(i) for i in range(n)]
    rows = []
    for b in range(1 << n):
        cols = [i + n * ((b >> i) & 1) for i in range(n)]
        sub = [w[c] for c in cols]
        dv = f.den.eval_mod(sub, p)
        if dv == 0:
            return None
        row = [0] * (2 * n)
        for i, c in enumerate(cols):
            row[c] = partials[i].eval_mod(sub, p) * dv * dv % p
        rows.append(row)
    return rows


@pytest.mark.parametrize(
    "expr,names",
    (
        ("x + y + x^2*y^3", BI),
        ("(x^2*y + 3)/(x - y^2 + 5)", BI),
        ("(x+y)/(y+z)", TRI),
        ("x*(y+z)^3/(x^2 + z + 7)", TRI),
        ("(x^2+1)*(y^2+1)*z - 4/3*x*y", TRI),
    ),
)
@pytest.mark.parametrize("p", DEFAULT_PRIMES)
def test_compiled_jacobian_matches_exact_partials(expr, names, p):
    f = parse(expr, names)
    rng = random.Random(f"{expr}:{p}")
    arity = 2 * f.arity
    points = [[rng.randrange(1, p) for _ in range(arity)] for _ in range(6)]
    for slot in range(arity):  # a zero coordinate in every slot
        w = [rng.randrange(1, p) for _ in range(arity)]
        w[slot] = 0
        points.append(w)
    points.append([0] * arity)
    for w in points:
        rows = _exact_rows(f, w, p)
        if rows is None:
            with pytest.raises(PoleError):
                _jacobian_rows(f, w, p)
        else:
            assert _jacobian_rows(f, w, p) == rows


# -- rank sample budget ---------------------------------------------------------


@pytest.mark.parametrize(
    "expr,names,primes,want",
    (
        # e = 1 and 2n*e = 6, so k = ceil(64 / log2((p-1)/6)) at the worse prime
        ("x*y + z", TRI, DEFAULT_PRIMES, 3),
        ("x*y + z", TRI, (251, 241), 13),
        ("x*y + z", TRI, (13, 11), 87),  # past the default budget of 16
        # deg D = 3, e = 2 and 2n*e = 12; the poles take 2^3*3 = 24 of p - 1,
        # so k = ceil(64 / log2(216/12)) = 16, not ceil(64 / log2(240/12)) = 15
        ("1/(x*y*z + 1)", TRI, (251, 241), 16),
        ("(x+y)/(y+z)", TRI, (13, 11), inf),  # 12 - 2^3 <= 6: vacuous
        # e = 0: the minors are constants, so one sample decides
        ("x + y + z", TRI, (13, 11), 1),
        ("x - y", BI, (13, 11), 1),
    ),
)
def test_rank_budget_meets_the_schwartz_zippel_bound(expr, names, primes, want):
    assert _budget(parse(expr, names), primes) == want


def _counted_primes(monkeypatch) -> list[int]:
    """The prime of every rank the sampler computes from now on, in order."""
    import ratforms.dimension as dimension

    primes, real = [], dimension.rank_mod
    monkeypatch.setattr(dimension, "rank_mod", lambda rows, p: primes.append(p) or real(rows, p))
    return primes


def test_a_constant_jacobian_takes_one_sample_per_prime(monkeypatch):
    primes = _counted_primes(monkeypatch)
    assert image_dimension(parse("x + y + z", TRI), primes=(13, 11)) == 4
    assert primes == [13, 11]


@pytest.mark.parametrize("samples, want", ((16, None), (87, 5)))
def test_a_dimension_below_full_needs_the_whole_budget(monkeypatch, samples, want):
    # at (13, 11) x*y + z needs k = 87 points per prime: 16 leave no bound,
    # so no dimension, and 87 give its dimension 5
    primes = _counted_primes(monkeypatch)
    assert image_dimension(parse("x*y + z", TRI), primes=(13, 11), samples=samples) == want
    assert primes == [13] * samples + [11] * samples


@pytest.mark.parametrize("expr,names", (("x + y + x^2*y^3", BI), ("x + y + z + x^2*y^2*z^2", TRI)))
def test_a_full_rank_sample_decides_under_a_vacuous_budget(monkeypatch, expr, names):
    f = parse(expr, names)
    assert _budget(f, (13, 11)) == inf
    primes = _counted_primes(monkeypatch)
    assert image_dimension(f, primes=(13, 11)) == 2 * f.arity
    assert primes == [13]


@pytest.mark.parametrize(
    "expr,names",
    (
        # dimension 4 through the non-splitting gap
        ("(x^2+1)*(y+z)^2", TRI),
        ("(x^2+1)*(y^2+1)*z", TRI),
        ("(x^3+1)*(y+z)", TRI),
        ("x*(y^2+1)*(z+1)", TRI),
        ("(x+1/x)*(y+z)^2", TRI),
        ("(x^2+1)/(x^2-1)*(y+z)", TRI),
        # dimension 5 (the exact rank of (x+y+z)^5 + x takes minutes)
        ("x*y + z", TRI),
        ("x^2*y + z", TRI),
        ("(x*y+1)/(x+y) + z", TRI),
        ("x^3 + x*y^3 + 1/(x-y) + z^2", TRI),
        ("x + y*z", TRI),
        # dimension 3 in two variables
        ("(x^2+1)*(y^2+2)", BI),
        ("(x^2+1)/(y^2+1)", BI),
        ("(x^3+x)/(y^2+1)", BI),
    ),
)
def test_the_budgeted_dimension_is_the_exact_rank(expr, names):
    f = parse(expr, names)
    assert image_dimension(f) == symbolic_rank(doubling_map(f)) < 2 * f.arity


def test_the_budgeted_dimension_is_the_exact_rank_on_generated_forms():
    import synth

    rng = random.Random(46)
    makers = (
        synth.make_additive,
        synth.make_multiplicative,
        lambda rng: synth.make_field(rng)[0],
        synth.make_bivariate_additive,
        synth.make_bivariate_multiplicative,
    )
    for make in makers:
        drawn = [f for f in (make(rng) for _ in range(60)) if f.total_degree() <= 3][:2]
        assert len(drawn) == 2
        for f in drawn:
            assert image_dimension(f) == symbolic_rank(doubling_map(f)) == f.arity + 1


# -- image dimension ------------------------------------------------------------


def test_image_dimension_additive_trivariate():
    assert image_dimension(parse("x+y+z", TRI)) == 4


def test_image_dimension_field_form():
    assert image_dimension(parse("x*(y+z)^3", TRI)) == 4


def test_image_dimension_unconstrained_trivariate():
    assert image_dimension(parse("x + y + z + x^2*y^2*z^2", TRI)) == 6


def test_image_dimension_scaling_invariance():
    for expr, names in (("x*y", BI), ("(x+y)/(y+z)", TRI), ("x + y + x^2*y^3", BI)):
        f = parse(expr, names)
        d = image_dimension(f)
        assert image_dimension(f * 7) == d
        assert image_dimension(f + 3) == d


def test_index_flip_symmetry_preserves_rank():
    # Swapping the 0-copy and 1-copy variable blocks permutes the doubling
    # map's components, so the generic rank cannot change.
    f = parse("(x+y)/(y+z)", TRI)
    dm = doubling_map(f)
    n = dm.n
    swap = tuple(range(n, 2 * n)) + tuple(range(n))
    flipped = [c.embed(2 * n, tuple(swap[i] for i in range(2 * n))) for c in dm.components]
    assert sorted(c.to_str(AMB6) for c in flipped) == sorted(
        c.to_str(AMB6) for c in dm.components
    )


# -- predicates -------------------------------------------------------------------


def _constrained(f: RatFun) -> bool:
    return image_dimension(f) < 2 * f.arity


def test_has_algebraic_constraint_examples():
    assert _constrained(parse("x*y", BI))
    assert _constrained(parse("(x+y)/(y+z)", TRI))
    assert not _constrained(parse("x + y^3 + x*y", BI))


def test_bivariate_composites_are_constrained():
    import random

    import synth

    rng = random.Random(21)
    for _ in range(5):
        p = synth.make_bivariate_additive(rng)
        assert _constrained(p)
        q = synth.make_bivariate_multiplicative(rng)
        assert _constrained(q)


def test_is_nondegenerate_examples():
    assert is_nondegenerate(parse("(x+y)/(y+z)", TRI))
    assert not is_nondegenerate(parse("x+y", TRI))
    assert not is_nondegenerate(RatFun.const(5, 2))


def test_is_nondegenerate_at_any_arity():
    # RatFun.independent_of is exact at every arity, so one and four
    # variables are answered as two and three are, raw fractions included
    one, four = ("x",), ("x", "y", "z", "w")
    assert is_nondegenerate(parse("(x^2 + 1)/(x - 3)", one))
    assert not is_nondegenerate(RatFun.const(2, 1))
    assert is_nondegenerate(parse("x*y*z*w + 1", four))
    assert not is_nondegenerate(parse("x*y + z", four))
    x, w = (parse(v, four).num for v in ("x", "w"))
    assert not is_nondegenerate(RatFun.raw(parse("x*y*z", four).num * (w + 1), w + 1))
    assert is_nondegenerate(RatFun.raw(parse("x*y*z", four).num * (w + 1), x + 1))


def test_is_nondegenerate_on_unreduced_inputs():
    # raw fractions may carry a variable in a cancelling common factor, so
    # they keep the exact quotient-rule test
    x, y, z = (parse(v, TRI).num for v in TRI)
    cases = (
        (RatFun.raw(x * (y + 1) * z, y + 1), False),
        (RatFun.raw(x * y * z + x * z, (y + 1) * z), False),
        (RatFun.raw((x + y) * z, y + z), True),
    )
    for f, want in cases:
        assert not f.canonical
        assert is_nondegenerate(f) is want
        assert is_nondegenerate(f.reduce()) is want
