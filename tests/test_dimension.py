"""Tests for the doubling map, generic rank, and the constraint predicates."""

from __future__ import annotations

import random

import pytest

from ratforms.dimension import (
    AllPolesError,
    _jacobian_rows,
    doubling_map,
    generic_rank,
    image_dimension,
    is_nondegenerate,
)
from ratforms.modular import DEFAULT_PRIMES
from ratforms.ratfun import RatFun, parse

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
    assert generic_rank(doubling_map(parse("x+y", BI))).rank == 3
    assert generic_rank(doubling_map(parse("x*y", BI))).rank == 3


def test_generic_rank_twisted_is_4():
    est = generic_rank(doubling_map(parse("(x+y)/(y+z)", TRI)))
    assert est.rank == 4


def test_generic_rank_unconstrained_bivariate():
    assert generic_rank(doubling_map(parse("x + y + x^2*y^3", BI))).rank == 4


def test_generic_rank_all_poles_is_surfaced():
    # mod 5 every value of x^5 - x is 0 and mod 11 every value of x^11 - x
    # is 0, so each prime sees only poles: the error must surface rather
    # than silently producing a rank.
    f = parse("y + 1/((x^5 - x)*(x^11 - x))", BI)
    with pytest.raises(AllPolesError):
        generic_rank(doubling_map(f), primes=(5, 11), samples=4)


def _exact_rows(f: RatFun, w: list[int], p: int) -> list[list[int]] | None:
    """Doubling-map Jacobian rows from the exact partials of f, mod p."""
    n = f.arity
    partials = [f.partial(i) for i in range(n)]
    rows = []
    for b in range(1 << n):
        cols = [i + n * ((b >> i) & 1) for i in range(n)]
        sub = [w[c] for c in cols]
        if f.den.eval_mod(sub, p) == 0:
            return None
        row = [0] * (2 * n)
        for i, c in enumerate(cols):
            row[c] = partials[i].eval_mod(sub, p)
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
        assert _jacobian_rows(f, w, p) == _exact_rows(f, w, p)


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
