"""Seeded benchmark inputs, built without importing ratforms.

Every input is an expression string for ``cli.analyze_function`` together
with the verdict it was built with.  The synthetic instances follow the
recipe of the test suite's generators: univariate parts with distinct
rational roots (so they split over Q), combined into one of the canonical
forms and wrapped in a Mobius map from the fitter's schedule.  The
polynomials are expanded here with plain ``Fraction`` dicts and printed in
the canonical num/den form the CLI prints, so a change to the program's own
formatter or to the test generators cannot change what the benchmark feeds
it.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass
from fractions import Fraction

TRI = ("x", "y", "z")
BI = ("x", "y")

GA = "group-additive"
GM = "group-multiplicative"
FIELD = "field"
TWISTED = "twisted"
NONE = "no-constraint"
UNRESOLVED = "unresolved"
POSITIVE = (GA, GM, FIELD, TWISTED)

#: The Mobius maps (a, b, c, d) of the twisted fitter's schedule, in order.
MOBIUS = (
    (1, 0, 0, 1),
    (0, 1, 1, 0),
    (1, -1, 0, 1),
    (0, 1, 1, -1),
    (1, 0, 1, -1),
    (1, -1, 1, 0),
    (1, 1, 0, 1),
    (-1, 1, 0, 1),
    (0, 1, -1, 1),
    (1, 1, 1, 0),
)


@dataclass(frozen=True)
class Item:
    """One benchmark input.

    truth is the verdict the input was built with (None when unlabelled);
    expect is the verdict that counts as solved.  They differ only for an
    input outside the program's stated scope, where ``unresolved`` is the
    expected answer and the true class is still accepted.  Generated inputs
    keep the numerator and denominator they were printed from, so that the
    check can rebuild the function without the program's parser.
    """

    expr: str
    names: tuple[str, ...]
    truth: str | None
    expect: str | None
    origin: str
    num: dict | None = None
    den: dict | None = None


def generated(num: dict, den: dict, names: tuple[str, ...], truth: str, origin: str) -> Item:
    """Item for num/den, printed in lowest terms; num and den must be coprime."""
    return Item(ratfun_str(num, den, names), names, truth, truth, origin, num, den)


# ---------------------------------------------------------------------------
# exact polynomials as {exponent tuple: Fraction}
# ---------------------------------------------------------------------------


def const(c, arity: int) -> dict:
    c = Fraction(c)
    return {(0,) * arity: c} if c else {}


def var(i: int, arity: int) -> dict:
    return {tuple(int(k == i) for k in range(arity)): Fraction(1)}


def add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def scale(a: dict, c) -> dict:
    c = Fraction(c)
    return {e: v * c for e, v in a.items()} if c else {}


def mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            v = out.get(e, 0) + ca * cb
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def power(a: dict, n: int, arity: int) -> dict:
    out = const(1, arity)
    for _ in range(n):
        out = mul(out, a)
    return out


def _grlex(e: tuple) -> tuple:
    return (sum(e), e)


def poly_str(a: dict, names: tuple[str, ...]) -> str:
    """Terms in descending graded-lex order, as ``Poly.to_str`` prints them."""
    if not a:
        return "0"
    pieces = []
    for e in sorted(a, key=_grlex, reverse=True):
        c = a[e]
        mono = "*".join(n if v == 1 else f"{n}^{v}" for n, v in zip(names, e) if v)
        if not mono:
            piece = str(abs(c))
        elif abs(c) == 1:
            piece = mono
        else:
            piece = f"{abs(c)}*{mono}"
        pieces.append(("-" if c < 0 else "+", piece))
    sign, first = pieces[0]
    return ("-" if sign == "-" else "") + first + "".join(f" {s} {p}" for s, p in pieces[1:])


def ratfun_str(num: dict, den: dict, names: tuple[str, ...]) -> str:
    """num/den with a monic denominator; num and den must be coprime."""
    lead = den[max(den, key=_grlex)]
    num, den = scale(num, 1 / lead), scale(den, 1 / lead)
    ns = poly_str(num, names)
    if set(den) == {(0,) * len(names)}:
        return ns
    ds = poly_str(den, names)
    if len(num) > 1:
        ns = f"({ns})"
    if len(den) > 1 or "*" in ds or "^" in ds:
        ds = f"({ds})"
    return f"{ns}/{ds}"


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|(.))")


def read_ratfun(text: str, names: tuple[str, ...]) -> tuple[dict, dict]:
    """Inverse of ratfun_str: (num, den) of a function printed in that form.

    Accepts only the printed grammar (sums of coefficient*monomial terms,
    at most one division at the top level), so the check can read the
    program's reports without the program's own parser.
    """
    toks = [int(a) if a else b or c for a, b, c in _TOKEN.findall(text)]
    pos = 0
    arity = len(names)

    def peek(k=0):
        return toks[pos + k] if pos + k < len(toks) else None

    def take(want=None):
        nonlocal pos
        tok = peek()
        if tok is None or (want is not None and tok != want):
            raise ValueError(f"unexpected {tok!r} in {text!r}")
        pos += 1
        return tok

    def term(sign: int) -> dict:
        coeff = Fraction(sign)
        if isinstance(peek(), int):
            coeff *= take()
            if peek() == "/" and isinstance(peek(1), int):
                take("/")
                coeff /= take()
            if peek() != "*":
                return const(coeff, arity)
            take("*")
        exps = [0] * arity
        while True:
            i = names.index(take())
            e = 1
            if peek() == "^":
                take("^")
                e = take()
                if not isinstance(e, int):
                    raise ValueError(f"bad exponent {e!r} in {text!r}")
            exps[i] += e
            if peek() != "*":
                return {tuple(exps): coeff}
            take("*")

    def total() -> dict:
        acc = term(-1 if peek() == "-" and take("-") else 1)
        while peek() in ("+", "-"):
            acc = add(acc, term(1 if take() == "+" else -1))
        return acc

    def side() -> dict:
        if peek() != "(":
            return total()
        take("(")
        acc = total()
        take(")")
        return acc

    num = side()
    den = const(1, arity)
    if peek() == "/":
        take("/")
        den = side()
    if peek() is not None:
        raise ValueError(f"trailing {peek()!r} in {text!r}")
    return num, den


# ---------------------------------------------------------------------------
# canonical-form instances
# ---------------------------------------------------------------------------


def _sign(rng: random.Random) -> int:
    return rng.choice((1, -1))


def _splitting_part(rng: random.Random, i: int, arity: int, deg: int, k: int) -> dict:
    """c * prod(x_i - root) over deg distinct rational roots.

    Slot k of the design and part i fix the magnitudes and denominators of
    c and of the roots; the seed picks their signs.
    """
    roots: list[Fraction] = []
    for j in range(deg):
        den = (1, 1, 2, 3)[(k + i + j) % 4]
        mag = (3 * k + 5 * i + 7 * j) % 10
        root = Fraction(_sign(rng) * mag, den)
        while root in roots:
            mag += 1
            root = Fraction(_sign(rng) * mag, den)
        roots.append(root)
    part = const(Fraction(_sign(rng) * (1 + (k + 2 * i) % 6), 1 + (k + i) % 2), arity)
    x = var(i, arity)
    for root in roots:
        part = mul(part, add(x, const(-root, arity)))
    return part


def _design(k: int) -> tuple[tuple[int, int, int, int], tuple[int, int, int], int]:
    """Structure of instance k of a class: Mobius map, part degrees, exponent.

    The structure and the coefficient sizes set an instance's cost (a field
    instance with n = 5 and cubic parts costs a hundred times one with
    n = 1), so they follow a fixed, balanced design and the seed picks only
    signs.  Drawing them from the seed as well made the corpus time vary by
    a quarter between seeds, more than the bound a change is held to.
    """
    degrees = (1 + k % 3, 1 + k // 3 % 3, 1 + k // 9 % 3)
    return MOBIUS[k % len(MOBIUS)], degrees, 1 + k // len(MOBIUS) % 5


def _mobius(m, num: dict, den: dict) -> tuple[dict, dict]:
    """(a*s + b)/(c*s + d) for s = num/den and m = (a, b, c, d).

    ad - bc != 0 and gcd(num, den) = 1 keep the result in lowest terms.
    """
    a, b, c, d = m
    return add(scale(num, a), scale(den, b)), add(scale(num, c), scale(den, d))


def _additive(rng: random.Random, k: int) -> tuple[dict, dict]:
    m, degs, _ = _design(k)
    r1, r2, r3 = (_splitting_part(rng, i, 3, d, k) for i, d in enumerate(degs))
    return _mobius(m, add(add(r1, r2), r3), const(1, 3))


def _multiplicative(rng: random.Random, k: int) -> tuple[dict, dict]:
    m, degs, _ = _design(k)
    r1, r2, r3 = (_splitting_part(rng, i, 3, d, k) for i, d in enumerate(degs))
    return _mobius(m, mul(mul(r1, r2), r3), const(1, 3))


def _field(rng: random.Random, k: int) -> tuple[dict, dict]:
    m, degs, n = _design(k)
    r1, r2, r3 = (_splitting_part(rng, i, 3, d, k) for i, d in enumerate(degs))
    return _mobius(m, mul(r1, power(add(r2, r3), n, 3)), const(1, 3))


def _twisted(rng: random.Random, k: int) -> tuple[dict, dict]:
    m, degs, _ = _design(k)
    r1, r2, r3 = (_splitting_part(rng, i, 3, d, k) for i, d in enumerate(degs))
    return _mobius(m, add(r1, r2), add(r2, r3))


def _bi_additive(rng: random.Random, k: int) -> tuple[dict, dict]:
    m, degs, _ = _design(k)
    r1, r2 = (_splitting_part(rng, i, 2, d, k) for i, d in enumerate(degs[:2]))
    return _mobius(m, add(r1, r2), const(1, 2))


def _bi_multiplicative(rng: random.Random, k: int) -> tuple[dict, dict]:
    m, degs, _ = _design(k)
    r1, r2 = (_splitting_part(rng, i, 2, d, k) for i, d in enumerate(degs[:2]))
    return _mobius(m, mul(r1, r2), const(1, 2))


# ---------------------------------------------------------------------------
# hand-labelled inputs
# ---------------------------------------------------------------------------

HANDWRITTEN_2DEC = (
    ("x + y + z", GA),
    ("x*y*z", GM),
    ("(x + y)/(y + z)", TWISTED),
    ("x*(y + z)^2", FIELD),
    ("(x + y + z)^2", GA),
    ("1/(x*y*z)", GM),
    ("x^2*(y^3 + z)^5", FIELD),
    ("(x*y*z - 1)/(x*y*z + 1)", GM),
    ("(x + y + z)/(x + y + z + 1)", GA),
    # (x^2+1)^2 (y^2+1)^2 (z^2+1)^2 is group-multiplicative; its parts have
    # no rational root, so today's integrator cannot split them (coverage gap)
    ("((x^2 + 1)*(y^2 + 1)*(z^2 + 1))^2", GM),
)

#: Coverage gaps: the true class is known but the fitters' preconditions fail.
COVERAGE_GAPS = (
    ("(x*(y^2+1)*z)^2", GM),
    ("(x^2+1)*(y+z)^2", FIELD),
)

#: Outside the stated scope: t + 2 is not in the Mobius schedule, so
#: ``unresolved`` is the expected answer; the true class is accepted too.
OUT_OF_SCOPE = (("(x+y)/(y+z) + 2", TWISTED),)

NON_TWISTED = (
    "x + y + z",
    "(x + y + z)^2",
    "x + y + z + x^2*y^2*z^2",
    "x*y + z",
    "x + y*z",
    "x^2 + y^2 + z^2",
    "x + y + z^3",
    "x*y + z*y + x",
    "(x + z)/(1 + y)",
    "x + z + x*y*z",
)

UNCONSTRAINED_BIVARIATE = (
    "x + y + x^2*y^3",
    "x + y^2 + x^3*y",
    "x^2 + y + x*y^3",
    "x + y + x^2*y^2 + x^3*y",
    "x*y + x + y^2 + x^2*y^3",
    "(x + y^2)/(y + x^2)",
    "x^3 + y^3 + x*y^2",
    "x + y + x*y + x^2*y^3",
    "x^2*y + x*y^3 + y",
    "(x + y)/(1 + x*y^2) + x",
)

RANK_CORPUS_BI = (
    "x + y",
    "x*y",
    "x - y",
    "x/y",
    "x + y^2",
    "x^2 + y^2",
    "x*y + 1",
    "(x + y)^2",
    "x^2*y^2",
    "x + y + x*y",
    "x + y + x^2*y^2",
    "x + y + x^3*y",
    "x + y + x^2*y^3 - x^2*y^3",
    "1/(x + y)",
    "(x - y)/(x + y)",
    "x^2/y",
    "x + 1/y",
    "x^2*y + x*y^2",
)

RANK_CORPUS_TRI = (
    "x + y + z",
    "x*y*z",
    "(x + y)/(y + z)",
    "x + y + z^2",
    "x*y + z",
    "x + y*z",
    "(x + y + z)^2",
    "x*(y + z)^2",
    "x^2 + y^2 + z^2",
    "1/(x + y + z)",
    "x + 2*y + 3*z",
    "x*y + y*z",
    "(x + z)/(1 + y)",
    "x + y + z + x*y*z",
    "x^2*y*z",
    "x/(y*z)",
    "x*y*z + x + 1",
    "(x*y + z)^2",
)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _labelled(expr, names, truth, origin) -> Item:
    return Item(expr, names, truth, truth, origin)


def tri_corpus(seed: int) -> list[Item]:
    """50 instances of each trivariate form plus the hand-labelled lists."""
    rng = random.Random(seed)
    items = []
    for build, truth in ((_additive, GA), (_multiplicative, GM), (_field, FIELD), (_twisted, TWISTED)):
        items += [generated(*build(rng, k), TRI, truth, "synthetic") for k in range(50)]
    items += [_labelled(e, TRI, t, "handwritten") for e, t in HANDWRITTEN_2DEC]
    items += [Item(e, TRI, None, None, "non-twisted") for e in NON_TWISTED]
    items += [Item(e, TRI, None, None, "rank") for e in RANK_CORPUS_TRI]
    items += [_labelled(e, TRI, t, "coverage-gap") for e, t in COVERAGE_GAPS]
    items += [Item(e, TRI, t, UNRESOLVED, "out-of-scope") for e, t in OUT_OF_SCOPE]
    return items


def bi_corpus(seed: int) -> list[Item]:
    """100 sum and 100 product composites plus the hand-written lists."""
    rng = random.Random(seed)
    items = [generated(*_bi_additive(rng, k), BI, GA, "synthetic") for k in range(100)]
    items += [generated(*_bi_multiplicative(rng, k), BI, GM, "synthetic") for k in range(100)]
    items += [_labelled(e, BI, NONE, "unconstrained") for e in UNCONSTRAINED_BIVARIATE]
    items += [Item(e, BI, None, None, "rank") for e in RANK_CORPUS_BI]
    return items


#: Degrees of each certificate-ladder family.  The rungs start where the
#: certificate search outweighs parsing and the image dimension, and stop
#: where one pass still fits a run; the top rung takes a few seconds.
LADDER_DEGREES = {
    "sum-power": range(10, 17, 2),
    "product-binomial": range(10, 17, 2),
    "inverse-shift": range(9, 14, 2),
}


def cert_ladder(seed: int) -> list[Item]:
    """Three families at rising degree d, with seeded signs.

    (+-x +- y +- z)^d has the annihilator p - q^d; (+-x*y*z +- 1)^d a dense
    binomial one that needs the CRT and rational-reconstruction lift; and
    1/((+-x +- y +- z)^d +- 1) one of degree d + 1 through a Mobius wrap.
    """
    rng = random.Random(seed)

    def linear() -> dict:
        x, y, z = (scale(var(i, 3), _sign(rng)) for i in range(3))
        return add(add(x, y), z)

    one = const(1, 3)
    items = []
    for d in LADDER_DEGREES["sum-power"]:
        items.append(generated(power(linear(), d, 3), one, TRI, GA, "sum-power"))
    xyz = mul(mul(var(0, 3), var(1, 3)), var(2, 3))
    for d in LADDER_DEGREES["product-binomial"]:
        base = add(scale(xyz, _sign(rng)), const(_sign(rng), 3))
        items.append(generated(power(base, d, 3), one, TRI, GM, "product-binomial"))
    for d in LADDER_DEGREES["inverse-shift"]:
        den = add(power(linear(), d, 3), const(_sign(rng), 3))
        items.append(generated(one, den, TRI, GA, "inverse-shift"))
    return items


WORKLOADS = {"tri-corpus": tri_corpus, "bi-corpus": bi_corpus, "cert-ladder": cert_ladder}


def build(workload: str, seed: int) -> list[Item]:
    """The workload's inputs for this seed, in a seeded order.

    Shuffling interleaves the classes, so that a slow stretch of the host
    falls on all of them alike instead of on whichever class runs then.
    """
    items = WORKLOADS[workload](seed)
    random.Random(f"order:{workload}:{seed}").shuffle(items)
    return items


def digest(items: list[Item]) -> str:
    h = hashlib.sha256()
    for it in items:
        h.update(f"{','.join(it.names)}|{it.expr}|{it.truth}|{it.expect}\n".encode())
    return h.hexdigest()
