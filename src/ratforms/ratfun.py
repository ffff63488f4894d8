"""Exact rational functions over Q and the expression parser.

A RatFun is a reduced fraction of two Polys: gcd removed, denominator
monic under graded lex.  With that normalization, equal function values
imply identical representations, so identity testing is a structural
check on the numerator.

Hot internal paths are allowed to construct *raw* (unreduced) fractions
via :meth:`RatFun.raw`; those still give exact zero tests (a fraction is
the zero function iff its numerator is the zero polynomial) but skip the
potentially expensive gcd until :meth:`reduce` is called.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .modular import RETRIES
from .poly import Poly, Term, _add_scaled, divexact, poly_gcd

EXPONENT_CAP = 1 << 20


class PoleError(ArithmeticError):
    """A denominator evaluated to zero; the caller should resample."""


class DegenerateSpecializationError(ArithmeticError):
    """A substitution landed identically on a pole."""


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def _unit_lead(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """num and den scaled so that den's leading coefficient is 1."""
    lc = den.leading()[1]
    return (num, den) if lc == 1 else (num.scale(1 / lc), den.scale(1 / lc))


class RatFun:
    """Rational function num/den with exact rational coefficients."""

    __slots__ = ("num", "den", "arity", "canonical")

    def __init__(self, num: Poly, den: Poly, reduce: bool = True):
        if num.arity != den.arity:
            raise ValueError("arity mismatch")
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        canonical = False
        if reduce:
            if num.is_zero:
                den = Poly.const(1, num.arity)
            else:
                g = poly_gcd(num, den)
                if g.total_degree() > 0:
                    num = divexact(num, g)
                    den = divexact(den, g)
                num, den = _unit_lead(num, den)
            canonical = True
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "arity", num.arity)
        object.__setattr__(self, "canonical", canonical)

    def __setattr__(self, *a):  # pragma: no cover - guard rail
        raise AttributeError("RatFun is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def raw(cls, num: Poly, den: Poly) -> "RatFun":
        """Unreduced fraction; exact but not canonical.  Internal use."""
        return cls(num, den, reduce=False)

    @classmethod
    def const(cls, c, arity: int) -> "RatFun":
        return cls(Poly.const(c, arity), Poly.const(1, arity), reduce=False)._mark()

    @classmethod
    def variable(cls, i: int, arity: int) -> "RatFun":
        return cls(Poly.variable(i, arity), Poly.const(1, arity), reduce=False)._mark()

    @classmethod
    def from_poly(cls, p: Poly) -> "RatFun":
        return cls(p, Poly.const(1, p.arity), reduce=False)._mark()

    @classmethod
    def coprime(cls, num: Poly, den: Poly) -> "RatFun":
        """num/den for coprime num and den: canonical without a gcd (0/1 for a zero num; a zero den raises)."""
        if num.is_zero or den.is_zero:
            return cls(num, den)
        return cls(*_unit_lead(num, den), reduce=False)._mark()

    def _mark(self) -> "RatFun":
        object.__setattr__(self, "canonical", True)
        return self

    def reduce(self) -> "RatFun":
        return self if self.canonical else RatFun(self.num, self.den)

    # -- queries --------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return not self.num.is_zero

    @property
    def is_constant(self) -> bool:
        f = self.reduce()
        return f.num.is_constant and f.den.is_constant

    def constant_value(self) -> Fraction:
        f = self.reduce()
        return f.num.constant_value() / f.den.constant_value()

    @property
    def is_polynomial(self) -> bool:
        f = self.reduce()
        return f.den.is_constant

    def total_degree(self) -> int:
        return max(self.num.total_degree(), self.den.total_degree())

    def independent_of(self, var: int) -> bool:
        """True iff the function does not involve the variable (exact)."""
        if self.canonical:
            return self.num.degree_in(var) == 0 and self.den.degree_in(var) == 0
        t = self.num.derivative(var) * self.den - self.num * self.den.derivative(var)
        return t.is_zero

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFun) or self.arity != other.arity:
            return NotImplemented
        if self.canonical and other.canonical:
            return self.num == other.num and self.den == other.den
        return (self.num * other.den - other.num * self.den).is_zero

    __hash__ = None

    # -- field arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RatFun):
            return other
        if isinstance(other, (int, Fraction)):
            return RatFun.const(other, self.arity)
        if isinstance(other, Poly):
            return RatFun.from_poly(other)
        return None

    def __add__(self, other) -> "RatFun":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFun(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other) -> "RatFun":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFun(
            self.num * other.den - other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> "RatFun":
        out = RatFun(-self.num, self.den, reduce=False)
        if self.canonical:
            out._mark()
        return out

    def __mul__(self, other) -> "RatFun":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFun(self.num * other.num, self.den * other.den)

    def __truediv__(self, other) -> "RatFun":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by the zero function")
        return RatFun(self.num * other.den, self.den * other.num)

    def __pow__(self, n: int) -> "RatFun":
        if n == 0:
            return RatFun.const(1, self.arity)
        num, den = self.num, self.den
        if n < 0:
            if self.is_zero:
                raise ZeroDivisionError("negative power of zero")
            num, den, n = den, num, -n
        # powers of a canonical num and den stay coprime, with a lead of 1
        return (RatFun.coprime if self.canonical else RatFun)(num**n, den**n)

    def scale(self, c) -> "RatFun":
        """c times the function.  A canonical one needs no gcd: a nonzero
        constant factor leaves num and den coprime and den as it is."""
        num = self.num.scale(c)
        if not self.canonical:
            return RatFun(num, self.den)
        if num.is_zero:
            return RatFun.const(0, self.arity)
        return RatFun(num, self.den, reduce=False)._mark()

    # -- calculus ----------------------------------------------------------------

    def partial(self, var: int) -> "RatFun":
        """Exact partial derivative (quotient rule, canonicalized)."""
        n, d = self.num, self.den
        return RatFun(n.derivative(var) * d - n * d.derivative(var), d * d)

    # -- evaluation ----------------------------------------------------------------

    def eval_q(self, point) -> Fraction:
        dv = self.den.eval_q(point)
        if dv == 0:
            raise PoleError(f"pole at {tuple(point)}")
        return self.num.eval_q(point) / dv

    def eval_mod(self, point, p: int) -> int:
        dv = self.den.eval_mod(point, p)
        if dv == 0:
            raise PoleError(f"pole mod {p} at {tuple(point)}")
        return self.num.eval_mod(point, p) * pow(dv, -1, p) % p

    # -- substitution ----------------------------------------------------------------

    def embed(self, new_arity: int, mapping: tuple[int, ...]) -> "RatFun":
        out = RatFun(
            self.num.embed(new_arity, mapping),
            self.den.embed(new_arity, mapping),
            reduce=False,
        )
        if self.canonical:
            out._mark()
        return out

    # -- formatting ----------------------------------------------------------------

    def to_str(self, names: tuple[str, ...] | None = None) -> str:
        f = self.reduce()
        ns = f.num.to_str(names)
        if f.den.is_constant:
            return ns
        ds = f.den.to_str(names)
        if len(f.num.ints) > 1:
            ns = f"({ns})"
        if len(f.den.ints) > 1 or "*" in ds or "^" in ds:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self):
        return f"RatFun({self.to_str()})"


def compose_numerator(coeffs: Poly, fs: list[RatFun]) -> Poly:
    """Numerator of A(f_1, ..., f_k) over the common denominator.

    `coeffs` is A as a polynomial in k slot variables; the result is
    sum_a c_a * prod_i N_i^{a_i} D_i^{E_i - a_i} with E_i the slot-i degree
    of A.  It vanishes identically iff A(f_1, ..., f_k) is the zero
    function, so callers get an exact zero test without any gcd work.
    The full expansion is classify.verify_certificate's independent
    re-check; annihilating_poly reaches it only where the cheaper exact
    tests of oracle._vanishes do not decide, and the certificate search
    never does.
    """
    k = coeffs.arity
    if len(fs) != k:
        raise ValueError("arity of coefficient polynomial must match len(fs)")
    arity = fs[0].arity
    emax = [coeffs.degree_in(i) for i in range(k)]
    npow: list[list[Poly]] = []
    dpow: list[list[Poly]] = []
    for i, f in enumerate(fs):
        nrow = [Poly.const(1, arity)]
        drow = [Poly.const(1, arity)]
        for _ in range(emax[i]):
            nrow.append(nrow[-1] * f.num)
            drow.append(drow[-1] * f.den)
        npow.append(nrow)
        dpow.append(drow)

    def pieces():
        for e, c in coeffs.ints.items():
            piece = Poly.const(c, arity)
            for i in range(k):
                piece = piece * npow[i][e[i]] * dpow[i][emax[i] - e[i]]
            yield piece

    return Poly.sum(pieces(), arity).scale(coeffs.content)


def partials_mod(num: Poly, den: Poly, points, p: int) -> list[tuple[int, list[int]]]:
    """(D, [N_i D - N D_i for each i]) mod p at each mixture of one or two
    points, in Poly.eval_grad_mod's order: D and the numerators of the
    partials of N/D, from one walk of each compiled form."""
    return [
        (dv, [(ng * dv - nv * dg) % p for ng, dg in zip(ngs, dgs)])
        for (dv, *dgs), (nv, *ngs) in zip(den.eval_grad_mod(points, p), num.eval_grad_mod(points, p))
    ]


def pole_free(read, arity: int, count: int, p: int, rng):
    """read(w) at `count` random points w mod p, lazily: the one sampler of
    pole-free points in general position.  Each point gets up to RETRIES
    draws of `arity` coordinates from 1..p-1, skips a draw where read
    raises PoleError, and gives None when it runs out of draws.
    """
    for _ in range(count):
        for _try in range(RETRIES):
            w = tuple(rng.randrange(1, p) for _ in range(arity))
            try:
                value = read(w)
            except PoleError:
                continue
            yield value
            break
        else:
            yield None


def pole_free_values(fs: list[RatFun], count: int, p: int, rng) -> list[list[int]] | None:
    """Values mod p of the functions fs at `count` points drawn by
    pole_free, or None when a point runs out of draws.  Only the dense
    relation search reads them (annihilating_poly and its spot values).
    """
    out = []
    for vals in pole_free(lambda w: [f.eval_mod(w, p) for f in fs], fs[0].arity, count, p, rng):
        if vals is None:
            return None
        out.append(vals)
    return out


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_INT = r"\d+"
_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
_FACTOR = rf"(?:{_INT}|{_NAME})(?:\^{_INT})?"
# One token per printed monomial: a leading a/b (when no '^' follows b) or
# factor, then more integer or variable factors, each joined by '*' and
# maybe raised to a power.  A '^' and its exponent anywhere else are an
# 'op' and an 'int' token, so a monomial never starts at an exponent.
# Whitespace may precede any token.
_LEXEME = re.compile(
    rf"\s*(?:\^\s*(?P<exp>{_INT})"
    rf"|(?P<mono>(?:{_INT}/{_INT}(?![\d^])|{_FACTOR})(?:\*{_FACTOR})*)"
    r"|(?P<op>[-+*/^()]))"
)
_SPACE = re.compile(r"\s*")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) for each monomial ('mono'), operator or
    parenthesis ('op') and exponent ('int'), and a final 'end'."""
    out = []
    pos = 0
    for m in _LEXEME.finditer(text):
        if m.start() != pos:
            break
        kind = m.lastgroup
        start = m.start(kind)
        if kind == "exp":
            out.append(("op", "^", text.index("^", pos)))
            out.append(("int", m.group(kind), start))
        else:
            out.append((kind, m.group(kind), start))
        pos = m.end()
    pos = _SPACE.match(text, pos).end()
    if pos < len(text):
        raise ParseError(f"unrecognized character {text[pos]!r}", pos)
    out.append(("end", "", len(text)))
    return out


def _fraction(f: Poly | RatFun) -> tuple[Poly, Poly]:
    """(numerator, denominator) of a parse node."""
    if isinstance(f, Poly):
        return f, Poly.const(1, f.arity)
    return f.num, f.den


def _raw_sum(f: RatFun, g: Poly | RatFun) -> RatFun:
    """f + g as a raw (unreduced) fraction."""
    (fn, fd), (gn, gd) = _fraction(f), _fraction(g)
    if fd != gd:
        fn, gn, fd = fn * gd, gn * fd, fd * gd
    return RatFun.raw(fn + gn, fd)


def _product(f: Poly | RatFun | None, g: Poly | RatFun) -> Poly | RatFun:
    """f * g, raw when either is a fraction; None stands for 1."""
    if f is None:
        return g
    if isinstance(f, Poly) and isinstance(g, Poly):
        return f * g
    (fn, fd), (gn, gd) = _fraction(f), _fraction(g)
    return RatFun.raw(fn * gn, fd * gd)


def _quotient(f: Poly | RatFun | None, g: Poly | RatFun) -> RatFun:
    """f / g as a raw fraction for a nonconstant g; None stands for 1."""
    gn, gd = _fraction(g)
    if f is None:
        return RatFun.raw(gd, gn)
    fn, fd = _fraction(f)
    return RatFun.raw(fn * gd, fd * gn)


class _Parser:
    """Recursive descent over the token list.

    term() is the one reader of a product: it reads monomial tokens in
    place and folds integer and variable factors into a coefficient n/d
    and one exponent vector, and expr adds such a term straight into one
    integer term dict, so a sum of monomials builds one Poly.  Only
    parenthesised factors and divisions by a variable become nodes, and
    only a genuine quotient becomes a RatFun, kept raw (unreduced), so no
    node pays for a gcd; parse reduces the result once at the end.
    """

    def __init__(self, text: str, names: tuple[str, ...]):
        self.tokens = _tokenize(text)
        self.idx = 0
        self.names = {n: i for i, n in enumerate(names)}
        self.arity = len(names)

    def parse(self) -> RatFun:
        f = self.expr()
        kind, val, pos = self.tokens[self.idx]
        if kind != "end":
            raise ParseError(f"unexpected token {re.match(rf'{_INT}|{_NAME}|.', val).group()!r}", pos)
        return RatFun.from_poly(f) if isinstance(f, Poly) else f.reduce()

    def expr(self) -> Poly | RatFun:
        """A sum of terms.  The polynomial ones add into one integer term
        dict over the lcm of their denominators, in the order their terms
        first appear, and make one Poly; the quotients add pairwise over a
        common denominator; then the two sums add."""
        acc: dict[Term, int] = {}
        den = 1
        quot: RatFun | None = None
        val = "+"
        while True:
            n, d, exps, node = self.term()
            if val == "-":
                n = -n
            if node is None:
                if n:
                    if den % d:
                        den = _add_scaled(acc, den, (), 1, d)  # acc over lcm(den, d)
                    acc[exps] = acc.get(exps, 0) + n * (den // d)
            else:
                g = _product(node, Poly({exps: Fraction(n, d)}, self.arity))
                if isinstance(g, Poly):
                    c = g.content
                    den = _add_scaled(acc, den, g.ints.items(), c.numerator, c.denominator)
                else:
                    quot = g if quot is None else _raw_sum(quot, g)
            kind, val, _ = self.tokens[self.idx]
            if kind != "op" or val not in "+-":
                break
            self.idx += 1
        total = Poly.from_ints({e: c for e, c in acc.items() if c}, self.arity, Fraction(1, den))
        if quot is None:
            return total
        return quot if total.is_zero else _raw_sum(quot, total)

    def term(self) -> tuple[int, int, Term, Poly | RatFun | None]:
        """A product, as (n, d, exps, node) for n/d * x^exps * node, d > 0,
        with node None when every factor is an integer or a variable.

        A monomial token is read off its text, left to right, each name
        before its exponent; a ^k after the token binds to its last factor
        when that has no ^k of its own.  A '/' divides by the next factor.
        """
        tokens = self.tokens
        names = self.names
        n = d = 1
        exps = [0] * self.arity
        node: Poly | RatFun | None = None
        op = "*"
        i = self.idx
        while True:
            kind, val, start = tokens[i]
            neg = False
            while kind == "op" and val == "-":
                neg = not neg
                i += 1
                kind, val, start = tokens[i]
            if kind == "mono":
                if neg:
                    n = -n
                parts = val.split("*")
                if tokens[i + 1][1] == "^" and "^" not in parts[-1]:
                    parts[-1] += "^"  # the ^k after the token is its last factor's
                if "/" in parts[0]:
                    # a/b: the integer a, then b after a '/', read here unless
                    # it takes the ^k after the token
                    a, b = parts[0].split("/")
                    c = int(a)
                    if op == "*":
                        n *= c
                    elif not c:
                        raise ParseError("division by the zero polynomial", pos)
                    else:
                        d *= c
                    if b.isdigit():
                        c = int(b)
                        if not c:
                            raise ParseError("division by the zero polynomial", start + len(a))
                        d *= c
                        op = "*"
                        del parts[0]
                    else:
                        op, pos, parts[0] = "/", start + len(a), b
                for part in parts:
                    base, caret, e = part.partition("^")
                    v = names.get(base)
                    k = int(e) if e else 1
                    if v is None and not base[0].isdigit() or k > EXPONENT_CAP:
                        # the first factor that fails is the first copy of it
                        at = start + len(val) - len("*".join(parts[parts.index(part) :]).rstrip("^"))
                        if v is None and not base[0].isdigit():
                            raise ParseError(f"unknown identifier {base!r}", at)
                        raise ParseError(f"exponent {k} too large", at + len(base) + 1)
                    if caret and not e:
                        self.idx = i + 1
                        k = self.exponent()
                        i = self.idx - 1
                    if op == "/":
                        op = "*"
                        if v is not None:
                            if k:
                                node = _quotient(node, Poly.variable(v, self.arity) ** k)
                            continue
                        c = int(base) ** k
                        if not c:
                            raise ParseError("division by the zero polynomial", pos)
                        d *= c
                    elif v is None:
                        n *= int(base) ** k
                    else:
                        exps[v] += k
                i += 1
            elif kind == "op" and val == "(":
                self.idx = i + 1
                g = self.expr()
                _, close, at = tokens[self.idx]
                if close != ")":
                    raise ParseError("expected ')'", at)
                self.idx += 1
                k = self.exponent()
                i = self.idx
                if k != 1:
                    g = g**k if isinstance(g, Poly) else RatFun.raw(g.num**k, g.den**k)
                if neg:
                    g = -g
                if op == "*":
                    node = _product(node, g)
                elif g.is_zero:
                    raise ParseError("division by the zero polynomial", pos)
                elif isinstance(g, Poly) and g.is_constant:
                    c = g.constant_value()
                    n, d = n * c.denominator, d * c.numerator
                else:
                    node = _quotient(node, g)
            else:
                raise ParseError(f"unexpected token {val or 'end of input'!r}", start)
            kind, op, pos = tokens[i]
            if kind != "op" or op not in "*/":
                break
            i += 1
        self.idx = i
        if d < 0:
            n, d = -n, -d
        return n, d, tuple(exps), node

    def exponent(self) -> int:
        """The exponent after a base: 1 when no ^ follows."""
        i = self.idx
        if self.tokens[i][1] != "^":
            return 1
        kind, val, pos = self.tokens[i + 1]
        if kind != "int":
            raise ParseError("exponent must be a nonnegative integer", pos)
        self.idx = i + 2
        n = int(val)
        if n > EXPONENT_CAP:
            raise ParseError(f"exponent {n} too large", pos)
        return n


def check_names(vars) -> tuple[str, ...]:
    """The names as a tuple; ValueError unless they are distinct identifiers."""
    names = tuple(vars)
    for v in names:
        if not re.fullmatch(_NAME, v):
            raise ValueError(f"variable name {v!r} is not an identifier")
    if len(set(names)) != len(names):
        raise ValueError("duplicate variable names")
    return names


def parse(expr: str, vars: tuple[str, ...] | list[str]) -> RatFun:
    """Parse an expression into a canonical RatFun over the given variables;
    an integer longer than int() reads (sys.get_int_max_str_digits(), where
    that exists and is not 0) is a ParseError at its first digit."""
    parser = _Parser(expr, check_names(vars))
    try:
        return parser.parse()
    except ValueError as exc:
        # integers are read left to right, so the first long one failed (a
        # digit run inside a name is not an integer)
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        long = limit and re.search(rf"(?<!\w)\d{{{limit + 1},}}", expr)
        if isinstance(exc, ParseError) or not long:
            raise
        raise ParseError(f"integer of more than {limit} digits", long.start()) from None
