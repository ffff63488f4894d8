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
from fractions import Fraction

from .modular import PrimeCtx, inv_mod
from .poly import Poly, divexact, poly_gcd

EXPONENT_CAP = 1 << 20
#: Draws per point before pole_free_values gives up.
POINT_RETRIES = 64


class PoleError(ArithmeticError):
    """A denominator evaluated to zero; the caller should resample."""


class DegenerateSpecializationError(ArithmeticError):
    """A substitution landed identically on a pole."""


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


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
                lc = den.leading()[1]
                if lc != 1:
                    inv = 1 / lc
                    num = num.scale(inv)
                    den = den.scale(inv)
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

    def _mark(self) -> "RatFun":
        object.__setattr__(self, "canonical", True)
        return self

    def reduce(self) -> "RatFun":
        return self if self.canonical else RatFun(self.num, self.den)

    # -- queries --------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

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

    def __radd__(self, other) -> "RatFun":
        return self.__add__(other)

    def __sub__(self, other) -> "RatFun":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFun(
            self.num * other.den - other.num * self.den, self.den * other.den
        )

    def __rsub__(self, other) -> "RatFun":
        return (-self).__add__(other)

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

    def __rmul__(self, other) -> "RatFun":
        return self.__mul__(other)

    def __truediv__(self, other) -> "RatFun":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by the zero function")
        return RatFun(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RatFun":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other.__truediv__(self)

    def __pow__(self, n: int) -> "RatFun":
        if n == 0:
            return RatFun.const(1, self.arity)
        if n < 0:
            if self.is_zero:
                raise ZeroDivisionError("negative power of zero")
            return RatFun(self.den ** (-n), self.num ** (-n))
        return RatFun(self.num**n, self.den**n)

    def scale(self, c) -> "RatFun":
        return RatFun(self.num.scale(c), self.den)

    # -- calculus ----------------------------------------------------------------

    def partial(self, var: int) -> "RatFun":
        """Exact partial derivative (quotient rule, canonicalized).

        Uses gcd(D, D_var) to pre-cancel the structural common factor of
        the quotient-rule fraction, which keeps the final reduction cheap.
        """
        n, d = self.num, self.den
        dn = n.derivative(var)
        dd = d.derivative(var)
        if dd.is_zero:
            if d.is_constant:
                return RatFun(dn.scale(1 / d.constant_value()), Poly.const(1, self.arity), reduce=False)._mark()
            return RatFun(dn, d)
        g = poly_gcd(d, dd)
        if g.total_degree() > 0:
            dg = divexact(d, g)
            t = dn * dg - n * divexact(dd, g)
            return RatFun(t, d * dg)
        return RatFun(dn * d - n * dd, d * d)

    def partial_raw(self, var: int) -> tuple[Poly, Poly]:
        """(numerator, denominator) of the derivative, unreduced."""
        n, d = self.num, self.den
        return (n.derivative(var) * d - n * d.derivative(var), d * d)

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
        return self.num.eval_mod(point, p) * inv_mod(dv, p) % p

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

    def subs_scalars(self, values: dict[int, Fraction]) -> "RatFun":
        """Substitute exact scalars for some variables (arity kept)."""
        if not values:
            return self
        d = self.den.subs_scalars(values)
        if d.is_zero:
            raise DegenerateSpecializationError(
                "substitution lands identically on a pole"
            )
        return RatFun(self.num.subs_scalars(values), d)

    def substitute(self, assignment: dict) -> "RatFun":
        """Compose with rational functions or scalars per variable."""
        if not assignment:
            return self
        if all(not isinstance(v, RatFun) for v in assignment.values()):
            return self.subs_scalars({i: Fraction(v) for i, v in assignment.items()})
        arity = self.arity
        vals: dict[int, RatFun] = {}
        for i, v in assignment.items():
            rf = v if isinstance(v, RatFun) else RatFun.const(v, arity)
            if rf.arity != arity:
                raise ValueError("substituted value has mismatched ambient arity")
            vals[i] = rf
        emax = {
            i: max(self.num.degree_in(i), self.den.degree_in(i)) for i in vals
        }
        npow: dict[int, list[Poly]] = {}
        dpow: dict[int, list[Poly]] = {}
        for i, rf in vals.items():
            nrow = [Poly.const(1, arity)]
            drow = [Poly.const(1, arity)]
            for _ in range(emax[i]):
                nrow.append(nrow[-1] * rf.num)
                drow.append(drow[-1] * rf.den)
            npow[i] = nrow
            dpow[i] = drow

        def comp(p: Poly) -> Poly:
            acc = Poly.zero(arity)
            for e, c in p.terms.items():
                k = list(e)
                for i in vals:
                    k[i] = 0
                piece = Poly({tuple(k): c}, arity, _clean=True)
                for i in vals:
                    piece = piece * npow[i][e[i]] * dpow[i][emax[i] - e[i]]
                acc = acc + piece
            return acc

        dnew = comp(self.den)
        if dnew.is_zero:
            raise DegenerateSpecializationError(
                "substitution lands identically on a pole"
            )
        return RatFun(comp(self.num), dnew)

    # -- formatting ----------------------------------------------------------------

    def to_str(self, names: tuple[str, ...] | None = None) -> str:
        f = self.reduce()
        ns = f.num.to_str(names)
        if f.den.is_constant:
            return ns
        ds = f.den.to_str(names)
        if len(f.num.terms) > 1:
            ns = f"({ns})"
        if len(f.den.terms) > 1 or "*" in ds or "^" in ds:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self):
        return f"RatFun({self.to_str()})"


# ---------------------------------------------------------------------------
# named operation wrappers
# ---------------------------------------------------------------------------


def arith(op: str, a: RatFun, b: RatFun) -> RatFun:
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown operation {op!r}")


def partial(f: RatFun, var: int) -> RatFun:
    return f.partial(var)


def is_zero(f: RatFun) -> bool:
    return f.is_zero


def substitute(f: RatFun, assignment: dict) -> RatFun:
    return f.substitute(assignment)


def evaluate(f: RatFun, point, field: PrimeCtx | None = None):
    """Value of f at a point, over Q (field=None) or GF(ctx.p)."""
    if field is None:
        return f.eval_q(point)
    return f.eval_mod(point, field.p)


def partial_ratio(f: RatFun, a: int, b: int, reduce: bool = False) -> RatFun:
    """The ratio f_a / f_b with the common denominator cancelled upfront."""
    n, d = f.num, f.den
    na = n.derivative(a) * d - n * d.derivative(a)
    nb = n.derivative(b) * d - n * d.derivative(b)
    if nb.is_zero:
        raise ZeroDivisionError("denominator partial is identically zero")
    return RatFun(na, nb, reduce=reduce)


def compose_numerator(coeffs: Poly, fs: list[RatFun]) -> Poly:
    """Numerator of A(f_1, ..., f_k) over the common denominator.

    `coeffs` is A as a polynomial in k slot variables; the result is
    sum_a c_a * prod_i N_i^{a_i} D_i^{E_i - a_i} with E_i the slot-i degree
    of A.  It vanishes identically iff A(f_1, ..., f_k) is the zero
    function, so callers get an exact zero test without any gcd work.
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
    acc = Poly.zero(arity)
    for e, c in coeffs.terms.items():
        piece = Poly.const(c, arity)
        for i in range(k):
            piece = piece * npow[i][e[i]] * dpow[i][emax[i] - e[i]]
        acc = acc + piece
    return acc


def pole_free_values(
    fs: list[RatFun], count: int, p: int, rng, distinct: set[int] | None = None
) -> list[list[int]] | None:
    """Values mod p of the functions fs at `count` random pole-free points.

    Each point gets POINT_RETRIES draws; a draw that hits a pole of any
    function is redrawn.  When `distinct` is a set, a draw whose value of
    fs[0] is already in it is redrawn too, and accepted values are added to
    it, so successive calls sharing one set keep extending a sample with
    pairwise distinct first values.  Returns None when a point runs out of
    draws.
    """
    arity = fs[0].arity
    out = []
    for _ in range(count):
        for _try in range(POINT_RETRIES):
            w = tuple(rng.randrange(1, p) for _ in range(arity))
            try:
                vals = [f.eval_mod(w, p) for f in fs]
            except PoleError:
                continue
            if distinct is None:
                break
            if vals[0] not in distinct:
                distinct.add(vals[0])
                break
        else:
            return None
        out.append(vals)
    return out


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"(?P<ws>\s+)|(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unrecognized character {text[pos]!r}", pos)
        if not m.group("ws"):
            kind = m.lastgroup
            out.append((kind, m.group(kind), pos))
        pos = m.end()
    out.append(("end", "", len(text)))
    return out


def _fraction(f: Poly | RatFun) -> tuple[Poly, Poly]:
    """(numerator, denominator) of a parse node."""
    if isinstance(f, Poly):
        return f, Poly.const(1, f.arity)
    return f.num, f.den


class _Parser:
    """Recursive descent over the token list.

    Polynomial subtrees stay plain Polys; only a genuine quotient becomes a
    RatFun, kept raw (unreduced), so no node pays for a gcd.  parse reduces
    the result once at the end.
    """

    def __init__(self, text: str, names: tuple[str, ...]):
        self.tokens = _tokenize(text)
        self.idx = 0
        self.names = {n: i for i, n in enumerate(names)}
        self.arity = len(names)

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.advance()

    def parse(self) -> RatFun:
        f = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", pos)
        return RatFun.from_poly(f) if isinstance(f, Poly) else f.reduce()

    def expr(self) -> Poly | RatFun:
        f = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                g = self.term()
                if isinstance(f, Poly) and isinstance(g, Poly):
                    f = f + g if val == "+" else f - g
                    continue
                (fn, fd), (gn, gd) = _fraction(f), _fraction(g)
                if fd != gd:
                    fn, gn, fd = fn * gd, gn * fd, fd * gd
                f = RatFun.raw(fn + gn if val == "+" else fn - gn, fd)
            else:
                return f

    def term(self) -> Poly | RatFun:
        f = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                g = self.factor()
                if val == "*":
                    if isinstance(f, Poly) and isinstance(g, Poly):
                        f = f * g
                    else:
                        (fn, fd), (gn, gd) = _fraction(f), _fraction(g)
                        f = RatFun.raw(fn * gn, fd * gd)
                elif g.is_zero:
                    raise ParseError("division by the zero polynomial", pos)
                elif isinstance(g, Poly) and g.is_constant:
                    inv = 1 / g.constant_value()
                    if isinstance(f, Poly):
                        f = f.scale(inv)
                    else:
                        f = RatFun.raw(f.num.scale(inv), f.den)
                else:
                    (fn, fd), (gn, gd) = _fraction(f), _fraction(g)
                    f = RatFun.raw(fn * gd, fd * gn)
            else:
                return f

    def factor(self) -> Poly | RatFun:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return -self.factor()
        return self.power()

    def power(self) -> Poly | RatFun:
        base = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            ikind, ival, ipos = self.peek()
            if ikind != "int":
                raise ParseError("exponent must be a nonnegative integer", ipos)
            self.advance()
            n = int(ival)
            if n > EXPONENT_CAP:
                raise ParseError(f"exponent {n} too large", ipos)
            if isinstance(base, Poly):
                return base**n
            return RatFun.raw(base.num**n, base.den**n)
        return base

    def atom(self) -> Poly | RatFun:
        kind, val, pos = self.advance()
        if kind == "int":
            return Poly.const(int(val), self.arity)
        if kind == "name":
            i = self.names.get(val)
            if i is None:
                raise ParseError(f"unknown identifier {val!r}", pos)
            return Poly.variable(i, self.arity)
        if kind == "op" and val == "(":
            f = self.expr()
            self.expect_op(")")
            return f
        raise ParseError(f"unexpected token {val or 'end of input'!r}", pos)


def parse(expr: str, vars: tuple[str, ...] | list[str]) -> RatFun:
    """Parse an expression into a canonical RatFun over the given variables."""
    names = tuple(vars)
    if len(set(names)) != len(names):
        raise ValueError("duplicate variable names")
    return _Parser(expr, names).parse()
