"""Sparse multivariate polynomials over the rationals.

A polynomial is stored as a positive rational content times a primitive
integer polynomial: a map from exponent tuples to nonzero ints with gcd 1.
Products of primitive polynomials are primitive (Gauss's lemma), so
multiplication is integer work plus one Fraction product, and sums need
one gcd pass; no per-term Fraction is built.  The canonical term order is
graded lexicographic.  The gcd stack used for rational-function reduction
works on the primitive integer parts.  Two inputs in one shared variable
go to a dense heuristic gcd on coefficient lists, which falls back to
subresultants; the exact line ratios of the fitters reduce through it too.
Its callers hand it primitive lists with no shared power of the variable.
Every gcd routine returns its result primitive with a positive lead, and
takes that sign and content once, from the result.  Other inputs combine
three layers:

* a sound bound on the gcd's degree in each variable x_v both inputs
  involve (the gcd over GF(p) of the inputs restricted to a line parallel
  to the x_v axis on which both keep their degree in x_v), whose values 0
  prove the inputs coprime;
* a heuristic evaluation gcd (single large-integer substitution per
  variable, candidate verified by exact trial division; at points above
  twice the smaller height a candidate that divides both inputs is their
  gcd, so it needs no closing up);
* a subresultant PRS fallback, which runs only when the heuristic gives
  up and is unconditionally correct.
"""

from __future__ import annotations

import random
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd as igcd, prod
from operator import add as _add, getitem, itemgetter, mul
from types import MappingProxyType

from .modular import _divmod_mod, _eval, _trim

Term = tuple[int, ...]

# RNG for the gcd fast paths.  Fixed seed: the *result* of every gcd is
# independent of these draws (they only pick which sound shortcut fires),
# so this never affects output determinism.
_GCD_RNG = random.Random(0x5EED)
_LINE_P = 2147483647
#: The most quotient terms a trial division of _heu_gcd takes before it gives
#: up on its candidate (the subresultant fallback then decides).
DIV_STEP_CAP = 200000

_ZERO = Fraction(0)
_ONE = Fraction(1)


def grlex_key(exps: Term):
    return (sum(exps), exps)


# ---------------------------------------------------------------------------
# integer term-dict helpers (coefficients are plain ints, no zeros stored)
# ---------------------------------------------------------------------------


def _iadd_into(acc: dict, other: dict, sign: int = 1) -> None:
    for k, c in other.items():
        v = acc.get(k, 0) + sign * c
        if v:
            acc[k] = v
        else:
            acc.pop(k, None)


def _imul(a: dict, b: dict) -> dict:
    if not a or not b:
        return {}
    if len(a) < len(b):
        a, b = b, a
    out: dict = {}
    bi = list(b.items())
    get = out.get
    for ea, ca in a.items():
        for eb, cb in bi:
            k = tuple(map(_add, ea, eb))
            v = get(k, 0) + ca * cb
            if v:
                out[k] = v
            else:
                del out[k]
    return out


def _ishift(a: dict, var: int, k: int) -> dict:
    """Multiply by var**k."""
    out = {}
    for e, c in a.items():
        e2 = list(e)
        e2[var] += k
        out[tuple(e2)] = c
    return out


def _add_scaled(acc: dict, den: int, items, n: int, d: int) -> int:
    """Add n/d times the (exponent, int) items into acc, whose terms count
    in units of 1/den, and return the new den, lcm(den, d); acc is rescaled
    when it grows.  A term keeps its place when it cancels, so the terms of
    a sum come in the order they first appear, zeros to drop at the end."""
    if den % d:
        grow = d // igcd(den, d)
        for e in acc:
            acc[e] *= grow
        den *= grow
    m = n * (den // d)
    get = acc.get
    for e, c in items:
        acc[e] = get(e, 0) + m * c
    return den


def _int_content(a: dict) -> int:
    g = 0
    for c in a.values():
        g = igcd(g, c)
        if g == 1:
            return 1
    return g or 1


def _deg_in(a: dict, i: int) -> int:
    d = 0
    for e in a:
        if e[i] > d:
            d = e[i]
    return d


def _total_deg(a: dict) -> int:
    return max(map(sum, a), default=0)


def _lead_key(a: dict) -> Term:
    return max(a, key=grlex_key)


def _unit_normal(a: dict) -> dict:
    """a over its integer content, signed to make the grlex lead positive."""
    g = _int_content(a)
    if a and a[_lead_key(a)] < 0:
        g = -g
    return a if g == 1 else {k: v // g for k, v in a.items()}


def _mono_content(a: dict, arity: int) -> Term:
    mins = None
    for e in a:
        if mins is None:
            mins = list(e)
        else:
            for i, v in enumerate(e):
                if v < mins[i]:
                    mins[i] = v
        if mins is not None and not any(mins):
            break
    return tuple(mins or [0] * arity)


def _mono_divide(a: dict, mins: Term) -> dict:
    if not any(mins):
        return a
    return {tuple(x - m for x, m in zip(e, mins)): c for e, c in a.items()}


def _codes(a: dict, base: int) -> dict:
    """The integer term dict a with each exponent vector e coded as one
    integer that orders as grlex_key does: sum(e), then the entries, as
    digits in base.  The code is linear in e, so the code of a product term
    is the sum of its factors' codes, and two vectors of total degree below
    base never share a code."""
    if not a:
        return {}
    n = len(next(iter(a)))
    weights = [base**n + base ** (n - 1 - i) for i in range(n)]
    return {sum(map(mul, e, weights)): c for e, c in a.items()}


def _idivexact(f: dict, h: dict, cap: int | None = None) -> dict | None:
    """Exact division of integer term dicts; None when h does not divide f,
    or, with a cap, when the quotient needs more than cap leading terms.
    Only a trial division that may give up soundly (_heu_gcd's) passes one.

    Exponent vectors are coded (_codes) in a base above the total degree of
    f.  No remainder term has a higher degree, so a heap of the remainder's
    codes gives each leading term in O(log n), where a scan of the
    remainder would make the division quadratic.  A code left in the heap
    after its term cancelled is skipped when it comes up.  The quotient's
    terms come out in descending grlex order.
    """
    if not h:
        raise ZeroDivisionError("division by zero polynomial")
    if not f:
        return {}
    if f == h:
        return {(0,) * len(next(iter(f))): 1}
    base = _total_deg(f) + 1
    if _total_deg(h) >= base:
        return None
    n = len(next(iter(h)))
    hs = list(_codes(h, base).items())
    kh, ch = max(hs)
    rem = _codes(f, base)
    heap = [-k for k in rem]
    heapify(heap)
    q: dict = {}
    steps = 0
    while rem:
        k = -heappop(heap)
        cr = rem.get(k)
        if cr is None:
            continue
        steps += 1
        if cap is not None and steps > cap:
            return None
        # k - kh codes lead(rem) - lead(h) entrywise; its digits add up to
        # its top digit exactly when no entry is negative (a borrow breaks it)
        kq = x = k - kh
        ke = []
        for _ in range(n):
            x, r = divmod(x, base)
            ke.append(r)
        if x != sum(ke) or cr % ch:
            return None
        ke.reverse()
        cq = cr // ch
        q[tuple(ke)] = cq
        get = rem.get
        for kt, ct in hs:
            kk = kq + kt
            v = get(kk)
            if v is None:
                rem[kk] = -cq * ct
                heappush(heap, -kk)
            else:
                v -= cq * ct
                if v:
                    rem[kk] = v
                else:
                    del rem[kk]
    return q


# ---------------------------------------------------------------------------
# images mod p: the restriction to an axis-parallel line, and the compiled
# form for values and first partials
# ---------------------------------------------------------------------------


def _nest(terms: list[tuple[Term, int]], level: int, n: int) -> list:
    """Terms grouped by their exponent of x_level, then of x_level+1, ...,
    down to x_(n-3): each of those levels holds (exponent, subform) pairs.
    Below them the leaf is one flat list of (e_(n-2), e_(n-1), coefficient)
    triples, or of (e_0, coefficient) pairs for one variable.
    """
    if level >= n - 2:
        return [e[level:] + (c,) for e, c in terms]
    groups: dict[int, list] = {}
    for e, c in terms:
        groups.setdefault(e[level], []).append((e, c))
    return [(k, _nest(sub, level + 1, n)) for k, sub in groups.items()]


def _powers(degs: list[int], point, p: int) -> list[list[int]]:
    """Per variable, the powers x^e mod p of the point's coordinate x, for e
    up to the variable's degree."""
    out = []
    for deg, x in zip(degs, point):
        pw = [1] * (deg + 1)
        for e in range(1, deg + 1):
            pw[e] = pw[e - 1] * x % p
        out.append(pw)
    return out


def _qpowers(ints: dict, point, skip: int = -1, slopes: bool = False) -> tuple[list, list[int], int, list]:
    """For nonzero integer terms and a point: per variable, the integers
    n^e * d^(deg - e) for the exponents e of the variable in the terms,
    keyed by e, where n/d is the point's coordinate and deg the degree in
    the variable, so each is d^deg times x^e; the degrees; the product of
    the d^deg; and with slopes, per variable the integers
    e * n^(e-1) * d^(deg-e+1), d^deg times the derivative e*x^(e-1), keyed
    the same way.  A variable of degree 0, and the variable skip, gets (1,)
    and no slope row (None), and no power of its coordinate is computed."""
    rows, degs, den, srows = [], [], 1, []
    for v, (used, x) in enumerate(zip(map(set, zip(*ints)), point)):
        deg = max(used)
        degs.append(deg)
        if deg and v != skip:
            n, d = x.numerator, x.denominator
            rows.append({e: n ** e * d ** (deg - e) for e in used})
            srows.append({e: e * n ** (e - 1) * d ** (deg - e + 1) if e else 0 for e in used}
                         if slopes else None)
            den *= d ** deg
        else:
            rows.append((1,))
            srows.append(None)
    return rows, degs, den, srows


def _axis_line(ints: dict, powers, i: int, deg: int) -> list[int]:
    """The restriction of integer terms to the line parallel to the x_i axis
    through the point of powers: its deg + 1 coefficients in x_i, lowest
    first, unreduced, added up in one pass over the terms.  Powers mod p
    (see _powers) give the restriction mod p, and exact ones (see _qpowers)
    the exact restriction, times the d^deg of the other coordinates.
    powers[i] is not read."""
    rows = powers[:i] + [[1] * (deg + 1)] + powers[i + 1 :]
    out = [0] * (deg + 1)
    for e, c in ints.items():
        out[e[i]] += c * prod(map(getitem, rows, e))
    return out


def _axis_jet(ints: dict, powers, i: int, deg: int, slopes, mixed: bool = False) -> list[list[int]]:
    """The jet form of _axis_line, for exact powers and the slope rows of
    _qpowers: [f, f_0, ..., f_(n-1)], the restriction and those of the
    first partials, from one pass over the terms and at the same scale.
    The partial in a pinned x_v reads x_v's slope row in place of its power
    row (the zero list when it has none), and f_i is the derivative of the
    restriction, deg coefficients long.  With mixed (at most two pinned
    variables) the jet ends with the second partial in both, from a term
    loop of its own that a plain jet does not pay for.  A function of its
    own, so that the mod-p callers of _axis_line take no branch for it."""
    rows = powers[:i] + [[1] * (deg + 1)] + powers[i + 1 :]
    pinned = [v for v, row in enumerate(slopes) if row is not None and v != i]
    jet = [[] for _ in range(len(rows) + 1)]
    jet[0] = out = [0] * (deg + 1)
    if len(pinned) <= 2:
        # one term loop for two pinned variables, padded with x_i (its row
        # of ones and a slope row of zeros) when there are fewer
        u, v = (pinned + [i, i])[:2]
        ru, rv = rows[u], rows[v]
        su, sv = (slopes[w] if w != i else [0] * (deg + 1) for w in (u, v))
        partials = du, dv = [0] * (deg + 1), [0] * (deg + 1)
        get = itemgetter(i, u, v)
        if mixed:
            jet.append(duv := [0] * (deg + 1))
            for e, c in ints.items():
                k, x, y = get(e)
                a, s = ru[x], su[x]
                cb, cs = c * rv[y], c * sv[y]
                out[k] += cb * a
                du[k] += cb * s
                dv[k] += cs * a
                duv[k] += cs * s
        else:
            for e, c in ints.items():
                k, x, y = get(e)
                a = ru[x]
                cb = c * rv[y]
                out[k] += cb * a
                du[k] += cb * su[x]
                dv[k] += c * a * sv[y]
    else:
        tables = [rows[:v] + [slopes[v]] + rows[v + 1 :] for v in pinned]
        partials = [[0] * (deg + 1) for _ in pinned]
        for e, c in ints.items():
            k = e[i]
            out[k] += c * prod(map(getitem, rows, e))
            for d, table in zip(partials, tables):
                d[k] += c * prod(map(getitem, table, e))
    for v, d in zip(pinned, partials):
        jet[1 + v] = d
    jet[1 + i] = [k * c for k, c in enumerate(out)][1:]
    return jet


def _tables(degs: list[int], points, p: int) -> list[list[tuple[list[int], list[int]]]]:
    """Per variable, one entry per distinct coordinate x of the points, in
    point order: the powers x^e and the derivatives e*x^(e-1) mod p, for e up
    to the variable's degree.  A variable of degree 0 has one entry, since
    its powers are the same at every point."""
    tables = []
    for deg, xs in zip(degs, zip(*points)):
        copies = []
        for x in dict.fromkeys([x % p for x in xs]) if deg else (0,):
            pw = [1] * (deg + 1)
            dpw = [0] * (deg + 1)
            for e in range(1, deg + 1):
                dpw[e] = e * pw[e - 1] % p
                pw[e] = pw[e - 1] * x % p
            copies.append((pw, dpw))
        tables.append(copies)
    return tables


def _value_and_gradient(node: list, level: int, tables, n: int) -> list[list[int]]:
    """[value, d/dx_level, ..., d/dx_(n-1)] of a compiled polynomial (see
    _nest), unreduced.

    tables[i] holds one entry per copy of x_i (one or two, m_i of them):
    the powers x^e and the derivatives e*x^(e-1) of that copy's coordinate,
    so a zero coordinate needs no special case.  There is one result per
    choice of copies for x_level..x_(n-1); in the mixed-radix index
    c_0 + m_0 * (c_1 + m_1 * (c_2 + ...)), c_k picks the copy of
    x_(level+k).  A leaf is read in one term loop for each pair of copies of
    the last two variables, and shared by every choice of the ones above.
    """
    if n == 1:  # one variable
        return [[sum([c * a[e] for e, c in node]), sum([c * d[e] for e, c in node])]
                for a, d in tables[0]]
    if level == n - 2:
        out = []
        for a2, d2 in tables[level + 1]:
            for a1, d1 in tables[level]:
                v = g1 = g2 = 0
                for e1, e2, c in node:
                    ca = c * a2[e2]
                    v += ca * a1[e1]
                    g1 += ca * d1[e1]
                    g2 += c * a1[e1] * d2[e2]
                out.append([v, g1, g2])
        return out
    copies = tables[level]
    m = len(copies)
    width = n - level + 1
    out = None
    for e, child in node:
        sub = _value_and_gradient(child, level + 1, tables, n)
        if out is None:
            out = [[0] * width for _ in range(m * len(sub))]
        for copy, (a, d) in enumerate(copies):
            ae, de = a[e], d[e]
            for k, sv in enumerate(sub):
                acc = out[copy + m * k]
                cv = sv[0]
                acc[0] += ae * cv
                acc[1] += de * cv
                for j in range(2, width):
                    acc[j] += ae * sv[j - 1]
    if out is None:  # only the zero polynomial has an empty node
        out = [[0] * width for _ in range(prod(len(t) for t in tables[level:]))]
    return out


# ---------------------------------------------------------------------------
# gcd: line-test fast path, heuristic gcd, subresultant PRS fallback
# ---------------------------------------------------------------------------


def _gcd_degree_bound(f: dict, g: dict, arity: int) -> dict[int, int] | None:
    """Per variable x_v that f and g both involve, a bound on the degree in
    x_v of gcd(f, g); or None.

    The bound is the degree of the gcd over GF(p) of f and g restricted to
    the line parallel to the x_v axis through one random point: the
    leading coefficient in x_v of the true gcd h divides theirs, so where
    they keep their degree h keeps it too, and its restriction divides
    both (von zur Gathen & Gerhard, *Modern Computer Algebra*, ch. 6).  h
    involves only shared variables, so bounds of 0 prove f and g coprime.
    None when a restriction drops its degree, as when p divides a leading
    coefficient.
    """
    p = _LINE_P
    df = [_deg_in(f, i) for i in range(arity)]
    dg = [_deg_in(g, i) for i in range(arity)]
    point = [_GCD_RNG.randrange(1, p) for _ in range(arity)]
    fpow, gpow = _powers(df, point, p), _powers(dg, point, p)
    bound = {}
    for v in range(arity):
        if df[v] and dg[v]:
            fu = _trim([c % p for c in _axis_line(f, fpow, v, df[v])])
            gu = _trim([c % p for c in _axis_line(g, gpow, v, dg[v])])
            if len(fu) - 1 != df[v] or len(gu) - 1 != dg[v]:
                return None
            while gu:  # Euclid over GF(p)
                fu, gu = gu, _divmod_mod(fu, gu, p)[1]
            bound[v] = len(fu) - 1
    return bound


def _smod(c: int, m: int) -> int:
    r = c % m
    if r > m // 2:
        r -= m
    return r


def _eval_at_int(f: dict, var: int, xi: int) -> dict:
    pw = [1]
    for _ in range(_deg_in(f, var)):
        pw.append(pw[-1] * xi)
    out: dict = {}
    for e, c in f.items():
        k = list(e)
        k[var] = 0
        k = tuple(k)
        v = out.get(k, 0) + c * pw[e[var]]
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


def _height(f: dict) -> int:
    return max(abs(c) for c in f.values())


def _xi_schedule(height: int, dbound: int):
    """The evaluation points of the heuristic gcds for inputs of the given
    smaller height and degree bound: six, from 2 * height + 29, each about
    2.73 times the last, while a value's dbound + 1 digits stay within
    4000000 bits."""
    xi = 2 * height + 29
    for _ in range(6):
        if xi.bit_length() * (dbound + 1) > 4_000_000:
            return
        yield xi
        xi = xi * 73794 // 27011


def _heu_gcd(f: dict, g: dict, arity: int, depth: int = 0) -> dict | None:
    """Heuristic gcd by big-integer evaluation; verified by trial division.

    Every point xi is above twice the smaller height (see _xi_schedule), so
    a candidate that divides both inputs is their gcd (Char, Geddes &
    Gonnet, J. Symb. Comput. 7, 1989): the gcd gamma of the images is exact
    by induction, from math.gcd at the bottom, and a common divisor c with
    c(xi) = gamma has c | h and h(xi) | c(xi) for the gcd h, so h/c is +-1
    at xi and hence constant.  At depth 0 the inputs and the candidate taken
    are primitive.  None once the points run out (PRS decides then).
    """
    active = [i for i in range(arity) if _deg_in(f, i) or _deg_in(g, i)]
    if not active:
        a = f.get(tuple([0] * arity), 0)
        b = g.get(tuple([0] * arity), 0)
        v = igcd(a, b)
        return {tuple([0] * arity): v} if v else {}
    var = active[0]
    for i in active:
        if min(_deg_in(f, i), _deg_in(g, i)) > min(_deg_in(f, var), _deg_in(g, var)):
            var = i
    dbound = min(_deg_in(f, var), _deg_in(g, var))
    for xi in _xi_schedule(min(_height(f), _height(g)), dbound):
        F = _eval_at_int(f, var, xi)
        G = _eval_at_int(g, var, xi)
        if F and G:
            h = _heu_gcd(F, G, arity, depth + 1)
            if h:
                digits = []
                gam = dict(h)
                ok = True
                while gam:
                    dig = {}
                    nxt = {}
                    for k, c in gam.items():
                        s = _smod(c, xi)
                        if s:
                            dig[k] = s
                        r = (c - s) // xi
                        if r:
                            nxt[k] = r
                    digits.append(dig)
                    gam = nxt
                    if len(digits) > dbound + 1:
                        ok = False
                        break
                if ok:
                    cand: dict = {}
                    for i, dig in enumerate(digits):
                        _iadd_into(cand, _ishift(dig, var, i))
                    if cand and depth == 0:
                        # the caller's inputs are primitive, so is every
                        # common divisor; at inner levels the integer
                        # content still encodes the outer evaluation digits
                        cc = _int_content(cand)
                        cand = {k: v // cc for k, v in cand.items()}
                    if cand:
                        if (_idivexact(f, cand, DIV_STEP_CAP) is not None
                                and _idivexact(g, cand, DIV_STEP_CAP) is not None):
                            return cand
    return None


def _coeffs_in(f: dict, var: int) -> dict[int, dict]:
    """Split f by the degree of `var`; coefficient dicts have var-slot 0."""
    out: dict[int, dict] = {}
    for e, c in f.items():
        d = e[var]
        k = list(e)
        k[var] = 0
        out.setdefault(d, {})[tuple(k)] = c
    return out


def _prem(a: dict, b: dict, var: int) -> dict:
    """Pseudo-remainder of a by b with respect to var."""
    db = _deg_in(b, var)
    bc = _coeffs_in(b, var)
    lb = bc[db]
    r = dict(a)
    e = _deg_in(a, var) - db + 1
    while r:
        dr = _deg_in(r, var)
        if dr < db:
            break
        rc = _coeffs_in(r, var)
        lr = rc[dr]
        r = _imul(lb, r)
        _iadd_into(r, _imul(_ishift(lr, var, dr - db), b), -1)
        e -= 1
    for _ in range(e):
        r = _imul(lb, r)
    return r


def _content_wrt(f: dict, var: int, arity: int) -> dict:
    cs = list(_coeffs_in(f, var).values())
    acc = cs[0]
    for c in cs[1:]:
        acc = gcd_int(acc, c, arity)
        if _total_deg(acc) == 0:
            break
    return acc


def _divide_coeffwise(f: dict, d: dict, var: int, arity: int) -> dict:
    """Exact division of f by a var-free dict d."""
    out: dict = {}
    for k, cf in _coeffs_in(f, var).items():
        q = _idivexact(cf, d)
        if q is None:
            raise ArithmeticError("inexact content division")
        _iadd_into(out, _ishift(q, var, k))
    return out


def _prs_gcd(f: dict, g: dict, var: int, arity: int) -> dict:
    """Subresultant PRS gcd of primitive (wrt var) inputs, primitive with
    a positive lead."""
    if _deg_in(f, var) < _deg_in(g, var):
        f, g = g, f
    one = {tuple([0] * arity): 1}
    gcoef, h = one, one
    a, b = f, g
    while True:
        delta = _deg_in(a, var) - _deg_in(b, var)
        r = _prem(a, b, var)
        if not r:
            break
        if _deg_in(r, var) == 0:
            return one
        denom = gcoef
        for _ in range(delta):
            denom = _imul(denom, h)
        a, b = b, _idivexact(r, denom)
        if b is None:
            raise ArithmeticError("subresultant division failed")
        gcoef = _coeffs_in(a, var)[_deg_in(a, var)]
        if delta == 0:
            pass
        elif delta == 1:
            h = gcoef
        else:
            num = gcoef
            for _ in range(delta - 1):
                num = _imul(num, gcoef)
            hden = h
            for _ in range(delta - 2):
                hden = _imul(hden, h)
            h = _idivexact(num, hden)
            if h is None:
                raise ArithmeticError("subresultant division failed")
    return _unit_normal(_divide_coeffwise(b, _content_wrt(b, var, arity), var, arity))


def _ddivexact(f: list[int], h: list[int]) -> list[int] | None:
    """f / h for integer coefficient lists, lowest first, h with a nonzero
    lead; None when h does not divide f over the integers."""
    m = len(h) - 1
    if len(f) <= m or h[0] and f[0] % h[0]:
        return None
    r = list(f)
    q = [0] * (len(f) - m)
    lead = h[-1]
    for k in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[k + m], lead)
        if rem:
            return None
        if c:
            q[k] = c
            for j in range(m):
                r[k + j] -= c * h[j]
    return None if any(r[:m]) else q


def _dense_gcd(f: list[int], g: list[int]) -> tuple[list[int], list[int], list[int]]:
    """(h, f/h, g/h) for h the gcd, primitive with a positive lead, of
    primitive integer coefficient lists, lowest first, with nonzero leads.
    The callers take the contents and any shared power of x out first: the
    digits are read one per degree from a number of about that many digits,
    so the cost grows with the square of the degree, and a shared power of
    x left in would make a sparse pair such as x^65535 and x^65536 dense.

    The heuristic gcd of Char, Geddes & Gonnet (J. Symb. Comput. 7, 1989):
    the balanced base-xi digits of gcd(f(xi), g(xi)) are a candidate whose
    primitive part is the gcd as soon as it divides both, since xi is above
    twice the smaller height.  The evaluation points are _heu_gcd's (see
    _xi_schedule); past them subresultants decide.
    """
    if len(f) == 1 or len(g) == 1:
        return [1], f, g
    if f == g or f == [-c for c in g]:  # f_x = f_y on lines of (x + y + z)^d
        h = _unit_content(f)
        return h, [f[-1] // h[-1]], [g[-1] // h[-1]]
    dbound = min(len(f), len(g)) - 1
    for xi in _xi_schedule(min(max(map(abs, f)), max(map(abs, g))), dbound):
        gam = igcd(_eval(f, xi), _eval(g, xi))
        digits = []
        while gam and len(digits) <= dbound:
            d = _smod(gam, xi)
            digits.append(d)
            gam = (gam - d) // xi
        if not gam:
            h = _unit_content(digits)
            qf = _ddivexact(f, h)
            qg = None if qf is None else _ddivexact(g, h)
            if qg is not None:
                return h, qf, qg
    h = _prs_gcd({(k,): c for k, c in enumerate(f) if c}, {(k,): c for k, c in enumerate(g) if c}, 0, 1)
    h = [h.get((k,), 0) for k in range(max(h)[0] + 1)]
    return h, _ddivexact(f, h), _ddivexact(g, h)


def _unit_content(c: list[int]) -> list[int]:
    """c over its integer content, signed to make the lead positive."""
    g = igcd(*c) if c[-1] > 0 else -igcd(*c)
    return [x // g for x in c]


def _on_axis(coeffs: list[int], i: int, arity: int) -> dict:
    """The terms of the polynomial in x_i alone with the coefficients
    coeffs, lowest first."""
    key = [0] * arity
    terms = {}
    for k, c in enumerate(coeffs):
        if c:
            key[i] = k
            terms[tuple(key)] = c
    return terms


def _sole_variable(a: dict) -> int | None:
    """The one variable the terms involve; None for none or several."""
    vs = [v for v, col in enumerate(zip(*a)) if any(col)]
    return vs[0] if len(vs) == 1 else None


def gcd_int(f: dict, g: dict, arity: int) -> dict:
    """Exact gcd of integer term dicts, primitive with positive lead.

    After the monomial and integer contents come out, two inputs in one
    shared variable go to the dense heuristic gcd on coefficient lists
    (_dense_gcd), the one univariate gcd.  Otherwise _gcd_degree_bound
    bounds the gcd's degree in each shared variable: bounds of 0 settle
    coprimality.  Otherwise the heuristic gcd's answer is the gcd (see
    _heu_gcd), and subresultants decide only where it gives up.  The sign
    and the integer content are taken once, from the result.
    """
    if not f or not g:
        return _unit_normal(dict(f or g))
    zero_key = tuple([0] * arity)
    mf = _mono_content(f, arity)
    mg = _mono_content(g, arity)
    mono = tuple(min(a, b) for a, b in zip(mf, mg))
    f1 = _mono_divide(f, mf)
    g1 = _mono_divide(g, mg)
    cf = _int_content(f1)
    cg = _int_content(g1)
    f1 = {k: v // cf for k, v in f1.items()}
    g1 = {k: v // cg for k, v in g1.items()}
    if f1 == g1:
        core = f1
    elif _total_deg(f1) == 0 or _total_deg(g1) == 0:
        core = {zero_key: 1}
    elif (v := _sole_variable(f1)) is not None and v == _sole_variable(g1):
        coeffs = [[0] * (_deg_in(a, v) + 1) for a in (f1, g1)]
        for a, out in zip((f1, g1), coeffs):
            for e, c in a.items():
                out[e[v]] = c
        core = _on_axis(_dense_gcd(*coeffs)[0], v, arity)
    elif (bound := _gcd_degree_bound(f1, g1, arity)) is not None and not any(bound.values()):
        core = {zero_key: 1}
    elif (core := _heu_gcd(f1, g1, arity)) is None:
        # past the heuristic's points subresultants decide
        shared = [i for i in range(arity) if _deg_in(f1, i) and _deg_in(g1, i)]
        var = min(shared, key=lambda i: min(_deg_in(f1, i), _deg_in(g1, i)))
        contf = _content_wrt(f1, var, arity)
        contg = _content_wrt(g1, var, arity)
        fp = _divide_coeffwise(f1, contf, var, arity)
        gp = _divide_coeffwise(g1, contg, var, arity)
        core = _imul(gcd_int(contf, contg, arity), _prs_gcd(fp, gp, var, arity))
    return _unit_normal(_imul(core, {mono: 1}))


# ---------------------------------------------------------------------------
# Poly
# ---------------------------------------------------------------------------


class BadPrimeError(ArithmeticError):
    """A coefficient's denominator is divisible by the prime: no image mod it."""

    def __init__(self, prime: int):
        super().__init__(f"a coefficient denominator vanishes mod {prime}")
        self.prime = prime


def _check_coeff(c) -> None:
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"coefficient {c!r} is not an int or a Fraction")


class Poly:
    """Immutable sparse polynomial with exact rational coefficients.

    The value is ``content * ints``: ``ints`` maps exponent tuples to
    nonzero integers whose gcd is 1 (the sign lives there) and ``content``
    is a positive Fraction; zero is ``({}, 1)``.  The pair is unique, so
    equality compares it directly, and the arithmetic runs on integers.
    ``terms`` is a read-only ``{exponent: Fraction}`` view built on first use.
    """

    __slots__ = ("ints", "content", "arity", "_mods", "_terms", "_degs")

    def __init__(self, terms: dict[Term, int | Fraction], arity: int):
        denlcm = 1
        for e, c in terms.items():
            _check_coeff(c)
            if len(e) != arity or any(x < 0 for x in e):
                raise ValueError(f"bad exponent tuple {e} for arity {arity}")
            d = c.denominator
            denlcm = denlcm // igcd(denlcm, d) * d
        ints = {e: c.numerator * (denlcm // c.denominator) for e, c in terms.items() if c}
        self._init(*_primitive(ints, Fraction(1, denlcm)), arity)

    def _init(self, ints: dict[Term, int], content: Fraction, arity: int) -> None:
        object.__setattr__(self, "ints", ints)
        # a content of 1 is always the shared _ONE, so products can test identity
        object.__setattr__(self, "content", _ONE if content == 1 else content)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "_mods", None)
        object.__setattr__(self, "_terms", None)
        object.__setattr__(self, "_degs", None)

    def __setattr__(self, *a):  # pragma: no cover - guard rail
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _make(cls, ints: dict[Term, int], content: Fraction, arity: int) -> "Poly":
        """Trusted constructor: ints primitive, content > 0 (1 when ints is empty)."""
        p = object.__new__(cls)
        p._init(ints, content, arity)
        return p

    @classmethod
    def from_ints(cls, ints: dict[Term, int], arity: int, content: Fraction = _ONE) -> "Poly":
        """content * ints for nonzero integer ints and a positive content."""
        return cls._make(*_primitive(ints, content), arity)

    @classmethod
    def zero(cls, arity: int) -> "Poly":
        return cls._make({}, _ONE, arity)

    @classmethod
    def const(cls, c, arity: int) -> "Poly":
        _check_coeff(c)
        if not c:
            return cls.zero(arity)
        return cls._make({(0,) * arity: 1 if c > 0 else -1}, Fraction(abs(c)), arity)

    @classmethod
    def variable(cls, i: int, arity: int) -> "Poly":
        e = [0] * arity
        e[i] = 1
        return cls._make({tuple(e): 1}, _ONE, arity)

    @classmethod
    def from_coeffs(cls, coeffs: list[int], i: int, arity: int, content: Fraction = _ONE) -> "Poly":
        """content times the polynomial in x_i alone with the integer
        coefficients coeffs, lowest first; a negative content's sign moves
        into the coefficients."""
        if content.numerator < 0:
            coeffs, content = [-c for c in coeffs], -content
        return cls.from_ints(_on_axis(coeffs, i, arity), arity, content)

    # -- basic queries ------------------------------------------------------

    @property
    def terms(self) -> MappingProxyType:
        """Read-only ``{exponent: Fraction}`` view of the coefficients."""
        view = self._terms
        if view is None:
            c = self.content
            view = MappingProxyType({e: c * v for e, v in self.ints.items()})
            object.__setattr__(self, "_terms", view)
        return view

    @property
    def is_zero(self) -> bool:
        return not self.ints

    @property
    def is_constant(self) -> bool:
        return all(not any(e) for e in self.ints)

    def constant_value(self) -> Fraction:
        if not self.ints:
            return _ZERO
        if len(self.ints) > 1:
            raise ValueError("not a constant polynomial")
        ((e, c),) = self.ints.items()
        if any(e):
            raise ValueError("not a constant polynomial")
        return self.content * c

    def total_degree(self) -> int:
        return _total_deg(self.ints)

    def degree_in(self, i: int) -> int:
        return _deg_in(self.ints, i)

    def leading(self) -> tuple[Term, Fraction]:
        if not self.ints:
            raise ValueError("zero polynomial has no leading term")
        k = _lead_key(self.ints)
        return k, self.content * self.ints[k]

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(other, self.arity)
        return None

    def _add(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other over the common content gcd(ca, cb)."""
        if not other.ints:
            return self
        if not self.ints:
            return other if sign > 0 else -other
        ca, cb = self.content, other.content
        if ca == cb:
            common, ma, mb = ca, 1, sign
        else:
            na, da = ca.numerator, ca.denominator
            nb, db = cb.numerator, cb.denominator
            g = igcd(na, nb)
            den = da // igcd(da, db) * db
            common = Fraction(g, den)
            ma = na // g * (den // da)
            mb = sign * (nb // g) * (den // db)
        out = dict(self.ints) if ma == 1 else {e: c * ma for e, c in self.ints.items()}
        get = out.get
        for e, c in other.ints.items():
            v = get(e, 0) + mb * c
            if v:
                out[e] = v
            else:
                del out[e]
        return Poly.from_ints(out, self.arity, common)

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._add(other, 1)

    @classmethod
    def sum(cls, polys, arity: int) -> "Poly":
        """The sum of an iterable of polynomials of the given arity.

        One integer accumulator (see _add_scaled) and one content pass at the
        end, where repeated + would re-take the content of every partial sum.
        """
        acc: dict[Term, int] = {}
        den = 1
        for f in polys:
            den = _add_scaled(acc, den, f.ints.items(), f.content.numerator, f.content.denominator)
        return cls.from_ints({e: c for e, c in acc.items() if c}, arity, Fraction(1, den))

    def __sub__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._add(other, -1)

    def __neg__(self) -> "Poly":
        return Poly._make({e: -c for e, c in self.ints.items()}, self.content, self.arity)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.ints, other.ints
        if not a or not b:
            return Poly.zero(self.arity)
        # Gauss's lemma: a product of primitive polynomials is primitive
        ca, cb = self.content, other.content
        content = cb if ca is _ONE else ca if cb is _ONE else ca * cb
        if len(b) == 1 and not any(next(iter(b))):
            a, b = b, a
        if len(a) == 1 and not any(next(iter(a))):
            # a constant factor, primitive, is 1 or -1: the other's terms in their order
            if a[next(iter(a))] == -1:
                b = {e: -c for e, c in b.items()}
            return Poly._make(b, content, self.arity)
        return Poly._make(_imul(a, b), content, self.arity)

    def scale(self, c) -> "Poly":
        _check_coeff(c)
        if not c or not self.ints:
            return Poly.zero(self.arity)
        if c > 0:
            return Poly._make(self.ints, self.content * c, self.arity)
        return Poly._make({e: -v for e, v in self.ints.items()}, self.content * -c, self.arity)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if len(self.ints) == 1:
            # a single term: (c*x^e)^n = c^n * x^(n*e), still primitive
            ((e, c),) = self.ints.items()
            return Poly._make({tuple(n * k for k in e): c**n}, self.content**n, self.arity)
        result = Poly.const(1, self.arity)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.arity == other.arity
            and self.content == other.content
            and self.ints == other.ints
        )

    __hash__ = None  # mutable-dict backed; identity hashing would mislead

    # -- calculus / structure -----------------------------------------------

    def derivative(self, i: int) -> "Poly":
        out = {}
        for e, c in self.ints.items():
            if e[i]:
                k = list(e)
                k[i] -= 1
                out[tuple(k)] = c * e[i]
        return Poly.from_ints(out, self.arity, self.content)

    def embed(self, new_arity: int, mapping: tuple[int, ...]) -> "Poly":
        """Rename variables: old index i becomes mapping[i] (an injective map)."""
        out = {}
        for e, c in self.ints.items():
            k = [0] * new_arity
            for i, v in enumerate(e):
                if v:
                    k[mapping[i]] += v
            out[tuple(k)] = c
        return Poly._make(out, self.content, new_arity)

    # -- evaluation ----------------------------------------------------------

    def line_jet(self, point, i: int, mixed: bool = False) -> tuple[Fraction, list[list[int]]]:
        """(scale, [f, f_0, ..., f_(n-1)]): the restrictions of f and its
        first partials to the line through point (ints or Fractions; point[i]
        is not read) parallel to the x_i axis, as integer coefficient lists
        in x_i, lowest first, each times the one scale; one pass over the
        terms (see _axis_jet).  With mixed, for three variables, the list of
        the second partial in the two pinned variables follows."""
        if not self.ints:
            return _ONE, [[] for _ in range(self.arity + 1 + mixed)]
        rows, degs, den, slopes = _qpowers(self.ints, point, i, slopes=True)
        scale = self.content / den if den > 1 else self.content
        return scale, _axis_jet(self.ints, rows, i, degs[i], slopes, mixed)

    def eval_q(self, point) -> Fraction:
        """The exact value at a point of ints or Fractions, added up in one
        pass over the terms."""
        rows, _, den, _ = _qpowers(self.ints, point)
        total = sum([c * prod(map(getitem, rows, e)) for e, c in self.ints.items()])
        return self.content * total / den

    def _content_mod(self, p: int) -> int:
        """The content mod p; BadPrimeError when p divides its denominator."""
        den = self.content.denominator % p
        if den == 0:
            raise BadPrimeError(p)
        return self.content.numerator * pow(den, -1, p) % p

    def _compiled(self, p: int) -> tuple[list, list[int]]:
        """The residues mod p grouped by variable with a flat leaf (see
        _nest), built once per prime, and the degree in each variable (see
        _degrees)."""
        mods = self._mods
        if mods is None:
            mods = {}
            object.__setattr__(self, "_mods", mods)
        compiled = mods.get(p)
        if compiled is None:
            scale = self._content_mod(p)
            terms = []
            for e, c in self.ints.items():
                v = c * scale % p
                if v:
                    terms.append((e, v))
            compiled = mods[p] = (_nest(terms, 0, self.arity), self._degrees())
        return compiled

    def _degrees(self) -> list[int]:
        """The degree in each variable, computed once."""
        degs = self._degs
        if degs is None:
            degs = [_deg_in(self.ints, i) for i in range(self.arity)]
            object.__setattr__(self, "_degs", degs)
        return degs

    def eval_mod(self, point, p: int) -> int:
        """Value mod p at an integer point: the value entry of eval_grad_mod.

        Raises BadPrimeError when p divides the content's denominator.
        """
        return self.eval_grad_mod((point,), p)[0][0]

    def eval_grad_mod(self, points, p: int) -> list[list[int]]:
        """[value, d/dx_0, ..., d/dx_(n-1)] mod p at each mixture of one or two points.

        Entry k takes x_i from points[bit i of k]; with one point there is
        one entry.  One walk of the compiled form gives them all, and a
        coordinate the two points share is walked once: the mixtures that
        coincide then share one row.
        """
        form, degs = self._compiled(p)
        tables = _tables(degs, points, p)
        rows = _value_and_gradient(form, 0, tables, self.arity)
        rows = [[v % p for v in row] for row in rows]
        if len(points) == 1 or len(rows) == 1 << self.arity:
            return rows
        # mixture k -> the walk's mixed-radix index of its copies
        index = [0]
        radix = 1
        for copies in tables:
            step = radix if len(copies) == 2 else 0
            index += [j + step for j in index]
            radix *= len(copies)
        return [rows[j] for j in index]

    # -- formatting -----------------------------------------------------------

    def to_str(self, names: tuple[str, ...] | None = None) -> str:
        """Terms in descending grlex order, each coefficient content * c
        printed in lowest terms straight from the integer form."""
        ints = self.ints
        if not ints:
            return "0"
        if names is None:
            names = tuple(f"x{i}" for i in range(self.arity))
        n, d = self.content.numerator, self.content.denominator
        parts = []
        for e in sorted(ints, key=grlex_key, reverse=True):
            c = ints[e]
            a = abs(c) * n
            g = igcd(a, d)
            coef = str(a // g) if g == d else f"{a // g}/{d // g}"
            mono = "*".join(
                names[i] if v == 1 else f"{names[i]}^{v}"
                for i, v in enumerate(e)
                if v
            )
            if not mono:
                piece = coef
            elif a == d:
                piece = mono
            else:
                piece = f"{coef}*{mono}"
            parts.append(("- " if c < 0 else "+ ") + piece)
        first = parts[0]
        parts[0] = first[2:] if first[0] == "+" else "-" + first[2:]
        return " ".join(parts)

    def __repr__(self):
        return f"Poly({self.to_str()})"


def _primitive(ints: dict[Term, int], content: Fraction) -> tuple[dict[Term, int], Fraction]:
    """Move the integer content of ints into content; zero becomes ({}, 1)."""
    if not ints:
        return ints, _ONE
    g = _int_content(ints)
    if g > 1:
        ints = {e: c // g for e, c in ints.items()}
        content = content * g
    return ints, content


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Primitive gcd (positive leading coefficient) of the integer images."""
    if a.arity != b.arity:
        raise ValueError("arity mismatch")
    return Poly._make(gcd_int(a.ints, b.ints, a.arity), _ONE, a.arity)


def divexact(a: Poly, b: Poly) -> Poly:
    """Exact polynomial division; raises if b does not divide a."""
    if b.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if a.is_zero:
        return Poly.zero(a.arity)
    # the quotient of primitive polynomials is primitive (Gauss's lemma)
    q = _idivexact(a.ints, b.ints)
    if q is None:
        raise ValueError("inexact polynomial division")
    return Poly._make(q, a.content / b.content, a.arity)
