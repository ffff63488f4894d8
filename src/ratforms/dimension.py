"""Zariski dimension of the image of the doubling map.

For r in n variables, the doubling map L_r sends a 2n-tuple
(v_1^0..v_n^0, v_1^1..v_n^1) to the 2^n values of r obtained by choosing,
for every variable independently, either the 0-copy or the 1-copy.  The
dimension of the closure of its image equals the generic rank of its
Jacobian, which we measure exactly-with-high-confidence by evaluating the
Jacobian at random points modulo large primes.

Modular evaluation only ever *underestimates* the characteristic-zero
rank (a vanishing minor stays zero under reduction), so the maximum
observed rank is a certified lower bound; unanimity of fresh confirmation
samples is the evidence that it is also the generic rank.
"""

from __future__ import annotations

from dataclasses import dataclass

from .modular import DEFAULT_PRIMES, RETRIES, inv_mod, rank_mod, rng_for
from .ratfun import RatFun

MAX_DOUBLING_VARS = 6


class InconclusiveRankError(RuntimeError):
    """Rank samples refused to stabilize; caller should treat as unresolved."""


class AllPolesError(RuntimeError):
    """Every sampled point hit a pole of the function."""


@dataclass(frozen=True)
class RankEstimate:
    rank: int
    samples: int
    primes: tuple[int, ...]
    unanimous: bool


@dataclass(frozen=True)
class DoublingMap:
    """The map L_r together with the data needed to evaluate its Jacobian."""

    f: RatFun
    n: int
    components: tuple[RatFun, ...]

    @property
    def ambient_arity(self) -> int:
        return 2 * self.n


def doubling_map(f: RatFun) -> DoublingMap:
    """All 2^n copy-choice renamings of f, in ambient arity 2n.

    Component index b uses the 1-copy of variable i exactly when bit i of
    b is set; ambient slots 0..n-1 are the 0-copies, n..2n-1 the 1-copies.
    """
    n = f.arity
    if n > MAX_DOUBLING_VARS:
        raise ValueError(f"doubling map limited to {MAX_DOUBLING_VARS} variables")
    comps = []
    for b in range(1 << n):
        mapping = tuple(i + n * ((b >> i) & 1) for i in range(n))
        comps.append(f.embed(2 * n, mapping))
    return DoublingMap(f=f, n=n, components=tuple(comps))


def _nest(terms: list[tuple[tuple[int, ...], int]], level: int, n: int) -> list:
    """Terms grouped by their exponent of x_level, then of x_level+1, ...

    The last level holds (exponent, coefficient) pairs; every other level
    holds (exponent, nested subpolynomial) pairs.
    """
    if level == n - 1:
        return [(e[level], c) for e, c in terms]
    groups: dict[int, list] = {}
    for e, c in terms:
        groups.setdefault(e[level], []).append((e, c))
    return [(k, _nest(sub, level + 1, n)) for k, sub in groups.items()]


def _value_and_gradient(node: list, level: int, tables, n: int) -> list[list[int]]:
    """[value, d/dx_level, ..., d/dx_(n-1)] of a nested polynomial, unreduced.

    One entry per choice of copies for x_level..x_(n-1): bit k of the index
    picks the 1-copy of x_(level+k).  tables[i][copy] holds the powers x^e
    and the derivatives e*x^(e-1) of that copy's coordinate, so a zero
    coordinate needs no special case.  A subpolynomial is walked once for
    both copies of its variable and shared by every choice of the ones above.
    """
    if level == n - 1:
        (a0, d0), (a1, d1) = tables[level]
        v0 = g0 = v1 = g1 = 0
        for e, c in node:
            v0 += c * a0[e]
            g0 += c * d0[e]
            v1 += c * a1[e]
            g1 += c * d1[e]
        return [[v0, g0], [v1, g1]]
    out = [[0] * (n - level + 1) for _ in range(2 << (n - level - 1))]
    for e, child in node:
        sub = _value_and_gradient(child, level + 1, tables, n)
        for copy, (a, d) in enumerate(tables[level]):
            ae, de = a[e], d[e]
            for k, (cv, *cg) in enumerate(sub):
                acc = out[copy | k << 1]
                acc[0] += ae * cv
                acc[1] += de * cv
                for j, x in enumerate(cg, 2):
                    acc[j] += ae * x
    return out


class _JacobianEvaluator:
    """Evaluates the doubling-map Jacobian at points mod p.

    Row b of the Jacobian is supported on columns i + n*bit_i(b) only, and
    the entry there is (dr/dx_i) at the b-renamed sub-point, so the value
    and partials of num and den at the 2^n sub-points give every row.  Per
    prime, num and den are compiled once into nested coefficient lists
    (see _nest); one walk of each then yields all 2^n values and gradients.
    """

    def __init__(self, dm: DoublingMap):
        f = dm.f
        self.n = dm.n
        self.polys = (f.num, f.den)
        self.maxdeg = [max(f.num.degree_in(i), f.den.degree_in(i)) for i in range(dm.n)]
        self.compiled: dict[int, tuple[list, list]] = {}

    def _compile(self, p: int) -> tuple[list, list]:
        nested = self.compiled.get(p)
        if nested is None:
            nested = tuple(
                _nest(list(q.mod_terms(p).items()), 0, self.n) for q in self.polys
            )
            self.compiled[p] = nested
        return nested

    def rows_at(self, w: list[int], p: int) -> list[list[int]] | None:
        n = self.n
        num, den = self._compile(p)
        tables = []
        for i in range(n):
            deg = self.maxdeg[i]
            copies = []
            for slot in (i, i + n):
                x = w[slot] % p
                pw = [1] * (deg + 1)
                dpw = [0] * (deg + 1)
                for e in range(1, deg + 1):
                    dpw[e] = e * pw[e - 1] % p
                    pw[e] = pw[e - 1] * x % p
                copies.append((pw, dpw))
            tables.append(copies)
        dens = _value_and_gradient(den, 0, tables, n)
        if any(d[0] % p == 0 for d in dens):
            return None
        nums = _value_and_gradient(num, 0, tables, n)
        rows: list[list[int]] = []
        for b in range(1 << n):
            dv, *dg = (v % p for v in dens[b])
            nv, *ng = (v % p for v in nums[b])
            inv2 = inv_mod(dv * dv, p)
            row = [0] * (2 * n)
            for i in range(n):
                row[i + n * ((b >> i) & 1)] = (ng[i] * dv - nv * dg[i]) * inv2 % p
            rows.append(row)
        return rows


def _rank_at_random(ev: _JacobianEvaluator, p: int, rng) -> int | None:
    arity = 2 * ev.n
    for _ in range(RETRIES):
        w = [rng.randrange(1, p) for _ in range(arity)]
        rows = ev.rows_at(w, p)
        if rows is not None:
            return rank_mod(rows, p)
    return None


def generic_rank(
    dm: DoublingMap,
    primes: tuple[int, ...] = DEFAULT_PRIMES,
    samples: int = 16,
    seed: int = 0,
) -> RankEstimate:
    """Generic Jacobian rank of the doubling map (= dim of the image closure).

    Takes the max rank over `samples` random points for each prime, then
    re-checks the value on a fresh confirmation round.  Full rank 2n ends
    the search immediately: observed ranks never exceed the generic rank,
    so full rank is already proof.
    """
    full = dm.ambient_arity
    ev = _JacobianEvaluator(dm)
    for attempt in range(2):
        ns = samples << attempt
        best = 0
        saw_point = False
        for p in primes:
            rng = rng_for(seed, f"rank:a{attempt}:p{p}")
            for _ in range(ns):
                r = _rank_at_random(ev, p, rng)
                if r is None:
                    continue
                saw_point = True
                if r > best:
                    best = r
                if best == full:
                    return RankEstimate(best, ns, tuple(primes), True)
        if not saw_point:
            raise AllPolesError(
                "all sampled points hit poles; function too degenerate to sample"
            )
        confirm = max(4, ns // 4)
        unanimous = True
        checked = 0
        for p in primes:
            rng = rng_for(seed, f"rank-confirm:a{attempt}:p{p}")
            for _ in range(confirm):
                r = _rank_at_random(ev, p, rng)
                if r is None:
                    continue
                checked += 1
                if r != best:
                    unanimous = False
                    break
            if not unanimous:
                break
        if unanimous and checked > 0:
            return RankEstimate(best, ns, tuple(primes), True)
    raise InconclusiveRankError(
        "generic rank did not stabilize after doubling the sample budget"
    )


def image_dimension(
    f: RatFun,
    primes: tuple[int, ...] = DEFAULT_PRIMES,
    samples: int = 16,
    seed: int = 0,
) -> int:
    """dim of the closure of the image of the doubling map of f.

    f satisfies a nontrivial algebraic constraint exactly when this is
    below 2n, n the number of variables.
    """
    return generic_rank(doubling_map(f), primes=primes, samples=samples, seed=seed).rank


def is_nondegenerate(f: RatFun) -> bool:
    """True iff f genuinely depends on every one of its variables (exact).

    O(terms) on a reduced input, which involves x_i exactly when num or den
    has positive degree in x_i; see RatFun.independent_of.
    """
    if f.arity not in (2, 3):
        raise ValueError("nondegeneracy is defined for 2 or 3 variables")
    return not any(f.independent_of(i) for i in range(f.arity))
