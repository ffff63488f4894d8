"""Zariski dimension of the image of the doubling map.

For r in n variables, the doubling map L_r sends a 2n-tuple
(v_1^0..v_n^0, v_1^1..v_n^1) to the 2^n values of r obtained by choosing,
for every variable independently, either the 0-copy or the 1-copy.  The
dimension of the closure of its image equals the generic rank of its
Jacobian, sampled at random points modulo primes.

A modular rank never exceeds the rank over Q (a vanishing minor stays zero
under reduction), so every sample is a proven lower bound, and a sample
that reaches the full rank 2n proves a no-constraint verdict.

A verified certificate P = q(s) settles the dimension at n + 1 with no
sample.  Upper bound: s depends on the copies only through the 2n values of
its parts, by a map invariant under an (n-1)-parameter group (shifts,
scalings, or a scale and a shift), so the dimension is at most n + 1.
Lower bound, for a nondegenerate r: let b_k be the row whose first k
variables take the 1-copy, k = 0..n, and restrict rows b_0..b_n to the
columns x_1^0, x_1^1, .., x_n^1.  Row b_k meets those columns only at
x_1^1..x_k^1 (and b_0 only at x_1^0), so the minor is lower-triangular, and
its diagonal entry in row b_k is r_k, the partial in x_k, at a renamed
point (r_1 for b_0).  r depends on every variable, so each is a nonzero
function, and the minor is nonzero: the dimension is at least n + 1.

Only without a certificate or a full-rank sample does the dimension rest on
an estimate: the maximum rank over k points per prime.  Scaled by D(w_b)^2,
row b of the Jacobian has the entries N_i D - N D_i at the b-renamed point
w_b, of total degree at most e = deg N + deg D - 1, so an r-minor has degree
at most 2n*e.  A point drawn from {1..p-1}^2n, and redrawn where some D(w_b)
vanishes (degree 2^n*deg D in all), misses a nonzero minor with probability
at most eps_p = 2n*e / (p - 1 - 2^n*deg D) (Schwartz 1980; Zippel 1979),
unless p divides every minor of the generic rank.  k is the least count
with eps_p^k <= 2^-64 at every prime (1 when e = 0: the minors are
constants).  When k exceeds `samples`, or eps_p >= 1, the maximum over
`samples` points is confirmed by unanimous fresh samples.

image_dimension reads every Jacobian row straight off f's numerator and
denominator at the two copies of a point (see _jacobian_rows), so it
builds no components; doubling_map builds them, and carries f and n for
the exact oracle (oracle.symbolic_rank).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, inf, log2

from .modular import DEFAULT_PRIMES, rank_mod, rng_for
from .ratfun import PoleError, RatFun, partials_mod, pole_free

MAX_DOUBLING_VARS = 6
#: Each prime's rank estimate misses with probability at most 2^-MISS_BITS.
MISS_BITS = 64


class InconclusiveRankError(RuntimeError):
    """Rank samples refused to stabilize; caller should treat as unresolved."""


class AllPolesError(RuntimeError):
    """Every sampled point hit a pole of the function."""


@dataclass(frozen=True)
class DoublingMap:
    """The map L_r together with the data needed to evaluate its Jacobian."""

    f: RatFun
    n: int
    components: tuple[RatFun, ...]


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


def _jacobian_rows(f: RatFun, w, p: int) -> list[list[int]]:
    """The doubling-map Jacobian of f at w mod p, row b scaled by the unit
    D(w_b)^2; PoleError at a pole.

    Row b of the Jacobian is supported on columns i + n*bit_i(b) only, and
    the entry there is N_i D - N D_i at the b-renamed sub-point w_b, so the
    partials of f at the 2^n sub-points give every row: one partials_mod
    read of the two copies.
    """
    n = f.arity
    parts = partials_mod(f.num, f.den, (w[:n], w[n:]), p)
    if any(dv == 0 for dv, _ in parts):
        raise PoleError(f"pole mod {p} at {tuple(w)}")
    rows: list[list[int]] = []
    for b, (_, gs) in enumerate(parts):
        row = [0] * (2 * n)
        for i in range(n):
            row[i + n * ((b >> i) & 1)] = gs[i]
        rows.append(row)
    return rows


def _budget(f: RatFun, primes: tuple[int, ...]) -> float:
    """The least k with eps_p^k <= 2^-MISS_BITS at every prime p (see the
    module docstring), set by the smallest; inf when its eps_p >= 1."""
    dd = f.den.total_degree()
    miss = 2 * f.arity * max(0, f.num.total_degree() + dd - 1)
    room = min(primes) - 1 - (dd << f.arity)
    if not miss:
        return 1
    return ceil(MISS_BITS / log2(room / miss)) if room > miss else inf


def _ranks(f: RatFun, primes: tuple[int, ...], seed: int, label: str, count: int):
    """Jacobian ranks at count pole-free points modulo each prime in turn;
    a point that runs out of draws gives none."""
    for p in primes:
        rng = rng_for(seed, f"{label}:p{p}")
        for rows in pole_free(lambda w: _jacobian_rows(f, w, p), 2 * f.arity, count, p, rng):
            if rows is not None:
                yield rank_mod(rows, p)


def image_dimension(
    f: RatFun,
    primes: tuple[int, ...] = DEFAULT_PRIMES,
    samples: int = 16,
    seed: int = 0,
) -> int:
    """dim of the closure of the image of the doubling map of f, sampled.

    f satisfies a nontrivial algebraic constraint exactly when this is
    below 2n, n the number of variables; the classifier calls it only when
    no certificate settles the dimension at n + 1.  The estimate is the
    generic Jacobian rank: the max rank over k random points per prime, k
    the least with eps_p^k <= 2^-64, eps_p = 2n*e / (p - 1 - 2^n*deg D)
    and e = deg N + deg D - 1 (see the module docstring).  When k exceeds
    `samples`, or eps_p >= 1, the max over `samples` points is re-checked
    on a fresh confirmation round, with the budget doubled once if they
    disagree.  A sample reaching the full rank 2n ends the search at once:
    observed ranks never exceed the generic rank, so it is already proof.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    full = 2 * f.arity
    k = _budget(f, primes)
    for attempt in range(2):
        ns = k if k <= samples else samples << attempt
        best = -1
        for r in _ranks(f, primes, seed, f"rank:a{attempt}", ns):
            best = max(best, r)
            if best == full:
                return best
        if best < 0:
            raise AllPolesError(
                "all sampled points hit poles; function too degenerate to sample"
            )
        if k <= samples:
            return best
        checked = 0
        for r in _ranks(f, primes, seed, f"rank-confirm:a{attempt}", max(4, ns // 4)):
            if r != best:
                break
            checked += 1
        else:
            if checked:
                return best
    raise InconclusiveRankError(
        "generic rank did not stabilize after doubling the sample budget"
    )


def is_nondegenerate(f: RatFun) -> bool:
    """True iff f genuinely depends on every one of its variables (exact),
    at any arity.

    O(terms) on a reduced input, which involves x_i exactly when num or den
    has positive degree in x_i; see RatFun.independent_of.
    """
    return not any(f.independent_of(i) for i in range(f.arity))
