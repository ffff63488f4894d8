"""Zariski dimension of the image of the doubling map.

For r in n variables, the doubling map L_r sends a 2n-tuple
(v_1^0..v_n^0, v_1^1..v_n^1) to the 2^n values of r obtained by choosing,
for every variable independently, either the 0-copy or the 1-copy.  The
dimension of the closure of its image equals the generic rank of its
Jacobian, sampled at random points modulo primes.

A modular rank never exceeds the rank over Q (a vanishing minor stays zero
under reduction), so every sample is a proven lower bound, and a sample
that reaches a proven upper bound settles the dimension.  The full rank 2n
is one such bound, which proves a no-constraint verdict.  A verified
certificate P = q(s) is another: s depends on the copies only through the
2n values of its parts, by a map invariant under an (n-1)-parameter group
(shifts, scalings, or a scale and a shift), so the dimension is at most
n + 1, which one sample then reaches for every positive verdict.  Only
without such a bound does the dimension rest on an estimate: the maximum
over `samples` points per prime, confirmed by unanimous fresh samples.
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


def _jacobian_rows(f: RatFun, w: list[int], p: int) -> list[list[int]] | None:
    """The doubling-map Jacobian of f at w mod p, or None at a pole.

    Row b of the Jacobian is supported on columns i + n*bit_i(b) only, and
    the entry there is (df/dx_i) at the b-renamed sub-point, so the value
    and partials of num and den at the 2^n sub-points give every row: one
    walk of each compiled form (Poly.eval_grad_mod) over the two copies.
    """
    n = f.arity
    copies = (w[:n], w[n:])
    dens = f.den.eval_grad_mod(copies, p)
    if any(d[0] == 0 for d in dens):
        return None
    nums = f.num.eval_grad_mod(copies, p)
    rows: list[list[int]] = []
    for b in range(1 << n):
        dv, *dg = dens[b]
        nv, *ng = nums[b]
        inv2 = inv_mod(dv * dv, p)
        row = [0] * (2 * n)
        for i in range(n):
            row[i + n * ((b >> i) & 1)] = (ng[i] * dv - nv * dg[i]) * inv2 % p
        rows.append(row)
    return rows


def _ranks(f: RatFun, primes: tuple[int, ...], seed: int, label: str, count: int):
    """Jacobian ranks at count random points modulo each prime in turn; a
    point whose redraws all hit a pole gives none."""
    arity = 2 * f.arity
    for p in primes:
        rng = rng_for(seed, f"{label}:p{p}")
        for _ in range(count):
            for _ in range(RETRIES):
                rows = _jacobian_rows(f, [rng.randrange(1, p) for _ in range(arity)], p)
                if rows is not None:
                    yield rank_mod(rows, p)
                    break


def generic_rank(
    dm: DoublingMap,
    primes: tuple[int, ...] = DEFAULT_PRIMES,
    samples: int = 16,
    seed: int = 0,
    ceiling: int | None = None,
) -> RankEstimate:
    """Generic Jacobian rank of the doubling map (= dim of the image closure).

    Takes the max rank over `samples` random points for each prime, then
    re-checks the value on a fresh confirmation round, doubling the budget
    once if they disagree.  A sample reaching `ceiling`, a proven upper
    bound on the rank (default the full rank 2n), ends the search at once:
    observed ranks never exceed the generic rank, so it is already proof.
    """
    top = 2 * dm.n if ceiling is None else ceiling
    for attempt in range(2):
        ns = samples << attempt
        best = -1
        for r in _ranks(dm.f, primes, seed, f"rank:a{attempt}", ns):
            best = max(best, r)
            if best == top:
                return RankEstimate(best, ns, tuple(primes))
        if best < 0:
            raise AllPolesError(
                "all sampled points hit poles; function too degenerate to sample"
            )
        checked = 0
        for r in _ranks(dm.f, primes, seed, f"rank-confirm:a{attempt}", max(4, ns // 4)):
            if r != best:
                break
            checked += 1
        else:
            if checked:
                return RankEstimate(best, ns, tuple(primes))
    raise InconclusiveRankError(
        "generic rank did not stabilize after doubling the sample budget"
    )


def image_dimension(
    f: RatFun,
    primes: tuple[int, ...] = DEFAULT_PRIMES,
    samples: int = 16,
    seed: int = 0,
    ceiling: int | None = None,
) -> int:
    """dim of the closure of the image of the doubling map of f.

    f satisfies a nontrivial algebraic constraint exactly when this is
    below 2n, n the number of variables.  ceiling is a proven upper bound
    on it, passed to generic_rank (default 2n).
    """
    return generic_rank(doubling_map(f), primes, samples, seed, ceiling).rank


def is_nondegenerate(f: RatFun) -> bool:
    """True iff f genuinely depends on every one of its variables (exact).

    O(terms) on a reduced input, which involves x_i exactly when num or den
    has positive degree in x_i; see RatFun.independent_of.
    """
    if f.arity not in (2, 3):
        raise ValueError("nondegeneracy is defined for 2 or 3 variables")
    return not any(f.independent_of(i) for i in range(f.arity))
