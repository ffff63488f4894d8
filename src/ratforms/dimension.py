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


def _rank_at_random(f: RatFun, p: int, rng) -> int | None:
    arity = 2 * f.arity
    for _ in range(RETRIES):
        w = [rng.randrange(1, p) for _ in range(arity)]
        rows = _jacobian_rows(f, w, p)
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
    for attempt in range(2):
        ns = samples << attempt
        best = 0
        saw_point = False
        for p in primes:
            rng = rng_for(seed, f"rank:a{attempt}:p{p}")
            for _ in range(ns):
                r = _rank_at_random(dm.f, p, rng)
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
                r = _rank_at_random(dm.f, p, rng)
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
