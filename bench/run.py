"""Benchmark of ratforms' unit of work: analyze one function.

Usage, from the root of a checkout:

    python3 bench/run.py --workload tri-corpus --seed 1 --seconds 10 --trace 0

One process, one thread, closed loop: the benchmark is the only caller of
``cli.analyze_function`` and sends the next input when the previous call
returns.  The timed loop runs whole passes over the workload's inputs until
``--seconds`` have elapsed, so every pass sees the same mix.  Each input has
a work budget, enforced with an interval timer; an input that exhausts it
or raises counts as failed and the loop goes on.

The host's speed drifts, so a fixed routine that does not use ratforms is
sampled throughout each timed region and every call's time is scaled by
the routine's local median (see Pace); the raw figures are in the
metadata.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics;
with ``--trace 1`` one more pass runs with every layer's entry points
wrapped (see spans.py) and the last line carries the per-layer metrics.
The line before it holds the run's metadata.  Outputs are checked outside
the timed region: a wrong verdict, a certificate that fails exact
re-verification or an image dimension that disagrees with the exact oracle
makes the run exit 1.  Without ``src/ratforms`` beside ``bench/`` the run
exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
import corpus  # noqa: E402
from spans import Tracer, unit  # noqa: E402

#: Per-input work budget in seconds; the slowest input takes about 4 s.
BUDGET_S = 20.0
#: Fresh interpreters timed for setup_s; the median is reported.
SETUP_RUNS = 7
#: The CLI's defaults: two 31-bit primes, 16 rank samples, program seed 0.
PRIME_BITS = 31
SAMPLES = 16
PROGRAM_SEED = 0

#: Time of one reference sample on the machine the figures are scaled to;
#: it takes about this long under CPython 3.11.7 on a quiet 2-core host.
REF_NOMINAL_S = 1.0e-3
#: CPU time between reference samples while a timed region runs (about 2%
#: of it goes to the samples, which are subtracted from the calls).
PACE_INTERVAL_S = 0.05
#: A call's slowdown is the median of the samples taken during it and
#: within this many seconds on either side, and of at least PACE_MIN.
PACE_WINDOW_S = 0.5
PACE_MIN = 5
#: A reference sample expands (3/2*x + y - 5/3)^5 and row-reduces a fixed
#: 10 x 12 matrix of residues modulo the prime 2^31 - 1.
_REF_POLY = {(1, 0, 0): Fraction(3, 2), (0, 1, 0): Fraction(1), (0, 0, 0): Fraction(-5, 3)}
_REF_PRIME = 2**31 - 1


def _ref_matrix(rows: int, cols: int, p: int) -> list[list[int]]:
    """Residues from the quadratic map x -> x^2 + 12345 mod p, row by row."""
    x, out = 1, []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            x = (x * x + 12345) % p
            row.append(x)
        out.append(row)
    return out


_REF_MATRIX = _ref_matrix(10, 12, _REF_PRIME)

SETUP_CODE = """\
import time
t0 = time.perf_counter()
from ratforms import cli
from ratforms.modular import primes_below
primes_below(1 << {bits}, 2)
print(time.perf_counter() - t0)
""".format(bits=PRIME_BITS)


class BudgetExhausted(BaseException):
    """Raised by SIGALRM when one input runs past BUDGET_S.

    Not an Exception, so that no handler inside the program can swallow it.
    """


def _on_alarm(signum, frame):
    raise BudgetExhausted


def _rank_mod(rows: list[list[int]], p: int) -> int:
    """Rank over GF(p) by Gauss-Jordan elimination on a copy of rows."""
    m = [list(row) for row in rows]
    rank = 0
    for col in range(len(m[0])):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        prow = m[rank] = [x * inv % p for x in m[rank]]
        for i, row in enumerate(m):
            if i != rank and row[col]:
                f = row[col]
                m[i] = [(a - f * b) % p for a, b in zip(row, prow)]
        rank += 1
        if rank == len(m):
            break
    return rank


def _reference_work() -> None:
    corpus.power(_REF_POLY, 5, 3)
    _rank_mod(_REF_MATRIX, _REF_PRIME)


class Pace:
    """Timed samples of a fixed routine that does not use ratforms.

    The host's speed drifts by more than a tenth over tens of seconds, and
    by up to 1.9 times over an hour, for any code.  While a timed region runs,
    a profiling timer takes a sample every PACE_INTERVAL_S of CPU time, and
    each call's time is scaled to a machine on which one sample takes
    REF_NOMINAL_S.  The routine mixes the program's two kinds of hot code,
    exact rational polynomial arithmetic and row reduction modulo a
    word-sized prime, because a slow host slows the two by different
    factors.  Nothing a change to ratforms does can alter its work.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self._busy = False

    def sample(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            _reference_work()
            self.samples.append((t0, time.perf_counter() - t0))
        finally:
            self._busy = False

    def __enter__(self):
        for _ in range(PACE_MIN):
            self.sample()
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, PACE_INTERVAL_S, PACE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        for _ in range(PACE_MIN):
            self.sample()

    def slowdown(self, start: float, end: float) -> float:
        """Median sample time around [start, end], over REF_NOMINAL_S."""
        times = [t for t, _ in self.samples]
        i = bisect.bisect_left(times, start - PACE_WINDOW_S)
        j = bisect.bisect_right(times, end + PACE_WINDOW_S)
        if j - i < PACE_MIN:
            i, j = max(0, i - PACE_MIN), j + PACE_MIN
        return statistics.median(d for _, d in self.samples[i:j]) / REF_NOMINAL_S

    def scaled(self, calls: list[tuple[float, float]]) -> list[float]:
        """Each call's time, less the samples taken inside it, over its slowdown."""
        out = []
        for start, end in calls:
            inside = sum(d for t, d in self.samples if start <= t <= end)
            out.append((end - start - inside) / self.slowdown(start, end))
        return out


def measure_setup(pace: Pace) -> list[float]:
    """Times for fresh interpreters to import ratforms and build the primes.

    Each is scaled by the slowdown sampled just before it.  One untimed
    interpreter runs first, so that compiling the bytecode cache is not
    counted.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    times = []
    for i in range(SETUP_RUNS + 1):
        for _ in range(PACE_MIN):
            pace.sample()
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        if i:
            now = pace.samples[-1][0]
            times.append(float(out.stdout) / pace.slowdown(now, now))
    return times


def analyze(cli, item, primes):
    """(report, error) for one input; error is None, "budget" or the exception."""
    signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
    try:
        report, _ = cli.analyze_function(
            item.expr, item.names, primes, SAMPLES, PROGRAM_SEED, None, False
        )
        return report, None
    except BudgetExhausted:
        return None, "budget"
    except Exception as exc:  # one bad input must not abort the workload
        traceback.print_exc(file=sys.stderr)
        return None, repr(exc)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def timed_passes(cli, items, primes, seconds: float):
    """Whole passes over items until seconds have elapsed.

    Returns the first pass's (report, error) pairs, every call's (start,
    end) and the number of failed calls.
    """
    calls: list[tuple[float, float]] = []
    failed = 0
    first = None
    clock = time.perf_counter
    start = clock()
    while True:
        outcomes = []
        for item in items:
            t0 = clock()
            report, err = analyze(cli, item, primes)
            calls.append((t0, clock()))
            failed += err is not None
            outcomes.append((report, err))
        if first is None:
            first = outcomes
        if clock() - start >= seconds:
            return first, calls, failed


def traced_pass(cli, tracer, items, primes) -> tuple[list[tuple[float, float]], int]:
    """One pass with the tracer installed: each call's (start, end), failures.

    Per-layer self times are raw, not scaled, and include the reference
    samples taken while a span was open (about 2% of its time).
    """
    calls = []
    failed = 0
    for i, item in enumerate(items):
        tracer.begin(i, "analyze")
        t0 = time.perf_counter()
        failed += analyze(cli, item, primes)[1] is not None
        calls.append((t0, time.perf_counter()))
    return calls, failed


def check(items, outcomes, tracer=None):
    """Judge the first pass's reports: (solved count, problems).

    Runs outside the timed region, with exact arithmetic only.  Every
    positive verdict must match the class the input was built with and
    carry a certificate that, read back from its printed strings without
    the program's parser, vanishes exactly on the function as the
    generator built it.  A no-constraint verdict needs full image
    dimension, a positive one less, and an unlabelled input's dimension
    must equal the symbolic Jacobian rank.  A coverage gap that comes back
    unresolved is unsolved, not wrong.
    """
    from ratforms import classify
    from ratforms.dimension import doubling_map
    from ratforms.oracle import symbolic_rank
    from ratforms.poly import Poly
    from ratforms.ratfun import RatFun, parse

    def ratfun(num, den, arity):
        return RatFun.raw(Poly(num, arity), Poly(den, arity))

    def built(item):
        """The function as generated, or parsed when the input is handwritten."""
        if item.num is None:
            return parse(item.expr, item.names)
        return ratfun(item.num, item.den, len(item.names))

    solved = 0
    problems: list[str] = []
    for i, (item, (report, err)) in enumerate(zip(items, outcomes)):
        if err is not None:
            continue
        if tracer is not None:
            tracer.begin(i, "check")
        verdict = report["verdict"]
        full = 2 * len(item.names)
        dim = report["image_dimension"]
        if item.expect is None:
            solved += 1
        elif verdict in (item.expect, item.truth):
            solved += 1
        elif verdict != corpus.UNRESOLVED:
            problems.append(f"{item.expr}: verdict {verdict}, built as {item.truth}")
        if verdict in corpus.POSITIVE:
            if dim is not None and dim >= full:
                problems.append(f"{item.expr}: {verdict} with image dimension {dim}")
            cert, fitted = report["certificate"], report["fitted"]
            if cert is None or fitted is None:
                problems.append(f"{item.expr}: {verdict} without a certificate")
            else:
                ann, one = corpus.read_ratfun(cert["annihilator"], ("p", "q"))
                ok = one == corpus.const(1, 2) and classify.verify_certificate(
                    classify.DependenceCertificate(Poly(ann, 2), cert["degree_bound"], True),
                    built(item),
                    ratfun(*corpus.read_ratfun(fitted["s"], item.names), len(item.names)),
                )
                if not ok:
                    problems.append(f"{item.expr}: certificate fails re-verification")
        if verdict == corpus.NONE and dim != full:
            problems.append(f"{item.expr}: no-constraint with image dimension {dim}")
        if item.truth is None and dim is not None:
            exact = symbolic_rank(doubling_map(built(item)))
            if exact != dim:
                problems.append(f"{item.expr}: image dimension {dim}, symbolic rank {exact}")
    return solved, problems


def source_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((SRC / "ratforms").glob("*.py")))


def run(items, seconds: float, trace: bool):
    """Measure one workload: (result, metadata, tracer or None)."""
    pace = Pace()
    setup = [] if trace else measure_setup(pace)
    sys.path.insert(0, str(SRC))
    from ratforms import cli
    from ratforms.modular import primes_below

    primes = primes_below(1 << PRIME_BITS, 2)
    signal.signal(signal.SIGALRM, _on_alarm)
    analyze(cli, corpus.Item("x*y*z + x", corpus.TRI, None, None, "warm-up"), primes)

    start = time.perf_counter()
    with pace:
        outcomes, calls, failed = timed_passes(cli, items, primes, seconds)
    elapsed = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = len(calls)
    raw = [end - begin for begin, end in calls]
    latency = pace.scaled(calls)

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            with pace:
                traced, traced_failed = traced_pass(cli, tracer, items, primes)
            check_start = time.perf_counter()
            solved, problems = check(items, outcomes, tracer)
            check_s = time.perf_counter() - check_start
        finally:
            tracer.uninstall()
        attempted += len(items)
        failed += traced_failed
        metrics = tracer.summary(len(items))
        traced_per_fn = sum(pace.scaled(traced)) / len(traced)
        metrics["tracing_overhead"] = (sum(latency) / len(latency)) / traced_per_fn
    else:
        check_start = time.perf_counter()
        solved, problems = check(items, outcomes)
        check_s = time.perf_counter() - check_start
        metrics = {
            "setup_s": statistics.median(setup),
            "fn_per_s": len(latency) / sum(latency),
            "latency_p50_ms": statistics.median(latency) * 1e3,
            "latency_p95_ms": statistics.quantiles(latency, n=20, method="inclusive")[18] * 1e3,
            "solved_share": solved / len(items),
            "peak_rss_mb": peak_rss_mb,
        }
    reports = [report for report, _ in outcomes]
    meta = {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": source_lines(),
        "inputs": len(items),
        "inputs_sha256": corpus.digest(items),
        "reports_sha256": hashlib.sha256((json.dumps(reports, indent=2) + "\n").encode()).hexdigest(),
        "passes": len(calls) // len(items),
        "elapsed_s": elapsed,
        "slowdown": pace.slowdown(start, start + elapsed),
        "raw_fn_per_s": len(raw) / sum(raw),
        "raw_latency_p50_ms": statistics.median(raw) * 1e3,
        "check_s": check_s,
        "solved": solved,
        "problems": problems,
    }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    return result, meta, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ratforms" / "__init__.py").is_file():
        print(f"bench: no ratforms sources under {SRC}", file=sys.stderr)
        return 2

    result, meta, tracer = run(corpus.build(args.workload, args.seed), args.seconds, bool(args.trace))
    meta = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **meta}
    OUT.mkdir(exist_ok=True)
    if tracer is not None:
        tracer.dump(OUT / f"spans-{args.workload}.jsonl")
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "result": result}, indent=2) + "\n", encoding="utf-8"
    )
    for problem in meta["problems"]:
        print(f"bench: {problem}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
