"""End-to-end acceptance checks for the whole analysis pipeline.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line (visible even under pytest's output capture):

1. image dimensions match a frozen table within a wall-clock budget, and
   the modular rank estimator agrees with the symbolic Jacobian oracle on
   a corpus of low-degree functions;
2. the three value-cube identities hold exactly on random integer cubes
   for twisted-form functions and fail for non-twisted ones;
3. synthetic canonical-form instances (50 per class) are classified back
   to their generating class, an input under an outer map that no
   generator draws is classified with a verified certificate, and
   precondition violations surface as Unresolved with a named diagnostic,
   never as a wrong positive;
4. every positive certificate substitutes to the exact zero function and
   corrupted certificates are rejected;
5. trichotomy: no function whose measured image dimension is 4 is ever
   reported NoConstraint, and every verdict is a canonical form or a
   diagnosed Unresolved;
6. bivariate composites split into sum/product classes with exact
   certificates, and unconstrained bivariate functions report the full
   image dimension 4;
7. the command-line interface produces byte-identical JSON when the full
   corpus is run twice with the same seed.

Expensive shared artifacts (the 200-instance synthetic corpus and its
classification reports) are built once and cached at module level.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction

import synth

from ratforms import cli
from ratforms.classify import (
    TEMPLATES,
    DependenceCertificate,
    classify_trivariate,
    cube_identities,
    fit_bivariate,
    verify_certificate,
)
from ratforms.dimension import doubling_map, image_dimension
from ratforms.modular import DEFAULT_PRIMES
from ratforms.oracle import symbolic_rank
from ratforms.poly import Poly
from ratforms.ratfun import RatFun, compose_numerator, parse

BI = synth.BI
TRI = synth.TRI

POSITIVE_VERDICTS = ("GroupAdditive", "GroupMultiplicative", "Field", "Twisted")

# expression, variable names, expected image dimension of the doubling map
DIMENSION_TABLE = (
    ("x + y", BI, 3),
    ("x*y", BI, 3),
    ("(x + y)/(y + z)", TRI, 4),
    ("x + y + z", TRI, 4),
    ("x + y + x^2*y^3", BI, 4),
    ("x + y + z + x^2*y^2*z^2", TRI, 6),
)

# Instances that break one precondition of a fitter.  Each must come back
# Unresolved with the named diagnostic False -- never as a positive class.
VIOLATORS = (
    # the y-part y^2 + 1 has no rational root, so the multiplicative
    # integration step cannot split its logarithmic derivative
    ("(x*(y^2+1)*z)^2", "group_multiplicative_non-splitting-factor"),
    # pivot residues fail to split for the same reason
    ("(x^2+1)*(y+z)^2", "field_pivot_x_residues_split"),
)

# Instances under an outer map that no generator draws.  The fitters take
# any nonconstant univariate rational outer map, so each must come back
# with its class and a verified certificate.
OUTER_MAP_INSTANCES = (
    ("(x+y)/(y+z) + 2", "Twisted"),
)

_CACHE: dict[str, object] = {}


def _report(capsys, num: int, label: str, ok: bool) -> None:
    with capsys.disabled():
        print(f"[acceptance {num}] {label}: {'PASS' if ok else 'FAIL'}")


def _synthetic_instances() -> list[tuple[str, RatFun, int | None]]:
    """50 instances per canonical class, deterministic across runs."""
    if "instances" not in _CACHE:
        rng = random.Random(9121)
        instances: list[tuple[str, RatFun, int | None]] = []
        for _ in range(50):
            instances.append(("GroupAdditive", synth.make_additive(rng), None))
        for _ in range(50):
            instances.append(
                ("GroupMultiplicative", synth.make_multiplicative(rng), None)
            )
        for _ in range(50):
            fn, n = synth.make_field(rng)
            instances.append(("Field", fn, n))
        for _ in range(50):
            instances.append(("Twisted", synth.make_twisted(rng), None))
        _CACHE["instances"] = instances
    return _CACHE["instances"]  # type: ignore[return-value]


def _classified():
    """Classification reports for the synthetic corpus, with timings."""
    if "classified" not in _CACHE:
        rows = []
        for want, fn, n in _synthetic_instances():
            t0 = time.monotonic()
            rep = classify_trivariate(fn)
            rows.append((want, fn, n, rep, time.monotonic() - t0))
        _CACHE["classified"] = rows
    return _CACHE["classified"]


def _bivariate_corpus():
    """30 sum-composites and 30 product-composites with their reports."""
    if "bivariate" not in _CACHE:
        rng = random.Random(777)
        rows = []
        for _ in range(30):
            fn = synth.make_bivariate_additive(rng)
            rows.append(("GroupAdditive", fn, fit_bivariate(fn)))
        for _ in range(30):
            fn = synth.make_bivariate_multiplicative(rng)
            rows.append(("GroupMultiplicative", fn, fit_bivariate(fn)))
        _CACHE["bivariate"] = rows
    return _CACHE["bivariate"]


def _rebuilds_s(rep) -> bool:
    """Does the report's template, applied to its parts, pivot and exponent,
    give its s exactly?"""
    parts = [rep.fitted[k] for k in ("r1", "r2", "r3") if k in rep.fitted]
    return TEMPLATES[rep.verdict](parts, rep.pivot, rep.exponent) == rep.fitted["s"]


def test_dimension_table_and_rank_oracle(capsys):
    failures: list[str] = []
    ok = False
    try:
        for expr, names, want in DIMENSION_TABLE:
            fn = parse(expr, names)
            t0 = time.monotonic()
            dim = image_dimension(fn, primes=DEFAULT_PRIMES, samples=16, seed=0)
            dt = time.monotonic() - t0
            if dim != want:
                failures.append(f"{expr}: dimension {dim} != {want}")
            if dt >= 5.0:
                failures.append(f"{expr}: took {dt:.2f}s (budget 5s)")

        corpus = [(e, BI) for e in synth.RANK_CORPUS_BI]
        corpus += [(e, TRI) for e in synth.RANK_CORPUS_TRI]
        assert len(corpus) >= 30
        for expr, names in corpus:
            f = parse(expr, names)
            generic = image_dimension(f, primes=DEFAULT_PRIMES, samples=16, seed=0)
            exact = symbolic_rank(doubling_map(f))
            if generic != exact:
                failures.append(f"{expr}: generic rank {generic} != symbolic {exact}")
        ok = not failures
    finally:
        _report(capsys, 1, "image-dimension table and modular/symbolic rank agreement", ok)
    assert ok, "\n".join(failures)


def test_twisted_cube_identities(capsys):
    failures: list[str] = []
    ok = False
    try:
        t0 = time.monotonic()

        s = parse("(x + y)/(y + z)", TRI)
        if not all(cube_identities(s, trials=100, seed=0)):
            failures.append("(x+y)/(y+z): an identity failed on some cube")

        rng = random.Random(424)
        for _ in range(10):
            fn = synth.make_twisted_form(rng)
            flags = cube_identities(fn, trials=100, seed=0)
            if not all(flags):
                failures.append(f"twisted {fn.to_str(TRI)}: flags {flags}")

        for expr in synth.NON_TWISTED:
            flags = cube_identities(parse(expr, TRI), trials=100, seed=0)
            if flags[0]:
                failures.append(f"non-twisted {expr}: identity (1) never failed")

        dt = time.monotonic() - t0
        if dt >= 10.0:
            failures.append(f"cube checks took {dt:.2f}s (budget 10s)")
        ok = not failures
    finally:
        _report(capsys, 2, "twisted cube identities on random integer cubes", ok)
    assert ok, "\n".join(failures)


def test_canonical_form_recovery(capsys):
    failures: list[str] = []
    ok = False
    try:
        counts: dict[str, int] = {}
        for want, fn, n, rep, dt in _classified():
            counts[want] = counts.get(want, 0) + 1
            if rep.verdict != want:
                failures.append(f"{fn.to_str(TRI)}: {rep.verdict} != {want}")
            elif want == "Field" and rep.exponent != n:
                failures.append(
                    f"{fn.to_str(TRI)}: exponent {rep.exponent} != {n}"
                )
            elif not _rebuilds_s(rep):
                failures.append(f"{fn.to_str(TRI)}: the parts do not rebuild s")
            if dt >= 20.0:
                failures.append(f"{fn.to_str(TRI)}: took {dt:.2f}s (budget 20s)")
        for cls in POSITIVE_VERDICTS:
            if counts.get(cls, 0) != 50:
                failures.append(f"{cls}: corpus has {counts.get(cls, 0)} != 50")

        for expr, diag_key in VIOLATORS:
            rep = classify_trivariate(parse(expr, TRI))
            if rep.verdict != "Unresolved":
                failures.append(f"violator {expr}: verdict {rep.verdict}")
            elif rep.diagnostics.get(diag_key) is not False:
                failures.append(
                    f"violator {expr}: diagnostic {diag_key} not reported False"
                )
        for expr, want in OUTER_MAP_INSTANCES:
            fn = parse(expr, TRI)
            rep = classify_trivariate(fn)
            if rep.verdict != want:
                failures.append(f"{expr}: {rep.verdict} != {want}")
            elif not verify_certificate(rep.certificate, fn, rep.fitted["s"]):
                failures.append(f"{expr}: certificate fails verification")
        ok = not failures
    finally:
        _report(capsys, 3, "canonical-form recovery on 50 synthetic instances per class", ok)
    assert ok, "\n".join(failures)


def test_certificate_exactness_and_corruption(capsys):
    failures: list[str] = []
    ok = False
    try:
        positives = []
        for want, fn, n, rep, dt in _classified():
            if rep.verdict not in POSITIVE_VERDICTS:
                continue
            if rep.certificate is None or rep.fitted is None:
                failures.append(f"{fn.to_str(TRI)}: positive verdict without certificate")
                continue
            positives.append((fn, rep))
        for fn, rep in positives:
            composed = compose_numerator(
                rep.certificate.annihilator, [fn, rep.fitted["s"]]
            )
            if not composed.is_zero:
                failures.append(f"{fn.to_str(TRI)}: annihilator does not vanish")

        rng = random.Random(5150)
        for k in range(200):
            fn, rep = positives[k % len(positives)]
            terms = dict(rep.certificate.annihilator.terms)
            key = rng.choice(sorted(terms))
            terms[key] = terms[key] + Fraction(rng.randint(1, 9))
            bad = DependenceCertificate(
                Poly({m: c for m, c in terms.items() if c != 0}, 2),
                rep.certificate.degree_bound,
                True,
            )
            if verify_certificate(bad, fn, rep.fitted["s"]):
                failures.append(
                    f"corrupted certificate #{k} accepted for {fn.to_str(TRI)}"
                )
        ok = not failures
    finally:
        _report(capsys, 4, "certificates substitute to exact zero; corrupted ones rejected", ok)
    assert ok, "\n".join(failures)


def test_trichotomy_on_2decomposed_corpus(capsys):
    allowed = set(POSITIVE_VERDICTS) | {"Unresolved"}
    failures: list[str] = []
    ok = False
    try:
        for want, fn, n, rep, dt in _classified():
            dim = image_dimension(fn, primes=DEFAULT_PRIMES, samples=16, seed=0)
            if dim == 4 and rep.verdict == "NoConstraint":
                failures.append(f"{fn.to_str(TRI)}: dimension 4 but NoConstraint")
            if rep.verdict not in allowed:
                failures.append(f"{fn.to_str(TRI)}: verdict {rep.verdict}")
            if rep.verdict == "Unresolved" and not rep.diagnostics:
                failures.append(f"{fn.to_str(TRI)}: Unresolved without diagnostics")

        for expr, want in synth.HANDWRITTEN_2DEC:
            fn = parse(expr, TRI)
            rep = classify_trivariate(fn)
            dim = image_dimension(fn, primes=DEFAULT_PRIMES, samples=16, seed=0)
            if dim != 4:
                failures.append(f"{expr}: measured dimension {dim} != 4")
            if rep.verdict == "NoConstraint":
                failures.append(f"{expr}: dimension-4 function reported NoConstraint")
            if rep.verdict != want:
                failures.append(f"{expr}: verdict {rep.verdict} != {want}")
            if rep.verdict not in allowed:
                failures.append(f"{expr}: verdict {rep.verdict} outside trichotomy")
            if rep.verdict == "Unresolved" and not any(
                v is False for v in rep.diagnostics.values()
            ):
                failures.append(f"{expr}: Unresolved without a named failing step")
        ok = not failures
    finally:
        _report(capsys, 5, "constraint trichotomy on the 2-decomposed corpus", ok)
    assert ok, "\n".join(failures)


def test_bivariate_dichotomy(capsys):
    failures: list[str] = []
    ok = False
    try:
        for want, fn, rep in _bivariate_corpus():
            if rep.verdict != want:
                failures.append(f"{fn.to_str(BI)}: {rep.verdict} != {want}")
                continue
            if rep.certificate is None or not verify_certificate(
                rep.certificate, fn, rep.fitted["s"]
            ):
                failures.append(f"{fn.to_str(BI)}: missing or unverifiable certificate")
            elif not _rebuilds_s(rep):
                failures.append(f"{fn.to_str(BI)}: the parts do not rebuild s")

        for expr in synth.UNCONSTRAINED_BIVARIATE:
            fn = parse(expr, BI)
            rep = fit_bivariate(fn)
            if rep.verdict != "NoConstraint":
                failures.append(f"{expr}: verdict {rep.verdict} != NoConstraint")
            dim = image_dimension(fn, primes=DEFAULT_PRIMES, samples=16, seed=0)
            if dim != 4:
                failures.append(f"{expr}: image dimension {dim} != 4")
        ok = not failures
    finally:
        _report(capsys, 6, "bivariate sum/product dichotomy with exact certificates", ok)
    assert ok, "\n".join(failures)


def test_cli_determinism(capsys, tmp_path):
    failures: list[str] = []
    ok = False
    try:
        tri_exprs = [fn.to_str(TRI) for _, fn, _ in _synthetic_instances()]
        tri_exprs += [expr for expr, _ in synth.HANDWRITTEN_2DEC]
        tri_exprs += list(synth.NON_TWISTED)
        tri_exprs += list(synth.RANK_CORPUS_TRI)
        tri_exprs += [expr for expr, _ in VIOLATORS + OUTER_MAP_INSTANCES]
        tri_path = tmp_path / "corpus_tri.txt"
        tri_path.write_text("\n".join(tri_exprs) + "\n")

        bi_exprs = [fn.to_str(BI) for _, fn, _ in _bivariate_corpus()]
        bi_exprs += list(synth.UNCONSTRAINED_BIVARIATE)
        bi_exprs += list(synth.RANK_CORPUS_BI)
        bi_path = tmp_path / "corpus_bi.txt"
        bi_path.write_text("\n".join(bi_exprs) + "\n")

        jobs = (("x,y,z", tri_path, len(tri_exprs)), ("x,y", bi_path, len(bi_exprs)))
        for names, path, count in jobs:
            argv = ["--vars", names, "--corpus", str(path),
                    "--format", "json", "--seed", "0"]
            cli.main(list(argv))
            first = capsys.readouterr().out
            cli.main(list(argv))
            second = capsys.readouterr().out
            if first.encode() != second.encode():
                failures.append(f"{path.name}: output differs between runs")
            reports = json.loads(first)
            if len(reports) != count:
                failures.append(f"{path.name}: {len(reports)} reports != {count}")
        ok = not failures
    finally:
        _report(capsys, 7, "byte-identical JSON output across repeated runs", ok)
    assert ok, "\n".join(failures)
