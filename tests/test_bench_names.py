"""The program names the benchmark in bench/ resolves at run time.

bench/spans.py wraps entry points by (module, attribute) and bench/run.py
imports a few more names to drive and check the runs; a rename in the
program would only show when the benchmark runs, so tier-1 pins them.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_resolves_to_a_function():
    spans = _load("spans").SPANS
    assert len(spans) == 21
    for _, module, attr in spans:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


@pytest.mark.parametrize(
    "expr, fitter, verdict, reached",
    [
        ("(x + y^2 + z)^3 + 1", "fit_group", "GroupAdditive", {"hermite_antiderivative"}),
        ("(x*y*z + 1)^2", "fit_group", "GroupMultiplicative",
         {"hermite_antiderivative", "logderiv_integrate", "residue_profile"}),
        ("x*(y + z)^3", "fit_field", "Field", {"hermite_antiderivative", "logderiv_integrate", "residue_profile"}),
    ],
)
def test_fits_reach_the_calculus_through_the_names_the_spans_wrap(expr, fitter, verdict, reached):
    # a fit that integrated its line ratios past these names would leave the
    # calculus spans of a traced run at zero calls
    from ratforms import classify
    from ratforms.ratfun import parse

    tracer = _load("spans").Tracer()
    tracer.install()
    try:
        report = getattr(classify, fitter)(classify._Fn(parse(expr, ("x", "y", "z"))))
    finally:
        tracer.uninstall()
    assert report is not None and report.verdict == verdict
    calls = tracer.summary(1)
    names = ("hermite_antiderivative", "logderiv_integrate", "residue_profile")
    assert {name for name in names if calls[f"calculus.{name}.calls"]} == reached


def test_names_imported_by_the_runner_resolve():
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ratforms")
        for alias in node.names
    ]
    assert imported, "bench/run.py no longer imports from ratforms"
    for module, name in imported:
        mod = importlib.import_module(module)
        assert hasattr(mod, name) or importlib.util.find_spec(f"{module}.{name}"), (module, name)


def test_runner_calls_work_as_the_runner_makes_them():
    from ratforms import classify, cli
    from ratforms.modular import primes_below
    from ratforms.poly import Poly
    from ratforms.ratfun import RatFun, parse

    fields = [f.name for f in dataclasses.fields(classify.DependenceCertificate)]
    assert fields == ["annihilator", "degree_bound", "verified"]
    names = ("x", "y")
    primes = primes_below(1 << 31, 2)
    # positional, as bench/run.py calls it
    report, status = cli.analyze_function("x*y", names, primes, 16, 0, None, False)
    assert status == 0 and report["verdict"] == "group-multiplicative"
    cert = classify.DependenceCertificate(
        Poly({(1, 0): 1, (0, 1): -1}, 2), report["certificate"]["degree_bound"], True
    )
    f = RatFun.raw(Poly({(1, 1): 1}, 2), Poly({(0, 0): 1}, 2))
    assert classify.verify_certificate(cert, f, parse(report["fitted"]["s"], names))
