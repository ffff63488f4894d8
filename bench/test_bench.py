"""Tests of the benchmark itself.

Run from the root of the repository:

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import run  # noqa: E402
from spans import SPANS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(items):
    """The shortest input of each (origin, truth) group, in corpus order."""
    best = {}
    for it in items:
        key = (it.origin, it.truth)
        if key not in best or len(it.expr) < len(best[key].expr):
            best[key] = it
    keep = set(map(id, best.values()))
    return [it for it in items if id(it) in keep]


def test_pace_scales_each_call_by_the_local_reference_time():
    pace = run.Pace()
    pace.samples = [(k / 10, 2 * run.REF_NOMINAL_S) for k in range(100)]
    pace.samples[50:] = [(k / 10, 4 * run.REF_NOMINAL_S) for k in range(50, 100)]
    early, late = pace.scaled([(1.0, 2.0), (7.0, 8.0)])
    assert early == pytest.approx((1.0 - 11 * 2 * run.REF_NOMINAL_S) / 2)
    assert late == pytest.approx((1.0 - 11 * 4 * run.REF_NOMINAL_S) / 4)


def test_generator_is_deterministic_and_does_not_import_ratforms():
    code = (
        "import sys, corpus\n"
        "for w in sorted(corpus.WORKLOADS):\n"
        "    a, b, c = corpus.build(w, 5), corpus.build(w, 5), corpus.build(w, 6)\n"
        "    assert a == b and corpus.digest(a) == corpus.digest(b), w\n"
        "    assert corpus.digest(a) != corpus.digest(c), w\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'ratforms'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=HERE, env={"PYTHONPATH": str(HERE)},
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_corpus_sizes_and_labels():
    tri = corpus.build("tri-corpus", 3)
    counts = {}
    for it in tri:
        if it.origin == "synthetic":
            counts[it.truth] = counts.get(it.truth, 0) + 1
    assert counts == {t: 50 for t in corpus.POSITIVE}
    assert len(tri) == 241
    assert sum(it.truth is None for it in tri) == 28
    bi = corpus.build("bi-corpus", 3)
    assert len(bi) == 228 and all(it.names == corpus.BI for it in bi)


def test_printed_inputs_are_the_programs_canonical_form_and_read_back():
    from ratforms.ratfun import parse

    for workload in sorted(corpus.WORKLOADS):
        items = [it for it in corpus.build(workload, 7) if it.num is not None]
        for it in items[::9]:
            assert parse(it.expr, it.names).to_str(it.names) == it.expr
        for it in items:
            num, den = corpus.read_ratfun(it.expr, it.names)
            assert corpus.mul(num, it.den) == corpus.mul(den, it.num)


@pytest.mark.parametrize("text", ["x +", "x)/y", "2*", "x^", "x^y", "(x + y", "w", "x y"])
def test_reader_rejects_what_the_printer_never_prints(text):
    with pytest.raises(ValueError):
        corpus.read_ratfun(text, corpus.TRI)


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_workload_runs_end_to_end_at_tiny_size(workload):
    items = tiny(corpus.build(workload, 2))
    result, meta, _ = run.run(items, 0.0, trace=False)
    assert result["correct"], meta["problems"]
    assert result["failed"] == 0 and result["attempted"] == len(items)
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_runs_emit_every_span_and_metric():
    seen = set()
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload in sorted(corpus.WORKLOADS):
        items = tiny(corpus.build(workload, 2))
        result, meta, tracer = run.run(items, 0.0, trace=True)
        assert result["correct"], meta["problems"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
        names = {span[0] for span in tracer.spans if span is not None}
        if workload != "bi-corpus":
            assert "classify.fit_bivariate" not in names
        seen |= names
    assert seen == {name for name, *_ in SPANS}


def test_coverage_gap_is_unsolved_not_wrong():
    items = [it for it in corpus.build("tri-corpus", 1) if it.origin in ("coverage-gap", "out-of-scope")]
    result, meta, _ = run.run(items, 0.0, trace=False)
    assert result["correct"], meta["problems"]
    assert meta["solved"] == 1  # only the out-of-scope input, expected unresolved


def test_wrong_verdict_is_reported():
    it = corpus.build("tri-corpus", 1)[0]
    wrong = corpus.Item("x*y*z", corpus.TRI, corpus.GA, corpus.GA, "synthetic")
    result, meta, _ = run.run([it, wrong], 0.0, trace=False)
    assert not result["correct"]
    assert any("x*y*z" in p for p in meta["problems"])


def test_exhausted_budget_counts_as_failed_and_the_run_goes_on(monkeypatch):
    items = corpus.build("cert-ladder", 1)[:3]
    monkeypatch.setattr(run, "BUDGET_S", 1e-4)
    result, meta, _ = run.run(items, 0.0, trace=False)
    assert result["attempted"] == 3 and result["failed"] == 3
    assert result["correct"] and meta["solved"] == 0


def test_missing_sources_exit_nonzero_without_result(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in ("run.py", "corpus.py", "spans.py"):
        (bench / name).write_text((HERE / name).read_text(encoding="utf-8"), encoding="utf-8")
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bi-corpus", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""
