"""Per-layer spans recorded from outside the program.

Each entry point is wrapped at every ``ratforms`` module attribute that
holds it, which is the name its callers resolve at call time (for example
``image_dimension`` is bound in ``dimension``, ``classify`` and ``cli``).
A call records one span: name, start, end, parent span, input id, phase,
whether it returned a result other than None, and for the nullspace the
matrix cells it eliminated.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

#: (span name, defining module, function).  The span is named after the
#: layer whose callers it times: ``poly_gcd`` lives in ``poly``, but every
#: call to it comes from ``ratfun`` reducing a fraction.
SPANS = (
    ("cli.analyze_function", "ratforms.cli", "analyze_function"),
    ("ratfun.parse", "ratforms.ratfun", "parse"),
    ("ratfun.compose_numerator", "ratforms.ratfun", "compose_numerator"),
    ("ratfun.poly_gcd", "ratforms.poly", "poly_gcd"),
    ("dimension.is_nondegenerate", "ratforms.dimension", "is_nondegenerate"),
    ("dimension.image_dimension", "ratforms.dimension", "image_dimension"),
    ("modular.rank_mod", "ratforms.modular", "rank_mod"),
    ("modular.nullspace_vector_mod", "ratforms.modular", "nullspace_vector_mod"),
    ("oracle.annihilating_poly", "ratforms.oracle", "annihilating_poly"),
    ("classify.classify_trivariate", "ratforms.classify", "classify_trivariate"),
    ("classify.fit_bivariate", "ratforms.classify", "fit_bivariate"),
    ("classify.fit_group", "ratforms.classify", "fit_group"),
    ("classify.fit_field", "ratforms.classify", "fit_field"),
    ("classify.fit_twisted", "ratforms.classify", "fit_twisted"),
    ("classify.dependence_certificate", "ratforms.classify", "dependence_certificate"),
    ("classify.verify_twisted_identities", "ratforms.classify", "verify_twisted_identities"),
    ("classify.verify_certificate", "ratforms.classify", "verify_certificate"),
    ("calculus.hermite_antiderivative", "ratforms.calculus", "hermite_antiderivative"),
    ("calculus.logderiv_integrate", "ratforms.calculus", "logderiv_integrate"),
    ("calculus.residue_profile", "ratforms.calculus", "residue_profile"),
    ("calculus.separability_identity", "ratforms.calculus", "separability_identity"),
)

#: The span that also records the cells (rows x columns) it eliminated.
NULLSPACE = "modular.nullspace_vector_mod"

#: Spans whose hit ratio (non-None results over calls) is reported; a None
#: from nullspace_vector_mod means the degree was proven empty.
HIT_RATIO = (
    "classify.fit_group",
    "classify.fit_field",
    "classify.fit_twisted",
    "classify.dependence_certificate",
    "oracle.annihilating_poly",
    NULLSPACE,
)

#: Spans whose calls per analyzed input are reported.
PER_FN = ("dimension.is_nondegenerate", "modular.rank_mod")

#: The check phase re-verifies certificates outside the timed region; only
#: this span is reported from it.
CHECK_SPAN = "classify.verify_certificate"

#: Units of the end-to-end metrics, and of the per-layer ones by suffix.
UNITS = {
    "setup_s": "s",
    "fn_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "solved_share": "ratio",
    "peak_rss_mb": "MB",
    "tracing_overhead": "ratio",
    "calls": "count",
    "self_s": "s",
    "hit_ratio": "ratio",
    "cells": "count",
    "calls_per_fn": "1/fn",
}


def unit(metric: str) -> str:
    """Unit of an end-to-end metric, or of a per-layer one by its suffix."""
    return UNITS[metric.rsplit(".", 1)[-1]]


class Tracer:
    """Wraps the entry points in SPANS while installed; records spans."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = [None]
        self.input_id: int | None = None
        self.phase = "analyze"
        self._patches: list = []

    def begin(self, input_id: int | None, phase: str) -> None:
        """Attribute the next spans to one input; drops a stack left by an abort."""
        self.input_id = input_id
        self.phase = phase
        del self.stack[1:]

    def _wrap(self, name: str, fn):
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter, self
        count_cells = name == NULLSPACE

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                if stack[-1] == sid:
                    stack.pop()
                cells = len(args[0]) * len(args[0][0]) if count_cells and args[0] else 0
                spans[sid] = (name, t0, t1, parent, tracer.input_id, tracer.phase,
                              result is not None, cells)

        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "ratforms" or k.startswith("ratforms.")]
        for name, mod_name, attr in SPANS:
            original = getattr(importlib.import_module(mod_name), attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def summary(self, inputs: int) -> dict[str, float]:
        """Per-layer metrics of the analyze phase, plus CHECK_SPAN from the check phase.

        Self time is a span's duration minus the durations of its child
        spans, which never overlap in one thread.
        """
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] is not None:
                child[span[3]] += span[2] - span[1]
        calls = {name: 0 for name, *_ in SPANS}
        self_s = {name: 0.0 for name, *_ in SPANS}
        hits = {name: 0 for name, *_ in SPANS}
        cells = 0
        for sid, span in enumerate(self.spans):
            if span is None:
                continue
            name, t0, t1, _, _, phase, hit, n = span
            if (phase == "check") != (name == CHECK_SPAN):
                continue
            calls[name] += 1
            self_s[name] += t1 - t0 - child[sid]
            hits[name] += hit
            cells += n
        out: dict[str, float] = {}
        for name, *_ in SPANS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in HIT_RATIO:
            out[f"{name}.hit_ratio"] = hits[name] / calls[name] if calls[name] else 0.0
        out[f"{NULLSPACE}.cells"] = cells
        for name in PER_FN:
            out[f"{name}.calls_per_fn"] = calls[name] / inputs if inputs else 0.0
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON array per line, prefixed by its id."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, span in enumerate(self.spans):
                if span is not None:
                    fh.write(json.dumps([sid, *span]) + "\n")
