"""Reach gate: every function of the package runs on fixed traffic, or says why not.

The traffic is what an analyze or check run does: the golden argv lists,
the seed-3 inputs of the benchmark's three workloads through
``cli.analyze_function``, a check pass like the benchmark's (the golden
positive certificates re-verified from their printed strings, and one exact
symbolic rank), the CLI's text format, ``--corpus`` reader, usage error and
parse error, and two planted inputs that reach the subresultant gcd behind
the heuristic one.  It runs once under ``sys.setprofile``, which records the
code object of every Python function entered.

A ``def`` of ``src/ratforms`` (methods and nested functions included) is
keyed by module and qualified name, and matched to code objects by file,
first line and name; a decorated ``def``'s code starts at its first
decorator.  The gate fails on a ``def`` that no run enters and that is not
in ALLOWLIST, and on an ALLOWLIST entry that some run enters or that no
longer exists.  Each entry's reason names what would retire it.

After adding or removing code, ``PYTHONPATH=src python tests/test_reach.py``
prints both lists, to update ALLOWLIST by hand.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

import ratforms
from ratforms import classify, cli
from ratforms.dimension import doubling_map
from ratforms.modular import primes_below
from ratforms.oracle import symbolic_rank
from ratforms.ratfun import parse

PACKAGE = Path(ratforms.__file__).resolve().parent
HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "reports_seed0.json"
CORPUS = HERE.parent / "bench" / "corpus.py"

#: Inputs whose gcds the heuristic cannot take: at a height of about 13 960
#: bits, _xi_schedule yields no point for 301 digits within 4 000 000 bits,
#: so subresultants decide.  Both numbers fit under the default 4300-digit
#: limit of int().
A = 10**4201 + 7
B = 3 * 10**4201 + 1
#: The dense univariate gcd's fallback (group-multiplicative).
BACKSTOP_DENSE = f"((x^300+1)*(x+{A}))/((x^300+1)*(x+{B}))*y"
#: gcd_int's subresultant branch on a bivariate pair (degenerate).
BACKSTOP_MULTI = f"((x^300*y+1)*(x+{A}))/((x^300*y+1)*(x+{B}))"

_DENSE = (
    "the dense relation search and its lift, which composition_relation replaced; "
    "bench/spans.py looks up annihilating_poly and nullspace_vector_mod by name, so "
    "they go in the benchmark-only change of ROADMAP items 1 and 14"
)
_TESTS_BUILD = (
    "RatFun's field arithmetic, which the tests build their inputs with; moving it "
    "into tests/synth.py rewrites more test lines than it takes out of src, so it "
    "stays until a change of the tests' builders (ROADMAP item 25)"
)
_GUARD = "a guard rail that runs only on a misuse or in a debugger; it goes with its class"

#: Functions that no run of the traffic enters, each with what would retire it.
ALLOWLIST: dict[str, str] = {
    "oracle.annihilating_poly": _DENSE,
    "oracle._monomials": _DENSE,
    "oracle._kernel_vector": _DENSE,
    "oracle._prod_mod": _DENSE,
    "oracle._lift_and_verify": _DENSE,
    "oracle._vanishes": _DENSE,
    "modular.nullspace_vector_mod": _DENSE,
    "modular.crt_pair": _DENSE,
    "poly.Poly.eval_mod": _DENSE,
    "ratfun.RatFun.eval_mod": _DENSE,
    "ratfun.pole_free_values": _DENSE,
    "classify.verify_twisted_identities": (
        "no caller since the twisted fitter stopped checking value cubes; bench/spans.py "
        "looks it up by name, so it goes in the benchmark-only change of ROADMAP items "
        "1 and 14"
    ),
    "classify.cube_identities": (
        "verify_twisted_identities' helper and demo 05's reference; ROADMAP item 16 "
        "moves it into the demo once the benchmark-only change of items 1 and 14 "
        "retires its caller"
    ),
    "calculus.separability_identity": (
        "the tests' reference for the sampled separability gate; ROADMAP item 16 moves "
        "it into tests/synth.py once the benchmark-only change of items 1 and 14 "
        "retires its span"
    ),
    "ratfun.RatFun._coerce": _TESTS_BUILD,
    "ratfun.RatFun.__add__": _TESTS_BUILD,
    "ratfun.RatFun.__sub__": _TESTS_BUILD,
    "ratfun.RatFun.__neg__": _TESTS_BUILD,
    "ratfun.RatFun.__mul__": _TESTS_BUILD,
    "ratfun.RatFun.__truediv__": _TESTS_BUILD,
    "ratfun.RatFun.__bool__": _TESTS_BUILD,
    "ratfun.RatFun.constant_value": _TESTS_BUILD,
    "ratfun.RatFun.variable": _TESTS_BUILD,
    "ratfun.RatFun.partial": (
        "no caller in src since the field pivot reads its ratios off integer lists; "
        "the tests' exact reference, and ROADMAP item 12's checker recomputes its "
        "full-rank minor from it, so that checker reaches it"
    ),
    "poly.BadPrimeError.__init__": (
        "the guard of Poly._content_mod for library callers that pass their own "
        "primes; an analysis reads only its input's N, D and partials modulo a prime, "
        "and prime_pool drops every prime that divides their coefficient denominators, "
        "so no analyze run raises it"
    ),
    "poly.Poly.__repr__": _GUARD,
    "poly.Poly.__setattr__": _GUARD,
    "ratfun.RatFun.__repr__": _GUARD,
    "ratfun.RatFun.__setattr__": _GUARD,
}


def _module_defs() -> dict[tuple[str, int, str], str]:
    """(file, first line, name) of every def in the package -> module.qualname."""
    out = {}

    def walk(node, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                out[(path, line, child.name)] = prefix + child.name
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), os.path.realpath(path), f"{path.stem}.")
    return out


def _load_corpus():
    spec = importlib.util.spec_from_file_location("_bench_corpus", CORPUS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks the module up
    spec.loader.exec_module(module)
    return module


def _traffic() -> None:
    runs = json.loads(GOLDEN.read_text(encoding="utf-8"))
    primes = primes_below(1 << 31, 2)
    corpus = _load_corpus()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for run in runs:
            cli.main(run["argv"])
        for workload in ("tri-corpus", "bi-corpus", "cert-ladder"):
            for item in corpus.build(workload, 3):
                cli.analyze_function(item.expr, item.names, primes, 16, 0, None, False)
        for expr in (BACKSTOP_DENSE, BACKSTOP_MULTI):
            cli.analyze_function(expr, ("x", "y"), primes, 16, 0, None, False)
        # the check pass: golden certificates read back from their strings
        for run in runs:
            for report in run["reports"]:
                if report["certificate"] is None:
                    continue
                names = tuple(report["vars"])
                ann = parse(report["certificate"]["annihilator"], ("p", "q")).num
                cert = classify.DependenceCertificate(ann, report["certificate"]["degree_bound"], True)
                f = parse(report["function"], names)
                assert classify.verify_certificate(cert, f, parse(report["fitted"]["s"], names))
        assert symbolic_rank(doubling_map(parse("x*y + z", ("x", "y", "z")))) == 5
        # the CLI paths the golden lists leave out
        cli.main(["--vars", "x,y", "--function", "x*y", "--format", "text"])
        with tempfile.TemporaryDirectory() as tmp:
            bom = Path(tmp) / "bom.txt"
            bom.write_bytes("x*y\nx + y\n".encode("utf-8-sig"))
            cli.main(["--vars", "x,y", "--corpus", str(bom)])
        with contextlib.suppress(SystemExit):
            cli.main(["--vars", "x,y,z,w", "--function", "x*y"])
        cli.main(["--vars", "x,y", "--function", "x*/y"])


def reached() -> set[tuple[str, int, str]]:
    """(file, first line, name) of every code object the traffic enters.

    Memo caches are emptied first: a warm lru_cache answers without
    entering the function it wraps.
    """
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "ratforms":
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        _traffic()
    finally:
        sys.setprofile(previous)
    return {(os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name) for c in codes}


def unreached_and_stale(entered) -> tuple[list[str], list[str]]:
    """(unreached defs not on the allowlist, allowlist entries reached or gone)."""
    defs = _module_defs()
    missed = {key for spot, key in defs.items() if spot not in entered}
    unlisted = sorted(missed - ALLOWLIST.keys())
    stale = sorted(ALLOWLIST.keys() - missed)
    return unlisted, stale


@pytest.fixture(scope="module")
def gaps():
    return unreached_and_stale(reached())


def test_every_def_is_reached_or_allowlisted(gaps):
    assert gaps[0] == []


def test_every_allowlist_entry_is_unreached_and_exists(gaps):
    assert gaps[1] == []


def test_every_allowlist_entry_says_what_retires_it():
    assert all(reason.strip() for reason in ALLOWLIST.values())


if __name__ == "__main__":
    unlisted, stale = unreached_and_stale(reached())
    print("unreached, not on the allowlist:")
    print("\n".join(f"  {key}" for key in unlisted) or "  (none)")
    print("on the allowlist, but reached or gone:")
    print("\n".join(f"  {key}" for key in stale) or "  (none)")
