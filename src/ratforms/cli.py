"""Command-line front end: classify rational functions and emit reports.

Each input function gets one report carrying the degeneracy check, the
image dimension of its doubling map (proven for every decisive verdict,
see dimension), the fitted canonical form (when one certifies), the
dependence certificate, and the probe diagnostics.  All of these come from
one call of fit_bivariate or classify_trivariate; this module only maps
its FormReport to the report.  Reports are deterministic: the same seed,
flags, and input produce byte-identical output.

Exit status: 0 when every verdict is decisive (including no-constraint and
degenerate), 2 when any function is unresolved or the rank sampling is
inconclusive, 1 on usage or parse errors.  An input with a coefficient
whose denominator a sampling prime divides has no image modulo that prime,
so that prime is replaced by the next lower prime that divides no
coefficient denominator; the report lists the primes used.  An input
whose analysis raises is reported unresolved with an ``error`` diagnostic
naming the exception and the primes it sampled modulo, and the other
inputs are still analyzed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .classify import classify_trivariate, fit_bivariate
from .dimension import AllPolesError, InconclusiveRankError
from .modular import primes_below
from .oracle import prime_pool
from .poly import Poly
from .ratfun import ParseError, RatFun, check_names, parse

_VERDICT = {
    "GroupAdditive": "group-additive",
    "GroupMultiplicative": "group-multiplicative",
    "Field": "field",
    "Twisted": "twisted",
    "NoConstraint": "no-constraint",
    "Degenerate": "degenerate",
    "Unresolved": "unresolved",
}

_DECISIVE = frozenset(v for v in _VERDICT.values() if v != "unresolved")


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that exits 1 on usage errors (2 is reserved for unresolved)."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="analyze",
        description=(
            "Detect algebraic constraints on the doubling map of a rational "
            "function and fit the canonical form that explains them."
        ),
    )
    ap.add_argument(
        "--function",
        action="append",
        default=[],
        metavar="EXPR",
        help="rational function to analyze (repeatable); grammar: + - * / ^ ( ) integers "
        "variables; it may start with -, as in --function -x*y",
    )
    ap.add_argument(
        "--vars",
        metavar="NAMES",
        required=True,
        help="comma-separated variable names, e.g. x,y,z (two or three)",
    )
    ap.add_argument(
        "--corpus",
        metavar="PATH",
        help="file with one expression per line; # starts a comment",
    )
    ap.add_argument("--format", choices=("json", "text"), default="text")
    ap.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    ap.add_argument(
        "--prime-bits",
        type=int,
        default=31,
        dest="prime_bits",
        help="bit size of the two sampling primes (default 31)",
    )
    ap.add_argument(
        "--samples",
        type=int,
        default=16,
        help="most rank samples per prime (default 16), taken only when no "
        "form certifies; fewer when the Schwartz-Zippel bound needs fewer, "
        "and a sample of full rank ends them early",
    )
    ap.add_argument(
        "--max-degree",
        type=int,
        default=None,
        dest="max_degree",
        help="largest total degree in (p, q) a certificate may have (default: "
        "no cap); the certificate of f = q(s) has degree deg f / deg s in q, "
        "so a cap only turns certificates away",
    )
    ap.add_argument(
        "--probe-conjecture",
        action="store_true",
        dest="probe_conjecture",
        help=(
            "experimental: when a form s is fitted to a polynomial input, "
            "probe whether the input is u(s) for a univariate polynomial u "
            "and report fit/no-fit (no correctness claim either way)"
        ),
    )
    return ap


def _empty_report(expr: str, names: tuple[str, ...], seed: int, primes) -> dict:
    return {
        "function": expr,
        "vars": list(names),
        "nondegenerate": None,
        "image_dimension": None,
        "has_constraint": None,
        "verdict": None,
        "fitted": None,
        "certificate": None,
        "diagnostics": {},
        "timing": None,
        "seed": seed,
        "primes": list(primes),
    }


def analyze_function(
    expr: str,
    names: tuple[str, ...],
    primes: tuple[int, ...],
    samples: int,
    seed: int,
    dmax: int | None,
    probe: bool,
) -> tuple[dict, int]:
    """One report dict (schema order) and its exit status for a single input.

    May raise ParseError; every other outcome is encoded in the report.
    """
    f = parse(expr, names)
    used = tuple(prime_pool(primes, [f], len(primes)))
    return _analyze(expr, f, names, used, samples, seed, dmax, probe)


def _analyze(
    expr: str,
    f: RatFun,
    names: tuple[str, ...],
    primes: tuple[int, ...],
    samples: int,
    seed: int,
    dmax: int | None,
    probe: bool,
) -> tuple[dict, int]:
    """analyze_function on the parsed input f, sampling modulo primes."""
    n = len(names)
    report = _empty_report(expr, names, seed, primes)
    classify = fit_bivariate if n == 2 else classify_trivariate
    try:
        fr = classify(f, dmax=dmax, primes=primes, samples=samples, seed=seed)
    except (InconclusiveRankError, AllPolesError):
        # raised only once the input has passed the nondegeneracy check
        report["nondegenerate"] = True
        report["verdict"] = "unresolved"
        report["diagnostics"] = {"rank_inconclusive": True}
        return report, 2
    report["nondegenerate"] = fr.verdict != "Degenerate"
    report["verdict"] = _VERDICT[fr.verdict]
    if not report["nondegenerate"]:
        report["diagnostics"] = dict(fr.diagnostics)
        return report, 0
    report["image_dimension"] = fr.image_dimension
    report["has_constraint"] = fr.image_dimension < 2 * n
    diagnostics = dict(fr.diagnostics)
    if fr.fitted is not None:
        fitted = {
            key: fr.fitted[key].to_str(names) if key in fr.fitted else None
            for key in ("r1", "r2", "r3", "s")
        }
        fitted["pivot"] = fr.pivot
        fitted["n"] = fr.exponent
        report["fitted"] = fitted
    if fr.certificate is not None:
        report["certificate"] = {
            "annihilator": fr.certificate.annihilator.to_str(("p", "q")),
            "degree_bound": fr.certificate.degree_bound,
        }
    if probe:
        if fr.certificate is not None and f.is_polynomial:
            # a(q)*p - b(q) is unique up to scale, so f = u(s) for a
            # polynomial u exactly when a is a constant a0, and u = -b/a0
            ann = fr.certificate.annihilator.terms
            composed = all(e[1] == 0 for e in ann if e[0] == 1)
            diagnostics["conjecture_composition"] = composed
            if composed:
                a0 = ann[(1, 0)]
                u = Poly({(e[1],): -c / a0 for e, c in ann.items() if e[0] == 0}, 1)
                diagnostics["conjecture_u"] = u.to_str(("t",))
        else:
            diagnostics["conjecture_applicable"] = False
    report["diagnostics"] = diagnostics
    status = 0 if report["verdict"] in _DECISIVE else 2
    return report, status


def _disp(value) -> str:
    if value is None or isinstance(value, bool):
        return str(value).lower()
    return str(value)


def _format_text(report: dict) -> str:
    lines = [
        f"function:        {report['function']}",
        f"vars:            {', '.join(report['vars'])}",
        f"verdict:         {report['verdict']}",
        f"nondegenerate:   {_disp(report['nondegenerate'])}",
        f"image dimension: {_disp(report['image_dimension'])}",
        f"has constraint:  {_disp(report['has_constraint'])}",
    ]
    fitted = report["fitted"]
    if fitted is not None:
        for key in ("r1", "r2", "r3", "s", "pivot", "n"):
            if fitted[key] is not None:
                lines.append(f"fitted {key}:{' ' * (9 - len(key))}{fitted[key]}")
    cert = report["certificate"]
    if cert is not None:
        lines.append(f"certificate:     {cert['annihilator']} = 0 at (p, q) = (P, s)")
        lines.append(f"degree bound:    {cert['degree_bound']}")
    diag = ", ".join(f"{k}={_disp(v)}" for k, v in report["diagnostics"].items())
    lines.append(f"diagnostics:     {diag if diag else '(none)'}")
    lines.append(f"seed:            {report['seed']}")
    lines.append(f"primes:          {', '.join(str(p) for p in report['primes'])}")
    return "\n".join(lines)


def _read_corpus(path: str) -> list[str]:
    out = []
    with open(path, encoding="utf-8-sig") as fh:
        for line in fh:
            text = line.split("#", 1)[0].strip()
            if text:
                out.append(text)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    # argparse reads the EXPR of "--function -x*y" as an option; "=" binds it,
    # after the full flag or any abbreviation that names only --function
    longs = [s for s in ap._option_string_actions if s.startswith("--")]
    glued: list[str] = []
    for arg in sys.argv[1:] if argv is None else argv:
        if (glued and [s for s in longs if s.startswith(glued[-1])] == ["--function"]
                and arg.startswith("-") and not arg.startswith("--")):
            glued[-1] += "=" + arg
        else:
            glued.append(arg)
    args = ap.parse_args(glued)

    try:
        names = check_names(v.strip() for v in args.vars.split(",") if v.strip())
    except ValueError as e:
        ap.error(f"--vars: {e}")
    if len(names) not in (2, 3):
        ap.error(f"--vars needs two or three names, got {len(names)}")
    if not (0 <= args.seed < 1 << 64):
        ap.error("--seed must fit an unsigned 64-bit integer")
    if not (4 <= args.prime_bits <= 62):
        ap.error("--prime-bits must be between 4 and 62")
    if args.samples < 1:
        ap.error("--samples must be positive")
    if args.max_degree is not None and args.max_degree < 1:
        ap.error("--max-degree must be positive")

    exprs = list(args.function)
    if args.corpus is not None:
        try:
            exprs.extend(_read_corpus(args.corpus))
        except (OSError, UnicodeDecodeError) as exc:
            print(f"{ap.prog}: error: cannot read corpus: {exc}", file=sys.stderr)
            return 1
    if not exprs:
        ap.error("no input: pass --function and/or --corpus")

    primes = primes_below(1 << args.prime_bits, 2)
    reports = []
    status = 0
    for expr in exprs:
        used = primes
        try:
            f = parse(expr, names)
            used = tuple(prime_pool(primes, [f], len(primes)))
            report, code = _analyze(
                expr,
                f,
                names,
                primes=used,
                samples=args.samples,
                seed=args.seed,
                dmax=args.max_degree,
                probe=args.probe_conjecture,
            )
        except ParseError as exc:
            print(f"{ap.prog}: error: cannot parse {expr!r}: {exc}", file=sys.stderr)
            return 1
        except Exception as exc:
            # one failing input must not lose the reports of the others;
            # traceback is imported only here, off the start-up path
            import traceback

            print(f"{ap.prog}: error: analysis of {expr!r} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            report = _empty_report(expr, names, args.seed, used)
            report["verdict"] = "unresolved"
            report["diagnostics"] = {"error": type(exc).__name__}
            code = 2
        reports.append(report)
        status = max(status, code)

    if args.format == "json":
        sys.stdout.write(json.dumps(reports, indent=2) + "\n")
    else:
        sys.stdout.write("\n\n".join(_format_text(r) for r in reports) + "\n")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
