"""Tests for the command-line front end: reports, exit codes, determinism."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from ratforms import classify, cli, dimension
from ratforms.cli import main
from ratforms.modular import primes_below
from ratforms.oracle import prime_pool
from ratforms.ratfun import RatFun, parse

SCHEMA_KEYS = [
    "function",
    "vars",
    "nondegenerate",
    "image_dimension",
    "has_constraint",
    "verdict",
    "fitted",
    "certificate",
    "diagnostics",
    "timing",
    "seed",
    "primes",
]


def _run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_twisted_example(capsys):
    code, reports = _run_json(
        capsys, ["--vars", "x,y,z", "--function", "(x+y)/(y+z)"]
    )
    assert code == 0
    (rep,) = reports
    assert rep["verdict"] == "twisted"
    assert rep["fitted"]["r1"] == "x"
    assert rep["fitted"]["r2"] == "y"
    assert rep["fitted"]["r3"] == "z"
    assert rep["image_dimension"] == 4
    assert rep["has_constraint"] is True


def test_multiplicative_example(capsys):
    code, reports = _run_json(capsys, ["--vars", "x,y", "--function", "x*y"])
    assert code == 0
    (rep,) = reports
    assert rep["verdict"] == "group-multiplicative"
    assert rep["image_dimension"] == 3


def test_an_expression_may_start_with_a_minus(capsys):
    # argparse alone reads the "-x*y" of "--function -x*y" as an option; an
    # abbreviation that names only --function binds it too
    for argv in (["--function", "-x*y"], ["--function=-x*y"], ["--func", "-x*y"], ["--fun", "-x*y"]):
        code, reports = _run_json(capsys, ["--vars", "x,y"] + argv)
        assert code == 0
        (rep,) = reports
        assert rep["function"] == "-x*y"
        assert rep["verdict"] == "group-multiplicative"


def test_degenerate_example(capsys):
    code, reports = _run_json(capsys, ["--vars", "x,y,z", "--function", "x+y"])
    assert code == 0
    (rep,) = reports
    assert rep["verdict"] == "degenerate"
    assert rep["nondegenerate"] is False
    assert rep["image_dimension"] is None
    assert rep["has_constraint"] is None


def test_report_schema_key_order(capsys):
    _, reports = _run_json(capsys, ["--vars", "x,y", "--function", "x*y"])
    assert list(reports[0].keys()) == SCHEMA_KEYS
    assert list(reports[0]["fitted"].keys()) == ["r1", "r2", "r3", "s", "q", "pivot", "n"]
    assert list(reports[0]["certificate"].keys()) == ["annihilator", "degree_bound"]


def test_field_report_carries_pivot_and_exponent(capsys):
    code, reports = _run_json(
        capsys, ["--vars", "x,y,z", "--function", "x*(y+z)^2"]
    )
    assert code == 0
    (rep,) = reports
    assert rep["verdict"] == "field"
    assert rep["fitted"]["pivot"] == 1
    assert rep["fitted"]["n"] == 2


def test_unresolved_exits_2(capsys):
    code, reports = _run_json(
        capsys,
        ["--vars", "x,y,z", "--function", "((x^2+1)*(y^2+1)*(z^2+1))^2"],
    )
    assert code == 2
    assert reports[0]["verdict"] == "unresolved"


def test_no_constraint_is_decisive(capsys):
    code, reports = _run_json(
        capsys, ["--vars", "x,y,z", "--function", "x + y + z + x^2*y^2*z^2"]
    )
    assert code == 0
    (rep,) = reports
    assert rep["verdict"] == "no-constraint"
    assert rep["image_dimension"] == 6
    assert rep["has_constraint"] is False


@pytest.mark.parametrize("expr", ["x*y + z", "x^2*y + z"])
def test_dimension_5_is_unresolved(capsys, expr):
    # Q(F(x,y) + G(z)) has image dimension 5; no canonical form covers it
    code, (rep,) = _run_json(capsys, ["--vars", "x,y,z", "--function", expr])
    assert code == 2
    assert rep["verdict"] == "unresolved"
    assert rep["image_dimension"] == 5
    assert rep["has_constraint"] is True
    assert rep["diagnostics"]["partial_constraint_dim5"] is True


def _rank_samples(monkeypatch) -> list[int]:
    """Every rank the doubling-map sampler computes from now on, in order."""
    ranks: list[int] = []
    real = dimension.rank_mod

    def counted(rows, p):
        ranks.append(real(rows, p))
        return ranks[-1]

    monkeypatch.setattr(dimension, "rank_mod", counted)
    return ranks


def _default_report(expr: str, names: tuple[str, ...], bits: int = 31, samples: int = 16) -> dict:
    primes = primes_below(1 << bits, 2)
    report, _ = cli.analyze_function(expr, names, primes, samples, 0, None, False)
    return report


@pytest.mark.parametrize(
    "expr, names, verdict",
    [
        ("x + y + z", ("x", "y", "z"), "group-additive"),
        ("(x+y)/(y+z)", ("x", "y", "z"), "twisted"),
        ("x*(y+z)^2", ("x", "y", "z"), "field"),
        ("x*y + 1", ("x", "y"), "group-multiplicative"),
    ],
)
def test_a_certified_verdict_takes_no_rank_sample(monkeypatch, expr, names, verdict):
    def no_sample(rows, p):
        raise AssertionError("the certificate settles the dimension at n + 1")

    monkeypatch.setattr(dimension, "rank_mod", no_sample)
    rep = _default_report(expr, names)
    assert rep["verdict"] == verdict
    assert rep["certificate"] is not None
    assert rep["image_dimension"] == len(names) + 1


@pytest.mark.parametrize(
    "expr, names, bits, samples, calls, want",
    [
        # dimension 5, e = 1: k = ceil(64 / log2((p-1)/6)) = 3 per prime
        ("x*y + z", ("x", "y", "z"), 31, 16, 2 * 3, 5),
        # k = 3 > 2 samples, and k = 87 > 16 at 4 bits: the samples per
        # prime, then no dimension, since none is bounded
        ("x*y + z", ("x", "y", "z"), 31, 2, 2 * 2, None),
        ("x*y + z", ("x", "y", "z"), 4, 16, 2 * 16, None),
        ("x + y + z + x^2*y^2*z^2", ("x", "y", "z"), 31, 16, None, 6),
        ("x + y + x^2*y^3", ("x", "y"), 31, 16, None, 4),
    ],
)
def test_an_uncertified_verdict_takes_the_schwartz_zippel_budget(
    monkeypatch, expr, names, bits, samples, calls, want
):
    ranks = _rank_samples(monkeypatch)
    rep = _default_report(expr, names, bits, samples)
    assert rep["certificate"] is None
    used = list(ranks)
    ranks.clear()
    dim = dimension.image_dimension(parse(expr, names), tuple(rep["primes"]), samples, 0)
    assert rep["image_dimension"] == dim == want
    assert rep["diagnostics"].get("rank_inconclusive", False) is (want is None)
    assert used == ranks
    if calls is not None:
        assert len(used) == calls
    else:  # no constraint: the first full-rank sample ends the search
        assert used[-1] == 2 * len(names) and max(used[:-1], default=0) < used[-1]


def test_parse_error_exits_1(capsys):
    # an exponent longer than int() reads is a parse error too
    for expr in ("x*(y", "x^" + "9" * 5000 + "*y"):
        code = main(["--vars", "x,y", "--function", expr])
        err = capsys.readouterr().err
        assert code == 1
        assert "cannot parse" in err and "position" in err


def test_usage_errors_exit_1(capsys):
    for argv in (
        ["--vars", "x", "--function", "x"],
        ["--vars", "x,y,z,w", "--function", "x"],
        ["--vars", "x,x", "--function", "x"],
        ["--vars", "x,2", "--function", "x*2"],
        ["--vars", "x,y z", "--function", "x"],
        ["--vars", "x,y"],
        ["--vars", "x,y", "--function", "x*y", "--format", "yaml"],
        ["--vars", "x,y", "--function", "x*y", "--samples", "0"],
        ["--vars", "x,y", "--function", "x*y", "--prime-bits", "2"],
        ["--function", "x*y"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        capsys.readouterr()


def test_corpus_file_with_comments(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(
        "# header comment\n"
        "x + y + z\n"
        "\n"
        "x*y*z   # trailing note\n"
    )
    code, reports = _run_json(capsys, ["--vars", "x,y,z", "--corpus", str(corpus)])
    assert code == 0
    assert [r["function"] for r in reports] == ["x + y + z", "x*y*z"]
    assert [r["verdict"] for r in reports] == ["group-additive", "group-multiplicative"]


def test_missing_corpus_exits_1(capsys):
    code = main(["--vars", "x,y", "--corpus", "/nonexistent/corpus.txt"])
    assert code == 1
    assert "cannot read corpus" in capsys.readouterr().err


def test_corpus_that_is_not_utf8_exits_1(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(b"x*y\n\xff\n")
    code = main(["--vars", "x,y", "--corpus", str(corpus)])
    assert code == 1
    err = capsys.readouterr().err
    assert "cannot read corpus" in err and "Traceback" not in err


def test_corpus_with_a_byte_order_mark_is_read(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes("x*y\nx + y\n".encode("utf-8-sig"))
    code, reports = _run_json(capsys, ["--vars", "x,y", "--corpus", str(corpus)])
    assert code == 0
    assert [r["function"] for r in reports] == ["x*y", "x + y"]


def test_function_flag_repeats_preserve_order(capsys):
    code, reports = _run_json(
        capsys,
        ["--vars", "x,y", "--function", "x+y", "--function", "x*y"],
    )
    assert code == 0
    assert [r["function"] for r in reports] == ["x+y", "x*y"]


def test_batch_exit_code_is_worst_case(capsys):
    code, _ = _run_json(
        capsys,
        [
            "--vars", "x,y",
            "--function", "x*y",
            "--function", "(x^2+1)*(y^2+1)",
        ],
    )
    assert code == 2


def test_output_is_byte_identical_across_runs(capsys):
    argv = [
        "--vars", "x,y,z",
        "--function", "(x+y)/(y+z)",
        "--function", "x*(y+z)^2",
        "--format", "json",
        "--seed", "0",
    ]
    code1 = main(argv)
    out1 = capsys.readouterr().out
    code2 = main(argv)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_prime_bits_flag_changes_sampling_primes(capsys):
    code, reports = _run_json(
        capsys,
        ["--vars", "x,y", "--function", "x*y", "--prime-bits", "20"],
    )
    assert code == 0
    primes = reports[0]["primes"]
    assert len(primes) == 2
    assert all(p < (1 << 20) for p in primes)
    assert reports[0]["verdict"] == "group-multiplicative"


def test_smallest_prime_bits_certify(capsys):
    # the certificate search pads the two 4-bit primes 13, 11 with the only
    # four primes below them, 7, 5, 3 and 2
    for names, expr, fitted in (("x,y", "x*y", ["x", "y", None]),
                                ("x,y,z", "x*y*z", ["x", "y", "z"])):
        code, reports = _run_json(
            capsys, ["--vars", names, "--function", expr, "--prime-bits", "4"]
        )
        (rep,) = reports
        assert code == 0
        assert rep["primes"] == [13, 11]
        assert rep["verdict"] == "group-multiplicative"
        assert [rep["fitted"][k] for k in ("r1", "r2", "r3")] == fitted
        assert rep["certificate"]["annihilator"] == "p - q"
        assert "error" not in rep["diagnostics"]


def test_a_polynomial_input_reports_a_polynomial_q(capsys):
    # the certificate a(q)*p - b(q) is unique up to scale, so q = b/a is a
    # polynomial exactly when a is constant
    code, reports = _run_json(
        capsys, ["--vars", "x,y,z", "--function", "(x+y+z)^3 - 2*(x+y+z) + 5"]
    )
    assert code == 0
    assert reports[0]["fitted"]["s"] == "x + y + z"
    assert reports[0]["fitted"]["q"] == "t^3 - 2*t + 5"
    assert reports[0]["certificate"]["annihilator"] == "-q^3 + p + 2*q - 5"


@pytest.mark.parametrize(
    "names, expr",
    [
        ("x,y,z", "(x+y+z)^3 - 2*(x+y+z) + 5"),
        ("x,y,z", "(x*y*z)^2 + 1"),
        ("x,y", "(x+y)^4"),
        ("x,y,z", "(x+y)/(y+z)"),
        ("x,y", "1/((x+y)^2+1)"),
    ],
)
def test_q_of_s_is_the_input(capsys, names, expr):
    code, reports = _run_json(capsys, ["--vars", names, "--function", expr])
    assert code == 0
    rep = reports[0]
    vs = tuple(names.split(","))
    s = parse(rep["fitted"]["s"], vs)
    q = parse(rep["fitted"]["q"], ("t",))

    def at_s(h):
        return sum((s ** e * c for (e,), c in h.terms.items()), RatFun.const(0, len(vs)))

    assert at_s(q.num) / at_s(q.den) == parse(expr, vs)


@pytest.mark.parametrize(
    "expr, s, q",
    [
        ("1/((x+y)^2+1)", "x + y", "1/(t^2 + 1)"),
        ("(x^3*y^3+2)/(x^3*y^3-1)", "x*y", "(t^3 + 2)/(t^3 - 1)"),
        # a multiplicative fit takes a common power out of s
        ("x^2*y^4", "x*y^2", "t^2"),
        ("x^2*y^2 + 1", "x*y", "t^2 + 1"),
    ],
)
def test_a_positive_report_states_its_outer_map(capsys, expr, s, q):
    code, (rep,) = _run_json(capsys, ["--vars", "x,y", "--function", expr])
    assert (code, rep["fitted"]["s"], rep["fitted"]["q"]) == (0, s, q)


def test_text_mode_prints_q_after_s(capsys):
    code = main(["--vars", "x,y", "--function", "1/((x+y)^2+1)", "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "fitted s:        x + y\nfitted q:        1/(t^2 + 1)\n" in out


def test_the_retired_probe_is_refused(capsys):
    names, primes = ("x", "y"), primes_below(1 << 31, 2)
    with pytest.raises(ValueError):
        cli.analyze_function("x*y", names, primes, 16, 0, None, True)
    assert cli.analyze_function("x*y", names, primes, 16, 0, None, False)[1] == 0
    with pytest.raises(SystemExit) as exc:
        main(["--vars", "x,y", "--function", "x*y", "--probe-conjecture"])
    assert exc.value.code == 1
    assert "--probe-conjecture" in capsys.readouterr().err


def test_text_mode_contains_decision_fields(capsys):
    code = main(["--vars", "x,y", "--function", "(x+y)^2", "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    for needle in (
        "function:",
        "verdict:         group-additive",
        "image dimension: 3",
        "has constraint:  true",
        "fitted s:",
        "certificate:",
        "diagnostics:",
        "seed:",
        "primes:",
    ):
        assert needle in out


def test_failing_input_does_not_abort_the_batch(monkeypatch, capsys):
    real = cli.classify_trivariate

    def flaky(f, **kwargs):
        if f == parse("x*y*z", ("x", "y", "z")):
            raise ZeroDivisionError("injected failure")
        return real(f, **kwargs)

    monkeypatch.setattr(cli, "classify_trivariate", flaky)
    code = main(
        [
            "--vars", "x,y,z",
            "--function", "(x+y)/(y+z)",
            "--function", "x*y*z",
            "--function", "x*(y+z)^2",
            "--format", "json",
        ]
    )
    captured = capsys.readouterr()
    reports = json.loads(captured.out)
    assert code == 2
    assert [r["function"] for r in reports] == ["(x+y)/(y+z)", "x*y*z", "x*(y+z)^2"]
    assert [r["verdict"] for r in reports] == ["twisted", "unresolved", "field"]
    failed = reports[1]
    assert list(failed.keys()) == SCHEMA_KEYS
    assert failed["diagnostics"] == {"error": "ZeroDivisionError"}
    assert "injected failure" in captured.err


@pytest.mark.parametrize(
    "names, expr, extra, primes, k",
    [
        ("x,y,z", "x/2147483647 + y + z", [], [2147483629, 2147483587], 2147483647),
        ("x,y", "x/251 + y", ["--prime-bits", "8"], [241, 239], 251),
        # every prime below 16 divides 30030, so the primes above 13 serve
        ("x,y", "x/30030 + y", ["--prime-bits", "4"], [17, 19], 30030),
    ],
    ids=["trivariate-31-bit", "bivariate-8-bit", "bivariate-4-bit-exhausted"],
)
def test_a_prime_dividing_a_coefficient_denominator_is_replaced(
    capsys, names, expr, extra, primes, k
):
    code = main(["--vars", names, "--function", expr, "--format", "json"] + extra)
    captured = capsys.readouterr()
    (rep,) = json.loads(captured.out)
    assert code == 0
    assert rep["primes"] == primes
    assert rep["verdict"] == "group-additive"
    # s = k*P is primitive, so the denominator k moves to the certificate
    assert rep["certificate"]["annihilator"] == f"{k}*p - q"
    assert captured.err == ""


@pytest.mark.parametrize(
    "expr, extra, primes, verdict",
    [
        ("2147483647*x*y", [], [2147483629, 2147483587], "group-multiplicative"),
        ("x*y/2147483647", [], [2147483629, 2147483587], "group-multiplicative"),
        ("13*x*y", ["--prime-bits", "4"], [11, 7], "group-multiplicative"),
        ("26*(x+y)^3 + 13", ["--prime-bits", "4"], [11, 7], "group-additive"),
    ],
)
def test_a_prime_dividing_a_content_numerator_is_replaced(capsys, expr, extra, primes, verdict):
    # modulo a prime that divides the content of N, N is 0 and every gate
    # reads a pole, so that prime is replaced as a denominator's is
    code, (rep,) = _run_json(capsys, ["--vars", "x,y", "--function", expr] + extra)
    assert (code, rep["primes"], rep["verdict"]) == (0, primes, verdict)


def test_gates_sample_modulo_the_first_sampling_prime(capsys):
    # 2147483647 divides a coefficient denominator but is no 30-bit prime,
    # so no gate may sample modulo it
    code, (rep,) = _run_json(
        capsys,
        ["--vars", "x,y,z", "--function", "x/2147483647 + y + z", "--prime-bits", "30"],
    )
    assert code == 0
    assert rep["primes"] == [1073741789, 1073741783]
    assert rep["verdict"] == "group-additive"


def test_a_certificate_settles_the_dimension_at_4_bits(capsys):
    # modulo 13 and 11 the rank samples of x*(y+z)^2 do not agree within the
    # sample budget, but the certificate settles the dimension at 4
    code, (rep,) = _run_json(
        capsys, ["--vars", "x,y,z", "--function", "x*(y+z)^2", "--prime-bits", "4"]
    )
    assert code == 0
    assert rep["primes"] == [13, 11]
    assert rep["verdict"] == "field"
    assert rep["image_dimension"] == 4
    assert rep["certificate"] is not None
    assert "rank_inconclusive" not in rep["diagnostics"]


@pytest.mark.parametrize(
    "names, expr, verdict",
    [
        ("x,y,z", "x + y^2 + z", "group-additive"),
        ("x,y", "(x - 1)*(y + 2)/((x + 3)*(y - 5))", "group-multiplicative"),
        ("x,y,z", "(x - 1)*(2*y + z^2 + 3)^2 + 1", "field"),
        ("x,y,z", "((x + 1)/(x - 2) + y^2 - 3)/(y^2 + 2*z + 5)", "twisted"),
    ],
)
def test_a_report_is_the_same_under_every_seed(capsys, names, expr, verdict):
    # the fitted parts are normalized along the symmetries of their form
    # (classify.NORMAL_FORMS), so neither the scale the draws give them, nor
    # the sign, the orientation of s or the shift among the parts shows
    reports = []
    for seed in range(10):
        code, (rep,) = _run_json(capsys, ["--vars", names, "--function", expr, "--seed", str(seed)])
        assert (code, rep.pop("seed"), rep["verdict"]) == (0, seed, verdict)
        reports.append(rep)
    assert all(rep == reports[0] for rep in reports)


def test_every_golden_positive_report_is_the_same_at_every_seed(capsys):
    # the certificate is unique up to scale and the fitted parts are
    # normalized, so a positive report names one verdict, one set of parts
    # and one certificate whatever seed draws the gates and the lines
    runs = json.loads((Path(__file__).with_name("golden") / "reports_seed0.json").read_text(encoding="utf-8"))
    positive = 0
    for run in runs:
        seed = run["argv"].index("--seed") + 1
        by_seed = []
        for value in ("0", "5", str(1 << 63)):
            argv = run["argv"][:seed] + [value] + run["argv"][seed + 1:]
            main(argv)
            by_seed.append(json.loads(capsys.readouterr().out))
        for reports in zip(*by_seed):
            if reports[0]["certificate"] is not None:
                positive += 1
                keys = ("verdict", "fitted", "certificate")
                assert all([rep[k] for k in keys] == [reports[0][k] for k in keys] for rep in reports)
    assert positive == 40


def test_a_fitted_s_with_no_image_modulo_a_sampling_prime_certifies(capsys):
    # the input has integer coefficients, but s = (x + 1)*y/(11*y + 1) is
    # stored with a monic denominator, y + 1/11, so it has no image modulo
    # the sampling prime 11; the certificate search and its check read s
    # exactly
    code, (rep,) = _run_json(
        capsys, ["--vars", "x,y", "--function", "(11*y + 1)/(x*y + y)", "--prime-bits", "4"]
    )
    assert code == 0
    assert rep["primes"] == [13, 11]
    assert rep["verdict"] == "group-multiplicative"
    assert rep["fitted"]["s"] == "(1/11*x*y + 1/11*y)/(y + 1/11)"
    assert rep["certificate"]["annihilator"] == "p*q - 1"
    fs = [parse(text, ("x", "y")) for text in (rep["function"], rep["fitted"]["s"])]
    # a pool of primes for both would skip 11; the check takes none
    assert list(prime_pool((13, 11), fs, 6)) == [13, 7, 5, 3, 2, 17]
    ann = parse(rep["certificate"]["annihilator"], ("p", "q")).num
    assert classify.verify_certificate(classify.DependenceCertificate(ann, 2, True), *fs)


@pytest.mark.parametrize("bits", [[], ["--prime-bits", "4"]])
@pytest.mark.parametrize(
    "expr", ["x^2*(y+z)^3 + x", "x*(y+z)^3 + x*y*z", "x*(y+z)^3*(1 + x*y)", "x*(y+z)^3 + y"]
)
def test_a_perturbed_field_form_gets_no_positive_verdict(capsys, expr, bits):
    # no sampled identity follows the field gates: the exact shift test, the
    # exact recovery and the certificate turn these near misses of
    # x*(y+z)^3 away
    code, (rep,) = _run_json(capsys, ["--vars", "x,y,z", "--function", expr, *bits])
    assert rep["verdict"] in ("unresolved", "no-constraint") and rep["certificate"] is None
    assert code == (2 if rep["verdict"] == "unresolved" else 0)
    if expr == "x^2*(y+z)^3 + x":
        # the fitters' keys stay when the rank sample proves nothing (4 bits)
        assert rep["diagnostics"]["field_pivot_x_shift"] is False
        assert rep["diagnostics"].get("rank_inconclusive", False) is bool(bits)


@pytest.mark.parametrize("bits", [[], ["--prime-bits", "4"]])
def test_a_constant_above_the_primes_certifies_at_any_prime_size(capsys, bits):
    # 1000003 is far above what one 31-bit prime, or a 4-bit one,
    # reconstructs; the certificate is interpolated over the integers, so
    # it takes no prime and has no lift budget to spend
    code, (rep,) = _run_json(capsys, ["--vars", "x,y", "--function", "x*y + 1000003", *bits])
    assert (code, rep["verdict"]) == (0, "group-multiplicative")
    assert rep["certificate"]["annihilator"] == "p - q - 1000003"
    assert not any(key.startswith("budget_") for key in rep["diagnostics"])


@pytest.mark.parametrize(
    "names, expr, verdict, primes",
    [
        ("x,y,z", "(x*y*z+1)^16", "group-multiplicative", [13, 11]),
        ("x,y,z", "(x+y+z)^16", "group-additive", [13, 11]),
        ("x,y,z", "(x*y*z-1)^14", "group-multiplicative", [13, 11]),
        # 11 divides every coefficient of the partials of (x+y+z)^11 + 1
        ("x,y,z", "1/((x+y+z)^11+1)", "group-additive", [13, 7]),
        # and 13 every coefficient of the partials of a 13th power
        ("x,y,z", "(x+y+z)^13", "group-additive", [11, 7]),
        ("x,y,z", "(x*y*z+1)^13", "group-multiplicative", [11, 7]),
        ("x,y,z", "1/((x+y+z)^13+1)", "group-additive", [11, 7]),
    ],
)
def test_high_powers_certify_at_4_bit_primes(capsys, names, expr, verdict, primes):
    # modulo 4-bit primes too few values of s are distinct to fit degree 11
    # or more; the exact search reads its nodes over the integers
    code, (rep,) = _run_json(capsys, ["--vars", names, "--function", expr, "--prime-bits", "4"])
    assert (code, rep["verdict"], rep["primes"]) == (0, verdict, primes)
    f, s = (parse(text, tuple(names.split(","))) for text in (rep["function"], rep["fitted"]["s"]))
    ann = parse(rep["certificate"]["annihilator"], ("p", "q")).num
    assert classify.verify_certificate(classify.DependenceCertificate(ann, ann.total_degree(), True), f, s)


def test_a_prime_that_zeroes_every_partial_in_a_variable_is_replaced(capsys):
    # modulo 2147483647 the partials of 2147483647*x^2*y + z in x and in y
    # are 0, so the gates read 0/0 there; the pool replaces that prime, and
    # the report is that of x^2*y + z at the replacement primes
    code, reports = _run_json(
        capsys, ["--vars", "x,y,z", "--function", "2147483647*x^2*y + z", "--function", "x^2*y + z"]
    )
    scaled, plain = reports
    assert scaled["primes"] == [2147483629, 2147483587]
    assert scaled["diagnostics"] == plain["diagnostics"]
    assert "field_pivot_x_certificate" not in scaled["diagnostics"]
    assert (code, scaled["verdict"]) == (2, plain["verdict"])


def test_the_pool_skips_only_a_prime_blind_in_a_variable_the_input_moves():
    # z is not involved, so its partials (0) blind no prime; 13 divides
    # every coefficient of the partials in y of (x+y)^13 and of (x+y)^13 + x,
    # but not those of (x+y)^13 + x + y
    names = ("x", "y", "z")
    assert list(prime_pool((13, 11), [parse("x*y", names)], 2)) == [13, 11]
    assert list(prime_pool((13, 11), [parse("(x+y)^13", names)], 2)) == [11, 7]
    assert list(prime_pool((13, 11), [parse("(x+y)^13 + x", names)], 2)) == [11, 7]
    assert list(prime_pool((13, 11), [parse("(x+y)^13 + x + y", names)], 2)) == [13, 11]
    assert list(prime_pool((13, 11), [parse("7", names)], 2)) == [13, 11]


def test_error_report_lists_the_primes_used(monkeypatch, capsys):
    def failing(f, **kwargs):
        raise ZeroDivisionError("injected failure")

    monkeypatch.setattr(cli, "classify_trivariate", failing)
    code, (rep,) = _run_json(
        capsys, ["--vars", "x,y,z", "--function", "x/2147483647 + y + z"]
    )
    assert code == 2
    assert rep["diagnostics"] == {"error": "ZeroDivisionError"}
    assert rep["primes"] == [2147483629, 2147483587]


def test_coefficient_denominator_coprime_to_the_primes_classifies(capsys):
    code, reports = _run_json(
        capsys, ["--vars", "x,y", "--function", "x/250 + y", "--prime-bits", "8"]
    )
    assert code == 0
    assert reports[0]["primes"] == [251, 241]
    assert reports[0]["verdict"] == "group-additive"
