"""Tests for the command-line front end: reports, exit codes, determinism."""

from __future__ import annotations

import json

import pytest

from ratforms import cli, dimension
from ratforms.cli import main
from ratforms.modular import primes_below
from ratforms.poly import BadPrimeError
from ratforms.ratfun import parse

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
    assert list(reports[0]["fitted"].keys()) == ["r1", "r2", "r3", "s", "pivot", "n"]
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


def _default_report(expr: str, names: tuple[str, ...]) -> dict:
    primes = primes_below(1 << 31, 2)
    report, _ = cli.analyze_function(expr, names, primes, 16, 0, None, False)
    return report


@pytest.mark.parametrize(
    "expr, names",
    [
        ("x + y + z", ("x", "y", "z")),
        ("(x+y)/(y+z)", ("x", "y", "z")),
        ("x*(y+z)^2", ("x", "y", "z")),
        ("x*y + 1", ("x", "y")),
    ],
)
def test_a_certified_verdict_stops_at_its_first_sample_of_rank_n_plus_1(
    monkeypatch, expr, names
):
    ranks = _rank_samples(monkeypatch)
    rep = _default_report(expr, names)
    ceiling = len(names) + 1
    assert rep["certificate"] is not None
    assert rep["image_dimension"] == ceiling
    used = list(ranks)
    ranks.clear()
    primes = tuple(rep["primes"])
    dm = dimension.doubling_map(parse(expr, names))
    assert dimension.generic_rank(dm, primes, 16, 0).rank == ceiling
    # the unceilinged schedule draws the same samples, then keeps going
    assert used == ranks[: ranks.index(ceiling) + 1]
    assert len(used) < len(ranks)


@pytest.mark.parametrize(
    "expr, names, calls",
    [
        # dimension 5: 16 samples and 4 confirmations per prime
        ("x*y + z", ("x", "y", "z"), 2 * (16 + 4)),
        ("x + y + z + x^2*y^2*z^2", ("x", "y", "z"), None),
        ("x + y + x^2*y^3", ("x", "y"), None),
    ],
)
def test_an_uncertified_verdict_keeps_the_full_rank_schedule(monkeypatch, expr, names, calls):
    ranks = _rank_samples(monkeypatch)
    rep = _default_report(expr, names)
    assert rep["certificate"] is None
    used = list(ranks)
    ranks.clear()
    dm = dimension.doubling_map(parse(expr, names))
    est = dimension.generic_rank(dm, tuple(rep["primes"]), 16, 0)
    assert rep["image_dimension"] == est.rank
    assert used == ranks
    if calls is not None:
        assert len(used) == calls
    else:  # no constraint: the first full-rank sample ends the search
        assert used[-1] == 2 * len(names) and max(used[:-1], default=0) < used[-1]


def test_parse_error_exits_1(capsys):
    code = main(["--vars", "x,y", "--function", "x*(y"])
    err = capsys.readouterr().err
    assert code == 1
    assert "cannot parse" in err and "position" in err


def test_usage_errors_exit_1(capsys):
    for argv in (
        ["--vars", "x", "--function", "x"],
        ["--vars", "x,y,z,w", "--function", "x"],
        ["--vars", "x,x", "--function", "x"],
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


def test_probe_conjecture_flag(capsys):
    code, reports = _run_json(
        capsys,
        [
            "--vars", "x,y,z",
            "--function", "(x+y+z)^3 - 2*(x+y+z) + 5",
            "--probe-conjecture",
        ],
    )
    assert code == 0
    diag = reports[0]["diagnostics"]
    assert diag["conjecture_composition"] is True
    assert diag["conjecture_u"] == "t^3 - 2*t + 5"


def test_probe_conjecture_not_applicable_for_rational_input(capsys):
    code, reports = _run_json(
        capsys,
        ["--vars", "x,y,z", "--function", "(x+y)/(y+z)", "--probe-conjecture"],
    )
    assert code == 0
    assert reports[0]["diagnostics"]["conjecture_applicable"] is False


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
    "names, expr, extra, primes",
    [
        ("x,y,z", "x/2147483647 + y + z", [], [2147483629, 2147483587]),
        ("x,y", "x/251 + y", ["--prime-bits", "8"], [241, 239]),
        # every prime below 16 divides 30030, so the primes above 13 serve
        ("x,y", "x/30030 + y", ["--prime-bits", "4"], [17, 19]),
    ],
    ids=["trivariate-31-bit", "bivariate-8-bit", "bivariate-4-bit-exhausted"],
)
def test_a_prime_dividing_a_coefficient_denominator_is_replaced(
    capsys, names, expr, extra, primes
):
    code = main(["--vars", names, "--function", expr, "--format", "json"] + extra)
    captured = capsys.readouterr()
    (rep,) = json.loads(captured.out)
    assert code == 0
    assert rep["primes"] == primes
    assert rep["verdict"] == "group-additive"
    assert rep["certificate"]["annihilator"] == "p - q"
    assert captured.err == ""


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
    # sample budget, but the certificate bounds the dimension by 4 and one
    # sample reaches it
    code, (rep,) = _run_json(
        capsys, ["--vars", "x,y,z", "--function", "x*(y+z)^2", "--prime-bits", "4"]
    )
    assert code == 0
    assert rep["primes"] == [13, 11]
    assert rep["verdict"] == "field"
    assert rep["image_dimension"] == 4
    assert rep["certificate"] is not None
    assert "rank_inconclusive" not in rep["diagnostics"]


def test_certificate_pool_skips_a_prime_dividing_a_fitted_denominator(capsys):
    # the input has no denominator, but the fitted parts have a 44 = 4*11,
    # so s has no image modulo the sampling prime 11: the gradient minors
    # sample modulo 13 and 7 instead, and the certificate pool at 4 bits is
    # 13, 7, 5, 3, 17, 19, without 11 and 2
    code, (rep,) = _run_json(
        capsys, ["--vars", "x,y", "--function", "x^2 + y^2", "--prime-bits", "4"]
    )
    assert code == 0
    assert rep["primes"] == [13, 11]
    assert rep["verdict"] == "group-additive"
    assert rep["fitted"]["s"] == "1/44*x^2 + 1/44*y^2"
    assert rep["certificate"]["annihilator"] == "p - 44*q"


def test_bad_prime_in_a_fitted_function_is_unresolved(monkeypatch, capsys):
    def bad_prime(f, **kwargs):
        raise BadPrimeError(5)

    monkeypatch.setattr(cli, "fit_bivariate", bad_prime)
    code, (rep,) = _run_json(
        capsys, ["--vars", "x,y", "--function", "x^2 + y^2", "--prime-bits", "4"]
    )
    assert code == 2
    assert rep["primes"] == [13, 11]
    assert rep["verdict"] == "unresolved"
    assert rep["diagnostics"] == {"bad_prime": 5}
    assert list(rep.keys()) == SCHEMA_KEYS


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
