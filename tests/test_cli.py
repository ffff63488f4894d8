"""Tests for the command-line front end: reports, exit codes, determinism."""

from __future__ import annotations

import json

import pytest

from ratforms import cli
from ratforms.cli import main
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
