"""Golden reports: the CLI's JSON output must not change, byte for byte.

``golden/reports_seed0.json`` lists CLI runs at seed 0, each with its
argv, its exit status and the reports it printed.  The corpus covers every
verdict (the four canonical forms, no-constraint, degenerate, unresolved)
for three variables and for two, plus inputs that exercise the parser's
quotient, constant and sign paths.  Unlike the determinism test, which
compares two runs of the same code, this pins the output across changes.

Regenerate only when a report is meant to change:
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from ratforms.cli import main

GOLDEN = Path(__file__).with_name("golden") / "reports_seed0.json"


def _runs() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv)
    return status, out.getvalue()


@pytest.mark.parametrize("index", range(len(_runs())))
def test_reports_match_golden_bytes(index):
    run = _runs()[index]
    status, out = _run(run["argv"])
    assert out == json.dumps(run["reports"], indent=2) + "\n"
    assert status == run["status"]


def _regenerate() -> None:
    runs = _runs()
    for run in runs:
        status, out = _run(run["argv"])
        run["status"] = status
        run["reports"] = json.loads(out)
    GOLDEN.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
