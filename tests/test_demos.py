"""Every demo runs to completion, and the classification demos keep their verdicts.

Each script in demos/ runs in a fresh interpreter with src on PYTHONPATH,
as the README runs them.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

#: The verdict lines each classification demo prints, in order.
VERDICTS = {
    "02_bivariate_dichotomy.py": [
        "GroupAdditive",
        "GroupMultiplicative",
        "GroupAdditive",
        "NoConstraint",
        "Degenerate",
    ],
    "03_trivariate_forms.py": [
        "GroupAdditive",
        "GroupMultiplicative",
        "Field",
        "Twisted",
        "Unresolved",
    ],
}


def test_every_pinned_demo_exists():
    assert set(VERDICTS) <= {demo.name for demo in DEMOS}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stderr
    verdicts = [
        line.split(":", 1)[1].strip()
        for line in done.stdout.splitlines()
        if line.startswith("    verdict:")
    ]
    assert verdicts == VERDICTS.get(demo.name, [])
