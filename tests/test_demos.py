"""Smoke test: every demo script and every Python block of the README runs
to completion."""

import contextlib
import io
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from stww import bwmc_oracle

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (REPO / "README.md").read_text(), re.M | re.S)


def test_demos_are_found():
    assert DEMOS, "no demo scripts found"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_readme_python_blocks_run():
    assert README_BLOCKS, "no python block found in README.md"
    runs = []
    for block in README_BLOCKS:
        namespace, out = {}, io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, "README.md", "exec"), namespace)
        runs.append((out.getvalue(), namespace))
    # the quick start counts its formula's models with at most 2 ones
    out, namespace = runs[0]
    assert out == "9/2\n"
    assert bwmc_oracle(namespace["f"], namespace["w"], 2) == Fraction(9, 2)
