"""The demos and the README quick start run cleanly against the library
in src/, and importing it loads numpy only.

Demo 04 (a table-config sweep, several seconds) is left out; its
bench_lazy_vs_naive call is covered by the acceptance suite.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_simd_backend_tour.py", "02_activation_fitting.py",
         "03_comparator_and_bspline.py", "05_end_to_end_inference.py"]


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # the suite's own warning rule (pyproject's filterwarnings)
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *args], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    proc = _run([str(ROOT / "demos" / demo)])
    assert proc.returncode == 0, proc.stderr


def test_demo_03_prints_one_comparator_call():
    proc = _run([str(ROOT / "demos" / "03_comparator_and_bspline.py")])
    assert proc.returncode == 0, proc.stderr
    assert "one call: 15 ct mults and 1 pt mult " in proc.stdout


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert block is not None, "README has no python block"
    proc = _run(["-c", block.group(1)])
    assert proc.returncode == 0, proc.stderr


def test_import_loads_no_scipy():
    """numpy is the only runtime dependency: scipy is for the tests."""
    proc = _run(["-c", "import sys, hekan; "
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
