"""The demos run cleanly against the library in src/.

Demo 04 (a table-config sweep, several seconds) is left out; its
bench_lazy_vs_naive call is covered by the acceptance suite.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_simd_backend_tour.py", "02_activation_fitting.py",
         "03_comparator_and_bspline.py", "05_end_to_end_inference.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
