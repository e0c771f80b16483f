"""The output contracts of the scripts under ``tools/``, each run as a
subprocess the way its docstring says to run it: ``bit_digest.py`` prints
its run count, one sha256 per noise level and one over everything;
``code_lines.py`` prints one count per ``src/hekan`` module, then their
total."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(name: str) -> list:
    done = subprocess.run([sys.executable, str(TOOLS / f"{name}.py")], cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=300)
    assert done.stderr == ""
    return done.stdout.splitlines()


def test_bit_digest_prints_runs_and_digests():
    tool = _load("bit_digest")
    runs, *digests = _run("bit_digest")
    # shapes x 2 paths x 2 comparators x 2 noise levels x 2 arrivals
    assert runs == f"runs {16 * len(tool.SHAPES)}"
    labels = ["sha256 sigma=0", "sha256 sigma=1e-12", "sha256"]
    assert [line.rsplit(" ", 1)[0] for line in digests] == labels
    hexes = [line.rsplit(" ", 1)[1] for line in digests]
    assert all(re.fullmatch(r"[0-9a-f]{64}", h) for h in hexes)
    assert len(set(hexes)) == len(hexes)


def test_code_lines_prints_each_module_and_the_total():
    *modules, total = [line.split(" ") for line in _run("code_lines")]
    names = sorted(path.name for path in (ROOT / "src" / "hekan").glob("*.py"))
    assert [name for name, _ in modules] == names
    counts = [int(count) for _, count in modules]
    assert all(count > 0 for count in counts)
    assert total == ["total", str(sum(counts))]


def test_code_lines_skips_docstrings_comments_and_blanks(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text('"""Module\ndocstring."""\n\n# a comment\nimport os  # trailing\n\n\n'
                      'class A:\n    """One line."""\n\n    def f(self):\n'
                      '        """Two\n        lines."""\n        return os.sep\n')
    assert _load("code_lines").code_lines(source) == 4  # import, class, def, return
