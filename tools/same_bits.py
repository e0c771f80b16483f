"""Same-bits check of the working tree against a git revision.

Extracts REF (default ``HEAD``) into a temporary directory with ``git
archive``, runs ``tools/bit_digest.py`` and ``tools/stage_counts.py`` in
that copy and in the working tree, and prints ``same`` when every line
agrees, or else each line that differs, as ``<script> - <REF's line>`` and
``<script> + <the working tree's line>``:

    python tools/same_bits.py [REF]

It exits 0 when the outputs are the same and 1 when they differ. A change
meant to move no slot, op count, level, noise draw or layout passes it. It
uses the standard library and the local git repository only.
"""

from __future__ import annotations

import difflib
import io
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ("bit_digest.py", "stage_counts.py")


def outputs(root: Path) -> dict:
    """Each script's output lines, run from the tree at root."""
    return {name: subprocess.run([sys.executable, str(root / "tools" / name)], cwd=root,
                                 capture_output=True, text=True, check=True).stdout.splitlines()
            for name in SCRIPTS}


def differences(ref: dict, new: dict) -> list:
    """The lines in which two runs' outputs differ, script by script: a
    line of ref's as ``<script> - <line>``, one of new's as ``<script> +
    <line>``."""
    return [f"{name} {line}" for name in dict.fromkeys([*ref, *new])
            for line in difflib.ndiff(ref.get(name, []), new.get(name, []))
            if line[:2] in ("- ", "+ ")]


def main(argv: list) -> int:
    ref = argv[0] if argv else "HEAD"
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", ref], cwd=ROOT, capture_output=True,
                                 check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        lines = differences(outputs(Path(tmp)), outputs(ROOT))
    print("\n".join(lines) if lines else "same")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
