"""The output contracts of the scripts under ``tools/``, each run as a
subprocess the way its docstring says to run it: ``bit_digest.py`` prints
its run count, one sha256 per noise level, one per comparator mode and one
over everything;
``code_lines.py`` prints one count per ``src/hekan`` module, then their
total; ``stage_counts.py`` prints each labelled stage's op counts and a
total per (model, path), each with its level drop, then each layer's
layout. ``same_bits.py``'s comparison, loaded as a module, reports the
lines in which two trees' outputs of those last two scripts differ. No
linter ships with the project, so one more check here walks the
package's syntax trees: no module imports a name it never references."""

import ast
import functools
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.cache
def _run(name: str) -> tuple:
    done = subprocess.run([sys.executable, str(TOOLS / f"{name}.py")], cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=300)
    assert done.stderr == ""
    return tuple(done.stdout.splitlines())


def test_bit_digest_prints_runs_and_digests():
    tool = _load("bit_digest")
    runs, *digests = _run("bit_digest")
    # shapes x 2 paths x 2 comparators x 2 noise levels x 2 arrivals
    assert runs == f"runs {16 * len(tool.SHAPES)}"
    labels = ["sha256 sigma=0", "sha256 sigma=1e-12", "sha256 comparator=composite",
              "sha256 comparator=exact", "sha256"]
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


def test_stage_counts_prints_each_stage_and_the_total():
    tool = _load("stage_counts")
    header, *lines = _run("stage_counts")
    assert header == "model path stage rotations pt_mults ct_mults levels"
    rows = [line.split(" ") for line in lines if line.split(" ")[2] != "layout"]
    keys = [(model, path) for model, *_ in tool.MODELS for path in ("lazy", "naive")]
    assert [tuple(row[:3]) for row in rows] == [
        (*key, stage) for key in keys for stage in (*tool.STAGES, "total")]
    tables = ["(64,3,2)", "(128,5,3)", "(256,5,3)", "(256,10,3)", "(256,10,5)"]
    assert {model for model, *_ in keys} == {*tables, "jittered(64,3,2)", "kan_small"}
    assert tool.STAGES == ("repeat_pack", "silu_poly", "base_matvec", "comparator",
                           "basis_recursion", "spline_matvec")
    table = np.array([[int(c) for c in row[3:]] for row in rows]).reshape(len(keys), -1, 4)
    counts, levels = table[..., :3], table[..., 3]
    assert (table >= 0).all()
    # the stages account for every rotation and multiply of the forward
    assert np.array_equal(counts[:, :-1].sum(axis=1), counts[:, -1])
    # kan_small's lazy forward is perfbench's pinned one: 23 / 16 / 44 at
    # depth 28; the deepest table layer, (256,10,5), takes 15 levels lazy
    # and 16 naive (the naive path's permutation product one more)
    assert table[keys.index(("kan_small", "lazy")), -1].tolist() == [23, 16, 44, 28]
    assert [levels[keys.index(key), -1] for key in keys if key[0] in tables] == [
        14, 15, 14, 15, 14, 15, 14, 15, 15, 16]
    # the comparator: one rotation (the order-0 difference), no pt mult (its
    # first scalar rides on the packing mask), 15 ct mults, 10 levels
    comparator, recursion = (tool.STAGES.index(name) for name in ("comparator",
                                                                  "basis_recursion"))
    # the basis recursion: a rotation per order; on an equally spaced grid
    # 3 pt mults, k + 1 ct mults (k for k = 2) and ceil((k - 1)/2) + 1
    # levels, two orders a level; with one jittered knot row k + 1 pt and
    # ct mults and k levels
    for (model, path), stages in zip(keys, table):
        k = next(k for label, _, _, k in tool.MODELS if label == model)
        layers = 2 if model == "kan_small" else 1
        assert stages[comparator].tolist() == [layers, 0, 15 * layers, 10 * layers]
        want = ([k, k + 1, k + 1, k] if model.startswith("jittered")
                else [k, 3, k + (k >= 3), k // 2 + 1])
        assert stages[recursion].tolist() == [layers * n for n in want]
    # and nothing else moves: the recursion's and the total's one ct mult
    jittered, spaced = (table[keys.index((m, "lazy"))] for m in ("jittered(64,3,2)", "(64,3,2)"))
    assert (jittered - spaced).tolist() == [[0, 0, 1, 0] if i in (recursion, len(tool.STAGES))
                                            else [0, 0, 0, 0] for i in range(len(tool.STAGES) + 1)]


def test_stage_counts_prints_each_layers_layout_after_its_total():
    tool = _load("stage_counts")
    _, *lines = _run("stage_counts")
    layers = {model: len(dims) - 1 for model, dims, *_ in tool.MODELS}
    heads = [tuple(line.split(" ")[:4 if " layout " in line else 3]) for line in lines]
    assert heads == [head for model, *_ in tool.MODELS for path in ("lazy", "naive")
                     for head in (*((model, path, stage) for stage in (*tool.STAGES, "total")),
                                  *((model, path, "layout", str(i)) for i in range(layers[model])))]
    layouts = {head: line.split(" ", 4)[4] for head, line in zip(heads, lines) if len(head) == 4}
    form = r"last=\d+,\d+,(front|default) base=(own|shared,g=\d+,giants=\d+) copies=\d+"
    assert all(re.fullmatch(form, fields) for fields in layouts.values())
    # perfbench's pinned layers: the front-padded p = 11 map with W_b's one
    # shared diagonal on (256,10,5), and kan_small's two layers
    assert layouts["(256,10,5)", "lazy", "layout", "0"] == (
        "last=11,5632,front base=shared,g=1,giants=1 copies=32")
    assert [layouts["kan_small", "lazy", "layout", i] for i in "01"] == [
        "last=5,20,front base=shared,g=1,giants=1 copies=16",
        "last=1,64,default base=shared,g=1,giants=1 copies=16"]


def test_same_bits_compares_each_scripts_lines():
    differences = _load("same_bits").differences
    ref = {"bit_digest.py": ["runs 4", "sha256 1f"],
           "stage_counts.py": ["header", "a lazy total 1 2 3 4", "a naive total 1 2 3 5"]}
    assert differences(ref, {name: list(lines) for name, lines in ref.items()}) == []
    new = {"bit_digest.py": ["runs 4", "sha256 2e"],
           "stage_counts.py": ["header", "a lazy total 1 2 3 4", "a naive total 1 2 3 6",
                               "a naive layout 0"]}
    assert differences(ref, new) == [
        "bit_digest.py - sha256 1f", "bit_digest.py + sha256 2e",
        "stage_counts.py - a naive total 1 2 3 5", "stage_counts.py + a naive total 1 2 3 6",
        "stage_counts.py + a naive layout 0"]
    assert differences(ref, {"bit_digest.py": ref["bit_digest.py"]}) == [
        f"stage_counts.py - {line}" for line in ref["stage_counts.py"]]


def _unused_imports(path: Path) -> list:
    """Names path imports and never references: a name is referenced when it
    is read as a name, the base of an attribute chain included."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in used and name != "annotations")


def test_no_module_imports_a_name_it_never_references():
    # __init__.py imports to re-export
    modules = [p for p in sorted((ROOT / "src" / "hekan").glob("*.py"))
               if p.name != "__init__.py"]
    assert modules
    assert [found for path in modules for found in _unused_imports(path)] == []


def test_unused_import_check_sees_names_and_attribute_bases(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text("from __future__ import annotations\nimport os.path\nimport sys\n"
                      "from math import pi, tau as t\nfrom .errors import Gone\n\n"
                      "def f():\n    return os.path.sep, pi, t\n")
    assert _unused_imports(source) == ["sample.py:3 sys", "sample.py:5 Gone"]
