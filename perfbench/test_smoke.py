"""Smoke test of the benchmark: every workload at its shortest length.

    PYTHONPATH=src python -m pytest perfbench/test_smoke.py -q

Takes about 80 s on a 2-core machine: each workload runs once untraced and
once traced with --seconds 1 (one round, three model builds).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from perlayer import PER_LAYER  # noqa: E402
from spans import SpanRecorder  # noqa: E402

WORKLOADS = sorted(run.WORKLOADS)
_outputs = {}


def bench(capsys, workload, trace):
    """Run one workload in-process at its shortest length; cached per
    (workload, trace). Returns (printed lines, result dict)."""
    key = (workload, trace)
    if key not in _outputs:
        code = run.main(["--workload", workload, "--seed", "0", "--seconds", "1",
                         "--trace", str(trace)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        _outputs[key] = (lines, json.loads(lines[-1]))
    return _outputs[key]


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in PER_LAYER]
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(capsys, workload):
    lines, result = bench(capsys, workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _, _ in run.END_TO_END]
    for name, unit, _ in run.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
    text = "\n".join(lines[:-1])
    for name, unit, _ in run.END_TO_END + run.UNBOUNDED:
        assert f"  {name} " in text and f" {unit} " in text
    assert '"nproc"' in text


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_layers_and_restores_attributes(capsys, workload):
    before = SpanRecorder(run.import_hekan()).originals()
    assert len(before) > 50
    lines, result = bench(capsys, workload, 1)
    for owner, attr, original in before:
        assert getattr(owner, attr) is original, f"{owner}.{attr} not restored"
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [name for name, *_ in PER_LAYER]
    assert metrics["inference.plan_mismatch"] == 0
    self_sum = sum(metrics[f"{layer}.self_ms"] for layer in
                   ("backend", "approx", "bspline", "inference", "model", "bench"))
    assert self_sum == pytest.approx(metrics["trace.infer_ms"], rel=1e-9)
    assert metrics["backend.slotwise.calls"] > 0 and metrics["approx.comparator.calls"] > 0
    role = "perm" if run.WORKLOADS[workload].path == "naive" else "spline"
    assert metrics[f"inference.{role}_matvec.pt_mults"] > 0


def _ops_totals(lines):
    return [int(line.split()[-1]) for line in lines if line.split()[:1] == ["ops"]]


@pytest.mark.parametrize("workload", ["table_lazy", "table_naive"])
def test_table_op_counts_match_library_sweep(capsys, workload):
    hekan = run.import_hekan()
    if not hasattr(hekan, "bench_lazy_vs_naive"):
        pytest.skip("library no longer ships bench_lazy_vs_naive")
    lines, _ = bench(capsys, workload, 0)
    path = run.WORKLOADS[workload].path
    rows = [r for r in hekan.bench_lazy_vs_naive(run.TABLE_CONFIGS) if r["path"] == path]
    expected = [r["rotations"] + r["ct_mults"] + r["pt_mults"] for r in rows]
    assert _ops_totals(lines) == expected


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kan_small", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
