"""Paired benchmark runs of the working tree against a git revision.

Extracts REF into a temporary directory with ``git archive``, as
``tools/same_bits.py`` does, and runs ``perfbench/run.py`` from both
trees, one run at a time, N pairs per workload:

    python tools/paired_bench.py REF --workload W [--workload W2 ...] \\
        --pairs N --seconds S > BENCH.json

Pair i = 1, ..., N runs both trees on seed i with ``--trace 0``; REF goes
first on odd i and the working tree on even i, so a drift of the machine
falls on both sides alike. Each tree's ``perfbench/run.py`` imports the
library from its own ``src/``, and both trees' ``src/`` and
``perfbench/`` are byte-compiled first, so that no first run pays for
compiling. Nothing under ``perfbench/`` is edited.

It prints one JSON object: the revision and the command, the machine,
every run (``runs``: workload, seed, tree, which tree went first, failed,
attempted, correct and the metrics), and per workload and metric a
summary (``summary``): each tree's median and quartiles, the pairs, the
change's wins and losses (strictly better or worse than REF in the same
pair, by the metric's direction), and, for each end-to-end metric of
``BENCHMARK.json``, its bound, the change's relative worsening of the
median (``worse_by``, negative when better) and ``within_bound``.
``failed`` sums each tree's failed inferences per workload, and
``within_bounds`` is true when every bounded metric is within its bound
and neither tree failed an inference. The exit code is 0 then and 1
otherwise. Compare only runs made in one session: the same machine drifts
over hours (``perfbench/README.md``).
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = ("ref", "change")


def extract(ref: str, into: Path) -> str:
    """Extract REF's files into ``into``; return REF's commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{ref}^{{commit}}"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, capture_output=True,
                             check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return commit


def bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run from the tree at root: its last stdout
    line, with each metric's value only, and its ``env`` line."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    result["env"] = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return result


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 2
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarise(runs: list, bounds: dict) -> dict:
    """Per workload and metric: medians, quartiles, wins and losses, and a
    bounded metric's check (see the module docstring)."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["seed"], {})[r["tree"]] = r["metrics"]
        pairs = [p for p in pairs.values() if len(p) == 2]
        names = dict.fromkeys(name for p in pairs for name in p["ref"] if name in p["change"])
        rows = summary[workload] = {}
        for name in names:
            lower = bounds.get(name, {}).get("better", "lower") == "lower"
            ref = [p["ref"][name] for p in pairs]
            change = [p["change"][name] for p in pairs]
            gains = [(r - c) if lower else (c - r) for r, c in zip(ref, change)]
            row = rows[name] = {
                "better": "lower" if lower else "higher", "pairs": len(pairs),
                "ref_median": statistics.median(ref), "change_median": statistics.median(change),
                "ref_quartiles": quartiles(ref), "change_quartiles": quartiles(change),
                "change_wins": sum(g > 0 for g in gains),
                "change_losses": sum(g < 0 for g in gains)}
            if name in bounds:
                base, new = row["ref_median"], row["change_median"]
                worse = ((new - base) if lower else (base - new)) / base if base else 0.0
                row.update(bound=bounds[name]["bound"], worse_by=worse,
                           within_bound=worse <= bounds[name]["bound"])
    return summary


def main(argv: list) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("ref")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        ap.error("--pairs must be at least 1 and --seconds positive")
    bounds = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        commit = extract(args.ref, Path(tmp))
        roots = {"ref": Path(tmp), "change": ROOT}
        for root in roots.values():  # so that no first run pays for compiling
            subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                           cwd=root, check=True)
        for workload in args.workload:
            for seed in range(1, args.pairs + 1):
                order = TREES if seed % 2 else TREES[::-1]
                for tree in order:
                    result = bench(roots[tree], workload, seed, args.seconds)
                    env = result.pop("env")
                    runs.append({"workload": workload, "seed": seed, "tree": tree,
                                 "first": order[0], **result})
    summary = summarise(runs, bounds)
    failed = {w: {tree: sum(r["failed"] for r in runs if r["workload"] == w and r["tree"] == tree)
                  for tree in TREES} for w in summary}
    doc = {"ref": commit,
           "command": f"python3 perfbench/run.py --workload W --seed N --seconds {args.seconds:g} "
                      "--trace 0",
           "environment": env,
           "within_bounds": all(row.get("within_bound", True) for rows in summary.values()
                                for row in rows.values())
                            and not any(sum(f.values()) for f in failed.values()),
           "failed": failed, "summary": summary, "runs": runs}
    print(json.dumps(doc, indent=1))
    return 0 if doc["within_bounds"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
