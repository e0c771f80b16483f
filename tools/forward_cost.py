"""Bookkeeping and wall time of one encrypted forward.

For kan_small ([2, 5, 1], g = 5, k = 3) and each of the paper's five table
configs (n_i, g, k) with n_o = 10, on the lazy path, the exact backend at
2^15 slots and the default composite comparator, runs one warm-up forward
(which builds the layer layouts and diagonals), then counts what one more
forward (``encrypt_input``, ``model_forward_he``, ``decrypt``) builds and
enters, and times it in process:

    python tools/forward_cost.py [LABEL ...]

It prints one line per model (only the named ones when labels are given):

    <label> ciphertexts=<n> replace=<n> sliding_window_view=<n> slotwise=<n> rotate=<n> run_on_window=<n> run_block_sum=<n> python_calls=<n> min_us=<t> median_us=<t>

``ciphertexts`` counts ``CipherText`` constructions, ``replace`` calls of
``dataclasses.replace`` and ``sliding_window_view`` calls of numpy's, the
next four the calls of those ``HeBackend`` methods (``add``, ``sub`` and
``mul`` enter ``slotwise``), and ``python_calls`` every call of a Python
function. They are read by a profile hook (``sys.setprofile``) that
matches each Python call's code object, so the library is not touched.
``min_us`` and ``median_us`` are the minimum and median wall time of
REPEATS single forwards, unprofiled. The counts depend on shapes alone, so
every model is drawn with seed 0. The script imports hekan from the
``src`` directory next to it.
"""

from __future__ import annotations

import dataclasses
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hekan import (  # noqa: E402
    BackendConfig,
    CipherText,
    HeBackend,
    PipelineConfig,
    encrypt_input,
    model_forward_he,
    plan_model,
    random_model,
)

MODELS = (("kan_small", [2, 5, 1], 5, 3),
          *((f"({n},{g},{k})", [n, 10], g, k) for n, g, k in
            ((64, 3, 2), (128, 5, 3), (256, 5, 3), (256, 10, 3), (256, 10, 5))))
SLOT_COUNT = 2 ** 15
REPEATS = 21
COUNTED = {
    "ciphertexts": CipherText.__init__,
    "replace": dataclasses.replace,
    "sliding_window_view": np.lib.stride_tricks.sliding_window_view.__wrapped__,
    "slotwise": HeBackend.slotwise,
    "rotate": HeBackend.rotate,
    "run_on_window": HeBackend.run_on_window,
    "run_block_sum": HeBackend.run_block_sum,
}


def set_up(label: str):
    """forward() for the named model: one encrypted forward on an exact
    backend whose depth budget is the model's plan, run once already."""
    _, dims, g, k = next(m for m in MODELS if m[0] == label)
    model = random_model(dims, g=g, k=k, seed=0)
    cfg = PipelineConfig(path="lazy")
    be = HeBackend(BackendConfig(slot_count=SLOT_COUNT,
                                 depth_budget=plan_model(model, cfg).total))
    x = np.random.default_rng(0).uniform(-0.9, 0.9, dims[0])

    def forward():
        out, _ = model_forward_he(model, encrypt_input(x, model, be), cfg)
        return be.decrypt(out)

    forward()
    return forward


def forward_counts(forward) -> dict:
    """How often one call of forward builds or enters each of COUNTED, and
    how many Python functions it calls (``python_calls``)."""
    codes = {fn.__code__: name for name, fn in COUNTED.items()}
    counts = dict.fromkeys([*COUNTED, "python_calls"], 0)

    def hook(frame, event, arg):
        if event == "call":
            counts["python_calls"] += 1
            if frame.f_code in codes:
                counts[codes[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        forward()
    finally:
        sys.setprofile(previous)
    return counts


def forward_times(forward, repeats: int = REPEATS) -> list:
    """Wall time of each of repeats calls of forward, in microseconds."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        forward()
        times.append((time.perf_counter() - t0) * 1e6)
    return times


def main(labels: list) -> None:
    for label, *_ in MODELS:
        if labels and label not in labels:
            continue
        forward = set_up(label)
        counts = forward_counts(forward)
        times = forward_times(forward)
        print(label, *(f"{name}={n}" for name, n in counts.items()),
              f"min_us={min(times):.0f}", f"median_us={statistics.median(times):.0f}")


if __name__ == "__main__":
    main(sys.argv[1:])
