"""Per-stage op counts of one encrypted forward.

Runs one forward of each of the paper's five table configs (n_i, g, k),
each with n_o = 10, of ``jittered(64,3,2)``, the first config with one
knot row no longer equally spaced (its interior knots moved by up to a
tenth of the spacing), so that its basis recursion keeps a slope per
weight and one order a level (k + 1 plaintext multiplies against the
equally spaced grid's 3, with k ct mults for k = 2), and of the
two-layer ``kan_small`` model ([2, 5, 1], g = 5, k = 3), on both paths,
on the exact backend at 2^15 slots with the default composite
comparator, and prints a header, then for each (model, path) one line per
labelled stage and a total line:

    python tools/stage_counts.py

A count line reads ``<model> <path> <stage> <rotations> <pt_mults>
<ct_mults> <levels>``. The stages are the layer program's labels in
pipeline order (STAGES), summed over the model's layers; ``total`` is the
forward's whole count. A stage is charged the ops counted since the label
before it (the forward's start for the first), read through a
``HeBackend`` subclass whose label hook ``_stage`` records them, and its
levels are its level drop (the level of the value it labels against that
of its input), summed over the layers; the total's are the forward's
depth. The two branches of a layer run side by side, so the stages'
levels do not sum to the depth. When W_b's block sum
shares the last spline map's fold chain, its baby rotations and products
are charged to ``base_matvec`` and the shared giant rotations and folds to
``spline_matvec``. Counts depend on shapes alone, so every model is drawn
with seed 0.

After each (model, path)'s total, one line per layer gives the layer's
record (``KanLayer.layouts``) that the forward ran:

    <model> <path> layout <layer> last=<p>,<L>,<front|default> base=<form> copies=<c>

``last`` is the last spline map's geometry, front-padded or its default;
``base`` is W_b's schedule, ``own`` or ``shared,g=<g>,giants=<gs>`` (its
block sum on the last map's geometry: g diagonals in gs giant blocks);
``copies`` is the packed operand's copy count. The script imports hekan
from the ``src`` directory next to it.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hekan import (  # noqa: E402
    BackendConfig,
    GridMatrix,
    HeBackend,
    KanModel,
    PipelineConfig,
    encrypt_input,
    model_forward_he,
    plan_model,
    random_model,
)

STAGES = ("repeat_pack", "silu_poly", "base_matvec", "comparator", "basis_recursion",
          "spline_matvec")
MODELS = (*((f"({n},{g},{k})", [n, 10], g, k) for n, g, k in
            ((64, 3, 2), (128, 5, 3), (256, 5, 3), (256, 10, 3), (256, 10, 5))),
          ("jittered(64,3,2)", [64, 10], 3, 2), ("kan_small", [2, 5, 1], 5, 3))
SLOT_COUNT = 2 ** 15


def jittered(model: KanModel) -> KanModel:
    """model with the interior knots of its first layer's first row moved
    by up to a tenth of the knot spacing (seed 0)."""
    layer = model.layers[0]
    knots = layer.grid.entries.copy()
    spacing = knots[0, 1] - knots[0, 0]
    knots[0, 1:-1] += spacing * np.random.default_rng(0).uniform(-0.1, 0.1, knots.shape[1] - 2)
    grid = GridMatrix(knots, layer.g, layer.k, layer.grid.R)
    return KanModel([replace(layer, grid=grid), *model.layers[1:]], model.input_shape)


class StageCounts(HeBackend):
    """An exact backend whose label hook charges each stage the rotations,
    plaintext and ciphertext multiplies counted since the previous label."""

    def __init__(self, config: BackendConfig):
        super().__init__(config)
        self.stages = {name: np.zeros(4, dtype=int) for name in STAGES}
        self._mark = self.counter.copy()

    def _stage(self, name, v_in, v_out):
        spent = self.counter.since(self._mark)
        self.stages[name] += (spent.rotations, spent.pt_mults, spent.ct_mults,
                              v_in.level - v_out.level)
        self._mark = self.counter.copy()


def main() -> None:
    print("model path stage rotations pt_mults ct_mults levels")
    for label, dims, g, k in MODELS:
        model = random_model(dims, g=g, k=k, seed=0)
        if label.startswith("jittered"):
            model = jittered(model)
        x = np.random.default_rng(0).uniform(-0.9, 0.9, dims[0])
        for path in ("lazy", "naive"):
            cfg = PipelineConfig(path=path)
            be = StageCounts(BackendConfig(slot_count=SLOT_COUNT,
                                           depth_budget=plan_model(model, cfg).total))
            ct = encrypt_input(x, model, be)
            out, _ = model_forward_he(model, ct, cfg)
            c = be.counter
            total = c.rotations, c.pt_mults, c.ct_mults, ct.level - out.level
            for name, counts in (*be.stages.items(), ("total", total)):
                print(label, path, name, *map(int, counts))
            comparator = cfg.comparator()
            for i, layer in enumerate(model.layers):
                print(label, path, "layout", i, layout_fields(layer.layouts[path, comparator]))


def layout_fields(layout) -> str:
    """The last map's geometry, W_b's form and the copies of a layout."""
    p, L, front = layout.maps[-1].geometry
    base = layout.base
    form = f"shared,g={base.shape[0]},giants={base.split[1]}" if base.unfolded else "own"
    return f"last={p},{L},{'front' if front else 'default'} base={form} copies={layout.copies}"


if __name__ == "__main__":
    main()
