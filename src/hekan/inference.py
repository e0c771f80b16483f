"""Encrypted KAN inference pipeline.

Wires the pieces together per layer: the activation-polynomial branch and
the packed B-spline branch, joined by baby-step/giant-step matrix-vector
products. The lazy path applies permutation-fused weights directly to the
basis layout; the naive path first reorders homomorphically via a
permutation-matrix product. A static depth planner predicts the exact level
consumption before anything runs.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .approx import (
    DEFAULT_ALPHA,
    DEFAULT_TARGET_EPS,
    EXACT_COMPARATOR,
    build_composite_sign,
    eval_poly_he,
    poly_eval_depth,
)
from .backend import BackendConfig, CipherText, HeBackend, make_backend
from .bspline import (
    bspline_basis_he,
    check_repeat_pack,
    repeat_pack,
)
from .errors import (
    DepthBudgetInfeasible,
    NonFiniteInput,
    ShapeMismatch,
)
from .matvec import matvec_schedule
from .model import KanLayer, KanModel


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineConfig:
    """How to run the encrypted pipeline."""

    comparator_mode: str = "composite"   # "composite" | "exact"
    path: str = "lazy"                   # "lazy" | "naive"
    backend: BackendConfig | None = None
    alpha: float = DEFAULT_ALPHA         # comparator separation 2^-alpha
    target_eps: float = DEFAULT_TARGET_EPS
    check_range: bool = False
    label: str = ""

    def __post_init__(self):
        if self.comparator_mode not in ("composite", "exact"):
            raise ValueError(f"unknown comparator_mode {self.comparator_mode!r}")
        if self.path not in ("lazy", "naive"):
            raise ValueError(f"unknown path {self.path!r}")
        for name in ("alpha", "target_eps"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive (delta = 2^-alpha < 1), got {self.alpha}")
        if not 0 < self.target_eps < 1:
            raise ValueError(f"target_eps must lie in (0, 1), got {self.target_eps}")
        if not isinstance(self.check_range, bool):
            raise ValueError(f"check_range must be true or false, got {self.check_range!r}")
        if not isinstance(self.label, str):
            raise ValueError(f"label must be a string, got {self.label!r}")

    @classmethod
    def from_json(cls, doc, backend: BackendConfig | None = None) -> "PipelineConfig":
        """Build a config from a parsed JSON object. Absent keys take the
        dataclass defaults; a ``backend`` entry is read by
        BackendConfig.from_json, else ``backend`` is used. Unknown keys
        raise ValueError, as in BackendConfig.from_json."""
        if not isinstance(doc, dict):
            raise ValueError(f"a PipelineConfig must be a JSON object, got {type(doc).__name__}")
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown PipelineConfig keys: {sorted(unknown)}")
        kwargs = {"backend": backend, **doc}
        if "backend" in doc:
            kwargs["backend"] = BackendConfig.from_json(doc["backend"])
        return cls(**kwargs)

    def comparator(self):
        if self.comparator_mode == "exact":
            return EXACT_COMPARATOR
        return build_composite_sign(self.alpha, self.target_eps)

    def describe(self) -> str:
        return self.label or f"{self.path}/{self.comparator_mode}"


# ---------------------------------------------------------------------------
# input encoding
# ---------------------------------------------------------------------------


def raster_flatten(tensor) -> np.ndarray:
    """Raster-scan order: index (y * w + x) * c + ch."""
    return np.asarray(tensor, dtype=float).reshape(-1)


def encrypt_input(tensor, model: KanModel, backend: HeBackend) -> CipherText:
    arr = np.asarray(tensor, dtype=float)
    expect = tuple(model.input_shape)
    if arr.shape != expect:
        if arr.ndim == 1 and arr.size == model.n_in:
            pass  # already rastered
        else:
            raise ShapeMismatch(f"input shape {arr.shape}, model expects {expect}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteInput("input holds NaN or infinity")
    model.check_input_range(arr)
    flat = raster_flatten(arr)
    return backend.encrypt(flat)


# ---------------------------------------------------------------------------
# BSGS matrix-vector product
# ---------------------------------------------------------------------------


def bsgs_matvec(W, v: CipherText) -> CipherText:
    """Diagonal-method matrix-vector product with baby/giant rotation steps.

    W is an n_o x n_in cleartext matrix, or a PermutationSpec (square, with
    its diagonals read from ``source_of``). v holds the operand in its first
    n_in slots with zeros elsewhere. The result is valid in slots [0, n_o);
    other slots may hold partial sums. Consumes one level. Runs the wide
    schedule when W is wide enough (see ``matvec_schedule``), else the
    square one with max(n_o, n_in) plaintext multiplies. The baby/giant
    split is derived from the matrix (``MatvecSchedule.split``). The
    schedule's ``rotations`` and ``pt_mults`` give the exact counts.
    """
    return matvec_schedule(W).run_he(v)


# ---------------------------------------------------------------------------
# depth planning
# ---------------------------------------------------------------------------


# The stages of the activation branch; every other stage is the spline
# branch's. The branches run side by side, so a layer costs the larger sum.
_SILU_STAGES = ("silu_poly", "silu_mask", "base_matvec")


@dataclass(frozen=True)
class LayerPlan:
    """Levels each stage of a layer consumes, in pipeline order."""

    stages: dict

    @property
    def silu_branch(self) -> int:
        return sum(self.stages[s] for s in _SILU_STAGES)

    @property
    def spline_branch(self) -> int:
        return sum(self.stages.values()) - self.silu_branch

    @property
    def total(self) -> int:
        return max(self.silu_branch, self.spline_branch)


@dataclass(frozen=True)
class ModelPlan:
    layers: tuple

    @property
    def total(self) -> int:
        return sum(lp.total for lp in self.layers)

    def describe(self) -> str:
        lines = []
        for idx, lp in enumerate(self.layers):
            items = ", ".join(f"{k}={v}" for k, v in lp.stages.items())
            lines.append(f"layer {idx}: {items} | silu branch {lp.silu_branch}, "
                         f"spline branch {lp.spline_branch}, layer {lp.total}")
        lines.append(f"total depth {self.total}")
        return "\n".join(lines)


def plan_layer(layer: KanLayer, cfg: PipelineConfig) -> LayerPlan:
    layer.check_supported()
    stages = {
        "silu_poly": poly_eval_depth(layer.silu_poly),
        "silu_mask": 1,
        "base_matvec": 1,
        "repeat_pack": 1,
        "comparator_scale": 1,
        "comparator": cfg.comparator().depth(),
        "basis_order0": 1,
        "basis_recursion": layer.k,
        "spline_matvec": len(layer.spline_maps(cfg.path)),
    }
    return LayerPlan(stages)


def plan_model(model: KanModel, cfg: PipelineConfig) -> ModelPlan:
    return ModelPlan(tuple(plan_layer(layer, cfg) for layer in model.layers))


def check_depth_budget(model: KanModel, cfg: PipelineConfig, available: int) -> ModelPlan:
    plan = plan_model(model, cfg)
    if plan.total > available:
        raise DepthBudgetInfeasible(
            f"planned depth {plan.total} exceeds available level {available}\n"
            + plan.describe(), plan=plan)
    return plan


def check_capacity(model: KanModel, cfg: PipelineConfig, slot_count: int) -> None:
    """Raise before any homomorphic op unless every layer fits in one
    ciphertext of slot_count slots: the laws repeat_pack (PackingOverflow)
    and each matvec schedule (DimensionMismatch) enforce when they run."""
    for layer in model.layers:
        matvec_schedule(layer.W_b).check_capacity(slot_count)
        check_repeat_pack(slot_count, layer.n_i, layer.g, layer.k)
        for W in layer.spline_maps(cfg.path):
            matvec_schedule(W).check_capacity(slot_count)


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------


def layer_forward_he(layer: KanLayer, ct: CipherText, cfg: PipelineConfig) -> CipherText:
    layer.check_supported()
    be = ct.backend
    comp = cfg.comparator()

    # activation branch: polynomial on the raw input, masked, then W_b
    base = eval_poly_he(ct, layer.silu_poly)
    base = be.mul(base, np.ones(layer.n_i))
    base_out = bsgs_matvec(layer.W_b, base)

    # spline branch: packed basis then the (fused or two-step) linear map
    xp = repeat_pack(ct, layer.g, layer.k, layer.n_i)
    bv = bspline_basis_he(xp, layer.grid, comp, check_range=cfg.check_range)
    spline_out = bv.ct
    for W in layer.spline_maps(cfg.path):
        spline_out = bsgs_matvec(W, spline_out)

    return be.add(base_out, spline_out)


def model_forward_he(model: KanModel, ct: CipherText,
                     cfg: PipelineConfig) -> tuple:
    """Run the whole model; returns (ciphertext, per_layer), where
    per_layer holds each layer's OpCounter delta. The forward uses
    ``ct.level - out.level`` levels, layer by layer the planner's totals.

    Depth feasibility is checked statically against the input level, and
    every layer's slot capacity against the slot count, before any
    homomorphic work happens.
    """
    be = ct.backend
    check_depth_budget(model, cfg, ct.level)
    check_capacity(model, cfg, be.config.slot_count)
    per_layer = []
    out = ct
    for layer in model.layers:
        before = be.counter.copy()
        out = layer_forward_he(layer, out, cfg)
        per_layer.append(be.counter.since(before))
    return out, per_layer


# ---------------------------------------------------------------------------
# benchmarking
# ---------------------------------------------------------------------------

BENCH_CSV_COLUMNS = ("config", "path", "rotations", "ct_mults", "pt_mults",
                     "depth", "wall_ms", "speedup_vs_naive_counts")


def bench_compare(model: KanModel, inputs, cfgs) -> list:
    """Run each config over the inputs; returns one row dict per config.

    Each config runs on its own backend, whose counter sums the counts
    across inputs; depth is per inference, and wall_ms sums the forwards'
    time (encryption excluded). Lazy rows carry the rotation+multiplication
    count ratio of their naive twin (same config apart from the path); naive
    rows carry 1.0.
    """
    inputs = list(inputs)
    if not inputs:
        raise ValueError("bench_compare needs at least one input")
    rows = []
    by_twin = {}
    for cfg in cfgs:
        if cfg.backend is None:
            raise ValueError(f"config {cfg.describe()} has no backend settings")
        backend = make_backend(cfg.backend)
        wall = 0.0
        for x in inputs:
            ct = encrypt_input(np.asarray(x), model, backend)
            t0 = time.perf_counter()
            out, _ = model_forward_he(model, ct, cfg)
            wall += time.perf_counter() - t0
        total = backend.counter  # encryption counts nothing
        row = {
            "config": cfg.describe(), "path": cfg.path,
            "rotations": total.rotations, "ct_mults": total.ct_mults,
            "pt_mults": total.pt_mults, "depth": ct.level - out.level,
            "wall_ms": round(wall * 1e3, 3),
            "speedup_vs_naive_counts": 1.0,
        }
        rows.append(row)
        by_twin.setdefault(replace(cfg, path="lazy"), {})[cfg.path] = (
            row, total.rotations + total.mults)
    for pair in by_twin.values():
        if "lazy" in pair and "naive" in pair:
            (lazy_row, lazy), (_, naive) = pair["lazy"], pair["naive"]
            lazy_row["speedup_vs_naive_counts"] = round(naive / lazy, 4)
    return rows


def write_bench_csv(rows, path) -> None:
    import csv
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=BENCH_CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row[k] for k in BENCH_CSV_COLUMNS})


def bench_lazy_vs_naive(shape_configs, slot_count: int = 2 ** 15,
                        depth_budget: int = 32, n_o: int = 10,
                        comparator_mode: str = "composite",
                        seed: int = 0) -> list:
    """Table-style sweep: one random single-layer model per (n_i, g, k),
    both paths, with paired count ratios."""
    from .model import random_model

    all_rows = []
    bcfg = BackendConfig(slot_count=slot_count, depth_budget=depth_budget)
    rng = np.random.default_rng(seed)
    for n_i, g, k in shape_configs:
        mdl = random_model([n_i, n_o], g=g, k=k, seed=seed)
        x = rng.uniform(-1, 1, n_i)
        label = f"({n_i},{g},{k})"
        cfgs = [
            PipelineConfig(path="lazy", comparator_mode=comparator_mode,
                           backend=bcfg, label=label),
            PipelineConfig(path="naive", comparator_mode=comparator_mode,
                           backend=bcfg, label=label),
        ]
        all_rows.extend(bench_compare(mdl, [x], cfgs))
    return all_rows
