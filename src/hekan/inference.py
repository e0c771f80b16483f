"""Encrypted KAN inference pipeline.

Wires the pieces together per layer: the input is packed by one call,
``bspline.repeat_pack`` (layer 0's arrives already replicated by the
client, ``encrypt_input``), and both the activation-polynomial branch and
the B-spline branch (one comparator call over every knot column) read that
one packed operand; baby-step/giant-step matrix-vector products join them. When W_b's block
sum costs fewer rotations on the geometry of the spline branch's last map,
it runs there, and that map's giant-step rotations and rotate-and-add folds
finish both products: one set of giant rotations and one fold chain per
layer. One record per layer, path, comparator and slot
count (``LayerLayout``, worked out once by ``_layout`` and kept on the
layer) holds the copy count of that operand, by one rule from the
basis's copies, and W_b's geometry; the layer program and
``check_capacity`` both read it, and one error, PackingOverflow, rejects
copies that do not fit. The lazy path
applies permutation-fused weights directly to the basis layout; the naive
path first reorders homomorphically via a permutation-matrix product. The
depth planner reads each layer's levels off one run of the layer program
on a probe backend, before anything runs.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
from dataclasses import dataclass, fields, replace
from types import MappingProxyType

import numpy as np

from .approx import (
    DEFAULT_ALPHA,
    DEFAULT_TARGET_EPS,
    EXACT_COMPARATOR,
    build_composite_sign,
    eval_poly_he,
)
from .backend import BackendConfig, CipherText, HeBackend, _ops_of, _Probe, make_backend
from .bspline import GridMatrix, _check_copies, basis_copies, bspline_basis_he, repeat_pack
from .errors import (
    DepthBudgetInfeasible,
    InvalidArgument,
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
    label: str = ""

    def __post_init__(self):
        if self.comparator_mode not in ("composite", "exact"):
            raise InvalidArgument(f"unknown comparator_mode {self.comparator_mode!r}")
        if self.path not in ("lazy", "naive"):
            raise InvalidArgument(f"unknown path {self.path!r}")
        for name in ("alpha", "target_eps"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise InvalidArgument(f"{name} must be a finite real number, got {value!r}")
        if self.alpha <= 0:
            raise InvalidArgument(f"alpha must be positive (2^-alpha < 1), got {self.alpha}")
        if not 0 < self.target_eps < 1:
            raise InvalidArgument(f"target_eps must lie in (0, 1), got {self.target_eps}")
        if not isinstance(self.label, str):
            raise InvalidArgument(f"label must be a string, got {self.label!r}")

    @classmethod
    def from_json(cls, doc, backend: BackendConfig | None = None) -> "PipelineConfig":
        """Build a config from a parsed JSON object. Absent keys take the
        dataclass defaults; a ``backend`` entry is read by
        BackendConfig.from_json, else ``backend`` is used. Unknown keys
        raise InvalidArgument, as in BackendConfig.from_json."""
        if not isinstance(doc, dict):
            raise InvalidArgument(f"a PipelineConfig is a JSON object, got {type(doc).__name__}")
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise InvalidArgument(f"unknown PipelineConfig keys: {sorted(unknown)}")
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


def encrypt_input(tensor, model: KanModel, backend: HeBackend) -> CipherText:
    """Encrypt an input for ``model_forward_he``, already replicated as
    layer 0's packing would replicate it: the client knows x, so the copies
    cost it nothing, and layer 0 packs with no rotation.

    The input, raster-ordered (slot (y * w + x) * c + ch of a copy holds
    tensor[y, x, ch]; a vector of n_in values passes as is), fills C
    back-to-back copies: slot c * n_in + j holds input j for every copy
    c < C, and every slot past C * n_in is zero. C is
    ``basis_copies(g, k)`` of layer 0's grid, the copies its basis reads.
    The ciphertext carries C as ``copies`` and n_in as ``width``. Raises
    ShapeMismatch for a shape the model does not take, NonFiniteInput for
    NaN or infinity, InputOutOfRange past layer 0's R and, before any noise
    is drawn, PackingOverflow unless the C copies fit the slot count (the
    packed layout's fit law, ``bspline._check_copies``).
    """
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
    first = model.layers[0]
    copies = basis_copies(first.g, first.k)
    _check_copies(backend.config.slot_count, arr.size, copies)
    ct = backend.encrypt(np.tile(arr.reshape(-1), copies))  # raster order, C times
    return replace(ct, copies=copies, width=arr.size)


# ---------------------------------------------------------------------------
# BSGS matrix-vector product
# ---------------------------------------------------------------------------


def bsgs_matvec(W, v: CipherText, repeated: bool = False, over: tuple | None = None,
                giants=None):
    """Diagonal-method matrix-vector product with baby/giant rotation steps.

    W is an n_o x n_in cleartext matrix, or a PermutationSpec (square, with
    its diagonals read from ``source_of``). v is a ciphertext or an array
    (the mirror). By default v holds the operand in its first n_in slots
    with zeros elsewhere, and the schedule duplicates it for the diagonals
    that wrap. With ``repeated``, v holds the operand repeated with period
    n_in over every slot the schedule reads (``MatvecSchedule.reads``), as
    the layer's packed input does: no duplication, and a tall W takes n_in
    diagonals over n_o slots. The result is valid in slots [0, n_o); other
    slots may hold partial sums. Consumes one level; DimensionMismatch is
    raised before any op when W is not a non-empty matrix (a vector is
    one row) or the schedule does not fit one ciphertext.
    The schedule follows the shape (see ``matvec_schedule``); its
    baby/giant split is derived from the matrix (``MatvecSchedule.split``).
    The schedule's ``rotations`` and ``pt_mults`` give the exact counts. A
    matrix that cannot change (a layer's) reuses its schedule and
    diagonals from call to call (``matvec_schedule``).

    Shared giant steps and folds: with ``over``, the ``shape`` (p, L) of
    another matrix's schedule, the repeated product runs on that geometry
    and returns its giant-step blocks, unrotated and unfolded, as a tuple
    (baby rotations only). Passing them as ``giants`` to that matrix's
    product adds each to the block of the same giant step before that
    step's rotation, and its folds then finish both products (slots
    [0, n_o) hold the sum of the two).
    """
    return matvec_schedule(W, repeated, over).run(_ops_of(v), v, giants)


# ---------------------------------------------------------------------------
# depth planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LayerPlan:
    """Levels each stage of a layer consumes, in pipeline order (read-only);
    those of its two branches, which run side by side; and its total."""

    stages: MappingProxyType
    silu_branch: int
    spline_branch: int
    total: int


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
    return _plan(layer.packed_silu_poly, layer.k, cfg.path, cfg.comparator())


@functools.lru_cache(maxsize=None)
def _plan(packed_silu_poly, k: int, path: str, comparator) -> LayerPlan:
    """The plan of every layer with this packed SiLU polynomial, k, path and
    comparator: one run of the layer program on a probe. Levels do not depend
    on width, grid size or weights, so it runs a one-feature zero-weight
    stand-in. Its grid has R = 1/2, so its own packed polynomial is this one."""
    grid = GridMatrix(np.linspace(-0.5, 0.5, 2 * k + 2)[None], 1, k, 0.5)
    stand_in = KanLayer(W_b=np.zeros((1, 1)), S=np.zeros((1, 1, grid.n_basis)),
                        grid=grid, silu_poly=packed_silu_poly)
    probe = _Probe()
    ct = probe.encrypt(0.0)
    out = _layer(stand_in, ct, path, comparator)
    return LayerPlan(MappingProxyType(probe.drops),
                     ct.level - probe.levels["base_matvec"],
                     ct.level - probe.levels["spline_matvec"], ct.level - out.level)


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
    ciphertext of slot_count slots: each layer's layout (``_layout``),
    PackingOverflow unless the copies of its packed operand fit, then
    DimensionMismatch unless each of its spline maps does."""
    comparator = cfg.comparator()
    for layer in model.layers:
        _layout(layer, cfg.path, comparator, slot_count)


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LayerLayout:
    """The packed layout of a layer's input: the copies of its n_i slots
    that both branches read (``copies``: the least power-of-two multiple
    of the basis's ``basis_copies(g, k)`` whose blocks cover the slots
    W_b's schedule reads), with the geometry W_b's block sum runs on
    (``over``: the last spline map's shape when one fold chain finishes
    both products, else None)."""

    copies: int
    over: tuple | None


def _layout(layer: KanLayer, path: str, comparator, slot_count) -> LayerLayout:
    """The layer's LayerLayout on this path, comparator and slot count,
    worked out on first use and kept on the layer (``KanLayer.layouts``):
    W_b's geometry, and the copies both branches read. One rule gives the
    copies a schedule of W_b needs: the least power-of-two multiple of
    ``basis_copies(g, k)`` whose blocks of n_i slots cover the schedule's
    reads. The basis reads those copies whatever W_b's shape, and W_b's
    reads may need more.

    W_b's block sum runs on the last spline map's geometry (``bsgs_matvec``'s
    ``over`` and ``giants``: shared giant steps and folds, so W_b pays its
    b - 1 baby rotations only) when that map folds (it is wide), when the
    shared form costs fewer rotations than W_b's own schedule, ties going to fewer
    plaintext multiplies (each with the doublings of the copies its reads
    need), and when the plan's SiLU branch is no deeper than its spline
    branch, so that the shared add leaves every stage's level drop as
    planned. Shapes and the plan decide, so the mirror decides the same.

    Raises before any op unless the layer fits slot_count, in this order:
    PackingOverflow unless the copies fit (the packed layout's one fit
    law, ``bspline._check_copies``), then each spline map schedule's
    DimensionMismatch (``MatvecSchedule.check_capacity``)."""
    key = (path, comparator, slot_count)
    if (layout := layer.layouts.get(key)) is not None:
        return layout
    basis = basis_copies(layer.g, layer.k)

    def copies(schedule):  # basis times ceil(reads / (n_i * basis)) rounded up to 2^d
        return basis << (-(-schedule.reads // (layer.n_i * basis)) - 1).bit_length()

    def cost(schedule):  # rotations, the doublings up to a constant
        return schedule.rotations + copies(schedule).bit_length(), schedule.pt_mults

    last, over = matvec_schedule(layer.spline_maps(path)[-1]), None
    # a 1 x 1 W_b, the planner's stand-in, costs (0, 1) on its own and is
    # never beaten, so _plan never runs on the stand-in it plans with
    if last.folds and (cost(matvec_schedule(layer.W_b, True, last.shape))
                       < cost(matvec_schedule(layer.W_b, True))):
        plan = _plan(layer.packed_silu_poly, layer.k, path, comparator)
        over = last.shape if plan.silu_branch <= plan.spline_branch else None
    layout = LayerLayout(copies(matvec_schedule(layer.W_b, True, over)), over)
    _check_copies(slot_count, layer.n_i, layout.copies)
    for W in layer.spline_maps(path):
        matvec_schedule(W).check_capacity(slot_count)
    layer.layouts[key] = layout
    return layout


def _layer(layer: KanLayer, x, path: str, comparator):
    """The layer program on x, a ciphertext (the encrypted forward) or an
    array (the mirror). x arrives one of three ways, each stating what it
    holds: x.copies blocks of x.width = n_i slots (``encrypt_input``), one
    vector of x.width = n_i slots (a raw ``encrypt``), or a previous
    layer's output (one copy of x.width = its n_o slots); an array's first
    n_i slots hold the input (width None). Another width raises
    ShapeMismatch before any op (``repeat_pack``).

    The program: the input packed in one call, ``bspline.repeat_pack``
    (one mask multiply and one doubling chain), into the layout's copies
    (``LayerLayout.copies``: the basis's ``basis_copies(g, k)``, or the
    power-of-two multiple of them that W_b's reads need) in comparator
    units, the grid's 1/(2R), over a zero tail; the copies that arrived
    save their doublings. Both branches read that one operand: the
    activation branch (the packed SiLU polynomial, then W_b's block sum on
    the repeated operand) and the spline branch (the basis, then the
    path's linear maps, each on a zero-tail operand). When W_b's block sum
    runs on the last map's geometry (``LayerLayout.over``), it hands on
    its giant-step blocks unrotated, the last map adds each to its own
    before that step's rotation, and one set of giant rotations and one
    fold chain finish both branches; otherwise W_b folds on its own and
    the two outputs are added. Slots [0, n_o) hold the output; a
    ciphertext result states its width, n_o.

    perfbench's traced join reads these public calls, so a refactor must
    keep them: ``bspline.repeat_pack`` (its one-level drop),
    ``approx.eval_poly_he`` called directly here, ``approx.poly_comp``,
    ``bspline.bspline_basis_he``, and ``inference.bsgs_matvec`` with
    ``layer.W_b`` or a spline map as its first argument."""
    layer.check_supported()
    ops = _ops_of(x)
    layout = _layout(layer, path, comparator, ops.slot_count)
    xp = repeat_pack(x, layer.grid, layout.copies)
    ops._stage("repeat_pack", x, xp)
    poly = eval_poly_he(xp, layer.packed_silu_poly)
    ops._stage("silu_poly", xp, poly)
    shared = layout.over is not None
    base_out = bsgs_matvec(layer.W_b, poly, repeated=True, over=layout.over)
    ops._stage("base_matvec", poly, base_out[0] if shared else base_out)

    basis = spline_out = bspline_basis_he(xp, layer.grid, comparator)
    *maps, last = layer.spline_maps(path)
    for W in maps:
        spline_out = bsgs_matvec(W, spline_out)
    spline_out = bsgs_matvec(last, spline_out, giants=base_out if shared else None)
    ops._stage("spline_matvec", basis, spline_out)
    out = spline_out if shared else ops.add(base_out, spline_out)
    return replace(out, width=layer.n_o) if isinstance(out, CipherText) else out


def layer_forward_he(layer: KanLayer, ct: CipherText, cfg: PipelineConfig) -> CipherText:
    return _layer(layer, ct, cfg.path, cfg.comparator())


def model_forward_he(model: KanModel, ct: CipherText,
                     cfg: PipelineConfig) -> tuple:
    """Run the whole model; returns (ciphertext, per_layer), where
    per_layer holds each layer's OpCounter delta. The forward uses
    ``ct.level - out.level`` levels, layer by layer the planner's totals.

    ct arrives either way: as ``encrypt_input`` returns it, layer 0's input
    replicated ``ct.copies`` times, so layer 0 packs with log2(copies)
    rotations and adds fewer; or as one copy (a raw ``encrypt`` of the
    rastered input's n_in values), which layer 0 packs on the server. Both
    give the same decrypted slots, levels and multiplies on the exact
    backend; a ciphertext that states another width raises ShapeMismatch
    before any op.

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
    time (encryption excluded). Every config first runs one untimed forward
    on a backend of its own, so wall_ms times the steady state: the
    model's constant plaintexts (matvec diagonals, knot tiles, permutation)
    are built once, by whichever row runs first, and later rows would
    otherwise look faster. The warm-up touches neither the row's counter
    nor its noise draws. Lazy rows carry the rotation+multiplication
    count ratio of their naive twin (same config apart from the path); naive
    rows carry 1.0. The count ratio carries the lazy-versus-naive comparison:
    a naive row's wall_ms times the simulator, whose exact backend runs the
    permutation matvec as one gather, not the permutation's cost under a
    real scheme.
    """
    inputs = list(inputs)
    if not inputs:
        raise InvalidArgument("bench_compare needs at least one input")
    rows = []
    by_twin = {}
    for cfg in cfgs:
        if cfg.backend is None:
            raise InvalidArgument(f"config {cfg.describe()} has no backend settings")
        warm = make_backend(cfg.backend)
        model_forward_he(model, encrypt_input(np.asarray(inputs[0]), model, warm), cfg)
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
