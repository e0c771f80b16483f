"""Encrypted KAN inference pipeline.

Wires the pieces together per layer: the input is packed by one call,
``bspline.repeat_pack`` (layer 0's arrives already replicated by the
client, ``encrypt_input``), and both the activation-polynomial branch and
the B-spline branch (one comparator call over every knot column) read that
one packed operand; baby-step/giant-step matrix-vector products join
them. The spline branch's last map takes its default geometry or a
front-padded one, chosen together with W_b's schedule; when W_b's block
sum costs fewer rotations on that map's geometry, it runs there, and that
map's giant-step rotations and rotate-and-add folds finish both products:
one set of giant rotations and one fold chain per layer. One record per
layer, path and comparator (``LayerLayout``, worked out once by
``_layout`` and kept on the layer) holds the copy
count of that operand, by one rule from the basis's copies, and the
schedules of W_b and the spline maps, so each schedule's diagonals are
built once; the layer program and ``check_capacity`` both read it, and
one check (``_check_fit``) fits it to a slot count: one error,
PackingOverflow, rejects copies that do not fit. The lazy path
applies permutation-fused weights directly to the basis layout; the naive
path first reorders homomorphically via a permutation-matrix product. The
depth planner reads each layer's levels off one run of the layer program
on a probe backend, before anything runs.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, fields, replace
from types import MappingProxyType

import numpy as np

from .approx import (
    DEFAULT_ALPHA,
    DEFAULT_TARGET_EPS,
    EXACT_COMPARATOR,
    CompositeSign,
    _check_target,
    build_composite_sign,
    eval_poly_he,
)
from .backend import BackendConfig, CipherText, HeBackend, _ops_of, _Probe, make_backend
from .bspline import (
    _check_copies,
    _check_layout,
    _stand_in,
    basis_copies,
    bspline_basis_he,
    repeat_pack,
)
from .errors import (
    DepthBudgetInfeasible,
    InvalidArgument,
    NonFiniteInput,
    RemezNonConvergence,
    ShapeMismatch,
)
from .matvec import MatvecSchedule, matvec_schedule
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
        _check_target(self.alpha, self.target_eps)
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


def bsgs_matvec(W, v: CipherText, schedule: MatvecSchedule | None = None, giants=None):
    """Diagonal-method matrix-vector product with baby/giant rotation steps.

    W is an n_o x n_in cleartext matrix, or a PermutationSpec (square, with
    its diagonals read from ``source_of``). v is a ciphertext or an array
    (the mirror). ``schedule`` is W's MatvecSchedule. By default it is
    ``matvec_schedule(W)``, built for this call, whose operand is v's n_in
    values over zeros. A caller that multiplies by W again passes the
    schedule it keeps, so its diagonals are built once; the layer program
    passes its layout's (``LayerLayout``). W then names the product and
    gives n_in. A repeated schedule reads v repeated with period n_in, as
    the layer's packed input is. The slots the block sum reads are stated
    once, in ``MatvecSchedule.block_sum``. The result is valid in slots
    [0, n_o); other slots may hold partial sums. Consumes one level.

    Raised before any op: DimensionMismatch when W is not a non-empty
    matrix (a vector is one row), then ShapeMismatch when v states a
    layout the schedule does not read (``bspline._check_layout``): a width
    other than n_in, more than one copy for a schedule that is not
    repeated, or, for a repeated one, fewer copies of n_in than cover
    its ``reads``; an array shorter than those copies raises it too, and
    one stated vector at least as long (a raw ``encrypt`` of the repeated
    operand) passes as such an array does. Then DimensionMismatch when
    the schedule does not fit one ciphertext. A width-less ciphertext (an
    op's result) states nothing and passes. The schedule's ``rotations`` and ``pt_mults`` give the
    exact counts.

    Shared giant steps and folds: an ``unfolded`` schedule (W's block sum
    on the geometry (p, L, front) of a matrix that folds to its p rows,
    ``matvec_schedule(W, True, over)``: gcd(p, n_in) diagonals of
    lcm(p, n_in) slots) returns its giant-step blocks, unrotated and
    unfolded, as a tuple (baby rotations only), paired with that geometry:
    (blocks, (p, L, front)). Passing the pair as ``giants`` to that
    matrix's product adds each block to the block of the same giant step
    before that step's rotation, and its folds then finish both products
    (slots [0, n_o) hold the sum of the two). That product raises
    DimensionMismatch before any op when its schedule does not fold to its
    p rows (a tall or unfolded one), has another geometry (``geometry``)
    than the blocks were built on, or has fewer giant steps than blocks.
    """
    schedule = matvec_schedule(W) if schedule is None else schedule
    n_in = schedule.period if schedule.W is None else np.shape(W)[-1]  # W's, unpadded
    fewest, most = (-(-schedule.reads // n_in), math.inf) if schedule.repeated else (0, 1)
    # a repeated schedule takes one stated vector (a raw encrypt) that long as it takes an array
    if not schedule.repeated or getattr(v, "copies", 0) != 1 or (v.width or 0) < fewest * n_in:
        _check_layout(v, n_in, fewest, most, "the block sum", "a matrix of n_in")
    return schedule.run(_ops_of(v), v, giants)


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
    return _layer_plan(layer, cfg.path, cfg.comparator())


def _layer_plan(layer: KanLayer, path: str, comparator) -> LayerPlan:
    """The layer's plan, by its key: its packed SiLU polynomial, k, the
    path, the comparator and its grid's spacing class
    (``GridMatrix.equally_spaced``, which picks the basis program)."""
    return _plan(layer.packed_silu_poly, layer.k, path, comparator,
                 layer.grid.equally_spaced)


@functools.lru_cache(maxsize=None)
def _plan(packed_silu_poly, k: int, path: str, comparator, equally_spaced: bool) -> LayerPlan:
    """The plan of every layer with this packed SiLU polynomial, k, path,
    comparator and spacing class: one run of the layer program on a probe.
    Levels do not depend on width, grid size or weights, so it runs a
    one-feature zero-weight stand-in of that spacing class
    (``bspline._stand_in``). Its grid has R = 1/2, so its own packed
    polynomial is this one."""
    grid = _stand_in(k, equally_spaced)
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
    _check_depth(plan, available)
    return plan


def _check_depth(plan: ModelPlan, available: int) -> None:
    if plan.total > available:
        raise DepthBudgetInfeasible(
            f"planned depth {plan.total} exceeds available level {available}\n"
            + plan.describe(), plan=plan)


def check_capacity(model: KanModel, cfg: PipelineConfig, slot_count: int) -> None:
    """Raise before any homomorphic op unless every layer fits in one
    ciphertext of slot_count slots (``_check_fit`` on each layer's
    ``_layout``): PackingOverflow unless the copies of its packed operand
    fit, then DimensionMismatch unless each of its spline maps does."""
    comparator = cfg.comparator()
    for layer in model.layers:
        _check_fit(layer, _layout(layer, cfg.path, comparator), slot_count)


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LayerLayout:
    """A layer's program on one path and comparator, fixed by shapes and
    the plan alone: the copies of its n_i slots that both branches read
    (``copies``: the least power-of-two multiple of the basis's
    ``basis_copies(g, k)`` whose blocks cover the slots W_b's schedule
    reads), W_b's schedule on that repeated operand (``base``, built on
    ``KanLayer.w_base`` in the comparator's unit, so it carries the lead
    of that unit's SiLU program: ``unfolded`` on the last spline map's
    geometry (p, L, front) when one fold chain finishes both products,
    gcd(p, n_i) diagonals of lcm(p, n_i) slots), and the spline maps'
    schedules in order (``maps``; the last one's default or front-padded
    geometry chosen together with ``base``). Each
    record builds its own schedules and shares none with the layer's other
    records; they keep their diagonals, so each is built once per record."""

    copies: int
    base: MatvecSchedule
    maps: tuple


@functools.lru_cache(maxsize=None)
def _check_folded(comparator) -> None:
    """The layer runs a composite comparator folded (``bspline_basis_he``),
    a program ``build_composite_sign`` does not certify: raise
    RemezNonConvergence unless it certifies the comparator's target as
    well, checked once per comparator before its first layer record. The
    two programs' errors agree to 3 digits on every target that builds in
    a sweep of alpha 3..8 and target_eps 2^-6..2^-24."""
    if (isinstance(comparator, CompositeSign)
            and (error := comparator.certified_max_error(True)) > comparator.target_eps):
        raise RemezNonConvergence(f"the comparator's folded program errs by {error}, "
                                  f"past its target {comparator.target_eps}")


def _layout(layer: KanLayer, path: str, comparator) -> LayerLayout:
    """The layer's LayerLayout on this path and comparator, worked out on
    first use and kept on the layer (``KanLayer.layouts``), so the mirror
    and every slot count share it. One rule gives the copies a schedule of
    W_b needs: the least power-of-two multiple of ``basis_copies(g, k)``
    whose blocks of n_i slots cover the schedule's reads. The basis reads
    those copies whatever W_b's shape, and W_b's reads may need more.

    The last spline map's geometry and W_b's schedule are chosen together.
    The map's candidates are its default schedule and the front-padded
    form (``matvec_schedule(W, front=(p, L))``) for every p from n_o up
    to the default's p, each at the least L = p * 2^j >= n_in + p - 1 and
    at 2L. W_b's are its own schedule and, on a candidate that folds (is
    wide) and that W_b fits (lcm(p, n_i) <= L), its block sum on that
    geometry (shared giant steps and folds: gcd(p, n_i) diagonals and
    their baby rotations only). A pair costs the two schedules' rotations
    plus the doublings of the copies W_b's reads need, ties going to fewer
    plaintext multiplies; the default map's cheaper pair is chosen first,
    and another pair replaces it only when strictly cheaper and when the
    layer's slot need (the copies, and the last map's ``slots``; the other
    maps are every pair's) stays within the default pair's power of two,
    so no smallest slot count rises. A shared pair also needs the plan's
    SiLU branch no deeper than its spline branch, so that the shared add
    leaves every stage's level drop as planned. Whether it fits a slot
    count is ``_check_fit``'s.

    The record is built from its own search and reads nothing from the
    layer's other records, so it holds schedules of its own. The search
    builds every candidate's schedules, the last map's and W_b's on its
    geometry, costs each pair by their own ``rotations``, ``pt_mults``,
    ``reads`` and ``slots``, and keeps the winning pair as built; a
    schedule builds no diagonal until it runs, so the search builds none."""
    key = (path, comparator)
    if (layout := layer.layouts.get(key)) is not None:
        return layout
    _check_folded(comparator)
    basis, n_i = basis_copies(layer.g, layer.k), layer.n_i

    def copies(reads):  # basis times ceil(reads / (n_i * basis)) rounded up to 2^d
        return basis << (-(-reads // (n_i * basis)) - 1).bit_length()

    @functools.cache
    def plan_shares():
        plan = _layer_plan(layer, path, comparator)
        return plan.silu_branch <= plan.spline_branch

    w_base = layer.w_base(comparator.unit)
    own = matvec_schedule(w_base, True)
    *firsts, W = layer.spline_maps(path)
    n_o, n_in = W.shape
    default = matvec_schedule(W)

    def pairs(last):
        """Each W_b schedule paired with ``last``, a candidate last map, as
        (cost, need, W_b's schedule, last): the cost is the rotations plus
        the copies' doublings up to a constant, then the pt mults."""
        p, L = last.shape
        bases = [own]
        if L > p and math.lcm(p, n_i) <= L:  # the map folds, and W_b fits
            bases.append(matvec_schedule(w_base, True, last.geometry))
        for base in bases:
            c = copies(base.reads)
            yield ((base.rotations + last.rotations + c.bit_length(),
                    base.pt_mults + last.pt_mults), max(n_i * c, last.slots), base, last)

    def cheapest(candidates, best=None, limit=math.inf):
        # a 1 x 1 W_b, the planner's stand-in, costs no less shared than on
        # its own, so _plan never runs on the stand-in it plans with
        for pair in candidates:
            if (pair[1] <= limit and (best is None or pair[0] < best[0])
                    and (not pair[2].unfolded or plan_shares())):
                best = pair
        return best

    def fronts():  # p from n_o to the default's, at the least L = p 2^j >= n_in + p - 1 and 2L
        for p in range(n_o, default.shape[0] + 1):
            L = p << ((n_in + p - 2) // p).bit_length()
            for front in ((p, L), (p, 2 * L)):
                yield from pairs(matvec_schedule(W, front=front))

    best = cheapest(pairs(default))
    limit = 1 << (best[1] - 1).bit_length()
    *_, base, last = cheapest(fronts(), best, limit)
    layout = layer.layouts[key] = LayerLayout(copies(base.reads), base,
                                              (*map(matvec_schedule, firsts), last))
    return layout


def _check_fit(layer: KanLayer, layout: LayerLayout, slot_count) -> None:
    """Raise before any op unless the layer's layout fits slot_count, in
    this order: PackingOverflow unless the copies fit (the packed layout's
    one fit law, ``bspline._check_copies``), then each spline map
    schedule's DimensionMismatch (``MatvecSchedule.check_capacity``). The
    mirror's slot count is infinite, so it always fits."""
    _check_copies(slot_count, layer.n_i, layout.copies)
    for schedule in layout.maps:
        schedule.check_capacity(slot_count)


def _layer(layer: KanLayer, x, path: str, comparator):
    """The layer program on x, a ciphertext (the encrypted forward) or an
    array (the mirror). x arrives one of three ways, each stating what it
    holds: x.copies blocks of x.width = n_i slots (``encrypt_input``), one
    vector of x.width = n_i slots (a raw ``encrypt``), or a previous
    layer's output (one copy of x.width = its n_o slots); an array's first
    n_i slots hold the input (width None). Before any op the layout's fit
    (``_check_fit``) raises PackingOverflow or DimensionMismatch, then
    another width ShapeMismatch (``repeat_pack``).

    The program: the input packed in one call, ``bspline.repeat_pack``
    (one mask multiply and one doubling chain), into the layout's copies
    (``LayerLayout.copies``: the basis's ``basis_copies(g, k)``, or the
    power-of-two multiple of them that W_b's reads need) in comparator
    units, the grid's 1/(2R) times the comparator's ``unit`` (its first
    stage's scalar, which the mask carries, so the basis's comparator call
    runs ``folded``, with no pt mult), over a zero tail; the copies that
    arrived save their doublings. Both branches read that one operand: the
    activation branch (the packed SiLU polynomial in that unit as
    ``KanLayer.silu_program(unit)`` runs it, then W_b's block sum on the
    repeated operand) and the spline branch (the basis, then the path's
    linear maps, each on a zero-tail operand), every product on the
    layout's schedule of its matrix (``LayerLayout.base`` and ``maps``).
    A certified degree-6 SiLU runs as the monic part u of Knuth's sextic
    form, 3 ct mults and no pt mult, and W_b's schedule is built on
    ``KanLayer.w_base(unit)``, lead * W_b, so the product is W_b times the
    SiLU; any other runs as the power tree, on W_b's own schedule. When
    W_b's block sum runs on the last map's geometry (an ``unfolded``
    ``base``), it hands on its giant-step blocks unrotated, paired with
    that geometry, the last map adds each to its own before that step's
    rotation, and one set of giant rotations and one fold chain finish
    both branches; otherwise W_b folds on its own and the two outputs are
    added. Slots [0, n_o) hold the output; a ciphertext result states its
    width, n_o.

    perfbench's traced join reads these public calls, so a refactor must
    keep them: ``bspline.repeat_pack`` (its one-level drop),
    ``approx.eval_poly_he`` called directly here (the SiLU's drop),
    ``approx.poly_comp``, ``bspline.bspline_basis_he``, and
    ``inference.bsgs_matvec`` with ``layer.W_b`` (whose schedule is
    built on ``w_base``) or a spline map as its first argument."""
    layer.check_supported()
    ops = _ops_of(x)
    layout = _layout(layer, path, comparator)
    _check_fit(layer, layout, ops.slot_count)
    xp = repeat_pack(x, layer.grid, comparator, layout.copies)
    ops._stage("repeat_pack", x, xp)
    poly = eval_poly_he(xp, layer.silu_program(comparator.unit))
    ops._stage("silu_poly", xp, poly)
    shared = layout.base.unfolded
    base_out = bsgs_matvec(layer.W_b, poly, layout.base)
    ops._stage("base_matvec", poly, base_out[0][0] if shared else base_out)

    basis = spline_out = bspline_basis_he(xp, layer.grid, comparator)
    *maps, (last, last_schedule) = zip(layer.spline_maps(path), layout.maps)
    for W, schedule in maps:
        spline_out = bsgs_matvec(W, spline_out, schedule)
    spline_out = bsgs_matvec(last, spline_out, last_schedule, base_out if shared else None)
    ops._stage("spline_matvec", basis, spline_out)
    out = spline_out if shared else ops.add(base_out, spline_out)
    return replace(out, width=layer.n_o) if isinstance(out, CipherText) else out


def layer_forward_he(layer: KanLayer, ct: CipherText, cfg: PipelineConfig) -> CipherText:
    """One layer's encrypted forward (``_layer``). Raises
    DepthBudgetInfeasible before any op when the layer's plan needs more
    levels than ct has, as ``model_forward_he`` does for the model."""
    _check_depth(ModelPlan((plan_layer(layer, cfg),)), ct.level)
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
