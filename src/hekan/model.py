"""Plaintext KAN reference model, desk-scale layer fitting, and model JSON.

The exact forward pass is the ground-truth oracle; the mirrored forward
runs the encrypted pipeline's one layer program (``inference._layer``) on
plain arrays, with the fitted activation polynomial and the comparator, so
it predicts the encrypted pipeline on the arithmetic backend.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .approx import (
    MonicSextic,
    Polynomial,
    WeightScheme,
    drop_roundoff,
    estimate_range,
    fit_weighted_ls,
)
from .bspline import (
    GridMatrix,
    bspline_basis_plain,
    fuse_weights,
    gen_permutation,
)
from .errors import (
    CorruptFile,
    DimensionMismatch,
    HeKanError,
    InputOutOfRange,
    InvalidArgument,
    NonFiniteInput,
    SchemaMismatch,
    SingularSystem,
    UnsupportedLayer,
)

SCHEMA_VERSION = 1


def silu(x):
    """x * sigmoid(x), the sigmoid from e = exp(-|x|), which cannot
    overflow: 1 / (1 + e) for x >= 0, e / (1 + e) below."""
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    out = x * (np.where(x >= 0, 1.0, e) / (1.0 + e))
    return float(out) if out.ndim == 0 else out


def phi(x: float, w_b: float, w_s: float, spline_coeffs, knots, k: int) -> float:
    """Single edge activation: w_b * silu(x) + w_s * sum_m c_m B_{m,k}(x)."""
    basis = bspline_basis_plain(x, knots, k)
    coeffs = np.asarray(spline_coeffs, dtype=float)
    if coeffs.size != basis.size:
        raise DimensionMismatch(f"{coeffs.size} coefficients for {basis.size} basis functions")
    return w_b * silu(x) + w_s * float(coeffs @ basis)


@dataclass(eq=False, frozen=True)
class KanLayer:
    """One KAN layer: base weights, spline coefficient tensor, grid,
    fitted activation polynomial, and the activation input moments.

    The layer is frozen and keeps read-only copies of W_b and S, as
    GridMatrix does with its knots, so the values derived from them on
    first use (``packed_silu_poly``, ``silu_program``, ``w_base``,
    ``w_prime``, ``w_fused``, the matvec schedules and their diagonals)
    cannot go stale: rebinding a field raises FrozenInstanceError, an
    in-place write ValueError. To change a weight, build a new layer
    (``dataclasses.replace``). W_b must be an n_o x n_i
    matrix with n_o >= 1, its grid n_i rows and S of its shape
    (DimensionMismatch otherwise); W_b, S and silu_poly's coefficients must
    be finite (NonFiniteInput)."""

    W_b: np.ndarray          # (n_o, n_i)
    S: np.ndarray            # (n_o, n_i, g + k)
    grid: GridMatrix
    silu_poly: Polynomial
    act_stats: tuple = (0.0, 1.0)

    def __post_init__(self):
        for name in ("W_b", "S"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.W_b.ndim != 2 or self.W_b.shape[0] < 1:
            raise DimensionMismatch(f"W_b must be 2-D with n_o >= 1, got shape {self.W_b.shape}")
        n_o, n_i = self.W_b.shape
        if self.S.shape != (n_o, n_i, self.grid.n_basis):
            raise DimensionMismatch(
                f"S shape {self.S.shape} != {(n_o, n_i, self.grid.n_basis)}")
        if self.grid.n_i != n_i:
            raise DimensionMismatch(f"grid has {self.grid.n_i} rows for n_i = {n_i}")
        if not all(np.all(np.isfinite(w)) for w in (self.W_b, self.S, self.silu_poly.coeffs)):
            raise NonFiniteInput("W_b, S and silu_poly's coefficients must be finite")

    @property
    def n_i(self) -> int:
        return self.W_b.shape[1]

    @property
    def n_o(self) -> int:
        return self.W_b.shape[0]

    @property
    def g(self) -> int:
        return self.grid.g

    @property
    def k(self) -> int:
        return self.grid.k

    def check_supported(self) -> None:
        """Raise UnsupportedLayer unless the encrypted pipeline, and so its
        mirrored forward, can evaluate this layer. With k = 0 no recursion
        order's zero knot factors clear the basis tail: every slot past
        n_i * g keeps the order-0 difference of the comparator's steps,
        which nothing forces to zero, and the matvec's wraparound reads
        it."""
        if self.k < 1:
            raise UnsupportedLayer(
                f"spline degree k = {self.k}: the encrypted pipeline needs k >= 1")

    @cached_property
    def packed_silu_poly(self) -> Polynomial:
        """The SiLU polynomial in the grid's 1/(2R): coefficient j is
        c_j * (2R)^j, so at x / (2R) it takes silu_poly's value at x. The
        layer program evaluates it on the packed input, whose copies then
        feed W_b, in the packing's unit: as ``silu_program`` runs it."""
        two_r = 2.0 * self.grid.R
        return Polynomial(tuple(c * two_r ** j for j, c in enumerate(self.silu_poly.coeffs)))

    def silu_program(self, unit: float):
        """What the layer program runs for the SiLU (``approx.eval_poly_he``)
        on the packed input in units of the grid's 1/(2R) times ``unit``
        (``bspline.repeat_pack``'s with a comparator of that unit, as the
        layer packs it), by one rule: ``packed_silu_poly`` rescaled to that
        unit, coefficient j over unit^j, in Knuth's monic sextic form, an
        ``approx.MonicSextic`` whose lead ``w_base(unit)`` carries (3 ct
        mults, no pt mult, 3 levels), when it has degree 6 and the form
        certifies on the packed input's domain [-|unit|/2, |unit|/2]; else
        the rescaled polynomial itself, run as the power tree. Made once
        per polynomial and unit."""
        return _silu_program(self.packed_silu_poly, unit)

    def w_base(self, unit: float) -> np.ndarray:
        """The matrix W_b's block sum multiplies after ``silu_program(unit)``,
        read-only: lead * W_b when that is a monic sextic of that lead, so
        the lead costs nothing at run time; W_b itself otherwise. The
        layer's record (``inference.LayerLayout``) builds its schedule on
        it once."""
        program = self.silu_program(unit)
        if not isinstance(program, MonicSextic):
            return self.W_b
        scaled = program.lead * self.W_b
        scaled.setflags(write=False)
        return scaled

    @cached_property
    def w_prime(self) -> np.ndarray:
        """Combined spline weights, row-major over (feature, basis) pairs."""
        return self.S.reshape(self.n_o, self.n_i * self.grid.n_basis)

    @cached_property
    def permutation(self):
        """The column-tile permutation of the basis layout, a
        PermutationSpec over a read-only ``source_of``."""
        return gen_permutation(self.n_i, self.grid.n_basis)

    @cached_property
    def w_fused(self) -> np.ndarray:
        """W' folded with the column-tile permutation, read-only: applies
        directly to the encrypted basis layout."""
        fused = fuse_weights(self.w_prime, self.permutation)
        fused.setflags(write=False)
        return fused

    @cached_property
    def output_bound(self) -> float:
        """The largest |output| the layer gives on an input in its grid's
        [-R, R] with its SiLU polynomial and exact basis values (at least
        0, summing to at most 1): the max over rows o of
        sum_i |W_b[o, i]| * max |silu_poly| on [-R, R] + max_m |S[o, i, m]|.
        The polynomial's max is taken at the ends and its critical points."""
        R, c = self.grid.R, self.silu_poly.coeffs
        crit = np.polynomial.polynomial.polyroots(np.polynomial.polynomial.polyder(c))
        x = np.clip(np.r_[-R, R, crit.real], -R, R)
        top = float(np.max(np.abs(self.silu_poly(x))))
        return float(np.max(np.abs(self.W_b).sum(axis=1) * top
                            + np.abs(self.S).max(axis=2).sum(axis=1)))

    @cached_property
    def layouts(self) -> dict:
        """The layer program's ``inference.LayerLayout`` (the copies both
        branches read and the schedules of W_b and the spline maps) per
        (path, comparator), filled on first use by ``inference._layout``;
        the encrypted forward at any slot count and the mirror share it,
        and it lives as long as the layer. Each record holds schedules of
        its own: no two records share one."""
        return {}

    def spline_maps(self, path: str) -> tuple:
        """The linear maps the spline branch applies to the column-tiled
        basis, in order: the fused weights on the lazy path; the
        column-tile permutation, then W', on the naive path. The
        permutation stays a PermutationSpec: ``matvec_schedule`` reads its
        diagonals from ``source_of``, so the dense (n_i(g+k))^2 matrix
        (112.5 MB at n_i(g+k) = 3840) is never built."""
        if path == "lazy":
            return (self.w_fused,)
        if path == "naive":
            return (self.permutation, self.w_prime)
        raise InvalidArgument(f"unknown path {path!r}")


@functools.lru_cache(maxsize=None)
def _silu_program(packed: Polynomial, unit: float):
    """KanLayer.silu_program's rule, once per packed polynomial and unit."""
    p = Polynomial(tuple(c / unit ** j for j, c in enumerate(packed.coeffs)))
    return MonicSextic.certified(p, -abs(unit) / 2, abs(unit) / 2) or p


@dataclass(eq=False)
class KanModel:
    layers: list
    input_shape: tuple  # (h, w, c)

    def __post_init__(self):
        if not self.layers:
            raise DimensionMismatch("model needs at least one layer")
        if len(self.input_shape) != 3:
            raise DimensionMismatch(f"input shape {self.input_shape} is not (h, w, c)")
        h, w, c = self.input_shape
        if h * w * c != self.layers[0].n_i:
            raise DimensionMismatch(
                f"input shape {self.input_shape} gives {h * w * c} features, "
                f"first layer expects {self.layers[0].n_i}")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.n_o != b.n_i:
                raise DimensionMismatch(f"layer widths {a.n_o} -> {b.n_i} do not chain")

    @property
    def n_in(self) -> int:
        return self.layers[0].n_i

    def check_input_range(self, x, layer: int = 0) -> None:
        """The range contract: raise InputOutOfRange if some |x| of x, the
        input of ``layers[layer]``, exceeds that layer's grid bound R. The
        encrypted pipeline and its mirror take only such inputs: beyond R
        the comparator's operand leaves [-1, 1] and the composite stages
        diverge. encrypt_input checks layer 0; the mirrored forward checks
        every layer."""
        R = self.layers[layer].grid.R
        if np.any(np.abs(x) > R):
            raise InputOutOfRange(
                f"layer {layer} input max |x| = {np.max(np.abs(x))} exceeds its grid's "
                f"bound R = {R}")

    @property
    def n_out(self) -> int:
        return self.layers[-1].n_o


@dataclass
class Dataset:
    inputs: np.ndarray   # (n_samples, n_features)
    targets: np.ndarray  # (n_samples, n_targets)

    def __post_init__(self):
        self.inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        self.targets = np.atleast_2d(np.asarray(self.targets, dtype=float))
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise DimensionMismatch("inputs and targets have different lengths")


def _read_csv(path) -> np.ndarray:
    """The package's one CSV reader: the rows of a file of comma-separated
    numbers as a 2-D float array. A field that is not a number raises
    CorruptFile, and so does a file with no rows (only blank or ``#``
    comment lines), before numpy sees it: numpy would warn and return an
    empty array whose shape the caller then rejects with a misleading
    message."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
        if not any(line.partition("#")[0].strip() for line in lines):
            raise CorruptFile(f"{path}: holds no rows")
        return np.loadtxt(lines, delimiter=",", dtype=float, ndmin=2)
    except ValueError as exc:  # a field that is not a number, or bytes that are not text
        raise CorruptFile(f"{path}: {exc}") from exc


def load_dataset_csv(path, n_targets: int = 1) -> Dataset:
    """CSV rows are samples; the trailing n_targets columns are targets. A
    field that is not a number, or a file with no rows, raises CorruptFile
    (``_read_csv``), a NaN or infinite one NonFiniteInput."""
    if n_targets < 1:
        raise InvalidArgument(f"need at least one target column, got {n_targets}")
    data = _read_csv(path)
    if not np.all(np.isfinite(data)):
        raise NonFiniteInput(f"{path}: holds NaN or infinity")
    if data.shape[1] <= n_targets:
        raise DimensionMismatch(f"{data.shape[1]} columns cannot hold {n_targets} targets")
    return Dataset(data[:, :-n_targets], data[:, -n_targets:])


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------


def _basis_matrix_exact(grid: GridMatrix, x: np.ndarray) -> np.ndarray:
    """x.shape + (g + k,) exact basis values for x of shape (..., n_i):
    feature i is B_{m,k}(x[..., i]) on row i's knots, one call per feature."""
    return np.stack([bspline_basis_plain(x[..., i], grid.entries[i], grid.k)
                     for i in range(grid.n_i)], axis=-2)


def layer_forward_plain(layer: KanLayer, x, mode: str = "exact",
                        comparator=None, path: str = "lazy") -> np.ndarray:
    """Evaluate one layer.

    exact: true silu and exact Cox-de Boor basis values, plain matvecs.
    mirrored: the encrypted pipeline's layer program (``inference._layer``:
    the fitted activation polynomial, the comparator, the packing, basis
    and matvec schedules) run on arrays (``backend._ArrayOps``), with the
    same comparator and path as the pipeline, so it predicts the encrypted
    result exactly on the arithmetic backend. Like the pipeline, it raises
    UnsupportedLayer for k = 0.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.size != layer.n_i:
        raise DimensionMismatch(f"input length {x.size} != n_i {layer.n_i}")
    if mode == "exact":
        base = silu(x)
        bvals = _basis_matrix_exact(layer.grid, x)
        return layer.W_b @ base + layer.w_prime @ bvals.ravel()
    if mode != "mirrored":
        raise InvalidArgument(f"unknown mode {mode!r}")
    if comparator is None:
        raise InvalidArgument("mirrored mode needs the pipeline's comparator")
    from .inference import _layer  # inference imports this module
    return _layer(layer, x, path, comparator)[: layer.n_o]


def model_forward_plain(model: KanModel, x, mode: str = "exact",
                        comparator=None, path: str = "lazy") -> np.ndarray:
    """Run every layer in `mode` (see ``layer_forward_plain``). The
    mirrored mode rejects any layer's input beyond that layer's R
    (``KanModel.check_input_range``), a hidden layer's too; the exact mode
    evaluates it, since the KAN is defined there."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size == 0:
        raise DimensionMismatch("empty input")
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput("input holds NaN or infinity")
    out = x
    for idx, layer in enumerate(model.layers):
        if mode == "mirrored":
            model.check_input_range(out, idx)
        out = layer_forward_plain(layer, out, mode=mode, comparator=comparator,
                                  path=path)
    return out


# ---------------------------------------------------------------------------
# desk-scale fitting
# ---------------------------------------------------------------------------


def fit_layer_ls(dataset: Dataset, n_o: int, grid: GridMatrix,
                 w_b_mode: str = "fitted", ridge: float = 1e-8,
                 silu_degree: int = 10):
    """Fit one layer by ridge-regularized linear least squares.

    The edge activations are linear in the spline coefficients and (when
    w_b_mode is "fitted") in the base weights, so a single solve over the
    stacked basis/silu features recovers both. Returns (layer, train_rmse).
    """
    X, Y = dataset.inputs, dataset.targets
    n_samples, n_i = X.shape
    if grid.n_i != n_i:
        raise DimensionMismatch(f"grid rows {grid.n_i} != data features {n_i}")
    if Y.shape[1] != n_o:
        raise DimensionMismatch(f"targets have {Y.shape[1]} columns, n_o = {n_o}")
    if w_b_mode not in ("fitted", "fixed"):
        raise InvalidArgument(f"unknown w_b_mode {w_b_mode!r}")
    if not 0.0 <= ridge < np.inf:  # NaN included
        raise InvalidArgument(f"ridge must be finite and >= 0, got {ridge}")
    nb = grid.n_basis

    basis_feats = _basis_matrix_exact(grid, X).reshape(n_samples, n_i * nb)
    silu_feats = silu(X)

    if w_b_mode == "fitted":
        feats = np.hstack([basis_feats, silu_feats])
        target = Y
    else:
        feats = basis_feats
        target = Y  # W_b stays zero; splines carry everything

    n_feat = feats.shape[1]
    if ridge > 0:
        a = np.vstack([feats, np.sqrt(ridge) * np.eye(n_feat)])
        b = np.vstack([target, np.zeros((n_feat, target.shape[1]))])
    else:
        a, b = feats, target
    theta, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < n_feat:
        raise SingularSystem(
            f"feature rank {rank} < {n_feat}: grid too fine for the data")

    S = theta[:n_i * nb].T.reshape(n_o, n_i, nb)
    if w_b_mode == "fitted":
        W_b = theta[n_i * nb:].T
    else:
        W_b = np.zeros((n_o, n_i))

    resid = feats @ theta - target
    rmse = float(np.sqrt(np.mean(resid ** 2)))

    act = estimate_range(X.ravel())
    weights = WeightScheme.from_moments(act.mu, act.sigma)
    silu_poly = drop_roundoff(fit_weighted_ls(silu, act, silu_degree, w=weights), act)
    layer = KanLayer(W_b=W_b, S=S, grid=grid, silu_poly=silu_poly,
                     act_stats=(act.mu, act.sigma))
    return layer, rmse


def random_model(dims, g: int, k: int, seed: int = 0, lo: float = -1.0,
                 hi: float = 1.0, silu_degree: int = 7) -> KanModel:
    """Deterministic random model for tests and benchmarks.

    Weights are scaled so layer outputs stay roughly inside the grid span.
    """
    rng = np.random.default_rng(seed)
    act = estimate_range(np.linspace(lo, hi, 64))
    silu_poly = drop_roundoff(fit_weighted_ls(silu, act, silu_degree), act)
    layers = []
    for n_i, n_o in zip(dims, dims[1:]):
        grid = GridMatrix.uniform(n_i, g, k, lo, hi)
        scale = 1.0 / np.sqrt(n_i * (grid.n_basis + 1))
        W_b = rng.uniform(-1, 1, (n_o, n_i)) * scale
        S = rng.uniform(-1, 1, (n_o, n_i, grid.n_basis)) * scale
        layers.append(KanLayer(W_b=W_b, S=S, grid=grid, silu_poly=silu_poly,
                               act_stats=(act.mu, act.sigma)))
    return KanModel(layers=layers, input_shape=(1, 1, dims[0]))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _grid_to_json(grid: GridMatrix) -> dict:
    # uniform iff rebuilding from the span endpoints reproduces it bit-exactly
    lo = float(grid.entries[0][grid.k])
    hi = float(grid.entries[0][grid.k + grid.g])
    rebuilt = GridMatrix.uniform(grid.n_i, grid.g, grid.k, lo, hi, R=grid.R)
    if np.array_equal(rebuilt.entries, grid.entries):
        return {"uniform_grid": {"lo": lo, "hi": hi, "g": grid.g, "k": grid.k}}
    return {"grid": grid.entries.tolist()}


def _layer_to_json(layer: KanLayer) -> dict:
    doc = {
        "n_i": layer.n_i,
        "n_o": layer.n_o,
        "g": layer.g,
        "k": layer.k,
        "R": layer.grid.R,
        "W_b": layer.W_b.tolist(),
        "S": layer.S.tolist(),
        "silu_poly": layer.silu_poly.to_json(),
        "act_stats": {"mu": layer.act_stats[0], "sigma": layer.act_stats[1]},
    }
    doc.update(_grid_to_json(layer.grid))
    return doc


def save_model(model: KanModel, path) -> None:
    doc = {
        "version": SCHEMA_VERSION,
        "input_shape": list(model.input_shape),
        "layers": [_layer_to_json(layer) for layer in model.layers],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise SchemaMismatch(f"missing {key!r} in {where}")
    return doc[key]


def _layer_from_json(doc: dict, idx: int) -> KanLayer:
    where = f"layer {idx}"
    n_i = _require(doc, "n_i", where)
    n_o = _require(doc, "n_o", where)
    g = _require(doc, "g", where)
    k = _require(doc, "k", where)
    R = _require(doc, "R", where)
    W_b = np.asarray(_require(doc, "W_b", where), dtype=float)
    if W_b.shape != (n_o, n_i):
        raise SchemaMismatch(f"{where}: W_b shape {W_b.shape} != declared (n_o, n_i) = "
                             f"{(n_o, n_i)}")

    if "grid" in doc:
        grid = GridMatrix(np.asarray(doc["grid"], dtype=float), g, k, R)
    elif "uniform_grid" in doc:
        u = doc["uniform_grid"]
        if u.get("g", g) != g or u.get("k", k) != k:
            raise SchemaMismatch(f"{where}: uniform_grid (g, k) disagrees with the layer")
        grid = GridMatrix.uniform(n_i, g, k, _require(u, "lo", where),
                                  _require(u, "hi", where), R=R)
    else:
        raise SchemaMismatch(f"{where}: needs 'grid' or 'uniform_grid'")

    if "S" in doc:
        S = np.asarray(doc["S"], dtype=float)
    elif "W_s" in doc and "C" in doc:
        W_s = np.asarray(doc["W_s"], dtype=float)
        C = np.asarray(doc["C"], dtype=float)
        if W_s.shape != (n_o, n_i) or C.shape != (n_i, g + k):
            raise SchemaMismatch(f"{where}: factored shapes {W_s.shape}, {C.shape} invalid")
        S = W_s[:, :, None] * C[None, :, :]
    else:
        raise SchemaMismatch(f"{where}: needs 'S' or factored 'W_s' + 'C'")

    stats = _require(doc, "act_stats", where)
    return KanLayer(
        W_b=W_b,
        S=S,
        grid=grid,
        silu_poly=Polynomial.from_json(_require(doc, "silu_poly", where)),
        act_stats=(float(stats["mu"]), float(stats["sigma"])),
    )


def load_model(path) -> KanModel:
    """Read a model file. Unparseable text raises CorruptFile; a document
    that parses but does not build a valid model raises SchemaMismatch."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not text
        raise CorruptFile(f"{path}: {exc}") from exc
    try:
        return _model_from_json(doc)
    except SchemaMismatch:
        raise
    except (HeKanError, ValueError, TypeError, KeyError, IndexError, AttributeError) as exc:
        raise SchemaMismatch(f"{path}: {type(exc).__name__}: {exc}") from exc


def _model_from_json(doc) -> KanModel:
    if not isinstance(doc, dict):
        raise SchemaMismatch("model document must be a JSON object")
    if doc.get("version") != SCHEMA_VERSION:
        raise SchemaMismatch(f"unsupported schema version {doc.get('version')!r}")
    layers = [_layer_from_json(ld, i) for i, ld in enumerate(_require(doc, "layers", "model"))]
    shape = tuple(_require(doc, "input_shape", "model"))
    return KanModel(layers=layers, input_shape=shape)
