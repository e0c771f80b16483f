"""Command-line front end: activation fitting, layer fitting, inference,
and lazy-vs-naive benchmarking.

Exit codes follow the error's category in ``hekan.errors``: 0 success,
2 ``UsageError`` (an argument outside its domain, a malformed model or
input file, an input the model rejects, a model the backend cannot fit or
run) or a file that cannot be opened, read or written (``OSError``),
3 ``NumericalFailure`` (a fitter that fails, a decrypted output that is
NaN, infinite or past the model's output bound) or any other
``HeKanError``, 4 ``DepthBudgetInfeasible``. All subcommands are
deterministic for a fixed --seed (HEKAN_SEED is the fallback).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from .approx import (
    ACTIVATION_PRESETS,
    ApproxRange,
    Polynomial,
    WeightScheme,
    drop_roundoff,
    estimate_range,
    fit_ols,
    fit_remez,
    fit_weighted_ls,
    range_from_moments,
)
from .backend import BackendConfig, make_backend
from .errors import (
    CorruptFile,
    DepthBudgetInfeasible,
    HeKanError,
    InvalidArgument,
    NonFiniteOutput,
    NumericalFailure,
    SchemaMismatch,
    ShapeMismatch,
    UsageError,
)
from .bspline import GridMatrix
from .inference import (
    PipelineConfig,
    bench_compare,
    check_depth_budget,
    encrypt_input,
    model_forward_he,
    plan_model,
    write_bench_csv,
)
from .model import (
    _read_csv,
    fit_layer_ls,
    load_dataset_csv,
    load_model,
    model_forward_plain,
    save_model,
    silu,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_BUDGET = 4

DEFAULT_BACKEND = {"slot_count": 2 ** 15, "noise_std": 0.0, "rng_seed": 0}


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return int(os.environ.get("HEKAN_SEED", "0"))


def _load_backend(args, model=None, cfgs=()) -> BackendConfig:
    """--backend (inline JSON or a path), else the defaults with rng_seed
    from --seed and depth_budget the largest planned depth of model over
    cfgs (0 with no cfgs: the plain modes encrypt nothing), so every
    config the run uses fits. Text that does not parse raises CorruptFile;
    a document that parses but is not a valid config, or a negative seed,
    raises SchemaMismatch."""
    doc = args.backend
    if not doc:
        depth = max((plan_model(model, cfg).total for cfg in cfgs), default=0)
        doc = dict(DEFAULT_BACKEND, depth_budget=depth, rng_seed=_seed(args))
    try:
        return BackendConfig.from_json(doc)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptFile(f"--backend: {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise SchemaMismatch(f"{'--backend' if args.backend else '--seed'}: {exc}") from exc


def _load_inputs(path, n_expected: int) -> np.ndarray:
    rows = _read_csv(path)
    if rows.shape[1] != n_expected:
        raise ShapeMismatch(f"input rows have {rows.shape[1]} values, model takes {n_expected}")
    return rows


def _write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh)


# ---------------------------------------------------------------------------
# fit-activation
# ---------------------------------------------------------------------------


def _fit_report_row(poly: Polynomial, rng: ApproxRange, w: WeightScheme) -> dict:
    x = np.linspace(rng.lo, rng.hi, 4001)
    err = silu(x) - poly(x)
    weights = w.weights(x)
    return {
        "degree": poly.degree,
        "range": f"[{rng.lo:.6g}, {rng.hi:.6g}]",
        "rmse_uniform": float(np.sqrt(np.mean(err ** 2))),
        "rmse_weighted": float(np.sqrt(np.sum(weights * err ** 2) / np.sum(weights))),
        "max_error": float(np.max(np.abs(err))),
    }


def cmd_fit_activation(args) -> int:
    has_samples = args.samples is not None
    has_moments = args.mu is not None and args.sigma is not None
    has_preset = args.preset is not None
    if has_samples + has_moments + has_preset != 1:
        raise InvalidArgument("fit-activation: provide exactly one of --samples, "
                              "--mu/--sigma, or --preset")
    if has_preset:
        lo, hi = ACTIVATION_PRESETS[args.preset]["range"]
        rng = ApproxRange(lo, hi, (lo + hi) / 2, (hi - lo) / 10)
    elif has_samples:
        samples = _read_csv(args.samples).ravel()
        rng = estimate_range(samples, args.x_min, args.x_max, factor=args.factor)
    else:
        rng = range_from_moments(args.mu, args.sigma, args.x_min, args.x_max,
                                 factor=args.factor)
    w = WeightScheme.from_moments(rng.mu, rng.sigma)
    if args.method == "wls":
        poly = fit_weighted_ls(silu, rng, args.degree, w=w)
    elif args.method == "ols":
        poly = fit_ols(silu, rng, args.degree)
    else:
        poly = fit_remez(silu, rng, args.degree)
    poly = drop_roundoff(poly, rng)

    report = _fit_report_row(poly, rng, w)
    print(f"range [{rng.lo:.6g}, {rng.hi:.6g}]  degree {poly.degree}  method {args.method}")
    print(f"rmse_uniform {report['rmse_uniform']:.6g}  "
          f"rmse_weighted {report['rmse_weighted']:.6g}  "
          f"max_error {report['max_error']:.6g}")
    if args.out:
        _write_json(args.out, poly.to_json())
        report_path = args.report or (os.path.splitext(args.out)[0] + "_report.csv")
        with open(report_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(report))
            writer.writeheader()
            writer.writerow(report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit-layer
# ---------------------------------------------------------------------------


def cmd_fit_layer(args) -> int:
    ds = load_dataset_csv(args.data, n_targets=args.targets)
    n_i = ds.inputs.shape[1]
    lo = args.grid_lo if args.grid_lo is not None else float(ds.inputs.min()) - 1e-6
    hi = args.grid_hi if args.grid_hi is not None else float(ds.inputs.max()) + 1e-6
    grid = GridMatrix.uniform(n_i, args.g, args.k, lo, hi)
    layer, rmse = fit_layer_ls(ds, args.targets, grid, w_b_mode=args.w_b_mode,
                               ridge=args.ridge, silu_degree=args.silu_degree)
    from .model import KanModel
    mdl = KanModel(layers=[layer], input_shape=(1, 1, n_i))
    print(f"fit-layer: n_i={n_i} n_o={args.targets} g={args.g} k={args.k} "
          f"train_rmse={rmse:.6g}")
    if args.out:
        save_model(mdl, args.out)
        print(f"model written to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# infer
# ---------------------------------------------------------------------------


def _pipeline_config(args, backend_cfg) -> PipelineConfig:
    return PipelineConfig(comparator_mode=args.comparator, path=args.path,
                          backend=backend_cfg)


def _encrypted_setup(args, mdl) -> tuple:
    """(cfg, backend) of an encrypted run: --backend, else the defaults with
    the planned depth of mdl on --path and --comparator."""
    cfg = _pipeline_config(args, _load_backend(args, mdl, [_pipeline_config(args, None)]))
    return cfg, make_backend(cfg.backend)


def _run_encrypted(mdl, row, cfg, backend) -> tuple:
    """One row through the encrypted forward: (outputs, levels used,
    per-layer OpCounter deltas). The client side decrypts the outputs and
    rejects a diverged computation, so a NaN, an infinity or a value past
    2 * B + 1 is never reported as a result, B the last layer's
    ``output_bound``. The factor and the 1 leave room for the comparator's
    and the noise's errors: converged forwards of random models read at
    most 0.26 B."""
    ct = encrypt_input(row.reshape(mdl.input_shape), mdl, backend)
    out_ct, per_layer = model_forward_he(mdl, ct, cfg)
    out = backend.decrypt(out_ct)[:mdl.n_out]
    bound = 2.0 * mdl.layers[-1].output_bound + 1.0
    if not np.all(np.abs(out) <= bound):  # NaN included
        raise NonFiniteOutput(f"decrypted output {out} holds NaN or infinity, or a value "
                              f"past {bound:.6g}: the encrypted computation diverged")
    return out, ct.level - out_ct.level, per_layer


def cmd_infer(args) -> int:
    mdl = load_model(args.model)
    rows = _load_inputs(args.input, mdl.n_in)
    result = {"mode": args.mode, "outputs": []}

    if args.mode in ("plain-exact", "plain-mirrored"):
        cfg = _pipeline_config(args, _load_backend(args))
        comparator = cfg.comparator() if args.mode == "plain-mirrored" else None
        mode = "exact" if args.mode == "plain-exact" else "mirrored"
        for row in rows:
            out = model_forward_plain(mdl, row, mode=mode, comparator=comparator,
                                      path=args.path)
            result["outputs"].append(out.tolist())
    else:
        cfg, backend = _encrypted_setup(args, mdl)
        plan = check_depth_budget(mdl, cfg, cfg.backend.depth_budget)
        print("depth plan:")
        print(plan.describe())
        result["stats"] = []
        for row in rows:
            out, levels, per_layer = _run_encrypted(mdl, row, cfg, backend)
            result["outputs"].append(out.tolist())
            result["stats"].append({"levels": levels,
                                    "per_layer": [asdict(c) for c in per_layer]})

    for out in result["outputs"]:
        print("output:", np.array2string(np.asarray(out), precision=6))
    if args.out:
        _write_json(args.out, result)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _configs_from_json(doc, default_backend: BackendConfig) -> list:
    try:
        return [PipelineConfig.from_json(entry, default_backend) for entry in doc]
    except (ValueError, TypeError) as exc:
        raise SchemaMismatch(f"--configs: {exc}") from exc


def cmd_bench(args) -> int:
    mdl = load_model(args.model)
    try:
        with open(args.configs) as fh:
            doc = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not text
        raise CorruptFile(f"{args.configs}: {exc}") from exc
    if not isinstance(doc, list) or not doc:
        raise SchemaMismatch("--configs must be a non-empty JSON list")
    cfgs = _configs_from_json(doc, None)
    default = _load_backend(args, mdl, [cfg for cfg in cfgs if cfg.backend is None])
    cfgs = [cfg if cfg.backend else replace(cfg, backend=default) for cfg in cfgs]
    if args.inputs:
        inputs = list(_load_inputs(args.inputs, mdl.n_in))
    else:
        rng = np.random.default_rng(_seed(args))
        bound = min(1.0, mdl.layers[0].grid.R)  # encrypt_input rejects |x| > R
        inputs = [rng.uniform(-bound, bound, mdl.n_in)]
    rows = bench_compare(mdl, inputs, cfgs)
    header = "  ".join(f"{c:>10}" for c in
                       ("config", "path", "rotations", "ct_mults", "pt_mults",
                        "depth", "speedup"))
    print(header)
    for row in rows:
        print(f"{row['config']:>10}  {row['path']:>10}  {row['rotations']:>10}  "
              f"{row['ct_mults']:>10}  {row['pt_mults']:>10}  {row['depth']:>10}  "
              f"{row['speedup_vs_naive_counts']:>10}")
    if args.out:
        write_bench_csv(rows, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def cmd_compare(args) -> int:
    mdl = load_model(args.model)
    rows = _load_inputs(args.input, mdl.n_in)
    cfg, backend = _encrypted_setup(args, mdl)
    comparator = cfg.comparator()
    report = []
    for row in rows:
        exact = model_forward_plain(mdl, row, mode="exact")
        mirrored = model_forward_plain(mdl, row, mode="mirrored",
                                       comparator=comparator, path=args.path)
        he, _, _ = _run_encrypted(mdl, row, cfg, backend)
        report.append({
            "exact": exact.tolist(),
            "mirrored": mirrored.tolist(),
            "he": he.tolist(),
            "max_dev_he_vs_mirrored": float(np.max(np.abs(he - mirrored))),
            "max_dev_he_vs_exact": float(np.max(np.abs(he - exact))),
        })
    for i, entry in enumerate(report):
        print(f"input {i}: |he - mirrored| = {entry['max_dev_he_vs_mirrored']:.3e}  "
              f"|he - exact| = {entry['max_dev_he_vs_exact']:.3e}")
    if args.out:
        _write_json(args.out, report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hekan",
        description="Privacy-preserving KAN inference over a simulated SIMD HE backend")
    parser.add_argument("--seed", type=int, default=None,
                        help="deterministic seed (HEKAN_SEED fallback)")
    sub = parser.add_subparsers(dest="command", required=True)
    run = argparse.ArgumentParser(add_help=False)  # the options infer and compare share
    run.add_argument("--model", required=True)
    run.add_argument("--input", required=True)
    run.add_argument("--backend", help="backend config JSON (path or inline); default "
                     "2^15 slots and the planned depth")
    run.add_argument("--path", choices=("lazy", "naive"), default="lazy")
    run.add_argument("--comparator", choices=("composite", "exact"), default="composite")

    p = sub.add_parser("fit-activation", help="fit a polynomial to silu")
    p.add_argument("--samples", help="CSV of observed activation inputs")
    p.add_argument("--mu", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--preset", choices=sorted(ACTIVATION_PRESETS))
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--method", choices=("wls", "ols", "remez"), default="wls")
    p.add_argument("--x-min", type=float, default=-np.inf)
    p.add_argument("--x-max", type=float, default=np.inf)
    p.add_argument("--factor", type=float, default=5.0)
    p.add_argument("--out", help="polynomial JSON path")
    p.add_argument("--report", help="error-report CSV path")
    p.set_defaults(func=cmd_fit_activation)

    p = sub.add_parser("fit-layer", help="fit a single-layer model to CSV data")
    p.add_argument("--data", required=True, help="CSV, targets in trailing columns")
    p.add_argument("--targets", type=int, default=1)
    p.add_argument("--g", type=int, default=10)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--grid-lo", type=float)
    p.add_argument("--grid-hi", type=float)
    p.add_argument("--w-b-mode", choices=("fitted", "fixed"), default="fitted")
    p.add_argument("--ridge", type=float, default=1e-8)
    p.add_argument("--silu-degree", type=int, default=10)
    p.add_argument("--out", help="model JSON path")
    p.set_defaults(func=cmd_fit_layer)

    p = sub.add_parser("infer", parents=[run], help="run a model on CSV inputs")
    p.add_argument("--mode", choices=("plain-exact", "plain-mirrored", "he"),
                   default="he")
    p.add_argument("--out", help="result JSON path")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("bench", help="compare pipeline configs on one model")
    p.add_argument("--model", required=True)
    p.add_argument("--configs", required=True, help="JSON list of pipeline configs")
    p.add_argument("--inputs", help="CSV of inputs (default: one seeded random)")
    p.add_argument("--backend", help="default backend config JSON; default 2^15 slots "
                   "and the largest planned depth over the configs")
    p.add_argument("--out", help="bench CSV path")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("compare", parents=[run],
                       help="plain-exact vs mirrored vs encrypted")
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DepthBudgetInfeasible as exc:
        print(f"depth budget infeasible:\n{exc}", file=sys.stderr)
        return EXIT_BUDGET
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except HeKanError as exc:  # an internal invariant broke
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:  # a file that cannot be opened, read or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
