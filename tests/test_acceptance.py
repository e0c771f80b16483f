"""Acceptance suite: one test per release criterion.

Each test pins its tolerance and prints a [PASS] line with the measured
margin, so a -s/-v run doubles as the verification report.
"""

import time

import numpy as np
import pytest

from hekan.approx import EXACT_COMPARATOR, build_composite_sign, poly_comp
from hekan.backend import BackendConfig, HeBackend, make_backend
from hekan.bspline import (
    GridMatrix,
    bspline_basis_he,
    bspline_basis_plain,
    repeat_pack,
    repeat_pack_naive,
)
from hekan.errors import DepthBudgetInfeasible
from hekan.inference import (
    PipelineConfig,
    bench_lazy_vs_naive,
    check_depth_budget,
    encrypt_input,
    model_forward_he,
    plan_model,
)
from hekan.model import (
    Dataset,
    KanModel,
    fit_layer_ls,
    model_forward_plain,
    random_model,
)

TABLE_CONFIGS = [(64, 3, 2), (128, 5, 3), (256, 5, 3), (256, 10, 3), (256, 10, 5)]
REFERENCE_DEPTH_BUDGET = 20


def report(name: str, detail: str) -> None:
    print(f"\n[PASS] {name}: {detail}")


def test_criterion_1_oracle_equivalence():
    """Encrypted forward matches the mirrored plaintext forward, <= 1e-9
    per output slot, for 50 random models on both combination paths."""
    t0 = time.time()
    rng = np.random.default_rng(2024)
    cs = build_composite_sign()
    bcfg = BackendConfig(slot_count=4096, depth_budget=64)
    worst = 0.0
    for trial in range(50):
        n_layers = int(rng.integers(1, 3))
        dims = [int(rng.integers(2, 65)) for _ in range(n_layers + 1)]
        g = int(rng.integers(2, 11))
        k = int(rng.integers(1, 4))
        mdl = random_model(dims, g=g, k=k, seed=3000 + trial)
        x = rng.uniform(-1, 1, dims[0])
        for path in ("lazy", "naive"):
            be = HeBackend(bcfg)
            ct = encrypt_input(x.reshape(1, 1, dims[0]), mdl, be)
            out, _ = model_forward_he(mdl, ct, PipelineConfig(path=path, backend=bcfg))
            mirrored = model_forward_plain(mdl, x, "mirrored", comparator=cs, path=path)
            dev = float(np.max(np.abs(out.slots[: dims[-1]] - mirrored)))
            worst = max(worst, dev)
            assert dev <= 1e-9, f"trial {trial} path {path}: deviation {dev}"
    elapsed = time.time() - t0
    assert elapsed < 300
    report("criterion 1 (oracle equivalence)",
           f"50 models x 2 paths, worst slot deviation {worst:.3e} <= 1e-9, "
           f"{elapsed:.1f}s")


def test_criterion_2_repeat_packing_rotation_law():
    """Fast packing to 2^ceil(log2(g+2k)) copies uses exactly
    ceil(log2(g+2k)) rotations for g+2k in 2..64 and n_i in {4, 64}; the
    naive reference uses g+2k-1."""
    bcfg = BackendConfig(slot_count=8192, depth_budget=4)
    checked = 0
    for n_i in (4, 64):
        for copies in range(2, 65):
            g, k = (copies - 2, 1) if copies >= 3 else (copies, 0)
            expected = int(np.ceil(np.log2(copies)))

            be = HeBackend(bcfg)
            ct = be.encrypt(np.arange(1.0, n_i + 1))
            packed = repeat_pack(ct, GridMatrix.uniform(n_i, g, k, -1.0, 1.0), 2 ** expected)
            assert be.counter.rotations == expected, (n_i, copies)
            blocks = packed.slots[: n_i * copies].reshape(copies, n_i)
            np.testing.assert_array_equal(blocks, np.tile(blocks[0], (copies, 1)))

            be2 = HeBackend(bcfg)
            repeat_pack_naive(be2.encrypt(np.arange(1.0, n_i + 1)), g, k, n_i)
            assert be2.counter.rotations == copies - 1
            checked += 1
    report("criterion 2 (repeat packing rotations)",
           f"{checked} (n_i, g+2k) combinations, measured == ceil(log2(g+2k)) "
           f"exactly; naive reference == g+2k-1")


def test_criterion_3_lazy_combination_savings():
    """Naive-path overhead: exactly n_i*(g+k) extra multiplications and at
    least floor(sqrt(n_i*(g+k))) extra rotations; combined count ratio
    >= 1.5 on the smallest config and strictly increasing."""
    rows = bench_lazy_vs_naive(TABLE_CONFIGS, slot_count=2 ** 15,
                               depth_budget=32, n_o=10, seed=0)
    by_cfg = {}
    for row in rows:
        by_cfg.setdefault(row["config"], {})[row["path"]] = row
    ratios = []
    for (n_i, g, k) in TABLE_CONFIGS:
        pair = by_cfg[f"({n_i},{g},{k})"]
        lazy, naive = pair["lazy"], pair["naive"]
        n_fused = n_i * (g + k)
        extra_mults = (naive["pt_mults"] + naive["ct_mults"]
                       - lazy["pt_mults"] - lazy["ct_mults"])
        extra_rots = naive["rotations"] - lazy["rotations"]
        assert extra_mults == n_fused
        assert extra_rots >= int(np.sqrt(n_fused))
        ratios.append(lazy["speedup_vs_naive_counts"])
    assert ratios[0] >= 1.5
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    report("criterion 3 (lazy combination savings)",
           "count ratios " + " -> ".join(f"{r:.3f}" for r in ratios)
           + f"; first >= 1.5 and strictly increasing; naive extra mults "
             f"== n_i*(g+k) on all configs")


def test_criterion_4_comparator_accuracy():
    """|comp - step| <= 2^-10 for |a-b| in [2^-7, 1] on a 1e5 grid;
    antisymmetry complement within 2^-9."""
    cs = build_composite_sign(7.0, 2.0 ** -10)
    S = 2 ** 15
    bcfg = BackendConfig(slot_count=S, depth_budget=16)
    n_points = 100_000
    half = np.linspace(2.0 ** -7, 1.0, n_points // 2)
    diffs = np.concatenate([half, -half])
    expected = np.where(diffs > 0, 1.0, 0.0)
    worst = 0.0
    worst_anti = 0.0
    for start in range(0, diffs.size, S):
        chunk = diffs[start:start + S]
        be = HeBackend(bcfg)
        a = be.encrypt(chunk)
        zeros = np.zeros(S)
        out = poly_comp(a, zeros, cs)
        dev = np.abs(out.slots[: chunk.size] - expected[start:start + chunk.size])
        worst = max(worst, float(np.max(dev)))
        flipped = poly_comp(be.encrypt(np.zeros(chunk.size)),
                            np.concatenate([chunk, np.zeros(S - chunk.size)]), cs)
        anti = np.abs(out.slots[: chunk.size] + flipped.slots[: chunk.size] - 1.0)
        worst_anti = max(worst_anti, float(np.max(anti)))
    assert worst <= 2.0 ** -10
    assert worst_anti <= 2.0 ** -9
    report("criterion 4 (comparator accuracy)",
           f"{diffs.size} grid points, worst |comp - step| {worst:.3e} <= 2^-10, "
           f"antisymmetry defect {worst_anti:.3e} <= 2^-9")


def test_criterion_5_bspline_correctness():
    """Partition of unity: <= 1e-9 plaintext and <= 1e-6 encrypted with the
    exact comparator (1e3 interior points); composite-comparator basis
    matches the plaintext oracle to 10 * 2^-10 per slot away from knots."""
    rng = np.random.default_rng(55)

    # plaintext partition of unity, 1e3 interior points
    G = GridMatrix.uniform(4, 10, 3, -1.0, 1.0)
    pts = rng.uniform(-1.0, 1.0 - 1e-12, 1000)
    worst_plain = max(abs(bspline_basis_plain(x, G.entries[0], 3).sum() - 1.0)
                      for x in pts)
    assert worst_plain <= 1e-9

    # encrypted path with the exact comparator inherits it within 1e-6
    bcfg = BackendConfig(slot_count=512, depth_budget=24)
    worst_he = 0.0
    for start in range(0, 1000, 4):
        x = pts[start:start + 4]
        be = HeBackend(bcfg)
        xp = repeat_pack(be.encrypt(x), G)
        bv = bspline_basis_he(xp, G, EXACT_COMPARATOR)
        sums = bv.slots[: 4 * G.n_basis].reshape(G.n_basis, 4).sum(axis=0)
        worst_he = max(worst_he, float(np.max(np.abs(sums - 1.0))))
    assert worst_he <= 1e-6

    # composite comparator vs the exact oracle, away from every knot
    cs = build_composite_sign()
    Gc = GridMatrix.uniform(4, 3, 2, -1.0, 1.0)
    margin = cs.delta * 2.0 * Gc.R
    sweep = np.linspace(-1.0, 1.0, 2000)
    sweep = sweep[np.min(np.abs(sweep[:, None] - Gc.entries[0][None, :]), axis=1)
                  >= margin]
    worst_comp = 0.0
    bcfg_c = BackendConfig(slot_count=256, depth_budget=24)
    for start in range(0, sweep.size - 3, 4):
        x = sweep[start:start + 4]
        be = HeBackend(bcfg_c)
        xp = repeat_pack(be.encrypt(x), Gc)
        bv = bspline_basis_he(xp, Gc, cs)
        vals = bv.slots[: 4 * Gc.n_basis].reshape(Gc.n_basis, 4).T
        plain = np.array([bspline_basis_plain(xi, Gc.entries[i], 2)
                          for i, xi in enumerate(x)])
        worst_comp = max(worst_comp, float(np.max(np.abs(vals - plain))))
    assert worst_comp <= 10 * 2.0 ** -10
    report("criterion 5 (B-spline correctness)",
           f"partition of unity {worst_plain:.2e} (plain) / {worst_he:.2e} (HE); "
           f"composite basis deviation {worst_comp:.3e} <= {10 * 2**-10:.3e} "
           f"on {sweep.size} off-knot points")


def test_criterion_6_weighted_fit_superiority():
    """Under a Gaussian input distribution matched to the reference range,
    the weighted fit beats OLS and minimax on distribution-weighted RMSE."""
    from hekan.approx import ApproxRange, WeightScheme, fit_ols, fit_remez, fit_weighted_ls
    from hekan.model import silu

    lo, hi = -12.4, 14.74
    mu, sigma = (lo + hi) / 2.0, (hi - lo) / 10.0
    rng_spec = ApproxRange(lo, hi, mu, sigma)
    w = WeightScheme.from_moments(mu, sigma)
    fits = {
        "weighted": fit_weighted_ls(silu, rng_spec, 10, w=w),
        "ols": fit_ols(silu, rng_spec, 10),
        "remez": fit_remez(silu, rng_spec, 10, rel_tol=1e-3),
    }
    draws = np.random.default_rng(42).normal(mu, sigma, 200_000)
    draws = draws[(draws >= lo) & (draws <= hi)]
    rmse = {name: float(np.sqrt(np.mean((silu(draws) - p(draws)) ** 2)))
            for name, p in fits.items()}
    assert rmse["weighted"] < rmse["ols"]
    assert rmse["weighted"] < rmse["remez"]
    report("criterion 6 (weighted fit superiority)",
           f"distribution RMSE: weighted {rmse['weighted']:.5f} < "
           f"remez {rmse['remez']:.5f} and < ols {rmse['ols']:.5f}")


def test_criterion_7_symbolic_formula_accuracy():
    """One-layer model fitted to exp(sin(pi x)) on [-1, 1], g=10, k=3:
    encrypted inference tracks the plaintext model within 1e-3 RMSE
    (arithmetic backend, exact and default composite comparator) and 5e-3
    (noisy backend, sigma = 1e-8, exact and default composite comparator)."""
    t0 = time.time()
    rng = np.random.default_rng(7)
    x_train = rng.uniform(-1, 1, 400)
    ds = Dataset(x_train.reshape(-1, 1), np.exp(np.sin(np.pi * x_train)).reshape(-1, 1))
    grid = GridMatrix.uniform(1, 10, 3, -1.0, 1.0)
    layer, fit_rmse = fit_layer_ls(ds, 1, grid)
    mdl = KanModel(layers=[layer], input_shape=(1, 1, 1))
    assert fit_rmse <= 1e-2

    x_test = np.linspace(-0.98, 0.98, 80)
    plain = np.array([model_forward_plain(mdl, [v], "exact")[0] for v in x_test])

    # the step oracle isolates the encrypted pipeline's own arithmetic
    # (activation polynomial included); the composite run adds the default
    # comparator's error on top, and on the noisy backend its amplification
    # of the noise
    results = {}
    for label, noise, comparator in (("cleartext", 0.0, "exact"), ("noisy", 1e-8, "exact"),
                                     ("composite", 0.0, "composite"),
                                     ("noisy composite", 1e-8, "composite")):
        bcfg = BackendConfig(slot_count=64, depth_budget=24,
                             noise_std=noise, rng_seed=11)
        cfg = PipelineConfig(comparator_mode=comparator, backend=bcfg)
        be = make_backend(bcfg)
        outs = []
        for v in x_test:
            ct = encrypt_input(np.array([v]).reshape(1, 1, 1), mdl, be)
            out, _ = model_forward_he(mdl, ct, cfg)
            outs.append(out.slots[0])
        results[label] = float(np.sqrt(np.mean((np.asarray(outs) - plain) ** 2)))
    elapsed = time.time() - t0
    assert results["cleartext"] <= 1e-3
    assert results["noisy"] <= 5e-3
    assert results["composite"] <= 1e-3
    assert results["noisy composite"] <= 5e-3
    assert elapsed < 120
    report("criterion 7 (symbolic formula accuracy)",
           f"fit rmse {fit_rmse:.2e}; encrypted-vs-plain RMSE "
           f"{results['cleartext']:.2e} (cleartext) / {results['noisy']:.2e} "
           f"(noisy) / {results['composite']:.2e} (composite) / "
           f"{results['noisy composite']:.2e} (noisy composite), {elapsed:.1f}s")


def test_criterion_8_depth_planner_exactness():
    """Planner prediction equals measured depth on every table config and
    path; at the reference budget of 20 each config either fits or is
    rejected before any encrypted work."""
    bcfg = BackendConfig(slot_count=2 ** 15, depth_budget=32)
    rng = np.random.default_rng(0)
    outcomes = []
    for n_i, g, k in TABLE_CONFIGS:
        mdl = random_model([n_i, 10], g=g, k=k, seed=0)
        x = rng.uniform(-1, 1, n_i)
        for path in ("lazy", "naive"):
            cfg = PipelineConfig(path=path, backend=bcfg)
            plan = plan_model(mdl, cfg)
            be = HeBackend(bcfg)
            ct = encrypt_input(x.reshape(1, 1, n_i), mdl, be)
            out, _ = model_forward_he(mdl, ct, cfg)
            assert ct.level - out.level == plan.total, (n_i, g, k, path)

            if plan.total <= REFERENCE_DEPTH_BUDGET:
                check_depth_budget(mdl, cfg, REFERENCE_DEPTH_BUDGET)
                outcomes.append(f"({n_i},{g},{k})/{path}:{plan.total}")
            else:
                with pytest.raises(DepthBudgetInfeasible):
                    check_depth_budget(mdl, cfg, REFERENCE_DEPTH_BUDGET)
                outcomes.append(f"({n_i},{g},{k})/{path}:rejected({plan.total})")
    report("criterion 8 (depth planner exactness)",
           "predicted == measured on all configs; at budget 20: "
           + ", ".join(outcomes))
