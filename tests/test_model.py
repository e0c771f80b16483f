import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit

from hekan.approx import (
    EXACT_COMPARATOR,
    ApproxRange,
    Polynomial,
    build_composite_sign,
    estimate_range,
    fit_weighted_ls,
)
from hekan.backend import BackendConfig, HeBackend
from hekan.bspline import GridMatrix, bspline_basis_plain
from hekan.errors import (
    CorruptFile,
    DimensionMismatch,
    HeKanError,
    InvalidArgument,
    NonFiniteInput,
    SchemaMismatch,
    SingularSystem,
)
from hekan.model import (
    Dataset,
    _basis_matrix_exact,
    KanLayer,
    KanModel,
    fit_layer_ls,
    layer_forward_plain,
    load_dataset_csv,
    load_model,
    model_forward_plain,
    phi,
    random_model,
    save_model,
    silu,
)


def tiny_layer(n_i=2, n_o=3, g=4, k=2, seed=0, silu_degree=6):
    rng = np.random.default_rng(seed)
    grid = GridMatrix.uniform(n_i, g, k, -1.0, 1.0)
    act = ApproxRange(-2.0, 2.0, 0.0, 0.5)
    return KanLayer(
        W_b=rng.normal(size=(n_o, n_i)) * 0.3,
        S=rng.normal(size=(n_o, n_i, g + k)) * 0.3,
        grid=grid,
        silu_poly=fit_weighted_ls(silu, act, silu_degree),
        act_stats=(0.0, 0.5),
    )


class TestLayerShapeChecks:
    @pytest.mark.parametrize("W_b, S, n_i, match", [
        (np.zeros(2), np.zeros((1, 2, 6)), 2, "W_b must be 2-D"),
        (np.zeros((1, 2)), np.zeros((1, 2, 5)), 2, "S shape"),
        (np.zeros((1, 2)), np.zeros((1, 2, 6)), 3, "grid has 3 rows"),
        (np.zeros((0, 2)), np.zeros((0, 2, 6)), 2, "n_o >= 1"),
    ], ids=["W_b-not-2d", "S-shape", "grid-rows", "no-outputs"])
    def test_shape_mismatch_rejected(self, W_b, S, n_i, match):
        grid = GridMatrix.uniform(n_i, 4, 2, -1.0, 1.0)
        with pytest.raises(DimensionMismatch, match=match):
            KanLayer(W_b=W_b, S=S, grid=grid, silu_poly=Polynomial((0.0, 1.0)))

    @pytest.mark.parametrize("dims", [[2, 0, 1], [0, 2], [3, 0]])
    def test_zero_width_layers_rejected(self, dims):
        # a zero-width layer failed late (np.stack, save_model's
        # IndexError), or divided by zero in the weight scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionMismatch):
                random_model(dims, g=3, k=1)

    @pytest.mark.parametrize("field, bad", [
        ("W_b", np.array([[0.0, np.nan]])),
        ("S", np.full((1, 2, 6), np.inf)),
        ("silu_poly", Polynomial((0.0, -np.inf))),
    ])
    def test_non_finite_weights_rejected(self, field, bad):
        layer = tiny_layer(n_o=1)
        with pytest.raises(NonFiniteInput):
            replace(layer, **{field: bad})


class TestSilu:
    def test_zero(self):
        assert silu(0.0) == 0.0

    def test_saturation(self):
        assert silu(20.0) == pytest.approx(20.0, abs=1e-7)
        assert silu(-20.0) == pytest.approx(0.0, abs=1e-7)

    def test_vectorized(self):
        x = np.array([-1.0, 0.0, 1.0])
        np.testing.assert_allclose(silu(x), x / (1 + np.exp(-x)))

    def test_matches_scipy_expit_without_warnings(self):
        x = np.concatenate([np.linspace(-800.0, 800.0, 160_001),
                            [1e308, -1e308, 0.0, -0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = silu(x)
        np.testing.assert_allclose(got, x * expit(x), rtol=0.0, atol=2e-15)


class TestPhi:
    def test_silu_only(self):
        knots = np.linspace(-2, 2, 9)
        assert phi(0.7, 1.0, 0.0, np.zeros(5), knots, 3) == pytest.approx(silu(0.7))

    def test_partition_of_unity_branch(self):
        knots = np.linspace(-2, 2, 9)
        val = phi(0.1, 0.0, 1.7, np.ones(5), knots, 3)
        assert val == pytest.approx(1.7, abs=1e-12)

    def test_all_zero(self):
        knots = np.linspace(-2, 2, 9)
        assert phi(0.4, 0.0, 0.0, np.zeros(5), knots, 3) == 0.0

    def test_linearity_in_coefficients(self):
        rng = np.random.default_rng(1)
        knots = np.linspace(-2, 2, 9)
        c1, c2 = rng.normal(size=(2, 5))
        x, a, b = 0.37, 1.4, -0.6
        combined = phi(x, 0.0, 1.0, a * c1 + b * c2, knots, 3)
        separate = a * phi(x, 0.0, 1.0, c1, knots, 3) + b * phi(x, 0.0, 1.0, c2, knots, 3)
        assert combined == pytest.approx(separate, abs=1e-12)


class TestLayerForward:
    def test_zero_weights_zero_output(self):
        layer = tiny_layer()
        layer = replace(layer, W_b=np.zeros_like(layer.W_b), S=np.zeros_like(layer.S))
        out = layer_forward_plain(layer, [0.3, -0.4])
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_single_edge_matches_phi(self):
        rng = np.random.default_rng(2)
        grid = GridMatrix.uniform(1, 5, 2, -1.0, 1.0)
        w_b, coeffs = 0.8, rng.normal(size=7)
        layer = KanLayer(W_b=np.array([[w_b]]), S=coeffs.reshape(1, 1, 7),
                         grid=grid, silu_poly=Polynomial((0.0,)))
        x = 0.23
        expected = phi(x, w_b, 1.0, coeffs, grid.entries[0], 2)
        assert layer_forward_plain(layer, [x])[0] == pytest.approx(expected, abs=1e-12)

    def test_mirrored_close_to_exact_with_good_poly(self):
        # high-degree activation fit and the exact comparator isolate the
        # polynomial error, which stays tiny
        layer = tiny_layer(silu_degree=14)
        x = np.array([0.41, -0.77])
        exact = layer_forward_plain(layer, x, "exact")
        mirrored = layer_forward_plain(layer, x, "mirrored",
                                       comparator=EXACT_COMPARATOR)
        assert np.max(np.abs(exact - mirrored)) <= 1e-6

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            layer_forward_plain(tiny_layer(), [1.0, 2.0, 3.0])

    def test_mirrored_requires_comparator(self):
        with pytest.raises(ValueError):
            layer_forward_plain(tiny_layer(), [0.1, 0.2], "mirrored")

    @pytest.mark.parametrize("kwargs", [{"mode": "approx"}, {"mode": "mirrored"}])
    def test_bad_mode_is_a_library_error(self, kwargs):
        with pytest.raises(HeKanError):
            layer_forward_plain(tiny_layer(), [0.1, 0.2], **kwargs)

    def test_unknown_spline_path_is_a_library_error(self):
        with pytest.raises(HeKanError):
            tiny_layer().spline_maps("sideways")


class TestModelForward:
    def test_one_layer_model_reduces_to_layer(self):
        layer = tiny_layer()
        mdl = KanModel(layers=[layer], input_shape=(1, 1, 2))
        x = [0.2, -0.5]
        np.testing.assert_array_equal(model_forward_plain(mdl, x),
                                      layer_forward_plain(layer, x))

    def test_two_layer_composition(self):
        l1, l2 = tiny_layer(2, 3, seed=3), tiny_layer(3, 2, seed=4)
        mdl = KanModel(layers=[l1, l2], input_shape=(1, 1, 2))
        x = [0.3, 0.6]
        manual = layer_forward_plain(l2, layer_forward_plain(l1, x))
        np.testing.assert_array_equal(model_forward_plain(mdl, x), manual)

    def test_empty_input_rejected(self):
        mdl = KanModel(layers=[tiny_layer()], input_shape=(1, 1, 2))
        with pytest.raises(DimensionMismatch):
            model_forward_plain(mdl, [])

    def test_chaining_validated(self):
        with pytest.raises(DimensionMismatch):
            KanModel(layers=[tiny_layer(2, 3), tiny_layer(4, 2)],
                     input_shape=(1, 1, 2))

    def test_input_shape_validated(self):
        with pytest.raises(DimensionMismatch):
            KanModel(layers=[tiny_layer(2, 3)], input_shape=(1, 1, 5))

    @pytest.mark.parametrize("shape", [(1, 2), (1, 1, 1, 2), ()])
    def test_input_shape_needs_three_dimensions(self, shape):
        with pytest.raises(DimensionMismatch, match=r"is not \(h, w, c\)"):
            KanModel(layers=[tiny_layer(2, 3)], input_shape=shape)


class TestFitLayer:
    def test_recovers_silu_target(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, 400).reshape(-1, 1)
        ds = Dataset(x, silu(x))
        grid = GridMatrix.uniform(1, 5, 3, -1.0, 1.0)
        layer, rmse = fit_layer_ls(ds, 1, grid)
        assert rmse <= 1e-3
        xt = np.linspace(-0.9, 0.9, 50)
        preds = np.array([layer_forward_plain(layer, [v])[0] for v in xt])
        np.testing.assert_allclose(preds, silu(xt), atol=1e-3)

    def test_basis_features_are_the_scalar_calls(self):
        # one call per feature gives the bits of one call per (sample, feature)
        rng = np.random.default_rng(11)
        grid = GridMatrix(np.sort(rng.uniform(-1.5, 1.5, (3, 12)), axis=1), 5, 3, 2.0)
        X = np.vstack([rng.uniform(-2.0, 2.0, (300, 3)), grid.entries.T])
        want = np.array([[bspline_basis_plain(x, grid.entries[i], 3) for i, x in enumerate(row)]
                         for row in X])
        got = _basis_matrix_exact(grid, X)
        assert got.shape == (X.shape[0], 3, 8)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(_basis_matrix_exact(grid, X[7]).view(np.int64),
                              want[7].view(np.int64))

    def test_zero_target_gives_zero_coefficients(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, 200).reshape(-1, 1)
        ds = Dataset(x, np.zeros_like(x))
        grid = GridMatrix.uniform(1, 5, 2, -1.0, 1.0)
        layer, rmse = fit_layer_ls(ds, 1, grid)
        assert rmse <= 1e-9
        assert np.max(np.abs(layer.S)) <= 1e-6
        assert np.max(np.abs(layer.W_b)) <= 1e-6

    def test_silu_fit_keeps_real_odd_terms(self):
        # criterion 7's data: the range is not symmetric about 0, so the odd
        # terms past x are real (the smallest near 3e-8) and stay
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, 400)
        ds = Dataset(x.reshape(-1, 1), np.exp(np.sin(np.pi * x)).reshape(-1, 1))
        layer, _ = fit_layer_ls(ds, 1, GridMatrix.uniform(1, 10, 3, -1.0, 1.0))
        c = layer.silu_poly.coeffs
        assert layer.silu_poly.degree == 10 and all(c[j] != 0.0 for j in range(11))
        assert 1e-6 < abs(c[3]) < 1e-5

    def test_random_model_drops_roundoff_coefficients(self):
        # silu(x) - x/2 is even, so on the symmetric fit range the odd
        # terms past x are conversion roundoff: degree 7 drops to 6
        layer = random_model([2, 1], g=3, k=1, seed=0).layers[0]
        raw = fit_weighted_ls(silu, estimate_range(np.linspace(-1.0, 1.0, 64)), 7)
        c = layer.silu_poly.coeffs
        assert raw.degree == 7 and all(raw.coeffs[j] != 0.0 for j in (3, 5, 7))
        assert layer.silu_poly.degree == 6 and c[3] == c[5] == 0.0
        assert c == tuple(0.0 if j in (3, 5) else raw.coeffs[j] for j in range(7))

    def test_sine_fit_accuracy(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, 500).reshape(-1, 1)
        ds = Dataset(x, np.sin(np.pi * x))
        grid = GridMatrix.uniform(1, 10, 3, -1.0, 1.0)
        _, rmse = fit_layer_ls(ds, 1, grid)
        assert rmse <= 1e-2

    def test_residual_non_increasing_in_grid_count(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-1, 1, 600).reshape(-1, 1)
        ds = Dataset(x, np.exp(np.sin(np.pi * x)))
        rmses = []
        for g in (2, 4, 8, 16):
            grid = GridMatrix.uniform(1, g, 3, -1.0, 1.0)
            rmses.append(fit_layer_ls(ds, 1, grid)[1])
        assert all(a >= b - 1e-12 for a, b in zip(rmses, rmses[1:]))

    def test_singular_system_without_ridge(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(-1, 1, 12).reshape(-1, 1)
        ds = Dataset(x, np.sin(x))
        grid = GridMatrix.uniform(1, 40, 3, -1.0, 1.0)
        with pytest.raises(SingularSystem):
            fit_layer_ls(ds, 1, grid, ridge=0.0)

    @pytest.mark.parametrize("ridge", [-1.0, np.nan, np.inf])
    def test_ridge_outside_domain_rejected(self, ridge):
        x = np.random.default_rng(9).uniform(-1, 1, 40).reshape(-1, 1)
        with pytest.raises(InvalidArgument):
            fit_layer_ls(Dataset(x, np.sin(x)), 1, GridMatrix.uniform(1, 4, 3, -1.0, 1.0),
                         ridge=ridge)

    def test_fixed_base_mode(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(-1, 1, 300).reshape(-1, 1)
        ds = Dataset(x, np.cos(x))
        grid = GridMatrix.uniform(1, 8, 3, -1.0, 1.0)
        layer, rmse = fit_layer_ls(ds, 1, grid, w_b_mode="fixed")
        assert np.all(layer.W_b == 0.0)
        assert rmse <= 1e-3

    def test_unknown_w_b_mode_is_a_library_error(self):
        x = np.random.default_rng(9).uniform(-1, 1, 40).reshape(-1, 1)
        with pytest.raises(HeKanError):
            fit_layer_ls(Dataset(x, np.sin(x)), 1, GridMatrix.uniform(1, 4, 3, -1.0, 1.0),
                         w_b_mode="free")

    def test_target_width_validation(self):
        ds = Dataset(np.zeros((10, 1)), np.zeros((10, 2)))
        grid = GridMatrix.uniform(1, 4, 2, -1.0, 1.0)
        with pytest.raises(DimensionMismatch):
            fit_layer_ls(ds, 1, grid)


class TestSerialization:
    def test_round_trip_structural_equality(self, tmp_path):
        mdl = random_model([3, 4, 2], g=5, k=2, seed=11)
        path = tmp_path / "model.json"
        save_model(mdl, path)
        loaded = load_model(path)
        assert loaded.input_shape == mdl.input_shape
        for a, b in zip(mdl.layers, loaded.layers):
            np.testing.assert_array_equal(a.W_b, b.W_b)
            np.testing.assert_array_equal(a.S, b.S)
            np.testing.assert_array_equal(a.grid.entries, b.grid.entries)
            assert a.silu_poly == b.silu_poly
            assert a.act_stats == b.act_stats

    def test_missing_grid_is_schema_mismatch(self, tmp_path):
        mdl = random_model([2, 2], g=4, k=1, seed=12)
        path = tmp_path / "model.json"
        save_model(mdl, path)
        doc = json.loads(path.read_text())
        doc["layers"][0].pop("uniform_grid", None)
        doc["layers"][0].pop("grid", None)
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaMismatch):
            load_model(path)

    @staticmethod
    def _factored(W_s_shape, C_shape):
        def edit(doc):
            layer = doc["layers"][0]
            del layer["S"]
            layer["W_s"] = np.zeros(W_s_shape).tolist()
            layer["C"] = np.zeros(C_shape).tolist()
        return edit

    @pytest.mark.parametrize("edit, match", [
        (lambda doc: doc["layers"][0].pop("n_i"), "missing 'n_i' in layer 0"),
        (lambda doc: doc["layers"][0]["uniform_grid"].update(k=3),
         r"uniform_grid \(g, k\) disagrees"),
        (_factored((4, 3), (3, 6)), "factored shapes"),
        (_factored((3, 4), (3, 7)), "factored shapes"),
        (lambda doc: doc["layers"][0].pop("S"), "needs 'S' or factored"),
    ], ids=["missing-key", "uniform-grid-degrees", "factored-C", "factored-W_s",
            "no-spline-weights"])
    def test_schema_errors(self, tmp_path, edit, match):
        # edit changes random_model([3, 4], g=5, k=2)'s document in place
        path = tmp_path / "model.json"
        save_model(random_model([3, 4], g=5, k=2, seed=17), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaMismatch, match=match):
            load_model(path)

    def test_document_must_be_an_object(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[1, 2]")
        with pytest.raises(SchemaMismatch, match="must be a JSON object"):
            load_model(path)

    def test_version_checked(self, tmp_path):
        mdl = random_model([2, 2], g=4, k=1, seed=13)
        path = tmp_path / "model.json"
        save_model(mdl, path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaMismatch):
            load_model(path)

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{this is not json")
        with pytest.raises(CorruptFile):
            load_model(path)

    def test_factored_form_materializes(self, tmp_path):
        mdl = random_model([3, 4], g=5, k=2, seed=14)
        path = tmp_path / "model.json"
        save_model(mdl, path)
        doc = json.loads(path.read_text())
        rng = np.random.default_rng(15)
        W_s = rng.normal(size=(4, 3))
        C = rng.normal(size=(3, 7))
        layer = doc["layers"][0]
        del layer["S"]
        layer["W_s"] = W_s.tolist()
        layer["C"] = C.tolist()
        path.write_text(json.dumps(doc))
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.layers[0].S,
                                      W_s[:, :, None] * C[None, :, :])

    def test_explicit_grid_round_trip(self, tmp_path):
        rng = np.random.default_rng(16)
        rows = np.sort(rng.uniform(-1, 1, (2, 8)), axis=1)
        rows += np.arange(8) * 1e-6
        grid = GridMatrix(rows, g=3, k=2, R=2.0)
        layer = KanLayer(W_b=np.zeros((1, 2)), S=np.zeros((1, 2, 5)), grid=grid,
                         silu_poly=Polynomial((0.0, 1.0)))
        mdl = KanModel(layers=[layer], input_shape=(1, 1, 2))
        path = tmp_path / "model.json"
        save_model(mdl, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.layers[0].grid.entries, rows)

    def test_dataset_csv_loader(self, tmp_path):
        data = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        path = tmp_path / "d.csv"
        np.savetxt(path, data, delimiter=",")
        ds = load_dataset_csv(path, n_targets=1)
        np.testing.assert_array_equal(ds.inputs, data[:, :2])
        np.testing.assert_array_equal(ds.targets, data[:, 2:])


class TestMirrorEquivalence:
    def test_mirror_matches_encrypted_pipeline(self):
        # the central oracle property: mirrored forward predicts the
        # encrypted result exactly on the arithmetic backend
        from hekan.inference import PipelineConfig, encrypt_input, model_forward_he
        cs = build_composite_sign()
        mdl = random_model([4, 3, 2], g=4, k=2, seed=17)
        x = np.random.default_rng(18).uniform(-1, 1, 4)
        bcfg = BackendConfig(slot_count=256, depth_budget=40)
        for path in ("lazy", "naive"):
            be = HeBackend(bcfg)
            ct = encrypt_input(x.reshape(1, 1, 4), mdl, be)
            out_ct, _ = model_forward_he(mdl, ct, PipelineConfig(path=path, backend=bcfg))
            mirrored = model_forward_plain(mdl, x, "mirrored", comparator=cs, path=path)
            assert np.max(np.abs(out_ct.slots[:2] - mirrored)) <= 1e-9
