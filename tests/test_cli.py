import csv
import json
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest

from hekan import cli, errors
from hekan.cli import main
from hekan.approx import Polynomial
from hekan.bspline import GridMatrix
from hekan.errors import SchemaMismatch
from hekan.model import load_model, random_model, save_model, silu

@pytest.fixture
def model_path(tmp_path):
    mdl = random_model([4, 3], g=4, k=2, seed=1)
    path = tmp_path / "model.json"
    save_model(mdl, path)
    return str(path)


@pytest.fixture
def input_path(tmp_path):
    rows = np.random.default_rng(2).uniform(-1, 1, (2, 4))
    path = tmp_path / "inputs.csv"
    np.savetxt(path, rows, delimiter=",")
    return str(path)


BACKEND = '{"slot_count": 512, "depth_budget": 40}'


def _csv_rows(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestFitActivation:
    def test_moments_ols_writes_four_coefficients(self, tmp_path):
        out = tmp_path / "poly.json"
        # off-centre, so c3 is a real term and not roundoff the fit drops
        rc = main(["fit-activation", "--mu", "0.5", "--sigma", "1",
                   "--degree", "3", "--method", "ols", "--out", str(out)])
        assert rc == 0
        coeffs = json.loads(out.read_text())
        assert len(coeffs) == 4
        report = tmp_path / "poly_report.csv"
        rows = _csv_rows(report)
        assert rows[0]["degree"] == "3"

    @pytest.mark.parametrize("method", ["ols", "wls", "remez"])
    def test_symmetric_range_writes_no_roundoff_odd_terms(self, tmp_path, method):
        # silu(x) - x/2 is even, so on a range symmetric about 0 every odd
        # coefficient past c1 is roundoff, and the fit writes degree 6
        out = tmp_path / "poly.json"
        rc = main(["fit-activation", "--mu", "0", "--sigma", "1",
                   "--degree", "7", "--method", method, "--out", str(out)])
        assert rc == 0
        coeffs = json.loads(out.read_text())
        assert len(coeffs) == 7
        assert coeffs[1] != 0 and coeffs[3::2] == [0.0, 0.0]
        assert _csv_rows(tmp_path / "poly_report.csv")[0]["degree"] == "6"

    def test_weighted_beats_ols_on_inner_interval(self, tmp_path):
        outs = {}
        for method in ("wls", "ols"):
            out = tmp_path / f"{method}.json"
            rc = main(["fit-activation", "--mu", "0", "--sigma", "2",
                       "--degree", "8", "--method", method, "--out", str(out)])
            assert rc == 0
            outs[method] = Polynomial.from_json(json.loads(out.read_text()))
        x = np.linspace(-6, 6, 2001)  # mu +- 3 sigma
        rmse = {m: np.sqrt(np.mean((silu(x) - p(x)) ** 2)) for m, p in outs.items()}
        assert rmse["wls"] < rmse["ols"]

    def test_missing_source_is_usage_error(self):
        assert main(["fit-activation", "--degree", "3"]) == 2

    def test_both_sources_is_usage_error(self, tmp_path):
        samples = tmp_path / "s.csv"
        np.savetxt(samples, np.ones(10), delimiter=",")
        rc = main(["fit-activation", "--samples", str(samples), "--mu", "0",
                   "--sigma", "1", "--degree", "3"])
        assert rc == 2

    def test_samples_source(self, tmp_path):
        samples = tmp_path / "s.csv"
        np.savetxt(samples, np.random.default_rng(3).normal(0, 1, 500), delimiter=",")
        out = tmp_path / "p.json"
        rc = main(["fit-activation", "--samples", str(samples), "--degree", "5",
                   "--out", str(out)])
        assert rc == 0
        assert len(json.loads(out.read_text())) == 6

    def test_preset_source(self, tmp_path):
        out = tmp_path / "p.json"
        rc = main(["fit-activation", "--preset", "mnist", "--degree", "10",
                   "--method", "remez", "--out", str(out)])
        assert rc == 0


@pytest.mark.parametrize("command", ["infer", "compare", "fit-layer", "fit-activation"])
def test_empty_csv_is_a_usage_error(model_path, tmp_path, capsys, command):
    """A CSV with no rows exits 2 with one message, from the one CSV
    reader, and numpy warns nothing."""
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    argv = {"infer": ["infer", "--model", model_path, "--input", str(empty)],
            "compare": ["compare", "--model", model_path, "--input", str(empty),
                        "--backend", BACKEND],
            "fit-layer": ["fit-layer", "--data", str(empty), "--g", "4", "--k", "2",
                          "--out", str(tmp_path / "model.json")],
            "fit-activation": ["fit-activation", "--samples", str(empty),
                               "--degree", "3"]}[command]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert f"error: {empty}: holds no rows" in err
    assert "Warning" not in err and not caught


class TestFitLayer:
    def test_fits_and_saves_model(self, tmp_path):
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, 300)
        data = tmp_path / "data.csv"
        np.savetxt(data, np.column_stack([x, np.exp(np.sin(np.pi * x))]), delimiter=",")
        out = tmp_path / "model.json"
        rc = main(["fit-layer", "--data", str(data), "--g", "8", "--k", "3",
                   "--out", str(out)])
        assert rc == 0
        mdl = load_model(out)
        assert mdl.layers[0].g == 8


class TestInfer:
    def test_plain_modes_agree_with_good_poly(self, model_path, input_path, tmp_path):
        results = {}
        for mode in ("plain-exact", "plain-mirrored"):
            out = tmp_path / f"{mode}.json"
            rc = main(["infer", "--model", model_path, "--input", input_path,
                       "--mode", mode, "--comparator", "exact", "--out", str(out)])
            assert rc == 0
            results[mode] = np.asarray(json.loads(out.read_text())["outputs"])
        # the random model carries a moderate-degree activation fit
        assert np.max(np.abs(results["plain-exact"] - results["plain-mirrored"])) <= 1e-2

    def test_he_matches_mirrored(self, model_path, input_path, tmp_path):
        outs = {}
        for mode in ("plain-mirrored", "he"):
            out = tmp_path / f"{mode}.json"
            rc = main(["infer", "--model", model_path, "--input", input_path,
                       "--mode", mode, "--backend", BACKEND, "--out", str(out)])
            assert rc == 0
            outs[mode] = np.asarray(json.loads(out.read_text())["outputs"])
        assert np.max(np.abs(outs["he"] - outs["plain-mirrored"])) <= 1e-9

    def test_he_result_includes_stats(self, model_path, input_path, tmp_path):
        out = tmp_path / "res.json"
        rc = main(["infer", "--model", model_path, "--input", input_path,
                   "--mode", "he", "--backend", BACKEND, "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["stats"][0]["levels"] > 0

    def test_shape_mismatch_exit_code(self, model_path, tmp_path):
        bad = tmp_path / "bad.csv"
        np.savetxt(bad, np.ones((2, 3)), delimiter=",")
        rc = main(["infer", "--model", model_path, "--input", str(bad),
                   "--mode", "plain-exact"])
        assert rc == 2

    def test_non_finite_input_exit_code(self, model_path, tmp_path):
        bad = tmp_path / "nan.csv"
        np.savetxt(bad, [[0.1, np.nan, 0.2, 0.3]], delimiter=",")
        rc = main(["infer", "--model", model_path, "--input", str(bad),
                   "--mode", "he", "--backend", BACKEND])
        assert rc == 2

    @pytest.mark.parametrize("mode", ["he", "plain-exact", "plain-mirrored"])
    def test_input_the_model_rejects_exit_code(self, tmp_path, capsys, mode):
        # R = 2.8: 5.0 used to decrypt to NaN and to give NaN in plain-mirrored,
        # and NaN ran in plain-exact, with rc 0
        path = tmp_path / "m.json"
        save_model(random_model([2, 3], g=3, k=2, seed=0), path)
        bad = tmp_path / "bad.csv"
        bad.write_text("nan,0.2\n" if mode == "plain-exact" else "5.0,0.2\n")
        rc = main(["infer", "--model", str(path), "--input", str(bad), "--mode", mode])
        assert rc == 2
        assert "output:" not in capsys.readouterr().out

    def test_he_result_has_per_layer_counts(self, model_path, input_path, tmp_path):
        out = tmp_path / "res.json"
        rc = main(["infer", "--model", model_path, "--input", input_path,
                   "--mode", "he", "--backend", BACKEND, "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert len(doc["stats"]) == 2
        for entry in doc["stats"]:
            assert set(entry) == {"levels", "per_layer"}
            assert [set(c) for c in entry["per_layer"]] == [
                {"adds", "subs", "ct_mults", "pt_mults", "rotations"}]
            assert entry["per_layer"][0]["rotations"] > 0

    def test_k_zero_model_exit_code(self, input_path, tmp_path):
        path = tmp_path / "k0.json"
        save_model(random_model([4, 3], g=4, k=0, seed=1), path)
        rc = main(["infer", "--model", str(path), "--input", input_path,
                   "--mode", "he", "--backend", BACKEND])
        assert rc == 2

    def test_k_zero_model_mirrored_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "k0.json"
        save_model(random_model([2, 3, 1], g=3, k=0, seed=0), path)
        inputs = tmp_path / "x.csv"
        inputs.write_text("0.4,-0.3\n")
        rc = main(["infer", "--model", str(path), "--input", str(inputs),
                   "--mode", "plain-mirrored"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "k >= 1" in captured.err and "output:" not in captured.out

    def test_model_too_wide_for_slots_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "wide.json"
        save_model(random_model([9, 29], g=1, k=1, seed=3), path)
        inputs = tmp_path / "x.csv"
        np.savetxt(inputs, np.zeros((1, 9)), delimiter=",")
        rc = main(["infer", "--model", str(path), "--input", str(inputs), "--mode", "he",
                   "--backend", '{"slot_count": 64, "depth_budget": 16}'])
        assert rc == 2
        assert "8 copies of 9 slots exceed 64" in capsys.readouterr().err

    def test_depth_budget_exit_code(self, model_path, input_path):
        rc = main(["infer", "--model", model_path, "--input", input_path,
                   "--mode", "he", "--backend", '{"slot_count": 512, "depth_budget": 4}'])
        assert rc == 4


class TestBench:
    def test_two_configs_two_rows_with_ratio(self, model_path, input_path, tmp_path):
        cfgs = tmp_path / "cfgs.json"
        cfgs.write_text(json.dumps([
            {"path": "lazy", "label": "run"},
            {"path": "naive", "label": "run"},
        ]))
        out = tmp_path / "bench.csv"
        rc = main(["bench", "--model", model_path, "--configs", str(cfgs),
                   "--inputs", input_path, "--backend", BACKEND, "--out", str(out)])
        assert rc == 0
        rows = _csv_rows(out)
        assert len(rows) == 2
        lazy = next(r for r in rows if r["path"] == "lazy")
        assert float(lazy["speedup_vs_naive_counts"]) > 1.0

    def test_default_input_stays_within_R(self, tmp_path):
        # R = 0.72: the default random input is drawn inside [-R, R]
        path = tmp_path / "narrow.json"
        save_model(random_model([4, 3], g=4, k=2, seed=1, lo=-0.3, hi=0.3), path)
        cfgs = tmp_path / "cfgs.json"
        cfgs.write_text(json.dumps([{"path": "lazy"}]))
        rc = main(["bench", "--model", str(path), "--configs", str(cfgs), "--backend", BACKEND])
        assert rc == 0

    def test_empty_configs_usage_error(self, model_path, tmp_path):
        cfgs = tmp_path / "cfgs.json"
        cfgs.write_text("[]")
        rc = main(["bench", "--model", model_path, "--configs", str(cfgs)])
        assert rc == 2

    @pytest.mark.parametrize("entry", [
        {"path": "sideways"},
        {"pathh": "naive"},
        {"backend": {"slot_count": 512, "depth_budget": 40, "slots": 512}},
        {"bsgs_split": [4, 4]},  # the split is derived from each matrix
        {"alpha": "x"},
        {"alpha": -3},           # delta = 8: the certified interval is empty
        {"check_range": True},   # removed: the range is the model's contract
    ], ids=["bad_path", "unknown_key", "unknown_backend_key", "bsgs_split",
            "alpha_string", "alpha_negative", "check_range_removed"])
    def test_malformed_configs_usage_error(self, model_path, tmp_path, capsys, entry):
        cfgs = tmp_path / "cfgs.json"
        cfgs.write_text(json.dumps([{"path": "lazy"}, entry]))
        rc = main(["bench", "--model", model_path, "--configs", str(cfgs), "--backend", BACKEND])
        assert rc == 2
        assert "--configs" in capsys.readouterr().err

    def test_integer_backend_is_a_usage_error(self, model_path, tmp_path, capsys):
        # an integer is not a path: it is rejected, never opened as a file
        # descriptor (this one was open a moment ago, so nothing holds it)
        fd = os.open(os.devnull, os.O_RDONLY)
        os.close(fd)
        cfgs = tmp_path / "cfgs.json"
        cfgs.write_text(json.dumps([{"path": "lazy", "backend": fd}]))
        rc = main(["bench", "--model", model_path, "--configs", str(cfgs)])
        assert rc == 2
        assert "--configs" in capsys.readouterr().err

    def test_configs_not_json_usage_error(self, model_path, tmp_path):
        cfgs = tmp_path / "cfgs.json"
        cfgs.write_text("[{")
        rc = main(["bench", "--model", model_path, "--configs", str(cfgs)])
        assert rc == 2

    def test_deterministic_under_seed(self, model_path, tmp_path):
        cfgs = tmp_path / "cfgs.json"
        cfgs.write_text(json.dumps([{"path": "lazy"}, {"path": "naive"}]))
        snapshots = []
        for run in range(2):
            out = tmp_path / f"bench{run}.csv"
            rc = main(["--seed", "9", "bench", "--model", model_path,
                       "--configs", str(cfgs), "--backend", BACKEND,
                       "--out", str(out)])
            assert rc == 0
            rows = _csv_rows(out)
            snapshots.append([{k: v for k, v in row.items() if k != "wall_ms"}
                              for row in rows])
        assert snapshots[0] == snapshots[1]


class TestCompare:
    def test_reports_deviations(self, model_path, input_path, tmp_path):
        out = tmp_path / "cmp.json"
        rc = main(["compare", "--model", model_path, "--input", input_path,
                   "--backend", BACKEND, "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert len(doc) == 2
        assert doc[0]["max_dev_he_vs_mirrored"] <= 1e-9


class TestDefaultBackendDepth:
    """With no --backend, the default backend's depth budget is the plan's
    total: a [2, 3, 1] model with g=5, k=3 plans 30 levels lazy and 32
    naive with the default (composite) comparator."""

    @pytest.fixture
    def files(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(random_model([2, 3, 1], g=5, k=3, seed=0), path)
        row = tmp_path / "row.csv"
        row.write_text("0.4,-0.3\n")
        return str(path), str(row)

    @pytest.mark.parametrize("path", ["lazy", "naive"])
    def test_infer_he_equals_mirrored(self, files, tmp_path, path):
        model, row = files
        outputs = {}
        for mode in ("he", "plain-mirrored"):
            out = tmp_path / f"{mode}.json"
            rc = main(["infer", "--model", model, "--input", row, "--mode", mode,
                       "--path", path, "--out", str(out)])
            assert rc == 0
            outputs[mode] = np.array(json.loads(out.read_text())["outputs"])
        doc = json.loads((tmp_path / "he.json").read_text())
        assert doc["stats"][0]["levels"] == {"lazy": 28, "naive": 30}[path]
        assert np.max(np.abs(outputs["he"] - outputs["plain-mirrored"])) <= 1e-9

    def test_compare(self, files, tmp_path):
        model, row = files
        out = tmp_path / "cmp.json"
        assert main(["compare", "--model", model, "--input", row, "--out", str(out)]) == 0
        assert json.loads(out.read_text())[0]["max_dev_he_vs_mirrored"] <= 1e-9

    def test_bench_takes_the_largest_plan(self, files, tmp_path):
        model, _ = files
        cfgs = tmp_path / "cfgs.json"
        cfgs.write_text(json.dumps([{"path": "lazy"}, {"path": "naive"}]))
        out = tmp_path / "bench.csv"
        rc = main(["bench", "--model", model, "--configs", str(cfgs), "--out", str(out)])
        assert rc == 0
        assert [int(r["depth"]) for r in _csv_rows(out)] == [28, 30]


class TestRangeContract:
    """Every layer's input lies in its grid's [-R, R]. With layer 0's S
    scaled by 14, the input (0.4, -0.3) of random_model([2, 3, 1], g=5,
    k=3, seed=0) lies inside layer 0's R = 2.64 but gives layer 1 an input
    of 3.22: the encrypted output is about -27.9 against an exact -0.39,
    past twice the model's output bound (1.07) plus 1."""

    @pytest.fixture
    def files(self, tmp_path):
        mdl = random_model([2, 3, 1], g=5, k=3, seed=0)
        mdl.layers[0] = replace(mdl.layers[0], S=mdl.layers[0].S * 14)
        path = tmp_path / "m.json"
        save_model(mdl, path)
        row = tmp_path / "row.csv"
        row.write_text("0.4,-0.3\n")
        return ["--model", str(path), "--input", str(row),
                "--backend", '{"slot_count": 4096, "depth_budget": 80}']

    @pytest.mark.parametrize("command", [["compare"], ["infer", "--mode", "plain-mirrored"]],
                             ids=["compare", "plain-mirrored"])
    @pytest.mark.parametrize("comparator", ["composite", "exact"])
    def test_hidden_layer_overflow_is_usage_error(self, files, capsys, command, comparator):
        rc = main([*command, *files, "--comparator", comparator])
        assert rc == 2
        captured = capsys.readouterr()
        assert "layer 1" in captured.err
        assert "output:" not in captured.out and "|he - mirrored|" not in captured.out

    def test_encrypted_infer_rejects_the_diverged_output(self, files, capsys):
        # the client cannot see layer 1's input, only the output it decrypts
        rc = main(["infer", *files])
        assert rc == 3
        captured = capsys.readouterr()
        assert "diverged" in captured.err and "output:" not in captured.out

    @pytest.mark.parametrize("command", ["infer", "compare"])
    def test_check_range_flag_is_gone(self, files, command):
        with pytest.raises(SystemExit) as err:
            main([command, *files, "--check-range"])
        assert err.value.code == 2


class TestDivergedOutput:
    """A decrypted NaN is a numerical failure, never printed as a result,
    and so is a finite output past twice the model's output bound plus 1.
    With the default comparator the forward reads -0.0928 at sigma = 1e-9
    and -0.360 at 5e-3 (exact -0.0925, bound 1.64), diverges to 3.9e149 at
    1e-2 and overflows to NaN at 5e-2."""

    @pytest.fixture
    def files(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(random_model([2, 5, 1], g=5, k=3, seed=1), path)
        row = tmp_path / "row.csv"
        row.write_text("0.4,-0.3\n")
        return ["--model", str(path), "--input", str(row)]

    @pytest.mark.parametrize("command", ["infer", "compare"])
    @pytest.mark.parametrize("noise,rc", [(1e-2, 3), (5e-2, 3), (5e-3, 0), (1e-9, 0), (0.0, 0)])
    def test_non_finite_output_is_a_numerical_failure(self, files, capsys, command,
                                                      noise, rc):
        backend = json.dumps({"slot_count": 4096, "depth_budget": 80, "noise_std": noise})
        with np.errstate(over="ignore", invalid="ignore"):
            assert main([command, *files, "--backend", backend]) == rc
        captured = capsys.readouterr()
        assert "nan" not in captured.out
        assert ("NaN or infinity" in captured.err) is (rc == 3)


def _input_args(command, inputs, tmp_path):
    """The arguments that give infer, compare or bench the input file."""
    cfgs = tmp_path / "cfgs.json"
    cfgs.write_text(json.dumps([{"path": "lazy"}]))
    return {"infer": ["--input", str(inputs)], "compare": ["--input", str(inputs)],
            "bench": ["--inputs", str(inputs), "--configs", str(cfgs)]}[command]


class TestUsage:
    @pytest.mark.parametrize("command", ["infer", "compare", "bench"])
    def test_non_numeric_inputs_usage_exit(self, model_path, tmp_path, command):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c,d\n")
        extra = _input_args(command, bad, tmp_path)
        rc = main([command, "--model", model_path, "--backend", BACKEND, *extra])
        assert rc == 2

    @pytest.mark.parametrize("command", ["infer", "compare", "bench"])
    @pytest.mark.parametrize("backend", [
        '{"slot_count": 512, depth_budget: 40}',
        '{"slot_count": 512, "depth_budget": 40, "slots": 512}',
        '{"slot_count": 3, "depth_budget": 40}',
        '{"slot_count": 512}',
        '{"slot_count": 512, "depth_budget": 40, "rng_seed": -1, "noise_std": 1e-12}',
        '{"slot_count": 512, "depth_budget": 40, "rng_seed": 1.5}',
        '{"slot_count": 512, "depth_budget": 40, "noise_std": NaN}',
        '{"slot_count": 512, "depth_budget": 40, "noise_std": true}',
        '{"slot_count": 512, "depth_budget": 40, "noise_std": "0.1"}',
        '{"slot_count": 512, "depth_budget": 40.5}',
        '{"slot_count": 512, "depth_budget": true}',
    ], ids=["not_json", "unknown_key", "slot_count_not_power_of_two", "no_depth_budget",
            "negative_rng_seed", "fractional_rng_seed", "nan_noise_std", "bool_noise_std",
            "string_noise_std", "fractional_depth_budget", "bool_depth_budget"])
    def test_malformed_backend_usage_exit(self, model_path, input_path, tmp_path, capsys,
                                          command, backend):
        extra = _input_args(command, input_path, tmp_path)
        rc = main([command, "--model", model_path, "--backend", backend, *extra])
        assert rc == 2
        assert "--backend" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["infer", "compare", "bench"])
    def test_input_copies_past_the_slots_usage_exit(self, tmp_path, capsys, command):
        # basis_copies(3, 1) = 8 copies of 8 values need 64 slots: the fit
        # law rejects them at encryption
        path = tmp_path / "m.json"
        save_model(random_model([8, 2], g=3, k=1, seed=0), path)
        inputs = tmp_path / "x.csv"
        np.savetxt(inputs, np.zeros((1, 8)), delimiter=",")
        extra = _input_args(command, inputs, tmp_path)
        rc = main([command, "--model", str(path), *extra,
                   "--backend", '{"slot_count": 4, "depth_budget": 40}'])
        assert rc == 2
        assert "error: 8 copies of 8 slots exceed 4 slots" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["infer", "compare", "bench"])
    def test_negative_seed_usage_exit(self, model_path, input_path, tmp_path, capsys, command):
        # the default backend takes its rng_seed from --seed
        extra = _input_args(command, input_path, tmp_path)
        rc = main(["--seed", "-1", command, "--model", model_path, *extra])
        assert rc == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["fit-layer", "--data"],
        ["fit-activation", "--degree", "3", "--samples"],
    ], ids=["fit-layer", "fit-activation"])
    def test_non_numeric_fit_file_usage_exit(self, tmp_path, command):
        bad = tmp_path / "bad.csv"
        bad.write_text("0.5,1.0\nx,2.0\n")
        assert main([*command, str(bad)]) == 2

    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
    def test_non_finite_fit_layer_data_usage_exit(self, tmp_path, capsys, bad):
        data = tmp_path / "data.csv"
        data.write_text(f"0.5,0.1\n{bad},0.2\n-0.5,0.3\n")
        assert main(["fit-layer", "--data", str(data)]) == 2
        err = capsys.readouterr().err
        assert str(data) in err and "NaN or infinity" in err

    @pytest.mark.parametrize("args", [
        ["fit-activation", "--mu", "0", "--sigma", "1", "--degree", "-1"],
        ["fit-activation", "--samples", "{data}", "--x-min", "1", "--x-max", "0",
         "--degree", "3"],
        ["fit-layer", "--data", "{data}", "--g", "0"],
        ["fit-layer", "--data", "{data}", "--k", "-1"],
        ["fit-layer", "--data", "{data}", "--targets", "0"],
        ["fit-layer", "--data", "{data}", "--grid-lo", "1", "--grid-hi", "0"],
        ["fit-layer", "--data", "{data}", "--silu-degree", "-2"],
        ["fit-activation", "--mu", "0", "--sigma", "1", "--degree", "3", "--factor", "-1"],
        ["fit-activation", "--mu", "0", "--sigma", "-1", "--degree", "3"],
        ["fit-activation", "--mu", "0", "--sigma", "1", "--degree", "3", "--factor", "0",
         "--method", "remez"],
        ["fit-activation", "--mu", "0", "--sigma", "1", "--degree", "3", "--x-min", "0",
         "--x-max", "0"],
        ["fit-activation", "--mu", "nan", "--sigma", "1", "--degree", "3"],
        ["fit-activation", "--mu", "0", "--sigma", "inf", "--degree", "3"],
        ["fit-activation", "--mu", "0", "--sigma", "1e308", "--degree", "3"],
        ["fit-layer", "--data", "{data}", "--ridge", "-1"],
        ["fit-layer", "--data", "{data}", "--ridge", "nan"],
        ["fit-activation", "--mu", "0", "--sigma", "1", "--degree", "128"],
        ["fit-activation", "--mu", "0", "--sigma", "1", "--degree", "128", "--method", "remez"],
        ["fit-layer", "--data", "{data}", "--silu-degree", "128"],
    ], ids=["degree", "x-range", "g", "k", "targets", "grid-range", "silu-degree",
            "negative-factor", "negative-sigma", "zero-factor-remez", "empty-clip",
            "nan-mu", "inf-sigma", "overflowing-sigma", "negative-ridge", "nan-ridge",
            "degree-above-max", "remez-degree-above-max", "silu-degree-above-max"])
    def test_fit_argument_out_of_domain_usage_exit(self, tmp_path, capsys, args):
        data = tmp_path / "data.csv"
        x = np.random.default_rng(5).uniform(-1, 1, 50)
        np.savetxt(data, np.column_stack([x, np.sin(x)]), delimiter=",")
        rc = main([a.format(data=data) for a in args])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_flag_rejected(self, model_path):
        with pytest.raises(SystemExit) as err:
            main(["infer", "--model", model_path, "--bogus", "1"])
        assert err.value.code == 2

    def test_missing_model_file(self, input_path):
        rc = main(["infer", "--model", "/does/not/exist.json",
                   "--input", input_path, "--mode", "plain-exact"])
        assert rc == 2

    @pytest.mark.parametrize("command", [
        ["infer", "--model", "{dir}", "--input", "{input}"],
        ["compare", "--model", "{model}", "--input", "{dir}"],
        ["fit-activation", "--degree", "3", "--mu", "0", "--sigma", "1", "--out", "{dir}"],
    ], ids=["infer-model", "compare-input", "fit-activation-out"])
    def test_path_that_cannot_be_opened_usage_exit(self, tmp_path, capsys, model_path,
                                                   input_path, command):
        # a directory where a file is expected: IsADirectoryError, an OSError
        rc = main([a.format(dir=tmp_path, model=model_path, input=input_path)
                   for a in command])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Is a directory" in err


def _set_lo_above_hi(layer):
    u = layer["uniform_grid"]
    u["lo"], u["hi"] = u["hi"], u["lo"]


def _declare_wrong_shape(layer):
    # an explicit grid, so n_i is not needed to build it
    u = layer.pop("uniform_grid")
    grid = GridMatrix.uniform(layer["n_i"], layer["g"], layer["k"], u["lo"], u["hi"],
                              R=layer["R"])
    layer.update(grid=grid.entries.tolist(), n_i=77, n_o=99)


def _set_nan_knot(layer):
    u = layer.pop("uniform_grid")
    grid = GridMatrix.uniform(layer["n_i"], layer["g"], layer["k"], u["lo"], u["hi"],
                              R=layer["R"]).entries.tolist()
    grid[0][3] = float("nan")
    layer["grid"] = grid


MALFORMED_MODELS = {
    "input_shape_not_hwc": lambda doc: doc.update(input_shape=[4]),
    "negative_R": lambda doc: doc["layers"][0].update(R=-1),
    "silu_poly_not_numbers": lambda doc: doc["layers"][0].update(silu_poly="abc"),
    "act_stats_empty": lambda doc: doc["layers"][0].update(act_stats={}),
    "uniform_grid_lo_above_hi": lambda doc: _set_lo_above_hi(doc["layers"][0]),
    "W_b_wrong_shape": lambda doc: doc["layers"][0].update(W_b=[[0.0, 1.0]]),
    "no_layers": lambda doc: doc.update(layers=[]),
    "declared_shape_not_W_b": lambda doc: _declare_wrong_shape(doc["layers"][0]),
    "R_below_largest_knot": lambda doc: doc["layers"][0].update(R=0.5),
    "R_infinite": lambda doc: [layer.update(R=float("inf")) for layer in doc["layers"]],
    "knot_nan": lambda doc: _set_nan_knot(doc["layers"][0]),
    "W_b_nan": lambda doc: doc["layers"][0]["W_b"][0].__setitem__(1, float("nan")),
    "S_inf": lambda doc: doc["layers"][0]["S"][1][0].__setitem__(2, float("inf")),
    "silu_poly_nan": lambda doc: doc["layers"][0]["silu_poly"].__setitem__(0, float("nan")),
}


class TestMalformedModel:
    @pytest.mark.parametrize("mutate", MALFORMED_MODELS.values(), ids=MALFORMED_MODELS.keys())
    def test_schema_mismatch_and_usage_exit(self, mutate, model_path, input_path):
        with open(model_path) as fh:
            doc = json.load(fh)
        mutate(doc)
        with open(model_path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(SchemaMismatch):
            load_model(model_path)
        rc = main(["infer", "--model", model_path, "--input", input_path,
                   "--mode", "plain-exact"])
        assert rc == 2

    def test_corrupt_file_usage_exit(self, input_path, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{this is not json")
        rc = main(["infer", "--model", str(path), "--input", input_path,
                   "--mode", "plain-exact"])
        assert rc == 2


# Every HeKanError type in hekan.errors with the exit code and stderr prefix
# main gives it. A type added without a category has no entry and fails.
USAGE = ("InvalidArgument", "ShapeMismatch", "SchemaMismatch", "CorruptFile",
         "NonFiniteInput", "InputOutOfRange", "UnsupportedLayer", "EmptySamples",
         "DimensionMismatch", "PackingOverflow")
NUMERIC = ("IllConditioned", "RemezNonConvergence", "SingularSystem", "NonFiniteOutput")
INTERNAL = ("LengthMismatch", "DepthExhausted", "InputTooLong", "IndexOutOfRange",
            "InsufficientKnots")
EXIT_BY_TYPE = {
    **{name: (2, "error:") for name in USAGE + ("UsageError",)},
    **{name: (3, "numerical failure:") for name in NUMERIC + ("NumericalFailure",)},
    **{name: (3, "error:") for name in INTERNAL + ("HeKanError",)},
    "DepthBudgetInfeasible": (4, "depth budget infeasible:"),
}
ERROR_TYPES = [t for t in vars(errors).values()
               if isinstance(t, type) and issubclass(t, errors.HeKanError)]


@pytest.mark.parametrize("error_type", ERROR_TYPES, ids=lambda t: t.__name__)
def test_exit_code_follows_error_category(monkeypatch, capsys, error_type):
    def stub(args):
        raise error_type("stub failure")

    monkeypatch.setattr(cli, "cmd_fit_activation", stub)
    code, prefix = EXIT_BY_TYPE[error_type.__name__]
    assert main(["fit-activation", "--degree", "3"]) == code
    assert capsys.readouterr().err.startswith(prefix)
