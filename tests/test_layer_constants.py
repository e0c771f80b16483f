"""A layer's constant plaintexts are built once: the matvec schedules and
their diagonals, the knot tiles and the permutation. The layer's matrices
are read-only, so none of them can go stale."""

import copy
import dataclasses
import gc
import weakref
from functools import cached_property

import numpy as np
import pytest

from hekan import backend, bspline, matvec, model
from hekan.approx import EXACT_COMPARATOR, build_composite_sign
from hekan.backend import BackendConfig, make_backend
from hekan.inference import (
    PipelineConfig,
    bsgs_matvec,
    encrypt_input,
    model_forward_he,
    plan_model,
)
from hekan.matvec import MatvecSchedule, matvec_schedule
from hekan.model import model_forward_plain, random_model

PATHS = ("lazy", "naive")


def _forward(mdl, path, noise=0.0, x=None):
    """One encrypted forward on a fresh backend: (decrypted slots, levels
    left, per-layer counters)."""
    depth = plan_model(mdl, PipelineConfig(path=path)).total
    bcfg = BackendConfig(slot_count=512, depth_budget=depth, noise_std=noise, rng_seed=3)
    cfg = PipelineConfig(path=path, backend=bcfg)
    be = make_backend(bcfg)
    if x is None:
        x = np.linspace(-0.8, 0.7, mdl.n_in)
    out, per_layer = model_forward_he(mdl, encrypt_input(x, mdl, be), cfg)
    return be.decrypt(out), out.level, per_layer


@pytest.fixture
def builds(monkeypatch):
    """Counts of the builders of every layer constant: matvec schedules,
    a schedule's diagonals, knot tiles and permutations."""
    counts = {"schedule": 0, "diagonals": 0, "tiles": 0, "permutation": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(matvec, "_build_schedule",
                        counting("schedule", matvec._build_schedule))
    monkeypatch.setattr(bspline, "basis_tiles", counting("tiles", bspline.basis_tiles))
    monkeypatch.setattr(model, "gen_permutation",
                        counting("permutation", model.gen_permutation))
    prop = cached_property(counting("diagonals", MatvecSchedule.all_diagonals.func))
    prop.__set_name__(MatvecSchedule, "all_diagonals")
    monkeypatch.setattr(MatvecSchedule, "all_diagonals", prop)
    return counts


class TestBuiltOnce:
    @pytest.mark.parametrize("path", PATHS)
    def test_second_forward_builds_nothing(self, request, path):
        mdl = random_model([3, 4, 2], g=3, k=2, seed=1)
        plan_model(mdl, PipelineConfig(path=path))  # the planner's stand-in builds its own
        builds = request.getfixturevalue("builds")
        first = _forward(mdl, path)
        assert builds["schedule"] > 0 and builds["diagonals"] > 0
        assert builds["tiles"] == 2
        assert builds["permutation"] == 2  # one per layer, lazy or naive
        done = dict(builds)
        second = _forward(mdl, path)
        model_forward_plain(mdl, np.linspace(-0.8, 0.7, 3), mode="mirrored",
                            comparator=build_composite_sign(), path=path)
        assert builds == done
        np.testing.assert_array_equal(first[0].view(np.int64), second[0].view(np.int64))

    @pytest.mark.parametrize("noise", [0.0, 1e-12])
    @pytest.mark.parametrize("path", PATHS)
    def test_cold_copy_equals_warm_model(self, path, noise):
        mdl = random_model([3, 4, 2], g=3, k=2, seed=2)
        cold = copy.deepcopy(mdl)
        _forward(mdl, path, noise)
        warm_slots, warm_level, warm_counts = _forward(mdl, path, noise)
        cold_slots, cold_level, cold_counts = _forward(cold, path, noise)
        np.testing.assert_array_equal(warm_slots.view(np.int64), cold_slots.view(np.int64))
        assert warm_level == cold_level and warm_counts == cold_counts

    def test_one_schedule_per_layer_matrix(self):
        layer = random_model([3, 2], g=3, k=2, seed=3).layers[0]
        for W in (layer.W_b, layer.w_prime, layer.w_fused, layer.permutation):
            assert matvec_schedule(W) is matvec_schedule(W)
        assert layer.spline_maps("naive")[0] is layer.permutation


class TestMemo:
    @pytest.mark.parametrize("shape", [(3, 8), (8, 8)], ids=["padded", "unpadded"])
    def test_entry_dies_with_its_matrix(self, shape):
        W = np.random.default_rng(4).normal(size=shape)
        W.setflags(write=False)
        key, ref = id(W), weakref.ref(W)
        sched = matvec_schedule(W)
        assert matvec_schedule(W) is sched and key in matvec._memo
        del W
        gc.collect()
        assert ref() is None and key not in matvec._memo
        sched.all_diagonals  # the schedule itself still works

    def test_models_leave_no_entries(self):
        before = len(matvec._memo)
        for seed in range(3):
            mdl = random_model([3, 4, 2], g=3, k=2, seed=seed)
            for path in PATHS:
                _forward(mdl, path)
            assert len(matvec._memo) > before
        del mdl
        gc.collect()
        assert len(matvec._memo) == before

    def test_writeable_matrix_is_read_on_every_call(self):
        be = make_backend(BackendConfig(slot_count=64, depth_budget=4))
        W = np.arange(24.0).reshape(3, 8)
        v = np.linspace(-1, 1, 8)
        assert matvec_schedule(W) is not matvec_schedule(W)
        bsgs_matvec(W, be.encrypt(v))
        W[1, 2] = -7.0
        got = be.decrypt(bsgs_matvec(W, be.encrypt(v)))[:3]
        np.testing.assert_allclose(got, W @ v, rtol=1e-12)

    def test_read_only_view_of_a_writeable_base_is_not_memoised(self):
        base = np.ones((3, 8))
        view = base[:]
        view.setflags(write=False)
        assert matvec_schedule(view) is not matvec_schedule(view)
        spec = bspline.PermutationSpec(2, 2, np.array([0, 2, 1, 3]))
        assert matvec_schedule(spec) is not matvec_schedule(spec)

    def test_shared_schedule_holds_its_own_matrix(self):
        W = np.eye(8)
        W.setflags(write=False)
        sched = matvec_schedule(W)
        assert sched.W is not W and np.array_equal(sched.W, W)


class TestReadOnly:
    def test_layer_constants_reject_in_place_writes(self):
        layer = random_model([3, 2], g=3, k=2, seed=5).layers[0]
        sched = matvec_schedule(layer.w_fused)
        targets = [layer.W_b, layer.S, layer.w_prime, layer.w_fused,
                   sched.all_diagonals, sched.diagonals(range(2)),
                   sched.W, layer.permutation.source_of, layer.grid.tiles[0],
                   layer.grid.tiles[1][0]]
        for a in targets:
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 1.0

    @pytest.mark.parametrize("name", ["W_b", "S"])
    def test_layer_rejects_rebinding(self, name):
        # a rebound weight would leave w_prime, w_fused and the schedules
        # computed from the old one
        layer = random_model([2, 3, 1], g=5, k=3, seed=0).layers[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(layer, name, getattr(layer, name) * 2)

    def test_layer_keeps_its_own_copies(self):
        W_b = np.ones((2, 3))
        layer = random_model([3, 2], g=3, k=2, seed=6).layers[0]
        fresh = model.KanLayer(W_b=W_b, S=layer.S, grid=layer.grid,
                               silu_poly=layer.silu_poly)
        assert W_b.flags.writeable and fresh.W_b is not W_b
        assert fresh.S is not layer.S


class TestKnotTilesAtThePackedWidth:
    """The knot tiles span the window the basis reads (repeat_pack's, one
    doubling past the paper's g + 2k copies when g + 2k is a power of
    two), so no tile op of the basis evaluation on a layer-0 packed input
    copies a tile into a wider window (backend._place), before or after the
    comparator's step is read one block ahead."""

    @pytest.mark.parametrize("n_i, g, k", [(64, 3, 2), (256, 10, 3), (256, 10, 5)])
    @pytest.mark.parametrize("comparator", [EXACT_COMPARATOR, build_composite_sign()],
                             ids=["exact", "composite"])
    def test_no_tile_is_copied(self, monkeypatch, n_i, g, k, comparator):
        G = bspline.GridMatrix.uniform(n_i, g, k, -1.0, 1.0)
        be = make_backend(BackendConfig(slot_count=2 ** 15, depth_budget=20))
        x = be.encrypt(np.random.default_rng(n_i).uniform(-1, 1, n_i))
        xp = bspline.repeat_pack(x, G)
        knots, orders = G.tiles
        tiles = (knots, *orders)
        copied = []

        def spy(start, data, *args):
            copied.extend(t for t in tiles if np.shares_memory(data, t))
            return place(start, data, *args)

        place = backend._place
        monkeypatch.setattr(backend, "_place", spy)
        bspline.bspline_basis_he(xp, G, comparator)
        assert copied == []
        assert xp.start == 0 and xp.data.size == n_i * bspline.basis_copies(g, k)
        assert all(t.shape[-1] == n_i * bspline.basis_copies(g, k) for t in tiles)
