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

from hekan import backend, bspline, inference, model
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


def _forward(mdl, path, noise=0.0, x=None, slots=512):
    """One encrypted forward on a fresh backend: (decrypted slots, levels
    left, per-layer counters)."""
    depth = plan_model(mdl, PipelineConfig(path=path)).total
    bcfg = BackendConfig(slot_count=slots, depth_budget=depth, noise_std=noise, rng_seed=3)
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

    monkeypatch.setattr(inference, "matvec_schedule",
                        counting("schedule", inference.matvec_schedule))
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


class TestLayoutKeepsSchedules:
    """A layer's matvec schedules live in its layout, one record per (path,
    comparator), shared by every slot count and the mirror; matvec_schedule
    itself keeps nothing."""

    @pytest.mark.parametrize("path", PATHS)
    def test_one_record_per_path_and_comparator(self, request, path):
        mdl = random_model([3, 4, 2], g=3, k=2, seed=1)
        plan_model(mdl, PipelineConfig(path=path))  # the planner's stand-in builds its own
        builds = request.getfixturevalue("builds")
        x = np.linspace(-0.8, 0.7, 3)
        _forward(mdl, path, x=x, slots=512)
        done = dict(builds)
        _forward(mdl, path, x=x, slots=1024)
        model_forward_plain(mdl, x, mode="mirrored", comparator=build_composite_sign(),
                            path=path)
        assert builds == done
        kept = [sched for layer in mdl.layers for layout in layer.layouts.values()
                for sched in (layout.base, *layout.maps)]
        assert builds["diagonals"] == sum(sched.W is not None for sched in kept)
        for layer in mdl.layers:
            assert list(layer.layouts) == [(path, build_composite_sign())]
            layout = inference._layout(layer, path, build_composite_sign())
            assert layer.layouts[(path, build_composite_sign())] is layout
            assert len(layout.maps) == len(layer.spline_maps(path))

    @pytest.mark.parametrize("path", PATHS)
    def test_comparators_keep_their_own_schedules(self, request, path):
        # the two comparators' records of one path choose alike (W_b's block
        # sum on the last map's geometry) but share no schedule object; each
        # schedule builds its diagonals once, and a second mirror builds none
        mdl = random_model([256, 10], g=10, k=5, seed=0)
        for mode in ("composite", "exact"):  # the planner's stand-ins build their own
            plan_model(mdl, PipelineConfig(path=path, comparator_mode=mode))
        builds = request.getfixturevalue("builds")
        comparators = (build_composite_sign(), EXACT_COMPARATOR)
        x = np.linspace(-0.8, 0.7, 256)
        for comparator in comparators:
            model_forward_plain(mdl, x, mode="mirrored", comparator=comparator, path=path)
        done = dict(builds)
        for comparator in comparators:
            model_forward_plain(mdl, x, mode="mirrored", comparator=comparator, path=path)
        assert builds == done
        layer = mdl.layers[0]
        first, second = (layer.layouts[(path, comparator)] for comparator in comparators)
        assert len(first.maps) == len(second.maps) == len(layer.spline_maps(path))
        assert first.base.unfolded and second.base.unfolded
        assert [s.geometry for s in first.maps] == [s.geometry for s in second.maps]
        kept = [s for layout in (first, second) for s in (layout.base, *layout.maps)]
        assert len({id(s) for s in kept}) == len(kept)
        assert builds["diagonals"] == sum(s.W is not None for s in kept)

    def test_records_hold_their_own_schedules(self):
        # the four (path, comparator) records of one layer share no schedule
        # object: each keeps its own 22.5 KB copy of W_b's diagonals
        # (gcd(11, 256) = 1 of lcm(11, 256) = 2816 slots, on the front-padded
        # map's p = 11), and each gives the encrypted output its mirror gives,
        # bit for bit
        mdl = random_model([256, 10], g=10, k=5, seed=0)
        x = np.linspace(-0.8, 0.7, 256)
        for path in PATHS:
            for mode in ("composite", "exact"):
                cfg = PipelineConfig(path=path, comparator_mode=mode)
                mirrored = model_forward_plain(mdl, x, mode="mirrored",
                                               comparator=cfg.comparator(), path=path)
                be = make_backend(BackendConfig(slot_count=2 ** 15,
                                                depth_budget=plan_model(mdl, cfg).total))
                out, _ = model_forward_he(mdl, encrypt_input(x, mdl, be), cfg)
                np.testing.assert_array_equal(be.decrypt(out)[:10].view(np.int64),
                                              mirrored.view(np.int64))
        layouts = list(mdl.layers[0].layouts.values())
        assert len(layouts) == 4 and all(layout.base.unfolded for layout in layouts)
        kept = [s for layout in layouts for s in (layout.base, *layout.maps)]
        assert len({id(s) for s in kept}) == len(kept)
        assert [layout.base.all_diagonals.nbytes for layout in layouts] == [22_528] * 4

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_record_does_not_depend_on_the_others(self, order):
        # a record built after the layer's other records equals the one a
        # fresh copy of the layer builds first: same copies, same schedules,
        # same diagonals (a permutation's offsets)
        def fingerprint(layout):
            return (layout.copies, *((s.geometry, s.over, s.repeated, s.n_out,
                                      (s.offset if s.W is None else s.all_diagonals).tobytes())
                                     for s in (layout.base, *layout.maps)))

        keys = [(path, comparator) for path in PATHS
                for comparator in (build_composite_sign(), EXACT_COMPARATOR)]
        keys = keys[order:] + keys[:order]
        mdl = random_model([64, 10], g=3, k=1, seed=0)
        warm = mdl.layers[0]
        for path, comparator in keys:
            inference._layout(warm, path, comparator)
        for key in keys:
            cold = random_model([64, 10], g=3, k=1, seed=0).layers[0]
            assert fingerprint(inference._layout(cold, *key)) == fingerprint(warm.layouts[key])

    @pytest.mark.parametrize("path", PATHS)
    def test_layer_passes_the_layout_schedules(self, monkeypatch, path):
        mdl = random_model([3, 4, 2], g=3, k=2, seed=2)
        passed = []

        def spy(W, v, schedule=None, giants=None, _run=inference.bsgs_matvec):
            passed.append(schedule)
            return _run(W, v, schedule, giants)

        monkeypatch.setattr(inference, "bsgs_matvec", spy)
        x = np.linspace(-0.8, 0.7, 3)
        _forward(mdl, path, x=x)
        model_forward_plain(mdl, x, mode="mirrored", comparator=build_composite_sign(),
                            path=path)
        kept = []
        for layer in mdl.layers:
            layout = inference._layout(layer, path, build_composite_sign())
            kept.extend((layout.base, *layout.maps))
        assert len(passed) == 2 * len(kept)
        assert all(a is b for a, b in zip(passed, 2 * kept))

    def test_records_die_with_the_layer(self):
        mdl = random_model([3, 4, 2], g=3, k=2, seed=3)
        for path in PATHS:
            _forward(mdl, path)
        refs = [weakref.ref(obj) for layer in mdl.layers for layout in layer.layouts.values()
                for obj in (layout, layout.base, *layout.maps)]
        assert len(refs) == 2 * (3 + 4)  # per layer: lazy, a record, base and one map; naive, two maps
        del mdl
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_writeable_matrix_is_read_on_every_call(self):
        be = make_backend(BackendConfig(slot_count=64, depth_budget=4))
        W = np.arange(24.0).reshape(3, 8)
        v = np.linspace(-1, 1, 8)
        assert matvec_schedule(W) is not matvec_schedule(W)
        bsgs_matvec(W, be.encrypt(v))
        W[1, 2] = -7.0
        got = be.decrypt(bsgs_matvec(W, be.encrypt(v)))[:3]
        np.testing.assert_allclose(got, W @ v, rtol=1e-12)


class TestReadOnly:
    def test_layer_constants_reject_in_place_writes(self):
        layer = random_model([3, 2], g=3, k=2, seed=5).layers[0]
        sched = matvec_schedule(layer.w_fused)
        padded = matvec_schedule(np.ones((3, 8)))  # zero-padded to 4 x 8
        assert padded.W.shape == (4, 8)
        targets = [layer.W_b, layer.S, layer.w_prime, layer.w_fused,
                   sched.all_diagonals, sched.diagonals(range(2)),
                   sched.W, padded.W, layer.permutation.source_of,
                   *(t for unit in (1.0, build_composite_sign().unit)
                     for t in (*layer.grid.tiles(unit)[:3], layer.grid.tiles(unit)[1][0]))]
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
    two), so no tile op of the basis evaluation on a packed input copies a
    tile into a wider window (backend._place), before or after the
    comparator's step is read one block ahead. A hidden layer's input
    arrives in a wider window (its previous layer's folds start it before
    slot 0), which repeat_pack's mask multiply narrows to the mask's own."""

    @pytest.mark.parametrize("path", PATHS)
    def test_no_tile_of_a_hidden_layer_is_copied(self, monkeypatch, path):
        mdl = random_model([2, 5, 1], g=5, k=3, seed=1)
        cfg = PipelineConfig(path=path)
        be = make_backend(BackendConfig(slot_count=2 ** 15,
                                        depth_budget=plan_model(mdl, cfg).total))
        tiles = [t for layer in mdl.layers for t in layer.grid.tiles(cfg.comparator().unit)[:3]]
        copied = []

        def spy(start, data, *args):
            copied.extend(t for t in tiles if np.shares_memory(data, t))
            return place(start, data, *args)

        place = backend._place
        monkeypatch.setattr(backend, "_place", spy)
        model_forward_he(mdl, encrypt_input(np.array([0.3, -0.6]), mdl, be), cfg)
        assert copied == []

    @pytest.mark.parametrize("n_i, g, k", [(64, 3, 2), (256, 10, 3), (256, 10, 5)])
    @pytest.mark.parametrize("comparator", [EXACT_COMPARATOR, build_composite_sign()],
                             ids=["exact", "composite"])
    def test_no_tile_is_copied(self, monkeypatch, n_i, g, k, comparator):
        G = bspline.GridMatrix.uniform(n_i, g, k, -1.0, 1.0)
        be = make_backend(BackendConfig(slot_count=2 ** 15, depth_budget=20))
        x = be.encrypt(np.random.default_rng(n_i).uniform(-1, 1, n_i))
        xp = bspline.repeat_pack(x, G, comparator)
        tiles = G.tiles(comparator.unit)[:3]
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
