import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hekan import bspline, inference
from hekan.approx import EXACT_COMPARATOR, build_composite_sign
from hekan.backend import BackendConfig, CipherText, HeBackend, OpCounter, make_backend
from hekan.bspline import PermutationSpec, basis_depth, gen_permutation, repeat_pack
from hekan.errors import (
    DepthBudgetInfeasible,
    DimensionMismatch,
    InputOutOfRange,
    NonFiniteInput,
    PackingOverflow,
    ShapeMismatch,
    UnsupportedLayer,
)
from hekan.inference import (
    PipelineConfig,
    bench_compare,
    bench_lazy_vs_naive,
    bsgs_matvec,
    check_capacity,
    check_depth_budget,
    encrypt_input,
    layer_forward_he,
    model_forward_he,
    plan_model,
    write_bench_csv,
)
from hekan.matvec import default_bsgs_split, matvec_schedule
from hekan.model import KanModel, layer_forward_plain, model_forward_plain, random_model


def cleartext(slots=1024, depth=40):
    return HeBackend(BackendConfig(slot_count=slots, depth_budget=depth))


class TestEncryptInput:
    # the layout tests label slots 0..5, so their grids cover |x| <= 5
    def test_raster_order_2x2(self):
        mdl = random_model([4, 2], g=4, k=1, seed=0, lo=-5.0, hi=5.0)
        be = cleartext(slots=64)
        ct = encrypt_input(np.array([[[1.0], [2.0]], [[3.0], [4.0]]]),
                           KanModel(mdl.layers, (2, 2, 1)), be)
        np.testing.assert_array_equal(ct.slots[:6], [1, 2, 3, 4, 0, 0])
        assert ct.level == 40

    def test_channel_major_order(self):
        # oracle: index (y * w + x) * c + ch
        mdl = random_model([6, 2], g=4, k=1, seed=0, lo=-5.0, hi=5.0)
        mdl = KanModel(mdl.layers, (1, 2, 3))
        be = cleartext(slots=64)
        tensor = np.arange(6.0).reshape(1, 2, 3)
        ct = encrypt_input(tensor, mdl, be)
        expected = np.zeros(6)
        for y in range(1):
            for x in range(2):
                for ch in range(3):
                    expected[(y * 2 + x) * 3 + ch] = tensor[y, x, ch]
        np.testing.assert_array_equal(ct.slots[:6], expected)

    def test_shape_mismatch(self):
        mdl = random_model([4, 2], g=4, k=1, seed=0)
        with pytest.raises(ShapeMismatch):
            encrypt_input(np.zeros((2, 2, 2)), mdl, cleartext())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        mdl = random_model([4, 2], g=4, k=1, seed=0)
        with pytest.raises(NonFiniteInput):
            encrypt_input(np.array([0.1, bad, 0.2, 0.3]), mdl, cleartext())
        with pytest.raises(NonFiniteInput):
            model_forward_plain(mdl, np.array([0.1, bad, 0.2, 0.3]))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_input_beyond_R_rejected(self, sign):
        # the grid's R bounds |input|; beyond it the comparator's operand
        # leaves [-1, 1] and the composite stages diverge
        mdl = random_model([2, 3], g=3, k=2, seed=0)
        R = mdl.layers[0].grid.R
        be = cleartext()
        ct = encrypt_input(np.array([sign * R, 0.2]), mdl, be)
        assert be.decrypt(ct)[0] == sign * R
        with pytest.raises(InputOutOfRange):
            encrypt_input(np.array([sign * np.nextafter(R, np.inf), 0.2]), mdl, be)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_mirrored_forward_rejects_input_beyond_R(self, sign):
        # the exact forward is defined beyond the grid and keeps evaluating
        mdl = random_model([2, 3], g=3, k=2, seed=0)
        R = mdl.layers[0].grid.R
        beyond = np.array([sign * np.nextafter(R, np.inf), 0.2])
        with pytest.raises(InputOutOfRange):
            model_forward_plain(mdl, beyond, mode="mirrored", comparator=build_composite_sign())
        assert np.all(np.isfinite(model_forward_plain(mdl, beyond, mode="exact")))
        at_R = model_forward_plain(mdl, np.array([sign * R, 0.2]), mode="mirrored",
                                   comparator=EXACT_COMPARATOR)
        assert np.all(np.isfinite(at_R))

    @pytest.mark.parametrize("comparator", [build_composite_sign(), EXACT_COMPARATOR],
                             ids=["composite", "exact"])
    def test_mirrored_forward_rejects_hidden_layer_input_beyond_R(self, comparator):
        # layer 0's S scaled by 14: layer 1's input reaches 3.22 > R =
        # 2.64, where the encrypted output used to be about -2.4e58 against
        # an exact -0.39
        mdl = random_model([2, 3, 1], g=5, k=3, seed=0)
        mdl.layers[0] = replace(mdl.layers[0], S=mdl.layers[0].S * 14)
        x = np.array([0.4, -0.3])
        mdl.check_input_range(x)
        hidden = layer_forward_plain(mdl.layers[0], x, "mirrored", comparator=comparator)
        assert np.max(np.abs(hidden)) > mdl.layers[1].grid.R
        with pytest.raises(InputOutOfRange, match="layer 1"):
            model_forward_plain(mdl, x, mode="mirrored", comparator=comparator)
        assert np.all(np.isfinite(model_forward_plain(mdl, x, mode="exact")))


class TestBsgsMatvec:
    def test_identity(self):
        be = cleartext(slots=64)
        v = be.encrypt([1.0, 2.0, 3.0, 4.0])
        out = bsgs_matvec(np.eye(4), v)
        np.testing.assert_allclose(out.slots[:4], [1, 2, 3, 4], atol=1e-12)
        assert np.all(out.slots[4:] == 0.0)

    def test_two_by_two(self):
        be = cleartext(slots=64)
        out = bsgs_matvec(np.array([[1.0, 2.0], [3.0, 4.0]]), be.encrypt([5.0, 6.0]))
        np.testing.assert_allclose(out.slots[:2], [17.0, 39.0], atol=1e-12)

    def test_rotation_budget_16(self):
        be = cleartext(slots=64)
        W = np.random.default_rng(0).normal(size=(16, 16))
        v = np.random.default_rng(1).normal(size=16)
        out = bsgs_matvec(W, be.encrypt(v))
        assert be.counter.rotations <= 7
        np.testing.assert_allclose(out.slots[:16], W @ v, atol=1e-9)

    def test_rotations_below_naive_diagonal(self):
        # the count includes the wraparound duplication; at n = 4 and 5 it
        # ties the naive diagonal count and wins strictly from n = 6 on
        for n in (4, 5, 6, 9, 16, 33, 64):
            be = cleartext(slots=256)
            W = np.random.default_rng(n).normal(size=(n, n))
            bsgs_matvec(W, be.encrypt(np.ones(n)))
            assert be.counter.rotations == matvec_schedule(W).rotations <= n - 1
            if n >= 6:
                assert be.counter.rotations < n - 1

    @pytest.mark.parametrize("W, rotations, pt_mults", [
        (np.ones((12, 12)), 6, 12),       # square, split (4, 3): 1 + 3 + 2
        (np.ones((7, 3)), 5, 7),          # tall, m = 7, split (3, 3): 1 + 2 + 2
        (np.ones((10, 256)), 11, 16),     # wide, p = 16: 1 + 3 + 3 + 4 folds
        (np.ones((1, 6)), 4, 3),          # wide, p = 3, split (2, 2): 1 + 1 + 1 + 1
        (gen_permutation(4, 6), 9, 24),   # permutation, split (5, 5): 1 + 4 + 4
        (np.ones((1, 1)), 0, 1),          # n = 1: no duplication, nothing to rotate
    ], ids=["square", "tall", "wide", "wide-1x6", "permutation", "n1"])
    def test_schedule_counts_are_exact(self, W, rotations, pt_mults):
        sched = matvec_schedule(W)
        assert (sched.rotations, sched.pt_mults) == (rotations, pt_mults)
        n_in = W.size if isinstance(W, PermutationSpec) else W.shape[1]
        be = cleartext(slots=512)
        bsgs_matvec(W, be.encrypt(np.ones(n_in)))
        assert (be.counter.rotations, be.counter.pt_mults) == (rotations, pt_mults)

    def test_derived_split_covers_the_diagonals_exactly(self):
        # the schedule relies on b <= p <= b * gs with no empty giant step
        for p in range(1, 5000):
            b, gs = default_bsgs_split(p)
            assert 1 <= b <= p <= b * gs and (gs - 1) * b < p, p
        for W in (np.ones((12, 12)), np.ones((10, 3840)), gen_permutation(4, 6)):
            sched = matvec_schedule(W)
            p = sched.shape[0]
            assert sched.split == default_bsgs_split(p)
            assert [d for _, diags in sched.blocks() for d in diags] == list(range(p))

    def test_rectangular_shapes(self):
        rng = np.random.default_rng(2)
        for n_o, n_in in [(3, 7), (7, 3), (1, 5), (5, 1), (8, 8)]:
            be = cleartext(slots=64)
            W = rng.normal(size=(n_o, n_in))
            v = rng.normal(size=n_in)
            out = bsgs_matvec(W, be.encrypt(v))
            np.testing.assert_allclose(out.slots[:n_o], W @ v, atol=1e-9)
            assert np.all(out.slots[max(n_o, n_in):] == 0.0)

    def test_depth_cost_is_one(self):
        be = cleartext()
        v = be.encrypt(np.ones(8), level=5)
        assert bsgs_matvec(np.eye(8), v).level == 4

    def test_too_wide_for_slots(self):
        be = cleartext(slots=16)
        with pytest.raises(DimensionMismatch):
            bsgs_matvec(np.eye(16), be.encrypt(np.ones(16)))  # needs 2 * 16 slots

    def test_pt_mult_count_is_dimension(self):
        be = cleartext(slots=64)
        bsgs_matvec(np.eye(12), be.encrypt(np.ones(12)))
        assert be.counter.pt_mults == 12


class TestWideMatvec:
    """n_o < n_in = p * 2^j: p extended diagonals, then log2(n_in / p) folds."""

    @staticmethod
    def run(n_o, n_in, slots, seed=0):
        rng = np.random.default_rng(seed)
        W, v = rng.normal(size=(n_o, n_in)), rng.normal(size=n_in)
        be = cleartext(slots=slots)
        out = bsgs_matvec(W, be.encrypt(v))
        return W, v, out, be.counter

    @pytest.mark.parametrize("n_o, n_in, slots, p, pt_mults, rotations", [
        (10, 3840, 8192, 15, 15, 15),  # split(15) = (4, 4): 1 + 3 + 3 + 8 folds
        (10, 256, 512, 16, 16, 11),    # split(16) = (4, 4): 1 + 3 + 3 + 4 folds
    ])
    def test_closed_form_counts(self, n_o, n_in, slots, p, pt_mults, rotations):
        assert matvec_schedule(np.zeros((n_o, n_in))).W.shape == (p, n_in)
        W, v, out, c = self.run(n_o, n_in, slots)
        assert (c.pt_mults, c.rotations, c.ct_mults) == (pt_mults, rotations, 0)
        np.testing.assert_allclose(out.slots[:n_o], W @ v, atol=1e-9)

    @pytest.mark.parametrize("n_o, n_in, pt_mults, rotations", [
        (7, 3, 7, 5),           # tall: m = 7, split (3, 3)
        (12, 12, 12, 6),        # square: split (4, 3)
        (3, 7, 7, 5),           # odd n_in
    ])
    def test_other_shapes_take_square_path(self, n_o, n_in, pt_mults, rotations):
        m = max(n_o, n_in)
        assert matvec_schedule(np.zeros((n_o, n_in))).W.shape == (m, m)
        W, v, out, c = self.run(n_o, n_in, slots=512)
        assert (c.pt_mults, c.rotations) == (pt_mults, rotations)
        np.testing.assert_allclose(out.slots[:n_o], W @ v, atol=1e-9)
        assert np.all(out.slots[m:] == 0.0)

    def test_square_input_is_not_copied(self):
        W = np.eye(8)
        assert matvec_schedule(W).W is W

    def test_capacity_boundary(self):
        self.run(10, 256, slots=512)         # 2 * n_in == slot_count
        with pytest.raises(DimensionMismatch):
            self.run(10, 258, slots=512)     # p = 129: wide, but 2 * 258 > 512

    @pytest.mark.parametrize("n_o, n_in", [(1, 2), (3, 12), (4, 112), (10, 320)])
    def test_valid_slots_hold_product(self, n_o, n_in):
        W, v, out, _ = self.run(n_o, n_in, slots=1024, seed=n_in)
        assert matvec_schedule(W).W.shape[0] < n_in
        np.testing.assert_allclose(out.slots[:n_o], W @ v, atol=1e-9)

    def test_cleartext_executor_is_bit_exact(self):
        rng = np.random.default_rng(3)
        for n_o, n_in in [(10, 3840), (3, 7), (8, 8), (2, 40)]:
            W, v = rng.normal(size=(n_o, n_in)), rng.normal(size=n_in)
            out = bsgs_matvec(W, cleartext(slots=8192).encrypt(v))
            assert np.array_equal(out.slots[:n_o], bsgs_matvec(W, v)[:n_o])

    @pytest.mark.parametrize("path", ["lazy", "naive"])
    def test_two_layer_wide_model_matches_mirror_bit_for_bit(self, path):
        # every layer matvec is wide: W_b 4x16 (p = 4), W_f 4x112 (p = 7),
        # W_b 2x4 (p = 2), W_f 2x28 (p = 7)
        mdl = random_model([16, 4, 2], g=5, k=2, seed=24)
        for layer in mdl.layers:
            for W in (layer.W_b, layer.w_fused):
                assert matvec_schedule(W).W.shape[0] < W.shape[1]
        cs = build_composite_sign()
        bcfg = BackendConfig(slot_count=512, depth_budget=40)
        x = np.random.default_rng(25).uniform(-1, 1, 16)
        be = HeBackend(bcfg)
        out, _ = model_forward_he(mdl, encrypt_input(x, mdl, be),
                                  PipelineConfig(path=path, backend=bcfg))
        mirrored = model_forward_plain(mdl, x, "mirrored", comparator=cs, path=path)
        assert np.array_equal(be.decrypt(out)[:2], mirrored)


class TestPermutationMatvec:
    """A PermutationSpec operand runs the square schedule of its dense
    matrix, with the diagonals read from source_of."""

    @pytest.mark.parametrize("n_r, n_c", [
        (1, 1),
        (1, 6),
        (6, 1),
        (3, 4),
        (5, 7),
        (256, 15),   # the (256, 10, 5) table config
    ])
    def test_equals_dense_schedule(self, n_r, n_c):
        P = gen_permutation(n_r, n_c)
        n = P.size
        spec, dense = matvec_schedule(P), matvec_schedule(P.as_matrix())
        assert spec.shape == dense.W.shape == (n, n)
        assert spec.split == dense.split
        assert list(spec.blocks()) == list(dense.blocks())
        for d in range(n):
            assert np.array_equal(spec.diagonals([d]), dense.diagonals([d])), d

        v = np.random.default_rng(n).normal(size=n)
        assert np.array_equal(bsgs_matvec(P, v), bsgs_matvec(P.as_matrix(), v))
        assert np.array_equal(bsgs_matvec(P, v), P.apply(v))

        slots = max(64, 1 << (2 * n - 1).bit_length())  # 2n <= slots
        outs, counters = [], []
        for sched in (spec, dense):
            be = cleartext(slots=slots)
            outs.append(be.decrypt(sched.run(be, be.encrypt(v)))[:n])
            counters.append(be.counter)
        assert np.array_equal(outs[0], outs[1])
        assert counters[0] == counters[1]
        assert counters[0].pt_mults == n

    def test_split_and_capacity_checks(self):
        P = gen_permutation(4, 6)
        be = cleartext(slots=32)
        with pytest.raises(DimensionMismatch):
            bsgs_matvec(P, be.encrypt(np.ones(24)))  # needs 2 * 24 slots

    def test_naive_path_never_builds_the_dense_matrix(self, monkeypatch):
        def refuse(self):
            raise AssertionError("dense permutation matrix built")

        monkeypatch.setattr(PermutationSpec, "as_matrix", refuse)
        mdl = random_model([6, 4, 2], g=4, k=2, seed=31)
        cs = build_composite_sign()
        bcfg = BackendConfig(slot_count=256, depth_budget=40)
        x = np.random.default_rng(32).uniform(-1, 1, 6)
        be = HeBackend(bcfg)
        out, _ = model_forward_he(mdl, encrypt_input(x, mdl, be),
                                  PipelineConfig(path="naive", backend=bcfg))
        mirrored = model_forward_plain(mdl, x, "mirrored", comparator=cs, path="naive")
        assert np.array_equal(be.decrypt(out)[:2], mirrored)


class TestUnsupportedLayer:
    def test_k_zero_rejected_before_any_operation(self):
        mdl = random_model([4, 2], g=4, k=0, seed=26)
        bcfg = BackendConfig(slot_count=256, depth_budget=40)
        be = HeBackend(bcfg)
        ct = encrypt_input(np.array([0.1, -0.2, 0.3, -0.4]), mdl, be)
        cfg = PipelineConfig(comparator_mode="exact", backend=bcfg)
        with pytest.raises(UnsupportedLayer):
            model_forward_he(mdl, ct, cfg)
        with pytest.raises(UnsupportedLayer):
            layer_forward_he(mdl.layers[0], ct, cfg)
        assert be.counter == OpCounter()

    def test_mirrored_plain_forward_rejects_k_zero(self):
        mdl = random_model([2, 3, 1], g=3, k=0, seed=0)
        with pytest.raises(UnsupportedLayer):
            model_forward_plain(mdl, [0.4, -0.3], mode="mirrored",
                                comparator=EXACT_COMPARATOR)

    def test_exact_plain_forward_accepts_k_zero(self):
        mdl = random_model([4, 2], g=4, k=0, seed=26)
        out = model_forward_plain(mdl, [0.1, -0.2, 0.3, -0.4], mode="exact")
        assert out.shape == (2,) and np.all(np.isfinite(out))


class TestLayerForward:
    def test_zero_weight_layer_zero_output(self):
        layer = random_model([3, 2], g=4, k=2, seed=3).layers[0]
        layer = replace(layer, W_b=np.zeros_like(layer.W_b), S=np.zeros_like(layer.S))
        bcfg = BackendConfig(slot_count=256, depth_budget=40)
        be = HeBackend(bcfg)
        ct = be.encrypt([0.1, 0.2, 0.3])
        out = layer_forward_he(layer, ct, PipelineConfig(backend=bcfg))
        np.testing.assert_array_equal(out.slots, np.zeros(256))

    def test_lazy_and_naive_agree(self):
        rng = np.random.default_rng(4)
        for seed in range(5):
            mdl = random_model([5, 3], g=5, k=2, seed=seed)
            bcfg = BackendConfig(slot_count=512, depth_budget=40)
            x = rng.uniform(-1, 1, 5)
            outs = {}
            for path in ("lazy", "naive"):
                be = HeBackend(bcfg)
                ct = be.encrypt(x)
                outs[path] = layer_forward_he(mdl.layers[0], ct,
                                              PipelineConfig(path=path, backend=bcfg))
            diff = np.abs(outs["lazy"].slots[:3] - outs["naive"].slots[:3])
            assert np.max(diff) <= 1e-9

    def test_naive_extra_cost_matches_model(self):
        # the extra reordering costs one pt_mult per fused column and at
        # least sqrt(columns) rotations
        mdl = random_model([16, 4], g=6, k=2, seed=6)
        n = 16 * (6 + 2)
        bcfg = BackendConfig(slot_count=2048, depth_budget=40)
        counts = {}
        for path in ("lazy", "naive"):
            be = HeBackend(bcfg)
            ct = be.encrypt(np.random.default_rng(7).uniform(-1, 1, 16))
            layer_forward_he(mdl.layers[0], ct, PipelineConfig(path=path, backend=bcfg))
            counts[path] = be.counter
        assert counts["naive"].pt_mults - counts["lazy"].pt_mults == n
        assert counts["naive"].ct_mults == counts["lazy"].ct_mults
        assert (counts["naive"].rotations - counts["lazy"].rotations
                >= int(np.sqrt(n)))


class TestModelForward:
    def test_one_layer_equals_layer_forward(self):
        mdl = random_model([4, 2], g=4, k=2, seed=8)
        bcfg = BackendConfig(slot_count=256, depth_budget=40)
        x = np.array([0.1, -0.2, 0.3, -0.4])
        be1, be2 = HeBackend(bcfg), HeBackend(bcfg)
        cfg = PipelineConfig(backend=bcfg)
        full, _ = model_forward_he(mdl, be1.encrypt(x), cfg)
        single = layer_forward_he(mdl.layers[0], be2.encrypt(x), cfg)
        np.testing.assert_array_equal(full.slots, single.slots)

    def test_two_layer_oracle_equivalence(self):
        cs = build_composite_sign()
        mdl = random_model([8, 4, 2], g=5, k=2, seed=9)
        bcfg = BackendConfig(slot_count=1024, depth_budget=40)
        x = np.random.default_rng(10).uniform(-1, 1, 8)
        for path in ("lazy", "naive"):
            be = HeBackend(bcfg)
            ct = encrypt_input(x.reshape(1, 1, 8), mdl, be)
            out, _ = model_forward_he(mdl, ct, PipelineConfig(path=path, backend=bcfg))
            mirrored = model_forward_plain(mdl, x, "mirrored", comparator=cs, path=path)
            assert np.max(np.abs(out.slots[:2] - mirrored)) <= 1e-9

    def test_noisy_backend_stays_close(self):
        # the noisy model pairs with the exact comparator: the composite
        # stages' huge minimax coefficients would amplify absolute noise
        mdl = random_model([4, 2], g=4, k=2, seed=11)
        bcfg = BackendConfig(slot_count=256, depth_budget=40,
                             noise_std=1e-8, rng_seed=5)
        be = make_backend(bcfg)
        x = np.random.default_rng(12).uniform(-1, 1, 4)
        ct = encrypt_input(x.reshape(1, 1, 4), mdl, be)
        out, _ = model_forward_he(mdl, ct,
                                  PipelineConfig(comparator_mode="exact", backend=bcfg))
        mirrored = model_forward_plain(mdl, x, "mirrored", comparator=EXACT_COMPARATOR)
        assert np.max(np.abs(out.slots[:2] - mirrored)) <= 1e-4

    @pytest.mark.parametrize("noise", [0.0, 1e-12])
    @pytest.mark.parametrize("comparator", ["composite", "exact"])
    @pytest.mark.parametrize("path", ["lazy", "naive"])
    def test_never_reads_plaintext(self, monkeypatch, path, comparator, noise):
        # the server computes on ciphertexts only: no stage may read a
        # slot or decrypt, whatever the config
        def no_plaintext(*args):
            raise AssertionError("the encrypted forward read plaintext slots")

        mdl = random_model([2, 5, 1], g=5, k=3, seed=1)
        x = np.array([0.4, -0.3])
        bcfg = BackendConfig(slot_count=4096, depth_budget=80, noise_std=noise, rng_seed=2)
        cfg = PipelineConfig(path=path, comparator_mode=comparator, backend=bcfg)
        be = make_backend(bcfg)
        ct = encrypt_input(x, mdl, be)
        monkeypatch.setattr(CipherText, "slots", property(no_plaintext))
        monkeypatch.setattr(HeBackend, "decrypt", no_plaintext)
        out, _ = model_forward_he(mdl, ct, cfg)
        monkeypatch.undo()
        mirrored = model_forward_plain(mdl, x, "mirrored", comparator=cfg.comparator(),
                                       path=path)
        assert np.max(np.abs(be.decrypt(out)[:1] - mirrored)) <= (1e-9 if noise == 0 else 1e-5)

    def test_forward_memory_does_not_scale_with_slot_count(self):
        # one dense 2^20-slot vector is 8 MB; the forward only touches the
        # slots its vectors use
        mdl = random_model([2, 5, 1], g=5, k=3, seed=13)
        cfg = PipelineConfig()
        cs = cfg.comparator()  # fitted outside the measured region
        bcfg = BackendConfig(slot_count=2 ** 20, depth_budget=plan_model(mdl, cfg).total)
        be = make_backend(bcfg)
        x = np.array([0.3, -0.4])
        ct = encrypt_input(x, mdl, be)
        tracemalloc.start()
        try:
            out, _ = model_forward_he(mdl, ct, PipelineConfig(backend=bcfg))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20
        mirrored = model_forward_plain(mdl, x, "mirrored", comparator=cs)
        assert np.array_equal(out.slots[:1], mirrored)

    def test_stats_totals_are_sums(self):
        mdl = random_model([6, 4, 2], g=4, k=2, seed=13)
        bcfg = BackendConfig(slot_count=512, depth_budget=40)
        be = HeBackend(bcfg)
        ct = be.encrypt(np.random.default_rng(14).uniform(-1, 1, 6))
        _, per_layer = model_forward_he(mdl, ct, PipelineConfig(backend=bcfg))
        assert len(per_layer) == 2
        for f in fields(OpCounter):
            assert getattr(be.counter, f.name) == sum(getattr(c, f.name) for c in per_layer)

    def test_depth_plan_matches_measurement(self):
        for seed, dims, g, k in [(15, [4, 3], 4, 1), (16, [6, 2], 5, 3),
                                 (17, [4, 4, 2], 3, 2)]:
            mdl = random_model(dims, g=g, k=k, seed=seed)
            bcfg = BackendConfig(slot_count=1024, depth_budget=40)
            for path in ("lazy", "naive"):
                for comp in ("composite", "exact"):
                    cfg = PipelineConfig(path=path, comparator_mode=comp, backend=bcfg)
                    be = HeBackend(bcfg)
                    ct = be.encrypt(np.random.default_rng(seed).uniform(-1, 1, dims[0]))
                    out, _ = model_forward_he(mdl, ct, cfg)
                    assert ct.level - out.level == plan_model(mdl, cfg).total

    def test_budget_infeasible_reports_stages(self):
        mdl = random_model([4, 2], g=4, k=3, seed=18)
        bcfg = BackendConfig(slot_count=256, depth_budget=8)
        be = HeBackend(bcfg)
        ct = be.encrypt(np.zeros(4))
        with pytest.raises(DepthBudgetInfeasible) as err:
            model_forward_he(mdl, ct, PipelineConfig(backend=bcfg))
        assert "comparator" in str(err.value)
        assert err.value.plan is not None
        # nothing ran: the check is static
        assert be.counter.mults == 0

    def test_check_depth_budget_passes_when_feasible(self):
        mdl = random_model([4, 2], g=4, k=1, seed=19)
        cfg = PipelineConfig(comparator_mode="exact")
        plan = check_depth_budget(mdl, cfg, available=20)
        assert plan.total <= 20

    def test_deterministic_counters(self):
        mdl = random_model([5, 3], g=5, k=2, seed=20)
        bcfg = BackendConfig(slot_count=512, depth_budget=40)
        x = np.random.default_rng(21).uniform(-1, 1, 5)
        runs = []
        for _ in range(2):
            be = HeBackend(bcfg)
            ct = be.encrypt(x)
            out, _ = model_forward_he(mdl, ct, PipelineConfig(backend=bcfg))
            t = be.counter
            runs.append((t.rotations, t.ct_mults, t.pt_mults, t.adds, t.subs,
                         ct.level - out.level))
        assert runs[0] == runs[1]


def _smallest_slot_count(mdl, cfg) -> int:
    """The smallest power-of-two slot count check_capacity accepts."""
    slots = 1
    while True:
        try:
            check_capacity(mdl, cfg, slots)
            return slots
        except (DimensionMismatch, PackingOverflow):
            slots *= 2


class TestOneLayerProgram:
    """The layer program is written once (inference._layer): run on a
    ciphertext it is the encrypted forward, on an array the mirror. Drawn
    shapes reach what criterion 1 does not: n_i = 1, n_o > n_i, g = 1,
    k up to 5, chains of three and four layers, and the tightest slot count
    (2n == slot_count for some matvec period n)."""

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(dims=st.lists(st.integers(1, 6), min_size=2, max_size=5),
           g=st.integers(1, 4), k=st.integers(1, 5),
           path=st.sampled_from(["lazy", "naive"]),
           comparator_mode=st.sampled_from(["composite", "exact"]),
           seed=st.integers(0, 2 ** 16))
    @example(dims=[1, 3, 2, 4, 1], g=1, k=5, path="naive", comparator_mode="composite", seed=0)
    @example(dims=[1, 6, 2, 5], g=1, k=1, path="lazy", comparator_mode="exact", seed=1)
    def test_encrypted_equals_mirror_bit_for_bit(self, dims, g, k, path, comparator_mode,
                                                 seed):
        mdl = random_model(dims, g=g, k=k, seed=seed)
        cfg = PipelineConfig(path=path, comparator_mode=comparator_mode)
        x = np.random.default_rng(seed).uniform(-1, 1, dims[0])
        try:
            mirrored = model_forward_plain(mdl, x, "mirrored", comparator=cfg.comparator(),
                                           path=path)
        except InputOutOfRange:
            assume(False)  # a hidden layer's input beyond its R: outside the contract
        assert mirrored.shape == (mdl.n_out,)

        plan = plan_model(mdl, cfg)
        slots = _smallest_slot_count(mdl, cfg)
        be = HeBackend(BackendConfig(slot_count=slots, depth_budget=plan.total))
        ct = encrypt_input(x, mdl, be)
        for layer, lp in zip(mdl.layers, plan.layers):
            out = layer_forward_he(layer, ct, cfg)
            assert ct.level - out.level == lp.total
            ct = out
        assert out.level == 0
        assert np.array_equal(be.decrypt(out)[:mdl.n_out].view(np.int64),
                              mirrored.view(np.int64))


class TestPlanStagesJoinMeasuredDrops:
    """Each planned stage joined to the level drop of the function that
    runs it, layer by layer, as perfbench's plan_mismatch joins them."""

    @staticmethod
    def _trace(monkeypatch, mdl, ct, cfg):
        """Run the forward; returns, per layer, its staged calls as
        (name, first argument, level in, level out), the layer's own call
        last."""
        def level(obj):
            return obj.level

        events = []
        for module, name, operand in ((inference, "eval_poly_he", 0),
                                      (inference, "bsgs_matvec", 1),
                                      (inference, "repeat_pack", 0),
                                      (inference, "bspline_basis_he", 0),
                                      (bspline, "poly_comp", 0),
                                      (inference, "layer_forward_he", 1)):
            def call(*args, _fn=getattr(module, name), _name=name, _operand=operand,
                     **kwargs):
                out = _fn(*args, **kwargs)
                events.append((_name, args[0], level(args[_operand]), level(out)))
                return out

            monkeypatch.setattr(module, name, call)
        model_forward_he(mdl, ct, cfg)
        layers, calls = [], []
        for event in events:
            calls.append(event)
            if event[0] == "layer_forward_he":
                layers.append(calls)
                calls = []
        return layers

    @pytest.mark.parametrize("dims, g, k", [([4, 3], 4, 1), ([6, 2], 5, 3),
                                            ([4, 3, 3, 2], 3, 2)])
    @pytest.mark.parametrize("comparator_mode", ["composite", "exact"])
    @pytest.mark.parametrize("path", ["lazy", "naive"])
    def test_every_stage_matches_its_functions_drop(self, monkeypatch, dims, g, k,
                                                    comparator_mode, path):
        mdl = random_model(dims, g=g, k=k, seed=len(dims) + k)
        cfg = PipelineConfig(path=path, comparator_mode=comparator_mode)
        plan = plan_model(mdl, cfg)
        be = HeBackend(BackendConfig(slot_count=1024, depth_budget=plan.total))
        ct = be.encrypt(np.random.default_rng(k).uniform(-1, 1, dims[0]))
        layers = self._trace(monkeypatch, mdl, ct, cfg)
        assert [calls[-1][1] for calls in layers] == list(mdl.layers)
        for lp, calls in zip(plan.layers, layers):
            layer = calls[-1][1]
            by_name = {}
            for name, first, lin, lout in calls:
                if name == "bsgs_matvec":
                    name = "base_matvec" if first is layer.W_b else "spline_matvec"
                by_name.setdefault(name, []).append((lin, lout))
            (poly_in, poly_out), = by_name["eval_poly_he"]
            (base_in, base_out), = by_name["base_matvec"]
            (pack_in, pack_out), = by_name["repeat_pack"]
            (basis_in, basis_out), = by_name["bspline_basis_he"]
            comps = by_name["poly_comp"]
            maps = by_name["spline_matvec"]
            (layer_in, layer_out), = by_name["layer_forward_he"]
            measured = {
                "silu_poly": poly_in - poly_out,
                "silu_mask": poly_out - base_in,
                "base_matvec": base_in - base_out,
                "repeat_pack": pack_in - pack_out,
                "comparator_scale": {pack_out - lin for lin, _ in comps},
                "comparator": {lin - lout for lin, lout in comps},
                "basis_order0 + basis_recursion": {lout - basis_out for _, lout in comps},
                "spline_matvec": sum(lin - lout for lin, lout in maps),
            }
            stages = lp.stages
            assert {n for key in measured for n in key.split(" + ")} == set(stages)
            assert len(comps) == 2 and len(maps) == stages["spline_matvec"]
            assert measured == {
                "silu_poly": stages["silu_poly"],
                "silu_mask": stages["silu_mask"],
                "base_matvec": stages["base_matvec"],
                "repeat_pack": stages["repeat_pack"],
                "comparator_scale": {stages["comparator_scale"]},
                "comparator": {stages["comparator"]},
                "basis_order0 + basis_recursion": {stages["basis_order0"]
                                                   + stages["basis_recursion"]},
                "spline_matvec": stages["spline_matvec"],
            }
            assert basis_in - basis_out == basis_depth(layer.k, cfg.comparator())
            assert layer_in - base_out == lp.silu_branch
            assert layer_in - maps[-1][1] == lp.spline_branch
            assert layer_in - layer_out == lp.total


class TestDefaultComparatorAccuracy:
    """The default composite comparator keeps the mirrored forward within
    2e-3 of the exact forward: on the five table configs the far-field
    residual, amplified by the Cox-de Boor factors, stays small."""

    @pytest.mark.parametrize("dims,g,k", [
        ([64, 10], 3, 2), ([128, 10], 5, 3), ([256, 10], 5, 3),
        ([256, 10], 10, 3), ([256, 10], 10, 5), ([2, 5, 1], 5, 3)])
    def test_mirrored_composite_forward_is_accurate(self, dims, g, k):
        comparator = PipelineConfig().comparator()
        mdl = random_model(dims, g=g, k=k, seed=7)
        rng = np.random.default_rng(7)
        for x in rng.uniform(-1, 1, (2, dims[0])):
            exact = model_forward_plain(mdl, x, "exact")
            for path in ("lazy", "naive"):
                mirrored = model_forward_plain(mdl, x, "mirrored", comparator=comparator,
                                               path=path)
                assert np.max(np.abs(mirrored - exact)) <= 2e-3


class TestPackingFeasibility:
    def test_rejects_exactly_overflowing_configs(self):
        # n_i = 4 in 64 slots: feasible iff 4 * (g + 2k) <= 64
        bcfg = BackendConfig(slot_count=64, depth_budget=10)
        for copies in range(2, 24):
            be = HeBackend(bcfg)
            ct = be.encrypt(np.ones(4))
            feasible = 4 * copies <= 64
            if feasible:
                repeat_pack(ct, copies, 0, 4)
            else:
                with pytest.raises(PackingOverflow):
                    repeat_pack(ct, copies, 0, 4)

    @pytest.mark.parametrize("dims, g, k, error", [
        ([16, 40], 3, 1, DimensionMismatch),  # W_b's period 40: 2 * 40 > 64
        ([12, 2], 3, 1, PackingOverflow),     # 12 * 5 fits, 8 doubled copies do not
        ([8, 2], 5, 1, DimensionMismatch),    # packs 8 * 8, spline map period 48
    ])
    @pytest.mark.parametrize("path", ["lazy", "naive"])
    def test_too_wide_model_rejected_before_any_op(self, dims, g, k, error, path):
        mdl = random_model(dims, g=g, k=k, seed=3)
        bcfg = BackendConfig(slot_count=64, depth_budget=40)
        be = HeBackend(bcfg)
        ct = encrypt_input(np.zeros(dims[0]), mdl, be)
        with pytest.raises(error):
            model_forward_he(mdl, ct, PipelineConfig(path=path, backend=bcfg))
        assert be.counter == OpCounter()


class TestBench:
    def test_rows_and_ratio(self, tmp_path):
        rows = bench_lazy_vs_naive([(8, 3, 1)], slot_count=256, depth_budget=40,
                                   n_o=2, seed=0)
        assert len(rows) == 2
        lazy = next(r for r in rows if r["path"] == "lazy")
        naive = next(r for r in rows if r["path"] == "naive")
        assert lazy["speedup_vs_naive_counts"] > 1.0
        assert naive["speedup_vs_naive_counts"] == 1.0
        out = tmp_path / "bench.csv"
        write_bench_csv(rows, out)
        import csv
        with open(out) as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == 2
        assert parsed[0]["config"] == "(8,3,1)"

    def test_empty_inputs_rejected(self):
        mdl = random_model([4, 2], g=3, k=1, seed=22)
        with pytest.raises(ValueError):
            bench_compare(mdl, [], [PipelineConfig()])

    def test_missing_backend_rejected(self):
        mdl = random_model([4, 2], g=3, k=1, seed=23)
        with pytest.raises(ValueError):
            bench_compare(mdl, [np.zeros(4)], [PipelineConfig()])

    def test_twins_differ_only_in_path(self):
        # configs that share a label but differ in depth_budget or target_eps
        # are not twins; only the first lazy row has the naive row's twin
        mdl = random_model([4, 2], g=3, k=1, seed=24)
        bcfg = BackendConfig(slot_count=256, depth_budget=40)
        cfgs = [PipelineConfig(path="lazy", backend=bcfg, label="x"),
                PipelineConfig(path="naive", backend=bcfg, label="x"),
                PipelineConfig(path="lazy", backend=BackendConfig(slot_count=256, depth_budget=45),
                               label="x"),
                PipelineConfig(path="lazy", backend=bcfg, target_eps=2.0 ** -12, label="x")]
        rows = bench_compare(mdl, [np.full(4, 0.3)], cfgs)
        count = [r["rotations"] + r["ct_mults"] + r["pt_mults"] for r in rows]
        assert rows[0]["speedup_vs_naive_counts"] == round(count[1] / count[0], 4) > 1.0
        assert [r["speedup_vs_naive_counts"] for r in rows[1:]] == [1.0, 1.0, 1.0]

    def test_counts_sum_over_inputs(self):
        # each config's backend counts every input, so three inputs cost
        # three times one; depth is that of one inference
        mdl = random_model([4, 3, 2], g=3, k=2, seed=25)
        bcfg = BackendConfig(slot_count=256, depth_budget=60)
        cfgs = [PipelineConfig(path=path, backend=bcfg) for path in ("lazy", "naive")]
        xs = list(np.random.default_rng(26).uniform(-1, 1, (3, 4)))
        one = bench_compare(mdl, xs[:1], cfgs)
        three = bench_compare(mdl, xs, cfgs)
        for cfg, r1, r3 in zip(cfgs, one, three):
            for key in ("rotations", "ct_mults", "pt_mults"):
                assert r3[key] == 3 * r1[key] > 0
            assert r3["depth"] == r1["depth"] == plan_model(mdl, cfg).total
            assert r3["speedup_vs_naive_counts"] == r1["speedup_vs_naive_counts"]
        assert three[0]["speedup_vs_naive_counts"] > 1.0

    def test_rows_count_only_the_timed_forwards(self, monkeypatch):
        # the untimed warm-up forward runs on its own backend: the counts
        # are those of the timed forwards alone, as before the warm-up
        mdl = random_model([4, 3, 2], g=3, k=2, seed=25)
        bcfg = BackendConfig(slot_count=256, depth_budget=60)
        cfgs = [PipelineConfig(path=path, comparator_mode=mode, backend=bcfg)
                for path in ("lazy", "naive") for mode in ("composite", "exact")]
        xs = list(np.random.default_rng(26).uniform(-1, 1, (2, 4)))
        forwards = []
        run = inference.model_forward_he
        monkeypatch.setattr(inference, "model_forward_he",
                            lambda m, ct, cfg: forwards.append(ct.backend) or run(m, ct, cfg))
        rows = bench_compare(mdl, xs, cfgs)
        assert len(forwards) == len(cfgs) * (1 + len(xs))
        assert len({id(be) for be in forwards}) == 2 * len(cfgs)
        assert [(r["rotations"], r["ct_mults"], r["pt_mults"], r["depth"],
                 r["speedup_vs_naive_counts"]) for r in rows] == [
            (58, 344, 366, 34, 1.1302), (58, 40, 102, 12, 1.5),
            (88, 344, 436, 36, 1.0), (88, 40, 172, 14, 1.0)]

    def test_config_from_json_takes_the_dataclass_defaults(self):
        bcfg = BackendConfig(slot_count=256, depth_budget=40)
        assert PipelineConfig.from_json({}, bcfg) == PipelineConfig(backend=bcfg)
        cfg = PipelineConfig.from_json({"path": "naive", "label": "run",
                                        "backend": {"slot_count": 64, "depth_budget": 9}}, bcfg)
        assert cfg == PipelineConfig(path="naive", label="run",
                                     backend=BackendConfig(slot_count=64, depth_budget=9))
        with pytest.raises(ValueError, match="unknown PipelineConfig keys"):
            PipelineConfig.from_json({"check_range": True}, bcfg)  # removed option
        for doc in ({"pathh": "naive"}, {"path": "sideways"}, ["lazy"], {"bsgs_split": [4, 4]},
                    {"backend": {"slot_count": 64, "depth_budget": 9, "slots": 1}},
                    {"alpha": "x"}, {"alpha": True}, {"alpha": float("nan")}, {"alpha": 0},
                    {"alpha": -3}, {"target_eps": float("inf")}, {"target_eps": 0},
                    {"target_eps": 1}, {"target_eps": "1e-6"}, {"label": 7}):
            with pytest.raises(ValueError):
                PipelineConfig.from_json(doc, bcfg)

    def test_table_config_op_counts_are_pinned(self):
        # (rotations, pt_mults, ct_mults) per (n_i, g, k), n_o = 10, 2^15 slots
        pinned = {
            "(64,3,2)": {"lazy": (25, 104, 86), "naive": (60, 424, 86)},
            "(128,5,3)": {"lazy": (30, 112, 88), "naive": (93, 1136, 88)},
            "(256,5,3)": {"lazy": (32, 112, 88), "naive": (122, 2160, 88)},
            "(256,10,3)": {"lazy": (33, 109, 88), "naive": (148, 3437, 88)},
            "(256,10,5)": {"lazy": (36, 115, 92), "naive": (159, 3955, 92)},
        }
        configs = [(64, 3, 2), (128, 5, 3), (256, 5, 3), (256, 10, 3), (256, 10, 5)]
        rows = bench_lazy_vs_naive(configs, slot_count=2 ** 15, depth_budget=32,
                                   n_o=10, seed=0)
        measured = {}
        for row in rows:
            measured.setdefault(row["config"], {})[row["path"]] = (
                row["rotations"], row["pt_mults"], row["ct_mults"])
        assert measured == pinned

    def test_determinism_across_runs(self):
        kwargs = dict(slot_count=512, depth_budget=40, n_o=3, seed=5)
        r1 = bench_lazy_vs_naive([(8, 4, 2)], **kwargs)
        r2 = bench_lazy_vs_naive([(8, 4, 2)], **kwargs)
        for a, b in zip(r1, r2):
            for key in ("rotations", "ct_mults", "pt_mults", "depth",
                        "speedup_vs_naive_counts"):
                assert a[key] == b[key]
