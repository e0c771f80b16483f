import gc
import math
import tracemalloc
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hekan import bspline, inference
from hekan.approx import (
    EXACT_COMPARATOR,
    Polynomial,
    build_composite_sign,
    eval_poly_he,
    poly_comp,
)
from hekan.backend import (
    BackendConfig,
    CipherText,
    HeBackend,
    OpCounter,
    _ops_of,
    _WindowOps,
    make_backend,
)
from hekan.bspline import PermutationSpec, basis_depth, gen_permutation, repeat_pack
from hekan.errors import (
    DepthBudgetInfeasible,
    DimensionMismatch,
    HeKanError,
    InputOutOfRange,
    InvalidArgument,
    NonFiniteInput,
    PackingOverflow,
    ShapeMismatch,
    UnsupportedLayer,
)
from hekan.inference import (
    LayerLayout,
    PipelineConfig,
    bench_compare,
    bench_lazy_vs_naive,
    bsgs_matvec,
    check_capacity,
    check_depth_budget,
    encrypt_input,
    layer_forward_he,
    model_forward_he,
    plan_layer,
    plan_model,
    write_bench_csv,
)
from hekan.matvec import default_bsgs_split, matvec_schedule
from hekan.model import (
    KanLayer,
    KanModel,
    layer_forward_plain,
    model_forward_plain,
    random_model,
)


def cleartext(slots=1024, depth=40):
    return HeBackend(BackendConfig(slot_count=slots, depth_budget=depth))


class TestEncryptInput:
    # the layout tests label slots 0..5, so their grids cover |x| <= 5; g = 4,
    # k = 1 replicates the input basis_copies(4, 1) = 8 times
    def test_raster_order_2x2(self):
        mdl = random_model([4, 2], g=4, k=1, seed=0, lo=-5.0, hi=5.0)
        be = cleartext(slots=64)
        ct = encrypt_input(np.array([[[1.0], [2.0]], [[3.0], [4.0]]]),
                           KanModel(mdl.layers, (2, 2, 1)), be)
        assert ct.copies == 8
        np.testing.assert_array_equal(ct.slots[:32], np.tile([1, 2, 3, 4], 8))
        np.testing.assert_array_equal(ct.slots[32:], 0)
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
        assert ct.copies == 8
        for c in range(8):
            np.testing.assert_array_equal(ct.slots[6 * c:6 * c + 6], expected)
        np.testing.assert_array_equal(ct.slots[48:], 0)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n_in=st.integers(1, 24), g=st.integers(1, 6), k=st.integers(1, 4),
           log_slots=st.integers(0, 8), seed=st.integers(0, 2 ** 16))
    def test_copies_then_zeros(self, n_in, g, k, log_slots, seed):
        # C = basis_copies(g, k) copies back to back, then zeros; copies
        # that do not fit the slots are rejected by the packed layout's
        # fit law, as the forward would reject them
        mdl = random_model([n_in, 2], g=g, k=k, seed=seed)
        be = cleartext(slots=1 << log_slots)
        x = np.random.default_rng(seed).uniform(-1, 1, n_in)
        C = bspline.basis_copies(g, k)
        if C * n_in > be.slot_count:
            with pytest.raises(PackingOverflow):
                encrypt_input(x, mdl, be)
            return
        ct = encrypt_input(x, mdl, be)
        assert (ct.copies, ct.width) == (C, n_in)
        slots = be.decrypt(ct)
        for c in range(C):
            assert np.array_equal(slots[c * n_in:(c + 1) * n_in].view(np.int64),
                                  x.view(np.int64))
        np.testing.assert_array_equal(slots[C * n_in:], 0.0)

    @pytest.mark.parametrize("dims, g, k, slots", [
        ([4, 1], 2, 1, 16),    # basis_copies(2, 1) = 8 copies of 4 need 32 slots
        ([12, 2], 3, 1, 64),   # 8 copies of 12 need 96
        ([20, 2], 5, 3, 32),   # 16 copies of 20 need 320; one fits
    ])
    @pytest.mark.parametrize("path", ["lazy", "naive"])
    def test_copies_that_do_not_fit_are_rejected_as_one_copy_is(self, dims, g, k, slots,
                                                                path):
        mdl = random_model(dims, g=g, k=k, seed=3)
        cfg = PipelineConfig(path=path)
        be = cleartext(slots=slots, depth=plan_model(mdl, cfg).total)
        x = np.random.default_rng(3).uniform(-1, 1, dims[0])
        with pytest.raises(PackingOverflow):
            encrypt_input(x, mdl, be)
        ct = be.encrypt(x)
        with pytest.raises(PackingOverflow):
            model_forward_he(mdl, ct, cfg)
        with pytest.raises(PackingOverflow):
            layer_forward_he(mdl.layers[0], ct, cfg)
        assert be.counter == OpCounter()

    def test_shape_mismatch(self):
        mdl = random_model([4, 2], g=4, k=1, seed=0)
        with pytest.raises(ShapeMismatch):
            encrypt_input(np.zeros((2, 2, 2)), mdl, cleartext())

    def test_copies_of_another_width_are_rejected_before_any_op(self):
        # copies of 3 values read as copies of 2, layer 0's copies read by
        # layer 1, and a raw encryption of 3 values read as 2, gave a wrong
        # answer with no error (-0.1089 against the mirror's -0.0928;
        # -0.2045 against 0.0424; -0.0928, the answer for the first two)
        two = random_model([2, 5, 1], g=5, k=3, seed=1)
        three = random_model([3, 5, 1], g=5, k=3, seed=1)
        cfg = PipelineConfig()
        v = np.array([0.4, -0.3, 0.2])
        be = cleartext(slots=4096, depth=plan_model(two, cfg).total)
        replicated = encrypt_input(v, three, be)
        with pytest.raises(ShapeMismatch, match="input of width 3 for a layer"):
            model_forward_he(two, replicated, cfg)
        assert (replicated.copies, replicated.width) == (16, 3)
        with pytest.raises(ShapeMismatch, match="input of width 2 for a layer"):
            layer_forward_he(two.layers[1], encrypt_input(v[:2], two, be), cfg)
        # a raw encryption states its width, len(v)
        raw = be.encrypt(v)
        assert (raw.copies, raw.width) == (1, 3)
        with pytest.raises(ShapeMismatch, match="input of width 3 for a layer"):
            model_forward_he(two, raw, cfg)
        with pytest.raises(ShapeMismatch, match="input of width 3 for a layer"):
            layer_forward_he(two.layers[0], raw, cfg)
        assert be.counter == OpCounter()

    def test_a_layer_output_states_its_width(self):
        # layer 0's output of a [3, 5, 1] model, 5 slots wide, read by a
        # layer of n_i = 2 ran and returned numbers
        three = random_model([3, 5, 1], g=5, k=3, seed=1)
        two = random_model([2, 4, 1], g=5, k=3, seed=1)
        cfg = PipelineConfig()
        be = cleartext(slots=4096, depth=plan_model(three, cfg).total)
        hidden = layer_forward_he(three.layers[0],
                                  encrypt_input(np.array([0.4, -0.3, 0.2]), three, be), cfg)
        assert (hidden.copies, hidden.width) == (1, 5)
        before = be.counter.copy()
        with pytest.raises(ShapeMismatch, match="input of width 5 for a layer of n_i = 2"):
            layer_forward_he(two.layers[0], hidden, cfg)
        assert be.counter == before

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
        (np.ones((1, 6)), 3, 1),          # one row: one diagonal over period 8, 3 folds
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
            if not matvec_schedule(W).folds:  # folds leave partial sums behind
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


class TestSharedFolds:
    """A repeated product on another matrix's geometry hands on its giant
    blocks unrotated and unfolded; that matrix adds each to its own block
    of the same giant step before the step's rotation, and its folds
    finish both products: the second product pays its b - 1 baby
    rotations only."""

    @pytest.mark.parametrize("a_shape, b_shape", [((10, 64), (10, 320)), ((1, 5), (1, 40)),
                                                  ((3, 4), (3, 16)), ((4, 8), (5, 40))])
    def test_one_fold_chain_gives_both_products(self, a_shape, b_shape):
        rng = np.random.default_rng(a_shape[1])
        A, B = rng.normal(size=a_shape), rng.normal(size=b_shape)
        self._check(A, B, rng.normal(size=A.shape[1]), rng.normal(size=B.shape[1]), 0.0)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(p0=st.integers(1, 12), j=st.integers(1, 3), sigma=st.sampled_from([0.0, 1e-12]),
           seed=st.integers(0, 2 ** 16), data=st.data())
    def test_shared_giant_law(self, p0, j, sigma, seed, data):
        # B is wide: n_in = p0 * 2^j >= 2 n_o, so its schedule folds; A
        # fits B's geometry: at most p rows, and a period dividing L (any
        # period up to L on one diagonal)
        n_o = data.draw(st.integers(1, p0), label="n_o")
        B = np.random.default_rng(seed).normal(size=(n_o, p0 << j))
        p, L = matvec_schedule(B).shape
        periods = [d for d in range(1, L + 1) if p == 1 or L % d == 0]
        a_shape = (data.draw(st.integers(1, p), label="a_rows"),
                   data.draw(st.sampled_from(periods), label="a_period"))
        rng = np.random.default_rng(seed + 1)
        A = rng.normal(size=a_shape)
        self._check(A, B, rng.normal(size=a_shape[1]), rng.normal(size=B.shape[1]), sigma)

    @staticmethod
    def _check(A, B, x, v, sigma):
        """The encrypted pair on B's geometry against the cleartext sum,
        the mirror, the rotation law and, op by op, the fused kernel's
        counts and one noise draw per counted op."""
        own, geometry = matvec_schedule(B), matvec_schedule(B).shape
        shared = matvec_schedule(A, True, geometry)
        assert shared.shape == geometry and not shared.folds and own.folds
        assert shared.split == own.split
        repeated = np.tile(x, -(-shared.reads // A.shape[1]))
        # slot r < p of the folded sum holds row r of both products, each
        # padded with zero rows to p
        n_o, L = max(A.shape[0], B.shape[0]), geometry[1]
        slots = 1 << (4 * L - 1).bit_length()

        def run(noise_std):
            be = HeBackend(BackendConfig(slot_count=slots, depth_budget=4,
                                         noise_std=noise_std))
            a, w = be.encrypt(repeated), be.encrypt(v)
            draws = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(HeBackend, "_noise", lambda self, _run=HeBackend._noise:
                           draws.append(1) or _run(self))
                giants = bsgs_matvec(A, a, repeated=True, over=geometry)
                out = bsgs_matvec(B, w, giants=giants)
            assert isinstance(giants, tuple) and len(giants) == own.split[1]
            assert all(g.level == a.level - 1 for g in giants)
            assert out.level == a.level - 1
            return be, out, len(draws)

        be, out, _ = run(0.0)
        expect = np.pad(A @ x, (0, n_o - A.shape[0])) + np.pad(B @ v, (0, n_o - B.shape[0]))
        np.testing.assert_allclose(out.slots[:n_o], expect, rtol=0, atol=1e-12)
        mirrored = bsgs_matvec(B, v, giants=bsgs_matvec(A, repeated, True, geometry))
        assert np.array_equal(out.slots[:n_o].view(np.int64), mirrored[:n_o].view(np.int64))
        b = shared.split[0]
        assert shared.rotations == b - 1
        assert be.counter.rotations == (b - 1) + own.rotations
        if sigma:
            noisy, out, draws = run(sigma)
            c = noisy.counter
            assert (c.rotations, c.adds, c.pt_mults) == (
                be.counter.rotations, be.counter.adds, be.counter.pt_mults)
            assert draws == c.adds + c.subs + c.ct_mults + c.pt_mults  # the encryptions' are not seen
            # every draw reaches the output at most scaled by a column sum
            # of |A| or |B|, and every one of L slots is folded in
            scale = 1 + np.abs(A).sum(axis=0).max() + np.abs(B).sum(axis=0).max()
            bound = 10 * sigma * scale * math.sqrt(draws * L)
            np.testing.assert_allclose(out.slots[:n_o], expect, rtol=0, atol=1e-12 + bound)

    def test_geometry_must_fit(self):
        with pytest.raises(InvalidArgument):
            matvec_schedule(np.ones((2, 4)), False, (2, 8))    # the operand must be repeated
        for shape, geometry in (((3, 4), (2, 8)), ((2, 8), (2, 4)), ((2, 3), (2, 8))):
            with pytest.raises(DimensionMismatch):              # rows, columns, period
                matvec_schedule(np.ones(shape), True, geometry)


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
        # the exact comparator keeps the comparator's error out of the
        # pipeline's own noise growth (criterion 7 runs the composite one)
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

    @pytest.mark.parametrize("comparator_mode, path, depth", [
        ("exact", "lazy", 12), ("exact", "naive", 14),
        ("composite", "lazy", 30), ("composite", "naive", 32)])
    def test_depth_pinned_with_and_without_a_comparator_level(self, comparator_mode,
                                                               path, depth):
        """Packing in comparator units puts the comparator on the packing
        mask's level. The exact comparator costs none, so there the first
        recursion factor's plaintext multiply sets the pace: each layer
        takes max(comparator depth, 1) + k + 2 levels on the lazy path."""
        mdl = random_model([2, 5, 1], g=5, k=3, seed=0)
        cfg = PipelineConfig(path=path, comparator_mode=comparator_mode)
        be = HeBackend(BackendConfig(slot_count=1024, depth_budget=depth))
        ct = encrypt_input(np.array([0.4, -0.3]), mdl, be)
        out, _ = model_forward_he(mdl, ct, cfg)
        assert ct.level - out.level == plan_model(mdl, cfg).total == depth

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


class TestOneNoiseSite:
    """A noisy backend draws its noise in one place, HeBackend._perturb:
    one row per encryption, per counted add, sub or multiply and per
    trivial encryption (``const``); rotations draw none. A noisy matvec
    runs op by op, so its draws are counted the same way."""

    @pytest.mark.parametrize("path", ["lazy", "naive"])
    @pytest.mark.parametrize("mode", ["composite", "exact"])
    def test_draws_are_encryptions_ops_and_consts(self, path, mode, monkeypatch):
        mdl = random_model([2, 5, 1], g=5, k=3, seed=1)
        cfg = PipelineConfig(comparator_mode=mode, path=path)
        be = HeBackend(BackendConfig(slot_count=_smallest_slot_count(mdl, cfg),
                                     depth_budget=plan_model(mdl, cfg).total, noise_std=1e-12))
        calls = {"noise": 0, "const": 0}

        def counted(name, fn):
            def call(*args):
                calls[name] += 1
                return fn(*args)
            return call

        monkeypatch.setattr(HeBackend, "_noise", counted("noise", HeBackend._noise))
        monkeypatch.setattr(_WindowOps, "const", counted("const", _WindowOps.const))
        model_forward_he(mdl, encrypt_input(np.array([0.3, -0.6]), mdl, be), cfg)
        c = be.counter
        assert c.rotations > 0 and calls["noise"] > 0
        assert calls["noise"] == 1 + c.adds + c.subs + c.ct_mults + c.pt_mults + calls["const"]


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


class TestTwoArrivals:
    """An input arrives raw (``be.encrypt(x)``, one copy, packed on the
    server) or replicated by the client (``encrypt_input``, C =
    basis_copies(g, k) copies of layer 0's input): the same decrypted
    slots, bit for bit and equal to the mirror's output, the same levels
    and multiplies, and log2(C) rotations fewer for the replicated one, all
    of them layer 0's."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(dims=st.lists(st.integers(1, 9), min_size=2, max_size=4),
           g=st.integers(1, 5), k=st.integers(1, 4),
           path=st.sampled_from(["lazy", "naive"]),
           comparator_mode=st.sampled_from(["composite", "exact"]),
           seed=st.integers(0, 2 ** 16),
           zeros=st.lists(st.sampled_from([None, 0.0, -0.0]), min_size=9, max_size=9))
    @example(dims=[4, 8, 8, 2], g=5, k=3, path="lazy", comparator_mode="composite", seed=0,
             zeros=[-0.0, 0.0] + [None] * 7)
    @example(dims=[9, 29], g=2, k=1, path="naive", comparator_mode="exact", seed=1,
             zeros=[None] * 9)
    @example(dims=[9, 29], g=1, k=1, path="lazy", comparator_mode="exact", seed=2,
             zeros=[-0.0] * 9)
    @example(dims=[7, 1], g=3, k=2, path="lazy", comparator_mode="composite", seed=3,
             zeros=[None, -0.0] * 4 + [0.0])
    # g + 2k a power of two and no SiLU doubling: the client's copies are
    # the basis's doubling, which the SiLU branch would not have made
    @example(dims=[3, 4], g=2, k=1, path="lazy", comparator_mode="exact", seed=3,
             zeros=[None] * 9)
    @example(dims=[5, 3, 2], g=4, k=2, path="naive", comparator_mode="composite", seed=4,
             zeros=[0.0, -0.0] + [None] * 7)
    def test_replicated_equals_raw(self, dims, g, k, path, comparator_mode, seed, zeros):
        mdl = random_model(dims, g=g, k=k, seed=seed)
        cfg = PipelineConfig(path=path, comparator_mode=comparator_mode)
        x = np.random.default_rng(seed).uniform(-1, 1, dims[0])
        for i, z in enumerate(zeros[:dims[0]]):
            if z is not None:
                x[i] = z
        try:
            mirrored = model_forward_plain(mdl, x, "mirrored", comparator=cfg.comparator(),
                                           path=path)
        except InputOutOfRange:
            assume(False)  # a hidden layer's input beyond its R: outside the contract
        bcfg = BackendConfig(slot_count=_smallest_slot_count(mdl, cfg),
                             depth_budget=plan_model(mdl, cfg).total)
        runs = []
        for arrive in (lambda be: encrypt_input(x, mdl, be), lambda be: be.encrypt(x)):
            be = HeBackend(bcfg)
            ct = arrive(be)
            out, per_layer = model_forward_he(mdl, ct, cfg)
            assert out.level == 0
            slots = be.decrypt(out)
            assert np.array_equal(slots[:mdl.n_out].view(np.int64), mirrored.view(np.int64))
            runs.append((ct.copies, slots, per_layer))
        (copies, replicated, fewer), (one, raw, more) = runs
        assert (copies, one) == (bspline.basis_copies(g, k), 1)
        assert np.array_equal(replicated.view(np.int64), raw.view(np.int64))
        # each doubling the client made is one rotation and one add
        saved = copies.bit_length() - 1
        assert ([(c.pt_mults, c.ct_mults, c.subs, c.adds, c.rotations) for c in fewer]
                == [(c.pt_mults, c.ct_mults, c.subs, c.adds - saved * (i == 0),
                     c.rotations - saved * (i == 0)) for i, c in enumerate(more)])


class TestArrivalContract:
    """Every arrival states what it holds: ``encrypt_input``'s
    basis_copies(g, k) copies of n_in slots, a raw ``encrypt`` of one
    vector (width len), or a previous layer's output (width its n_o), read
    by the next layer ("hidden") or by the whole model ("output"). Each
    is either rejected before any op and any noise draw (PackingOverflow
    at encryption when the client's copies do not fit; in the forward,
    the packed layout's PackingOverflow, a spline map's DimensionMismatch,
    or ShapeMismatch for a stated width other than n_i), or decrypts to the
    mirrored forward: bit for bit at sigma = 0, within 1e-7 at
    sigma = 1e-12 (the comparator amplifies the noise; up to 1.8e-9
    measured on these shapes)."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n_i=st.integers(1, 8), n_h=st.integers(1, 6), n_o=st.integers(1, 3),
           g=st.integers(1, 5), k=st.integers(1, 3), path=st.sampled_from(["lazy", "naive"]),
           log_slots=st.integers(4, 10), noise=st.sampled_from([0.0, 1e-12]),
           arrival=st.sampled_from(["client", "raw", "hidden", "output"]),
           width=st.integers(1, 16),
           seed=st.integers(0, 2 ** 16))
    # 3 values for n_i = 2: rejected, not read as the first two
    @example(n_i=2, n_h=5, n_o=1, g=5, k=3, path="lazy", log_slots=10, noise=0.0,
             arrival="raw", width=3, seed=1)
    @example(n_i=2, n_h=5, n_o=1, g=5, k=3, path="naive", log_slots=6, noise=1e-12,
             arrival="raw", width=1, seed=1)
    @example(n_i=2, n_h=5, n_o=1, g=5, k=3, path="naive", log_slots=6, noise=1e-12,
             arrival="raw", width=2, seed=1)
    @example(n_i=8, n_h=2, n_o=1, g=3, k=1, path="lazy", log_slots=4, noise=1e-12,
             arrival="client", width=8, seed=0)
    # layer 0's output, 5 slots, read by the model's own 2-input layer 0
    @example(n_i=2, n_h=5, n_o=1, g=5, k=3, path="lazy", log_slots=10, noise=0.0,
             arrival="output", width=1, seed=1)
    # of the same width: the model runs after its own layer 0
    @example(n_i=3, n_h=3, n_o=1, g=5, k=3, path="naive", log_slots=6, noise=1e-12,
             arrival="output", width=1, seed=1)
    def test_accepted_or_rejected_before_any_op(self, n_i, n_h, n_o, g, k, path, log_slots,
                                                noise, arrival, width, seed):
        mdl = random_model([n_i, n_h, n_o], g=g, k=k, seed=seed)
        cfg = PipelineConfig(path=path)
        x = np.random.default_rng(seed).uniform(-1, 1, n_i)
        first = KanModel(mdl.layers[:1], (1, 1, n_i))
        # the whole model after its layer 0, when their widths agree
        chain = (KanModel([*first.layers, *mdl.layers], (1, 1, n_i))
                 if arrival == "output" and n_h == n_i else mdl)
        try:
            mirrored = model_forward_plain(chain, x, "mirrored", comparator=cfg.comparator(),
                                           path=path)
        except InputOutOfRange:
            assume(False)  # a hidden layer's input beyond its R: outside the contract
        slots, target, w = 1 << log_slots, mdl, 1 + (width - 1) % (2 * n_i)  # w in [1, 2 n_i]
        depth = plan_model(mdl, cfg).total
        if arrival in ("hidden", "output"):  # layer 0's output: slots layer 0 fits
            if arrival == "hidden":  # read by layer 1
                target = KanModel(mdl.layers[1:], (1, 1, n_h))
            else:  # read by the whole model, after layer 0's levels
                depth += plan_model(first, cfg).total
            slots = max(slots, _smallest_slot_count(first, cfg))
        be = HeBackend(BackendConfig(slot_count=slots, depth_budget=depth,
                                     noise_std=noise, rng_seed=seed))

        def untouched():
            return be.counter.copy(), be._rng.bit_generator.state

        before = untouched()
        if arrival == "client" and n_i * bspline.basis_copies(g, k) > slots:
            with pytest.raises(PackingOverflow):
                encrypt_input(x, mdl, be)
            assert untouched() == (OpCounter(), before[1])
            return
        if arrival == "client":
            ct = encrypt_input(x, mdl, be)
        elif arrival == "raw":
            ct = be.encrypt(np.resize(x, w))  # x repeated or cut to w values
        else:
            ct = layer_forward_he(mdl.layers[0], encrypt_input(x, mdl, be), cfg)
        try:
            check_capacity(target, cfg, slots)
            stated = {"raw": w, "output": n_h}.get(arrival, n_i)
            error = ShapeMismatch if stated != n_i else None
        except (PackingOverflow, DimensionMismatch) as exc:
            error = type(exc)
        before = untouched()
        if error is not None:
            with pytest.raises(error):
                model_forward_he(target, ct, cfg)
            assert untouched() == before
            return
        out, _ = model_forward_he(target, ct, cfg)
        assert out.level == 0
        got = be.decrypt(out)[:n_o]
        if noise:
            assert np.max(np.abs(got - mirrored)) <= 1e-7
        else:
            assert np.array_equal(got.view(np.int64), mirrored.view(np.int64))


class TestPackingRotationsPerStage:
    """Each layer's repeat_pack stage rotates log2 of its layout's copies
    on the server, less one per doubling the client's basis_copies(g, k)
    copies save on layer 0."""

    @pytest.mark.parametrize("dims, g, k", [
        ([2, 5, 1], 5, 3), ([4, 8, 8, 2], 5, 3), ([9, 29], 2, 1), ([3, 4, 2], 2, 1),
        ([5, 3, 3], 1, 1)])
    @pytest.mark.parametrize("path", ["lazy", "naive"])
    def test_only_layer_0_arrives_packed(self, dims, g, k, path):
        mdl = random_model(dims, g=g, k=k, seed=4)
        cfg = PipelineConfig(path=path)
        x = np.random.default_rng(4).uniform(-1, 1, dims[0])
        mirrored = model_forward_plain(mdl, x, "mirrored", comparator=cfg.comparator(),
                                       path=path)
        bcfg = BackendConfig(slot_count=_smallest_slot_count(mdl, cfg),
                             depth_budget=plan_model(mdl, cfg).total)
        doublings = [inference._layout(layer, path, cfg.comparator(), bcfg.slot_count)
                     .copies.bit_length() - 1 for layer in mdl.layers]
        saved = bspline.basis_copies(g, k).bit_length() - 1
        for arrive, first in ((lambda be: encrypt_input(x, mdl, be), doublings[0] - saved),
                              (lambda be: be.encrypt(x), doublings[0])):
            be = HeBackend(bcfg)
            ct = arrive(be)
            rotations = []
            with pytest.MonkeyPatch.context() as mp:
                def spy(*args, _run=inference.repeat_pack):
                    before = be.counter.rotations
                    out = _run(*args)
                    rotations.append(be.counter.rotations - before)
                    return out

                mp.setattr(inference, "repeat_pack", spy)
                out, _ = model_forward_he(mdl, ct, cfg)
            assert rotations == [first] + doublings[1:]
            assert min(doublings) >= _paper_copies(g, k).bit_length() - 1
            assert np.array_equal(be.decrypt(out)[:mdl.n_out].view(np.int64),
                                  mirrored.view(np.int64))


def _paper_copies(g: int, k: int) -> int:
    """The paper's g + 2k copies, rounded up to a power of two."""
    return 1 << (g + 2 * k - 1).bit_length()


def _parent_matvec_slots(n_o: int, n_in: int) -> int:
    """The slots a matrix needed before the SiLU branch read the packed
    input: its wide or square period n, twice over for the wraparound
    duplication when n > 1."""
    p = n_in
    while p % 2 == 0 and p // 2 >= n_o:
        p //= 2
    n = n_in if p < n_in else max(n_o, n_in)
    return 2 * n if n > 1 else 1


def _parent_slot_count(n_i: int, n_o: int, g: int, k: int, path: str) -> int:
    """The smallest power-of-two slot count those laws accepted for one
    layer: W_b's duplicated operand, the packing and the spline maps, with
    the packing at the copies the basis reads (basis_copies: one doubling
    more when g + 2k is a power of two)."""
    nb = n_i * (g + k)
    need = max(_parent_matvec_slots(n_o, n_i), n_i * bspline.basis_copies(g, k),
               _parent_matvec_slots(n_o, nb))
    if path == "naive":
        need = max(need, 2 * nb if nb > 1 else 1)
    return 1 << (need - 1).bit_length()


def _operand_copies(n_i: int, g: int, k: int, reads: int) -> int:
    """The copies of n_i slots the layer's packed operand holds: the
    basis's, basis_copies(g, k), doubled until they cover the reads of
    W_b's schedule."""
    copies = bspline.basis_copies(g, k)
    while n_i * copies < reads:
        copies *= 2
    return copies


def _zero_layer_model(n_i: int, n_o: int, g: int, k: int) -> KanModel:
    grid = bspline.GridMatrix.uniform(n_i, g, k, -1.0, 1.0)
    layer = KanLayer(W_b=np.zeros((n_o, n_i)), S=np.zeros((n_o, n_i, grid.n_basis)),
                     grid=grid, silu_poly=Polynomial((0.0, 0.5)))
    return KanModel([layer], (1, 1, n_i))


class TestSiluReadsThePackedInput:
    """The SiLU branch runs the packed SiLU polynomial on repeat_pack's
    copies and hands them to W_b's repeated schedule: no SiLU mask, no
    wraparound duplication, and a tall W_b takes n_i diagonals. A W_b whose
    reads (n_o + n_i - 1 slots) pass the 2^ceil(log2(g + 2k)) copies has
    the packed copies doubled before the SiLU."""

    @staticmethod
    def _n_o(data, kind, n_i, copies):
        if kind == "wide":
            return data.draw(st.integers(1, n_i - 1)) if n_i > 1 else 1
        if kind == "square":
            return n_i
        if kind == "tall":
            return data.draw(st.integers(n_i + 1, (copies - 1) * n_i + 1))
        return data.draw(st.integers((copies - 1) * n_i + 2, 2 * copies * n_i))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["wide", "square", "tall", "tall past the copies"]),
           n_i=st.integers(1, 9), g=st.integers(1, 3), k=st.integers(1, 3),
           path=st.sampled_from(["lazy", "naive"]),
           comparator_mode=st.sampled_from(["composite", "exact"]),
           seed=st.integers(0, 2 ** 16), data=st.data())
    @example(kind="tall past the copies", n_i=9, g=1, k=1, path="lazy",
             comparator_mode="exact", seed=0, data=None)
    def test_layer_shapes(self, kind, n_i, g, k, path, comparator_mode, seed, data):
        pack = _paper_copies(g, k)
        n_o = 29 if data is None else self._n_o(data, kind, n_i, pack)
        mdl = random_model([n_i, n_o], g=g, k=k, seed=seed)
        layer = mdl.layers[0]
        cfg = PipelineConfig(path=path, comparator_mode=comparator_mode)
        x = np.random.default_rng(seed).uniform(-1, 1, n_i)
        mirrored = model_forward_plain(mdl, x, "mirrored", comparator=cfg.comparator(),
                                       path=path)
        plan = plan_layer(layer, cfg)
        be = HeBackend(BackendConfig(slot_count=_smallest_slot_count(mdl, cfg),
                                     depth_budget=plan.total))
        ct = encrypt_input(x, mdl, be)
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            def spy(W, v, repeated=False, over=None, giants=None, _run=inference.bsgs_matvec):
                before = be.counter.copy()
                out = _run(W, v, repeated, over, giants)
                calls.append((W, repeated, over, be.counter.since(before)))
                return out

            mp.setattr(inference, "bsgs_matvec", spy)
            out = layer_forward_he(layer, ct, cfg)

        assert np.array_equal(be.decrypt(out)[:n_o].view(np.int64), mirrored.view(np.int64))
        assert ct.level - out.level == plan.total
        assert calls[0][:2] == (layer.W_b, True)
        assert [W for W, *_ in calls[1:]] == list(layer.spline_maps(path))
        scheds = [matvec_schedule(W, repeated, over) for W, repeated, over, _ in calls]
        for sched, (*_, delta) in zip(scheds, calls):
            assert (delta.rotations, delta.pt_mults) == (sched.rotations, sched.pt_mults)
        layout = inference._layout(layer, path, cfg.comparator(), be.slot_count)
        over, copies = layout.over, _operand_copies(n_i, g, k, scheds[0].reads)
        assert calls[0][2] == over
        assert layout.copies == copies
        own = matvec_schedule(layer.W_b, True).reads > n_i * pack
        assert own == (n_o > (pack - 1) * n_i + 1) == (kind == "tall past the copies")
        # packing and doubling make the copies both branches read, one
        # rotation per doubling; the client's copies save one each
        assert ct.copies == bspline.basis_copies(g, k)
        assert be.counter.rotations == (copies.bit_length() - ct.copies.bit_length() + 1 + k
                                        + sum(s.rotations for s in scheds))
        if n_o > n_i:
            assert over is None and scheds[0].shape == (n_i, n_o)  # n_i diagonals, n_o slots
        assert not scheds[0].duplicates

    def test_no_shape_within_the_copies_needs_more_slots(self):
        # every W_b with n_o <= 3 n_i + 1 reads inside the (at least 4)
        # packed copies, so it needs no slot the packing does not
        for g, k in ((1, 1), (2, 1), (3, 2), (5, 3), (1, 5)):
            for n_i in range(1, 13):
                for n_o in range(1, 3 * n_i + 2):
                    mdl = _zero_layer_model(n_i, n_o, g, k)
                    for path in ("lazy", "naive"):
                        cfg = PipelineConfig(path=path)
                        assert (_smallest_slot_count(mdl, cfg)
                                <= _parent_slot_count(n_i, n_o, g, k, path)), (n_i, n_o, g, k)

    def test_reads_past_the_copies_can_double_the_slots(self):
        # W_b 29 x 9 reads 37 slots; g + 2k = 3 packs 4 copies of 9 (36), so
        # the SiLU branch doubles them to 8: 72 slots, past 64
        mdl = _zero_layer_model(9, 29, 1, 1)
        cfg = PipelineConfig(comparator_mode="exact")
        assert _parent_slot_count(9, 29, 1, 1, "lazy") == 64
        assert _smallest_slot_count(mdl, cfg) == 128
        assert (inference._layout(mdl.layers[0], "lazy", cfg.comparator(), 128)
                == LayerLayout(copies=8, over=None))
        with pytest.raises(PackingOverflow, match="8 copies of 9 slots exceed 64"):
            check_capacity(mdl, cfg, 64)

    def test_geometry_is_worked_out_once_per_layer(self, monkeypatch):
        # check_capacity and every forward after the first reuse the
        # geometry kept on the layer, and nothing else keeps the layer alive
        mdl = random_model([2, 5, 1], g=5, k=3, seed=1)
        calls = []

        def spy(layer, path, comparator, slot_count, _run=inference._layout):
            kept = layer.layouts.get((path, comparator, slot_count))
            layout = _run(layer, path, comparator, slot_count)
            if kept is None:
                calls.append(id(layer))  # worked out
            else:
                assert layout is kept
            return layout

        monkeypatch.setattr(inference, "_layout", spy)
        cfg = PipelineConfig(backend=BackendConfig(slot_count=4096, depth_budget=80))
        x = np.array([0.4, -0.3])
        for _ in range(2):
            be = make_backend(cfg.backend)
            model_forward_he(mdl, encrypt_input(x, mdl, be), cfg)
            model_forward_plain(mdl, x, "mirrored", comparator=cfg.comparator())
        # one per layer on 4096 slots, one per layer in the mirror (the
        # planner's stand-in layers may add their own)
        ids = [id(layer) for layer in mdl.layers]
        assert sorted(c for c in calls if c in ids) == sorted(2 * ids)
        layer = weakref.ref(mdl.layers[0])
        del mdl
        gc.collect()
        assert layer() is None

    def test_basis_reads_the_silu_doubling(self):
        # g + 2k = 4 packs 4 copies of 9; W_b 29 x 9 reads 37 slots, so the
        # SiLU branch needs 8, the copies the basis's call reads: one
        # doubling makes the operand both read. A raw encryption packs on
        # the server; the client's 8 copies save the packing's two
        # doublings and that one
        mdl = random_model([9, 29], g=2, k=1, seed=0)
        layer = mdl.layers[0]
        cfg = PipelineConfig(comparator_mode="exact")
        x = np.random.default_rng(1).uniform(-1, 1, 9)
        mirrored = model_forward_plain(mdl, x, "mirrored", comparator=cfg.comparator())
        for arrive, rotations, doublings_by_36 in (
                (lambda be: be.encrypt(x), 19, 1), (lambda be: encrypt_input(x, mdl, be), 16, 0)):
            be = HeBackend(BackendConfig(slot_count=128,
                                         depth_budget=plan_layer(layer, cfg).total))
            assert (inference._layout(layer, "lazy", cfg.comparator(), 128)
                    == LayerLayout(copies=8, over=None))
            shifts = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(HeBackend, "rotate",
                           lambda self, a, t, _run=HeBackend.rotate:
                           shifts.append(t) or _run(self, a, t))
                out = layer_forward_he(layer, arrive(be), cfg)
            assert be.counter.rotations == rotations
            assert shifts.count(-36) == doublings_by_36  # doublings by n_i * 4
            assert np.array_equal(be.decrypt(out)[:29].view(np.int64), mirrored.view(np.int64))


class TestOneFoldChain:
    """One comparator call per layer, and one set of giant rotations and
    one fold chain when W_b's block sum on the last spline map's geometry
    saves rotations (ties: plaintext multiplies) and the SiLU branch is no
    deeper than the spline branch."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n_i=st.integers(1, 12), n_o=st.integers(1, 12), g=st.integers(1, 6),
           k=st.integers(1, 4), path=st.sampled_from(["lazy", "naive"]),
           comparator_mode=st.sampled_from(["composite", "exact"]),
           seed=st.integers(0, 2 ** 16))
    @example(n_i=2, n_o=5, g=5, k=3, path="lazy", comparator_mode="composite", seed=1)
    @example(n_i=5, n_o=1, g=5, k=3, path="lazy", comparator_mode="composite", seed=1)
    @example(n_i=5, n_o=1, g=5, k=1, path="lazy", comparator_mode="exact", seed=1)
    @example(n_i=7, n_o=1, g=3, k=2, path="naive", comparator_mode="composite", seed=1)
    @example(n_i=1, n_o=5, g=2, k=1, path="lazy", comparator_mode="composite", seed=0)
    def test_count_law(self, n_i, n_o, g, k, path, comparator_mode, seed):
        mdl = random_model([n_i, n_o], g=g, k=k, seed=seed)
        layer = mdl.layers[0]
        cfg = PipelineConfig(path=path, comparator_mode=comparator_mode)
        comparator = cfg.comparator()
        x = np.random.default_rng(seed).uniform(-1, 1, n_i)
        plan = plan_layer(layer, cfg)
        be = HeBackend(BackendConfig(slot_count=_smallest_slot_count(mdl, cfg),
                                     depth_budget=plan.total))
        ct = encrypt_input(x, mdl, be)
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            def spy(W, v, repeated=False, over=None, giants=None, _run=inference.bsgs_matvec):
                calls.append((W, over, giants is not None))
                return _run(W, v, repeated, over, giants)

            mp.setattr(inference, "bsgs_matvec", spy)
            out = layer_forward_he(layer, ct, cfg)
        mirrored = model_forward_plain(mdl, x, "mirrored", comparator=comparator, path=path)
        assert np.array_equal(be.decrypt(out)[:n_o].view(np.int64), mirrored.view(np.int64))
        assert ct.level - out.level == plan.total

        # the shared chain is chosen exactly when it saves
        maps = [matvec_schedule(W) for W in layer.spline_maps(path)]
        own = matvec_schedule(layer.W_b, True)
        shared = matvec_schedule(layer.W_b, True, maps[-1].shape) if maps[-1].folds else None

        pack = _paper_copies(g, k)

        def doublings_for(sched):
            return _operand_copies(n_i, g, k, sched.reads).bit_length() - pack.bit_length()

        def cost(sched):
            return sched.rotations + doublings_for(sched), sched.pt_mults

        saves = (shared is not None and cost(shared) < cost(own)
                 and plan.silu_branch <= plan.spline_branch)
        base = shared if saves else own
        assert calls == [(layer.W_b, maps[-1].shape if saves else None, False),
                         *[(W, None, False) for W in layer.spline_maps(path)[:-1]],
                         (layer.spline_maps(path)[-1], None, saves)]
        assert not base.folds or not saves
        copies = _operand_copies(n_i, g, k, base.reads)
        assert inference._layout(layer, path, comparator, be.slot_count) == LayerLayout(
            copies=copies, over=maps[-1].shape if saves else None)

        # the closed form: packing and the doublings up to the copies both
        # branches read, less those the client's copies save, the
        # telescoping rotation, one per recursion order, W_b's block sum
        # (giant rotations and folds included when it keeps them; its baby
        # rotations alone when shared), the spline maps (the last one's
        # giant rotations and folds shared when W_b's are not its own)
        alone = HeBackend(BackendConfig(slot_count=4, depth_budget=plan.total))
        eval_poly_he(alone.encrypt([0.1]), layer.packed_silu_poly)
        poly_comp(alone.encrypt([0.1]), 0.0, comparator)
        rotations = (copies.bit_length() - ct.copies.bit_length() + 1 + k + base.rotations
                     + sum(m.rotations for m in maps))
        pt_mults = (1 + alone.counter.pt_mults + (k + 1) + base.pt_mults
                    + sum(m.pt_mults for m in maps))
        counter = be.counter
        assert (counter.rotations, counter.pt_mults) == (rotations, pt_mults)
        assert counter.ct_mults == alone.counter.ct_mults + k + 1

    @pytest.mark.parametrize("dims, g, k, tight, error", [
        ([4, 1], 2, 1, 32, PackingOverflow),     # g + 2k = 4: the basis reads 8 copies of 4
        ([7, 1], 3, 2, 128, PackingOverflow),    # W_b's block sum on 1 x 64 doubles 8 copies of 7
    ])
    @pytest.mark.parametrize("path", ["lazy", "naive"])
    def test_tightest_slot_count_runs_and_the_next_is_rejected(self, dims, g, k, tight, error,
                                                              path):
        mdl = random_model(dims, g=g, k=k, seed=5)
        cfg = PipelineConfig(path=path)
        x = np.random.default_rng(5).uniform(-1, 1, dims[0])
        assert _smallest_slot_count(mdl, cfg) == tight
        depth = plan_model(mdl, cfg).total
        be = HeBackend(BackendConfig(slot_count=tight, depth_budget=depth))
        out, _ = model_forward_he(mdl, encrypt_input(x, mdl, be), cfg)
        mirrored = model_forward_plain(mdl, x, "mirrored", comparator=cfg.comparator(), path=path)
        assert np.array_equal(be.decrypt(out)[:1].view(np.int64), mirrored.view(np.int64))
        small = HeBackend(BackendConfig(slot_count=tight // 2, depth_budget=depth))
        if dims[0] * bspline.basis_copies(g, k) > tight // 2:  # the client's copies
            with pytest.raises(error):
                encrypt_input(x, mdl, small)
            ct = small.encrypt(x)
        else:
            ct = encrypt_input(x, mdl, small)
        with pytest.raises(error):
            model_forward_he(mdl, ct, cfg)
        with pytest.raises(error):
            layer_forward_he(mdl.layers[0], ct, cfg)
        assert small.counter == OpCounter()


class TestLayerLayout:
    """One record per (layer, path, comparator, slot count) gives the copy
    count of the layer program (``inference._layout``): the least
    power-of-two multiple of the basis's basis_copies(g, k) that covers
    W_b's reads on ``over``; the fit errors are PackingOverflow for those
    copies, then each spline map's DimensionMismatch; and the forward packs
    in one call (``bspline.repeat_pack``): one doubling chain from the
    arrived copies up to the record's, into the one operand both branches
    read."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n_i=st.integers(1, 10), n_o=st.integers(1, 30), g=st.integers(1, 6),
           k=st.integers(1, 4), path=st.sampled_from(["lazy", "naive"]),
           comparator_mode=st.sampled_from(["composite", "exact"]),
           log_slots=st.integers(0, 10), raw=st.booleans(), seed=st.integers(0, 2 ** 16))
    @example(n_i=9, n_o=29, g=1, k=1, path="lazy", comparator_mode="exact", log_slots=6,
             raw=False, seed=0)
    @example(n_i=2, n_o=5, g=5, k=3, path="lazy", comparator_mode="composite", log_slots=4,
             raw=True, seed=1)
    def test_contract(self, n_i, n_o, g, k, path, comparator_mode, log_slots, raw, seed):
        mdl = random_model([n_i, n_o], g=g, k=k, seed=seed)
        layer = mdl.layers[0]
        cfg = PipelineConfig(path=path, comparator_mode=comparator_mode)
        comparator = cfg.comparator()
        layout = inference._layout(layer, path, comparator, math.inf)  # the mirror's
        maps = [matvec_schedule(W) for W in layer.spline_maps(path)]
        assert layout.over in (None, maps[-1].shape)
        copies = _operand_copies(n_i, g, k,
                                 matvec_schedule(layer.W_b, True, layout.over).reads)
        assert layout.copies == copies

        # the fit errors: the operand's copies, then each map
        slots = 1 << log_slots

        def fits(sched):
            try:
                sched.check_capacity(slots)
                return True
            except DimensionMismatch:
                return False

        error = (PackingOverflow if n_i * copies > slots
                 else DimensionMismatch if not all(map(fits, maps))
                 else None)
        if error is not None:
            with pytest.raises(error):
                check_capacity(mdl, cfg, slots)
            with pytest.raises(error):
                inference._layout(layer, path, comparator, slots)
            slots = _smallest_slot_count(mdl, cfg)
        check_capacity(mdl, cfg, slots)
        assert inference._layout(layer, path, comparator, slots) == layout

        # the one operand both branches read, and the one doubling chain
        # that makes it
        be = HeBackend(BackendConfig(slot_count=slots, depth_budget=plan_layer(layer, cfg).total))
        x = np.random.default_rng(seed).uniform(-1, 1, n_i)
        ct = be.encrypt(x) if raw else encrypt_input(x, mdl, be)
        arrived = min(ct.copies, layout.copies)
        doublings, operands = [], {}

        def double(v, n, copies, target, _run=bspline._double_copies):
            before = be.counter.rotations
            out = _run(v, n, copies, target)
            doublings.append(be.counter.rotations - before)
            return out

        def reads(name, run):
            def spy(v, *args, **kwargs):
                operands[name] = be.decrypt(v)
                return run(v, *args, **kwargs)
            return spy

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bspline, "_double_copies", double)
            mp.setattr(inference, "eval_poly_he", reads("silu", inference.eval_poly_he))
            mp.setattr(inference, "bspline_basis_he", reads("basis", inference.bspline_basis_he))
            out = layer_forward_he(layer, ct, cfg)
        assert len(doublings) == 1  # one chain, from the copies that arrived
        assert 1 << doublings[0] == layout.copies // arrived
        scaled = x * layer.grid.scale
        for name in ("silu", "basis"):
            assert np.array_equal(operands[name][:n_i * copies], np.tile(scaled, copies))
            assert not operands[name][n_i * copies:].any()
        mirrored = model_forward_plain(mdl, x, "mirrored", comparator=comparator, path=path)
        assert np.array_equal(be.decrypt(out)[:n_o].view(np.int64), mirrored.view(np.int64))

        # the planner's 1 x 1 stand-in never shares folds, so _plan never
        # runs on the stand-in it plans with
        stand_ins = []
        with pytest.MonkeyPatch.context() as mp:
            def spy(layer, *args, _run=inference._layout):
                out = _run(layer, *args)
                if layer.W_b.shape == (1, 1):
                    stand_ins.append(out)
                return out

            mp.setattr(inference, "_layout", spy)
            inference._plan.__wrapped__(layer.packed_silu_poly, k, path, comparator)
        assert stand_ins and all(found.over is None for found in stand_ins)


class TestPlanStagesJoinMeasuredDrops:
    """Each planned stage joined to the level drop of the function that
    runs it, layer by layer, as perfbench's plan_mismatch joins them."""

    @staticmethod
    def _trace(mdl, ct, cfg):
        """Run the forward; returns, per layer, its staged calls as
        (name, first argument, level in, level out), the layer's own call
        last. The plan must be cached already, or its probe run would be
        traced too."""
        def level(obj):  # a shared W_b's giant blocks: the first one's, as perfbench reads it
            return (obj[0] if isinstance(obj, tuple) else obj).level

        events = []
        with pytest.MonkeyPatch.context() as mp:
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

                mp.setattr(module, name, call)
            model_forward_he(mdl, ct, cfg)
        layers, calls = [], []
        for event in events:
            calls.append(event)
            if event[0] == "layer_forward_he":
                layers.append(calls)
                calls = []
        return layers

    @pytest.mark.parametrize("dims, g, k", [([4, 3], 4, 1), ([6, 2], 5, 3),
                                            ([4, 3, 3, 2], 3, 2), ([4, 1], 3, 1)])
    @pytest.mark.parametrize("comparator_mode", ["composite", "exact"])
    @pytest.mark.parametrize("path", ["lazy", "naive"])
    def test_every_stage_matches_its_functions_drop(self, dims, g, k, comparator_mode,
                                                    path):
        self._check(random_model(dims, g=g, k=k, seed=len(dims) + k), k, comparator_mode,
                    path)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(dims=st.lists(st.integers(1, 6), min_size=2, max_size=5),
           g=st.integers(1, 4), k=st.integers(1, 5),
           path=st.sampled_from(["lazy", "naive"]),
           comparator_mode=st.sampled_from(["composite", "exact"]),
           seed=st.integers(0, 2 ** 16))
    def test_stand_in_plan_matches_drawn_layers(self, dims, g, k, path, comparator_mode,
                                                seed):
        """The plan comes from a one-feature stand-in; every stage's drop
        on real layers of the shapes TestOneLayerProgram draws matches it."""
        self._check(random_model(dims, g=g, k=k, seed=seed), seed, comparator_mode, path)

    def _check(self, mdl, seed, comparator_mode, path):
        cfg = PipelineConfig(path=path, comparator_mode=comparator_mode)
        plan = plan_model(mdl, cfg)
        be = HeBackend(BackendConfig(slot_count=1024, depth_budget=plan.total))
        ct = be.encrypt(np.random.default_rng(seed).uniform(-1, 1, mdl.n_in))
        layers = self._trace(mdl, ct, cfg)
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
                "base_matvec": base_in - base_out,
                "repeat_pack": pack_in - pack_out,
                "comparator": {lin - lout for lin, lout in comps},
                "basis_recursion": {lout - basis_out for _, lout in comps},
                "spline_matvec": sum(lin - lout for lin, lout in maps),
            }
            stages = lp.stages
            assert {n for key in measured for n in key.split(" + ")} == set(stages)
            assert len(comps) == 1 and len(maps) == stages["spline_matvec"]
            assert {lin for lin, _ in comps} == {pack_out}  # packed in comparator units
            assert poly_in == pack_out and base_in == poly_out  # the SiLU reads the copies
            assert measured == {
                "silu_poly": stages["silu_poly"],
                "base_matvec": stages["base_matvec"],
                "repeat_pack": stages["repeat_pack"],
                "comparator": {stages["comparator"]},
                "basis_recursion": {stages["basis_recursion"]},
                "spline_matvec": stages["spline_matvec"],
            }
            assert basis_in - basis_out == basis_depth(layer.k, cfg.comparator())
            assert layer_in - base_out == lp.silu_branch
            assert layer_in - maps[-1][1] == lp.spline_branch
            assert layer_in - layer_out == lp.total


class TestPlanIsReadOffTheProgram:
    """The planner runs the layer program once per (SiLU polynomial, k,
    path, comparator) on a probe backend and caches the plan."""

    @pytest.fixture
    def cold_plans(self):
        inference._plan.cache_clear()
        yield
        inference._plan.cache_clear()

    def test_plan_follows_the_program(self, monkeypatch, cold_plans):
        # one extra plaintext multiply in the packing shows up in the plan
        # with no edit to the planner
        mdl = random_model([2, 5, 1], g=5, k=3, seed=0)
        cfg = PipelineConfig()
        before = plan_layer(mdl.layers[0], cfg)
        pack = inference.repeat_pack

        def costlier_pack(*args):
            xs = pack(*args)
            return _ops_of(xs).mul(xs, 1.0)

        monkeypatch.setattr(inference, "repeat_pack", costlier_pack)
        inference._plan.cache_clear()
        after = plan_layer(mdl.layers[0], cfg)
        assert after.stages["repeat_pack"] == before.stages["repeat_pack"] + 1
        assert after.total == before.total + 1
        assert {**after.stages, "repeat_pack": 0} == {**before.stages, "repeat_pack": 0}
        plan = plan_model(mdl, cfg)
        be = HeBackend(BackendConfig(slot_count=1024, depth_budget=plan.total))
        out, _ = model_forward_he(mdl, encrypt_input(np.array([0.4, -0.3]), mdl, be), cfg)
        assert out.level == 0

    @pytest.mark.parametrize("path, comparator_mode, line, total", [
        ("lazy", "composite", "comparator=10, basis_recursion=3, spline_matvec=1 | "
                              "silu branch 5, spline branch 15, layer 15", 30),
        ("lazy", "exact", "comparator=0, basis_recursion=4, spline_matvec=1 | "
                          "silu branch 5, spline branch 6, layer 6", 12),
        ("naive", "composite", "comparator=10, basis_recursion=3, spline_matvec=2 | "
                               "silu branch 5, spline branch 16, layer 16", 32),
        ("naive", "exact", "comparator=0, basis_recursion=4, spline_matvec=2 | "
                           "silu branch 5, spline branch 7, layer 7", 14)])
    def test_describe_is_pinned(self, path, comparator_mode, line, total):
        # the CLI prints this text
        mdl = random_model([2, 5, 1], g=5, k=3, seed=0)
        cfg = PipelineConfig(path=path, comparator_mode=comparator_mode)
        head = "repeat_pack=1, silu_poly=3, base_matvec=1, "
        assert plan_model(mdl, cfg).describe() == (
            f"layer 0: {head}{line}\nlayer 1: {head}{line}\ntotal depth {total}")

    def test_stages_are_read_only(self):
        # plans are cached and shared between layers and calls
        plan = plan_layer(random_model([2, 1], g=3, k=2, seed=0).layers[0], PipelineConfig())
        with pytest.raises(TypeError):
            plan.stages["comparator"] = 0
        assert plan.stages["comparator"] == 10

    def test_second_check_runs_no_layer_program(self, monkeypatch, cold_plans):
        mdl = random_model([3, 4, 2], g=3, k=2, seed=1)
        cfg = PipelineConfig(path="naive")
        runs = []
        layer = inference._layer
        monkeypatch.setattr(inference, "_layer", lambda *args: runs.append(args) or layer(*args))
        first = check_depth_budget(mdl, cfg, 100)
        planned = len(runs)
        assert 1 <= planned <= len(mdl.layers)
        second = check_depth_budget(mdl, cfg, 100)
        assert len(runs) == planned
        assert all(a is b for a, b in zip(first.layers, second.layers))


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


class TestOneOverflowError:
    """Every copy count of the packed layout that does not fit raises
    PackingOverflow before any op and any noise draw: the client's copies
    at encryption, the basis's at the layer, and the layer operand's when
    W_b's reads need more than the basis's."""

    @staticmethod
    def _backend(mdl, slots, cfg=PipelineConfig()):
        depth = plan_model(mdl, cfg).total
        return HeBackend(BackendConfig(slot_count=slots, depth_budget=depth,
                                       noise_std=1e-12, rng_seed=0))

    @staticmethod
    def _state(be):
        return be.counter.copy(), be._rng.bit_generator.state

    def test_the_clients_copies(self):
        # basis_copies(3, 1) = 8 copies of 8 values need 64 slots
        mdl = random_model([8, 2], g=3, k=1, seed=0)
        be = self._backend(mdl, 4)
        before = self._state(be)
        with pytest.raises(PackingOverflow, match="8 copies of 8 slots exceed 4"):
            encrypt_input(np.zeros(8), mdl, be)
        assert self._state(be) == before

    @pytest.mark.parametrize("dims, g, k, seed, slots, replicated, message", [
        # basis_copies(2, 1) = 8 copies of 4 need 32 slots
        ([4, 1], 2, 1, 5, 16, False, "8 copies of 4 slots exceed 16"),
        # the basis reads 4 copies of 9 (36 slots); W_b 29 x 9 reads 37, so
        # the operand doubles them to 8: 72 slots
        ([9, 29], 1, 1, 3, 64, False, "8 copies of 9 slots exceed 64"),
        ([9, 29], 1, 1, 3, 64, True, "8 copies of 9 slots exceed 64"),
    ], ids=["basis", "operand-raw", "operand-replicated"])
    @pytest.mark.parametrize("path", ["lazy", "naive"])
    def test_the_layers_copies(self, dims, g, k, seed, slots, replicated, message, path):
        mdl = random_model(dims, g=g, k=k, seed=seed)
        cfg = PipelineConfig(path=path)
        be = self._backend(mdl, slots, cfg)
        x = np.zeros(dims[0])
        ct = encrypt_input(x, mdl, be) if replicated else be.encrypt(x)
        before = self._state(be)
        with pytest.raises(PackingOverflow, match=message):
            check_capacity(mdl, cfg, slots)
        with pytest.raises(PackingOverflow, match=message):
            model_forward_he(mdl, ct, cfg)
        with pytest.raises(PackingOverflow, match=message):
            layer_forward_he(mdl.layers[0], ct, cfg)
        assert self._state(be) == before


class TestPackingFeasibility:
    def test_rejects_exactly_overflowing_configs(self):
        # n_i = 4 in 64 slots: feasible iff 4 * (g + 2k) <= 64
        bcfg = BackendConfig(slot_count=64, depth_budget=10)
        for copies in range(2, 24):
            be = HeBackend(bcfg)
            ct = be.encrypt(np.ones(4))
            feasible = 4 * copies <= 64
            G = bspline.GridMatrix.uniform(4, copies, 0, -1.0, 1.0)
            if feasible:
                repeat_pack(ct, G, _paper_copies(copies, 0))
            else:
                with pytest.raises(PackingOverflow):
                    repeat_pack(ct, G, _paper_copies(copies, 0))

    @pytest.mark.parametrize("dims, g, k, error", [
        ([9, 29], 1, 1, PackingOverflow),     # W_b reads 37 slots: 4 copies of 9 doubled, 72 > 64
        ([12, 2], 3, 1, PackingOverflow),     # 12 * 5 fits, 8 doubled copies do not
        ([8, 2], 5, 1, DimensionMismatch),    # packs 8 * 8, spline map period 48
    ])
    @pytest.mark.parametrize("path", ["lazy", "naive"])
    def test_too_wide_model_rejected_before_any_op(self, dims, g, k, error, path):
        mdl = random_model(dims, g=g, k=k, seed=3)
        bcfg = BackendConfig(slot_count=64, depth_budget=40)
        be = HeBackend(bcfg)
        if dims[0] * bspline.basis_copies(g, k) > 64:  # the client's copies
            with pytest.raises(error):
                encrypt_input(np.zeros(dims[0]), mdl, be)
            ct = be.encrypt(np.zeros(dims[0]))
        else:
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
        with pytest.raises(HeKanError):
            bench_compare(mdl, [], [PipelineConfig()])

    def test_missing_backend_rejected(self):
        mdl = random_model([4, 2], g=3, k=1, seed=23)
        with pytest.raises(ValueError):
            bench_compare(mdl, [np.zeros(4)], [PipelineConfig()])
        with pytest.raises(HeKanError):
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
        # each input arrives as basis_copies(3, 2) = 8 copies, so layer 0
        # packs with log2(8) = 3 rotations fewer than a raw encryption's
        assert [(r["rotations"], r["ct_mults"], r["pt_mults"], r["depth"],
                 r["speedup_vs_naive_counts"]) for r in rows] == [
            (52, 96, 146, 28, 1.3401), (52, 24, 82, 10, 1.6329),
            (82, 96, 216, 30, 1.0), (82, 24, 152, 12, 1.0)]

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
            with pytest.raises(HeKanError):
                PipelineConfig.from_json(doc, bcfg)

    @pytest.mark.parametrize("kwargs", [
        {"comparator_mode": "fuzzy"}, {"path": "sideways"}, {"alpha": "x"},
        {"alpha": -1.0}, {"target_eps": 2.0}, {"label": 7}])
    def test_config_errors_are_library_errors(self, kwargs):
        with pytest.raises(HeKanError):
            PipelineConfig(**kwargs)

    def test_table_config_op_counts_are_pinned(self):
        # (rotations, pt_mults, ct_mults) per (n_i, g, k), n_o = 10, 2^15
        # slots; the input arrives as basis_copies(g, k) copies, so layer 0
        # packs with no rotation, and W_b shares the last map's giant
        # rotations and folds
        pinned = {
            "(64,3,2)": {"lazy": (17, 43, 24), "naive": (52, 363, 24)},
            "(128,5,3)": {"lazy": (20, 56, 25), "naive": (83, 1080, 25)},
            "(256,5,3)": {"lazy": (21, 56, 25), "naive": (111, 2104, 25)},
            "(256,10,3)": {"lazy": (22, 50, 25), "naive": (137, 3378, 25)},
            "(256,10,5)": {"lazy": (24, 56, 27), "naive": (147, 3896, 27)},
        }
        configs = [(64, 3, 2), (128, 5, 3), (256, 5, 3), (256, 10, 3), (256, 10, 5)]
        rows = bench_lazy_vs_naive(configs, slot_count=2 ** 15, depth_budget=32,
                                   n_o=10, seed=0)
        measured = {}
        for row in rows:
            measured.setdefault(row["config"], {})[row["path"]] = (
                row["rotations"], row["pt_mults"], row["ct_mults"])
        assert measured == pinned

    def test_two_layer_op_counts_are_pinned(self):
        # perfbench's kan_small model, [2, 5, 1] with g = 5, k = 3, on the
        # lazy path at 2^15 slots: layer 0 keeps W_b's own schedule, and
        # layer 1's one-row W_b shares the last map's geometry on p = 1,
        # where there is no giant step to share
        mdl = random_model([2, 5, 1], g=5, k=3, seed=3)
        cfg = PipelineConfig()
        layouts = [inference._layout(layer, "lazy", cfg.comparator(), 2 ** 15)
                   for layer in mdl.layers]
        assert layouts[0].over is None
        assert layouts[1].over is not None and layouts[1].over[0] == 1
        be = HeBackend(BackendConfig(slot_count=2 ** 15, depth_budget=plan_model(mdl, cfg).total))
        ct = encrypt_input(np.array([0.3, -0.6]), mdl, be)
        out, _ = model_forward_he(mdl, ct, cfg)
        c = be.counter
        assert (c.rotations, c.pt_mults, c.ct_mults, ct.level - out.level) == (25, 60, 50, 30)

    def test_determinism_across_runs(self):
        kwargs = dict(slot_count=512, depth_budget=40, n_o=3, seed=5)
        r1 = bench_lazy_vs_naive([(8, 4, 2)], **kwargs)
        r2 = bench_lazy_vs_naive([(8, 4, 2)], **kwargs)
        for a, b in zip(r1, r2):
            for key in ("rotations", "ct_mults", "pt_mults", "depth",
                        "speedup_vs_naive_counts"):
                assert a[key] == b[key]
