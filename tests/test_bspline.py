from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import BSpline

from hekan.approx import EXACT_COMPARATOR, build_composite_sign
from hekan import bspline
from hekan.approx import poly_comp
from hekan.backend import BackendConfig, HeBackend, OpCounter, _ArrayOps
from hekan.bspline import (
    GridMatrix,
    basis_copies,
    basis_depth,
    bspline_basis_he,
    bspline_basis_plain,
    col_tile,
    fuse_weights,
    gen_permutation,
    repeat_pack,
    repeat_pack_naive,
)
from hekan.errors import (
    DimensionMismatch,
    HeKanError,
    IndexOutOfRange,
    InputOutOfRange,
    InsufficientKnots,
    InvalidArgument,
    NonFiniteInput,
    PackingOverflow,
    ShapeMismatch,
)
from hekan.inference import PipelineConfig, encrypt_input, plan_layer
from hekan.model import random_model


def backend(slots=256, depth=30):
    return HeBackend(BackendConfig(slot_count=slots, depth_budget=depth))


COMPARATORS = {"exact": lambda: EXACT_COMPARATOR, "composite": build_composite_sign}


def he_basis_values(x, G, comparator, slots=512, depth=30):
    """Run the encrypted path and return the (n_i, g+k) value matrix."""
    be = backend(slots, depth)
    ct = be.encrypt(x)
    bv = bspline_basis_he(repeat_pack(ct, G), G, comparator)
    vals = bv.slots[: G.n_i * G.n_basis].reshape(G.n_basis, G.n_i).T
    return vals, bv, be


def clear_basis_values(x, G, comparator):
    """The same packing and basis programs run on the input array (the
    mirror's run), as the (n_i, g+k) value matrix."""
    b = bspline_basis_he(repeat_pack(x, G), G, comparator)
    return b[: G.n_i * G.n_basis].reshape(G.n_basis, G.n_i).T


class TestGridMatrix:
    def test_uniform_construction(self):
        G = GridMatrix.uniform(3, 5, 2, -1.0, 1.0)
        assert G.entries.shape == (3, 5 + 2 * 2 + 1)
        np.testing.assert_allclose(G.entries[0][G.k], -1.0)
        np.testing.assert_allclose(G.entries[0][G.k + G.g], 1.0)
        assert G.R == pytest.approx(1.2 * 1.8)

    def test_rejects_repeated_knots(self):
        rows = np.array([[0.0, 0.0, 1.0, 2.0]])
        with pytest.raises(InsufficientKnots):
            GridMatrix(rows, g=1, k=1, R=2.0)

    def test_rejects_bad_shape(self):
        with pytest.raises(DimensionMismatch):
            GridMatrix(np.zeros((2, 5)), g=3, k=1, R=1.0)
        with pytest.raises(DimensionMismatch, match="n_i >= 1"):  # no features
            GridMatrix(np.zeros((0, 6)), g=3, k=1, R=1.0)
        with pytest.raises(DimensionMismatch):
            GridMatrix.uniform(0, 3, 1, -1.0, 1.0)

    def test_rejects_R_below_the_largest_knot(self):
        rows = np.array([[-1.0, -0.5, 0.0, 0.5, 2.0]])
        GridMatrix(rows, g=2, k=1, R=2.0)  # |knot| == R is inside the scaling
        with pytest.raises(InputOutOfRange):
            GridMatrix(rows, g=2, k=1, R=1.9)
        with pytest.raises(InputOutOfRange):
            GridMatrix.uniform(2, 3, 2, -1.0, 1.0, R=0.5)  # knots reach 1 + 2h

    def test_rejects_non_finite_knots_and_R(self):
        # R = inf scaled every comparator operand to 0; a NaN knot passed
        # both the ordering and the R check
        rows = np.array([[-1.0, -0.5, 0.0, 0.5, 1.0]])
        with pytest.raises(NonFiniteInput):
            GridMatrix(rows, g=2, k=1, R=np.inf)
        with pytest.raises(NonFiniteInput):
            GridMatrix(rows, g=2, k=1, R=np.nan)
        with pytest.raises(NonFiniteInput):
            GridMatrix([[-1.0, -0.5, np.nan, 0.5, 1.0]], g=2, k=1, R=2.0)

    @pytest.mark.parametrize("R", [0.0, -1.0])
    def test_rejects_non_positive_R_as_a_library_error(self, R):
        with pytest.raises(HeKanError, match="R must be positive"):
            GridMatrix(np.array([[-1.0, 0.0, 1.0]]), g=2, k=0, R=R)

    def test_copies_the_callers_array(self):
        # the grid freezes its own copy, never the caller's array
        rows = np.array([[-1.0, -0.5, 0.0, 0.5, 1.0]])
        G = GridMatrix(rows, g=2, k=1, R=2.0)
        assert rows.flags.writeable
        rows[0, 2] = 0.1
        assert G.entries[0, 2] == 0.0
        assert not G.entries.flags.writeable


def paper_copies(g: int, k: int) -> int:
    """The paper's g + 2k copies, rounded up to a power of two."""
    return 1 << (g + 2 * k - 1).bit_length()


class TestRepeatPack:
    def test_small_example(self):
        be = backend()
        G = GridMatrix.uniform(2, 2, 1, -1.0, 1.0, R=2.0)  # scale 1/4
        xp = repeat_pack(be.encrypt([1.0, 2.0]), G, 4)
        np.testing.assert_array_equal(xp.slots[:8], [.25, .5, .25, .5, .25, .5, .25, .5])
        assert not xp.slots[8:].any()

    def test_rotation_count_log(self):
        be = backend()
        repeat_pack(be.encrypt([1.0, 2.0]), GridMatrix.uniform(2, 3, 2, -1.0, 1.0))
        assert be.counter.rotations == 3  # 7 copies, rounded up to 8

    def test_rotation_count_twenty_copies(self):
        be = backend(slots=1024)
        repeat_pack(be.encrypt(np.arange(4.0)), GridMatrix.uniform(4, 10, 5, -1.0, 1.0))
        assert be.counter.rotations == 5  # ceil(log2 20)

    def test_block_equality(self):
        rng = np.random.default_rng(8)
        be = backend(slots=512)
        x = rng.normal(size=5)
        G = GridMatrix.uniform(5, 6, 2, -1.0, 1.0, R=4.0)
        xp = repeat_pack(be.encrypt(x), G)
        blocks = xp.slots[: 5 * 16].reshape(16, 5)
        for blk in blocks:
            np.testing.assert_array_equal(blk, x * G.scale)

    def test_overflow(self):
        be = backend(slots=16)
        with pytest.raises(PackingOverflow):
            repeat_pack(be.encrypt(np.arange(4.0)), GridMatrix.uniform(4, 3, 1, -1.0, 1.0), 8)

    def test_doubling_headroom_overflow(self):
        # 3 * 5 = 15 fits in 16 slots but the doubling needs 3 * 8 = 24
        be = backend(slots=16)
        with pytest.raises(PackingOverflow):
            repeat_pack(be.encrypt(np.arange(3.0)), GridMatrix.uniform(3, 3, 1, -1.0, 1.0), 8)

    def test_naive_packing_count_and_equality(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=3)
        be1, be2 = backend(), backend()
        G = GridMatrix.uniform(3, 4, 2, -1.0, 1.0, R=2.0)  # scale 1/4
        fast = repeat_pack(be1.encrypt(x), G, 8)
        slow = repeat_pack_naive(be2.encrypt(x), g=4, k=2, n_i=3)
        assert be2.counter.rotations == 4 + 2 * 2 - 1
        np.testing.assert_array_equal(fast.slots[: 3 * 8], slow.slots[: 3 * 8] / 4)

    def test_mask_costs_one_pt_mult(self):
        be = backend()
        repeat_pack(be.encrypt([1.0]), GridMatrix.uniform(1, 2, 1, -1.0, 1.0))
        assert be.counter.pt_mults == 1

    @pytest.mark.parametrize("arrived", [1, 2, 4, 8, 16])
    def test_arrived_copies_save_their_doublings(self, arrived):
        # packing 8 copies of 3: the copies that arrived (capped at 8)
        # double from there, keep the mask's one multiply and scale, and
        # clear the slots past them; the result states its copies and width
        x = np.array([0.5, -0.25, 0.75])
        be = backend(slots=64)
        G = GridMatrix.uniform(3, 3, 2, -1.0, 1.0)
        ct = replace(be.encrypt(np.concatenate((np.tile(x, arrived), [9.0]))),
                     copies=arrived, width=3)
        xp = repeat_pack(ct, G, 8)
        assert be.counter.rotations == max(0, 3 - arrived.bit_length() + 1)
        assert be.counter.pt_mults == 1 and xp.level == ct.level - 1
        assert (xp.copies, xp.width) == (8, 3)
        np.testing.assert_array_equal(xp.slots[:3 * 8], np.tile(x * G.scale, 8))
        np.testing.assert_array_equal(xp.slots[3 * 8:], 0.0)

    @pytest.mark.parametrize("arrived", [0, 3, 6, -2, 2.0, True])
    def test_arrived_copies_are_a_power_of_two(self, arrived):
        be = backend()
        ct = replace(be.encrypt([1.0]), copies=arrived)
        with pytest.raises(InvalidArgument):
            repeat_pack(ct, GridMatrix.uniform(1, 2, 1, -1.0, 1.0))
        assert be.counter == OpCounter()

    def test_arrived_copies_must_fit(self):
        # 32 copies of 3 are 96 slots, past 64
        be = backend(slots=64)
        with pytest.raises(PackingOverflow):
            repeat_pack(be.encrypt(np.ones(3)), GridMatrix.uniform(3, 3, 2, -1.0, 1.0), 32)
        assert be.counter == OpCounter()


class TestDoubleCopies:
    @pytest.mark.parametrize("n_i, copies, target", [(3, 1, 8), (2, 4, 16), (5, 2, 2)])
    def test_blocks_equal_and_one_rotation_per_doubling(self, n_i, copies, target,
                                                        monkeypatch):
        x = np.tile(np.random.default_rng(n_i).normal(size=n_i), copies)
        be = backend(slots=64)
        ct = bspline._double_copies(be.encrypt(x), n_i, copies, target)
        rotations = []
        monkeypatch.setattr(_ArrayOps, "rotate", staticmethod(
            lambda a, t, _run=_ArrayOps.rotate: rotations.append(t) or _run(a, t)))
        arr = bspline._double_copies(x, n_i, copies, target)
        doublings = int(np.log2(target // copies))
        assert be.counter.rotations == len(rotations) == doublings
        assert be.counter.adds == doublings
        for blocks in (ct.slots[:n_i * target], arr):
            np.testing.assert_array_equal(blocks, np.tile(x[:n_i], target))
        assert not np.any(ct.slots[n_i * target:])


class TestRepeatPackContract:
    """repeat_pack's contract: copies (basis_copies(g, k) by default, or
    any power of two) of x * G.scale over a zero tail, whatever the
    arrival, with the same bits on a ciphertext and an array, one level
    and log2(copies / arrived) rotations, and at basis_copies(g, k) the
    input the basis reads; copies that do not fit, or are no power of two,
    raise before any op or noise draw."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n_i=st.integers(1, 6), g=st.integers(1, 6), k=st.integers(0, 3),
           log_copies=st.integers(0, 6),
           arrival=st.sampled_from(["raw", "encrypt_input", "stated"]),
           log_stated=st.integers(0, 6), seed=st.integers(0, 2 ** 16))
    @example(n_i=2, g=3, k=1, log_copies=4, arrival="encrypt_input", log_stated=0, seed=0)
    @example(n_i=2, g=3, k=1, log_copies=4, arrival="stated", log_stated=3, seed=0)
    @example(n_i=3, g=2, k=1, log_copies=1, arrival="encrypt_input", log_stated=0, seed=1)
    def test_copies_rotations_and_level(self, n_i, g, k, log_copies, arrival, log_stated,
                                        seed):
        # arrivals: one copy, the client's basis_copies(g, k), or any
        # stated power of two; each is capped at the copies asked for
        copies, stated = 1 << log_copies, 1 << log_stated
        mdl = random_model([n_i, 1], g=g, k=k, seed=seed)
        G = mdl.layers[0].grid
        x = np.random.default_rng(seed).uniform(-1, 1, n_i)
        be = backend(slots=1 << (n_i * max(copies, stated, basis_copies(g, k)) - 1).bit_length())
        if arrival == "raw":
            ct = be.encrypt(x)
        elif arrival == "encrypt_input":
            ct = encrypt_input(x, mdl, be)
        else:
            ct = replace(be.encrypt(np.tile(x, stated)), copies=stated, width=n_i)
        before = be.counter.copy()
        xp = repeat_pack(ct, G, copies)
        he = be.decrypt(xp)
        assert np.array_equal(he[:n_i * copies], np.tile(x * G.scale, copies))
        assert not he[n_i * copies:].any()
        assert (xp.copies, xp.width) == (copies, n_i)
        spent = be.counter.since(before)
        assert 1 << spent.rotations == copies // min(ct.copies, copies)
        assert spent.pt_mults == 1 and xp.level == ct.level - 1
        clear = repeat_pack(x, G, copies)
        assert clear.size == n_i * copies
        assert np.array_equal(he[:n_i * copies].view(np.int64), clear.view(np.int64))

    @pytest.mark.parametrize("n_i, g, k", [(4, 5, 2), (3, 3, 2), (3, 2, 1), (2, 4, 2)])
    @pytest.mark.parametrize("arrival", ["raw", "encrypt_input"])
    @pytest.mark.parametrize("twice", [False, True])
    def test_copies_of_the_scaled_input(self, n_i, g, k, arrival, twice):
        mdl = random_model([n_i, 1], g=g, k=k, seed=n_i + g)
        G = mdl.layers[0].grid
        copies = basis_copies(g, k) << twice
        x = np.random.default_rng(g + k).uniform(-1, 1, n_i)
        be = backend(slots=256)
        ct = be.encrypt(x) if arrival == "raw" else encrypt_input(x, mdl, be)
        xp = repeat_pack(ct, G, copies if twice else None)
        he = be.decrypt(xp)
        assert np.array_equal(he[:n_i * copies], np.tile(x * G.scale, copies))
        assert not he[n_i * copies:].any()
        clear = repeat_pack(x, G, copies if twice else None)
        assert clear.size == n_i * copies
        assert np.array_equal(he[:n_i * copies].view(np.int64), clear.view(np.int64))
        # one level, the mask; the copies that arrived save their doublings
        assert xp.level == ct.level - 1 and be.counter.pt_mults == 1
        assert 1 << be.counter.rotations == copies // ct.copies
        bv = be.decrypt(bspline_basis_he(xp, G, EXACT_COMPARATOR))
        vals = bv[:n_i * G.n_basis].reshape(G.n_basis, n_i).T
        plain = np.array([bspline_basis_plain(xi, G.entries[i], k) for i, xi in enumerate(x)])
        assert np.max(np.abs(vals - plain)) <= 1e-12

    @pytest.mark.parametrize("copies, error", [
        (32, PackingOverflow),   # 32 copies of 4 slots, past 64
        (24, InvalidArgument), (12, InvalidArgument), (0, InvalidArgument),
        (16.0, InvalidArgument), (True, InvalidArgument)])
    @pytest.mark.parametrize("arrival", ["raw", "encrypt_input"])
    def test_rejected_copies_run_no_op(self, copies, error, arrival):
        # the demo's (n_i, g, k) = (4, 5, 2): basis_copies 16, 64 slots
        mdl = random_model([4, 1], g=5, k=2, seed=0)
        be = HeBackend(BackendConfig(slot_count=64, depth_budget=10, noise_std=1e-12,
                                     rng_seed=0))
        x = np.random.default_rng(0).uniform(-1, 1, 4)
        ct = be.encrypt(x) if arrival == "raw" else encrypt_input(x, mdl, be)
        before = be.counter.copy(), be._rng.bit_generator.state
        with pytest.raises(error):
            repeat_pack(ct, mdl.layers[0].grid, copies)
        assert (be.counter, be._rng.bit_generator.state) == before

    @pytest.mark.parametrize("arrival", ["raw", "encrypt_input"])
    def test_another_width_runs_no_op(self, arrival):
        # 16 copies of 3 slots, or one, fed to a grid of n_i = 4: the
        # copies would be read as misaligned 4-slot blocks
        G = GridMatrix.uniform(4, 5, 2, -1, 1)
        mdl = random_model([3, 1], g=5, k=2, seed=0)
        be = HeBackend(BackendConfig(slot_count=256, depth_budget=10, noise_std=1e-12,
                                     rng_seed=0))
        x = np.random.default_rng(0).uniform(-1, 1, 3)
        ct = be.encrypt(x) if arrival == "raw" else encrypt_input(x, mdl, be)
        assert (ct.copies, ct.width) == ((1, 3) if arrival == "raw" else (16, 3))
        before = be.counter.copy(), be._rng.bit_generator.state
        for copies in (None, 32):
            with pytest.raises(ShapeMismatch, match="input of width 3 for a layer of n_i = 4"):
                repeat_pack(ct, G, copies)
        assert (be.counter, be._rng.bit_generator.state) == before


class TestColTile:
    def test_two_by_two(self):
        G = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(col_tile(G, 1, 3), [1, 3, 2, 4])
        np.testing.assert_array_equal(col_tile(G, 1, 2), [1, 3])
        np.testing.assert_array_equal(col_tile(G, 2, 3), [2, 4])

    def test_bounds(self):
        G = np.array([[1.0, 2.0]])
        with pytest.raises(IndexOutOfRange):
            col_tile(G, 0, 2)
        with pytest.raises(IndexOutOfRange):
            col_tile(G, 1, 4)
        with pytest.raises(IndexOutOfRange):
            col_tile(G, 2, 2)


class TestPlainBasis:
    def test_order_zero_inside(self):
        np.testing.assert_array_equal(bspline_basis_plain(0.5, [0.0, 1.0], 0), [1.0])

    def test_order_zero_outside(self):
        np.testing.assert_array_equal(bspline_basis_plain(1.5, [0.0, 1.0], 0), [0.0])

    def test_order_one_hand_value(self):
        vals = bspline_basis_plain(0.5, [0.0, 1.0, 2.0], 1)
        assert vals[0] == pytest.approx(0.5)

    def test_insufficient_knots(self):
        with pytest.raises(InsufficientKnots):
            bspline_basis_plain(0.5, [0.0, 1.0], 1)

    def test_matches_scipy(self):
        rng = np.random.default_rng(11)
        for k in (1, 2, 3):
            knots = np.sort(rng.uniform(-2, 2, 12))
            knots += np.arange(12) * 1e-3  # enforce strict increase
            nb = len(knots) - k - 1
            for x in rng.uniform(knots[k], knots[-k - 1], 20):
                mine = bspline_basis_plain(x, knots, k)
                ref = np.array([
                    BSpline.basis_element(knots[m:m + k + 2], extrapolate=False)(x)
                    for m in range(nb)
                ])
                ref = np.nan_to_num(ref)
                np.testing.assert_allclose(mine, ref, atol=1e-12)

    def test_partition_of_unity(self):
        G = GridMatrix.uniform(1, 10, 3, -1.0, 1.0)
        rng = np.random.default_rng(12)
        for x in rng.uniform(-1.0, 1.0 - 1e-9, 200):
            vals = bspline_basis_plain(x, G.entries[0], 3)
            assert abs(vals.sum() - 1.0) <= 1e-9

    def test_support(self):
        knots = np.linspace(-2, 2, 11)
        k = 2
        for m in range(len(knots) - k - 1):
            for x in (knots[m] - 0.5, knots[m + k + 1] + 0.3):
                vals = bspline_basis_plain(x, knots, k)
                assert vals[m] == 0.0

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 5])
    def test_array_x_is_the_scalar_calls(self, k):
        # uniform and repeated knots; x on every knot, inside and outside
        rng = np.random.default_rng(k)
        for knots in (GridMatrix.uniform(1, 10, max(k, 1), -1.0, 1.0).entries[0],
                      np.sort(np.r_[rng.uniform(-2, 2, 9), 0.5, 0.5, -1.0, -1.0])):
            x = np.r_[rng.uniform(-2.5, 2.5, 2000), knots, -0.0]
            scalar = np.array([bspline_basis_plain(xi, knots, k) for xi in x])
            vals = bspline_basis_plain(x, knots, k)
            assert vals.shape == (x.size, knots.size - k - 1)
            assert np.array_equal(vals.view(np.int64), scalar.view(np.int64))
            grid = bspline_basis_plain(x[:2000].reshape(-1, 4), knots, k)
            assert np.array_equal(grid.reshape(2000, -1).view(np.int64),
                                  vals[:2000].view(np.int64))


class TestEncryptedBasis:
    def test_exact_comparator_matches_plain(self):
        rng = np.random.default_rng(13)
        G = GridMatrix.uniform(4, 5, 2, -1.0, 1.0)
        x = rng.uniform(-1, 1, 4)
        vals, bv, _ = he_basis_values(x, G, EXACT_COMPARATOR)
        plain = np.array([bspline_basis_plain(xi, G.entries[i], 2)
                          for i, xi in enumerate(x)])
        np.testing.assert_allclose(vals, plain, atol=1e-9)
        assert vals.shape == (4, 5 + 2)

    def test_tail_slots_are_zero(self):
        rng = np.random.default_rng(14)
        G = GridMatrix.uniform(3, 6, 2, -1.0, 1.0)
        x = rng.uniform(-1, 1, 3)
        _, bv, _ = he_basis_values(x, G, EXACT_COMPARATOR)
        assert np.all(bv.slots[G.n_i * G.n_basis:] == 0.0)

    def test_composite_matches_plain_away_from_knots(self):
        cs = build_composite_sign()
        G = GridMatrix.uniform(4, 3, 2, -1.0, 1.0)
        margin = cs.delta * 2 * G.R
        rng = np.random.default_rng(15)
        xs = rng.uniform(-1, 1, 200)
        xs = xs[np.min(np.abs(xs[:, None] - G.entries[0][None, :]), axis=1) >= margin]
        x = xs[:4]
        vals, _, _ = he_basis_values(x, G, cs)
        plain = np.array([bspline_basis_plain(xi, G.entries[i], 2)
                          for i, xi in enumerate(x)])
        assert np.max(np.abs(vals - plain)) <= 10 * cs.target_eps

    @pytest.mark.parametrize("n_i,g,k", [(1, 1, 1), (3, 2, 1), (2, 4, 2), (4, 5, 3), (2, 3, 5)])
    @pytest.mark.parametrize("comparator", sorted(COMPARATORS))
    def test_composite_he_equals_clear_twin(self, comparator, n_i, g, k):
        comp = COMPARATORS[comparator]()
        G = GridMatrix.uniform(n_i, g, k, -1.0, 1.0)
        x = np.random.default_rng(19).uniform(-1, 1, n_i)
        vals, bv, _ = he_basis_values(x, G, comp)
        assert np.array_equal(vals, clear_basis_values(x, G, comp))
        assert np.all(bv.slots[n_i * (g + k):] == 0.0)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(n_i=st.integers(1, 6), g=st.integers(1, 6), k=st.integers(1, 5),
           roomy=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_per_feature_grids(self, n_i, g, k, roomy, seed):
        """Distinct non-uniform knot rows per feature, so a tile-order
        mix-up between features shows, and the slot contract the de Boor
        orders rely on: every slot past n_i(g + k) is zero, the wrapped end
        included (the slot count is the width the basis reads,
        n_i * basis_copies(g, k), rounded up to a power of two, or twice
        that), also when the input holds values past slot n_i, as a hidden
        layer's does (and, like it, states width n_i). The basis runs on
        repeat_pack's output, in comparator units, with R drawn so that
        1/(2R) rounds.
        About half the features sit exactly on an interior knot t_m, where
        the two order-0 blocks that meet there read the same step(0) (1/2),
        so their values sum to 1 and the recursion's first order joins them
        into the continuous basis."""
        rng = np.random.default_rng(seed)
        knots = np.sort(rng.uniform(-1, 1, (n_i, g + 2 * k + 1)), axis=1)
        assume(np.all(np.diff(knots, axis=1) > 0))
        G = GridMatrix(knots, g, k, R=rng.uniform(1.0, 1.5))
        slots = (1 << (n_i * basis_copies(g, k) - 1).bit_length()) << roomy
        v = rng.uniform(-1, 1, slots)
        on_knot = np.flatnonzero(rng.random(n_i) < 0.5)
        v[on_knot] = knots[on_knot, rng.integers(1, g + 2 * k, on_knot.size)]
        plain = np.array([bspline_basis_plain(xi, G.entries[i], k)
                          for i, xi in enumerate(v[:n_i])])
        valid = n_i * (g + k)
        for comp in (build_composite_sign(), EXACT_COMPARATOR):
            ct = replace(backend(slots).encrypt(v), width=n_i)
            he = bspline_basis_he(repeat_pack(ct, G), G, comp).slots
            clear = bspline_basis_he(repeat_pack(v, G), G, comp)
            assert np.array_equal(he[:valid].view(np.int64), clear[:valid].view(np.int64))
            assert np.all(he[valid:] == 0.0) and np.all(clear[valid:] == 0.0)
        vals = he[:valid].reshape(g + k, n_i).T  # the exact comparator's run
        assert np.max(np.abs(vals - plain)) <= 1e-12

    @pytest.mark.parametrize("n_i, g, k", [(1, 1, 1), (3, 2, 4), (2, 5, 3)])
    def test_knot_tiles_cover_their_orders(self, n_i, g, k):
        """The comparator's tile holds all g + 2k + 1 knot columns and is
        zero past them; order j < k's de Boor tiles cover blocks
        0..g + 2k - j and are zero past them; the last order's four tiles
        are zero past block g + k - 1."""
        G = GridMatrix.uniform(n_i, g, k, -1.0, 1.0)
        knots, orders = G.tiles
        columns = n_i * (g + 2 * k + 1)
        assert np.array_equal(knots[:columns], G.entries.T.ravel() * G.scale)
        assert not np.any(knots[columns:])
        assert [o.shape[0] for o in orders] == [2] * (k - 1) + [4]
        for j, (t, recip) in enumerate(orders[:-1], start=1):
            cover = n_i * (g + 2 * k - j + 1)
            assert np.all(recip[:cover] > 0) and not np.any(recip[cover:])
            assert not np.any(t[cover:])
        last = orders[-1]
        assert np.all(last[1, :n_i * (g + k)] > 0) and not np.any(last[:, n_i * (g + k):])

    @pytest.mark.parametrize("n_i, g, k", [(3, 2, 1), (2, 4, 2), (3, 3, 2), (1, 1, 1)])
    def test_one_comparator_call_and_its_copies(self, n_i, g, k):
        """One comparator call over the g + 2k + 1 knot columns, then
        h - rotate(h, n_i); for a power-of-two g + 2k the packing doubles
        its copies once more (one rotation and one add). The tightest slot
        count runs, half of it raises PackingOverflow before any op."""
        G = GridMatrix.uniform(n_i, g, k, -1.0, 1.0)
        x = np.random.default_rng(n_i + g).uniform(-1, 1, n_i)
        tight = 1 << (n_i * basis_copies(g, k) - 1).bit_length()
        be = backend(slots=tight)
        xp = repeat_pack(be.encrypt(x), G)
        before = be.counter.copy()
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bspline, "poly_comp", lambda *a: calls.append(a) or poly_comp(*a))
            out = bspline_basis_he(xp, G, EXACT_COMPARATOR)
        extra = basis_copies(g, k) > paper_copies(g, k)
        assert extra == (((g + 2 * k) & (g + 2 * k - 1)) == 0)  # a power of two
        assert len(calls) == 1
        assert before.rotations == paper_copies(g, k).bit_length() - 1 + extra
        assert be.counter.since(before).rotations == 1 + k
        plain = np.array([bspline_basis_plain(xi, G.entries[i], k) for i, xi in enumerate(x)])
        vals = out.slots[:n_i * (g + k)].reshape(g + k, n_i).T
        assert np.max(np.abs(vals - plain)) <= 1e-12
        small = backend(slots=tight // 2)
        with pytest.raises(PackingOverflow):
            repeat_pack(small.encrypt(x), G)
        with pytest.raises(PackingOverflow):
            bspline_basis_he(small.encrypt(x), G, EXACT_COMPARATOR)
        assert small.counter == OpCounter()

    @pytest.mark.parametrize("k", range(1, 6))
    @pytest.mark.parametrize("mode", ["exact", "composite"])
    def test_depth_consumption(self, mode, k):
        """The measured level drop of the basis run on repeat_pack's
        output, as the layer program runs it, basis_depth and the plan's
        two basis stages agree: max(comparator depth, 1) + k; the packing
        takes one level more, its mask."""
        cfg = PipelineConfig(comparator_mode=mode)
        comp = cfg.comparator()
        G = GridMatrix.uniform(2, 4, k, -1.0, 1.0)
        be = backend(slots=512, depth=30)
        ct = be.encrypt([0.1, 0.2])
        bv = bspline_basis_he(repeat_pack(ct, G), G, comp)
        stages = plan_layer(random_model([2, 1], g=4, k=k).layers[0], cfg).stages
        planned = stages["comparator"] + stages["basis_recursion"]
        assert ct.level - bv.level == 1 + basis_depth(k, comp) == 1 + planned
        assert planned == max(comp.depth(), 1) + k

    def test_exact_comparator_is_exact_near_a_knot(self):
        G = GridMatrix.uniform(1, 4, 1, -1.0, 1.0)
        x = np.array([G.entries[0][3] + 1e-9])
        vals, _, _ = he_basis_values(x, G, EXACT_COMPARATOR, slots=64)
        np.testing.assert_allclose(vals[0], bspline_basis_plain(x[0], G.entries[0], 1),
                                   atol=1e-9)

    def test_basis_support_with_comparator(self):
        cs = build_composite_sign()
        G = GridMatrix.uniform(1, 3, 2, -1.0, 1.0)
        x = np.array([0.95])  # inside the last base interval
        vals, _, _ = he_basis_values(x, G, cs)
        plain = bspline_basis_plain(x[0], G.entries[0], 2)
        # slots whose true basis value is zero stay near zero
        for m in np.nonzero(plain == 0.0)[0]:
            assert abs(vals[0, m]) <= 10 * cs.target_eps


class TestBasisReadsAPackedOperand:
    """The basis raises ShapeMismatch before any op or noise draw when its
    operand visibly holds fewer than basis_copies(g, k) copies: a
    ciphertext stating width n_i with fewer copies, or an array shorter
    than n_i * basis_copies(g, k). Read as packed, a raw input gave
    [0, .5, .5, 0] for both features below, and the paper's 16 copies for
    (g, k) = (10, 3) a basis 0.68 off."""

    CASES = {  # (grid, input, copies packed; None: not packed at all)
        "raw": (GridMatrix.uniform(2, 3, 1, -1, 1), np.array([0.4, -0.3]), None),
        "under-packed": (GridMatrix.uniform(4, 10, 3, -1, 1),
                         np.array([1.919, 0.3, -0.7, 1.2]), 16),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_ciphertext_runs_no_op(self, case):
        G, x, copies = self.CASES[case]
        be = HeBackend(BackendConfig(slot_count=256, depth_budget=30, noise_std=1e-12,
                                     rng_seed=0))
        xp = be.encrypt(x) if copies is None else repeat_pack(be.encrypt(x), G, copies)
        assert (xp.copies, xp.width) == (copies or 1, G.n_i)
        before = be.counter.copy(), be._rng.bit_generator.state
        with pytest.raises(ShapeMismatch, match=f"the basis reads {basis_copies(G.g, G.k)} "):
            bspline_basis_he(xp, G, EXACT_COMPARATOR)
        assert (be.counter, be._rng.bit_generator.state) == before

    @pytest.mark.parametrize("case", CASES)
    def test_array_runs_no_op(self, case, monkeypatch):
        G, x, copies = self.CASES[case]
        xp = x if copies is None else repeat_pack(x, G, copies)
        calls = []
        monkeypatch.setattr(bspline, "poly_comp", lambda *a: calls.append(a))
        with pytest.raises(ShapeMismatch):
            bspline_basis_he(xp, G, EXACT_COMPARATOR)
        assert calls == []

    def test_packed_operand_gives_the_exact_basis(self):
        for G, x, _ in self.CASES.values():
            vals, _, _ = he_basis_values(x, G, EXACT_COMPARATOR)
            plain = np.array([bspline_basis_plain(xi, G.entries[i], G.k)
                              for i, xi in enumerate(x)])
            assert np.max(np.abs(vals - plain)) <= 1e-12
            assert np.array_equal(vals, clear_basis_values(x, G, EXACT_COMPARATOR))

    def test_scalars_and_width_less_ciphertexts_pass(self):
        # the depth probe's scalar, and an op's result, state no width
        G = GridMatrix.uniform(2, 3, 1, -1, 1)
        be = backend()
        for ct in (be.encrypt(0.0), be.mul(be.encrypt([0.4, -0.3]), 1.0)):
            assert ct.width is None
            bspline_basis_he(ct, G, EXACT_COMPARATOR)
        assert basis_depth(1, EXACT_COMPARATOR) == 2


class TestPermutation:
    def test_two_by_two_matrix(self):
        P = gen_permutation(2, 2).as_matrix()
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 1.0  # P[1][1], P[4][4]
        expected[1, 2] = 1.0                   # P[2][3]
        expected[2, 1] = 1.0                   # P[3][2]
        np.testing.assert_array_equal(P, expected)

    def test_single_column_is_identity(self):
        P = gen_permutation(5, 1)
        np.testing.assert_array_equal(P.as_matrix(), np.eye(5))

    def test_coltile_to_row_major(self):
        rng = np.random.default_rng(16)
        data = rng.normal(size=(3, 4))
        coltile = data.T.ravel()
        P = gen_permutation(3, 4)
        np.testing.assert_array_equal(P.apply(coltile), data.ravel())

    @pytest.mark.parametrize("n_r, n_c", [(0, 3), (3, 0)])
    def test_rejects_empty_dimensions_as_a_library_error(self, n_r, n_c):
        with pytest.raises(HeKanError, match="n_r and n_c must be >= 1"):
            gen_permutation(n_r, n_c)

    def test_matrix_is_doubly_stochastic_zero_one(self):
        P = gen_permutation(4, 6).as_matrix()
        np.testing.assert_array_equal(P.sum(axis=0), np.ones(24))
        np.testing.assert_array_equal(P.sum(axis=1), np.ones(24))


class TestFuseWeights:
    def test_identity_permutation(self):
        P = gen_permutation(3, 1)
        W = np.random.default_rng(17).normal(size=(2, 3))
        np.testing.assert_array_equal(fuse_weights(W, P), W)

    def test_small_example(self):
        P = gen_permutation(2, 2)
        W = np.array([[1.0, 2.0, 3.0, 4.0]])  # (a, b, c, d)
        np.testing.assert_array_equal(fuse_weights(W, P), [[1.0, 3.0, 2.0, 4.0]])

    def test_fused_equals_permute_then_multiply(self):
        rng = np.random.default_rng(18)
        P = gen_permutation(4, 3)
        W = rng.normal(size=(5, 12))
        for _ in range(10):
            v = rng.normal(size=12)
            np.testing.assert_allclose(fuse_weights(W, P) @ v, W @ P.apply(v),
                                       atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            fuse_weights(np.ones((2, 5)), gen_permutation(2, 2))
