import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.interpolate import BSpline

from hekan.approx import EXACT_COMPARATOR, build_composite_sign
from hekan.backend import BackendConfig, HeBackend
from hekan.bspline import (
    GridMatrix,
    basis_clear,
    bspline_basis_he,
    bspline_basis_plain,
    col_tile,
    fuse_weights,
    gen_permutation,
    pack_rotations,
    repeat_pack,
    repeat_pack_naive,
)
from hekan.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InputOutOfRange,
    InsufficientKnots,
    NonFiniteInput,
    PackingOverflow,
)


def backend(slots=256, depth=30):
    return HeBackend(BackendConfig(slot_count=slots, depth_budget=depth))


COMPARATORS = {"exact": lambda: EXACT_COMPARATOR, "composite": build_composite_sign}


def he_basis_values(x, G, comparator, slots=512, depth=30, check_range=False):
    """Run the encrypted path and return the (n_i, g+k) value matrix."""
    be = backend(slots, depth)
    ct = be.encrypt(x)
    xp = repeat_pack(ct, G.g, G.k, G.n_i)
    bv = bspline_basis_he(xp, G, comparator, check_range=check_range)
    vals = bv.ct.slots[: bv.length].reshape(bv.n_basis, bv.n_i).T
    return vals, bv, be


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

    def test_copies_the_callers_array(self):
        # the grid freezes its own copy, never the caller's array
        rows = np.array([[-1.0, -0.5, 0.0, 0.5, 1.0]])
        G = GridMatrix(rows, g=2, k=1, R=2.0)
        assert rows.flags.writeable
        rows[0, 2] = 0.1
        assert G.entries[0, 2] == 0.0
        assert not G.entries.flags.writeable


class TestRepeatPack:
    def test_small_example(self):
        be = backend()
        xp = repeat_pack(be.encrypt([1.0, 2.0]), g=2, k=1, n_i=2)
        np.testing.assert_array_equal(xp.ct.slots[:8], [1, 2, 1, 2, 1, 2, 1, 2])

    def test_rotation_count_log(self):
        be = backend()
        repeat_pack(be.encrypt([1.0, 2.0]), g=3, k=2, n_i=2)  # 7 copies
        assert be.counter.rotations == 3

    def test_rotation_count_twenty_copies(self):
        be = backend(slots=1024)
        repeat_pack(be.encrypt(np.arange(4.0)), g=10, k=5, n_i=4)
        assert be.counter.rotations == 5  # ceil(log2 20)
        assert pack_rotations(10, 5) == 5

    def test_block_equality(self):
        rng = np.random.default_rng(8)
        be = backend(slots=512)
        x = rng.normal(size=5)
        xp = repeat_pack(be.encrypt(x), g=6, k=2, n_i=5)
        blocks = xp.ct.slots[: 5 * 10].reshape(10, 5)
        for blk in blocks:
            np.testing.assert_array_equal(blk, x)

    def test_overflow(self):
        be = backend(slots=16)
        with pytest.raises(PackingOverflow):
            repeat_pack(be.encrypt(np.arange(4.0)), g=3, k=1, n_i=4)

    def test_doubling_headroom_overflow(self):
        # 3 * 5 = 15 fits in 16 slots but the doubling needs 3 * 8 = 24
        be = backend(slots=16)
        with pytest.raises(PackingOverflow):
            repeat_pack(be.encrypt(np.arange(3.0)), g=3, k=1, n_i=3)

    def test_naive_packing_count_and_equality(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=3)
        be1, be2 = backend(), backend()
        fast = repeat_pack(be1.encrypt(x), g=4, k=2, n_i=3)
        slow = repeat_pack_naive(be2.encrypt(x), g=4, k=2, n_i=3)
        assert be2.counter.rotations == 4 + 2 * 2 - 1
        np.testing.assert_array_equal(fast.ct.slots[: 3 * 8], slow.ct.slots[: 3 * 8])

    def test_mask_costs_one_pt_mult(self):
        be = backend()
        repeat_pack(be.encrypt([1.0]), g=2, k=1, n_i=1)
        assert be.counter.pt_mults == 1


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


class TestEncryptedBasis:
    def test_exact_comparator_matches_plain(self):
        rng = np.random.default_rng(13)
        G = GridMatrix.uniform(4, 5, 2, -1.0, 1.0)
        x = rng.uniform(-1, 1, 4)
        vals, bv, _ = he_basis_values(x, G, EXACT_COMPARATOR)
        plain = np.array([bspline_basis_plain(xi, G.entries[i], 2)
                          for i, xi in enumerate(x)])
        np.testing.assert_allclose(vals, plain, atol=1e-9)
        assert bv.length == 4 * (5 + 2)

    def test_tail_slots_are_zero(self):
        rng = np.random.default_rng(14)
        G = GridMatrix.uniform(3, 6, 2, -1.0, 1.0)
        x = rng.uniform(-1, 1, 3)
        _, bv, _ = he_basis_values(x, G, EXACT_COMPARATOR)
        assert np.all(bv.ct.slots[bv.length:] == 0.0)

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
        assert np.array_equal(vals, basis_clear(x, G, comp))
        assert np.all(bv.ct.slots[n_i * (g + k):] == 0.0)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(n_i=st.integers(1, 6), g=st.integers(1, 6), k=st.integers(1, 5),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_per_feature_grids(self, n_i, g, k, seed):
        """Distinct knot rows per feature, so a tile-order mix-up between
        features shows."""
        rng = np.random.default_rng(seed)
        knots = np.sort(rng.uniform(-1, 1, (n_i, g + 2 * k + 1)), axis=1)
        assume(np.all(np.diff(knots, axis=1) > 0))
        G = GridMatrix(knots, g, k, R=1.0)
        x = rng.uniform(-1, 1, n_i)
        plain = np.array([bspline_basis_plain(xi, G.entries[i], k) for i, xi in enumerate(x)])
        for comp in (build_composite_sign(), EXACT_COMPARATOR):
            vals, bv, _ = he_basis_values(x, G, comp)
            assert np.array_equal(vals.view(np.int64), basis_clear(x, G, comp).view(np.int64))
            assert np.all(bv.ct.slots[n_i * (g + k):] == 0.0)
        assert np.max(np.abs(vals - plain)) <= 1e-12  # vals: the exact comparator's run

    def test_depth_consumption(self):
        cs = build_composite_sign()
        G = GridMatrix.uniform(2, 4, 2, -1.0, 1.0)
        be = backend(slots=512, depth=30)
        ct = be.encrypt([0.1, 0.2])
        xp = repeat_pack(ct, 4, 2, 2)
        bv = bspline_basis_he(xp, G, cs)
        from hekan.bspline import basis_depth
        assert ct.level - bv.ct.level == 1 + basis_depth(2, cs)

    def test_grid_mismatch(self):
        G = GridMatrix.uniform(2, 4, 2, -1.0, 1.0)
        be = backend(slots=512)
        xp = repeat_pack(be.encrypt([0.1, 0.2, 0.3]), 4, 2, 3)
        with pytest.raises(DimensionMismatch):
            bspline_basis_he(xp, G, EXACT_COMPARATOR)

    def test_check_range_flags_knot_proximity(self):
        cs = build_composite_sign()
        G = GridMatrix.uniform(1, 4, 1, -1.0, 1.0)
        knot = G.entries[0][3]
        be = backend(slots=64, depth=30)
        xp = repeat_pack(be.encrypt([knot + 1e-9]), 4, 1, 1)
        with pytest.raises(InputOutOfRange):
            bspline_basis_he(xp, G, cs, check_range=True)

    def test_check_range_flags_knot_proximity_on_a_noisy_backend(self):
        G = GridMatrix.uniform(1, 4, 1, -1.0, 1.0)
        be = HeBackend(BackendConfig(slot_count=64, depth_budget=30, noise_std=1e-12))
        xp = repeat_pack(be.encrypt([G.entries[0][3] + 1e-4]), 4, 1, 1)
        with pytest.raises(InputOutOfRange):
            bspline_basis_he(xp, G, build_composite_sign(), check_range=True)

    @pytest.mark.parametrize("comparator", sorted(COMPARATORS))
    def test_check_range_rejects_input_beyond_R(self, comparator):
        G = GridMatrix.uniform(1, 4, 1, -1.0, 1.0)
        be = backend(slots=64, depth=30)
        xp = repeat_pack(be.encrypt([1.01 * G.R]), 4, 1, 1)
        with pytest.raises(InputOutOfRange):
            bspline_basis_he(xp, G, COMPARATORS[comparator](), check_range=True)

    def test_check_range_exact_comparator_accepts_input_near_knot(self):
        G = GridMatrix.uniform(1, 4, 1, -1.0, 1.0)
        x = np.array([G.entries[0][3] + 1e-9])
        vals, _, _ = he_basis_values(x, G, EXACT_COMPARATOR, slots=64, check_range=True)
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
