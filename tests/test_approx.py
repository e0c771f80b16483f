import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hekan import approx
from hekan.approx import (
    ACTIVATION_PRESETS,
    EXACT_COMPARATOR,
    ApproxRange,
    Polynomial,
    WeightScheme,
    build_composite_sign,
    estimate_range,
    eval_poly_he,
    fit_odd_sign_stage,
    fit_ols,
    fit_remez,
    fit_weighted_ls,
    poly_comp,
    poly_eval_depth,
    range_from_moments,
    step_clear,
)
from hekan.backend import BackendConfig, CipherText, HeBackend, _ArrayOps, make_backend
from hekan.errors import (
    DepthExhausted,
    EmptySamples,
    IllConditioned,
    InvalidArgument,
    RemezNonConvergence,
)
from hekan.model import silu


def backend(slots=64, depth=30):
    return HeBackend(BackendConfig(slot_count=slots, depth_budget=depth))


class TestPolynomial:
    def test_degree_and_trim(self):
        p = Polynomial((1.0, 2.0, 0.0))
        assert p.degree == 1
        assert p.coeffs == (1.0, 2.0)
        assert Polynomial((0.0, 0.0)).coeffs == (0.0,)

    def test_eval_and_json(self):
        p = Polynomial((1.0, 0.0, 2.0))
        assert p(3.0) == 19.0
        assert Polynomial.from_json(p.to_json()) == p


class TestEstimateRange:
    def test_clamped_right(self):
        # mean 0, std 1 from two points
        r = estimate_range([-1.0, 1.0], x_min=-10.0, x_max=3.0)
        assert (r.lo, r.hi) == (-5.0, 3.0)

    def test_unclamped(self):
        r = estimate_range([-1.0, 3.0], x_min=-100.0, x_max=100.0)
        assert (r.lo, r.hi) == (-9.0, 11.0)
        assert (r.mu, r.sigma) == (1.0, 2.0)

    def test_empty_samples(self):
        with pytest.raises(EmptySamples):
            estimate_range([])

    def test_degenerate_sigma_flagged(self):
        r = estimate_range([2.0, 2.0, 2.0])
        assert r.degenerate
        assert r.lo < 2.0 < r.hi
        assert range_from_moments(2.0, 0.0, x_min=2.0, x_max=2.0).degenerate

    def test_invalid_clamp_order(self):
        with pytest.raises(ValueError):
            range_from_moments(0.0, 1.0, x_min=5.0, x_max=-5.0)

    @pytest.mark.parametrize("kwargs", [
        {"mu": np.nan}, {"mu": np.inf}, {"sigma": np.nan}, {"sigma": np.inf},
        {"factor": np.nan}, {"factor": np.inf}, {"sigma": -1.0}, {"factor": 0.0},
        {"factor": -1.0}, {"x_min": np.nan}, {"x_max": np.nan},
        {"x_min": 0.0, "x_max": 0.0}, {"mu": 100.0, "x_min": -1.0, "x_max": 1.0},
        {"sigma": 1e308},
    ], ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
    def test_argument_outside_domain_rejected(self, kwargs):
        args = {"mu": 0.0, "sigma": 1.0, **kwargs}
        with pytest.raises(InvalidArgument):
            range_from_moments(**args)

    def test_factor_monotonicity(self):
        rng = np.random.default_rng(3)
        samples = rng.normal(1.3, 2.1, 500)
        widths = []
        for factor in (1.0, 2.0, 3.0, 5.0, 8.0):
            r = estimate_range(samples, x_min=-50, x_max=50, factor=factor)
            widths.append(r.hi - r.lo)
        assert all(a <= b for a, b in zip(widths, widths[1:]))

    def test_presets_recorded(self):
        assert ACTIVATION_PRESETS["mnist"] == {"range": (-12.4, 14.74), "degree": 10}
        assert ACTIVATION_PRESETS["fmnist"]["range"] == (-9.77, 11.01)
        assert ACTIVATION_PRESETS["cifar10"] == {"range": (-11.90, 10.99), "degree": 15}


class TestLeastSquares:
    def test_exact_linear(self):
        r = ApproxRange(-3.0, 5.0, 1.0, 2.0)
        p = fit_weighted_ls(lambda x: x, r, 1)
        np.testing.assert_allclose(p.coeffs, (0.0, 1.0), atol=1e-12)

    def test_exact_quadratic(self):
        r = ApproxRange(-1.0, 1.0, 0.0, 0.5)
        p = fit_weighted_ls(lambda x: x ** 2, r, 2, w=None)
        np.testing.assert_allclose(p.coeffs, (0.0, 0.0, 1.0), atol=1e-12)

    def test_ols_cubic(self):
        r = ApproxRange(-2.0, 2.0, 0.0, 1.0)
        p = fit_ols(lambda x: x ** 3, r, 3)
        np.testing.assert_allclose(p.coeffs, (0.0, 0.0, 0.0, 1.0), atol=1e-12)

    def test_weighted_beats_uniform_on_inner_interval(self):
        lo, hi = ACTIVATION_PRESETS["mnist"]["range"]
        r = ApproxRange(lo, hi, (lo + hi) / 2, (hi - lo) / 10)
        w = WeightScheme.from_moments(r.mu, r.sigma)
        p_w = fit_weighted_ls(silu, r, 10, w=w)
        p_u = fit_ols(silu, r, 10)
        x = np.linspace(w.inner_lo, w.inner_hi, 4001)
        rmse_w = np.sqrt(np.mean((silu(x) - p_w(x)) ** 2))
        rmse_u = np.sqrt(np.mean((silu(x) - p_u(x)) ** 2))
        assert rmse_w < rmse_u

    def test_coefficients_are_a_local_minimum(self):
        r = ApproxRange(-4.0, 6.0, 1.0, 1.0)
        w = WeightScheme.from_moments(1.0, 1.0)
        degree, n = 6, 1400
        p = fit_weighted_ls(silu, r, degree, w=w, n_samples=n)
        x = np.linspace(r.lo, r.hi, n)
        weights = w.weights(x)
        base = np.sum(weights * (silu(x) - p(x)) ** 2)
        for i in range(degree + 1):
            for delta in (1e-3, -1e-3):
                c = np.array(p.coeffs)
                c[i] += delta
                perturbed = np.sum(weights * (silu(x) - Polynomial(tuple(c))(x)) ** 2)
                assert perturbed >= base

    @pytest.mark.parametrize("fit", [fit_weighted_ls, fit_ols, fit_remez])
    def test_degree_above_the_maximum_rejected_before_sampling(self, fit, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before checking the degree")
        monkeypatch.setattr(approx, "_sample_grid", no_sampling)
        monkeypatch.setattr(approx, "_remez_core", no_sampling)
        r = ApproxRange(-4.0, 6.0, 1.0, 1.0)
        for degree in (approx.MAX_FIT_DEGREE + 1, 1000, -1):
            with pytest.raises(InvalidArgument, match="MAX_FIT_DEGREE"):
                fit(silu, r, degree)
        with pytest.raises(AssertionError, match="sampled"):
            fit(silu, r, approx.MAX_FIT_DEGREE)

    def test_ill_conditioned(self):
        degenerate = ApproxRange(1.0, 1.0, 1.0, 0.0)
        with pytest.raises(IllConditioned):
            fit_weighted_ls(silu, degenerate, 3)

    def test_sample_count_validation(self):
        r = ApproxRange(-1.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            fit_weighted_ls(silu, r, 5, n_samples=4)

    def test_weight_scheme_invariant(self):
        with pytest.raises(ValueError):
            WeightScheme(-1.0, 1.0, inner_weight=1.0, outer_weight=5.0)


class TestRemez:
    def test_abs_degree_two_equioscillates(self):
        r = ApproxRange(-1.0, 1.0, 0.0, 0.5)
        p = fit_remez(np.abs, r, 2, rel_tol=1e-3)
        x = np.linspace(-1, 1, 20001)
        err = np.abs(x) - p(x)
        # classical minimax: x^2 + 1/8, levelled error 1/8
        assert abs(np.max(np.abs(err)) - 0.125) < 2e-3
        ref = np.array([err[0], err[5000], err[10000], err[15000], err[20000]])
        signs = np.sign(ref)
        assert all(signs[i] != signs[i + 1] for i in range(4))

    def test_remez_beats_ols_max_error_on_silu(self):
        r = ApproxRange(-6.0, 8.0, 1.0, 1.4)
        p_r = fit_remez(silu, r, 7, rel_tol=1e-3)
        p_o = fit_ols(silu, r, 7)
        x = np.linspace(r.lo, r.hi, 20001)
        assert np.max(np.abs(silu(x) - p_r(x))) <= np.max(np.abs(silu(x) - p_o(x)))

    def test_nonconvergence_raises(self):
        r = ApproxRange(-1.0, 1.0, 0.0, 0.5)
        with pytest.raises(RemezNonConvergence):
            fit_remez(np.abs, r, 8, max_iter=0)

    def test_infeasible_comparator_raises_without_a_warning(self):
        # the Chebyshev reference's end point rounds just below lo; the
        # skew of a degenerate levelling clamps it at lo instead of taking
        # a negative number to the power 1.1 (NaN, RuntimeWarning)
        with pytest.raises(RemezNonConvergence):
            build_composite_sign(2, 2 ** -6)

    def test_odd_sign_stage_is_odd(self):
        p, err = fit_odd_sign_stage(0.1, 1.0, 15)
        assert all(c == 0.0 for c in p.coeffs[0::2])
        assert 0 < err < 1
        x = np.linspace(0.1, 1.0, 500)
        assert np.max(np.abs(p(x) - 1.0)) <= err * 1.01


class TestEvalPolyHe:
    def test_constant_costs_nothing(self):
        be = backend()
        a = be.encrypt(np.arange(4.0))
        out = eval_poly_he(a, Polynomial((7.5,)))
        assert np.all(out.slots == 7.5)
        assert out.level == a.level
        assert be.counter.ct_mults == 0

    def test_square(self):
        be = backend()
        out = eval_poly_he(be.encrypt([1.0, 2.0, 3.0]), Polynomial((0.0, 0.0, 1.0)))
        np.testing.assert_array_equal(out.slots[:3], [1.0, 4.0, 9.0])

    def test_degree_15_depth(self):
        be = backend(depth=20)
        rng = np.random.default_rng(0)
        p = Polynomial(tuple(rng.normal(size=16)))
        a = be.encrypt(rng.normal(size=8))
        out = eval_poly_he(a, p)
        consumed = a.level - out.level
        assert consumed <= 5
        assert consumed == poly_eval_depth(p) == 4

    def test_depth_formula(self):
        assert poly_eval_depth(0) == 0
        assert poly_eval_depth(1) == 1
        assert poly_eval_depth(2) == poly_eval_depth(3) == 2
        assert poly_eval_depth(4) == 3
        assert poly_eval_depth(15) == 4
        assert poly_eval_depth(31) == 5

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(1)
        be = backend(slots=128)
        for deg in (1, 3, 6, 10, 15):
            p = Polynomial(tuple(rng.normal(size=deg + 1)))
            x = rng.uniform(-1, 1, 128)
            out = eval_poly_he(be.encrypt(x), p)
            np.testing.assert_allclose(out.slots, p(x), atol=1e-9)

    def test_clear_twin_is_bit_exact(self):
        rng = np.random.default_rng(2)
        be = backend(slots=32)
        p = Polynomial(tuple(rng.normal(size=12)))
        x = rng.uniform(-2, 2, 32)
        he = eval_poly_he(be.encrypt(x), p)
        np.testing.assert_array_equal(he.slots, eval_poly_he(x, p))

    def test_depth_exhausted(self):
        be = backend(depth=2)
        a = be.encrypt(np.ones(4), level=2)
        with pytest.raises(DepthExhausted):
            eval_poly_he(a, Polynomial(tuple(np.ones(16))))


# Inputs hold only the hardware's default NaN (see tests/test_backend.py).
with np.errstate(invalid="ignore"):
    DEFAULT_NAN = float(np.float64(np.inf) * 0.0)

VALUES = (st.sampled_from([0.0, -0.0, 1.0, -1.0, 3e300, np.inf, -np.inf, DEFAULT_NAN])
          | st.floats(-2.0, 2.0))


class _OneOpAtATime:
    """Reference ops adapter: every op is one backend call, a constant is
    a trivial encryption at the input's level."""

    def __init__(self, x: CipherText):
        self.x, self.be = x, x.backend

    def mul(self, a, b):
        return self.be.mul(a, b)

    def add(self, a, b):
        return self.be.add(a, b)

    def const(self, c):
        return self.be.encrypt(c, self.x.level)


class _Recorder:
    """Symbolic ops adapter: each op returns a fresh token ("v", i) and
    logs its name and operands (tokens, or scalars as they are)."""

    def __init__(self):
        self.x = ("v", 0)
        self.log = []

    def _op(self, name, a, b):
        self.log.append((name, a, b))
        return ("v", len(self.log))

    def mul(self, a, b):
        return self._op("mul", a, b)

    def add(self, a, b):
        return self._op("add", a, b)

    def const(self, c):
        return self._op("const", c, None)


def _estrin_recursive(ops, x, coeffs):
    """Reference power tree: the balanced recursion, lo block before hi
    block, a block a float while it is constant, zero terms skipped."""
    n = len(coeffs)
    if n == 1:
        return ops.const(coeffs[0])
    m = max(1, (n - 1).bit_length())
    padded = np.zeros(1 << m)
    padded[:n] = coeffs
    pows = [x]
    for _ in range(m - 1):
        pows.append(ops.mul(pows[-1], pows[-1]))

    def block(lo, size):
        if size == 1:
            return float(padded[lo])
        half = size // 2
        lo_val = block(lo, half)
        hi_val = block(lo + half, half)
        if isinstance(hi_val, float) and hi_val == 0.0:
            return lo_val
        term = ops.mul(pows[half.bit_length() - 1], hi_val)
        if isinstance(lo_val, float) and lo_val == 0.0:
            return term
        return ops.add(term, lo_val)

    return block(0, 1 << m)


class TestEstrinOpOrder:
    """The flat power tree issues the recursion's ops in its order: the
    order of the noise draws a noisy backend's bit-identity rests on."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_recursive_reference(self, data):
        draw = data.draw
        degree = draw(st.integers(0, 31))
        parity = draw(st.sampled_from(["any", "odd", "even"]))
        coeffs = [0.0 if (parity == "odd" and i % 2 == 0) or (parity == "even" and i % 2)
                  else draw(st.sampled_from([0.0, 1.0, -0.5]) | st.floats(-3.0, 3.0))
                  for i in range(degree + 1)]
        coeffs = Polynomial(tuple(coeffs)).coeffs
        got, want = _Recorder(), _Recorder()
        assert approx._estrin(got, got.x, coeffs) == _estrin_recursive(want, want.x, coeffs)
        assert got.log == want.log


class TestEvalPolyHeWindow:
    """eval_poly_he's array program on the live window against the same
    schedule run one backend op at a time."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_op_by_op_schedule(self, data):
        draw = data.draw
        S = draw(st.sampled_from([8, 16, 64]))
        noise = draw(st.sampled_from([0.0, 1e-3]))
        degree = draw(st.integers(0, 31))
        parity = draw(st.sampled_from(["any", "odd", "even"]))
        coeffs = [draw(st.sampled_from([0.0, 0.5, -1.25]) | st.floats(-3.0, 3.0))
                  for _ in range(degree + 1)]
        for i in range(len(coeffs)):
            if (parity == "odd" and i % 2 == 0) or (parity == "even" and i % 2 == 1):
                coeffs[i] = 0.0
        p = Polynomial(tuple(coeffs))
        start = draw(st.integers(0, S - 1))
        size = draw(st.sampled_from([0, S]) | st.integers(1, S - 1))  # empty, full, wrapped
        vals = np.array(draw(st.lists(VALUES, min_size=size, max_size=size)), dtype=float)
        tail, level = draw(VALUES), draw(st.integers(0, 6))

        runs = []
        for evaluate in (eval_poly_he,
                         lambda a, p: approx._estrin(_OneOpAtATime(a), a, p.coeffs)):
            be = make_backend(BackendConfig(slot_count=S, depth_budget=6,
                                            noise_std=noise, rng_seed=11))
            a = CipherText(start, vals, tail, level, be)
            with np.errstate(all="ignore"):
                if level < poly_eval_depth(p):
                    with pytest.raises(DepthExhausted):
                        evaluate(a, p)
                    continue
                out = evaluate(a, p)
            runs.append((be.decrypt(out).view(np.int64), out.level, be.counter))
        if runs:
            (got, got_level, got_ops), (want, want_level, want_ops) = runs
            assert np.array_equal(got, want)
            assert got_level == want_level == level - poly_eval_depth(p)
            assert got_ops == want_ops


class TestComparatorProgramsWindow:
    """poly_comp, the one runner of both comparators, against the same
    subtraction and comparator program run one backend op at a time."""

    @staticmethod
    def _op_by_op(a, b, comparator):
        be = a.backend
        d = be.sub(a, b)
        if comparator is EXACT_COMPARATOR:
            # the oracle's program is one trivial encryption of step(d)
            return be.encrypt(step_clear(be.decrypt(d)), d.level)
        return comparator.step(_OneOpAtATime(d), d)

    @pytest.mark.parametrize("window", ["wrapped", "full", "empty"])
    @pytest.mark.parametrize("noise", [0.0, 1e-3])
    @pytest.mark.parametrize("name", ["exact", "composite"])
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_op_by_op_program(self, name, noise, window, data):
        draw = data.draw
        comparator = EXACT_COMPARATOR if name == "exact" else build_composite_sign()
        S = draw(st.sampled_from([8, 16, 64]))
        if window == "wrapped":
            start = draw(st.integers(2, S - 1))
            size = draw(st.integers(S - start + 1, S - 1))
        else:
            start, size = draw(st.integers(0, S - 1)), S if window == "full" else 0
        vals = np.array(draw(st.lists(VALUES, min_size=size, max_size=size)), dtype=float)
        tail = draw(VALUES)
        b = draw(VALUES | st.lists(VALUES, min_size=1, max_size=S).map(np.array))
        depth = comparator.depth()
        level = draw(st.sampled_from([depth, depth + 1, max(depth - 1, 0)]))

        runs = []
        for compare in (poly_comp, self._op_by_op):
            be = make_backend(BackendConfig(slot_count=S, depth_budget=depth + 1,
                                            noise_std=noise, rng_seed=11))
            a = CipherText(start, vals, tail, level, be)
            with np.errstate(all="ignore"):
                if level < depth:
                    with pytest.raises(DepthExhausted):
                        compare(a, b, comparator)
                    continue
                out = compare(a, b, comparator)
            runs.append((be.decrypt(out).view(np.int64), out.level, be.counter))
        if runs:
            (got, got_level, got_ops), (want, want_level, want_ops) = runs
            assert np.array_equal(got, want)
            assert got_level == want_level == level - depth
            assert got_ops == want_ops


class TestCompositeSign:
    def test_default_build_certifies(self):
        cs = build_composite_sign()
        assert cs.delta == 2.0 ** -5
        assert 2 <= len(cs.stages) <= 3
        assert cs.certified_max_error() <= cs.target_eps
        for stage in cs.stages:
            assert all(c == 0.0 for c in stage.coeffs[0::2])

    def test_stage_plans_ordered_by_depth_then_stage_count(self):
        keys = [(sum(poly_eval_depth(d) for d in plan), len(plan))
                for plan in approx._STAGE_PLANS]
        assert keys == sorted(keys)

    def test_depth_is_stage_sum_plus_map(self):
        cs = build_composite_sign()
        assert cs.depth() == sum(poly_eval_depth(s) for s in cs.stages) + 1

    def test_comp_greater(self):
        cs = build_composite_sign()
        be = backend(slots=8)
        out = poly_comp(be.encrypt(np.full(8, 0.5)), np.full(8, 0.2), cs)
        assert np.all(np.abs(out.slots - 1.0) <= cs.target_eps)

    def test_comp_less(self):
        cs = build_composite_sign()
        be = backend(slots=8)
        out = poly_comp(be.encrypt(np.full(8, 0.2)), np.full(8, 0.5), cs)
        assert np.all(np.abs(out.slots) <= cs.target_eps)

    def test_comp_tie_is_exactly_half(self):
        cs = build_composite_sign()
        be = backend()
        v = np.full(8, 0.37)
        out = poly_comp(be.encrypt(v), v, cs)
        assert np.all(out.slots == 0.5)

    def test_antisymmetry(self):
        cs = build_composite_sign()
        be = backend(slots=256)
        rng = np.random.default_rng(4)
        a = rng.uniform(-0.5, 0.5, 256)
        b = rng.uniform(-0.5, 0.5, 256)
        ab = poly_comp(be.encrypt(a), be.encrypt(b), cs)
        ba = poly_comp(be.encrypt(b), be.encrypt(a), cs)
        np.testing.assert_allclose(ab.slots + ba.slots, 1.0, atol=2 * cs.target_eps)

    def test_clear_twin_matches_he(self):
        cs = build_composite_sign()
        be = backend(slots=128)
        d = np.linspace(-1, 1, 128)
        he = poly_comp(be.encrypt(d), np.zeros(128), cs)
        np.testing.assert_array_equal(he.slots, cs.step(_ArrayOps(d), d))
