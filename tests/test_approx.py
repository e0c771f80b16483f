import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev as npcheb
from numpy.polynomial import polynomial as nppoly

from hekan import approx, inference
from hekan.approx import (
    ACTIVATION_PRESETS,
    EXACT_COMPARATOR,
    ApproxRange,
    MonicSextic,
    Polynomial,
    WeightScheme,
    build_composite_sign,
    drop_roundoff,
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
    HeKanError,
    IllConditioned,
    InvalidArgument,
    RemezNonConvergence,
)
from hekan.bspline import GridMatrix
from hekan.model import Dataset, KanLayer, fit_layer_ls, random_model, silu


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

    def test_rank_deficient_fit_is_ill_conditioned(self):
        # 61 equally spaced samples do not separate a degree-60 Chebyshev
        # basis: the solve's numerical rank falls short of 61
        with pytest.raises(IllConditioned, match=r"rank \d+ < 61"):
            fit_weighted_ls(np.sin, ApproxRange(-1.0, 1.0, 0.0, 1.0), 60, n_samples=61)

    def test_a_solve_that_fails_is_ill_conditioned(self):
        # an infinite inner weight passes WeightScheme's check, and the
        # weighted least-squares SVD does not converge (LinAlgError)
        w = WeightScheme(-0.5, 0.5, inner_weight=math.inf)
        with np.errstate(invalid="ignore"), pytest.raises(IllConditioned, match="SVD"):
            fit_weighted_ls(silu, ApproxRange(-1.0, 1.0, 0.0, 1.0), 3, w=w)

    def test_sample_count_validation(self):
        r = ApproxRange(-1.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            fit_weighted_ls(silu, r, 5, n_samples=4)

    @pytest.mark.parametrize("fit", [fit_weighted_ls, fit_ols])
    def test_too_few_samples_is_a_library_error(self, fit):
        r = ApproxRange(-1.0, 1.0, 0.0, 1.0)
        with pytest.raises(HeKanError, match="must exceed degree"):
            fit(silu, r, 5, n_samples=5)

    def test_drop_roundoff_zeroes_only_roundoff_terms(self):
        # on [-2, 1] the largest |p| is 9 at x = -2: a term below 9e-12
        # there is roundoff, one at 1e-10 is real
        r = ApproxRange(-2.0, 1.0, 0.0, 1.0)
        p = Polynomial((1.0, 1e-13, 2.0, 1e-10 / 8, 1e-14))
        assert drop_roundoff(p, r).coeffs == (1.0, 0.0, 2.0, 1e-10 / 8)
        assert drop_roundoff(Polynomial((0.0,)), r).coeffs == (0.0,)

    def test_weight_scheme_invariant(self):
        with pytest.raises(ValueError):
            WeightScheme(-1.0, 1.0, inner_weight=1.0, outer_weight=5.0)

    def test_weight_scheme_invariant_is_a_library_error(self):
        with pytest.raises(HeKanError, match="inner_weight >= outer_weight"):
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

    def test_an_error_of_one_sign_has_no_alternating_reference(self):
        # degree 1 starts from the reference (0, mid, 1); the target is -1
        # at mid only, which the 8192-point grid misses, so on the grid
        # the error keeps one sign: one candidate run, fewer than m = 3
        mid = 0.5 + 0.5 * math.cos(math.pi / 2)

        def target(x):
            return np.where(x == mid, -1.0, 10.0 * np.exp(-((x - 0.25) / 0.05) ** 2))

        with pytest.raises(RemezNonConvergence, match="alternating reference"):
            fit_remez(target, ApproxRange(0.0, 1.0, 0.5, 0.1), 1)

    def test_infeasible_comparator_raises_without_a_warning(self):
        # the Chebyshev reference's end point rounds just below lo; the
        # skew of a degenerate levelling clamps it at lo instead of taking
        # a negative number to the power 1.1 (NaN, RuntimeWarning)
        with pytest.raises(RemezNonConvergence):
            build_composite_sign(2, 2 ** -6)

    @pytest.mark.parametrize("degree", [0, 2, 14, -1])
    def test_sign_stage_of_even_degree_is_a_library_error(self, degree):
        with pytest.raises(HeKanError, match="odd degree"):
            fit_odd_sign_stage(0.1, 1.0, degree)

    @pytest.mark.parametrize("lo, hi, degree", [
        (0.5, 0.1, 7), (-0.5, -0.1, 7), (0.5, 0.5, 7), (-0.1, 1.0, 7),
        (0.1, 1.0, approx.MAX_FIT_DEGREE + 2), (0.1, 1.0, 10 ** 5), (0.1, 1.0, 7.0),
        (0.1, 1.0, True), (0.1, 1.0, "7"), (math.nan, 1.0, 7), (0.1, math.nan, 7),
        (0.1, math.inf, 7), (-math.inf, 1.0, 7), (math.inf, math.inf, 7)])
    def test_sign_stage_rejects_bad_arguments_before_sampling(self, monkeypatch, lo, hi, degree):
        # an inverted or negative interval once returned a bogus stage, a
        # degree past the cap asked for an 8192 x (degree + 1) grid matrix
        # (6.5 GB at 10^5), and NaN bounds warned before failing to converge
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before checking the arguments")

        monkeypatch.setattr(approx, "_remez_core", no_sampling)
        with pytest.raises(InvalidArgument):
            fit_odd_sign_stage(lo, hi, degree)

    def test_sign_stage_accepts_the_degree_cap_and_numpy_ints(self, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled")

        monkeypatch.setattr(approx, "_remez_core", no_sampling)
        for degree in (1, approx.MAX_FIT_DEGREE, np.int64(7)):
            with pytest.raises(AssertionError, match="sampled"):
                fit_odd_sign_stage(0.0, 1.0, degree)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=32),
           st.floats(-8.0, 8.0), st.floats(1e-3, 16.0))
    def test_chebyshev_conversion_is_numpys_bit_for_bit(self, coef, lo, width):
        # signed zeros included: the fitters once called numpy's class
        want = npcheb.Chebyshev(coef, domain=[lo, lo + width]).convert(kind=nppoly.Polynomial)
        got = approx._cheb_to_power(coef, lo, lo + width)
        assert np.array_equal(got.view(np.int64), want.coef.view(np.int64))

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


def _draw_coeffs(draw):
    """Coefficients of degree 0 to 31, of any, odd or even parity, zeros
    (signed ones too) included, trimmed as a Polynomial trims them."""
    degree = draw(st.integers(0, 31))
    parity = draw(st.sampled_from(["any", "odd", "even"]))
    coeffs = [0.0 if (parity == "odd" and i % 2 == 0) or (parity == "even" and i % 2)
              else draw(st.sampled_from([0.0, -0.0, 1.0, -0.5]) | st.floats(-3.0, 3.0))
              for i in range(degree + 1)]
    return Polynomial(tuple(coeffs)).coeffs


def _op_counts(log):
    """(ct mults, pt mults, adds) of a _Recorder log."""
    muls = [b for name, _, b in log if name == "mul"]
    ct = sum(isinstance(b, tuple) for b in muls)
    return ct, len(muls) - ct, sum(name == "add" for name, _, _ in log)


class TestEstrinOpOrder:
    """The flat power tree issues the recursion's ops in its order: the
    order of the noise draws a noisy backend's bit-identity rests on."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_recursive_reference(self, data):
        coeffs = _draw_coeffs(data.draw)
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


def _silu_layer(source, R, g, k, seed):
    """A layer whose packed SiLU is a degree-6 fit on a grid of bound
    about R: random_model's (degree 7, its odd terms dropped as roundoff
    on a symmetric range) or fit_layer_ls's at degree 6."""
    hi = R / 1.2 * g / (g + 2 * k)  # GridMatrix.uniform's R = 1.2 (hi + k h)
    if source == "random_model":
        return random_model([2, 3], g=g, k=k, seed=seed, lo=-hi, hi=hi).layers[0]
    rng = np.random.default_rng(seed)
    X = rng.uniform(-hi, hi, (150, 2)) * rng.uniform(0.3, 1.0)
    data = Dataset(X, np.sin(X.sum(axis=1, keepdims=True)))
    return fit_layer_ls(data, 1, GridMatrix.uniform(2, g, k, -hi, hi), silu_degree=6)[0]


class TestMonicSextic:
    """The layer's SiLU in Knuth's monic sextic form: certified on the
    packed domain [-|unit|/2, |unit|/2] for the SiLU fits layers make, in
    the grid's unit and folded into the default comparator's, rejected
    (the power tree kept) where the form is badly conditioned or the
    degree is not 6, and run as one window program with the op-by-op
    schedule's bits, counts and noise draws."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(source=st.sampled_from(["random_model", "fit_layer_ls"]),
           R=st.floats(0.5, 25.0), g=st.integers(1, 10), k=st.integers(1, 5),
           seed=st.integers(0, 2 ** 16))
    def test_silu_fits_take_the_form(self, source, R, g, k, seed):
        layer = _silu_layer(source, R, g, k, seed)
        packed = layer.packed_silu_poly
        assert packed.degree == 6
        for unit in (1.0, build_composite_sign().unit):
            p = Polynomial(tuple(c / unit ** j for j, c in enumerate(packed.coeffs)))
            form = layer.silu_program(unit)
            assert isinstance(form, MonicSextic) and form.lead == p.coeffs[-1]
            y = np.linspace(-abs(unit) / 2, abs(unit) / 2, 10_001)  # not the certificate's grid
            u = eval_poly_he(y, form)
            assert np.max(np.abs(form.lead * u - p(y))) <= 1e-12 * max(1.0, np.max(np.abs(p(y))))
            assert np.max(np.abs(form.lead * u - packed(y / unit))) <= 1e-9
            np.testing.assert_array_equal(layer.w_base(unit), form.lead * layer.W_b)

    @pytest.mark.parametrize("p", [
        Polynomial((0, 0, 0, 0, 0, 10, 1)),  # x^6 + 10 x^5: every root errs by 1e-10 or more
        Polynomial((1, 0, 0, 0, 0, 0, 5e-324)),  # its monic part overflows
        Polynomial((0, 0.5, 0.2, 0, -0.01, 0, 4e-4, 1e-5)),  # degree 7
        Polynomial((0, 0.5, 0.2)),
    ])
    def test_rejected_polynomials_keep_the_power_tree(self, p):
        assert MonicSextic.certified(p, -0.5, 0.5) is None
        grid = GridMatrix(np.linspace(-0.5, 0.5, 8)[None], 3, 2, 0.5)  # R = 1/2: packed is p
        layer = KanLayer(W_b=np.ones((1, 1)), S=np.zeros((1, 1, grid.n_basis)), grid=grid,
                         silu_poly=p)
        assert layer.silu_program(1.0) == layer.packed_silu_poly
        assert layer.w_base(1.0) is layer.W_b

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_polynomials_are_not_certified(self, bad):
        for j in (0, 6):
            coeffs = [0.1, 0.5, 0.2, 0, -0.01, 0, 4e-4]
            coeffs[j] = bad
            assert MonicSextic.certified(Polynomial(tuple(coeffs)), -0.5, 0.5) is None

    def test_degree_10_fit_keeps_the_power_tree(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, (150, 2))
        layer, _ = fit_layer_ls(Dataset(X, X[:, :1] ** 2), 1,
                                GridMatrix.uniform(2, 3, 2, -1.0, 1.0))
        assert layer.packed_silu_poly.degree == 10
        assert layer.silu_program(1.0) == layer.packed_silu_poly
        assert layer.w_base(1.0) is layer.W_b

    @pytest.mark.parametrize("lead, a", [
        (1.0, (np.nan, 0, 0, 0, 0, 0)), (np.inf, (0, 0, 0, 0, 0, 0)),
        (1.0, (0, 0, 0, 0, 0, -np.inf)), (1.0, (0, 0, 0, 0, 0))])
    def test_bad_parameters_raise_before_any_op(self, lead, a):
        be = backend()
        ct = be.encrypt(np.arange(4.0))
        before = be.counter.copy()
        with pytest.raises(InvalidArgument):
            eval_poly_he(ct, MonicSextic(lead, a))
        assert be.counter == before

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(a=st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6),
           S=st.sampled_from([8, 64]), noise=st.sampled_from([0.0, 1e-3]),
           level=st.integers(0, 5))
    def test_window_program_is_the_op_by_op_schedule(self, a, S, noise, level):
        form = MonicSextic(1.5, tuple(a))
        x = np.random.default_rng(S).uniform(-0.5, 0.5, S - 3)

        def run(evaluate):
            be = make_backend(BackendConfig(slot_count=S, depth_budget=5, noise_std=noise,
                                            rng_seed=5))
            ct = be.encrypt(x, level=level)
            before = be.counter.copy()
            if level < 3:  # the form's depth: raised, and nothing charged
                with pytest.raises(DepthExhausted):
                    evaluate(ct, form)
                assert be.counter == before
                return None
            out = evaluate(ct, form)
            return be.decrypt(out).view(np.int64), out.level, be.counter.since(before)

        got = run(eval_poly_he)
        if got is None:
            return
        want = run(lambda ct, f: f.steps(_OneOpAtATime(ct), ct)[-1])
        assert np.array_equal(got[0], want[0])
        assert got[1:] == want[1:] and got[1] == level - 3
        assert (got[2].ct_mults, got[2].pt_mults, got[2].adds) == (3, 0, 7)
        z = (x + a[0]) * x + a[1]
        w = (x + a[2]) * z + a[3]
        if not noise:
            np.testing.assert_array_equal(got[0].view(float)[:x.size], (z + w + a[4]) * w + a[5])

    @pytest.mark.parametrize("form", [
        MonicSextic(2.0, (0.1, -0.2, 0.3, 0.4, -0.5, 0.6)),
        Polynomial((0.1, 0.5, 0.3, 0, -0.5, 0, 2.0))])  # a packed SiLU's terms
    def test_both_programs_draw_ten_noise_rows(self, form, monkeypatch):
        be = make_backend(BackendConfig(slot_count=16, depth_budget=5, noise_std=1e-9))
        ct = be.encrypt(np.linspace(-0.5, 0.5, 16))
        draws = []
        monkeypatch.setattr(HeBackend, "_noise",
                            lambda self, _run=HeBackend._noise: draws.append(1) or _run(self))
        before = be.counter.copy()
        out = eval_poly_he(ct, form)
        spent = be.counter.since(before)
        assert len(draws) == spent.adds + spent.ct_mults + spent.pt_mults == 10
        assert ct.level - out.level == 3


# ct mults of one call of an odd stage's product form (approx._OddStage),
# by degree; a comparator call spends one pt mult in all, on its first
# stage's scalar
STAGE_COSTS = {7: 4, 15: 7, 31: 13}


def _stage_ct_mults(degree):
    """The product form's ct mults at an odd degree: w = z^2, then Q's m =
    (degree - 1) / 2 roots as h = m // 2 quadratic factors (one ct mult for
    a lone quadratic, two per quartic) and the linear factor when m is
    odd, and one merge per factor past z."""
    m = (degree - 1) // 2
    h = m // 2
    return 0 if m == 0 else 1 + m % 2 + 2 * (h % 2) + 3 * (h // 2)


def _stage_law(comparator):
    """(ct mults, pt mults, levels) of one call of a comparator of odd
    stages: the stages' ct mults, one pt mult, and each stage's
    poly_eval_depth, but none for a later stage of degree 1 (monic, it is
    its input)."""
    degrees = [s.degree for s in comparator.stages]
    return (sum(map(_stage_ct_mults, degrees)), 1,
            sum(poly_eval_depth(d) for i, d in enumerate(degrees) if i == 0 or d > 1))


def _random_sign(draw):
    """A hand-built CompositeSign: one to three odd stages of random
    degree 1 to 63 (7, 15 and 31 drawn often), each with random odd
    coefficients and a nonzero leading one."""
    degree = st.sampled_from(sorted(STAGE_COSTS)) | st.sampled_from(range(1, 64, 2))
    degrees = draw(st.lists(degree, min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    stages = []
    for degree in degrees:
        coeffs = np.zeros(degree + 1)
        coeffs[1::2] = rng.uniform(-3.0, 3.0, (degree + 1) // 2)
        coeffs[-1] = rng.choice([-1.0, 1.0]) * rng.uniform(0.25, 3.0)
        stages.append(Polynomial(tuple(coeffs)))
    return approx.CompositeSign(tuple(stages), 5.0, 0.5)


class TestComparatorProgramsWindow:
    """poly_comp, the one runner of both comparators, against the same
    subtraction and comparator program run one backend op at a time: the
    default comparators and hand-built ones of random odd stages."""

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
    @pytest.mark.parametrize("name", ["exact", "composite", "random"])
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_op_by_op_program(self, name, noise, window, data):
        draw = data.draw
        comparator = {"exact": lambda: EXACT_COMPARATOR, "composite": build_composite_sign,
                      "random": lambda: _random_sign(draw)}[name]()
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

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_a_call_costs_one_pt_mult_and_the_stage_law(self, data):
        """Every stage after the first is monic, so a call of any stage
        chain spends one pt mult, on the first stage's scalar, and its ct
        mults and levels are the stage law's (_stage_law), on the backend's
        window program and op by op."""
        comparator = _random_sign(data.draw)
        ct, pt, depth = _stage_law(comparator)
        assert comparator.depth() == depth
        for compare in (poly_comp, self._op_by_op):
            be = backend(slots=8, depth=depth)
            a = be.encrypt(np.linspace(-1.0, 1.0, 8))
            with np.errstate(all="ignore"):
                out = compare(a, 0.25, comparator)
            c = be.counter
            assert (c.ct_mults, c.pt_mults, c.subs, a.level - out.level) == (ct, pt, 1, depth)

    def test_stage_law_pins(self):
        assert {d: _stage_ct_mults(d) for d in STAGE_COSTS} == STAGE_COSTS


class TestCompositeSign:
    def test_default_build_certifies(self):
        cs = build_composite_sign()
        assert cs.delta == 2.0 ** -5
        assert [s.degree for s in cs.stages] == [7, 7, 15]
        assert cs.depth() == 10
        assert cs.certified_max_error() <= cs.target_eps
        for stage in cs.stages:
            assert all(c == 0.0 for c in stage.coeffs[0::2])

    def test_default_coefficients_are_small(self):
        # a noisy backend's error is multiplied by the coefficients: the
        # default's stay far from the 2.2e10 of a degree-31 first stage
        cs = build_composite_sign()
        assert max(abs(c) for s in cs.stages for c in s.coeffs) <= 1e3

    def test_criterion4_comparator_keeps_two_degree_31_stages(self):
        # no cheaper plan at depth <= 10 certifies 2^-10 at alpha = 7
        cs = build_composite_sign(7.0, 2.0 ** -10)
        assert [s.degree for s in cs.stages] == [31, 31]

    def test_stage_plans_ordered_by_depth_then_call_cost(self):
        """Plans are tried by depth, then by one call's ct mults, then pt
        mults, as step runs the stages (in product form, whose counts
        depend on the degrees alone)."""
        def key(plan):
            stages = tuple(Polynomial(tuple(float(i % 2) for i in range(d + 1)))
                           for d in plan)
            cs = approx.CompositeSign(stages, 5.0, 0.5)
            rec = _Recorder()
            cs.step(rec, rec.x)
            ct, pt, _ = _op_counts(rec.log)
            return cs.depth(), ct, pt

        keys = [key(plan) for plan in approx._STAGE_PLANS]
        assert keys == sorted(keys)

    def test_default_call_costs(self):
        # stages 7, 7, 15: 4, 4 and 7 ct mults, one pt mult (the first
        # stage's scalar; the others are monic), 3, 3 and 8 adds (the
        # quartic's Knuth form adds once more), plus the 1/2
        cs = build_composite_sign()
        be = backend(slots=8, depth=12)
        a = be.encrypt(np.linspace(-1.0, 1.0, 8))
        out = poly_comp(a, 0.25, cs)
        c = be.counter
        assert (c.ct_mults, c.pt_mults, c.adds, c.subs) == (15, 1, 15, 1)
        assert a.level - out.level == cs.depth() == 10

    @pytest.mark.parametrize("alpha, eps, unit", [
        (approx.DEFAULT_ALPHA, approx.DEFAULT_TARGET_EPS, -1.7204), (7.0, 2.0 ** -10, 1.9288)],
        ids=["default", "criterion4"])
    def test_folded_call_spends_no_pt_mult(self, alpha, eps, unit):
        """A difference that arrives times the comparator's unit (the real
        deg-th root of its first stage's leading constant) runs that stage
        monic: the raw call's counts and depth less its one pt mult, and
        the same step within 1e-15 on [delta, 1] (2.3e-13 for criterion
        4's degree-31 stages)."""
        cs = build_composite_sign(alpha, eps)
        assert round(cs.unit, 4) == unit
        d = np.linspace(-1.0, 1.0, 4001)
        counts = []
        for operand, folded in ((d, False), (d * cs.unit, True)):
            be = backend(slots=4096, depth=cs.depth())
            a = be.encrypt(operand)
            out = poly_comp(a, 0.0, cs, folded)
            c = be.counter
            counts.append((c.ct_mults, c.pt_mults, c.adds, a.level - out.level))
            steps = be.decrypt(out)[:d.size]
            assert np.array_equal(steps.view(np.int64), poly_comp(operand, 0.0, cs, folded).view(
                np.int64))
            counts[-1] += (steps,)
        (*raw, raw_steps), (*folded, folded_steps) = counts
        assert folded == [raw[0], raw[1] - 1, raw[2], raw[3]] and cs.depth(True) == raw[3]
        far = np.abs(d) >= cs.delta
        assert np.max(np.abs(folded_steps - raw_steps)[far]) <= (1e-15 if alpha == 5.0 else 3e-13)

    @pytest.mark.parametrize("monic", [False, True], ids=["scalar", "monic"])
    @pytest.mark.parametrize("degree, ct, adds, levels",
                             [(7, 4, 3, 3), (15, 7, 8, 4), (31, 13, 18, 5)])
    def test_fitted_stage_costs(self, degree, ct, adds, levels, monic):
        # c z (a monic stage: z itself) and w = z^2, then at degree 31 the
        # linear factor, one quadratic and three Knuth quartics, merged by
        # five products; the monic stage runs on z = nu x
        p, _ = fit_odd_sign_stage(2.0 ** -5, 1.0, degree)
        stage = approx._OddStage.of(p, monic=monic)
        x = np.linspace(-1.0, 1.0, 8)
        be = backend(slots=8, depth=6)
        a = be.encrypt(stage.nu * x)
        out = stage.run(_OneOpAtATime(a), a)
        c = be.counter
        assert (c.ct_mults, c.pt_mults, c.adds, a.level - out.level) == (
            ct, 0 if monic else 1, adds, levels)
        # the degree-31 stage's power-basis coefficients reach 2.2e10: at
        # |x| = 1 the factors and polyval each round about 1e-6 off
        np.testing.assert_allclose(be.decrypt(out), p(x), rtol=1e-5)

    @pytest.mark.parametrize("monic", [False, True], ids=["scalar", "monic"])
    @pytest.mark.parametrize("degree", range(1, 64, 2))
    def test_stage_level_drop_is_the_power_trees(self, degree, monic):
        # the two shallowest factors first: ceil(log2(degree + 1)) levels,
        # or with z at level 0, ceil(log2(degree)): the same above degree 1
        coeffs = np.zeros(degree + 1)
        coeffs[1::2] = np.random.default_rng(degree).uniform(0.5, 1.5, (degree + 1) // 2)
        p = Polynomial(tuple(coeffs))
        stage = approx._OddStage.of(p, monic=monic)
        be = backend(slots=8, depth=7)
        x = np.linspace(-1.0, 1.0, 8)
        a = be.encrypt(stage.nu * x)
        out = be.run_on_window(stage.run, a)
        assert stage.depth == poly_eval_depth(degree - 1 if monic else degree)
        assert a.level - stage.run(_OneOpAtATime(a), a).level == stage.depth == a.level - out.level
        np.testing.assert_allclose(out.slots, p(x), atol=1e-9)

    def test_stages_must_be_odd_and_finite(self):
        for coeffs in ((0.5, 1.0), (0.0, 1.0, 1.0), (0.0,), (0.0, float("nan")),
                       (0.0, 1.0, 0.0, float("inf"))):
            for stages in ((Polynomial(coeffs),), (Polynomial((0.0, 1.0)), Polynomial(coeffs))):
                with pytest.raises(InvalidArgument):
                    approx.CompositeSign(stages, 5.0, 0.5)

    @pytest.mark.parametrize("alpha, eps, bound", [
        (approx.DEFAULT_ALPHA, approx.DEFAULT_TARGET_EPS, 2.5e-7), (7.0, 2.0 ** -10, 2e-2)],
        ids=["default", "criterion4"])
    def test_noise_stays_bounded(self, alpha, eps, bound):
        """On a noisy backend (sigma = 1e-8, five seeds) the comparator's
        output stays within bound of the noiseless one at every point of
        [delta, 1] and its mirror: the product form keeps the stages from
        amplifying the noise, and carrying each stage's leading constant
        into the first stage's scalar keeps every intermediate near +-1:
        1.3e-7 on the default, where a scalar per stage reaches 3.8e-7. The
        power tree reaches 1.4e-6 on the default and 1e111 on criterion
        4's; pairing neighbouring quadratics into quartics, 2.8 on
        criterion 4's."""
        cs = build_composite_sign(alpha, eps)
        half = np.linspace(cs.delta, 1.0, 8192)
        d = np.concatenate([half, -half])
        exact = poly_comp(d, 0.0, cs)
        for seed in range(5):
            be = make_backend(BackendConfig(slot_count=d.size, depth_budget=cs.depth(),
                                            noise_std=1e-8, rng_seed=seed))
            out = be.decrypt(poly_comp(be.encrypt(d), 0.0, cs))
            assert np.max(np.abs(out - exact)) < bound

    def test_depth_is_stage_sum(self):
        cs = build_composite_sign()
        assert cs.depth() == sum(poly_eval_depth(s) for s in cs.stages)

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

    @pytest.mark.parametrize("alpha, eps", [(approx.DEFAULT_ALPHA, approx.DEFAULT_TARGET_EPS),
                                            (7.0, 2.0 ** -10)], ids=["default", "criterion4"])
    def test_certificate_reads_the_bits_poly_comp_returns(self, alpha, eps):
        """certified_max_error runs step, the program poly_comp runs, raw
        or folded: its value is max |2 out - 2| of the backend's output on
        its grid, and step's bits are poly_comp's on the backend and in
        the mirror, at signed zeros and subnormals too. The build accepts
        the raw program's; on these targets the folded one, which the
        layer runs, certifies too."""
        cs = build_composite_sign(alpha, eps)
        y = np.linspace(cs.delta, 1.0, 100_000)
        for d, folded in ((y, False), (y * cs.unit, True)):
            be = backend(slots=2 ** 17)
            out = be.decrypt(poly_comp(be.encrypt(d), 0.0, cs, folded))[:y.size]
            error = np.max(np.abs(2.0 * out - 2.0))
            assert cs.certified_max_error(folded) == error <= eps
        d = np.concatenate(([0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324],
                            np.linspace(-1.0, 1.0, 8001)))
        for folded in (False, True):
            want = cs.step(_ArrayOps(d), d, folded).view(np.int64)
            be = backend(slots=16384)
            he = be.decrypt(poly_comp(be.encrypt(d), 0.0, cs, folded))[:d.size]
            assert np.array_equal(he.view(np.int64), want)
            assert np.array_equal(poly_comp(d, 0.0, cs, folded).view(np.int64), want)

    @pytest.mark.parametrize("alpha, eps", [(approx.DEFAULT_ALPHA, approx.DEFAULT_TARGET_EPS),
                                            (7.0, 2.0 ** -10)], ids=["default", "criterion4"])
    def test_streamed_certificate_is_the_one_pass_maximum(self, alpha, eps):
        cs = build_composite_sign(alpha, eps)
        y = np.linspace(cs.delta, 1.0, approx.CERTIFICATE_POINTS)
        for d, folded in ((y, False), (y * cs.unit, True)):
            error = np.max(np.abs(2.0 * cs.step(_ArrayOps(d), d, folded) - 2.0))
            got = cs.certified_max_error(folded)
            assert np.float64(got).view(np.int64) == error.view(np.int64)
            assert cs.certifies(folded)

    def test_a_nan_chunk_fails_the_certificate_and_the_plan(self, monkeypatch):
        # NaN at the grid's last point, in its last chunk: the certificate
        # is NaN (np.max, not max), and the build rejects every plan
        step = approx.CompositeSign.step

        def nan_at_one(self, ops, d, folded=False):
            out = step(self, ops, d, folded)
            if isinstance(d, np.ndarray) and d[-1] == (self.unit if folded else 1.0):
                out = out.copy()
                out[-1] = np.nan
            return out

        cs = build_composite_sign()
        monkeypatch.setattr(approx.CompositeSign, "step", nan_at_one)
        for folded in (False, True):
            assert math.isnan(cs.certified_max_error(folded)) and not cs.certifies(folded)
        build_composite_sign.cache_clear()
        try:
            with pytest.raises(RemezNonConvergence):
                build_composite_sign()
        finally:
            build_composite_sign.cache_clear()

    def test_an_error_exactly_at_the_target_certifies(self):
        cs = build_composite_sign()
        error = cs.certified_max_error()
        assert approx.CompositeSign(cs.stages, cs.precision_alpha, error).certifies()
        below = approx.CompositeSign(cs.stages, cs.precision_alpha, np.nextafter(error, 0.0))
        assert not below.certifies()
        assert build_composite_sign(cs.precision_alpha, error).stages == cs.stages

    def test_a_build_fits_each_distinct_stage_once(self, monkeypatch):
        # plans (15, 15) and (15, 31) share their first stage: 8 fits, not 9
        calls, fit = [], approx.fit_odd_sign_stage

        def counted(lo, hi, degree):
            calls.append((lo, hi, degree))
            return fit(lo, hi, degree)

        monkeypatch.setattr(approx, "fit_odd_sign_stage", counted)
        build_composite_sign.cache_clear()
        try:
            cs = build_composite_sign()
        finally:
            build_composite_sign.cache_clear()
        assert len(calls) == len(set(calls)) == 8
        assert cs == build_composite_sign()

    def test_build_and_certificate_memory(self):
        # the certificate runs a chunk at a time: 8 and 7.2 MB traced when
        # it ran 100,000 points in one pass
        build_composite_sign.cache_clear()
        tracemalloc.start()
        try:
            cs = build_composite_sign()
            build_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            cs.certified_max_error(True)
            certificate_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            build_composite_sign.cache_clear()
        assert build_peak <= 3e6 and certificate_peak <= 2e6

    def test_hash_is_computed_once_and_equal_for_a_rebuild(self, monkeypatch):
        cs = build_composite_sign()
        build_composite_sign.cache_clear()
        rebuilt = build_composite_sign()
        assert rebuilt is not cs and rebuilt == cs and hash(rebuilt) == hash(cs)
        hits = inference._check_folded.cache_info().hits
        inference._check_folded(cs)
        inference._check_folded(rebuilt)
        assert inference._check_folded.cache_info().hits >= hits + 1
        calls = []
        polynomial_hash = Polynomial.__hash__
        monkeypatch.setattr(Polynomial, "__hash__",
                            lambda p: calls.append(p) or polynomial_hash(p))
        assert hash(rebuilt) == hash(cs) and calls == []

    @pytest.mark.parametrize("alpha, eps", [
        (5.0, float("nan")), (float("inf"), 2.0 ** -20), (float("nan"), 2.0 ** -20),
        (0.0, 2.0 ** -20), (-1.0, 2.0 ** -20), (5.0, 0.0), (5.0, 1.0), (5.0, -0.5),
        (5.0, float("inf"))])
    def test_build_rejects_bad_arguments_before_any_fit(self, monkeypatch, alpha, eps):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before checking the arguments")

        monkeypatch.setattr(approx, "fit_odd_sign_stage", no_fit)
        with pytest.raises(InvalidArgument):
            build_composite_sign(alpha, eps)

    def test_needs_a_stage(self):
        with pytest.raises(InvalidArgument):
            approx.CompositeSign((), 5.0, 2.0 ** -20)

    @pytest.mark.parametrize("alpha, eps", [
        (5.0, float("nan")), (5.0, 7.0), (float("nan"), 0.5), (0.0, 0.5), (True, 0.5),
        (5.0, "0.5")])
    def test_rejects_a_bad_target_before_any_factoring(self, monkeypatch, alpha, eps):
        def no_factoring(*args, **kwargs):
            raise AssertionError("factored before checking the target")

        stages = build_composite_sign().stages
        monkeypatch.setattr(approx._OddStage, "of", no_factoring)
        with pytest.raises(InvalidArgument):
            approx.CompositeSign(stages, alpha, eps)
