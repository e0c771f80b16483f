"""Polynomial approximation toolkit for encrypted activation evaluation.

Covers range estimation from activation samples, weighted/ordinary least
squares and Remez minimax fitting, a depth-minimal homomorphic polynomial
evaluator, and the two comparators used by the encrypted B-spline
machinery: the composite-polynomial sign and the exact step oracle. Each
schedule is one program over an ``ops`` adapter: the backend runs it on a
ciphertext's live window (see eval_poly_he), the mirror on plain arrays
(_ArrayOps), so the two agree bit for bit.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as npcheb
from numpy.polynomial import polynomial as nppoly

from .backend import CipherText
from .errors import (
    EmptySamples,
    IllConditioned,
    InputOutOfRange,
    InvalidArgument,
    RemezNonConvergence,
)

# ---------------------------------------------------------------------------
# core types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial stored as ascending coefficients.

    Trailing zero coefficients are trimmed so `degree` is the true degree
    (the zero polynomial keeps a single zero coefficient).
    """

    coeffs: tuple

    def __post_init__(self):
        c = tuple(float(v) for v in self.coeffs)
        n = len(c)
        while n > 1 and c[n - 1] == 0.0:
            n -= 1
        object.__setattr__(self, "coeffs", c[:n] if n > 0 else (0.0,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        return nppoly.polyval(x, self.coeffs)

    def to_json(self) -> list:
        return list(self.coeffs)

    @classmethod
    def from_json(cls, doc) -> "Polynomial":
        return cls(tuple(doc))


@dataclass(frozen=True)
class ApproxRange:
    """Fitting interval plus the sample moments it was derived from."""

    lo: float
    hi: float
    mu: float
    sigma: float
    degenerate: bool = False


@dataclass(frozen=True)
class WeightScheme:
    """Piecewise-constant sample weights: heavy inside [inner_lo, inner_hi]."""

    inner_lo: float
    inner_hi: float
    inner_weight: float = 10.0
    outer_weight: float = 1.0

    def __post_init__(self):
        if not self.inner_weight >= self.outer_weight > 0:
            raise ValueError("need inner_weight >= outer_weight > 0")

    @classmethod
    def from_moments(cls, mu: float, sigma: float, width: float = 3.0,
                     inner_weight: float = 10.0, outer_weight: float = 1.0) -> "WeightScheme":
        return cls(mu - width * sigma, mu + width * sigma, inner_weight, outer_weight)

    def weights(self, x: np.ndarray) -> np.ndarray:
        inside = (x >= self.inner_lo) & (x <= self.inner_hi)
        return np.where(inside, self.inner_weight, self.outer_weight)


# Per-dataset activation fitting presets (range endpoints and degree).
ACTIVATION_PRESETS = {
    "mnist": {"range": (-12.4, 14.74), "degree": 10},
    "fmnist": {"range": (-9.77, 11.01), "degree": 10},
    "cifar10": {"range": (-11.90, 10.99), "degree": 15},
}


# ---------------------------------------------------------------------------
# range estimation
# ---------------------------------------------------------------------------


def range_from_moments(mu: float, sigma: float, x_min: float = -math.inf,
                       x_max: float = math.inf, factor: float = 5.0,
                       degenerate_halfwidth: float = 1e-6) -> ApproxRange:
    """Interval [max(mu - factor*sigma, x_min), min(mu + factor*sigma, x_max)].

    A zero sigma yields a tiny flagged interval around mu instead of a
    zero-width range. Non-finite moments or factor, a negative sigma, a
    factor <= 0, a NaN bound, and an interval that is empty or unbounded
    after the clipping raise InvalidArgument.
    """
    if not (math.isfinite(mu) and math.isfinite(sigma) and math.isfinite(factor)):
        raise InvalidArgument(f"mu {mu}, sigma {sigma} and factor {factor} must be finite")
    if sigma < 0 or factor <= 0:
        raise InvalidArgument(f"need sigma >= 0 and factor > 0, got {sigma} and {factor}")
    if not x_min <= x_max:  # NaN included
        raise InvalidArgument(f"x_min {x_min} > x_max {x_max}")
    if sigma == 0.0:
        return ApproxRange(mu - degenerate_halfwidth, mu + degenerate_halfwidth,
                           mu, 0.0, degenerate=True)
    lo = max(mu - factor * sigma, x_min)
    hi = min(mu + factor * sigma, x_max)
    if not -math.inf < lo < hi < math.inf:
        raise InvalidArgument(f"[mu - factor*sigma, mu + factor*sigma] clipped to "
                              f"[{x_min}, {x_max}] is [{lo}, {hi}]: empty or unbounded")
    return ApproxRange(lo, hi, mu, sigma)


def estimate_range(samples, x_min: float = -math.inf, x_max: float = math.inf,
                   factor: float = 5.0) -> ApproxRange:
    """Estimate the fitting interval from observed activation inputs."""
    arr = np.asarray(samples, dtype=float).ravel()
    if arr.size == 0:
        raise EmptySamples("estimate_range needs at least one sample")
    mu = float(np.mean(arr))
    sigma = float(np.std(arr))
    return range_from_moments(mu, sigma, x_min, x_max, factor)


# ---------------------------------------------------------------------------
# least-squares fitters
# ---------------------------------------------------------------------------


def _sample_grid(rng: ApproxRange, degree: int, n_samples: int | None) -> np.ndarray:
    if n_samples is None:
        n_samples = 200 * (degree + 1)
    if n_samples <= degree:
        raise ValueError(f"n_samples {n_samples} must exceed degree {degree}")
    if not rng.lo < rng.hi:
        raise IllConditioned(f"degenerate fitting interval [{rng.lo}, {rng.hi}]")
    return np.linspace(rng.lo, rng.hi, n_samples)


def fit_weighted_ls(target, rng: ApproxRange, degree: int,
                    w: WeightScheme | None = None,
                    n_samples: int | None = None) -> Polynomial:
    """Weighted least-squares polynomial fit on a uniform grid over `rng`.

    Minimizes sum_i w_i (target(x_i) - p(x_i))^2. The solve runs in a
    Chebyshev basis on the fitting interval for conditioning; the returned
    coefficients are plain monomials.
    """
    if degree < 0:
        raise InvalidArgument(f"degree must be >= 0, got {degree}")
    x = _sample_grid(rng, degree, n_samples)
    y = np.asarray(target(x), dtype=float)
    weights = w.weights(x) if w is not None else np.ones_like(x)
    try:
        series, diag = npcheb.Chebyshev.fit(
            x, y, degree, domain=[rng.lo, rng.hi], w=np.sqrt(weights), full=True)
    except np.linalg.LinAlgError as exc:
        raise IllConditioned(str(exc)) from exc
    rank = diag[1]
    if rank < degree + 1:
        raise IllConditioned(
            f"rank {rank} < {degree + 1}: degree too high for the sample grid/range")
    mono = series.convert(kind=nppoly.Polynomial)
    return Polynomial(tuple(mono.coef))


def fit_ols(target, rng: ApproxRange, degree: int,
            n_samples: int | None = None) -> Polynomial:
    """Unweighted least squares (all sample weights 1)."""
    return fit_weighted_ls(target, rng, degree, w=None, n_samples=n_samples)


# ---------------------------------------------------------------------------
# Remez exchange
# ---------------------------------------------------------------------------


def _alternating_reference(x: np.ndarray, err: np.ndarray, m: int) -> np.ndarray | None:
    """Pick m alternating-sign extrema of `err` from a dense grid.

    One candidate per constant-sign run (its magnitude peak); consecutive
    runs alternate by construction. Of the windows of m consecutive
    candidates containing the global peak, keep the one with the largest
    smallest magnitude.
    """
    mag = np.abs(err)
    sign = np.where(err >= 0, 1.0, -1.0)
    change = np.nonzero(sign[1:] != sign[:-1])[0] + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [len(x)]))
    cand = np.array([s + np.argmax(mag[s:e]) for s, e in zip(starts, ends)])
    if len(cand) < m:
        return None
    peak = int(np.argmax(mag[cand]))
    best, best_floor = None, -1.0
    for i in range(max(0, peak - m + 1), min(peak, len(cand) - m) + 1):
        floor = float(np.min(mag[cand[i:i + m]]))
        if floor > best_floor:
            best, best_floor = i, floor
    return x[cand[best:best + m]]


def _remez_core(f, lo: float, hi: float, basis_eval, n_basis: int,
                grid_size: int = 8192, max_iter: int = 80,
                rel_tol: float = 0.1):
    """Generalized Remez exchange over an arbitrary Chebyshev system.

    basis_eval(x) returns the (len(x), n_basis) design matrix. Convergence:
    the dense-grid max error and the levelled reference error agree within
    rel_tol (relative). Returns (basis coefficients, max error).
    """
    grid = np.linspace(lo, hi, grid_size)
    fgrid = np.asarray(f(grid), dtype=float)
    bgrid = basis_eval(grid)
    m = n_basis + 1
    # Chebyshev-node initial reference
    j = np.arange(m)
    ref = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(math.pi * j / (m - 1))
    ref = np.sort(ref)

    fscale = 1.0 + float(np.max(np.abs(fgrid)))
    for _ in range(max_iter):
        a = np.empty((m, m))
        a[:, :n_basis] = basis_eval(ref)
        a[:, n_basis] = (-1.0) ** np.arange(m)
        rhs = np.asarray(f(ref), dtype=float)
        try:
            sol = np.linalg.solve(a, rhs)
        except np.linalg.LinAlgError as exc:
            raise RemezNonConvergence(f"singular reference system: {exc}") from exc
        coeffs, lev = sol[:n_basis], abs(sol[n_basis])
        if lev < 1e-14 * fscale:
            # degenerate levelling (e.g. symmetric nodes on an even target):
            # skew the reference and retry
            t = (ref - lo) / (hi - lo)
            ref = lo + (hi - lo) * t ** 1.1
            continue
        err = fgrid - bgrid @ coeffs
        max_err = float(np.max(np.abs(err)))
        if max_err <= lev * (1.0 + rel_tol) or max_err == 0.0:
            return coeffs, max_err
        new_ref = _alternating_reference(grid, err, m)
        if new_ref is None:
            raise RemezNonConvergence("could not extract an alternating reference")
        ref = new_ref
    raise RemezNonConvergence(f"no equioscillation after {max_iter} iterations")


def fit_remez(target, rng: ApproxRange, degree: int,
              grid_size: int = 8192, max_iter: int = 80,
              rel_tol: float = 0.1) -> Polynomial:
    """Minimax polynomial fit via Remez exchange on [rng.lo, rng.hi]."""
    if degree < 0:
        raise InvalidArgument(f"degree must be >= 0, got {degree}")
    lo, hi = rng.lo, rng.hi

    def basis_eval(x):
        u = (2.0 * x - (lo + hi)) / (hi - lo)
        return npcheb.chebvander(u, degree)

    coeffs, _ = _remez_core(target, lo, hi, basis_eval, degree + 1,
                            grid_size=grid_size, max_iter=max_iter, rel_tol=rel_tol)
    series = npcheb.Chebyshev(coeffs, domain=[lo, hi])
    mono = series.convert(kind=nppoly.Polynomial)
    return Polynomial(tuple(mono.coef))


def fit_odd_sign_stage(lo: float, hi: float, degree: int,
                       rel_tol: float = 1e-3):
    """Best odd polynomial approximation of +1 on [lo, hi] (hence of the
    sign function on [-hi, -lo] by symmetry). Returns (Polynomial, max_err)."""
    if degree < 1 or degree % 2 == 0:
        raise ValueError("sign stages need odd degree >= 1")
    n_basis = (degree + 1) // 2

    def basis_eval(x):
        # odd Chebyshev polynomials in x/hi: odd in x, bounded on the domain
        return npcheb.chebvander(x / hi, degree)[:, 1::2]

    coeffs, max_err = _remez_core(lambda x: np.ones_like(x), lo, hi,
                                  basis_eval, n_basis, rel_tol=rel_tol)
    cvec = np.zeros(degree + 1)
    cvec[1::2] = coeffs
    series = npcheb.Chebyshev(cvec, domain=[-hi, hi])
    mono = np.asarray(series.convert(kind=nppoly.Polynomial).coef)
    mono = np.resize(mono, degree + 1)
    mono[0::2] = 0.0  # exact oddness; conversion dust would break antisymmetry
    return Polynomial(tuple(mono)), max_err


# ---------------------------------------------------------------------------
# depth-minimal polynomial evaluation (balanced power tree)
# ---------------------------------------------------------------------------


class _ArrayOps:
    """The mirror's ops adapter: every schedule run on plain numpy arrays.
    The encrypted stages pass the backend (add, sub, mul, rotate,
    run_block_sum) or its window adapter (HeBackend.run_on_window)."""

    mul = mul_const = staticmethod(operator.mul)
    add = add_const = staticmethod(operator.add)
    sub = staticmethod(operator.sub)

    def __init__(self, x: np.ndarray):
        self.x = x

    def const(self, c):
        """c, a scalar or one value per element of x, as an array of x's
        shape: the twin of the backend's trivial encryption."""
        return np.full_like(self.x, c)

    @staticmethod
    def rotate(a, t):
        return np.roll(a, -t)

    @staticmethod
    def run_block_sum(v, schedule):
        """The block sum on v zero-padded to the period n and duplicated,
        as the encrypted wraparound duplication reads it."""
        n = schedule.shape[1]
        x = np.zeros(2 * n)
        x[: v.size] = v
        x[n:] = x[:n]
        return schedule.block_sum(x, n)


def _estrin(ops, x, coeffs):
    """Balanced power-tree evaluation at x of a Polynomial's coefficients,
    whose last one is nonzero unless it is the only one.

    Consumes exactly ceil(log2(n)) multiplicative levels for n coefficients
    (0 for constants); the schedule is identical between the backend and
    array adapters so cleartext mirroring is bit-exact.
    """
    n = len(coeffs)
    if n == 1:
        return ops.const(coeffs[0])
    m = max(1, (n - 1).bit_length())
    padded = np.zeros(1 << m)
    padded[:n] = coeffs

    pows = [x]
    for _ in range(m - 1):
        pows.append(ops.mul(pows[-1], pows[-1]))

    return _estrin_block(ops, padded, pows, 0, 1 << m)


def _estrin_block(ops, padded: np.ndarray, pows: list, lo: int, size: int):
    """Coefficients lo .. lo+size-1 of the power tree; a float when the
    block is constant. Module-level rather than a recursive closure, whose
    reference cycle would keep every power alive until the next garbage
    collection."""
    if size == 1:
        return float(padded[lo])
    half = size // 2
    lo_val = _estrin_block(ops, padded, pows, lo, half)
    hi_val = _estrin_block(ops, padded, pows, lo + half, half)
    xpow = pows[half.bit_length() - 1]
    if isinstance(hi_val, float):
        term = None if hi_val == 0.0 else ops.mul_const(xpow, hi_val)
    else:
        term = ops.mul(xpow, hi_val)
    if term is None:
        return lo_val
    if isinstance(lo_val, float):
        return term if lo_val == 0.0 else ops.add_const(term, lo_val)
    return ops.add(term, lo_val)


def poly_eval_depth(p: Polynomial | int) -> int:
    """Multiplicative levels consumed by eval_poly_he for this polynomial."""
    degree = p if isinstance(p, int) else p.degree
    if degree <= 0:
        return 0
    return math.ceil(math.log2(degree + 1))


def eval_poly_he(a: CipherText, p: Polynomial) -> CipherText:
    """Apply a polynomial slot-wise under the backend's arithmetic.

    The schedule runs as one array program on a's live window
    (HeBackend.run_on_window). It adds and multiplies only values derived
    from a and scalars, so the slots, op counts, level and noise draws are
    those of running it one backend op at a time.
    """
    return a.backend.run_on_window(a, lambda ops: _estrin(ops, ops.x, p.coeffs),
                                   poly_eval_depth(p))


def eval_poly_clear(p: Polynomial, x: np.ndarray) -> np.ndarray:
    """Cleartext twin of eval_poly_he: same schedule, same rounding."""
    x = np.asarray(x, dtype=float)
    return _estrin(_ArrayOps(x), x, p.coeffs)


# ---------------------------------------------------------------------------
# comparators
# ---------------------------------------------------------------------------
# A comparator is three things: step(ops, d), its program for the step
# function of d run by ops (see _estrin); depth(), the levels that program
# consumes; and delta, the distance from zero beyond which it is certified.
# poly_comp runs it on a ciphertext, the mirror on arrays (_ArrayOps).


@dataclass(frozen=True)
class CompositeSign:
    """Composition of odd minimax polynomials approximating sign on
    +-[delta, 1], with |composed(x) - sign(x)| <= target_eps certified for
    |x| in [delta, 1]."""

    stages: tuple
    precision_alpha: float
    target_eps: float

    @property
    def delta(self) -> float:
        return 2.0 ** (-self.precision_alpha)

    def depth(self) -> int:
        """Levels consumed by poly_comp: the stages plus the (s+1)/2 map."""
        return sum(poly_eval_depth(s) for s in self.stages) + 1

    def sign(self, ops, s):
        """The composed sign stages on s, run by ops (see _estrin)."""
        for stage in self.stages:
            s = _estrin(ops, s, stage.coeffs)
        return s

    def step(self, ops, d):
        """The comparator's program: the sign stages, then (s + 1)/2."""
        return ops.mul_const(ops.add_const(self.sign(ops, d), 1.0), 0.5)

    def certified_max_error(self, grid_size: int = 100_000) -> float:
        y = np.linspace(self.delta, 1.0, grid_size)
        return float(np.max(np.abs(self.sign(_ArrayOps(y), y) - 1.0)))


class ExactComparator:
    """Step-function oracle: its program is the exact step of d as a
    trivial encryption (ops.const), so it consumes no depth and counts no
    operations. Only meaningful on the arithmetic simulator; useful to
    isolate comparator error from the rest of the pipeline. Exact at any
    distance from zero, hence delta = 0."""

    delta = 0.0

    def depth(self) -> int:
        return 0

    def step(self, ops, d):
        return ops.const(step_clear(d))


EXACT_COMPARATOR = ExactComparator()


def step_clear(d: np.ndarray) -> np.ndarray:
    """1 for d > 0, 0 for d < 0, 1/2 at d = 0."""
    d = np.asarray(d)
    return np.where(d > 0, 1.0, np.where(d < 0, 0.0, 0.5))


# Candidate stage-degree plans, cheapest total depth first. Degree 15 costs
# 4 levels, 31 costs 5.
_STAGE_PLANS = (
    (15, 15),
    (31, 15),
    (15, 31),
    (31, 31),
    (15, 15, 15),
    (31, 15, 15),
    (31, 31, 15),
    (31, 31, 31),
)


def _plan_depth(degrees) -> int:
    return sum(poly_eval_depth(d) for d in degrees)


# The default comparator: certified to 2^-20 for inputs at least 2^-5 from
# zero, in stages [31, 31] (depth 11). In a B-spline basis the far-field
# residual is what the Cox-de Boor factors amplify, while a blurred step
# near a knot barely moves a continuous basis, so the default buys
# flatness (eps) rather than sharpness (alpha). PipelineConfig reads these.
DEFAULT_ALPHA = 5.0
DEFAULT_TARGET_EPS = 2.0 ** -20


@functools.lru_cache(maxsize=None)
def build_composite_sign(alpha: float = DEFAULT_ALPHA,
                         target_eps: float = DEFAULT_TARGET_EPS) -> CompositeSign:
    """Fit comparator stages with the library's own minimax fitter.

    Tries stage-degree plans in order of increasing depth and returns the
    first whose composed error certifies below target_eps on a dense grid.
    alpha must be positive: at delta = 2^-alpha >= 1 the certified interval
    [delta, 1] is empty.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    delta = 2.0 ** (-alpha)
    for degrees in sorted(_STAGE_PLANS, key=lambda d: (_plan_depth(d), len(d))):
        stages = []
        lo, hi = delta, 1.0
        feasible = True
        for deg in degrees:
            try:
                stage, err = fit_odd_sign_stage(lo, hi, deg)
            except RemezNonConvergence:
                feasible = False
                break
            if err >= 0.9:  # next stage's domain would touch zero
                feasible = False
                break
            stages.append(stage)
            lo, hi = 1.0 - err, 1.0 + err
        if not feasible:
            continue
        cs = CompositeSign(tuple(stages), float(alpha), float(target_eps))
        if cs.certified_max_error() <= target_eps:
            return cs
    raise RemezNonConvergence(
        f"no stage plan certified eps <= {target_eps} for alpha = {alpha}")


def poly_comp(a: CipherText, b, comparator,
              check_range: bool = False) -> CipherText:
    """Slot-wise step(a - b): ~1 where a > b, ~0 where a < b, 1/2 at ties.

    The one encrypted runner of both comparators: comparator.step runs on
    the difference's window (HeBackend.run_on_window) and consumes
    comparator.depth() levels. Caller guarantees a - b lies in [-1, 1];
    accuracy is certified only for |a - b| >= comparator.delta. With
    check_range, a difference outside [-1, 1] raises InputOutOfRange.
    """
    be = a.backend
    d = be.sub(a, b)
    if check_range and np.max(np.abs(d.slots)) > 1.0 + 1e-12:
        raise InputOutOfRange(
            f"comparator operand out of [-1, 1]: max |d| = {np.max(np.abs(d.slots))}")
    return be.run_on_window(d, lambda ops: comparator.step(ops, ops.x), comparator.depth())
