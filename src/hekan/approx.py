"""Polynomial approximation toolkit for encrypted activation evaluation.

Covers range estimation from activation samples, weighted/ordinary least
squares and Remez minimax fitting, a depth-minimal homomorphic polynomial
evaluator, and the two comparators used by the encrypted B-spline
machinery: the composite-polynomial sign and the exact step oracle. Each
schedule is one program in the backend's op vocabulary: the backend runs
it on a ciphertext's live window (see eval_poly_he), the mirror on plain
arrays (backend._ArrayOps), so the two agree bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as npcheb
from numpy.polynomial import polynomial as nppoly

from .backend import CipherText, _ArrayOps, _ops_of
from .errors import (
    EmptySamples,
    IllConditioned,
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
    def from_moments(cls, mu: float, sigma: float) -> "WeightScheme":
        """Heavy within three standard deviations of the mean."""
        return cls(mu - 3.0 * sigma, mu + 3.0 * sigma)

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
                       x_max: float = math.inf, factor: float = 5.0) -> ApproxRange:
    """Interval [max(mu - factor*sigma, x_min), min(mu + factor*sigma, x_max)].

    A zero sigma yields the flagged interval mu +- 1e-6 instead of a
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
        return ApproxRange(mu - 1e-6, mu + 1e-6, mu, 0.0, degenerate=True)
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


# The highest degree the fitters accept: 127 costs ceil(log2(128)) = 7
# levels, four times the deepest comparator stage. The least-squares fit
# samples 200 * (degree + 1) points into a samples x (degree + 1) matrix,
# so its memory grows with the square of the degree (about 5 GB at 1000).
MAX_FIT_DEGREE = 127


def _check_fit_degree(degree: int) -> None:
    if not 0 <= degree <= MAX_FIT_DEGREE:
        raise InvalidArgument(
            f"degree must lie in [0, {MAX_FIT_DEGREE}] (MAX_FIT_DEGREE), got {degree}")


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
    coefficients are plain monomials. ``degree`` lies in [0,
    MAX_FIT_DEGREE] (InvalidArgument otherwise, before any sampling).
    """
    _check_fit_degree(degree)
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
                max_iter: int = 80, rel_tol: float = 0.1):
    """Generalized Remez exchange over an arbitrary Chebyshev system.

    basis_eval(x) returns the (len(x), n_basis) design matrix. Convergence:
    the max error on a grid of 8192 points and the levelled reference
    error agree within rel_tol (relative). Returns (basis coefficients, max
    error).
    """
    grid = np.linspace(lo, hi, 8192)
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
            # skew the reference and retry; a reference point rounded just
            # below lo stays at lo
            t = np.maximum((ref - lo) / (hi - lo), 0.0)
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
              max_iter: int = 80, rel_tol: float = 0.1) -> Polynomial:
    """Minimax polynomial fit via Remez exchange on [rng.lo, rng.hi];
    ``degree`` lies in [0, MAX_FIT_DEGREE] (InvalidArgument otherwise)."""
    _check_fit_degree(degree)
    lo, hi = rng.lo, rng.hi

    def basis_eval(x):
        u = (2.0 * x - (lo + hi)) / (hi - lo)
        return npcheb.chebvander(u, degree)

    coeffs, _ = _remez_core(target, lo, hi, basis_eval, degree + 1,
                            max_iter=max_iter, rel_tol=rel_tol)
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


def _estrin(ops, x, coeffs):
    """Balanced power-tree evaluation at x of a Polynomial's coefficients,
    whose last one is nonzero unless it is the only one.

    Consumes exactly ceil(log2(n)) multiplicative levels for n coefficients
    (0 for constants). Reads the coefficients, zero-padded to 2^m, from left
    to right and merges two blocks of 2^j as lo + x^(2^j) * hi as soon as
    both exist: the balanced tree's post-order. A constant block stays a
    float and zero terms are skipped. The schedule is identical between the
    backend and array adapters, so cleartext mirroring is bit-exact.
    """
    n = len(coeffs)
    if n == 1:
        return ops.const(coeffs[0])
    m = max(1, (n - 1).bit_length())
    pows = [x]
    for _ in range(m - 1):
        pows.append(ops.mul(pows[-1], pows[-1]))
    blocks = []  # (j, value): the pending blocks of 2^j coefficients
    for i in range(1 << m):
        j, val = 0, float(coeffs[i]) if i < n else 0.0
        while blocks and blocks[-1][0] == j:
            lo, hi = blocks.pop()[1], val
            if isinstance(hi, float) and hi == 0.0:
                val = lo
            else:
                val = ops.mul(pows[j], hi)
                if not (isinstance(lo, float) and lo == 0.0):
                    val = ops.add(val, lo)
            j += 1
        blocks.append((j, val))
    return blocks[0][1]


def poly_eval_depth(p: Polynomial | int) -> int:
    """Multiplicative levels consumed by eval_poly_he for this polynomial."""
    degree = p if isinstance(p, int) else p.degree
    if degree <= 0:
        return 0
    return math.ceil(math.log2(degree + 1))


def eval_poly_he(a: CipherText, p: Polynomial) -> CipherText:
    """Apply a polynomial slot-wise to a ciphertext, or to an array (the
    mirror, which gets the same bits).

    On a ciphertext the schedule runs as one array program on a's live
    window (HeBackend.run_on_window). It adds and multiplies only values
    derived from a and scalars, so the slots, op counts, level and noise
    draws are those of running it one backend op at a time.
    """
    return _ops_of(a).run_on_window(a, lambda ops: _estrin(ops, ops.x, p.coeffs),
                                    poly_eval_depth(p))


# ---------------------------------------------------------------------------
# comparators
# ---------------------------------------------------------------------------
# A comparator is two things: step(ops, d), its program for the step
# function of d run by ops (see _estrin), and depth(), the levels that
# program consumes. poly_comp runs it, on a ciphertext or, for the mirror,
# on an array. Neither reads d to check it: the range contract (every input
# in [-R, R], see KanModel.check_input_range) keeps each operand in [-1, 1].


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
        return ops.mul(ops.add(self.sign(ops, d), 1.0), 0.5)

    def certified_max_error(self) -> float:
        """Max |composed(y) - 1| over 100000 points of [delta, 1]."""
        y = np.linspace(self.delta, 1.0, 100_000)
        return float(np.max(np.abs(self.sign(_ArrayOps(y), y) - 1.0)))


class ExactComparator:
    """Step-function oracle: its program is the exact step of d as a
    trivial encryption (ops.const), so it consumes no depth and counts no
    operations. Only meaningful on the arithmetic simulator; useful to
    isolate comparator error from the rest of the pipeline."""

    def depth(self) -> int:
        return 0

    def step(self, ops, d):
        return ops.const(step_clear(d))


EXACT_COMPARATOR = ExactComparator()


def step_clear(d: np.ndarray) -> np.ndarray:
    """1 for d > 0, 0 for d < 0, 1/2 at d = 0."""
    d = np.asarray(d)
    return np.where(d > 0, 1.0, np.where(d < 0, 0.0, 0.5))


# Candidate stage-degree plans in the order they are tried: by total depth,
# then by number of stages. Degree 15 costs 4 levels, 31 costs 5.
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
    for degrees in _STAGE_PLANS:
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


def poly_comp(a: CipherText, b, comparator) -> CipherText:
    """Slot-wise step(a - b): ~1 where a > b, ~0 where a < b, 1/2 at ties.

    The one runner of both comparators: comparator.step runs on the
    difference's window (HeBackend.run_on_window) and consumes
    comparator.depth() levels; on an array (the mirror) it runs on the
    array. The caller keeps |a - b| <= 1; in the
    pipeline the range contract does (input and knots in [-R, R], the
    difference scaled by 1/(2R)). The composite comparator is certified
    only for |a - b| >= its delta.
    """
    ops = _ops_of(a)
    d = ops.sub(a, b)
    return ops.run_on_window(d, lambda w: comparator.step(w, w.x), comparator.depth())
