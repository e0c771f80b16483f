"""Polynomial approximation toolkit for encrypted activation evaluation.

Covers range estimation from activation samples, weighted/ordinary least
squares and Remez minimax fitting, a depth-minimal homomorphic polynomial
evaluator (the balanced power tree, and Knuth's monic sextic form, which
the layer's SiLU takes when it certifies), and the two comparators used by the encrypted B-spline
machinery: the composite-polynomial sign (one scalar multiply per call on
a raw difference, none on one folded into its first stage's unit; its
later stages monic) and the exact step oracle. Each schedule is one
program in the backend's op vocabulary: the backend runs it on a
ciphertext's live window (see eval_poly_he), the mirror on plain arrays
(backend._ArrayOps), so the two agree bit for bit.
"""

from __future__ import annotations

import functools
import math
import numbers
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
            raise InvalidArgument("need inner_weight >= outer_weight > 0")

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
        raise InvalidArgument(f"n_samples {n_samples} must exceed degree {degree}")
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


# A fitted coefficient whose largest term on the fit range,
# |c_j| * max(|lo|, |hi|)^j, is below this fraction of the fit's largest
# |value| there is roundoff of the Chebyshev-to-monomial conversion: a
# SiLU fit on a symmetric range leaves its odd terms past x near
# 35 * eps, while a real term is at least 1e12 * eps.
ROUNDOFF_COEFF = 1e-12


def drop_roundoff(p: Polynomial, rng: ApproxRange) -> Polynomial:
    """p with the coefficients that are roundoff on rng zeroed
    (ROUNDOFF_COEFF), so the evaluation skips them and the degree may drop."""
    c = np.asarray(p.coeffs)
    peak = float(np.max(np.abs(p(_sample_grid(rng, p.degree, None)))))
    terms = np.abs(c) * max(abs(rng.lo), abs(rng.hi)) ** np.arange(c.size)
    return Polynomial(tuple(np.where(terms < ROUNDOFF_COEFF * peak, 0.0, c)))


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
        raise InvalidArgument(f"sign stages need odd degree >= 1, got {degree}")
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
    backend and array adapters, so cleartext mirroring is bit-exact. The
    comparator's odd sign stages do not run here: they run in product form
    (_OddStage), which costs fewer multiplies.
    """
    n = len(coeffs)
    if n == 1:
        return ops.const(coeffs[0])
    m = max(1, (n - 1).bit_length())
    pows = [x]
    for _ in range(m - 1):
        pows.append(ops.mul(pows[-1], pows[-1]))

    def merge(lo, power, hi):  # lo + power * hi, zero terms skipped
        if isinstance(hi, float) and hi == 0.0:
            return lo
        val = ops.mul(power, hi)
        return val if isinstance(lo, float) and lo == 0.0 else ops.add(val, lo)

    blocks = []  # (j, value): the pending blocks of 2^j coefficients
    for i in range(1 << m):
        j, val = 0, float(coeffs[i]) if i < n else 0.0
        while blocks and blocks[-1][0] == j:
            val = merge(blocks.pop()[1], pows[j], val)
            j += 1
        blocks.append((j, val))
    return blocks[0][1]


def poly_eval_depth(p: Polynomial | int) -> int:
    """Multiplicative levels consumed by eval_poly_he for this polynomial."""
    degree = p if isinstance(p, int) else p.degree
    if degree <= 0:
        return 0
    return math.ceil(math.log2(degree + 1))


def eval_poly_he(a: CipherText, p) -> CipherText:
    """Apply a polynomial slot-wise to a ciphertext, or to an array (the
    mirror, which gets the same bits).

    A ``Polynomial`` runs as the balanced power tree (_estrin), whatever
    the domain of a; a ``MonicSextic`` runs in Knuth's form and returns its
    monic part u, 3 ct mults, no pt mult, 7 adds and 3 levels, its ``lead``
    left to the caller. On a ciphertext the schedule runs as one array
    program on a's live window (HeBackend.run_on_window). It adds and
    multiplies only values derived from a and scalars, so the slots, op
    counts, level and noise draws are those of running it one backend op
    at a time.
    """
    if isinstance(p, MonicSextic):
        return _ops_of(a).run_on_window(lambda ops, x: p.steps(ops, x)[-1], a)
    return _ops_of(a).run_on_window(lambda ops, x: _estrin(ops, x, p.coeffs), a)


# A MonicSextic certifies when it reproduces its polynomial p within this
# fraction of max(1, max |p|) at every point of its grid.
SEXTIC_TOL = 1e-12


def _knuth_sextic(u) -> list:
    """The parameters (a0, ..., a5) of Knuth's form of the monic sextic
    with coefficients u0 ... u5 (and u6 = 1), one tuple per root a0 of the
    cubic the form leaves (TAOCP vol. 2, 4.6.4). Writing z = x^2 + a0 x +
    a1, w = x^3 + b2 x^2 + b1 x + b0 and s = z + w + a4 = x^3 + (b2 + 1)
    x^2 + (b1 + a0) x + s0, the coefficients of s w + a5 fix b2 from u5
    and b1 from u4 given a0, then b0 and s0 from u3 and u2 (a linear
    system of determinant -1), and u1 leaves a cubic in a0 with leading
    coefficient 1/4, so one of its roots is real. A complex root's real
    part gives parameters too, which the certificate then rejects."""
    a0 = nppoly.Polynomial([0.0, 1.0])
    b2 = (u[5] - 1) / 2
    b1 = (u[4] - b2 * (b2 + 1) - a0) / 2
    r3 = u[3] - (2 * b2 + 1) * b1 - b2 * a0  # = 2 b0 + (s0 - b0)
    r2 = u[2] - (b1 + a0) * b1  # = (2 b2 + 1) b0 + b2 (s0 - b0)
    b0 = r2 - b2 * r3
    s0 = (b2 + 1) * r3 - r2
    cubic = s0 * b1 + (b1 + a0) * b0 - u[1]
    out = []
    for root in cubic.roots() if np.isfinite(cubic.coef).all() else ():
        x = float(root.real)
        B1, B0, S0 = float(b1(x)), float(b0(x)), float(s0(x))
        a2 = b2 - x
        a1 = B1 - x * a2
        out.append((x, a1, a2, B0 - a1 * a2, S0 - B0 - a1, u[0] - S0 * B0))
    return out


@dataclass(frozen=True)
class MonicSextic:
    """A degree-6 polynomial p = lead u, u monic, with u in Knuth's form
    (TAOCP vol. 2, 4.6.4):

        z = (x + a0) x + a1,  w = (x + a2) z + a3,  u = (z + w + a4) w + a5.

    ``steps`` runs it: 3 ct mults, no pt mult, 7 adds and 3 levels, where
    the power tree spends 3 ct mults, 3 pt mults and 4 adds at the same
    depth on a packed SiLU (no x^3 or x^5 term), so both draw 10 noise
    rows. It computes u alone: the caller
    carries ``lead`` (the layer multiplies it into W_b, ``KanLayer.w_base``).
    InvalidArgument unless lead and the a are finite."""

    lead: float
    a: tuple  # (a0, ..., a5)

    def __post_init__(self):
        if len(self.a) != 6 or not np.isfinite((self.lead, *self.a)).all():
            raise InvalidArgument(f"a monic sextic needs a finite lead and six finite "
                                  f"parameters, got {self.lead} and {self.a}")

    @classmethod
    def certified(cls, p: Polynomial, lo: float, hi: float) -> "MonicSextic | None":
        """p in this form, certified on [lo, hi], or None (p then keeps the
        power tree): None unless p has degree 6 and finite coefficients.
        Of the parameters of each
        root of Knuth's cubic (``_knuth_sextic``) that reproduce p within
        SEXTIC_TOL (max |lead u - p| over 4097 points of [lo, hi], u as
        ``steps`` computes it), the one whose intermediates z, w and z + w
        + a4 are smallest there, so that the certificate checks the
        program that runs. The form can be badly conditioned, and then
        none certifies: x^6 + 10 x^5 errs by 1e-10 or more on [-1/2, 1/2]
        at every root."""
        if p.degree != 6 or not np.isfinite(p.coeffs).all():
            return None
        lead, best, least = p.coeffs[-1], None, math.inf
        y = np.linspace(lo, hi, 4097)
        # overflow on the way gives non-finite parameters or values, which
        # fail the finite check or the certificate
        with np.errstate(all="ignore"):
            exact = p(y)
            tol = SEXTIC_TOL * max(1.0, float(np.max(np.abs(exact))))
            for a in _knuth_sextic(np.divide(p.coeffs, lead).tolist()):
                if not np.isfinite(a).all():
                    continue
                form = cls(lead, a)
                *inner, out = form.steps(_ArrayOps(y), y)
                size = max(float(np.max(np.abs(v))) for v in inner)
                if np.max(np.abs(lead * out - exact)) <= tol < math.inf and size < least:
                    best, least = form, size
        return best

    def steps(self, ops, x) -> tuple:
        """The form's program on x, run by ops: (z, w, z + w + a4, u)."""
        a0, a1, a2, a3, a4, a5 = self.a
        z = ops.add(ops.mul(ops.add(x, a0), x), a1)
        w = ops.add(ops.mul(ops.add(x, a2), z), a3)
        s = ops.add(ops.add(z, w), a4)
        return z, w, s, ops.add(ops.mul(s, w), a5)


# ---------------------------------------------------------------------------
# comparators
# ---------------------------------------------------------------------------
# A comparator is two things: step(ops, d), its program for the step
# function of d run by ops (see _estrin), and depth(), the levels that
# program consumes. poly_comp runs it, on a ciphertext or, for the mirror,
# on an array. Neither reads d to check it: the range contract (every input
# in [-R, R], see KanModel.check_input_range) keeps each operand in [-1, 1].


def _quartic(f, g):
    """(k0, k1, k2, k3) with u = (y + k0) y + k1 and (u + y + k2) u + k3
    equal to the product of the quadratics f = (a1, b1) and g = (a2, b2),
    each (y + a_i)^2 + b_i: Knuth's form of a monic quartic (TAOCP vol. 2,
    4.6.4, eq. (9)), two ct mults and no pt mult, read off the product's
    coefficients e3 ... e0. The k are real whatever the roots."""
    (a1, b1), (a2, b2) = f, g
    s1, s2 = a1 * a1 + b1, a2 * a2 + b2
    e3, e2, e1, e0 = 2 * (a1 + a2), s1 + s2 + 4 * a1 * a2, 2 * (a1 * s2 + a2 * s1), s1 * s2
    k0 = (e3 - 1) / 2
    beta = e2 - k0 * (k0 + 1)
    k1 = e1 - k0 * beta
    k2 = beta - 2 * k1
    return k0, k1, k2, e0 - k1 * (k1 + k2)


@dataclass(frozen=True)
class _OddStage:
    """An odd sign stage p(x) = c x Q(x^2), scaled by ``out``, in product
    form with preconditioned coefficients (Knuth, TAOCP vol. 2, 4.6.4). It
    runs on its input in the unit nu, z = nu x, and computes

        out p(z / nu) = c' z (w - root) ((w + a)^2 + b) prod_i K_i(w),  w = z^2,

    c' = out c / nu^deg(p): the factors in w are those of Q(w / nu^2) made
    monic, the linear one present when deg Q is odd, at most one
    quadratic, and one quartic K_i in Knuth's form (``_quartic``) per two
    more quadratic factors of Q. A ``monic`` stage takes for nu the real
    deg(p)-th root of out c, so c' = 1 and z is its own factor, at level 0;
    any other takes nu = 1 and spends one pt mult on c' z.

    ``run`` then spends one ct mult on w, one per quadratic and two per
    quartic, and multiplies the two shallowest factors until one is left.
    At every odd degree from 1 to 63 that consumes poly_eval_depth(p)
    levels (``depth``; a monic stage's is poly_eval_depth(deg p - 1), the
    same above degree 1, where the stage is z itself) and the power tree's
    adds (_estrin) plus one per quartic. A degree-7 stage costs 4 ct mults,
    degree 15 costs 7 and degree 31 costs 13, where the power tree spends 5
    ct and 4 pt mults, 10 and 8, 19 and 16. Above degree 37 the product
    form costs 1 to 3 ct mults more than a power tree that forms its odd
    blocks of four as c x + c' x^3 from one x^3 = x x^2 (13 ct mults at
    degree 31); no plan in _STAGE_PLANS goes above 31.
    """

    c: float | None  # z's scalar multiply; None when monic
    nu: float  # the input's unit: the stage runs on z = nu x
    depth: int  # levels run consumes
    root: float | None  # the linear factor w - root
    quadratic: tuple | None  # (a, b)
    quartics: tuple  # Knuth's (k0, k1, k2, k3) each

    @classmethod
    def of(cls, p: Polynomial, out: float = 1.0, monic: bool = False) -> "_OddStage":
        """Factor out * p from the roots of Q (np.roots), each scaled by
        nu^2 (see the class docstring). Conjugate pairs give quadratics,
        and so do the real roots left after the linear factor takes the
        largest, paired in order. The quadratics are sorted by the product
        of their two roots, a^2 + b; the smallest is the lone quadratic
        when their count is odd, and the rest pair smallest with largest
        into quartics: on a noisy backend at sigma = 1e-8 criterion 4's
        comparator (two degree-31 stages) then stays within 7.4e-3 of its
        noiseless output, where pairing neighbours gives 2.8.
        InvalidArgument unless p is odd with finite coefficients."""
        if p.degree % 2 == 0 or any(p.coeffs[0::2]) or not np.isfinite(p.coeffs).all():
            raise InvalidArgument(f"a sign stage is an odd polynomial with finite "
                                  f"coefficients, got {p.coeffs}")
        q = np.asarray(p.coeffs[1::2])
        lead = out * float(q[-1])
        nu = math.copysign(abs(lead) ** (1.0 / p.degree), lead) if monic else 1.0
        roots = np.roots(q[::-1]) * (nu * nu)
        real = sorted(float(z.real) for z in roots if z.imag == 0)
        root = real.pop() if q.size % 2 == 0 else None
        quads = [(float(-z.real), float(z.imag) ** 2) for z in roots if z.imag > 0]
        quads += [(-(u + v) / 2, -((u - v) / 2) ** 2) for u, v in zip(real[0::2], real[1::2])]
        quads.sort(key=lambda f: f[0] * f[0] + f[1])
        quadratic = quads.pop(0) if len(quads) % 2 else None
        half = len(quads) // 2
        quartics = tuple(map(_quartic, quads[:half], reversed(quads[half:])))
        depth = poly_eval_depth(p.degree - 1 if monic else p.degree)
        return cls(None if monic else lead, nu, depth, root, quadratic, quartics)

    def run(self, ops, z):
        """The stage on z, run by ops (see the class docstring)."""
        factors = [(0, z) if self.c is None else (1, ops.mul(z, self.c))]  # (levels, value)
        if self.root is None and self.quadratic is None and not self.quartics:
            return factors[0][1]
        w = ops.mul(z, z)

        def quadratic(a, b):  # (w + a)^2 + b
            t = ops.add(w, a)
            return ops.add(ops.mul(t, t), b)

        if self.root is not None:
            factors.append((1, ops.add(w, -self.root)))
        if self.quadratic is not None:
            factors.append((2, quadratic(*self.quadratic)))
        for k0, k1, k2, k3 in self.quartics:
            u = ops.add(ops.mul(ops.add(w, k0), w), k1)
            factors.append((3, ops.add(ops.mul(ops.add(ops.add(u, w), k2), u), k3)))
        while len(factors) > 1:
            factors.sort(key=lambda f: f[0])
            (i, u), (j, v), *factors = factors
            factors.append((max(i, j) + 1, ops.mul(u, v)))
        return factors[0][1]


@dataclass(frozen=True)
class CompositeSign:
    """Composition of odd minimax polynomials approximating sign on
    +-[delta, 1], with |composed(x) - sign(x)| <= target_eps certified for
    |x| in [delta, 1]. Its target is checked as build_composite_sign's
    (``_check_target``), before any factoring.

    ``unit`` is the first stage's own input unit nu_1, the real deg-th
    root of its leading constant (times the later stages' units): a
    difference that arrives already times nu_1 (``folded``) runs the first
    stage monic too, with no pt mult. -1.7204 for the default comparator,
    1.9288 for criterion 4's (7, 2^-10)."""

    stages: tuple
    precision_alpha: float
    target_eps: float

    def __post_init__(self):
        _check_target(self.precision_alpha, self.target_eps)
        if not self.stages:
            raise InvalidArgument("a composite sign needs at least one stage")
        # Each stage factored once, from the last: each returns its output
        # in the unit nu its successor reads (1/2 after the last stage, for
        # step), and every stage after the first is monic in its own input's
        # unit, so the first stage's scalar carries every leading constant.
        # The first stage is factored twice: with that scalar, for a raw
        # difference, and monic in its own unit, for a folded one. step and
        # certified_max_error both run these factors, so the certificate
        # checks the programs that run and a badly conditioned factoring
        # fails it instead of running.
        later, out = [], 0.5
        for stage in reversed(self.stages[1:]):
            later.insert(0, _OddStage.of(stage, out, monic=True))
            out = later[0].nu
        programs = tuple((_OddStage.of(self.stages[0], out, monic), *later)
                         for monic in (False, True))
        object.__setattr__(self, "_programs", programs)

    @property
    def delta(self) -> float:
        return 2.0 ** (-self.precision_alpha)

    @property
    def unit(self) -> float:
        return self._programs[True][0].nu

    def depth(self, folded: bool = False) -> int:
        """Levels consumed by step: the sum of the stages' (_OddStage),
        poly_eval_depth of each unless a later stage has degree 1; a
        folded degree-1 first stage spends none."""
        return sum(stage.depth for stage in self._programs[folded])

    def step(self, ops, d, folded: bool = False):
        """The comparator's program: (s + 1)/2 of the composed sign s, as
        the stages (the first with its scalar, or monic on a ``folded`` d,
        which arrives times ``unit``; the rest monic), which return s/2,
        plus 1/2."""
        for stage in self._programs[folded]:
            d = stage.run(ops, d)
        return ops.add(d, 0.5)

    def certified_max_error(self, folded: bool = False) -> float:
        """Max |2 step(y) - 2| (that is, |composed(y) - 1| as step computes
        it) over 100000 points of [delta, 1]: of the raw program on y, or
        of the ``folded`` one on y times ``unit``."""
        y = np.linspace(self.delta, 1.0, 100_000)
        d = y * self.unit if folded else y
        return float(np.max(np.abs(2.0 * self.step(_ArrayOps(d), d, folded) - 2.0)))


class ExactComparator:
    """Step-function oracle: its program is the exact step of d as a
    trivial encryption (ops.const), so it consumes no depth and counts no
    operations. Only meaningful on the arithmetic simulator; useful to
    isolate comparator error from the rest of the pipeline. It has no
    scalar to fold: its unit is 1."""

    unit = 1.0

    def depth(self, folded: bool = False) -> int:
        return 0

    def step(self, ops, d, folded: bool = False):
        return ops.const(step_clear(d))


EXACT_COMPARATOR = ExactComparator()


def step_clear(d: np.ndarray) -> np.ndarray:
    """1 for d > 0, 0 for d < 0, 1/2 at d = 0."""
    d = np.asarray(d)
    return np.where(d > 0, 1.0, np.where(d < 0, 0.0, 0.5))


# Candidate stage-degree plans in the order they are tried: by total depth,
# then by the ct and pt mults of one call's program (_OddStage's counts;
# every plan spends one pt mult on a raw difference, on its first stage's
# scalar, and none on a folded one). Degree 7
# costs 3 levels, 15 costs 4, 31 costs 5. At depth 10, three degree-7/15
# stages cost 15 ct mults and 1 pt mult per call against 26 and 1 for
# (31, 31). Of the three tied plans, (7, 7, 15) composes the smallest
# error at the defaults (2.1e-7, against 4.2e-7 and 5.9e-7), so it goes
# first.
_STAGE_PLANS = (
    (15, 15),
    (31, 15),
    (15, 31),
    (7, 7, 15),
    (7, 15, 7),
    (15, 7, 7),
    (31, 31),
    (15, 15, 15),
    (31, 15, 15),
    (31, 31, 15),
    (31, 31, 31),
)


# The default comparator: certified to 2^-20 for inputs at least 2^-5 from
# zero. Its first certifying plan is (7, 7, 15): depth 10 (the step map's
# halving is carried into the first stage's scalar), 15 ct mults, 1 pt
# mult (none folded, in its unit -1.7204) and 15 adds per call, a
# composed error of 2.1e-7 and power-basis coefficients of at most 96 in
# absolute value. Run in product form with
# monic later stages (input units nu of 0.855 and -0.861, so every
# intermediate stays near +-1), a noisy backend's sigma = 1e-8 moves its
# output by at most about 1.3e-7. In a B-spline basis the far-field
# residual is what the Cox-de Boor factors amplify, while a blurred step
# near a knot barely moves a continuous basis, so the default buys
# flatness (eps) rather than sharpness (alpha). PipelineConfig reads these.
DEFAULT_ALPHA = 5.0
DEFAULT_TARGET_EPS = 2.0 ** -20


def _check_target(alpha, target_eps) -> None:
    """The comparator target's domain, stated once for
    ``build_composite_sign`` and ``inference.PipelineConfig``: alpha and
    target_eps are real numbers (not bools) in (0, inf) and (0, 1) (at
    delta = 2^-alpha >= 1 the certified interval [delta, 1] is empty; NaN
    lies in neither). InvalidArgument otherwise."""
    for name, value, hi in (("alpha", alpha, math.inf), ("target_eps", target_eps, 1)):
        if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < hi:
            raise InvalidArgument(f"{name} must be a real number in (0, {hi}), got {value!r}")


@functools.lru_cache(maxsize=None)
def build_composite_sign(alpha: float = DEFAULT_ALPHA,
                         target_eps: float = DEFAULT_TARGET_EPS) -> CompositeSign:
    """Fit comparator stages with the library's own minimax fitter.

    Tries the stage-degree plans of _STAGE_PLANS (by depth, then by one
    call's ct and pt mults) and returns the first whose composed error
    certifies below target_eps on a dense grid, as a raw ``poly_comp``
    runs it. The layer program runs it folded, and certifies that program
    itself before its first use (``inference._layout``).
    InvalidArgument before any fit for a target outside its domain
    (``_check_target``).
    """
    _check_target(alpha, target_eps)
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
            if not err < 0.9:  # next stage's domain would touch zero (or err is NaN)
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


def poly_comp(a: CipherText, b, comparator, folded: bool = False) -> CipherText:
    """Slot-wise step(a - b): ~1 where a > b, ~0 where a < b, 1/2 at ties.

    The one runner of both comparators: comparator.step runs on the
    difference's window (HeBackend.run_on_window) and consumes
    comparator.depth(folded) levels; on an array (the mirror) it runs on
    the array. The caller keeps |a - b| <= 1; in the
    pipeline the range contract does (input and knots in [-R, R], both in
    units of 2R: the packing mask scales the input by 1/(2R), and the knot
    tiles are built scaled). The composite comparator is certified only
    for |a - b| >= its delta. A raw difference costs the composite its
    first stage's scalar, one pt mult. ``folded``: a - b arrives times
    ``comparator.unit`` as well (the basis's, whose packing mask carries
    it), and the step is that of (a - b) / unit, with no pt mult.
    """
    ops = _ops_of(a)
    return ops.run_on_window(lambda w, d: comparator.step(w, d, folded), ops.sub(a, b))
