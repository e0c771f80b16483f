"""Encrypted B-spline machinery.

Packs an input vector in repeat layout with logarithmically many rotations,
evaluates all B-spline basis functions in parallel through comparator-based
interval tests and the Cox-de Boor recursion, and provides the permutation /
weight-fusion algebra that lets the basis output feed a linear layer without
any homomorphic reordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .approx import poly_comp
from .backend import CipherText, _ops_of
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InputOutOfRange,
    InsufficientKnots,
    InvalidArgument,
    NonFiniteInput,
    PackingOverflow,
)


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridMatrix:
    """Per-input-feature knot matrix: n_i rows of g + 2k + 1 knots, with
    g >= 1 and k >= 0 (InvalidArgument otherwise).

    Rows must be strictly increasing; repeated knots would put a zero in the
    recursion denominators and are rejected up front. R bounds |input| and
    |knot| for the comparator's [-1, 1] scaling; a knot beyond R is
    rejected, since its comparator operand would leave [-1, 1]. Knots and R
    must be finite: an infinite R scales every comparator operand to 0.
    """

    entries: np.ndarray
    g: int
    k: int
    R: float

    def __post_init__(self):
        _check_degrees(self.g, self.k)
        entries = np.array(self.entries, dtype=float)  # own copy, frozen below
        object.__setattr__(self, "entries", entries)
        entries.setflags(write=False)
        if entries.ndim != 2 or entries.shape[1] != self.g + 2 * self.k + 1:
            raise DimensionMismatch(
                f"grid needs shape (n_i, {self.g + 2 * self.k + 1}), got {entries.shape}")
        if not (np.all(np.isfinite(entries)) and math.isfinite(self.R)):
            raise NonFiniteInput("knots and R must be finite")
        if np.any(np.diff(entries, axis=1) <= 0):
            raise InsufficientKnots("knot rows must be strictly increasing (no repeats)")
        if self.R <= 0:
            raise ValueError("R must be positive")
        largest = float(np.max(np.abs(entries), initial=0.0))
        if self.R < largest:
            raise InputOutOfRange(f"R = {self.R} is below the largest |knot| {largest}")

    @property
    def n_i(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def tiles(self) -> tuple:
        """basis_tiles of this grid, built on first use and read-only: the
        knots cannot change, so every basis evaluation reuses them."""
        g1, g2, orders = basis_tiles(self)
        for a in (g1, g2, *orders):
            a.setflags(write=False)
        return g1, g2, orders

    @property
    def n_basis(self) -> int:
        """Basis functions per feature: g + k."""
        return self.g + self.k

    @classmethod
    def uniform(cls, n_i: int, g: int, k: int, lo: float, hi: float,
                R: float | None = None) -> "GridMatrix":
        """Uniform grid on [lo, hi] with k extra intervals on each side."""
        if hi <= lo:
            raise InvalidArgument(f"need hi > lo, got lo = {lo}, hi = {hi}")
        _check_degrees(g, k)
        h = (hi - lo) / g
        knots = lo + h * (np.arange(g + 2 * k + 1) - k)
        if R is None:
            R = 1.2 * float(np.max(np.abs(knots)))
        return cls(np.tile(knots, (n_i, 1)), g, k, R)


def _check_degrees(g: int, k: int) -> None:
    if g < 1 or k < 0:
        raise InvalidArgument(f"a grid needs g >= 1 and k >= 0, got g = {g}, k = {k}")


@dataclass(frozen=True)
class PermutationSpec:
    """Column-major to row-major reordering of an n_r x n_c value matrix.

    `source_of[t] = s` means output slot t reads input slot s (0-indexed).
    """

    n_r: int
    n_c: int
    source_of: np.ndarray

    @property
    def size(self) -> int:
        return self.n_r * self.n_c

    def as_matrix(self) -> np.ndarray:
        p = np.zeros((self.size, self.size))
        p[np.arange(self.size), self.source_of] = 1.0
        return p

    def apply(self, v) -> np.ndarray:
        v = np.asarray(v)
        if v.shape[0] != self.size:
            raise DimensionMismatch(f"vector length {v.shape[0]} != {self.size}")
        return v[self.source_of]


# ---------------------------------------------------------------------------
# packing
# ---------------------------------------------------------------------------


def pack_rotations(g: int, k: int) -> int:
    """Rotations the fast packing consumes: ceil(log2(g + 2k))."""
    copies = g + 2 * k
    return 0 if copies <= 1 else math.ceil(math.log2(copies))


def _check_packing(slot_count: int, n_i: int, copies: int) -> None:
    if n_i * copies > slot_count:
        raise PackingOverflow(
            f"n_i * (g + 2k) = {n_i * copies} exceeds {slot_count} slots")


def check_repeat_pack(slot_count: int, n_i: int, g: int, k: int) -> None:
    """Raise PackingOverflow unless repeat_pack fits: the doubling loop's
    2^ceil(log2(g + 2k)) copies of n_i slots, which hold the g + 2k
    copies it needs."""
    copies = 1 << pack_rotations(g, k)
    if n_i * copies > slot_count:
        raise PackingOverflow(
            f"doubling to {copies} copies of {n_i} slots wraps past "
            f"{slot_count}; the fast packing needs power-of-two headroom")


def repeat_pack(ct: CipherText, g: int, k: int, n_i: int) -> CipherText:
    """Fast repeat packing: one mask multiply plus doubling rotations, on a
    ciphertext or an array (the mirror). The result holds the input's
    first n_i slots as at least g + 2k copies back to back.

    The doubling loop produces 2^ceil(log2(g+2k)) copies, so that power of
    two must also fit in the slot vector or the final shift would wrap onto
    the front copies.
    """
    ops = _ops_of(ct)
    check_repeat_pack(ops.slot_count, n_i, g, k)
    packed = ops.mul(ct, np.ones(n_i))
    for j in range(pack_rotations(g, k)):
        packed = ops.add(ops.rotate(packed, -(n_i << j)), packed)
    return packed


def repeat_pack_naive(ct: CipherText, g: int, k: int, n_i: int) -> CipherText:
    """Reference packing: one rotation per extra copy (g + 2k - 1 total)."""
    be = ct.backend
    copies = g + 2 * k
    _check_packing(be.config.slot_count, n_i, copies)
    base = be.mul(ct, np.ones(n_i))
    packed = base
    for j in range(1, copies):
        packed = be.add(packed, be.rotate(base, -n_i * j))
    return packed


# ---------------------------------------------------------------------------
# column tiling
# ---------------------------------------------------------------------------


def col_tile(matrix, l: int, r: int) -> np.ndarray:
    """Concatenate columns l to r-1 (1-indexed, half-open) into one vector.

    Output slot (j - l) * n_i + i holds matrix[i][j]. Accepts a GridMatrix
    or any 2-D array.
    """
    a = matrix.entries if isinstance(matrix, GridMatrix) else np.asarray(matrix)
    n_cols = a.shape[1]
    if not 1 <= l < r <= n_cols + 1:
        raise IndexOutOfRange(f"need 1 <= l < r <= {n_cols + 1}, got l={l}, r={r}")
    return a[:, l - 1:r - 1].T.ravel()


# ---------------------------------------------------------------------------
# encrypted basis evaluation
# ---------------------------------------------------------------------------


def basis_stages(k: int, comparator) -> dict:
    """Levels each stage of bspline_basis_he consumes, in order: the
    comparator's scale multiply, the comparator, the order-0 product, then
    one ciphertext multiply per recursion step."""
    return {
        "comparator_scale": 1,
        "comparator": comparator.depth(),
        "basis_order0": 1,
        "basis_recursion": k,
    }


def basis_depth(k: int, comparator) -> int:
    """Levels bspline_basis_he consumes from the packed input."""
    return sum(basis_stages(k, comparator).values())


def basis_tiles(G: GridMatrix):
    """Plaintext knot tiles of the basis evaluation, column-tiled and
    zero-padded to the packed width n_i * 2^ceil(log2(g + 2k)), the window
    repeat_pack produces, so a tile op on a packed input reuses the tile.

    Returns (g1, g2, orders): the order-0 interval endpoints, and for each
    recursion order j = 1..k a (4, width) array of the tiles
    (t1, 1/(t2 - t1), t3, -1/(t3 - t4)) of the step
    b_j = (x - t1) / (t2 - t1) * b + (t3 - x) / (t3 - t4) * b', where b'
    reads b one tile ahead (B_{m+1} at tile m). Order j's tiles are zero
    past slot n_i(g + 2k - j) and the endpoints past n_i(g + 2k); there a
    slot gets what the zero tail of a shorter plaintext would give.
    """
    r = G.g + 2 * G.k + 1
    width = G.n_i << pack_rotations(G.g, G.k)
    orders = []
    for j in range(1, G.k + 1):
        t1 = col_tile(G, 1, r - j)
        t2 = col_tile(G, j + 1, r)
        t3 = col_tile(G, j + 2, r + 1)
        t4 = col_tile(G, 2, r - j + 1)
        tiles = np.zeros((4, width))
        tiles[:, :t1.size] = t1, 1.0 / (t2 - t1), t3, -1.0 / (t3 - t4)
        orders.append(tiles)
    ends = np.zeros((2, width))
    ends[:, :G.n_i * (r - 1)] = col_tile(G, 1, r), col_tile(G, 2, r + 1)
    return ends[0], ends[1], orders


def bspline_basis_he(xp: CipherText, G: GridMatrix, comparator) -> CipherText:
    """All-basis evaluation on xp, the input repeat-packed as at least
    g + 2k copies, a ciphertext or an array (the mirror): interval
    membership from two comparator calls (poly_comp against zero) on the
    knot endpoints, then the slot-parallel Cox-de Boor recursion, one
    rotation per order. Slot m * n_i + i of the result holds B_m(x_i) for
    m < g + k. The knot factors are zero past the shrinking valid region,
    so with k >= 1 every later slot is zero with no extra masking. An input
    in [-R, R] (the range contract, KanModel.check_input_range) keeps every
    comparator operand in [-1, 1]."""
    ops = _ops_of(xp)
    inv2R = 1.0 / (2.0 * G.R)
    g1, g2, orders = G.tiles
    x1 = poly_comp(ops.mul(ops.sub(xp, g1), inv2R), 0.0, comparator)
    x2 = poly_comp(ops.mul(ops.sub(xp, g2), -inv2R), 0.0, comparator)
    b = ops.mul(x1, x2)
    for t1, recip1, t3, neg_recip2 in orders:
        b1 = ops.mul(ops.mul(ops.sub(xp, t1), recip1), b)
        b2 = ops.mul(ops.mul(ops.sub(xp, t3), neg_recip2), ops.rotate(b, G.n_i))
        b = ops.add(b1, b2)
    return b


# ---------------------------------------------------------------------------
# plain Cox-de Boor oracle
# ---------------------------------------------------------------------------


def bspline_basis_plain(x, knots, k: int) -> np.ndarray:
    """Exact basis values B_{m,k}(x), shape x.shape + (n_basis,), by the
    Cox-de Boor recursion. Each element of an array x takes a scalar x's
    float ops, so both give the same bits.

    Order-0 uses half-open intervals [t_m, t_{m+1}); 0/0 at repeated knots
    is taken as 0.
    """
    t = np.asarray(knots, dtype=float)
    if t.ndim != 1 or t.size < k + 2:
        raise InsufficientKnots(f"need at least {k + 2} knots for degree {k}")
    if np.any(np.diff(t) < 0):
        raise InsufficientKnots("knots must be non-decreasing")
    x = np.asarray(x, dtype=float)[..., None]
    b = np.where((t[:-1] <= x) & (x < t[1:]), 1.0, 0.0)
    for j in range(1, k + 1):
        nb = t.size - 1 - j
        num1 = (x - t[:nb]) * b[..., :nb]
        den1 = t[j:j + nb] - t[:nb]
        num2 = (t[j + 1:j + 1 + nb] - x) * b[..., 1:nb + 1]
        den2 = t[j + 1:j + 1 + nb] - t[1:nb + 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            left = np.where(den1 > 0, num1 / np.where(den1 > 0, den1, 1.0), 0.0)
            right = np.where(den2 > 0, num2 / np.where(den2 > 0, den2, 1.0), 0.0)
        b = left + right
    return b


# ---------------------------------------------------------------------------
# permutation and weight fusion
# ---------------------------------------------------------------------------


def gen_permutation(n_r: int, n_c: int) -> PermutationSpec:
    """Permutation sending column-major index (c-1)*n_r + r to row-major
    (r-1)*n_c + c (both 1-indexed). Its ``source_of`` is read-only, so
    ``matvec_schedule`` builds its schedule once."""
    if n_r < 1 or n_c < 1:
        raise ValueError("n_r and n_c must be >= 1")
    source_of = np.arange(n_r * n_c).reshape(n_c, n_r).T.flatten()  # owns its memory
    source_of.setflags(write=False)
    return PermutationSpec(n_r, n_c, source_of)


def fuse_weights(wprime: np.ndarray, P: PermutationSpec) -> np.ndarray:
    """Fused linear weights: W_f = W' x P, so W_f v = W' (P v).

    Right-multiplying by the permutation matrix is a column gather:
    W_f[:, s] = W'[:, t] whenever P maps source s to target t.
    """
    wprime = np.asarray(wprime, dtype=float)
    if wprime.ndim != 2 or wprime.shape[1] != P.size:
        raise DimensionMismatch(
            f"W' has {wprime.shape} columns, permutation expects {P.size}")
    fused = np.empty_like(wprime)
    fused[:, P.source_of] = wprime
    return fused
