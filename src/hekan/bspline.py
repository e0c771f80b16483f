"""Encrypted B-spline machinery.

Packs an input vector in repeat layout with logarithmically many rotations
into one operand in comparator units (``repeat_pack``, the one builder of
what the basis and the layer's SiLU branch read), evaluates all B-spline
basis functions in parallel on it through comparator-based interval tests
(one comparator call over every knot column) and the Cox-de Boor
recursion, and provides the permutation / weight-fusion algebra that lets
the basis output feed a linear layer without any homomorphic reordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .approx import poly_comp
from .backend import CipherText, _is_int, _ops_of, _Probe
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InputOutOfRange,
    InsufficientKnots,
    InvalidArgument,
    NonFiniteInput,
    PackingOverflow,
    ShapeMismatch,
)


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridMatrix:
    """Per-input-feature knot matrix: n_i >= 1 rows of g + 2k + 1 knots
    (DimensionMismatch otherwise), with g >= 1 and k >= 0
    (InvalidArgument otherwise).

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
        if (entries.ndim != 2 or entries.shape[0] < 1
                or entries.shape[1] != self.g + 2 * self.k + 1):
            raise DimensionMismatch(f"grid needs shape (n_i >= 1, {self.g + 2 * self.k + 1}), "
                                    f"got {entries.shape}")
        if not (np.all(np.isfinite(entries)) and math.isfinite(self.R)):
            raise NonFiniteInput("knots and R must be finite")
        if np.any(np.diff(entries, axis=1) <= 0):
            raise InsufficientKnots("knot rows must be strictly increasing (no repeats)")
        if self.R <= 0:
            raise InvalidArgument(f"R must be positive, got {self.R}")
        largest = float(np.max(np.abs(entries), initial=0.0))
        if self.R < largest:
            raise InputOutOfRange(f"R = {self.R} is below the largest |knot| {largest}")

    @property
    def n_i(self) -> int:
        return self.entries.shape[0]

    @property
    def scale(self) -> float:
        """1/(2R), the comparator's unit: it maps an input and a knot in
        [-R, R] to a difference in [-1, 1]. The basis runs in this unit."""
        return 1.0 / (2.0 * self.R)

    @cached_property
    def tiles(self) -> tuple:
        """basis_tiles of this grid, built on first use and read-only: the
        knots cannot change, so every basis evaluation reuses them."""
        knots, orders = basis_tiles(self)
        for a in (knots, *orders):
            a.setflags(write=False)
        return knots, orders

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


def _check_copies(slot_count: int, n_i: int, copies: int) -> None:
    """The one fit law of the packed layout: raise PackingOverflow unless
    copies blocks of n_i slots fit in slot_count, before any op reads them.
    Every packed copy count obeys it, under one error: the client's
    (``inference.encrypt_input``), the packing's (``repeat_pack``, at the
    copies the layer reads, ``inference._layout``) and the basis's
    (``bspline_basis_he``)."""
    if n_i * copies > slot_count:
        raise PackingOverflow(f"{copies} copies of {n_i} slots exceed {slot_count} slots")


def _check_width(ct, n_i: int) -> None:
    """ShapeMismatch unless ct states no width (an array, or an op's
    result) or n_i: copies of another width would be read as misaligned
    blocks of n_i slots."""
    width = getattr(ct, "width", None)
    if width not in (None, n_i):
        raise ShapeMismatch(f"input of width {width} for a layer of n_i = {n_i}")


def _check_power_of_two(name: str, copies) -> None:
    if not _is_int(copies) or copies < 1 or copies & (copies - 1):
        raise InvalidArgument(f"{name} must be a power of two, got {copies!r}")


def _double_copies(x, n_i: int, copies: int, target: int):
    """The one doubling step of the packed layout: x, a ciphertext or an
    array holding copies blocks of n_i slots back to back, doubled by one
    rotation and one add at a time until it holds target copies (a
    power-of-two multiple of copies; none when they are equal)."""
    ops = _ops_of(x)
    while copies < target:
        x = ops.add(ops.rotate(x, -n_i * copies), x)
        copies *= 2
    return x


def basis_copies(g: int, k: int) -> int:
    """Copies of the input the basis reads: 2^ceil(log2(g + 2k + 1)),
    which hold the g + 2k + 1 its one comparator call needs, and the
    copies ``repeat_pack`` makes by default. That is the paper's g + 2k
    copies, rounded up to a power of two, doubled once more when g + 2k is
    a power of two."""
    return 1 << (g + 2 * k).bit_length()


def repeat_pack(ct: CipherText, G: GridMatrix, copies: int | None = None) -> CipherText:
    """Fast repeat packing, the one builder of the operand the basis reads
    (and the layer's SiLU branch with it), on a ciphertext or an array
    (the mirror): ct's n_i input slots times G.scale, the comparator's
    unit, as ``copies`` copies back to back over a zero tail. copies
    defaults to ``basis_copies(g, k)``; the layer program passes its
    layout's (``inference.LayerLayout.copies``), a power-of-two multiple
    of it.

    One mask multiply, then one doubling chain (``_double_copies``). ct
    arrives holding ``ct.copies`` copies (set by
    ``inference.encrypt_input``; 1 for an array or a raw ``encrypt``),
    capped at copies; the mask full(n_i * arrived, G.scale) keeps them and
    carries the scale at no extra cost, and the doublings start from them,
    so the copies that arrived save as many rotations as they double. It
    costs one level (the mask) and log2(copies / arrived) rotations. Each
    doubling adds exact zeros, so every copy holds the value of copy 0
    however many arrived (a doubling turns a -0 into +0). A ciphertext
    result states its copies and width n_i.

    Raises before any op: InvalidArgument unless copies and the arrived
    copies are powers of two, ShapeMismatch when ct states a width other
    than n_i (``_check_width``), then PackingOverflow unless n_i * copies
    slots fit (the packed layout's fit law, ``_check_copies``); else the
    final shift would wrap onto the front copies."""
    n_i = G.n_i
    copies = basis_copies(G.g, G.k) if copies is None else copies
    _check_power_of_two("copies", copies)
    arrived = min(getattr(ct, "copies", 1), copies)
    _check_power_of_two("arrived copies", arrived)
    _check_width(ct, n_i)
    ops = _ops_of(ct)
    _check_copies(ops.slot_count, n_i, copies)
    xp = _double_copies(ops.mul(ct, np.full(n_i * arrived, G.scale)), n_i, arrived, copies)
    return replace(xp, copies=copies, width=n_i) if isinstance(xp, CipherText) else xp


def repeat_pack_naive(ct: CipherText, g: int, k: int, n_i: int) -> CipherText:
    """Reference packing: one rotation per extra copy (g + 2k - 1 total)."""
    be = ct.backend
    copies = g + 2 * k
    _check_copies(be.config.slot_count, n_i, copies)
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


def basis_depth(k: int, comparator) -> int:
    """Levels bspline_basis_he consumes from its input, ``repeat_pack``'s
    output, read off one run on a probe backend: for k >= 1,
    max(comparator.depth(), 1) + k."""
    ct = _Probe().encrypt(0.0)
    G = GridMatrix.uniform(1, 1, k, -1.0, 1.0)
    return ct.level - bspline_basis_he(ct, G, comparator).level


def basis_tiles(G: GridMatrix):
    """Plaintext knot tiles of the basis evaluation, in comparator units
    (the knots times G.scale, as the packed input is), column-tiled and
    zero-padded to the width the basis reads, n_i * basis_copies(g, k),
    so a tile op on a layer-0 packed input reuses the tile.

    Returns (knots, orders) in terms of the scaled knots t: the comparator
    call's tile, all g + 2k + 1 knot columns t_0 .. t_{g+2k} (zero past
    slot n_i(g + 2k + 1)), and for each recursion order j = 1..k its
    tiles. Orders j < k take the de Boor form
    B_{m,j} = w_m B_{m,j-1} + (1 - w_{m+1}) B_{m+1,j-1} with
    w_m = (x - t_m) / (t_{m+j} - t_m): a (2, width) array of the tiles
    (t_m, 1/(t_{m+j} - t_m)) for m = 0..g + 2k - j, zero past them. The
    last order keeps the two-factor form
    b_k = (x - t1) / (t2 - t1) * b + (t3 - x) / (t3 - t4) * b', where b'
    reads b one tile ahead: a (4, width) array of the tiles
    (t1, 1/(t2 - t1), t3, -1/(t3 - t4)), zero past slot n_i(g + k), so
    that order zeroes every later slot. There a slot gets what the zero
    tail of a shorter plaintext would give. The ratios are those of the
    unscaled knots: the scale cancels.
    """
    k, r = G.k, G.g + 2 * G.k + 1
    knots = G.entries * G.scale
    width = G.n_i * basis_copies(G.g, k)
    orders = []
    for j in range(1, k):
        t = col_tile(knots, 1, r - j + 1)
        tiles = np.zeros((2, width))
        tiles[:, :t.size] = t, 1.0 / (col_tile(knots, j + 1, r + 1) - t)
        orders.append(tiles)
    if k:
        t1 = col_tile(knots, 1, r - k)
        t2 = col_tile(knots, k + 1, r)
        t3 = col_tile(knots, k + 2, r + 1)
        t4 = col_tile(knots, 2, r - k + 1)
        tiles = np.zeros((4, width))
        tiles[:, :t1.size] = t1, 1.0 / (t2 - t1), t3, -1.0 / (t3 - t4)
        orders.append(tiles)
    columns = np.zeros(width)
    columns[:G.n_i * r] = col_tile(knots, 1, r + 1)
    return columns, orders


def bspline_basis_he(xp: CipherText, G: GridMatrix, comparator) -> CipherText:
    """All-basis evaluation on xp, ``repeat_pack``'s output: the input in
    comparator units (times G.scale, as the knot tiles are, basis_tiles)
    as at least basis_copies(g, k) copies over a zero tail, a ciphertext
    or an array (the mirror). Interval membership comes from one
    comparator call (poly_comp) against all g + 2k + 1 knot columns, whose
    step h differs from itself read one block ahead by the order-0 basis,
    then the slot-parallel Cox-de Boor recursion, one rotation per order.
    Slot m * n_i + i of the result holds B_m(x_i) for m < g + k. The
    public composition is ``bspline_basis_he(repeat_pack(ct, G), G,
    comparator)``; copies past the g + 2k + 1 the call reads hold the same
    values and change nothing.

    Raises before any op: PackingOverflow unless n_i * basis_copies(g, k)
    slots fit (the packed layout's fit law, ``_check_copies``), then
    ShapeMismatch when xp visibly holds fewer copies than that: a
    ciphertext stating width n_i with fewer ``copies`` (a raw
    ``encrypt``, or one packed short), or an array shorter than
    n_i * basis_copies(g, k). Read as packed, such an operand gives a
    wrong basis: GridMatrix.uniform(4, 10, 3, -1, 1) packed to the
    paper's g + 2k = 16 copies, one fewer than the comparator call reads,
    is 0.68 off the exact basis at x = 1.919, between its last knot and R.
    A scalar (the depth probe's) or a width-less ciphertext passes.

    With exact steps, step(t_{m+1} - x) = 1 - step(x - t_{m+1}), so the
    order-0 basis step(x - t_m) * step(t_{m+1} - x) is
    step(x - t_m) - step(x - t_{m+1}): h - rotate(h, n_i), since block
    m + 1 of the packed input holds the same bits as block m. It costs no
    multiply, and one comparator call where the two steps took two. At a
    knot t_m the two blocks that meet there read the same step(0) = 1/2,
    so their values sum to 1, as the recursion's first order needs.
    Orders 1..k-1 run in de Boor form, one plaintext and one ciphertext
    multiply each: u = w * b, b <- u + (b - u) one tile ahead
    (basis_tiles). Past its valid region a de Boor order leaves
    finite values, which move left one tile per order as the region
    shrinks by one, so they never reach it; nor do those that the rotation
    wraps to the end, as the packing leaves g + 2k tiles of room. The last
    order's knot factors are zero past slot n_i(g + k), so with k >= 1
    every later slot is zero with no extra masking. An input in [-R, R]
    (the range contract, KanModel.check_input_range) keeps every
    comparator operand in [-1, 1]."""
    ops = _ops_of(xp)
    basis = basis_copies(G.g, G.k)
    _check_copies(ops.slot_count, G.n_i, basis)
    if (xp.width == G.n_i and xp.copies < basis if isinstance(xp, CipherText)
            else np.ndim(xp) and np.size(xp) < G.n_i * basis):
        raise ShapeMismatch(f"the basis reads {basis} copies of {G.n_i} slots, "
                            "more than its operand holds: pack it with repeat_pack")
    knots, orders = G.tiles
    h = poly_comp(xp, knots, comparator)
    b = steps = ops.sub(h, ops.rotate(h, G.n_i))
    ops._stage("comparator", xp, steps)
    if not orders:
        return b
    *de_boor, (t1, recip1, t3, neg_recip2) = orders
    for t, recip in de_boor:
        u = ops.mul(ops.mul(ops.sub(xp, t), recip), b)
        b = ops.add(u, ops.rotate(ops.sub(b, u), G.n_i))
    b1 = ops.mul(ops.mul(ops.sub(xp, t1), recip1), b)
    b2 = ops.mul(ops.mul(ops.sub(xp, t3), neg_recip2), ops.rotate(b, G.n_i))
    basis = ops.add(b1, b2)
    ops._stage("basis_recursion", steps, basis)
    return basis


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
        raise InvalidArgument(f"n_r and n_c must be >= 1, got n_r = {n_r}, n_c = {n_c}")
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
