"""Encrypted B-spline machinery.

Packs an input vector in repeat layout with logarithmically many rotations
into one operand in comparator units (``repeat_pack``, the one builder of
what the basis and the layer's SiLU branch read), evaluates all B-spline
basis functions in parallel on it through comparator-based interval tests
(one comparator call over every knot column) and the Cox-de Boor
recursion (two orders a level on equally spaced grids), and provides the
permutation / weight-fusion algebra that lets the basis output feed a
linear layer without any homomorphic reordering.
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

SPACING_TOL = 1e-12  # relative: a knot row is equally spaced when every gap is within it


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
        [-R, R] to a difference in [-1, 1]. The basis runs in this unit
        times its comparator's ``unit`` (``repeat_pack``)."""
        return 1.0 / (2.0 * self.R)

    @cached_property
    def equally_spaced(self) -> bool:
        """The one spacing rule, made once from the knots alone: every row
        i is equally spaced, each gap within SPACING_TOL (1e-12) * h_i of
        h_i = (t_{g+2k} - t_0) / (g + 2k). ``GridMatrix.uniform`` (so
        ``random_model``, the CLI and a model file's uniform grid) builds
        such grids, and knots written as short decimals stay within the
        tolerance. The basis program (``bspline_basis_he``) and the
        planner's key (``inference.plan_layer``) read it."""
        h = (self.entries[:, -1:] - self.entries[:, :1]) / (self.entries.shape[1] - 1)
        return bool(np.all(np.abs(np.diff(self.entries, axis=1) - h) <= SPACING_TOL * h))

    def tiles(self, unit: float) -> tuple:
        """basis_tiles(self, unit), built on first use per unit and
        read-only: the knots cannot change, so every basis evaluation in
        that unit reuses them."""
        if (tiles := self._tiles.get(unit)) is None:
            tiles = self._tiles[unit] = basis_tiles(self, unit)
            for a in tiles[:3]:
                a.setflags(write=False)
        return tiles

    @cached_property
    def _tiles(self) -> dict:
        return {}

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


def _check_layout(x, n: int, fewest: int = 0, most: float = math.inf,
                  reader: str = "the basis", owner: str = "a layer of n_i") -> None:
    """The one check of a stated layout, made before any op reads x:
    ShapeMismatch unless x holds copies of n slots, at least ``fewest`` of
    them (the copies the reader needs that a zero tail cannot supply) and
    at most ``most``. A ciphertext states its layout, ``width`` and
    ``copies``; one that states no width (an op's result, or a scalar's
    encryption) passes. An array (the mirror's) states only its length,
    which must hold fewest copies. Copies of another width would be read
    as misaligned blocks of n slots, and a reader given fewer copies than
    it reads would read zeros as copies. Its callers: ``repeat_pack``,
    ``bspline_basis_he`` and ``inference.bsgs_matvec``."""
    if not isinstance(x, CipherText):  # an array states its length only
        copies, most = (np.size(x) // n if np.ndim(x) else fewest), math.inf
    elif x.width is None:
        return
    elif x.width != n:
        raise ShapeMismatch(f"input of width {x.width} for {owner} = {n}")
    else:
        copies = x.copies
    if copies < fewest:
        raise ShapeMismatch(f"{reader} reads {fewest} copies of {n} slots, "
                            f"more than its operand's {copies}")
    if copies > most:
        raise ShapeMismatch(f"{copies} copies of {n} slots, more than the {most} {reader} reads")


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


def repeat_pack(ct: CipherText, G: GridMatrix, comparator,
                copies: int | None = None) -> CipherText:
    """Fast repeat packing, the one builder of the operand the basis reads
    (and the layer's SiLU branch with it), on a ciphertext or an array
    (the mirror): ct's n_i input slots times G.scale * comparator.unit,
    the comparator's units, as ``copies`` copies back to back over a zero
    tail. G.scale maps [-R, R] into [-1/2, 1/2]; ``unit`` is the
    comparator's first stage's own input unit (1 for the exact one), so
    that stage's scalar rides on the mask and ``bspline_basis_he`` with
    the same comparator spends no pt mult on it. copies defaults to
    ``basis_copies(g, k)``; the layer program passes its layout's
    (``inference.LayerLayout.copies``), a power-of-two multiple of it.

    One mask multiply, then one doubling chain (``_double_copies``). ct
    arrives holding ``ct.copies`` copies (set by
    ``inference.encrypt_input``; 1 for an array or a raw ``encrypt``),
    capped at copies; the mask full(n_i * arrived, G.scale * unit) keeps
    them and carries the scale at no extra cost, and the doublings start
    from them, so the copies that arrived save as many rotations as they
    double. It costs one level (the mask) and log2(copies / arrived)
    rotations. Each doubling adds exact zeros, so every copy holds the
    value of copy 0 however many arrived (a doubling turns a -0 into +0).
    A ciphertext result states its copies and width n_i.

    Raises before any op: InvalidArgument unless copies and the arrived
    copies are powers of two, ShapeMismatch when ct states a width other
    than n_i (``_check_layout``), then PackingOverflow unless n_i * copies
    slots fit (the packed layout's fit law, ``_check_copies``); else the
    final shift would wrap onto the front copies."""
    n_i = G.n_i
    copies = basis_copies(G.g, G.k) if copies is None else copies
    _check_power_of_two("copies", copies)
    arrived = min(getattr(ct, "copies", 1), copies)
    _check_power_of_two("arrived copies", arrived)
    _check_layout(ct, n_i)
    ops = _ops_of(ct)
    _check_copies(ops.slot_count, n_i, copies)
    mask = np.full(n_i * arrived, G.scale * comparator.unit)
    xp = _double_copies(ops.mul(ct, mask), n_i, arrived, copies)
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
    output, on an equally spaced grid of degree k (every grid
    ``GridMatrix.uniform`` builds), read off one run on a probe backend.
    With d = comparator.depth(True) and k >= 1: max(d, 1) +
    ceil((k - 1) / 2) + 1, or max(d, 2) + (k - 1) / 2 + 1 for odd k >= 3,
    whose first pair reads w * w (bspline_basis_he). A grid of unequal
    spacing spends max(d, 1) + k (its plan, ``inference.plan_layer``, runs
    ``_stand_in(k, False)``)."""
    ct = _Probe().encrypt(0.0)
    return ct.level - bspline_basis_he(ct, _stand_in(k, True), comparator).level


def _stand_in(k: int, equally_spaced: bool) -> GridMatrix:
    """The planners' one-feature grid for every grid of degree k and that
    spacing class: g = 1, R = 1/2 and knots spread over [-1/2, 1/2],
    equally spaced, or not, with every other interior knot moved by a
    tenth of the spacing."""
    knots = np.linspace(-0.5, 0.5, 2 * k + 2)
    if not equally_spaced:
        knots[1:-1:2] += 0.1 / (2 * k + 1)
    return GridMatrix(knots[None], 1, k, 0.5)


def basis_tiles(G: GridMatrix, unit: float):
    """Plaintext tiles of the basis evaluation on an input in units of
    G.scale * unit (``repeat_pack``'s), the knots t times that unit,
    column-tiled and zero-padded to the width the basis reads,
    n_i * basis_copies(g, k), so a tile op on a packed input reuses the
    tile.

    Returns (knots, weights, last, c). knots is the comparator call's
    tile, the g + 2k + 1 knot columns less unit/2 (zero past them): the
    call compares x - unit/2 with it, which is x against a knot tile
    padded with R (unit/2 in these units) in every slot past the knots,
    past the width included.

    The recursion runs on N_j = j! B_j (de Boor's cardinal form), so an
    order's weights need no 1/j: N_{m,j} = v_m N_{m,j-1} + (j - v_{m+1})
    N_{m+1,j-1} with v_m = j (x - t_m) / (t_{m+j} - t_m), and B_k = N_k / k!.
    Each weight is an affine map of the input, x * s - t * s, held in
    weights, an (m, 2, width) array of (slope, offset) tiles. The ratios
    are those of the unscaled knots: the unit cancels.

    On an equally spaced grid (``GridMatrix.equally_spaced``) v_m =
    (x - t_m) / h_i at every order, h_i row i's spacing. weights holds one
    pair (none for k = 1), for w = v / c on blocks m < g + 2k, which every
    order shares; c is the least integer >= 1 with |v| <= 8c for every x
    in [-R, R] on those blocks (1 to 3 on uniform grids with g <= 10,
    k <= 5), so w * w <= 64. last holds the last order's first factor
    f1 = (x - t_m) / (k! h_i), as its slope and offset, and the constant
    C = (k + 1) / k!, by which the second factor falls short of f1, on
    blocks m < g + k and zero past slot n_i(g + k), so that order zeroes
    every later slot.

    Any other grid keeps one weight per order, c = 0: weights holds order
    j's pair for j = 1..k-1, on blocks m = 0..g + 2k - j, zero past them,
    and last the last order's two slopes, then its two offsets: the
    factors (x - t_m) / ((k-1)! (t_{m+k} - t_m)) of N_m and
    (x - t_{m+k+1}) / ((k-1)! (t_{m+k+1} - t_{m+1})) of N_{m+1}, on blocks
    m < g + k and zero past slot n_i(g + k).
    """
    k, n_i, r = G.k, G.n_i, G.g + 2 * G.k + 1
    t = G.entries * (G.scale * unit)
    width = n_i * basis_copies(G.g, k)

    def tiles(*blocks):  # n_i x c blocks, each column-tiled over a zero tail
        out = np.zeros((len(blocks), width))
        for row, block in zip(out, blocks):
            row[:block.size] = block.T.ravel()
        return out

    knots = tiles(t - unit / 2)[0]
    if not k:
        return knots, np.zeros((0, 2, width)), np.zeros((0, width)), 0
    fact = math.factorial(k - 1)
    if G.equally_spaced:
        h, E = (t[:, -1:] - t[:, :1]) / (r - 1), G.entries
        v = (G.R + np.max(np.abs(E[:, :-1]), axis=1)) * (r - 1) / (E[:, -1] - E[:, 0])
        c = max(1, math.ceil(float(np.max(v)) / 8))
        slopes = [np.broadcast_to(1 / (c * h), (n_i, r - 1))][:k - 1]
        s1 = np.broadcast_to(1 / (k * fact * h), (n_i, r - k - 1))
        last = tiles(s1, t[:, :-k - 1] * s1, np.full(s1.shape, (k + 1) / (k * fact)))
    else:
        c = 0
        slopes = [j / (t[:, j:] - t[:, :-j]) for j in range(1, k)]
        s1, s3 = (1 / (fact * (t[:, k:-1] - t[:, :-k - 1])),
                  1 / (fact * (t[:, k + 1:] - t[:, 1:-k])))
        last = tiles(s1, s3, t[:, :-k - 1] * s1, t[:, k + 1:] * s3)
    weights = np.reshape([tiles(s, t[:, :s.shape[1]] * s) for s in slopes], (-1, 2, width))
    return knots, weights, last, c


def bspline_basis_he(xp: CipherText, G: GridMatrix, comparator) -> CipherText:
    """All-basis evaluation on xp, ``repeat_pack(ct, G, comparator)``'s
    output: the input in the comparator's units (times G.scale *
    comparator.unit, as the knot tiles are, basis_tiles) as at least
    basis_copies(g, k) copies over a zero tail, a ciphertext or an array
    (the mirror). The mask has carried the comparator's first scalar, so
    its call runs folded, with no pt mult (``approx.poly_comp``).
    Interval membership comes from one comparator call (poly_comp)
    against all g + 2k + 1 knot columns, whose
    step h differs from itself read one block ahead by the order-0 basis,
    then the slot-parallel Cox-de Boor recursion. Slot m * n_i + i of the
    result holds B_m(x_i) for m < g + k. The public composition is
    ``bspline_basis_he(repeat_pack(ct, G, comparator), G, comparator)``;
    copies past the g + 2k + 1 the call reads hold the same values and
    change nothing.

    Raises before any op: PackingOverflow unless n_i * basis_copies(g, k)
    slots fit (the packed layout's fit law, ``_check_copies``), then
    ShapeMismatch (``_check_layout``) when xp states a width other than
    n_i, or visibly holds fewer copies than basis_copies(g, k): a
    ciphertext stating width n_i with fewer ``copies`` (a raw
    ``encrypt``, or one packed short), or an array shorter than
    n_i * basis_copies(g, k). Read as packed, such an operand gives a
    wrong basis: GridMatrix.uniform(4, 10, 3, -1, 1) packed to the
    paper's g + 2k = 16 copies, one fewer than the comparator call reads,
    is up to 253 off the exact basis (at x = -0.7).
    A scalar (the depth probe's) or a width-less ciphertext passes.

    With exact steps, step(t_{m+1} - x) = 1 - step(x - t_{m+1}), so the
    order-0 basis step(x - t_m) * step(t_{m+1} - x) is
    step(x - t_m) - step(x - t_{m+1}): h - rotate(h, n_i), since block
    m + 1 of the packed input holds the same bits as block m. It costs no
    multiply, and one comparator call where the two steps took two. At a
    knot t_m the two blocks that meet there read the same step(0) = 1/2,
    so their values sum to 1, as the recursion's first order needs. The
    comparator reads x - unit/2 against the knots less unit/2
    (basis_tiles), so every block past the knots, and every slot past the
    width, reads step(x - 1/2), in comparator units: 0, or 1/2 at x = R.

    The recursion runs on N_j = j! B_j (basis_tiles); each weight is
    x * s - t * s, one plaintext multiply per slope tile, off the critical
    path (the weights read xp). R below is a rotation by n_i (block m + 1
    read at block m). The order-0 difference and the whole recursion are
    one window program (``_cox_de_boor``) on the steps h and xp, whose
    rotations shift by (k + 1) n_i in all (``HeBackend.run_on_window``'s
    reach): on a ciphertext the basis makes two slotwise calls (the
    comparator's subtractions) and two window programs (the comparator's
    and this one), whatever k.

    On an equally spaced grid every order reads one weight w = v / c
    (basis_tiles), and the de Boor orders 1..k-1 run two a level: from
    N (order j - 1), A = (w * w) N and B = (2v) N (2 ct mults; w * w and
    2v = 2c w are formed once, the latter by adds), P0 = c^2 A = v^2 N
    and U = jB (adds), P2 = P0 - U + j^2 N = (v - j)^2 N, and order j + 1
    is P0 + R(jN + U - 2 P0 + R(P2)), which is P0 + R(j(j + 1)N - P0 - P2
    + R(P2)): the two orders' v_{m+1} = v_m - 1 and v_{m+2} = v_m - 2
    give its three coefficients. M = P0 - U serves both P2 = M + j^2 N and
    the inner jN - P0 - M. An odd count of orders runs order 1 alone
    first, on the tile v = c w: u = v N, N <- u + R(N - u). The last order
    is f1 (N - RN) + C RN, one ct and one pt mult: f1 N - (f1 - C) RN,
    the second factor being f1 less C. So 3 plaintext multiplies (2 for
    k = 1), k rotations, k + 1 ct mults (k for k <= 2) and
    ceil((k - 1) / 2) + 1 levels.
    Any other grid keeps one order a level: orders 1..k-1 in de Boor form,
    one ciphertext multiply each, u = v N, N <- u + R(jN - u), jN from
    adds alone (``_times``: at most 2 adds for j < 5, no level), and the
    last order in two-factor form, N and RN times factors that carry its
    1/k!, one subtracted from the other: k + 1 plaintext and ciphertext
    multiplies, k rotations and k levels. ``basis_depth`` states the
    whole depth of the equally spaced program.

    The slot contract. Past its valid region an order leaves finite
    values, which move left one tile per order as the region shrinks by
    one, so they never reach it; nor do those that the rotation wraps to
    the end, as the packing leaves g + 2k tiles of room. The last order's
    factors are zero past slot n_i(g + k), so with k >= 1 every later slot
    is exactly zero (up to its sign) with no extra masking. Every
    intermediate of the program stays at most 64 in magnitude on the
    mirror and on a ciphertext with slots past its packed width, for
    every uniform grid with g <= 10, k <= 5 and x in [-R, R] (w * w <= 64
    by c). When the packed width fills the slot count, the rotation wraps
    block 0's step into the last block, and on an equally spaced grid with
    basis_copies(g, k) < g + 3k - 1 the shared weight grows that stray
    value order by order (to 703 at most, at g = 7, k = 4; 648 at g = 5,
    k = 5), in slots no output reads. An
    input in [-R, R] (the range contract, KanModel.check_input_range)
    keeps every comparator operand in [-1, 1], times the unit."""
    ops = _ops_of(xp)
    basis, n = basis_copies(G.g, G.k), G.n_i
    _check_copies(ops.slot_count, n, basis)
    _check_layout(xp, n, basis)
    unit = comparator.unit
    h = poly_comp(ops.sub(xp, unit / 2), G.tiles(unit)[0], comparator, folded=True)
    return ops.run_on_window(lambda w, h, x: _cox_de_boor(w, h, x, G, unit), h, xp,
                             reach=(G.k + 1) * n)


def _cox_de_boor(ops, h, xp, G: GridMatrix, unit: float):
    """bspline_basis_he's window program on the comparator's steps h and
    the packed input xp: the order-0 basis, labelled ``comparator`` (the
    stage that began with the comparator's call), then the recursion,
    labelled ``basis_recursion``."""
    n = G.n_i
    _, weights, last, c = G.tiles(unit)
    b = steps = ops.sub(h, ops.rotate(h, n))
    ops._stage("comparator", xp, steps)
    if not G.k:
        return b
    w = [ops.sub(ops.mul(xp, s), o) for s, o in weights]
    if c:  # equally spaced: one weight w = v / c, two orders a level
        j = 1
        if G.k % 2 == 0:  # an odd count of de Boor orders: order 1 alone
            v = _times(ops, w[0], c)
            u = ops.mul(v, b)
            b, j = ops.add(u, ops.rotate(ops.sub(b, u), n)), 2
        if j < G.k:
            ww, v2 = ops.mul(w[0], w[0]), ops.add(v, v) if j == 2 else _times(ops, w[0], 2 * c)
        for j in range(j, G.k, 2):  # orders j and j + 1
            p0, jb = _times(ops, ops.mul(ww, b), c * c), _times(ops, b, j)
            m = ops.sub(p0, _times(ops, ops.mul(v2, b), j))  # P0 - U
            q = ops.sub(ops.sub(jb, p0), m)
            b = ops.add(p0, ops.rotate(ops.add(q, ops.rotate(ops.add(m, _times(ops, jb, j)), n)),
                                       n))
        s1, o1, C = last
        f1, nb = ops.sub(ops.mul(xp, s1), o1), ops.rotate(b, n)
        out = ops.add(ops.mul(f1, ops.sub(b, nb)), ops.mul(nb, C))
    else:
        for j in range(1, G.k):
            u = ops.mul(w[j - 1], b)
            b = ops.add(u, ops.rotate(ops.sub(_times(ops, b, j), u), n))
        s1, s3, o1, o3 = last
        x1, x3 = ops.mul(xp, s1), ops.mul(xp, s3)
        out = ops.sub(ops.mul(ops.sub(x1, o1), b), ops.mul(ops.sub(x3, o3), ops.rotate(b, n)))
    ops._stage("basis_recursion", steps, out)
    return out


def _times(ops, b, j: int):
    """j * b from adds alone, no level: left-to-right binary, one doubling
    per bit of j after the first and one add per later set bit."""
    out = b
    for bit in bin(j)[3:]:
        out = ops.add(out, out)
        if bit == "1":
            out = ops.add(out, b)
    return out


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
    the schedule a layer keeps of it cannot go stale."""
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
