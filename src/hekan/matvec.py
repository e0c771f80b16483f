"""Diagonal-method matrix-vector products: one schedule, two ops adapters.

A :class:`MatvecSchedule` fixes every term of ``W @ v``: the extended
diagonals, the baby-step/giant-step order in which their products are
summed, and the rotate-and-add folds that finish a wide matrix. ``run``
is its one program, the block sum and then the folds; the encrypted
forward passes the backend as ``ops``, the mirror its array adapter
(``inference.bsgs_matvec`` picks one by ``backend._ops_of``). The mirror
and the exact backend run one block-sum kernel, ``block_sum``: each giant
step is one array program that multiplies the step's babies (rows of a
sliding window over the duplicated or repeated operand) by the step's
diagonals and reduces them in diagonal order. So the mirrored forward
reproduces the encrypted result bit for bit on the exact backend, where
``HeBackend.run_block_sum`` checks the slot capacity (``check_capacity``),
charges the op-by-op schedule's counts (``block_sum_counts``) and spends
its one level. A noisy backend runs the schedule op by op
(``block_sum_ops``), so each op draws its own noise.

Built once: a schedule computes its matrix's p diagonals on first use and
keeps them, read-only, for every later giant step. ``matvec_schedule``
returns the same schedule for the same matrix object as long as the matrix
cannot change (a non-writeable array over read-only memory, or a
PermutationSpec whose ``source_of`` is such an array); its memo holds the
matrix by weak reference, so an entry dies with its matrix. A writeable
matrix gets a new schedule on every call, so an in-place change is seen.

Square path (Halevi-Shoup): W is zero-padded to m x m, m = max(n_o, n_in),
and all m diagonals are multiplied. Wide path (GAZELLE's hybrid method):
when n_o < n_in = p * 2^j with p >= n_o and j >= 1, only p extended
diagonals of length n_in are multiplied and log2(n_in / p) folds add the
partial rows together. A one-row matrix takes the wide path with p = 1
over its columns zero-padded to the next power of two. The choice depends
on the shape alone, so a caller without a slot count (the mirror) makes
the same one.

Operand contracts: by default the operand holds its n_in values in slots
[0, n_in) over zeros, and the block sum first duplicates it with the
schedule's period (one rotation and one add) so that the diagonals can
wrap. A repeated schedule (``matvec_schedule(W, repeated=True)``) takes an
operand that already holds its values repeated with period n_in over
every slot the block sum reads (``MatvecSchedule.reads``), as the layer's
packed input does, and skips the duplication. A tall repeated matrix
(n_o > n_in) then takes n_in diagonals over n_o output slots instead of
the padded square. A single diagonal never wraps, so a one-row matrix is
never duplicated either.

Shared giant steps and folds: ``matvec_schedule(W, True, over=(p, L))``
runs W's block sum on another schedule's geometry, p diagonals over L
slots, with W zero-padded to p x L, and leaves it unfolded (``unfolded``).
It needs n_o <= p, n_in <= L, and the operand's period n_in dividing L
when p > 1, so that the diagonals that wrap past L read the same copies.
Both schedules then have the same (b, gs) split over the same p
diagonals, and a rotation is linear, so the sum over giant steps g of
rot(A_g, base_g) + rot(B_g, base_g) is that of rot(A_g + B_g, base_g)
(Halevi and Shoup's baby-step/giant-step identity). So the unfolded
schedule's ``run`` returns its gs giant blocks unrotated, paying its b - 1
baby rotations only, and ``run(ops, v, giants)`` of the schedule that lent
its geometry adds each to its own block of the same step before that
step's rotation. Its giant rotations and folds then finish both products:
slot r of the folded sum is row r of W's product plus row r of its own
(the hybrid method's fold sums every slot t = r mod p, and its diagonals
d < p cover every column of the p x L matrix once).

Permutation operand: a :class:`PermutationSpec` takes the square path with
its diagonals read from ``source_of`` (diagonal d is 1 where
``(source_of[t] - t) mod n == d``), so the dense n x n matrix is never
built. On the exact backend its block sum is one gather that reproduces the
dense kernel's bits, signed zeros included, and no diagonal is built. The
noisy backend's op-by-op run multiplies every diagonal, the all-zero ones
too, building one giant step's diagonals at a time, never all p of them.
The op counts are those of the op-by-op schedule either way.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bspline import PermutationSpec
from .errors import DimensionMismatch, InvalidArgument


def default_bsgs_split(n: int) -> tuple:
    """Baby/giant split (ceil(sqrt(n)), ceil(n / ceil(sqrt(n))))."""
    b = math.isqrt(n)
    if b * b < n:
        b += 1
    return b, math.ceil(n / b)


def _pad(W: np.ndarray, rows: int, cols: int) -> np.ndarray:
    if W.shape == (rows, cols):
        return W
    out = np.zeros((rows, cols))
    out[: W.shape[0], : W.shape[1]] = W
    return out


@dataclass(frozen=True)
class MatvecSchedule:
    """W @ v as p extended diagonals of L slots over an operand of period n.

    For the (r, n) matrix W, p = min(r, n), L = max(r, n) and
    diag_d[t] = W[t mod r, (t + d) mod n] for d < p and t < L; for a
    permutation operand, diag_d[t] = 1 where offset[t] == d. The operand
    is duplicated with period n so that rotations read wrapped coordinates,
    unless the schedule is ``repeated`` (the caller's operand is already
    periodic over the slots read) or has one diagonal (nothing wraps).
    Slot r' < r of the folded sum holds row r'; only slots [0, n_out) are
    promised, the others may hold partial sums. An ``unfolded`` schedule
    (a block sum on another schedule's geometry, see the module docstring)
    has neither giant rotations nor folds of its own.
    """

    W: np.ndarray | None  # (r, n): rows zero-padded to r, columns to the period n
    n_out: int
    offset: np.ndarray | None = None  # permutation operand (W is None): (source_of[t] - t) mod n
    repeated: bool = False
    unfolded: bool = False

    @property
    def shape(self) -> tuple:
        """(p, L): the diagonals multiplied, and the slots each spans."""
        if self.W is None:
            return self.offset.size, self.offset.size
        return min(self.W.shape), max(self.W.shape)

    @property
    def period(self) -> int:
        """n, the operand's period: the padded matrix's columns."""
        return self.offset.size if self.W is None else self.W.shape[1]

    @property
    def duplicates(self) -> bool:
        """Whether the block sum duplicates its operand first: only when
        the diagonals wrap (p > 1) and the operand is not repeated."""
        return not self.repeated and self.shape[0] > 1

    @property
    def reads(self) -> int:
        """Slots [0, L + p - 1) of the duplicated or repeated operand that
        the block sum reads."""
        p, L = self.shape
        return L + p - 1

    def diagonals(self, ds) -> np.ndarray:
        """Diagonals ds as the rows of one (len(ds), L) array: for a matrix
        operand, rows of the cached ``all_diagonals`` (for a range of ds, a
        read-only view, as the giant steps take them); for a permutation, a
        fresh array built from ``offset``."""
        if self.W is None:
            return (self.offset == np.asarray(ds)[:, None]).astype(float)
        if isinstance(ds, range) and ds.step == 1:
            return self.all_diagonals[ds.start:ds.stop]
        return self.all_diagonals[np.asarray(ds)]

    @cached_property
    def all_diagonals(self) -> np.ndarray:
        """The (p, L) diagonals of a matrix operand, built on first use and
        read-only: row d is diag_d."""
        (r, n), (p, L) = self.W.shape, self.shape
        t = np.arange(L)
        D = self.W[t % r, (t + np.arange(p)[:, None]) % n]
        D.setflags(write=False)
        return D

    @property
    def split(self) -> tuple:
        """(babies, giants) = default_bsgs_split(p) over the p diagonals.
        It always has b <= p <= b * giants, so every baby is used and the
        giant steps cover the diagonals exactly."""
        return default_bsgs_split(self.shape[0])

    def blocks(self):
        """Giant steps in order: (base, the diagonals base + i it sums)."""
        b, p = self.split[0], self.shape[0]
        for base in range(0, p, b):
            yield base, range(base, min(base + b, p))

    @property
    def folds(self) -> tuple:
        """Rotate-and-add shifts n/2, n/4, ..., r on the wide path (r < n
        rows); none otherwise, nor for an ``unfolded`` schedule."""
        if self.W is None or self.unfolded:
            return ()
        r, n = self.W.shape
        return tuple(n >> i for i in range(1, (n // r).bit_length()))

    @property
    def block_sum_counts(self) -> tuple:
        """(rotations, adds, pt_mults) of the op-by-op block sum, which
        HeBackend.run_block_sum charges: the wraparound duplication
        (``duplicates``) rotates and adds once, each baby step after the
        first rotates, and so does each giant step after the first, except
        in an ``unfolded`` schedule, whose giant blocks are handed on
        unrotated; the p diagonal products are summed by p - 1 adds, of
        which an unfolded schedule makes only the p - gs inside its giant
        steps."""
        p = self.shape[0]
        b, gs = self.split
        dup = self.duplicates
        if self.unfolded:
            return dup + b - 1, dup + p - gs, p
        return dup + (b - 1) + (gs - 1), dup + p - 1, p

    @property
    def rotations(self) -> int:
        """Rotations ``run`` performs: the block sum's, then the folds."""
        return self.block_sum_counts[0] + len(self.folds)

    @property
    def pt_mults(self) -> int:
        """Plaintext multiplies ``run`` performs: one per diagonal."""
        return self.block_sum_counts[2]

    def check_capacity(self, slot_count: int) -> None:
        """The single-ciphertext law: the period fits twice over when the
        wraparound duplication is needed (``duplicates``); otherwise the
        slots the block sum reads fit (``reads``: n for a one-row matrix).
        A repeated operand's copies are the caller's to fit
        (``inference.check_capacity``)."""
        n = self.period
        if self.duplicates:
            if 2 * n > slot_count:
                raise DimensionMismatch(f"diagonal wraparound needs 2 * {n} <= {slot_count} "
                                        "slots (single-ciphertext scope)")
        elif self.reads > slot_count:
            raise DimensionMismatch(f"the block sum reads {self.reads} slots, more than "
                                    f"{slot_count} (single-ciphertext scope)")

    def block_sum(self, x: np.ndarray, placed=None):
        """The giant steps, one array program each. Slot t < L of step
        base's block is sum_d x[t + d] * diag_d[t] (diag_d zero past n) over
        its diagonals, reduced in diagonal order, then plus ``placed``'s
        array of the same step if given (another block sum's giant block
        read into place, L slots): the block rotated into place. The result
        is the sum of the blocks in step order, or, for an ``unfolded``
        schedule, the list of blocks. x holds at least slots [0, L + p - 1)
        of the duplicated or repeated operand; the babies are rows of one
        sliding window over it, and a step computes its block's slots
        [base, base + L) only.

        A permutation operand (W is None) with nothing placed is one gather with
        the same bits. Column t's only nonzero diagonal is offset[t], so it
        is v = x[t + offset[t]] when v != 0. Otherwise every term is a
        signed zero, and the sum is -0.0 only if all of x[t : t + n] have
        the sign bit set. A non-finite x takes the dense loop, where inf * 0
        makes every column that reads it NaN.
        """
        L = self.shape[1]
        if self.W is None and placed is None:
            read = x[:2 * L - 1]
            if np.isfinite(read).all():
                t = np.arange(L)
                v = read[t + self.offset]
                signs = np.concatenate(([0], np.cumsum(np.signbit(read))))
                all_neg = signs[t + L] - signs[t] == L
                return np.where(v != 0, v, np.where(all_neg, -0.0, 0.0))
        rows = sliding_window_view(x, L)
        acc, unrotated = None, []
        for step, (base, diags) in enumerate(self.blocks()):
            terms = rows[base:base + len(diags)] * self.diagonals(diags)
            # numpy reduces axis 0 row by row, in the schedule's order; it
            # starts from the identity, and -0.0 + t0 == t0 keeps t0's sign
            block = np.add.reduce(terms, axis=0, initial=-0.0)
            if placed is not None:
                block = block + placed[step]
            if self.unfolded:
                unrotated.append(block)
            else:
                acc = block if acc is None else acc + block
        return unrotated if self.unfolded else acc

    def block_sum_ops(self, ops, a, giants=None):
        """The block sum op by op, on a ciphertext a before its duplication
        (``duplicates``): the baby rotations, then per giant step the babies
        times its diagonals shifted right by its base, summed in diagonal
        order, plus ``giants``' block of the same step if given, rotated
        left by the base and added to the sum. An ``unfolded`` schedule
        returns its giant blocks unrotated instead, as a tuple."""
        if self.duplicates:
            a = ops.add(a, ops.rotate(a, -self.period))
        babies = [ops.rotate(a, i) for i in range(self.split[0])]
        acc, unrotated = None, []
        for step, (base, diags) in enumerate(self.blocks()):
            block = None
            for baby, diag in zip(babies, self.diagonals(diags)):
                term = ops.mul(baby, np.concatenate((np.zeros(base), diag)))
                block = term if block is None else ops.add(block, term)
            if giants is not None:
                block = ops.add(block, giants[step])
            if self.unfolded:
                unrotated.append(block)
                continue
            block = ops.rotate(block, base)
            acc = block if acc is None else ops.add(acc, block)
        return tuple(unrotated) if self.unfolded else acc

    def run(self, ops, v, giants=None):
        """The schedule on v, run by ops: the block sum, each giant step's
        block plus ``giants``' block of the same step if given (the giant
        blocks of an unfolded block sum on this schedule's geometry, see
        the module docstring), then the folds (``ops.run_folds``). An
        ``unfolded`` schedule returns its giant blocks, unrotated, as a
        tuple: block i holds step i's sum in slots [base_i, base_i + L).
        v is zero past its n_in values, or repeated if the schedule is.
        Only slots [0, n_out) of the folded result are promised.
        DimensionMismatch unless giants has one block per giant step."""
        if giants is not None and len(giants) != self.split[1]:
            raise DimensionMismatch(f"{len(giants)} giant blocks for a schedule of "
                                    f"{self.split[1]} giant steps")
        acc = ops.run_block_sum(v, self, giants)
        return acc if self.unfolded else ops.run_folds(acc, self.folds)


# id(matrix) -> (weak reference to the matrix, {(repeated, over): its schedule}).
# Process-wide, since callers pass the matrix alone (bsgs_matvec(W, v)); it
# holds only schedules of matrices that cannot change, so no caller sees
# another's state.
_memo = {}


def _frozen(a) -> bool:
    """True when a is an array whose values cannot change: it and every
    array it views are non-writeable, down to memory it or bytes own."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return a is None or isinstance(a, bytes)


def matvec_schedule(W, repeated: bool = False, over: tuple | None = None) -> MatvecSchedule:
    """The schedule for W, chosen by its shape alone: one diagonal over
    the next power-of-two period for one row; wide when n_in = p * 2^j
    (j >= 1) with p >= n_o (smallest such p); with ``repeated``, n_in
    diagonals over n_o slots when tall (n_o > n_in); square otherwise. A
    PermutationSpec is square, with its diagonals read from ``source_of``.
    ``repeated`` says the operand is repeated with period n_in over the
    slots the block sum reads (see the module docstring). With ``over``,
    another schedule's ``shape`` (p, L), W's repeated block sum runs on
    that geometry and hands on its giant blocks unrotated and unfolded
    (shared giant steps and folds, see the module docstring);
    ``over`` needs ``repeated``, and a W that does not fit the geometry
    raises DimensionMismatch.

    A matrix that cannot change (``_frozen``, or a PermutationSpec over a
    frozen ``source_of``) gets the same schedule on every call, and so
    its diagonals are built once; the memo entry dies with the matrix.
    Any other W gets a new schedule per call."""
    if not _frozen(W.source_of if isinstance(W, PermutationSpec) else W):
        return _build_schedule(W, repeated, over)
    key = id(W)
    hit = _memo.get(key)
    if hit is None or hit[0]() is not W:
        hit = _memo[key] = (weakref.ref(W, _forget(key)), {})
    schedules, flavour = hit[1], (repeated, over)
    if flavour not in schedules:
        schedule = _build_schedule(W, repeated, over)
        if schedule.W is not None:
            # a shared schedule is read-only, and must not keep W alive
            own = schedule.W.copy() if np.may_share_memory(schedule.W, W) else schedule.W
            own.setflags(write=False)
            schedule = replace(schedule, W=own)
        schedules[flavour] = schedule
    return schedules[flavour]


def _forget(key: int):
    """The weak reference's callback: drop the memo entry of a dead matrix.
    It holds the memo itself: at interpreter exit the module's globals may
    be gone."""
    memo = _memo
    return lambda ref: memo.pop(key, None)


def _build_schedule(W, repeated: bool, over: tuple | None) -> MatvecSchedule:
    if isinstance(W, PermutationSpec):
        n = W.size
        return MatvecSchedule(None, n, (W.source_of - np.arange(n)) % n, repeated)
    W = np.atleast_2d(np.asarray(W, dtype=float))
    if W.ndim != 2 or 0 in W.shape:
        raise DimensionMismatch(f"W must be a non-empty matrix, got shape {W.shape}")
    n_o, n_in = W.shape
    if over is not None:
        p, L = over
        if not repeated:
            raise InvalidArgument("a block sum on another geometry needs a repeated operand")
        if n_o > p or n_in > L or (p > 1 and L % n_in):
            raise DimensionMismatch(f"a {n_o} x {n_in} matrix does not fit {p} diagonals "
                                    f"of {L} slots")
        return MatvecSchedule(_pad(W, p, L), n_o, repeated=True, unfolded=True)
    if n_o == 1:
        n_in = 1 << (n_in - 1).bit_length()  # the wide path below takes p = 1
    elif repeated and n_o > n_in:
        return MatvecSchedule(W, n_o, repeated=True)
    p = n_in
    while p % 2 == 0 and p // 2 >= n_o:
        p //= 2
    if p < n_in:
        W = _pad(W, p, n_in)
    else:
        p = max(n_o, n_in)
        W = _pad(W, p, p)
    return MatvecSchedule(W, n_o, repeated=repeated)
