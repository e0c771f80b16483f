"""Diagonal-method matrix-vector products: one schedule, two ops adapters.

A :class:`MatvecSchedule` fixes every term of ``W @ v``: the extended
diagonals, the baby-step/giant-step order in which their products are
summed, and the rotate-and-add folds that finish a wide matrix. ``run``
is its one program, the block sum and then the folds; the encrypted
forward passes the backend as ``ops``, the mirror its array adapter
(``inference.bsgs_matvec`` picks one by ``backend._ops_of``). The mirror
and the exact backend run one block-sum kernel, ``block_sum``, each
reading its operand through its own slot reader: each giant step is one
array program that multiplies the step's babies (the rows of one strided
view of the duplicated or repeated operand, row d starting d slots on, a
view that costs no copy) by the step's diagonals
and reduces them in diagonal order. So the mirrored forward
reproduces the encrypted result bit for bit on the exact backend, where
``HeBackend.run_block_sum`` checks the slot capacity (``check_capacity``),
charges the op-by-op schedule's counts (``block_sum_counts``) and spends
its one level. A noisy backend runs the schedule op by op
(``block_sum_ops``), so each op draws its own noise.

Built once: a schedule computes its matrix's p diagonals on first use and
keeps them, read-only, for every later giant step. ``matvec_schedule`` is a
plain builder, a new schedule per call; a caller that multiplies by the
same matrix again keeps the schedule (a layer keeps its own in its
``inference.LayerLayout``), and ``bsgs_matvec`` builds one per call when
given none. A schedule is settled when it is built: each branch of
``matvec_schedule`` states its form's (p, L), period and folds, and one
constructor, ``_settled``, works out the split, the duplication, the
slots read and needed and the block sum's counts from them, once, as the
schedule's fields (``rotations`` and ``pt_mults`` read them). Only the
diagonals wait until it runs, so a caller costs a candidate by building
its schedule: ``inference._layout`` costs every candidate geometry that
way and keeps the schedules it chooses.

Square path (Halevi-Shoup): W is zero-padded to m x m, m = max(n_o, n_in),
and all m diagonals are multiplied. Wide path (GAZELLE's hybrid method):
when n_o < n_in = p * 2^j with p >= n_o and j >= 1, only p extended
diagonals of length n_in are multiplied and log2(n_in / p) folds add the
partial rows together. A one-row matrix takes the wide path with p = 1
over its columns zero-padded to the next power of two. The choice depends
on the shape alone, so a caller without a slot count (the mirror) makes
the same one.

Front-padded form (``matvec_schedule(W, front=(p, L))``): a second wide
schedule, for any p >= n_o. W is zero-padded to p rows and L = p * 2^j >=
n_in + p - 1 columns, and its diagonals are d = 0, -1, ..., -(p - 1),
diag_d[t] = W[t mod p, t + d]: every product reads the operand's own
slots or its zero tail below slot 0, so nothing wraps and the operand is
not duplicated. Its babies are rotate(x, -i); giant step s rotates right
by s * b, so step 0 is free, and multiplies the diagonals from slot s * b
on. It costs (b - 1) + (gs - 1) + log2(L / p) rotations and p plaintext
multiplies, and reads L + p - 1 slots, its zero front included.

Operand contracts: by default the operand holds its n_in values over
zeros, and the block sum duplicates it (one rotation and one add) so that
the diagonals can wrap. A repeated schedule
(``matvec_schedule(W, repeated=True)``) takes an operand that already
repeats with period n_in, as the layer's packed input does, and skips the
duplication. The slots each reads are stated once, in
``MatvecSchedule.block_sum``; ``inference.bsgs_matvec`` checks the layout
a ciphertext states against them before any op. A tall repeated matrix
(n_o > n_in) takes n_in diagonals over n_o output slots instead of the
padded square. A single diagonal never wraps, so a one-row matrix is
never duplicated either, and the front-padded form reads the zero-tail
operand's zeros below slot 0 instead of a duplicate.

Shared giant steps and folds: ``matvec_schedule(W, True, over)`` runs
W's block sum on the ``geometry`` (p, L, front) of another schedule that
folds to its p rows (wide in either form, or square with no folds) and
leaves it unfolded (``unfolded``). W's operand repeats with period n =
n_in, and the folds add every slot t = r mod p of [0, L) into slot r, so
by the Chinese remainder theorem slot t < l = lcm(p, n) may pair row
t mod p with column t mod n: W takes g = gcd(p, n) diagonals of l slots,
diag_d[t] = W[t mod p, (t + d) mod n] with rows past n_o zero, and each
W[r, c] is read once, on diagonal (c - r) mod g. It needs p dividing L
with L / p a power of two (the folds), n_o <= p and l <= L. Its giant
steps take the lending schedule's b babies, or g when fewer, so its
ceil(g / b) giant blocks have the bases of that schedule's first giant
steps, and a rotation is linear, so the sum over steps s of
rot(A_s, base_s) + rot(B_s, base_s) is that of rot(A_s + B_s, base_s)
(Halevi and Shoup's baby-step/giant-step identity). A front-padded
lender's giant steps rotate the other way, so on its geometry W takes all
g babies in one giant step, whose block lands in step 0, which no
rotation moves. So the unfolded schedule's ``run`` returns its giant
blocks unrotated, paying its baby rotations and g plaintext multiplies
only, paired with the geometry they were built on, and
``run(ops, v, giants)`` of the lending schedule, after checking that
geometry against its own, adds each to its own block of the same step
before that step's rotation. Its giant rotations and folds then finish
both products: slot r of the folded sum is row r of W's product plus row
r of its own.

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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .backend import _folds
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
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class MatvecSchedule:
    """W @ v as p extended diagonals of L slots over an operand of period n.

    ``matvec_schedule`` settles every field: for the (r, n) matrix W,
    diag_d[t] = W[t mod r, (t + d) mod n] for d < p and t < L; for a
    permutation operand, diag_d[t] = 1 where offset[t] == d. The operand
    is duplicated with period n so that rotations read wrapped coordinates,
    unless the schedule is ``repeated`` (the caller's operand is already
    periodic over the slots read), has one diagonal (nothing wraps) or is
    ``front``-padded: W zero-padded to p x L and its diagonals negated,
    diag_d[t] = W[t mod p, (t - d) mod L], read over the zero tail below
    slot 0 (see the module docstring).
    Slot r' < r of the folded sum holds row r'; only slots [0, n_out) are
    promised, the others may hold partial sums. An ``unfolded`` schedule
    (a block sum on another schedule's geometry, see the module docstring)
    holds W with its rows zero-padded to that geometry's p; it multiplies
    gcd(p, n) diagonals of lcm(p, n) slots by the same formula, and has
    neither giant rotations nor folds of its own.
    """

    # (r, n): rows zero-padded to r, columns to the period n; the front-padded
    # form holds W as given and pads it to (p, L) only to build its diagonals
    W: np.ndarray | None
    n_out: int
    shape: tuple  # (p, L): the diagonals multiplied, and the slots each spans
    period: int  # n, the operand's period
    split: tuple  # (babies, giants), b <= p <= b * giants: see ``_settled``
    folds: tuple  # rotate-and-add shifts L/2, L/4, ..., p; none unless wide
    duplicates: bool  # whether the block sum duplicates its operand first
    reads: int  # the slots the block sum reads, L + p - 1 (``block_sum``)
    slots: int  # the fewest slots ``check_capacity`` accepts
    block_sum_counts: tuple  # (rotations, adds, pt_mults) of the op-by-op block sum
    offset: np.ndarray | None = None  # permutation operand (W is None): (source_of[t] - t) mod n
    repeated: bool = False
    front: bool = False  # the front-padded form: diagonals 0, -1, ..., 1 - p
    over: tuple | None = None  # an unfolded block sum: its lender's ``geometry``

    @property
    def unfolded(self) -> bool:
        """Whether this is a block sum on another schedule's geometry."""
        return self.over is not None

    @property
    def geometry(self) -> tuple:
        """(p, L, front): the shape and the operand form another block sum
        needs to hand this schedule its giant blocks."""
        return (*self.shape, self.front)

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
        read-only: row d is diag_d, or diag_-d in the ``front`` form."""
        p, L = self.shape
        W = _pad(self.W, p, L) if self.front else self.W
        r, n = W.shape
        t = np.arange(L)
        D = W[t % r, (t + self.sign * np.arange(p)[:, None]) % n]
        D.setflags(write=False)
        return D

    @property
    def sign(self) -> int:
        """The direction of the diagonals, the babies and the giant steps:
        -1 in the ``front`` form (rotations right), else 1 (left)."""
        return -1 if self.front else 1

    def blocks(self):
        """Giant steps in order: (base, the diagonals base + i it sums)."""
        b, p = self.split[0], self.shape[0]
        for base in range(0, p, b):
            yield base, range(base, min(base + b, p))

    @property
    def rotations(self) -> int:
        """Rotations ``run`` performs: the block sum's, then the folds."""
        return self.block_sum_counts[0] + len(self.folds)

    @property
    def pt_mults(self) -> int:
        """Plaintext multiplies ``run`` performs: one per diagonal."""
        return self.block_sum_counts[2]

    def check_capacity(self, slot_count: int) -> None:
        """The single-ciphertext law, ``slots`` <= slot_count: the period
        fits twice over when the wraparound duplication is needed
        (``duplicates``); otherwise the slots the block sum reads fit
        (``reads``: n for a one-row matrix, and in the ``front`` form its
        zero front too, so that the front never meets slots [0, L)). A
        repeated operand's copies are the caller's to fit
        (``inference.check_capacity``)."""
        if self.slots <= slot_count:
            return
        if self.duplicates:
            raise DimensionMismatch(f"diagonal wraparound needs 2 * {self.period} <= "
                                    f"{slot_count} slots (single-ciphertext scope)")
        raise DimensionMismatch(f"the block sum reads {self.reads} slots, more than "
                                f"{slot_count} (single-ciphertext scope)")

    def block_sum(self, read, v, giants=None):
        """The block sum on v, one array program per giant step; the one
        statement of the slots it reads, through ``read(a, s, m)``, the
        executor's reader of slots s .. s + m - 1 of a (``backend._read``
        for a ciphertext, ``backend._slice`` for the mirror's array, over
        a zero tail):

        - x, v's ``reads`` = L + p - 1 slots from slot 0, or from slot
          1 - p in the ``front`` form (so that with v zero below slot 0,
          x holds p - 1 zeros, then v), plus v's slots [-n, reads - n)
          when the schedule ``duplicates`` (n the period), so that with v
          zero past n, x holds v and its copy n slots on;
        - each of ``giants``' blocks, when given (another block sum's
          giant blocks, one for each of the first giant steps, see the
          module docstring), at its step's base: slots [base, base + L).

        Slot t < L of step base's block is sum_d v[t + s d] * diag_d[t]
        over its diagonals (s the ``sign``; diag_d zero past n), reduced
        in diagonal order, then plus the giant block of the same step: the
        block rotated into place. The result is the sum of the blocks in
        step order, or, for an ``unfolded`` schedule, the list of blocks,
        each of L slots. The babies are the rows of one strided view of x,
        row d its slots [d, d + L), and a step computes its block's slots
        [0, L) only.

        A permutation operand (W is None) with no giants is one gather with
        the same bits. Column t's only nonzero diagonal is offset[t], so it
        is h = x[t + offset[t]] when h != 0. Otherwise every term is a
        signed zero, and the sum is -0.0 only if all of x[t : t + n] have
        the sign bit set. A non-finite x takes the dense loop, where inf * 0
        makes every column that reads it NaN.
        """
        m, (p, L) = self.reads, self.shape
        x = read(v, 1 - p if self.front else 0, m)
        if self.duplicates:
            x = x + read(v, -self.period, m)
        placed = [read(g, base, L) for g, (base, _) in zip(giants or (), self.blocks())]
        if self.W is None and not placed:
            if np.isfinite(x).all():  # x is [0, 2n - 1): p = L = n
                t = np.arange(L)
                hit = x[t + self.offset]
                signs = np.concatenate(([0], np.cumsum(np.signbit(x))))
                all_neg = signs[t + L] - signs[t] == L
                return np.where(hit != 0, hit, np.where(all_neg, -0.0, 0.0))
        # row d, x's slots [d, d + L), reads v[t + s d]: a read-only view
        # over the fresh, contiguous x, built in O(1)
        rows = np.ndarray((x.size - L + 1, L), x.dtype, x, 0, x.strides * 2)[::self.sign]
        rows.setflags(write=False)
        acc, unrotated = None, []
        for step, (base, diags) in enumerate(self.blocks()):
            terms = rows[base:base + len(diags)] * self.diagonals(diags)
            # numpy reduces axis 0 row by row, in the schedule's order; it
            # starts from the identity, and -0.0 + t0 == t0 keeps t0's sign
            block = np.add.reduce(terms, axis=0, initial=-0.0)
            if step < len(placed):
                block = block + placed[step]
            if self.unfolded:
                unrotated.append(block)
            else:
                acc = block if acc is None else acc + block
        return unrotated if self.unfolded else acc

    def block_sum_ops(self, ops, a, giants=None):
        """The block sum op by op, on a ciphertext a before its duplication
        (``duplicates``): the baby rotations (left by i, or right in the
        ``front`` form), then per giant step the babies times its
        diagonals shifted right by its base (left in the front form),
        summed in diagonal order, plus ``giants``' block of the same step
        if any, rotated left by the base (right in the front form) and
        added to the sum. An ``unfolded`` schedule returns its giant
        blocks unrotated instead, as a tuple."""
        if self.duplicates:
            a = ops.add(a, ops.rotate(a, -self.period))
        s = self.sign
        babies = [ops.rotate(a, s * i) for i in range(self.split[0])]
        acc, unrotated = None, []
        for step, (base, diags) in enumerate(self.blocks()):
            block = None
            for baby, diag in zip(babies, self.diagonals(diags)):
                plain = diag[base:] if self.front else np.concatenate((np.zeros(base), diag))
                term = ops.mul(baby, plain)
                block = term if block is None else ops.add(block, term)
            if step < len(giants or ()):
                block = ops.add(block, giants[step])
            if self.unfolded:
                unrotated.append(block)
                continue
            block = ops.rotate(block, s * base)
            acc = block if acc is None else ops.add(acc, block)
        return tuple(unrotated) if self.unfolded else acc

    def run(self, ops, v, giants=None):
        """The schedule on v, run by ops: the block sum, each of the first
        giant steps' blocks plus the giant block of the same step if
        ``giants`` are given, then the folds, one window program of reach
        sum(folds) (``ops.run_on_window`` of ``backend._folds``). An
        ``unfolded`` schedule returns the pair (blocks, ``over``): its
        giant blocks, unrotated, as a tuple (block i holds step i's sum
        in slots [base_i, base_i + L)) and the geometry they were built
        on, which is what ``giants`` takes (see the module docstring). v
        is zero past its n_in values, or repeated if the schedule is. Only
        slots [0, n_out) of the folded result are promised. Raised before
        any op, when giants are given: DimensionMismatch unless this
        schedule's folds end at its p rows (wide, or square; not tall, nor
        unfolded itself), unless the blocks were built on this schedule's
        ``geometry``, and unless there are no more of them than giant
        steps."""
        blocks = None
        if giants is not None:
            blocks, built_on = giants
            if self.unfolded or self.n_out > self.shape[0]:
                raise DimensionMismatch("giant blocks need a wide or square schedule, not "
                                        + ("an unfolded" if self.unfolded else "a tall") + " one")
            if tuple(built_on) != self.geometry:
                raise DimensionMismatch(f"giant blocks built on (p, L, front) = {built_on} "
                                        f"for a schedule of geometry {self.geometry}")
            if len(blocks) > self.split[1]:
                raise DimensionMismatch(f"{len(blocks)} giant blocks for a schedule of "
                                        f"{self.split[1]} giant steps")
        acc = ops.run_block_sum(v, self, blocks)
        if self.unfolded:
            return acc, self.over
        folds = self.folds
        if not folds:
            return acc
        return ops.run_on_window(lambda w, a: _folds(w, a, folds), acc, reach=sum(folds))


def _folds_to(p: int, L: int) -> bool:
    """Whether log2(L / p) folds take L slots to p rows: p >= 1 divides L
    and L / p is a power of two."""
    ratio = L // p if p >= 1 and L % p == 0 else 0
    return ratio >= 1 and not ratio & (ratio - 1)


def _halvings(p: int, L: int) -> tuple:
    """The folds from L slots to p rows: shifts L/2, L/4, ..., p."""
    return tuple(L >> i for i in range(1, (L // p).bit_length()))


def _settled(W, n_out, p, L, period, folds=(), offset=None, repeated=False, front=False,
             over=None) -> MatvecSchedule:
    """The schedule of one form, its (p, L), period and folds as its
    branch of ``matvec_schedule`` decided them, with the rest worked out
    here once. The split is (babies, giants) = default_bsgs_split(p),
    except for an unfolded schedule, which takes the babies of its
    lender's geometry (default_bsgs_split of the lender's p), or p when
    fewer, and the giant steps they need; on a front geometry, whose
    giant steps rotate the other way, all p babies and one giant step.
    The block sum duplicates its operand only when the diagonals wrap
    (p > 1) and the operand is neither repeated nor read with a zero
    front; it reads L + p - 1 slots (of the front-padded operand from
    slot 1 - p, its zero tail below slot 0 first), and the fewest slots
    that hold it are the period twice over when it duplicates, else its
    reads. Its op-by-op counts (rotations, adds, pt_mults), which
    HeBackend.run_block_sum charges: the duplication rotates and adds
    once, each baby step after the first rotates, and so does each giant
    step after the first, except in an unfolded schedule, whose giant
    blocks are handed on unrotated; the p diagonal products are summed
    by p - 1 adds, of which an unfolded schedule makes only the p - gs
    inside its giant steps."""
    if over is None:
        b, gs = default_bsgs_split(p)
    else:
        b = p if over[2] else min(default_bsgs_split(over[0])[0], p)
        gs = -(-p // b)
    dup = not (repeated or front) and p > 1
    reads = L + p - 1
    counts = ((dup + b - 1, dup + p - gs, p) if over else
              (dup + (b - 1) + (gs - 1), dup + p - 1, p))
    return MatvecSchedule(W, n_out, (p, L), period, (b, gs), folds, dup, reads,
                          2 * period if dup else reads, counts, offset, repeated, front, over)


def matvec_schedule(W, repeated: bool = False, over: tuple | None = None,
                    front: tuple | None = None) -> MatvecSchedule:
    """A new schedule for W, chosen by its shape alone: one diagonal over
    the next power-of-two period for one row; wide when n_in = p * 2^j
    (j >= 1) with p >= n_o (smallest such p); with ``repeated``, n_in
    diagonals over n_o slots when tall (n_o > n_in); square otherwise. A
    PermutationSpec is square, with its diagonals read from ``source_of``.
    ``repeated`` says the operand is repeated with period n_in over the
    slots the block sum reads (see the module docstring). Each branch
    states its form's (p, L), period and folds, and ``_settled`` the rest.

    With ``front`` = (p, L), the front-padded wide form instead: W
    zero-padded to p x L, p diagonals 0, -1, ..., -(p - 1) over a
    zero-tail operand (see the module docstring). It needs n_o <= p, L / p
    a power of two and L >= n_in + p - 1 (DimensionMismatch), and an
    operand that is not repeated (InvalidArgument).

    With ``over``, the ``geometry`` (p, L, front) of a schedule that
    folds to its p rows ((p, L) reads as (p, L, False)), W's repeated
    block sum runs on that geometry, gcd(p, n_in) diagonals of
    lcm(p, n_in) slots, and hands on its giant blocks unrotated and
    unfolded (shared giant steps and folds, see the module docstring).
    ``over`` needs ``repeated`` (InvalidArgument), and DimensionMismatch
    is raised unless p divides L, L / p is a power of two, n_o <= p and
    lcm(p, n_in) <= L.

    The schedule holds W itself when W needs no padding, and the
    front-padded form always, so W must not change while the schedule is
    kept (a layer's matrices are read-only); a padded copy is made
    read-only here."""
    if isinstance(W, PermutationSpec):
        n = W.size
        return _settled(None, n, n, n, n, offset=(W.source_of - np.arange(n)) % n,
                        repeated=repeated)
    W = np.atleast_2d(np.asarray(W, dtype=float))
    if W.ndim != 2 or 0 in W.shape:
        raise DimensionMismatch(f"W must be a non-empty matrix, got shape {W.shape}")
    n_o, n_in = W.shape
    if over is not None:
        p, L, *form = over
        if not repeated:
            raise InvalidArgument("a block sum on another geometry needs a repeated operand")
        if not _folds_to(p, L) or n_o > p or math.lcm(p, n_in) > L:
            raise DimensionMismatch(f"a {n_o} x {n_in} matrix does not fit {p} diagonals "
                                    f"of {L} slots folded to {p}")
        return _settled(_pad(W, p, n_in), n_o, math.gcd(p, n_in), math.lcm(p, n_in), n_in,
                        repeated=True, over=(p, L, bool(form and form[0])))
    if front is not None:
        p, L = front
        if repeated:
            raise InvalidArgument("the front-padded form reads a zero tail, not a repeated "
                                  "operand")
        if not _folds_to(p, L) or n_o > p or L < n_in + p - 1:
            raise DimensionMismatch(f"a {n_o} x {n_in} matrix does not fit {p} diagonals "
                                    f"of {L} slots behind a zero front")
        return _settled(W, n_o, p, L, n_in, _halvings(p, L), front=True)
    if n_o == 1:
        n_in = 1 << (n_in - 1).bit_length()  # the wide path below takes p = 1
    elif repeated and n_o > n_in:
        return _settled(W, n_o, n_in, n_o, n_in, repeated=True)
    p = n_in
    while p % 2 == 0 and p // 2 >= n_o:
        p //= 2
    if p < n_in:
        return _settled(_pad(W, p, n_in), n_o, p, n_in, n_in, _halvings(p, n_in),
                        repeated=repeated)
    m = max(n_o, n_in)
    return _settled(_pad(W, m, m), n_o, m, m, m, repeated=repeated)
