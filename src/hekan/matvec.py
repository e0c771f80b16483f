"""Diagonal-method matrix-vector products: one schedule, two ops adapters.

A :class:`MatvecSchedule` fixes every term of ``W @ v``: the extended
diagonals, the baby-step/giant-step order in which their products are
summed, and the rotate-and-add folds that finish a wide matrix. ``run``
is its one program, the block sum and then the folds; ``run_he`` passes
the backend as ``ops`` and ``run_clear`` the mirror's array adapter. Both
block sums run one kernel, ``block_sum``: each giant step is one array
program that multiplies the step's babies (rows of a sliding window over
the duplicated operand) by the step's diagonals and reduces them in
diagonal order. So the mirrored forward reproduces the encrypted result
bit for bit on the exact backend. ``HeBackend.run_block_sum`` counts the
rotations, plaintext multiplies and adds of the op-by-op schedule, spends
its one level and draws its noise.

Square path (Halevi-Shoup): W is zero-padded to m x m, m = max(n_o, n_in),
and all m diagonals are multiplied. Wide path (GAZELLE's hybrid method):
when n_o < n_in = p * 2^j with p >= n_o and j >= 1, only p extended
diagonals of length n_in are multiplied and log2(n_in / p) folds add the
partial rows together. The choice depends on the shape alone, so a caller
without a slot count (the mirror) makes the same one.

Permutation operand: a :class:`PermutationSpec` takes the square path with
its diagonals read from ``source_of`` (diagonal d is 1 where
``(source_of[t] - t) mod n == d``), so the dense n x n matrix is never
built. Every diagonal is still multiplied, the all-zero ones too. The
kernel builds one giant step's diagonals at a time, never all p of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .approx import _ArrayOps
from .backend import CipherText
from .bspline import PermutationSpec
from .errors import DimensionMismatch


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
    """W @ v as p extended diagonals over a period of n slots.

    diag_d[t] = W[t mod p, (t + d) mod n] for d < p and t < n; for a
    permutation operand, diag_d[t] = 1 where offset[t] == d. The operand
    is duplicated with period n so that rotations read wrapped coordinates.
    Slot r < p of the folded sum holds row r; only slots [0, n_out) are
    promised, the others may hold partial sums.
    """

    W: np.ndarray | None  # (p, n): rows zero-padded to p; square path also pads columns
    n_out: int
    offset: np.ndarray | None = None  # permutation operand (W is None): (source_of[t] - t) mod n

    @property
    def shape(self) -> tuple:
        """(p, n): the diagonals multiplied, and the period they span."""
        if self.W is None:
            return self.offset.size, self.offset.size
        return self.W.shape

    def diagonals(self, ds) -> np.ndarray:
        """Diagonals ds as the rows of one (len(ds), n) array."""
        p, n = self.shape
        d = np.asarray(ds)[:, None]
        if self.W is None:
            return (self.offset == d).astype(float)
        t = np.arange(n)
        return self.W[t % p, (t + d) % n]

    def diagonal(self, d: int) -> np.ndarray:
        return self.diagonals([d])[0]

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
        """Rotate-and-add shifts n/2, n/4, ..., p (none on the square path)."""
        p, n = self.shape
        return tuple(n >> i for i in range(1, (n // p).bit_length()))

    @property
    def rotations(self) -> int:
        """Rotations run_he performs: the wraparound duplication, the
        babies after the first, the giant steps after the first, the folds."""
        b, gs = self.split
        return (self.shape[1] > 1) + (b - 1) + (gs - 1) + len(self.folds)

    @property
    def pt_mults(self) -> int:
        """Plaintext multiplies run_he performs: one per diagonal."""
        return self.shape[0]

    def check_capacity(self, slot_count: int) -> None:
        """The single-ciphertext law: the period fits in the slots, twice
        over when the wraparound duplication is needed (n > 1)."""
        n = self.shape[1]
        if n > slot_count:
            raise DimensionMismatch(f"matrix dimension {n} exceeds {slot_count} slots")
        if n > 1 and 2 * n > slot_count:
            raise DimensionMismatch(f"diagonal wraparound needs 2 * {n} <= {slot_count} "
                                    "slots (single-ciphertext scope)")

    def block_sum(self, x: np.ndarray, width: int, draw=None) -> np.ndarray:
        """The giant steps, one array program each. Slot t < width of the
        result is the sum over giant steps, in order, of
        sum_d x[t + d] * diag_d[t] (diag_d zero past n), each step's terms
        reduced in diagonal order: the block sum rotated into place. x holds
        at least slots [0, width + p - 1) of the duplicated operand; the
        babies are rows of one sliding window over it.

        With width == n a step computes its block's slots [base, base + n)
        only, which its rotation by base moves to [0, n). A wider window (a
        noisy backend: width = slot_count) computes the block's slots from 0,
        where its noise lands, then rotates the step's sum by base. With
        ``draw``, every op of the op-by-op schedule gets its noise: draw(k)
        returns k rows, in the order the ops draw them. A step draws its
        products and adds interleaved (t0, t1, a1, t2, a2, ...); the add
        into the sum draws one more.
        """
        rows = sliding_window_view(x, width)
        acc = None
        for base, diags in self.blocks():
            block = self._giant_step(rows, base, diags, draw)
            if acc is None:
                acc = block
            else:
                acc = acc + block
                if draw is not None:
                    acc += draw(1)[0]
        return acc

    def _giant_step(self, rows, base: int, diags: range, draw) -> np.ndarray:
        """One giant step's block sum, rotated by base (see block_sum)."""
        n = self.shape[1]
        width = rows.shape[1]
        start = base if width == n else 0
        D = self.diagonals(diags)
        if width > n:
            D = np.pad(D, ((0, 0), (base, width - n - base)))
        terms = np.multiply(rows[start:start + len(diags)], D, out=D)  # D is a fresh array
        if draw is not None:
            # rows t0 + n0, t1 + n1, n2, t2 + n3, n4, ...: one reduce in row
            # order then sums the perturbed products and adds
            noisy = draw(2 * len(diags) - 1)
            noisy[0] += terms[0]
            noisy[1::2] += terms[1:]
            terms = noisy
        # numpy reduces axis 0 row by row, in the schedule's order; it starts
        # from the identity, and -0.0 + t0 == t0 keeps t0's sign
        block = np.add.reduce(terms, axis=0, initial=-0.0)
        return block if start == base else np.roll(block, start - base)

    def run(self, ops, v):
        """The schedule on v, run by ops: the block sum, then the folds."""
        acc = ops.run_block_sum(v, self)
        for shift in self.folds:
            acc = ops.add(acc, ops.rotate(acc, shift))
        return acc

    def run_he(self, v: CipherText) -> CipherText:
        """Encrypted executor: v holds the operand in its first n_in slots
        and zeros in the rest. One level; p plaintext multiplies. On the
        exact backend the block sum is the window [0, n) over a zero tail;
        only slots [0, n_out) of the result are promised."""
        be = v.backend
        self.check_capacity(be.config.slot_count)
        return self.run(be, v)

    def run_clear(self, v: np.ndarray) -> np.ndarray:
        """Cleartext executor: the same program on arrays; returns the
        n_out valid outputs."""
        return self.run(_ArrayOps(v), v)[: self.n_out]


def matvec_schedule(W) -> MatvecSchedule:
    """The schedule for W, chosen by its shape alone: wide when
    n_in = p * 2^j (j >= 1) with p >= n_o (smallest such p), square
    otherwise. A PermutationSpec is square, with its diagonals read from
    ``source_of``."""
    if isinstance(W, PermutationSpec):
        n = W.size
        return MatvecSchedule(None, n, (W.source_of - np.arange(n)) % n)
    W = np.atleast_2d(np.asarray(W, dtype=float))
    n_o, n_in = W.shape
    p = n_in
    while p % 2 == 0 and p // 2 >= n_o:
        p //= 2
    if p < n_in:
        W = _pad(W, p, n_in)
    else:
        p = max(n_o, n_in)
        W = _pad(W, p, p)
    return MatvecSchedule(W, n_o)
