"""Diagonal-method matrix-vector products: one schedule, two executors.

A :class:`MatvecSchedule` fixes every term of ``W @ v``: the extended
diagonals, the baby-step/giant-step order in which their products are
summed, and the rotate-and-add folds that finish a wide matrix.
``run_he`` executes it on a ciphertext and ``run_clear`` on a cleartext
vector. Both sum the same products in the same order, so the mirrored
forward reproduces the encrypted result bit for bit on the exact backend.

Square path (Halevi-Shoup): W is zero-padded to m x m, m = max(n_o, n_in),
and all m diagonals are multiplied. Wide path (GAZELLE's hybrid method):
when n_o < n_in = p * 2^j with p >= n_o and j >= 1, only p extended
diagonals of length n_in are multiplied and log2(n_in / p) folds add the
partial rows together. The choice depends on the shape alone, so a caller
without a slot count (the mirror) makes the same one.

Permutation operand: a :class:`PermutationSpec` takes the square path with
its diagonals read from ``source_of`` (diagonal d is 1 where
``(source_of[t] - t) mod n == d``), so the dense n x n matrix is never
built. Every diagonal is still multiplied, the all-zero ones too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .backend import CipherText, PlainVector
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

    def diagonal(self, d: int) -> np.ndarray:
        if self.W is None:
            return (self.offset == d).astype(float)
        p, n = self.W.shape
        t = np.arange(n)
        return self.W[t % p, (t + d) % n]

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

    def run_he(self, v: CipherText) -> CipherText:
        """Encrypted executor: v holds the operand in its first n_in slots
        and zeros in the rest. One level; p plaintext multiplies."""
        be = v.backend
        S = be.config.slot_count
        n = self.shape[1]
        if n > S:
            raise DimensionMismatch(f"matrix dimension {n} exceeds {S} slots")
        if n > 1 and 2 * n > S:
            raise DimensionMismatch(
                f"diagonal wraparound needs 2 * {n} <= {S} slots (single-ciphertext scope)")
        vfull = be.add(v, be.rotate(v, -n)) if n > 1 else v
        babies = [be.rotate(vfull, i) for i in range(self.split[0])]
        acc = None
        for base, diags in self.blocks():
            block = None
            for d in diags:
                term = be.mul(babies[d - base], PlainVector(self.diagonal(d), base))
                block = term if block is None else be.add(block, term)
            rotated = be.rotate(block, base)
            acc = rotated if acc is None else be.add(acc, rotated)
        for shift in self.folds:
            acc = be.add(acc, be.rotate(acc, shift))
        return acc

    def run_clear(self, v: np.ndarray) -> np.ndarray:
        """Cleartext executor: the same products summed in the same order;
        returns the n_out valid outputs."""
        n = self.shape[1]
        vfull = np.zeros(2 * n)
        vfull[: v.size] = v
        vfull[n:] = vfull[:n]
        t = np.arange(n)
        acc = None
        for _, diags in self.blocks():
            block = None
            for d in diags:
                term = vfull[t + d] * self.diagonal(d)
                block = term if block is None else block + term
            acc = block if acc is None else acc + block
        for shift in self.folds:
            acc = acc[:shift] + acc[shift:2 * shift]
        return acc[: self.n_out]


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
