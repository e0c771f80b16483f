"""Functional model of a leveled SIMD homomorphic-encryption scheme.

Ciphertexts are fixed-width slot vectors with a remaining multiplicative
level. All arithmetic is slot-wise; rotation is cyclic. One backend,
:class:`HeBackend`, simulates the scheme: with ``noise_std == 0`` its
arithmetic is exact, otherwise every operation and encryption adds
N(0, noise_std) to each slot, drawn from ``rng_seed``. The backend is a
swappable contract so a real scheme can be substituted behind the same
semantics.

Representation: a ciphertext stores a cyclic window of slots (``start``
and the window's values ``data``) over a constant ``tail`` that every
other slot holds. A rotation moves ``start`` only; a slot-wise op computes
over the smallest cyclic window covering both operands and combines the
two tails, so it costs O(window), not O(slot_count). Invariant: every slot
is bit-identical to the same arithmetic on dense slot_count-long vectors,
since each slot sees the same float operation on the same operands.
Windows never shrink (``x * 0`` keeps the sign of ``x``, ``inf * 0`` is
NaN). A plaintext operand is an array, which fills slots [0, len) over a
zero tail, or a scalar, an empty window whose tail is the scalar. A noisy
backend perturbs every slot, so its results are full windows.

Polynomial schedules run through :meth:`HeBackend.run_on_window`: the
whole schedule is one numpy program over the input's window with its tail
appended, instead of one ``slotwise`` call per operation. It multiplies
and adds only ciphertexts derived from the input and scalars, so every
intermediate keeps the input's window, and each array op is the float op
``slotwise`` would perform on the same operands; the results, op counts,
levels and noise draws are those of the op-by-op run.

Every stage program speaks one op vocabulary (add, sub, mul, rotate,
const, run_on_window, run_block_sum): HeBackend, ``_WindowOps`` (inside
``run_on_window``) and the mirror's ``_ArrayOps`` each implement the ops
their programs use; ``_ops_of(v)`` picks HeBackend for a ciphertext and
``_ArrayOps`` for an array, so one stage function serves both forwards.
``_ArrayOps`` reads an array as a ciphertext over a zero tail: the shorter
operand of a slot-wise op is zero-extended, a right rotation prepends
zeros and a left rotation drops the leading slots.

Diagonal matvec schedules run through :meth:`HeBackend.run_block_sum`:
the wraparound duplication and each giant step are one numpy program over
the slots the schedule reads, with the op counts, level and noise draws of
the op-by-op run. One exception to the bit-identity invariant: the exact
result is the window [0, n) over a +0.0 tail, where the op-by-op run
leaves ±0 partial products past slot n. Only the sign of those zeros
differs, and no consumer reads them.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import DepthExhausted, InputTooLong, LengthMismatch


@dataclass(frozen=True)
class BackendConfig:
    """Static parameters of the simulated scheme.

    slot_count models half the polynomial-modulus degree of a real SIMD
    scheme; depth_budget is the multiplicative depth of a fresh ciphertext.
    """

    slot_count: int
    depth_budget: int
    noise_std: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.slot_count <= 0 or (self.slot_count & (self.slot_count - 1)) != 0:
            raise ValueError(f"slot_count must be a positive power of two, got {self.slot_count}")
        if self.depth_budget < 0:
            raise ValueError("depth_budget must be >= 0")
        if not math.isfinite(self.noise_std) or self.noise_std < 0:
            raise ValueError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        if (isinstance(self.rng_seed, bool) or not isinstance(self.rng_seed, (int, np.integer))
                or self.rng_seed < 0):
            raise ValueError(f"rng_seed must be a non-negative integer, got {self.rng_seed!r}")

    @classmethod
    def from_json(cls, source) -> "BackendConfig":
        """Load a config from a dict, a JSON string, or a file path."""
        if isinstance(source, dict):
            doc = source
        elif isinstance(source, str) and source.lstrip().startswith("{"):
            doc = json.loads(source)
        else:
            with open(source) as fh:
                doc = json.load(fh)
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown BackendConfig keys: {sorted(unknown)}")
        return cls(**doc)


@dataclass
class OpCounter:
    """Tally of homomorphic operations for one evaluation."""

    adds: int = 0
    subs: int = 0
    ct_mults: int = 0
    pt_mults: int = 0
    rotations: int = 0

    def copy(self) -> "OpCounter":
        return replace(self)

    def since(self, earlier: "OpCounter") -> "OpCounter":
        """Per-field difference against an earlier snapshot."""
        return OpCounter(
            adds=self.adds - earlier.adds,
            subs=self.subs - earlier.subs,
            ct_mults=self.ct_mults - earlier.ct_mults,
            pt_mults=self.pt_mults - earlier.pt_mults,
            rotations=self.rotations - earlier.rotations,
        )

    @property
    def mults(self) -> int:
        return self.ct_mults + self.pt_mults


_EMPTY = np.empty(0)
_EMPTY.setflags(write=False)

_ARITH = {"add": operator.add, "sub": operator.sub,
          "mul_ct": operator.mul, "mul_pt": operator.mul}


def _place(start: int, data: np.ndarray, tail: float, s: int, n: int, S: int) -> np.ndarray:
    """Fresh array of slots s .. s+n-1 (mod S), n <= S, of the vector whose
    slots start .. start+len(data)-1 hold data and whose other slots hold
    tail: the tail, with the at most two pieces of the window that fall in
    the range copied over it. Costs O(n)."""
    out = np.full(n, tail)
    o = (start - s) % S  # where data[0] lands; data wraps past S - o
    if o < n:
        head = min(data.size, n - o)
        out[o:o + head] = data[:head]
    if data.size > S - o:
        wrapped = min(data.size - (S - o), n)
        out[:wrapped] = data[S - o:S - o + wrapped]
    return out


def _read(a: "CipherText", s: int, m: int) -> np.ndarray:
    """Fresh array of slots s .. s+m-1 (mod slot_count) of a, m <=
    slot_count (LengthMismatch otherwise)."""
    S = a.backend.config.slot_count
    if m > S:
        raise LengthMismatch(f"read of {m} slots from {S}")
    return _place(a.start, a.data, a.tail, s, m, S)


def _plain(b) -> tuple:
    """(data, tail) of a plaintext, whose window starts at slot 0: a scalar
    is an empty window over itself, an array fills slots [0, len) over a
    zero tail. Never padded to the slot count."""
    if np.isscalar(b):
        return _EMPTY, float(b)
    return np.asarray(b, dtype=float).ravel(), 0.0


def _cover(sa: int, na: int, sb: int, nb: int, S: int) -> tuple:
    """Smallest cyclic window (start, length) that holds both windows."""
    if nb == 0:
        return sa, na
    if na == 0:
        return sb, nb
    from_a = min(S, max(na, (sb - sa) % S + nb))
    from_b = min(S, max(nb, (sa - sb) % S + na))
    return (sa, from_a) if from_a <= from_b else (sb, from_b)


def _over(start: int, data: np.ndarray, tail: float, s: int, n: int, S: int):
    """Slots s .. s+n-1 as a numpy operand: the tail itself for an empty
    window, data itself when the windows coincide, else a placed copy."""
    if data.size == 0:
        return tail
    if start == s and data.size == n:
        return data
    return _place(start, data, tail, s, n, S)


@dataclass(frozen=True)
class CipherText:
    """Cyclic window of slots over a constant tail, plus remaining level.

    Slots start .. start+len(data)-1 (mod slot_count) hold ``data``; every
    other slot holds ``tail``. A full window is the case len(data) ==
    slot_count, a broadcast constant an empty one. Immutable: every
    operation returns a new ciphertext, and a rotation shares ``data``.
    """

    start: int
    data: np.ndarray = field(repr=False)
    tail: float
    level: int
    backend: "HeBackend" = field(repr=False, compare=False)

    def __post_init__(self):
        self.data.setflags(write=False)

    @property
    def slots(self) -> np.ndarray:
        """All slot_count slots, read-only. Materialised on every read, so
        it costs O(slot_count); no pipeline stage reads it."""
        S = self.backend.config.slot_count
        out = _place(self.start, self.data, self.tail, 0, S, S)
        out.setflags(write=False)
        return out


class HeBackend:
    """The simulated scheme: slot-wise arithmetic, rotation, depth accounting.

    ``noisy`` (``config.noise_std > 0``) adds N(0, noise_std) per slot
    after every operation and at encryption, drawn from one generator
    seeded with ``config.rng_seed``; otherwise the arithmetic is exact.
    Each backend owns one active :class:`OpCounter`; evaluations that need
    a private tally snapshot it before and diff after (see OpCounter.since).
    """

    def __init__(self, config: BackendConfig):
        self.config = config
        self.slot_count = config.slot_count
        self.counter = OpCounter()
        self.noisy = config.noise_std > 0
        self._rng = np.random.default_rng(config.rng_seed)

    # ------------------------------------------------------------------
    # boundary plumbing
    # ------------------------------------------------------------------

    def encrypt(self, values, level: int | None = None) -> CipherText:
        """Encrypt a vector (slots [0, len), zeros elsewhere; InputTooLong
        past slot_count values) or a scalar (every slot); the ciphertext
        keeps the input's window."""
        if level is None:
            level = self.config.depth_budget
        if not 0 <= level <= self.config.depth_budget:
            raise ValueError(f"level {level} outside [0, {self.config.depth_budget}]")
        data, tail = _plain(values)
        if data.size > self.config.slot_count:
            raise InputTooLong(f"{data.size} values > {self.config.slot_count} slots")
        return CipherText(*self._perturb(0, data.copy(), tail), level, self)

    def decrypt(self, a: CipherText) -> np.ndarray:
        self._check_ours(a)
        S = self.config.slot_count
        return _place(a.start, a.data, a.tail, 0, S, S)

    # ------------------------------------------------------------------
    # homomorphic operations
    # ------------------------------------------------------------------

    def slotwise(self, op_kind: str, a: CipherText, b) -> CipherText:
        """Element-wise add/sub/mul of a ciphertext with a cipher or plain
        operand (an array of at most slot_count values, LengthMismatch
        otherwise, or a scalar), over the smallest cyclic window holding
        both operands' windows; the tails combine into the result's tail."""
        if op_kind not in _ARITH:
            raise ValueError(f"unknown op_kind {op_kind!r}")
        self._check_ours(a)
        is_ct = isinstance(b, CipherText)
        if op_kind == "mul_ct" and not is_ct:
            raise LengthMismatch("mul_ct requires a ciphertext right operand")
        if op_kind == "mul_pt" and is_ct:
            raise LengthMismatch("mul_pt requires a plaintext right operand")
        if is_ct:
            self._check_ours(b)
            sb, db, tb, level = b.start, b.data, b.tail, min(a.level, b.level)
        else:
            db, tb = _plain(b)
            if db.size > self.config.slot_count:
                raise LengthMismatch(
                    f"plain operand has {db.size} slots, backend {self.config.slot_count}")
            sb, level = 0, a.level

        if op_kind == "add":
            self.counter.adds += 1
        elif op_kind == "sub":
            self.counter.subs += 1
        else:
            if level < 1:
                raise DepthExhausted(f"multiplication at level {level}")
            level -= 1
            if op_kind == "mul_ct":
                self.counter.ct_mults += 1
            else:
                self.counter.pt_mults += 1

        S = self.config.slot_count
        s, n = _cover(a.start, a.data.size, sb, db.size, S)
        fn = _ARITH[op_kind]
        data = (fn(_over(a.start, a.data, a.tail, s, n, S), _over(sb, db, tb, s, n, S))
                if n else _EMPTY)
        return CipherText(*self._perturb(s, data, fn(a.tail, tb)), level, self)

    def add(self, a: CipherText, b) -> CipherText:
        return self.slotwise("add", a, b)

    def sub(self, a: CipherText, b) -> CipherText:
        return self.slotwise("sub", a, b)

    def mul(self, a: CipherText, b) -> CipherText:
        """Multiply, dispatching on the operand kind (ct x ct or ct x plain)."""
        kind = "mul_ct" if isinstance(b, CipherText) else "mul_pt"
        return self.slotwise(kind, a, b)

    def run_on_window(self, a: CipherText, program, depth: int) -> CipherText:
        """Run ``program(ops)`` as one numpy program over a's live window
        and return its result at level ``a.level - depth``.

        ``program`` runs ``ops.add``, ``mul`` and ``const`` on values
        derived from ``ops.x``, a's window with its tail as the last
        element. In a window program every array is a ciphertext value and
        every plaintext is a scalar. So every intermediate keeps a's window,
        and each op counts, perturbs and computes exactly as the matching
        ``slotwise`` call (``const``, of a scalar or of values computed
        from ``ops.x``, as ``encrypt``).
        ``depth`` is the levels the program consumes; DepthExhausted is
        raised before any op when a has fewer. A noisy backend runs on the
        full window, as its ops would produce it.
        """
        self._check_ours(a)
        if a.level < depth:
            raise DepthExhausted(f"{depth} levels needed at level {a.level}")
        S = self.config.slot_count
        start, data = a.start, a.data
        # a noisy backend's ops return full windows at slot 0, so the
        # program starts there; a full window is aligned to slot 0 as well
        if (data.size == S or self.noisy) and (start or data.size < S):
            start, data = 0, _place(a.start, a.data, a.tail, 0, S, S)
        out = program(_WindowOps(self, np.append(data, a.tail)))
        return CipherText(start, out[:-1], out[-1], a.level - depth, self)

    def run_block_sum(self, a: CipherText, schedule) -> CipherText:
        """Run a diagonal matvec schedule up to its folds and return the sum
        of its rotated giant-step blocks at level ``a.level - 1``.

        a holds the operand; the wraparound duplication (``a`` plus ``a``
        rotated right by n, when n > 1) and every giant step run as numpy
        programs (``schedule.block_sum``). The counter is charged what the
        op-by-op run charges, ``schedule.block_sum_counts``. DepthExhausted is
        raised before any of it when a has no level left. The exact result
        is the window [0, n) over a zero tail (see the module docstring); a
        noisy backend runs on all slot_count slots and draws the op-by-op
        run's noise in its order, so every slot matches that run. A
        schedule that does not fit one ciphertext raises DimensionMismatch
        (``schedule.check_capacity``) first.
        """
        schedule.check_capacity(self.config.slot_count)
        self._check_ours(a)
        if a.level < 1:
            raise DepthExhausted(f"matrix-vector product at level {a.level}")
        p, n = schedule.shape
        S = self.config.slot_count
        m = S if self.noisy else n + p - 1
        x = _read(a, 0, m)
        if n > 1:
            x = x + _read(a, -n, m)
            if self.noisy:
                x += self._noise(1)[0]
        rotations, adds, pt_mults = schedule.block_sum_counts
        c = self.counter
        c.rotations += rotations
        c.adds += adds
        c.pt_mults += pt_mults
        if self.noisy:
            out = schedule.block_sum(np.concatenate((x, x[:p - 1])), S, self._noise)
        else:
            out = schedule.block_sum(x, n)
        return CipherText(0, out, 0.0, a.level - 1, self)

    def rotate(self, a: CipherText, t: int) -> CipherText:
        """Cyclic shift: left for t > 0, right for t < 0. Level unchanged.
        Moves the window's start only; the data is shared."""
        self._check_ours(a)
        S = self.config.slot_count
        if abs(t) >= S:
            raise ValueError(f"|t| = {abs(t)} must be < slot_count {S}")
        if t == 0:
            return a
        self.counter.rotations += 1
        return CipherText((a.start - t) % S, a.data, a.tail, a.level, self)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _check_ours(self, a: CipherText) -> None:
        if a.backend is not self:
            raise LengthMismatch("ciphertext belongs to a different backend")

    def _perturb(self, start: int, data: np.ndarray, tail: float) -> tuple:
        """The operands unchanged, or with noise all slot_count slots
        materialised from slot 0 and each one perturbed."""
        if not self.noisy:
            return start, data, tail
        S = self.config.slot_count
        dense = _place(start, data, tail, 0, S, S)
        return 0, dense + self._noise(1)[0], 0.0

    def _noise(self, k: int) -> np.ndarray:
        """k rows of slot_count draws, as k successive draws of one row."""
        return self._rng.normal(0.0, self.config.noise_std, (k, self.config.slot_count))


class _WindowOps:
    """The ops of HeBackend.run_on_window: arrays of one window's slots
    plus the tail as the last element, counted on the backend's counter as
    slotwise counts them and perturbed as slotwise perturbs them."""

    def __init__(self, be: HeBackend, x: np.ndarray):
        self.be = be
        self.x = x

    def mul(self, a, b):
        if isinstance(b, np.ndarray):  # a ciphertext value, as in HeBackend.mul
            self.be.counter.ct_mults += 1
        else:
            self.be.counter.pt_mults += 1
        return self._out(a * b)

    def add(self, a, b):
        self.be.counter.adds += 1
        return self._out(a + b)

    def const(self, c):
        """A trivial encryption of c, a scalar or one value per element of
        x (the exact comparator's step of x): no depth, no op count, and
        the noise draw of ``encrypt``."""
        return self._out(np.full_like(self.x, c))

    def _out(self, arr: np.ndarray) -> np.ndarray:
        if not self.be.noisy:
            return arr
        _, data, tail = self.be._perturb(0, arr[:-1], arr[-1])
        return np.append(data, tail)


def _zero_extending(fn):
    """fn as an op on two operands, the shorter of two arrays zero-extended
    to the other's length as a plaintext's zero tail extends it."""
    def op(a, b):
        if isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and a.size != b.size:
            if a.size < b.size:
                a = np.concatenate((a, np.zeros(b.size - a.size)))
            else:
                b = np.concatenate((b, np.zeros(a.size - b.size)))
        return fn(a, b)
    return staticmethod(op)


class _ArrayOps:
    """The mirror's ops adapter: every stage program run on plain arrays,
    with no window, tail, gather or level accounting. An array holds slots
    [0, len) of an endless vector whose other slots are zero; there is no
    slot limit (``slot_count`` is infinite), so nothing wraps."""

    slot_count = math.inf
    add = _zero_extending(operator.add)
    sub = _zero_extending(operator.sub)
    mul = _zero_extending(operator.mul)

    def __init__(self, x: np.ndarray):
        self.x = x

    def const(self, c):
        """c, a scalar or one value per element of x, as an array of x's
        shape: the twin of the backend's trivial encryption."""
        return np.full_like(self.x, c)

    @staticmethod
    def rotate(a, t):
        """Left by t > 0 drops the first t slots; right by -t prepends
        -t zeros."""
        return a[t:] if t >= 0 else np.concatenate((np.zeros(-t), a))

    @staticmethod
    def run_on_window(a, program, depth):
        return program(_ArrayOps(a))

    @staticmethod
    def run_block_sum(v, schedule):
        """The block sum on v's first n slots (n the period), zero-extended
        to n and duplicated, as the encrypted wraparound duplication reads
        them."""
        n = schedule.shape[1]
        x = np.zeros(2 * n)
        x[: min(n, v.size)] = v[:n]
        x[n:] = x[:n]
        return schedule.block_sum(x, n)


def _ops_of(v):
    """The ops that run a stage program on v: the backend of a ciphertext,
    the mirror's array adapter for anything else."""
    return v.backend if isinstance(v, CipherText) else _ArrayOps(v)


def make_backend(config: BackendConfig) -> HeBackend:
    """The simulator for config; exact when noise_std is zero."""
    return HeBackend(config)

