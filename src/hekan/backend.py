"""Functional model of a leveled SIMD homomorphic-encryption scheme.

Ciphertexts are fixed-width slot vectors with a remaining multiplicative
level. All arithmetic is slot-wise; rotation is cyclic. One backend,
:class:`HeBackend`, simulates the scheme: with ``noise_std == 0`` its
arithmetic is exact, otherwise ``HeBackend._perturb``, the one noise
site, adds N(0, noise_std) to each slot after every encryption, counted
add, sub or multiply and trivial encryption (``const``), drawn from
``rng_seed``; a rotation draws none. The backend is a swappable contract
so a real scheme can be substituted behind the same semantics.

Representation: a ciphertext stores a cyclic window of slots (``start``
and the window's values ``data``) over a constant ``tail`` that every
other slot holds. A rotation moves ``start`` only; a slot-wise op computes
over the smallest cyclic window covering both operands and combines the
two tails, so it costs O(window), not O(slot_count). Invariant: every slot
is bit-identical to the same arithmetic on dense slot_count-long vectors,
since each slot sees the same float operation on the same operands, but
for the sign of some zeros. A product with a plaintext whose tail is zero
(a tile, or a scalar zero) keeps the plaintext's window when every slot
of the ciphertext is finite: past that window each slot is x * 0, a zero
whose sign is x's, and the tail a.tail * 0 stands for all of them, so a
mask or a knot tile shrinks a wide window to its own. Any other op keeps
the window of its operands (``inf * 0`` is NaN). A plaintext operand is
a tile, a list, a tuple or an array of at least one dimension, which
fills slots [0, len) over a zero tail, or a scalar (a real number or a
0-d array of one), an empty window whose tail is the scalar:
``_is_tile``, the one rule every op adapter reads. Any other plaintext,
or a tile whose entries are not real numbers in one regular shape
(``_entries``; a ragged list too), raises InvalidArgument before any op,
and so does an operand that is not a ciphertext where an op takes one
(``_check_ours``, the one ciphertext check; another backend's ciphertext
raises LengthMismatch). A noisy backend perturbs every slot, so its
results are full windows.

Each op's cost is charged by one rule, ``_charge``: an op counts once,
under its kind, and a multiply drops one level, raising DepthExhausted
at level 0 before any count. ``slotwise`` and a window program's ops
both charge through it.

Straight-line programs run through :meth:`HeBackend.run_on_window`: a
polynomial schedule, a comparator, the B-spline basis recursion and a
matvec's folds are each one numpy program over their operands' window,
each value an array of the window's slots with the tail appended, instead
of one ``slotwise`` call per operation. The caller states the program's
``reach``, the largest total left shift of its rotations (none for a
polynomial, (k + 1) n_i for the basis, the sum of the shifts for the
folds); the window is widened by that many slots in front and a rotation
is a shift filled from the tail. Where the widened window could wrap onto
itself (len + 2 reach >= slot_count), and on a noisy backend, whose ops
return full windows, the program runs on all slot_count slots from slot 0
and a rotation is cyclic; in every mode a rotation past the reach raises.
Its plaintexts are scalars and zero-tail tiles inside the operands'
window. Each array op is the float op ``slotwise`` would perform on the
same operands, each value carries its level, and each op counts on the
backend's counter, and each stage label calls the backend's hook, as the
program runs, where the op-by-op run would; so the slots, op counts,
level, noise draws and labels are those of the op-by-op run. A program
that raises leaves the counter and the noise generator as they were (one
snapshot before it runs, restored on the way out); the hook has seen the
labels before the failing op, as in the op-by-op run.

Every stage program speaks one op vocabulary (add, sub, mul, rotate,
const, run_on_window, run_block_sum): HeBackend, ``_WindowOps`` (inside
``run_on_window``, on its values, ``_Slots``) and the mirror's
``_ArrayOps`` each implement the ops their programs use; ``_ops_of(v)``
picks HeBackend for a ciphertext and ``_ArrayOps`` for an array, so one
stage function serves both forwards, and refuses a window value, which
only its program's ops take. ``_ArrayOps`` reads an array as a
ciphertext over a zero tail: the shorter operand of a slot-wise op is
zero-extended, a right rotation prepends zeros and a left rotation drops
the leading slots. The label hook ``_stage(name, v_in, v_out)`` is a
no-op except on ``_Probe``; inside a window program ``_WindowOps`` calls
the backend's hook at the point where the op-by-op run calls it, on the
program's values as ciphertexts over its window (``_WindowOps._ct``), so
a hook reads the slots and levels the op-by-op run's hook reads. Those
ciphertexts are built only for a hook that can read them: for the no-op
``HeBackend._stage`` itself (one identity check) a label builds none.

Diagonal matvec schedules run through :meth:`HeBackend.run_block_sum`:
on the exact backend, the wraparound duplication (if the schedule needs
one) and each giant step are one numpy program over the slots the
schedule reads, with the op counts and level of the op-by-op run. One
more exception to the bit-identity invariant: the result is the window [0, L)
over a +0.0 tail (L the diagonals' length), where the op-by-op run leaves
±0 partial products past slot L; an unfolded schedule's giant block i is
likewise the window [base_i, base_i + L). Only the sign of those zeros
differs, and no consumer reads them. A noisy backend runs it op by op,
so each op draws its own noise.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DepthExhausted, InputTooLong, InvalidArgument, LengthMismatch


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


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
        s = self.slot_count
        if not _is_int(s) or s <= 0 or s & (s - 1):
            raise InvalidArgument(f"slot_count must be a positive power of two, got {s!r}")
        if not _is_int(self.depth_budget) or self.depth_budget < 0:
            raise InvalidArgument(f"depth_budget must be an int >= 0, got {self.depth_budget!r}")
        noise = self.noise_std
        if (isinstance(noise, bool) or not isinstance(noise, numbers.Real)
                or not math.isfinite(noise) or noise < 0):
            raise InvalidArgument(f"noise_std must be a finite real number >= 0, got {noise!r}")
        if not _is_int(self.rng_seed) or self.rng_seed < 0:
            raise InvalidArgument(f"rng_seed must be a non-negative integer, got {self.rng_seed!r}")

    @classmethod
    def from_json(cls, source) -> "BackendConfig":
        """Load a config from a dict, a JSON string, or a file path (str,
        bytes or os.PathLike; ``open`` would read an int as a descriptor)."""
        if isinstance(source, dict):
            doc = source
        elif isinstance(source, str) and source.lstrip().startswith("{"):
            doc = json.loads(source)
        elif isinstance(source, (str, bytes, os.PathLike)):
            with open(source) as fh:
                doc = json.load(fh)
        else:
            raise InvalidArgument(f"a BackendConfig is a dict, JSON or a path, not {source!r}")
        if not isinstance(doc, dict):
            raise InvalidArgument(f"a BackendConfig is a JSON object, not {doc!r}")
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise InvalidArgument(f"unknown BackendConfig keys: {sorted(unknown)}")
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
        """A new counter holding these counts: one constructor call, as a
        forward snapshots its counter once per layer."""
        return OpCounter(self.adds, self.subs, self.ct_mults, self.pt_mults, self.rotations)

    def since(self, earlier: "OpCounter") -> "OpCounter":
        """Per-field difference against an earlier snapshot."""
        return OpCounter(self.adds - earlier.adds, self.subs - earlier.subs,
                         self.ct_mults - earlier.ct_mults, self.pt_mults - earlier.pt_mults,
                         self.rotations - earlier.rotations)

    @property
    def mults(self) -> int:
        return self.ct_mults + self.pt_mults


_EMPTY = np.empty(0)
_EMPTY.setflags(write=False)

# each slot-wise op kind's (arithmetic, OpCounter field, levels it drops)
_ARITH = {"add": (operator.add, "adds", 0), "sub": (operator.sub, "subs", 0),
          "mul_ct": (operator.mul, "ct_mults", 1), "mul_pt": (operator.mul, "pt_mults", 1)}


def _charge(counts: dict, name: str, level: int, drop: int) -> int:
    """The one cost rule of an op: it counts once under its kind, ``name``
    in ``counts`` (an OpCounter's fields), and its result is at ``level``
    less ``drop``; a multiply (drop 1) at level 0 raises DepthExhausted
    before any count."""
    if level < drop:
        raise DepthExhausted(f"multiplication at level {level}")
    counts[name] += 1
    return level - drop


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


def _slice(a: np.ndarray, s: int, m: int) -> np.ndarray:
    """The mirror's ``_read``: fresh array of slots s .. s+m-1 of the array
    a over a zero tail, placed as a window at slot 0 of a slot count too
    large for the read to wrap (the mirror has no slot limit)."""
    return _place(0, a, 0.0, s, m, a.size + m + abs(s))


def _is_tile(b) -> bool:
    """The one scalar-or-tile rule of a plaintext: a list, a tuple or an
    array of at least one dimension is a tile, slots [0, len) over a zero
    tail; a real number or a 0-d array of one is a scalar, every slot of
    it; anything else raises InvalidArgument. A float, the common scalar,
    costs one isinstance and an array one getattr more, no numpy call."""
    if isinstance(b, float):
        return False
    if getattr(b, "ndim", 0) > 0 or isinstance(b, (list, tuple)):
        return True
    if getattr(getattr(b, "dtype", None), "kind", "O") in "biuf" or isinstance(b, numbers.Real):
        return False
    raise InvalidArgument(f"a plaintext is a real number or an array of them, not {b!r}")


def _entries(b) -> np.ndarray:
    """A tile's entries as an array, InvalidArgument unless they are real
    numbers in one regular shape (a ragged list raises it too). A numeric
    array passes as it is, with no numpy call."""
    try:
        data = b if isinstance(b, np.ndarray) else np.asarray(b)
    except ValueError:  # numpy's inhomogeneous shape: a ragged list
        data = None
    if data is None or data.dtype.kind not in "biuf":
        raise InvalidArgument(f"a plaintext tile holds real numbers in one shape, not {b!r}")
    return data


def _plain(b) -> tuple:
    """(data, tail) of a plaintext, whose window starts at slot 0: a scalar
    is an empty window over itself, a tile its slots over a zero tail
    (``_is_tile``; InvalidArgument unless its entries are real numbers,
    ``_entries``). Never padded to the slot count."""
    if not _is_tile(b):
        return _EMPTY, float(b)
    return _entries(b).astype(float, copy=False).ravel(), 0.0


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

    ``copies`` back-to-back copies of ``width`` slots each are the input
    a layer reads: ``encrypt_input`` sets both, a plain ``encrypt`` of a
    vector holds one copy of its length, a layer's output one copy of its
    n_o slots, and every other operation's result (and a scalar's
    encryption) one copy of unknown width (None). The layer program
    rejects a known width other than its n_i before any op. Those that
    state a layout (``encrypt_input``, ``bspline.repeat_pack``, the layer
    program) restate a result's through ``stating``, one constructor call.
    """

    start: int
    data: np.ndarray = field(repr=False)
    tail: float
    level: int
    backend: "HeBackend" = field(repr=False, compare=False)
    copies: int = 1
    width: int | None = None

    def __init__(self, start, data, tail, level, backend, copies=1, width=None):
        data.setflags(write=False)
        vars(self).update(start=start, data=data, tail=tail, level=level, backend=backend,
                          copies=copies, width=width)

    def stating(self, copies: int, width: int | None) -> "CipherText":
        """This ciphertext's slots and level, stating ``copies`` copies of
        ``width`` slots: one constructor call, sharing ``data``."""
        return CipherText(self.start, self.data, self.tail, self.level, self.backend, copies, width)

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
    after every counted operation and at encryption (``_perturb``), drawn
    from one generator seeded with ``config.rng_seed``.
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
        keeps the input's window, and a vector's ciphertext states its
        length as ``width``."""
        if level is None:
            level = self.config.depth_budget
        if not _is_int(level) or not 0 <= level <= self.config.depth_budget:
            raise InvalidArgument(f"level {level!r} is not an integer or lies outside "
                                  f"[0, {self.config.depth_budget}]")
        data, tail = _plain(values)
        if data.size > self.config.slot_count:
            raise InputTooLong(f"{data.size} values > {self.config.slot_count} slots")
        width = data.size if _is_tile(values) else None
        return CipherText(*self._perturb(0, data.copy(), tail), level, self, width=width)

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
        both operands' windows, or over the plaintext's own for a product
        of a finite ciphertext with a zero-tail plaintext (see the module
        docstring); the tails combine into the result's tail. Charged by
        ``_charge`` after the operands pass their checks (``_check_ours``,
        ``_plain``), so a rejected operand leaves the counter as it was."""
        if op_kind not in _ARITH:
            raise InvalidArgument(f"unknown op_kind {op_kind!r}")
        fn, name, drop = _ARITH[op_kind]
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
        level = _charge(vars(self.counter), name, level, drop)
        S = self.config.slot_count
        # a product with a zero-tail plaintext keeps its window: past it,
        # a.tail * 0 stands for each x * 0, the same zero up to its sign
        own = op_kind == "mul_pt" and tb == 0 and np.isfinite(a.tail) and np.isfinite(a.data).all()
        s, n = (sb, db.size) if own else _cover(a.start, a.data.size, sb, db.size, S)
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

    def run_on_window(self, program, *operands, reach: int = 0) -> CipherText:
        """Run ``program(ops, *values)`` as one numpy program over the
        operands' live window and return its result.

        ``values`` are the operands (at least one; ciphertexts of this
        backend) placed over one window; ``ops`` (``_WindowOps``) adds,
        subtracts, multiplies, rotates and makes constants as
        ``slotwise``, ``rotate`` and ``encrypt`` would, counting each op
        on the backend's counter as it runs, and calls the backend's
        label hook (``_stage``) on the stage's values as ciphertexts over
        the window. A plaintext operand is a scalar, or a
        tile over a zero tail (``_is_tile``) that lies inside the
        operands' window. Every value carries its level, and a constant
        is at the first operand's; the result's is read off the program.
        The counts and, on a noisy backend, the generator's state are
        snapshot before the program and restored if it raises, so a
        program that raises (DepthExhausted for a multiply at level 0)
        leaves the counter and the noise generator as they were; the
        label hook keeps the calls it has seen.

        ``reach`` is the largest total left shift along any chain of the
        program's rotations (none by default). The window is the operands'
        cover widened by reach slots in front, and a rotation left by
        t <= reach shifts it, filling from the tail; the result keeps that
        window. Where the widened window could wrap onto itself (len +
        2 reach >= slot_count) or the backend is noisy (its ops return
        full windows), the program runs on all slot_count slots from
        slot 0 and a rotation by t <= reach is cyclic. In either mode a
        rotation by any other t than 0 <= t <= reach raises
        InvalidArgument (t = 0 is a no-op), and a tile outside the
        operands' window LengthMismatch. Either
        way each slot is bit-identical to the op-by-op run's, and so are
        the op counts, the level and the noise draws. It pays: op by op, the
        lazy spline-map folds of every table config take 2.0-2.2 times as
        long as their window program (199 against 92 us on (256, 10, 5);
        2-core x86-64, Python 3.11, numpy 2.4).
        """
        if not operands:
            raise InvalidArgument("a window program runs on at least one operand")
        if not _is_int(reach) or reach < 0:
            raise InvalidArgument(f"reach must be an integer >= 0, got {reach!r}")
        S = self.config.slot_count
        self._check_ours(operands[0])
        start, size = operands[0].start, operands[0].data.size
        for a in operands[1:]:
            self._check_ours(a)
            start, size = _cover(start, size, a.start, a.data.size, S)
        if self.noisy or size + 2 * reach >= S:
            start, size = 0, S
        else:
            start, size = (start - reach) % S, size + reach
        ops = _WindowOps(self, start, size, reach, operands[0].level)
        values = [_Slots(_window(a, start, size, S), a.level) for a in operands]
        counts = vars(self.counter).copy()
        state = self._rng.bit_generator.state if self.noisy else None
        try:
            out = program(ops, *values)
        except BaseException:
            vars(self.counter).update(counts)
            if state:
                self._rng.bit_generator.state = state
            raise
        return ops._ct(out)

    def run_block_sum(self, a: CipherText, schedule, giants=None):
        """Run a diagonal matvec schedule up to its folds on the operand a
        and return the sum of its rotated giant-step blocks at level
        ``a.level - 1``, each block plus ``giants``' block of the same step
        if given (the result's level is then at most theirs); an
        ``unfolded`` schedule returns its giant blocks unrotated instead
        (``MatvecSchedule.run``).

        On the exact backend that is one numpy program,
        ``schedule.block_sum`` over the slots it reads (``_read``),
        charged the op-by-op run's counts (``schedule.block_sum_counts``,
        and one add per giant block), whose result is the window [0, L)
        over a zero tail, or block i's window [base_i, base_i + L) (see the
        module docstring); a noisy backend runs it op by op
        (``schedule.block_sum_ops``). DepthExhausted is raised before any
        of it when a has no level left, and DimensionMismatch
        (``schedule.check_capacity``) first for a schedule that does not
        fit one ciphertext.
        """
        schedule.check_capacity(self.config.slot_count)
        giants = giants or ()
        for ct in (a, *giants):
            self._check_ours(ct)
        if a.level < 1:
            raise DepthExhausted(f"matrix-vector product at level {a.level}")
        if self.noisy:
            return schedule.block_sum_ops(self, a, giants)
        level = min((a.level - 1, *(g.level for g in giants)))
        rotations, adds, pt_mults = schedule.block_sum_counts
        self.counter.rotations += rotations
        self.counter.adds += adds + len(giants)
        self.counter.pt_mults += pt_mults
        out = schedule.block_sum(_read, a, giants)
        if schedule.unfolded:
            return tuple(CipherText(base, block, 0.0, level, self)
                         for block, (base, _) in zip(out, schedule.blocks()))
        return CipherText(0, out, 0.0, level, self)

    def rotate(self, a: CipherText, t: int) -> CipherText:
        """Cyclic shift: left for t > 0, right for t < 0. Level unchanged.
        Moves the window's start only; the data is shared."""
        self._check_ours(a)
        S = self.config.slot_count
        if not _is_int(t):
            raise InvalidArgument(f"rotation amount must be an integer, got {t!r}")
        if abs(t) >= S:
            raise InvalidArgument(f"|t| = {abs(t)} must be < slot_count {S}")
        if t == 0:
            return a
        self.counter.rotations += 1
        return CipherText((a.start - t) % S, a.data, a.tail, a.level, self)

    def _stage(self, name: str, v_in: CipherText, v_out: CipherText) -> None:
        """Label hook, called after each labelled stage: a no-op (see _Probe)."""

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _check_ours(self, a: CipherText) -> None:
        """The one ciphertext check of an op's operand: InvalidArgument for
        anything but a ciphertext, LengthMismatch for another backend's."""
        if not isinstance(a, CipherText):
            raise InvalidArgument(f"an op takes a ciphertext here, not {type(a).__name__}")
        if a.backend is not self:
            raise LengthMismatch("ciphertext belongs to a different backend")

    def _perturb(self, start: int, data: np.ndarray, tail: float) -> tuple:
        """The operands unchanged, or with noise all slot_count slots
        materialised from slot 0 and each one perturbed."""
        if not self.noisy:
            return start, data, tail
        S = self.config.slot_count
        dense = _place(start, data, tail, 0, S, S)
        return 0, dense + self._noise(), 0.0

    def _noise(self) -> np.ndarray:
        """One row of slot_count draws: the noise of one operation."""
        return self._rng.normal(0.0, self.config.noise_std, self.config.slot_count)


def _window(a: CipherText, s: int, n: int, S: int) -> np.ndarray:
    """Slots s .. s+n-1 of a, then its tail: a window program's operand.
    Slot s+n of a window narrower than S lies past a's, so it is the tail."""
    if n < S:
        return _place(a.start, a.data, a.tail, s, n + 1, S)
    return np.append(_place(a.start, a.data, a.tail, s, n, S), a.tail)


class _Slots:
    """A value of a window program (HeBackend.run_on_window): its slots
    over the program's window with the tail as the last element (``v``),
    and its level. Only its program's ops take it; ``_ops_of`` refuses
    it. numpy reads it as ``v`` (the exact comparator's step does)."""

    __slots__ = ("v", "level")

    def __init__(self, v: np.ndarray, level: int):
        self.v, self.level = v, level

    def __array__(self, dtype=None, copy=None):
        return np.array(self.v, dtype) if copy else np.asarray(self.v, dtype)


def _window_op(fn, count: str, drop: int = 0):
    """A window program's slot-wise op: fn of a value and a value or a
    plaintext, as slotwise computes it, charged as slotwise charges it
    (``_charge``) at the lower of their levels, on the backend's counter
    under count (a product of two values under ct_mults)."""
    def op(self, a, b):
        ct = type(b) is _Slots  # a ciphertext value, as in HeBackend.mul
        level = _charge(self.counts, "ct_mults" if ct and drop else count,
                        b.level if ct and b.level < a.level else a.level, drop)
        if ct:
            v = fn(a.v, b.v)
        elif _is_tile(b) or drop and b == 0:  # a product by a scalar 0 keeps no window
            v = self._tile(fn, a.v, b)
        else:
            v = fn(a.v, b)
        return self._value(v, level)
    return op


class _WindowOps:
    """The ops of HeBackend.run_on_window on _Slots over a window of
    ``size`` slots from slot ``start``: each computes, draws noise, counts
    on the backend's counter and calls its label hook as the matching
    slotwise, rotate, encrypt or _stage call would, as it runs. A rotation
    moves by at most ``reach``; ``front`` is the padding before the
    operands' window, none in a full window (``size`` == slot_count),
    whose rotations are cyclic. A constant is at the first operand's
    ``level``."""

    add, sub = _window_op(operator.add, "adds"), _window_op(operator.sub, "subs")
    mul = _window_op(operator.mul, "pt_mults", 1)

    def __init__(self, be: HeBackend, start: int, size: int, reach: int, level: int):
        self.be, self.counts, self.noisy, self.start, self.size, self.reach, self.level = (
            be, vars(be.counter), be.noisy, start, size, reach, level)
        self.front = 0 if size == be.config.slot_count else reach

    def _tile(self, fn, x, b):
        """fn of x and a plaintext over a zero tail at slots [0, len(b))
        (a scalar zero: no slots over itself), as slotwise computes it:
        x op 0 past b, or, for the product of a finite x, x's tail times
        0."""
        b, zero = _plain(b)
        lo = -self.start % self.be.config.slot_count  # slot 0's index
        hi = lo + b.size
        if b.size and (lo < self.front or hi > self.size):
            raise LengthMismatch(f"a plaintext of {b.size} slots from slot 0 outside the "
                                 f"operands' window")
        out = (np.full(x.size, x[-1] * zero) if fn is operator.mul and np.isfinite(x).all()
               else fn(x, zero))
        out[lo:hi] = fn(x[lo:hi], b)
        return out

    def rotate(self, a, t):
        """Left by t, 0 <= t <= reach and t < slot_count (InvalidArgument
        otherwise): a shift of a padded window filled from the tail, or a
        cyclic shift of a full window. Counted as HeBackend.rotate counts
        it, so t = 0 is a no-op."""
        S = self.be.config.slot_count
        if not _is_int(t) or not 0 <= t <= self.reach or t >= S:
            raise InvalidArgument(f"rotation by {t!r} outside [0, {self.reach}], the program's "
                                  f"reach, or not below the slot count {S}")
        if t == 0:
            return a
        self.counts["rotations"] += 1
        v = a.v
        if self.size == S:
            return _Slots(np.concatenate((v[t:S], v[:t], v[S:])), a.level)
        out = np.empty_like(v)
        out[:self.size - t] = v[t:self.size]
        out[self.size - t:] = v[-1]
        return _Slots(out, a.level)

    def const(self, c):
        """A trivial encryption of c, a scalar or one value per slot of the
        window and its tail (the exact comparator's step of a value): no
        depth, no op count, and the noise draw of ``encrypt``."""
        return self._value(np.full(self.size + 1, c), self.level)

    def _stage(self, name, v_in, v_out):
        """The backend's label hook, on v_in and v_out as ciphertexts
        (``_ct``), so a hook reads a stage's slots as it would op by op.
        The no-op ``HeBackend._stage`` reads nothing, so for it (one
        identity check) no ciphertext is built."""
        if getattr(self.be._stage, "__func__", None) is not HeBackend._stage:
            self.be._stage(name, self._ct(v_in), self._ct(v_out))

    def _ct(self, v: _Slots) -> CipherText:
        """v as a ciphertext: its slots over the program's window from
        ``start``, over its tail, at its level."""
        return CipherText(self.start, v.v[:-1], v.v[-1], v.level, self.be)

    def _value(self, v: np.ndarray, level: int) -> _Slots:
        """The value of the slots v at level, perturbed on a noisy backend
        as slotwise perturbs an op's result."""
        if self.noisy:
            _, data, tail = self.be._perturb(0, v[:-1], v[-1])
            v = np.append(data, tail)
        return _Slots(v, level)


def _zero_extending(fn):
    """fn as an op on two operands, the shorter of two arrays zero-extended
    to the other's length as a plaintext's zero tail extends it; a tile
    whose entries are not real numbers raises InvalidArgument (``_entries``)."""
    def op(a, b):
        if _is_tile(a) and _is_tile(b):
            a, b = _entries(a), _entries(b)
            n = max(a.size, b.size)
            a, b = (np.concatenate((v, np.zeros(n - v.size))) if v.size < n else v for v in (a, b))
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

    @classmethod
    def run_on_window(cls, program, *operands, reach=0):
        """program on the arrays themselves, run by this adapter."""
        return program(cls(operands[0]), *operands)

    _stage = HeBackend._stage

    @staticmethod
    def run_block_sum(v, schedule, giants=None):
        """``MatvecSchedule.block_sum`` on arrays read over a zero tail
        (``_slice``); an unfolded schedule's giant block i, returned
        unrotated, is padded to start at its base."""
        out = schedule.block_sum(_slice, v, giants)
        if schedule.unfolded:
            return tuple(np.concatenate((np.zeros(base), block))
                         for block, (base, _) in zip(out, schedule.blocks()))
        return out


def _folds(ops, a, shifts):
    """A matvec's folds, one ops.rotate and ops.add per shift, a window
    program of reach sum(shifts) (``MatvecSchedule.run``); the mirror's
    rotations drop leading slots."""
    for t in shifts:
        a = ops.add(a, ops.rotate(a, t))
    return a


class _Probe(HeBackend):
    """The depth planner's exact backend, with room for any layer: its label
    hook records each stage's level drop (``drops``) and end level."""

    def __init__(self):
        super().__init__(BackendConfig(slot_count=2 ** 20, depth_budget=2 ** 20))
        self.drops, self.levels = {}, {}

    def _stage(self, name, v_in, v_out):
        self.drops[name] = v_in.level - v_out.level
        self.levels[name] = v_out.level


def _ops_of(v):
    """The ops that run a stage program on v: the backend of a ciphertext,
    the mirror's array adapter for an array. A window program's value
    (_Slots) raises InvalidArgument: only its own program's ops take it."""
    if isinstance(v, CipherText):
        return v.backend
    if isinstance(v, _Slots):
        raise InvalidArgument("a window program's value runs on its program's ops, "
                              "not on a stage function's own")
    return _ArrayOps(v)


def make_backend(config: BackendConfig) -> HeBackend:
    """The simulator for config; exact when noise_std is zero."""
    return HeBackend(config)

