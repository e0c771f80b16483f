"""The matvec block kernel against an op-by-op replay of its schedule.

``replay`` is the per-diagonal loop the encrypted executor used to run:
one backend rotation, plaintext multiply or add per schedule op, with the
wraparound duplication only where the schedule has one. The kernel
(``HeBackend.run_block_sum`` plus the folds) must give the same valid
slots, op counts and level, and on a noisy backend the same slots
everywhere, for schedules on a zero-tail operand and on a repeated one,
and for the front-padded form, with and without another block sum's
giant block.
"""

import math
import tracemalloc
from dataclasses import fields, replace
from functools import cached_property

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hekan.backend import BackendConfig, CipherText, HeBackend, OpCounter, _folds
from hekan.bspline import PermutationSpec, gen_permutation
from hekan.errors import DepthExhausted, DimensionMismatch, HeKanError, ShapeMismatch
from hekan.inference import bsgs_matvec
from hekan import matvec
from hekan.matvec import MatvecSchedule, matvec_schedule


def replay(sched, v, giants=()):
    """The schedule op by op: (the giant-step sum before the folds, the
    folded result), or for an unfolded schedule its giant blocks,
    unrotated. Diagonal d's plaintext is pre-rotated by its giant step's
    base: a dense slot vector holding the diagonal from slot base (from
    slot -base in the front form, whose babies and giant steps rotate
    right). Block i of ``giants`` is added to step i's block before the
    step's rotation."""
    be = v.backend
    S = be.config.slot_count
    L, s = sched.shape[1], sched.sign
    vfull = be.add(v, be.rotate(v, -sched.period)) if sched.duplicates else v
    babies = [be.rotate(vfull, s * i) for i in range(sched.split[0])]
    acc, blocks = None, []
    for step, (base, diags) in enumerate(sched.blocks()):
        block = None
        for d in diags:
            plain = np.zeros(S)
            plain[:L] = sched.diagonals([d])[0]
            term = be.mul(babies[d - base], np.roll(plain, s * base))
            block = term if block is None else be.add(block, term)
        if step < len(giants):
            block = be.add(block, giants[step])
        if sched.unfolded:
            blocks.append(block)
            continue
        rotated = be.rotate(block, s * base)
        acc = rotated if acc is None else be.add(acc, rotated)
    if sched.unfolded:
        return tuple(blocks)
    summed = acc
    for shift in sched.folds:
        acc = be.add(acc, be.rotate(acc, shift))
    return summed, acc


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


VALUES = ("normal", "signed zeros", "negative", "non-finite")


@st.composite
def operands(draw, values=("normal",)):
    """(matrix or PermutationSpec, n_in, values, form) over the schedule's
    shapes, with the operand's values drawn from ``values`` (see
    ``case``); a matrix's operand is zero-tail (form False) or repeated
    (True), or it takes the front-padded form: form (p, L, shared), with
    another matrix's block sum handing it its giant block if shared."""
    kind = draw(st.sampled_from(["square", "tall", "wide", "one-row", "permutation", "n1",
                                 "front"]))
    fill = draw(st.sampled_from(values))
    form = draw(st.booleans())
    if kind == "square":
        m = draw(st.integers(1, 40))
        shape = (m, m)
    elif kind == "tall":
        n_in = draw(st.integers(1, 20))
        shape = (draw(st.integers(n_in + 1, 40)), n_in)
    elif kind == "wide":
        p = draw(st.integers(1, 12))
        shape = (draw(st.integers(1, p)), p << draw(st.integers(1, 4)))
    elif kind == "one-row":
        shape = (1, draw(st.integers(2, 40)))
    elif kind == "permutation":
        P = gen_permutation(draw(st.integers(1, 8)), draw(st.integers(1, 8)))
        return P, P.size, fill, False
    elif kind == "front":
        p = draw(st.integers(1, 12))
        shape = (draw(st.integers(1, p)), draw(st.integers(1, 40)))
        L = p << ((shape[1] + p - 2) // p).bit_length()  # least p 2^j >= n_in + p - 1
        form = (p, L << draw(st.integers(0, 1)), draw(st.booleans()))
    else:
        shape = (1, 1)
    W = np.random.default_rng(draw(st.integers(0, 2 ** 16))).normal(size=shape)
    return W, shape[1], fill, form


def case(W, n_in, values, form, seed, spare, neg_zero, tight):
    """(schedule, config kwargs, input slots, lender): the operand in
    [0, n_in), or repeated with period n_in over the slots the schedule
    reads, with ``spare`` more zeros (negative ones if neg_zero) inside
    its window, and the smallest slot count the schedule accepts (2n ==
    slot_count when it duplicates a period n that is a power of two;
    reads == slot_count for the front-padded (3, 6), (11, 22) or (13, 52))
    or twice that. The operand is normal, or has about a quarter of its
    values -0.0 and, for "signed zeros", another quarter +0.0; "negative"
    makes the rest negative, and "non-finite" puts inf, -inf or NaN in one
    slot. The lender is None, or, for a shared front form, (A's block sum
    on the schedule's geometry, A, A's repeated operand) for a random A
    that fits it."""
    front = isinstance(form, tuple)
    sched = matvec_schedule(W, front=form[:2]) if front else matvec_schedule(W, form)
    slots = 2
    while True:
        try:
            sched.check_capacity(slots)
            break
        except DimensionMismatch:
            slots *= 2
    slots *= 1 if tight else 2
    rng = np.random.default_rng(seed)
    v = rng.normal(size=n_in)
    if values == "non-finite":
        v[rng.integers(n_in)] = rng.choice([np.inf, -np.inf, np.nan])
    elif values != "normal":
        if values == "negative":
            v = -np.abs(v)
        pick = rng.integers(0, 4, n_in)
        v[pick == 0] = -0.0
        if values == "signed zeros":
            v[pick == 1] = 0.0
    if form is True:
        v = np.resize(v, max(n_in, sched.reads))
    pad = np.full(min(spare, slots - v.size), -0.0 if neg_zero else 0.0)
    lender = None
    if front and form[2]:
        p, L = sched.shape
        period = rng.choice([n for n in range(1, L + 1) if math.lcm(p, n) <= L])
        A = rng.normal(size=(rng.integers(1, p + 1), period))
        shared = matvec_schedule(A, True, sched.geometry)
        lender = shared, A, np.resize(rng.normal(size=period), shared.reads)
    return sched, {"slot_count": slots, "depth_budget": 3}, np.concatenate((v, pad)), lender


flags = st.tuples(st.integers(0, 2 ** 16), st.integers(0, 8), st.booleans(), st.booleans())


class TestKernelEqualsReplay:
    @settings(max_examples=150, deadline=None)
    @given(operands(VALUES), flags)
    @example((np.ones((10, 256)), 256, "normal", False), (0, 0, False, True))  # wide, 2n == slots
    @example((gen_permutation(4, 4), 16, "normal", False), (1, 3, True, True))  # 2n == slots
    @example((np.ones((1, 1)), 1, "normal", False), (2, 0, False, True))       # n = 1
    @example((np.ones((1, 40)), 40, "normal", False), (3, 0, False, True))     # one row, 64 slots
    @example((np.ones((29, 9)), 9, "negative", True), (4, 2, True, True))      # tall, repeated
    @example((np.ones((3, 12)), 12, "normal", True), (5, 0, False, True))      # wide, repeated
    # the permutation gather: a gathered -0.0 in a column that also reads
    # +0.0; -0.0 columns of a negative operand whose duplicate is not
    # periodic in sign (spare < n); inf, which the dense loop spreads as NaN
    @example((gen_permutation(2, 3), 6, "signed zeros", False), (2, 8, True, True))
    @example((gen_permutation(3, 3), 9, "negative", False), (1, 3, True, True))
    @example((gen_permutation(4, 4), 16, "non-finite", False), (0, 0, False, True))
    # the front-padded form at reads == slot_count, its zero front in the
    # slots below slot 0; with a shared giant block; at twice its least L
    @example((np.ones((2, 4)), 4, "negative", (3, 6, False)), (1, 0, True, True))
    @example((np.ones((11, 12)), 12, "normal", (11, 22, True)), (2, 0, False, True))
    @example((np.ones((5, 40)), 40, "signed zeros", (13, 52, True)), (3, 4, True, True))
    @example((np.ones((1, 7)), 7, "normal", (1, 16, True)), (4, 0, False, False))
    def test_exact(self, operand, flags):
        sched, cfg, x, lender = case(*operand, *flags)
        S, n = cfg["slot_count"], sched.shape[1]
        # inf * 0 in a non-finite operand's products is NaN on both sides
        with np.errstate(invalid="ignore"):
            ref = HeBackend(BackendConfig(**cfg))
            lent = replay(lender[0], ref.encrypt(lender[2])) if lender else ()
            lent_ops = ref.counter.copy()
            summed, want = replay(sched, ref.encrypt(x), lent)
            be = HeBackend(BackendConfig(**cfg))
            giants = lender[0].run(be, be.encrypt(lender[2])) if lender else None
            v = be.encrypt(x)
            got = sched.run(be, v, giants)
            before = be.counter.copy()
            block_sum = be.run_block_sum(v, sched, giants and giants[0])

        rows = max(sched.n_out, lender[1].shape[0] if lender else 0)
        assert np.array_equal(bits(be.decrypt(got)[:rows]), bits(ref.decrypt(want)[:rows]))
        assert before == ref.counter
        assert got.level == want.level == v.level - 1
        W, n_in, values, _ = operand
        if values == "normal" and not isinstance(W, PermutationSpec):
            expect = np.pad(W @ x[:n_in], (0, rows - W.shape[0]))
            if lender:
                _, A, a = lender
                expect += np.pad(A @ a[:A.shape[1]], (0, rows - A.shape[0]))
            np.testing.assert_allclose(be.decrypt(got)[:rows], expect, atol=1e-9)

        assert np.array_equal(bits(be.decrypt(block_sum)[:n]), bits(ref.decrypt(summed)[:n]))
        assert np.all(be.decrypt(block_sum)[n:] == 0.0)
        assert block_sum.level == v.level - 1
        folds = len(sched.folds)
        assert be.counter.since(before) == OpCounter(
            adds=ref.counter.since(lent_ops).adds - folds, pt_mults=sched.pt_mults,
            rotations=sched.rotations - folds)

    @settings(max_examples=60, deadline=None)
    @given(operands(), flags)
    @example((gen_permutation(3, 5), 15, "normal", False), (4, 2, False, True))
    @example((np.ones((29, 9)), 9, "normal", True), (5, 1, False, True))     # tall, repeated
    @example((np.ones((1, 40)), 40, "normal", False), (6, 0, False, True))   # one row
    @example((np.ones((3, 4)), 4, "normal", (3, 6, True)), (7, 0, False, True))  # reads == slots
    @example((np.ones((9, 12)), 12, "normal", (11, 22, False)), (8, 2, True, True))
    def test_noisy(self, operand, flags):
        sched, cfg, x, lender = case(*operand, *flags)
        cfg.update(noise_std=1e-6, rng_seed=flags[0])
        ref = HeBackend(BackendConfig(**cfg))
        lent = replay(lender[0], ref.encrypt(lender[2])) if lender else ()
        _, want = replay(sched, ref.encrypt(x), lent)
        be = HeBackend(BackendConfig(**cfg))
        giants = lender[0].run(be, be.encrypt(lender[2])) if lender else None
        got = sched.run(be, be.encrypt(x), giants)
        assert np.array_equal(bits(be.decrypt(got)), bits(ref.decrypt(want)))
        assert be.counter == ref.counter
        assert got.level == want.level
        # both drew the same number of values: the next draws agree too
        assert np.array_equal(be.decrypt(be.encrypt(0.0)), ref.decrypt(ref.encrypt(0.0)))

    def test_clear_executor_runs_the_same_kernel(self):
        W = np.random.default_rng(5).normal(size=(3, 40))
        sched = matvec_schedule(W)
        v = np.random.default_rng(6).normal(size=40)
        be = HeBackend(BackendConfig(slot_count=128, depth_budget=1))
        _, want = replay(sched, be.encrypt(v))
        assert np.array_equal(bits(bsgs_matvec(W, v)[:3]), bits(be.decrypt(want)[:3]))


class TestFoldsEqualReplay:
    """The folds as a window program of reach sum(shifts)
    (``MatvecSchedule.run``) against the op-by-op folds, every slot, on
    any window and tail, including windows the folds would wrap onto."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 7).flatmap(lambda j: st.tuples(
        st.just(2 ** j), st.integers(0, 2 ** j - 1), st.integers(0, 2 ** j),
        st.integers(1, j), st.integers(0, j - 1))),
        st.sampled_from([0.0, -0.0, 0.5]), st.integers(0, 2 ** 16), st.booleans())
    @example((64, 0, 64, 6, 0), 0.0, 1, False)    # a one-row fold of a full window
    @example((64, 60, 8, 5, 2), -0.0, 2, False)  # a window across the last slot
    def test_every_slot(self, shape, tail, seed, noisy):
        S, start, size, top, low = shape
        shifts = tuple(1 << i for i in range(max(top, low + 1) - 1, low - 1, -1))
        rng = np.random.default_rng(seed)
        data = rng.normal(size=size)
        data[rng.integers(0, 4, size) == 0] = -0.0
        cfg = BackendConfig(slot_count=S, depth_budget=2, noise_std=1e-6 if noisy else 0.0,
                            rng_seed=seed)
        ref, be = HeBackend(cfg), HeBackend(cfg)
        want = CipherText(start, data, tail, 2, ref)
        for t in shifts:
            want = ref.add(want, ref.rotate(want, t))
        got = be.run_on_window(lambda w, a: _folds(w, a, shifts),
                               CipherText(start, data, tail, 2, be), reach=sum(shifts))
        assert np.array_equal(bits(be.decrypt(got)), bits(ref.decrypt(want)))
        assert bits(got.tail) == bits(want.tail)
        assert be.counter == ref.counter and got.level == want.level
        assert np.array_equal(be.decrypt(be.encrypt(0.0)), ref.decrypt(ref.encrypt(0.0)))


class TestKernelLimits:
    def test_never_builds_all_diagonals(self):
        # the (256, 10, 5) table config's permutation: n = 3840 diagonals of
        # 3840 slots are 118 MB at once; one giant step's 62 are 1.9 MB
        P = gen_permutation(256, 15)
        assert isinstance(P, PermutationSpec) and P.size == 3840
        sched = matvec_schedule(P)
        be = HeBackend(BackendConfig(slot_count=8192, depth_budget=1))
        v = be.encrypt(np.random.default_rng(0).normal(size=3840))
        tracemalloc.start()
        try:
            out = sched.run(be, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20, peak
        assert np.array_equal(be.decrypt(out)[:3840], P.apply(be.decrypt(v)[:3840]))

    def test_exact_permutation_gathers(self, monkeypatch):
        # the same permutation on the exact backend is one gather: no
        # diagonal is built, by the encrypted or the clear executor
        def no_diagonals(self, ds):
            raise AssertionError("exact permutation block sum built diagonals")

        monkeypatch.setattr(MatvecSchedule, "diagonals", no_diagonals)
        P = gen_permutation(256, 15)
        sched = matvec_schedule(P)
        x = np.random.default_rng(1).normal(size=3840)
        be = HeBackend(BackendConfig(slot_count=8192, depth_budget=1))
        v = be.encrypt(x)
        tracemalloc.start()
        try:
            out = sched.run(be, v)
            clear = bsgs_matvec(P, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, peak
        assert np.array_equal(be.decrypt(out)[:3840], P.apply(x))
        assert np.array_equal(clear, P.apply(x))

    def test_derived_counts_are_computed_once(self, monkeypatch):
        # the layout search and every run_block_sum read a schedule's
        # counts; each is worked out once, when the schedule is settled,
        # and kept as a field: reading or running it derives nothing more
        settled = []
        monkeypatch.setattr(matvec, "_settled", lambda *args, f=matvec._settled, **kw:
                            settled.append(args) or f(*args, **kw))
        sched = matvec_schedule(np.ones((3, 8)))  # wide, p = 4: duplicated, one fold
        assert len(settled) == 1
        assert not any(isinstance(v, cached_property) for name, v in vars(MatvecSchedule).items()
                       if name != "all_diagonals")
        assert sched.duplicates and sched.folds == (4,)
        be = HeBackend(BackendConfig(slot_count=64, depth_budget=2))
        for _ in range(2):
            # rotations: the duplication, one baby, one giant step, one fold
            assert (sched.rotations, sched.pt_mults, sched.slots) == (4, 4, 16)
            assert (sched.reads, sched.split, sched.block_sum_counts) == (11, (2, 2), (3, 4, 4))
            sched.check_capacity(64)
            out = sched.run(be, be.encrypt(np.arange(8.0)))
            assert np.array_equal(be.decrypt(out)[:3], np.full(3, 28.0))
        assert len(settled) == 1
        assert set(vars(sched)) <= {f.name for f in fields(MatvecSchedule)} | {"all_diagonals"}

    @pytest.mark.parametrize("shape", [(2, 2, 2), (0, 2), (2, 0), (0,)])
    def test_malformed_matrix_raises_before_any_op(self, shape):
        be = HeBackend(BackendConfig(slot_count=64, depth_budget=2))
        v = be.encrypt(np.ones(2))
        with pytest.raises(DimensionMismatch, match="non-empty matrix"):
            bsgs_matvec(np.ones(shape), v)
        with pytest.raises(DimensionMismatch):
            bsgs_matvec(np.ones(shape), np.ones(2))
        assert be.counter == OpCounter()

    def test_level_zero_raises_before_any_op(self):
        be = HeBackend(BackendConfig(slot_count=64, depth_budget=2))
        v = be.encrypt(np.ones(8), level=0)
        for W in (np.eye(8), np.ones((2, 8)), gen_permutation(2, 4)):
            with pytest.raises(DepthExhausted):
                bsgs_matvec(W, v)
        assert be.counter == OpCounter()


class TestNoisyKernelMemory:
    def test_noisy_permutation_matvec_runs_op_by_op(self):
        # the noisy block sum runs op by op: its babies share the operand's
        # slots, and each op draws one row of noise, so a few slot vectors
        # and one giant step's diagonals are live at a time
        P = gen_permutation(256, 15)
        sched = matvec_schedule(P)
        be = HeBackend(BackendConfig(slot_count=8192, depth_budget=1, noise_std=1e-9))
        x = np.random.default_rng(2).normal(size=3840)
        v = be.encrypt(x)
        tracemalloc.start()
        try:
            out = sched.run(be, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20, peak
        np.testing.assert_allclose(be.decrypt(out)[:3840], P.apply(x), atol=1e-6)


def _stated(be, v, width, copies):
    """A ciphertext stating ``copies`` copies of ``width`` slots that holds
    what it states: v repeated or cut to width values, copies times."""
    ct = be.encrypt(np.tile(np.resize(v, width), copies))
    return replace(ct, copies=copies, width=width)


class TestStatedLayouts:
    """bsgs_matvec reads the layout a ciphertext states (``width`` and
    ``copies``) before any op: a width other than W's n_in, more than one
    copy for a schedule that is not repeated, and too few copies to cover
    a repeated schedule's reads raise ShapeMismatch. Read as the schedule's
    operand, each of them gave a wrong product with no error."""

    W = np.arange(12.0).reshape(3, 4) / 10  # W @ v = [2, 6, 10]
    v = np.array([1.0, 2.0, 3.0, 4.0])

    @pytest.mark.parametrize("noise", [0.0, 1e-9])
    @pytest.mark.parametrize("case, match", [
        ("width-6", "input of width 6 for a matrix of n_in = 4"),
        ("two-copies", "2 copies of 4 slots, more than the 1 the block sum reads"),
    ], ids=["width-6", "two-copies"])
    def test_live_cases_raise_before_any_op(self, noise, case, match):
        # read as the default schedule's operand, they gave [2, 8, 19.4]
        # and [2, 6.4, 12.6]
        be = HeBackend(BackendConfig(slot_count=64, depth_budget=2, noise_std=noise))
        ct = (be.encrypt([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]) if case == "width-6"
              else replace(be.encrypt(np.tile(self.v, 2)), copies=2, width=4))
        before = be.counter.copy(), be._rng.bit_generator.state
        with pytest.raises(ShapeMismatch, match=match):
            bsgs_matvec(self.W, ct)
        assert (be.counter, be._rng.bit_generator.state) == before
        out = bsgs_matvec(self.W, be.encrypt(self.v))
        np.testing.assert_allclose(be.decrypt(out)[:3], [2.0, 6.0, 10.0], atol=1e-6)

    def test_repeated_schedule_needs_the_copies_it_reads(self):
        sched = matvec_schedule(np.ones((7, 3)), True)  # tall: reads 7 + 3 - 1 = 9 slots
        be = HeBackend(BackendConfig(slot_count=64, depth_budget=2))
        with pytest.raises(ShapeMismatch, match="the block sum reads 3 copies of 3 slots"):
            bsgs_matvec(np.ones((7, 3)), _stated(be, [1.0, 2.0, 3.0], 3, 2), sched)
        with pytest.raises(ShapeMismatch, match="the block sum reads 3 copies"):
            bsgs_matvec(np.ones((7, 3)), np.tile([1.0, 2.0, 3.0], 2), sched)
        assert be.counter == OpCounter()
        out = bsgs_matvec(np.ones((7, 3)), _stated(be, [1.0, 2.0, 3.0], 3, 4), sched)
        np.testing.assert_allclose(be.decrypt(out)[:7], 6.0)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["square", "tall-repeated", "wide", "one-row", "permutation",
                            "unfolded", "front", "front-unfolded"]),
           st.integers(1, 12), st.integers(1, 12), st.booleans(),
           st.integers(1, 40) | st.just(0), st.integers(1, 6), st.booleans(),
           st.integers(0, 2 ** 16))
    @example("wide", 2, 4, False, 6, 1, True, 0)           # another width
    @example("wide", 2, 4, False, 0, 2, True, 0)           # two copies, not repeated
    @example("tall-repeated", 7, 3, True, 0, 3, True, 1)   # 3 copies for 10 reads
    @example("tall-repeated", 7, 3, True, 12, 1, True, 1)  # one vector: 4 copies' slots
    @example("unfolded", 3, 2, True, 0, 8, True, 2)        # 8 copies of 4 for 5 reads
    @example("unfolded", 3, 2, True, 0, 1, True, 2)        # 1 copy of 4 for 5 reads
    @example("front", 3, 5, False, 0, 2, True, 3)          # two copies, a zero tail read
    @example("front-unfolded", 3, 4, True, 0, 1, True, 4)  # 1 copy of 16 for 17 reads
    def test_raises_before_any_op_or_multiplies(self, kind, a, b, repeated, width, copies,
                                                stated, seed):
        rng = np.random.default_rng(seed)
        if kind == "square":
            W = rng.normal(size=(a, a))
        elif kind == "tall-repeated":
            W, repeated = rng.normal(size=(max(a, b) + 1, min(a, b))), True
        elif kind == "wide":
            W = rng.normal(size=(min(a, b), max(a, b) << 1))
        elif kind == "one-row":
            W = rng.normal(size=(1, a + 1))
        elif kind == "permutation":
            W, repeated = gen_permutation(a % 4 + 1, b % 4 + 1), False
        elif kind == "front":  # p = n_o diagonals behind a zero front
            W, repeated = rng.normal(size=(min(a, b), max(a, b))), False
        else:  # A's block sum on B's geometry, B 2 x 16: p = 2 over L = 16, or 32 front-padded
            B = rng.normal(size=(2, 16))
            W, repeated = rng.normal(size=(a % 2 + 1, 1 << b % 5)), True
            lender = (matvec_schedule(B, front=(2, 32)) if kind == "front-unfolded"
                      else matvec_schedule(B))
        n_in = W.size if isinstance(W, PermutationSpec) else W.shape[1]
        width = width or n_in  # 0 draws W's own width
        if kind == "front":
            p = W.shape[0]
            sched = matvec_schedule(W, front=(p, p << ((n_in + p - 2) // p).bit_length()))
        elif "unfolded" in kind:
            sched = matvec_schedule(W, True, lender.geometry)
        else:
            sched = matvec_schedule(W, repeated)
        x = rng.normal(size=n_in)
        # an unfolded block sum's giants go to B's schedule, whose period is 16 or 32
        period = lender.period if "unfolded" in kind else sched.period
        slots = 1 << (2 * period + sched.reads + width * copies).bit_length()
        be = HeBackend(BackendConfig(slot_count=slots, depth_budget=2))
        if stated:
            ct = _stated(be, x, width, copies)
        else:  # states nothing: the operand as the schedule reads it
            ct = replace(be.encrypt(np.resize(x, sched.reads) if repeated else x), width=None)
        before = be.counter.copy()
        try:
            out = bsgs_matvec(W, ct, sched)
        except HeKanError:
            assert stated and be.counter == before
            return
        if "unfolded" in kind:
            w = rng.normal(size=16)
            out = bsgs_matvec(B, be.encrypt(w), lender, giants=out)
            want = np.pad(W @ x, (0, 2 - W.shape[0])) + B @ w
        else:
            want = W.apply(x) if isinstance(W, PermutationSpec) else W @ x
        np.testing.assert_allclose(be.decrypt(out)[:want.size], want, rtol=0, atol=1e-9)
