"""The matvec block kernel against an op-by-op replay of its schedule.

``replay`` is the per-diagonal loop the encrypted executor used to run:
one backend rotation, plaintext multiply or add per schedule op, with the
wraparound duplication only where the schedule has one. The kernel
(``HeBackend.run_block_sum`` plus the folds) must give the same valid
slots, op counts and level, and on a noisy backend the same slots
everywhere, for schedules on a zero-tail operand and on a repeated one.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hekan.backend import BackendConfig, CipherText, HeBackend, OpCounter
from hekan.bspline import PermutationSpec, gen_permutation
from hekan.errors import DepthExhausted, DimensionMismatch
from hekan.inference import bsgs_matvec
from hekan.matvec import MatvecSchedule, matvec_schedule


def replay(sched, v):
    """The schedule op by op: (the giant-step sum before the folds, the
    folded result). Diagonal d's plaintext is pre-rotated by its giant
    step's base: a dense slot vector holding the diagonal from slot base."""
    be = v.backend
    S = be.config.slot_count
    L = sched.shape[1]
    vfull = be.add(v, be.rotate(v, -sched.period)) if sched.duplicates else v
    babies = [be.rotate(vfull, i) for i in range(sched.split[0])]
    acc = None
    for base, diags in sched.blocks():
        block = None
        for d in diags:
            plain = np.zeros(S)
            plain[:L] = sched.diagonals([d])[0]
            term = be.mul(babies[d - base], np.roll(plain, base))
            block = term if block is None else be.add(block, term)
        rotated = be.rotate(block, base)
        acc = rotated if acc is None else be.add(acc, rotated)
    summed = acc
    for shift in sched.folds:
        acc = be.add(acc, be.rotate(acc, shift))
    return summed, acc


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


VALUES = ("normal", "signed zeros", "negative", "non-finite")


@st.composite
def operands(draw, values=("normal",)):
    """(matrix or PermutationSpec, n_in, values, repeated) over the
    schedule's shapes, with the operand's values drawn from ``values`` (see
    ``case``); a matrix's operand is zero-tail or repeated."""
    kind = draw(st.sampled_from(["square", "tall", "wide", "one-row", "permutation", "n1"]))
    fill = draw(st.sampled_from(values))
    repeated = draw(st.booleans())
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
    else:
        shape = (1, 1)
    W = np.random.default_rng(draw(st.integers(0, 2 ** 16))).normal(size=shape)
    return W, shape[1], fill, repeated


def case(W, n_in, values, repeated, seed, spare, neg_zero, tight):
    """(schedule, config kwargs, input slots): the operand in [0, n_in), or
    repeated with period n_in over the slots the schedule reads, with
    ``spare`` more zeros (negative ones if neg_zero) inside its window, and
    the smallest slot count the schedule accepts (2n == slot_count when it
    duplicates a period n that is a power of two) or twice that. The
    operand is normal, or has about a quarter of its values -0.0 and, for
    "signed zeros", another quarter +0.0; "negative" makes the rest
    negative, and "non-finite" puts inf, -inf or NaN in one slot."""
    sched = matvec_schedule(W, repeated)
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
    if repeated:
        v = np.resize(v, max(n_in, sched.reads))
    pad = np.full(min(spare, slots - v.size), -0.0 if neg_zero else 0.0)
    return sched, {"slot_count": slots, "depth_budget": 3}, np.concatenate((v, pad))


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
    def test_exact(self, operand, flags):
        sched, cfg, x = case(*operand, *flags)
        S, n = cfg["slot_count"], sched.shape[1]
        # inf * 0 in a non-finite operand's products is NaN on both sides
        with np.errstate(invalid="ignore"):
            ref = HeBackend(BackendConfig(**cfg))
            summed, want = replay(sched, ref.encrypt(x))
            be = HeBackend(BackendConfig(**cfg))
            v = be.encrypt(x)
            got = sched.run(be, v)
            before = be.counter.copy()
            block_sum = be.run_block_sum(v, sched)

        assert np.array_equal(bits(be.decrypt(got)[:sched.n_out]),
                              bits(ref.decrypt(want)[:sched.n_out]))
        assert before == ref.counter
        assert got.level == want.level == v.level - 1
        W, n_in, values, _ = operand
        if values == "normal" and not isinstance(W, PermutationSpec):
            np.testing.assert_allclose(be.decrypt(got)[:sched.n_out], W @ x[:n_in], atol=1e-9)

        assert np.array_equal(bits(be.decrypt(block_sum)[:n]), bits(ref.decrypt(summed)[:n]))
        assert np.all(be.decrypt(block_sum)[n:] == 0.0)
        assert block_sum.level == v.level - 1
        folds = len(sched.folds)
        assert be.counter.since(before) == OpCounter(
            adds=ref.counter.adds - folds, pt_mults=sched.pt_mults,
            rotations=sched.rotations - folds)

    @settings(max_examples=60, deadline=None)
    @given(operands(), flags)
    @example((gen_permutation(3, 5), 15, "normal", False), (4, 2, False, True))
    @example((np.ones((29, 9)), 9, "normal", True), (5, 1, False, True))     # tall, repeated
    @example((np.ones((1, 40)), 40, "normal", False), (6, 0, False, True))   # one row
    def test_noisy(self, operand, flags):
        sched, cfg, x = case(*operand, *flags)
        cfg.update(noise_std=1e-6, rng_seed=flags[0])
        ref = HeBackend(BackendConfig(**cfg))
        _, want = replay(sched, ref.encrypt(x))
        be = HeBackend(BackendConfig(**cfg))
        got = sched.run(be, be.encrypt(x))
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
    """HeBackend.run_folds against the op-by-op folds, every slot, on any
    window and tail, including windows the folds would wrap onto."""

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
        got = be.run_folds(CipherText(start, data, tail, 2, be), shifts)
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
