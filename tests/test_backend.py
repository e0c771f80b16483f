import builtins
import json
import math
import operator
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hekan.approx import EXACT_COMPARATOR, poly_comp
from hekan.backend import (
    BackendConfig,
    CipherText,
    HeBackend,
    OpCounter,
    _ArrayOps,
    _ops_of,
    _read,
    make_backend,
)
from hekan.bspline import GridMatrix, gen_permutation, repeat_pack
from hekan.errors import (
    DepthExhausted,
    HeKanError,
    InputTooLong,
    InvalidArgument,
    LengthMismatch,
)
from hekan.matvec import matvec_schedule


def fresh(slot_count=8, depth=20, noise=0.0, seed=0):
    cfg = BackendConfig(slot_count=slot_count, depth_budget=depth,
                        noise_std=noise, rng_seed=seed)
    return make_backend(cfg)


class TestConfig:
    def test_slot_count_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            BackendConfig(slot_count=12, depth_budget=5)
        with pytest.raises(ValueError):
            BackendConfig(slot_count=0, depth_budget=5)

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            BackendConfig(slot_count=8, depth_budget=-1)
        with pytest.raises(ValueError):
            BackendConfig(slot_count=8, depth_budget=1, noise_std=-0.5)

    def test_from_json_dict_string_file(self, tmp_path):
        doc = {"slot_count": 16, "depth_budget": 7, "noise_std": 0.0, "rng_seed": 3}
        assert BackendConfig.from_json(doc).depth_budget == 7
        assert BackendConfig.from_json(json.dumps(doc)).slot_count == 16
        p = tmp_path / "b.json"
        p.write_text(json.dumps(doc))
        assert BackendConfig.from_json(str(p)).rng_seed == 3

    def test_from_json_reads_path_like_and_bytes_paths(self, tmp_path):
        p = tmp_path / "b.json"
        p.write_text(json.dumps({"slot_count": 16, "depth_budget": 7}))
        assert BackendConfig.from_json(p).depth_budget == 7
        assert BackendConfig.from_json(os.fsencode(p)).slot_count == 16

    @pytest.mark.parametrize("source", [0, 7, True, False, np.int64(3), 1.5, None, ["x"]])
    def test_from_json_rejects_what_is_not_a_path(self, source, monkeypatch):
        # open() takes an integer (a bool too) for a file descriptor
        def no_open(*args, **kwargs):
            raise AssertionError("from_json opened a non-path source")

        monkeypatch.setattr(builtins, "open", no_open)
        with pytest.raises(InvalidArgument, match="BackendConfig is a dict"):
            BackendConfig.from_json(source)

    @pytest.mark.parametrize("text", ["5", "[16, 7]", "null"])
    def test_from_json_file_must_hold_an_object(self, tmp_path, text):
        p = tmp_path / "b.json"
        p.write_text(text)
        with pytest.raises(InvalidArgument, match="JSON object"):
            BackendConfig.from_json(p)

    def test_from_json_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            BackendConfig.from_json({"slot_count": 8, "depth_budget": 1, "bogus": 2})

    def test_seed_and_noise_must_be_usable(self):
        for seed in (-1, 1.5, "3", True):
            with pytest.raises(ValueError):
                BackendConfig(slot_count=8, depth_budget=1, rng_seed=seed)
        for noise in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                BackendConfig(slot_count=8, depth_budget=1, noise_std=noise)
        assert BackendConfig(slot_count=8, depth_budget=1, rng_seed=np.int64(2)).rng_seed == 2

    def test_noise_std_must_be_a_real_number(self):
        # True would be sigma = 1, and "0.1" would fail in the comparison
        for noise in (True, False, "0.1", None, [0.1]):
            with pytest.raises(InvalidArgument, match="noise_std"):
                BackendConfig(slot_count=8, depth_budget=1, noise_std=noise)
        with pytest.raises(InvalidArgument, match="noise_std"):
            BackendConfig.from_json('{"slot_count": 8, "depth_budget": 1, "noise_std": "0.1"}')
        for noise in (0, 1e-8, np.float32(0.5), np.int64(1)):
            assert BackendConfig(slot_count=8, depth_budget=1, noise_std=noise).noise_std == noise

    @pytest.mark.parametrize("fields", [
        {"slot_count": 1024, "depth_budget": 2.5},
        {"slot_count": 1024, "depth_budget": True},
        {"slot_count": True, "depth_budget": 4},
        {"slot_count": 1024.0, "depth_budget": 4},
        {"slot_count": "1024", "depth_budget": 4},
        {"slot_count": 1024, "depth_budget": 4, "rng_seed": True},
    ])
    def test_fields_must_be_integers(self, fields):
        # a fractional budget would give fractional levels; a bool is not
        # a count; each is the library's InvalidArgument, a ValueError too
        with pytest.raises(HeKanError) as info:
            BackendConfig(**fields)
        assert isinstance(info.value, ValueError)

    def test_numpy_integer_fields_accepted(self):
        cfg = BackendConfig(slot_count=np.int64(16), depth_budget=np.int32(3))
        assert make_backend(cfg).encrypt([1.0]).level == 3

    def test_from_json_errors_are_library_errors(self):
        with pytest.raises(HeKanError):
            BackendConfig.from_json({"slot_count": 8, "depth_budget": 1, "bogus": 2})
        with pytest.raises(HeKanError):
            BackendConfig.from_json('{"slot_count": 8, "depth_budget": 1.5}')

    def test_make_backend_kind(self):
        # exact iff noise_std == 0, perturbed otherwise
        want = np.array([1.5, 2.5, 3.5, 0.5, 0.5, 0.5, 0.5, 0.5])
        for noise in (0.0, 1e-9):
            be = fresh(noise=noise)
            out = be.decrypt(be.add(be.encrypt([1.0, 2.0, 3.0]), 0.5))
            assert np.array_equal(out, want) == (noise == 0)
            np.testing.assert_allclose(out, want, atol=1e-7)


class TestSlotwise:
    def test_add(self):
        be = fresh()
        a = be.encrypt([1.0, 2.0])
        b = be.encrypt([3.0, 4.0])
        out = be.add(a, b)
        np.testing.assert_array_equal(out.slots[:2], [4.0, 6.0])
        assert out.level == 20

    def test_sub(self):
        be = fresh()
        out = be.sub(be.encrypt([5.0, 1.0]), be.encrypt([2.0, 7.0]))
        np.testing.assert_array_equal(out.slots[:2], [3.0, -6.0])

    def test_mul_pt_identity_decrements_level(self):
        be = fresh()
        a = be.encrypt([1.5, -2.5, 3.0])
        out = be.mul(a, np.ones(8))
        np.testing.assert_array_equal(out.slots, a.slots)
        assert out.level == 19
        assert be.counter.pt_mults == 1

    def test_mul_ct_from_full_budget(self):
        be = fresh(depth=20)
        out = be.mul(be.encrypt([2.0]), be.encrypt([3.0]))
        assert out.level == 19
        assert out.slots[0] == 6.0

    def test_level_is_min_of_operands(self):
        be = fresh()
        a = be.encrypt([1.0], level=5)
        b = be.encrypt([1.0], level=9)
        assert be.add(a, b).level == 5
        assert be.mul(a, b).level == 4

    def test_depth_exhausted(self):
        be = fresh()
        a = be.encrypt([1.0], level=0)
        with pytest.raises(DepthExhausted):
            be.mul(a, be.encrypt([1.0]))
        with pytest.raises(DepthExhausted):
            be.mul(a, np.ones(8))

    def test_scalar_plain_broadcast(self):
        be = fresh()
        out = be.mul(be.encrypt([2.0, 4.0]), 0.5)
        np.testing.assert_array_equal(out.slots[:2], [1.0, 2.0])

    def test_length_mismatch(self):
        # an op's plaintext operand past slot_count; a vector to encrypt
        # past it raises InputTooLong (test_input_too_long)
        be = fresh()
        for op in (be.add, be.sub, be.mul):
            with pytest.raises(LengthMismatch):
                op(be.encrypt([1.0]), np.ones(9))

    def test_foreign_ciphertext_rejected(self):
        be1, be2 = fresh(), fresh()
        with pytest.raises(LengthMismatch):
            be1.add(be1.encrypt([1.0]), be2.encrypt([1.0]))

    def test_slotwise_kind_dispatch(self):
        be = fresh()
        a, b = be.encrypt([2.0]), be.encrypt([5.0])
        assert be.slotwise("sub", a, b).slots[0] == -3.0
        with pytest.raises(ValueError):
            be.slotwise("pow", a, b)
        with pytest.raises(HeKanError):
            be.slotwise("pow", a, b)
        with pytest.raises(LengthMismatch):
            be.slotwise("mul_ct", a, np.ones(8))
        with pytest.raises(LengthMismatch):
            be.slotwise("mul_pt", a, b)


class TestRotate:
    def test_left_rotation(self):
        be = fresh(slot_count=4)
        a = be.encrypt([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(be.rotate(a, 1).slots, [2.0, 3.0, 4.0, 1.0])

    def test_right_rotation(self):
        be = fresh(slot_count=4)
        a = be.encrypt([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(be.rotate(a, -1).slots, [4.0, 1.0, 2.0, 3.0])

    def test_zero_is_noop_and_uncounted(self):
        be = fresh()
        a = be.encrypt([1.0, 2.0])
        out = be.rotate(a, 0)
        np.testing.assert_array_equal(out.slots, a.slots)
        assert be.counter.rotations == 0

    def test_bound_check(self):
        be = fresh(slot_count=8)
        with pytest.raises(ValueError):
            be.rotate(be.encrypt([1.0]), 8)

    @pytest.mark.parametrize("t", [8, -8, 9])
    def test_out_of_range_rotation_is_a_library_error(self, t):
        be = fresh(slot_count=8)
        with pytest.raises(HeKanError, match="must be < slot_count 8"):
            be.rotate(be.encrypt([1.0]), t)

    @pytest.mark.parametrize("t", [2.0, 2.5, True, "1", None])
    def test_non_integer_rotation_rejected(self, t):
        be = fresh()
        with pytest.raises(InvalidArgument, match="integer"):
            be.rotate(be.encrypt([1.0]), t)
        assert be.counter.rotations == 0

    def test_numpy_integer_rotation_accepted(self):
        be = fresh()
        a = be.encrypt([1.0, 2.0, 3.0])
        for t in (np.int64(2), np.int32(-1)):
            np.testing.assert_array_equal(be.rotate(a, t).slots, be.rotate(a, int(t)).slots)

    def test_level_unchanged(self):
        be = fresh()
        a = be.encrypt([1.0], level=3)
        assert be.rotate(a, 2).level == 3

    def test_group_law(self):
        be = fresh(slot_count=16)
        rng = np.random.default_rng(0)
        a = be.encrypt(rng.normal(size=16))
        for s, t in [(3, 5), (7, 12), (-4, 9), (15, 15), (-8, -9)]:
            lhs = be.rotate(be.rotate(a, s), t)
            rhs = be.rotate(a, (s + t) % 16)
            np.testing.assert_array_equal(lhs.slots, rhs.slots)


class TestEncryptDecrypt:
    def test_round_trip_pads(self):
        be = fresh()
        out = be.decrypt(be.encrypt([1.0, 2.0], level=20))
        np.testing.assert_array_equal(out, [1, 2, 0, 0, 0, 0, 0, 0])

    def test_empty_vector(self):
        be = fresh()
        np.testing.assert_array_equal(be.decrypt(be.encrypt([])), np.zeros(8))

    def test_input_too_long(self):
        be = fresh(slot_count=4)
        with pytest.raises(InputTooLong):
            be.encrypt(np.ones(5))

    def test_level_bounds(self):
        be = fresh(depth=5)
        with pytest.raises(ValueError):
            be.encrypt([1.0], level=6)

    @pytest.mark.parametrize("level", [-1, 6])
    def test_level_outside_the_budget_is_a_library_error(self, level):
        be = fresh(depth=5)
        with pytest.raises(HeKanError, match=r"outside \[0, 5\]"):
            be.encrypt([1.0], level=level)

    @pytest.mark.parametrize("level", [1.5, 2.0, True, "1"])
    def test_non_integer_level_rejected(self, level):
        with pytest.raises(InvalidArgument, match="integer"):
            fresh(depth=5).encrypt([1.0], level=level)

    def test_numpy_integer_level_accepted(self):
        be = fresh(depth=5)
        ct = be.mul(be.encrypt([1.0], level=np.int64(3)), 2.0)
        assert ct.level == 2

    def test_noisy_round_trip_error_bound(self):
        # Monte-Carlo over >= 1e4 independent slot perturbations
        be = fresh(slot_count=16384, depth=5, noise=1e-8, seed=123)
        values = np.random.default_rng(7).normal(size=16384)
        err = np.abs(be.decrypt(be.encrypt(values)) - values)
        assert np.mean(err <= 1e-6) >= 0.999


class TestDepthLedgerAndCounters:
    def test_straight_line_depth_ledger(self):
        be = fresh(depth=20)
        a = be.encrypt([1.1])
        for expected in (19, 18, 17):
            a = be.mul(a, be.encrypt([0.9]))
            assert a.level == expected
        a = be.add(a, be.encrypt([1.0]))
        assert a.level == 17  # additions are free

    def test_longest_multiplicative_chain_rule(self):
        be = fresh(depth=10)
        x = be.encrypt([2.0])
        x2 = be.mul(x, x)            # depth 1
        x4 = be.mul(x2, x2)          # depth 2
        mixed = be.mul(x4, x)        # chain max(2, 0) + 1 = 3
        assert mixed.level == 10 - 3

    def test_counters_are_exact(self):
        be = fresh(slot_count=16)
        a = be.encrypt(np.arange(16.0))
        for t in (1, 2, 3, 4, 5):
            a = be.rotate(a, t)
        assert be.counter.rotations == 5
        be.mul(a, a)
        be.mul(a, np.ones(16))
        be.add(a, a)
        be.sub(a, a)
        c = be.counter
        assert (c.ct_mults, c.pt_mults, c.adds, c.subs) == (1, 1, 1, 1)

    def test_counter_snapshot_and_merge(self):
        be = fresh()
        a = be.encrypt([1.0])
        be.mul(a, a)
        snap = be.counter.copy()
        be.mul(a, a)
        delta = be.counter.since(snap)
        assert delta.ct_mults == 1


class TestExactness:
    def test_composite_program_matches_raw_arithmetic(self):
        # same straight-line program on slots and on raw vectors
        rng = np.random.default_rng(5)
        x, y, z = rng.normal(size=(3, 32))
        be = fresh(slot_count=32, depth=10)
        ct = be.mul(be.add(be.encrypt(x), be.encrypt(y)), be.encrypt(z))
        ct = be.rotate(ct, 3)
        ct = be.sub(ct, be.encrypt(x))
        expected = np.roll((x + y) * z, -3) - x
        np.testing.assert_array_equal(be.decrypt(ct), expected)


# The hardware's default NaN, the only NaN that arithmetic produces. Inputs
# carry no other NaN: which payload survives when both operands are NaNs
# with different payloads depends on numpy's loop, already for dense vectors.
with np.errstate(invalid="ignore"):
    DEFAULT_NAN = float(np.float64(np.inf) * 0.0)

VALUES = (st.sampled_from([0.0, -0.0, 1.0, -2.5, 3e300, -3e300, np.inf, -np.inf, DEFAULT_NAN])
          | st.floats(-4.0, 4.0))
ARITH = {"add": operator.add, "sub": operator.sub,
         "mul_ct": operator.mul, "mul_pt": operator.mul}


def dense(start, values, tail, S):
    """Reference placement: values from slot start on (cyclic), tail elsewhere."""
    out = np.full(S, tail)
    out[(start + np.arange(len(values))) % S] = values
    return out


class TestWindowedSlots:
    """The window-plus-tail representation against dense numpy arithmetic."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_dense_reference(self, data):
        draw = data.draw
        S = draw(st.sampled_from([8, 16, 32, 64]))
        noise = draw(st.sampled_from([0.0, 0.25]))
        seed = draw(st.integers(0, 2 ** 16))
        depth = 30
        be = make_backend(BackendConfig(slot_count=S, depth_budget=depth,
                                        noise_std=noise, rng_seed=seed))
        rng = np.random.default_rng(seed)  # the reference's draws
        ref = OpCounter()

        def perturb(x):
            return x + rng.normal(0.0, noise, S) if noise else x

        def values(lo=0, hi=S):
            return np.array(draw(st.lists(VALUES, min_size=lo, max_size=hi)), dtype=float)

        pool = []
        for _ in range(2):  # wrapped, full and empty windows over any tail
            start, vals, tail = draw(st.integers(0, S - 1)), values(), draw(VALUES)
            pool.append((CipherText(start, vals, tail, depth, be),
                         dense(start, vals, tail, S)))

        with np.errstate(all="ignore"):
            for _ in range(draw(st.integers(1, 10))):
                kind = draw(st.sampled_from(["add", "sub", "mul_ct", "mul_pt", "rotate", "encrypt"]))
                a, da = pool[draw(st.integers(0, len(pool) - 1))]
                if kind == "rotate":
                    t = draw(st.integers(-(S - 1), S - 1))
                    out, want, level = be.rotate(a, t), np.roll(da, -t), a.level
                    ref.rotations += t != 0
                elif kind == "encrypt":
                    if draw(st.booleans()):
                        c = draw(VALUES)
                        out, want = be.encrypt(c, a.level), perturb(np.full(S, c))
                    else:
                        vals = values()
                        out, want = be.encrypt(vals, a.level), perturb(dense(0, vals, 0.0, S))
                    level = a.level
                else:
                    operands = {"mul_ct": ["ct"], "mul_pt": ["scalar", "short", "dense"]}
                    operand = draw(st.sampled_from(
                        operands.get(kind, ["ct", "scalar", "short", "dense"])))
                    level = a.level
                    if operand == "ct":
                        b, db = pool[draw(st.integers(0, len(pool) - 1))]
                        level = min(a.level, b.level)
                    elif operand == "scalar":
                        b = draw(VALUES)
                        db = np.full(S, b)
                    elif operand == "short":
                        b = values()
                        db = dense(0, b, 0.0, S)
                    else:
                        vals = values(S, S)
                        b, db = vals, vals
                    out = be.slotwise(kind, a, b)
                    want = ARITH[kind](da, db)
                    # a product with a zero-tail plaintext of a finite ciphertext
                    # keeps the plaintext's window: past it, a.tail * 0 stands for
                    # each x * 0, the same zero up to its sign
                    if kind == "mul_pt":
                        pt_len, pt_tail = (0, b) if operand == "scalar" else (len(b), 0.0)
                        if pt_tail == 0 and np.isfinite(a.tail) and np.isfinite(a.data).all():
                            want[pt_len:] = a.tail * pt_tail
                    want = perturb(want)
                    level -= kind.startswith("mul")
                    name = {"add": "adds", "sub": "subs",
                            "mul_ct": "ct_mults", "mul_pt": "pt_mults"}[kind]
                    setattr(ref, name, getattr(ref, name) + 1)
                assert np.array_equal(out.slots.view(np.int64), want.view(np.int64))
                assert np.array_equal(be.decrypt(out).view(np.int64), want.view(np.int64))
                assert out.level == level
                pool.append((out, want))
        assert be.counter == ref

    def test_rotation_moves_the_window_only(self):
        be = fresh(slot_count=16)
        a = be.add(be.encrypt([1.0, 2.0, 3.0]), 0.5)
        r = be.rotate(a, 5)
        assert r.data is a.data and r.tail == 0.5 and r.start == 11
        np.testing.assert_array_equal(r.slots, np.roll(a.slots, -5))

    def test_multiply_by_zero_tail_keeps_the_window(self):
        # x * 0 keeps x's sign and inf * 0 is NaN, so the window stays
        be = fresh(slot_count=8)
        a = be.encrypt([-1.0, np.inf, 2.0])
        with np.errstate(invalid="ignore"):
            out = be.mul(a, np.array([1.0]))
            zeroed = be.mul(a, 0.0)
        assert out.data.size == 3
        np.testing.assert_array_equal(out.slots[:4], [-1.0, np.nan, 0.0, 0.0])
        assert np.signbit(zeroed.slots[0]) and np.isnan(zeroed.slots[1])

    def test_product_with_a_zero_tail_plaintext_keeps_its_window(self):
        # past the plaintext each slot of a finite ciphertext is x * 0, for
        # which the tail a.tail * 0 stands: the same zero up to its sign
        be = fresh(slot_count=16)
        a = be.rotate(be.encrypt([-1.0, 2.0, -3.0, 4.0, 5.0]), 2)  # window [14, 19)
        out = be.mul(a, np.array([2.0, 0.5]))
        assert (out.start, out.data.size, out.tail) == (0, 2, 0.0)
        np.testing.assert_array_equal(out.slots, np.r_[-6.0, 2.0, np.zeros(14)])
        assert (be.mul(a, 0.0).data.size, be.mul(a, 0.0).tail) == (0, 0.0)
        assert be.mul(a, 2.0).data.size == 5  # a nonzero tail keeps a's window

    def test_constants_stay_compact(self):
        be = fresh(slot_count=1 << 20)
        c = be.encrypt(2.0)
        assert c.data.size == 0 and c.tail == 2.0
        out = be.mul(be.add(be.encrypt([1.0, 2.0]), c), np.array([0.0, 3.0, 4.0]))
        assert (out.start, out.data.size, out.tail) == (0, 3, 0.0)
        np.testing.assert_array_equal(be.decrypt(out)[:4], [0.0, 12.0, 8.0, 0.0])

    def test_slots_is_read_only(self):
        a = fresh().encrypt([1.0])
        with pytest.raises(ValueError):
            a.slots[0] = 2.0


class TestZeroDimensionalPlaintext:
    """A 0-d array plaintext is the scalar it holds on every adapter: the
    same slots, op counts and level as the call with a Python scalar."""

    @pytest.mark.parametrize("op", ["add", "sub", "mul"])
    @pytest.mark.parametrize("c", [2.0, 0.0])
    def test_slotwise_window_program_and_mirror(self, op, c):
        x = np.array([1.0, 2.0, 3.0])
        for run in (lambda be, ct, b: getattr(be, op)(ct, b),
                    lambda be, ct, b: be.run_on_window(lambda w, v: getattr(w, op)(v, b), ct)):
            got_be, want_be = fresh(), fresh()
            got = run(got_be, got_be.encrypt(x), np.array(c))
            want = run(want_be, want_be.encrypt(x), c)
            assert np.array_equal(got_be.decrypt(got).view(np.int64),
                                  want_be.decrypt(want).view(np.int64))
            assert got_be.counter == want_be.counter and got.level == want.level
        mirrored = getattr(_ArrayOps, op)(x, np.array(c))
        assert np.array_equal(mirrored, getattr(_ArrayOps, op)(x, c))
        assert np.array_equal(mirrored, getattr(operator, op)(x, c))

    def test_encrypt_fills_every_slot(self):
        be = fresh()
        got, want = be.encrypt(np.array(2.0)), be.encrypt(2.0)
        assert np.array_equal(be.decrypt(got), be.decrypt(want))
        assert np.all(be.decrypt(got) == 2.0) and got.width is want.width is None


class TestOperandTypes:
    """The op API rejects a wrong operand with a typed error before any op
    (the counter and the noise generator untouched), and reads a list or
    tuple plaintext as the equal array, as ``encrypt`` does."""

    @staticmethod
    def _untouched(be, noise):
        assert be.counter == OpCounter()
        fresh_draws = fresh(16, noise=noise)._rng.standard_normal(4)
        assert np.array_equal(be._rng.standard_normal(4), fresh_draws)

    @pytest.mark.parametrize("noise", [0.0, 1e-9])
    def test_a_non_ciphertext_or_a_non_numeric_plaintext_raises_first(self, noise):
        sched = matvec_schedule(np.ones((2, 4)))
        calls = [
            (InvalidArgument, lambda be, ct: be.decrypt(np.zeros(4))),
            (InvalidArgument, lambda be, ct: be.add(np.zeros(4), ct)),
            (InvalidArgument, lambda be, ct: be.rotate(np.zeros(4), 1)),
            (InvalidArgument, lambda be, ct: be.run_on_window(lambda w, v: v, np.zeros(4))),
            (InvalidArgument, lambda be, ct: be.run_on_window(lambda w, v: v, ct, [1.0])),
            (InvalidArgument, lambda be, ct: be.run_block_sum(np.zeros(4), sched)),
            (LengthMismatch, lambda be, ct: be.add(ct, fresh(16).encrypt(1.0))),
            (LengthMismatch, lambda be, ct: be.rotate(fresh(16).encrypt(1.0), 1)),
            *((InvalidArgument, lambda be, ct, b=b, op=op: getattr(be, op)(ct, b))
              for op in ("add", "sub", "mul") for b in (None, "a", "2", 1j, ["a"], [None])),
            *((InvalidArgument, lambda be, ct, b=b: be.run_on_window(lambda w, v: w.add(v, b), ct))
              for b in (None, "a", ["a"])),
            (InvalidArgument, lambda be, ct: be.encrypt(None)),
            (InvalidArgument, lambda be, ct: be.encrypt(["a", "b"])),
        ]
        for error, call in calls:
            be = fresh(16, noise=noise)
            ct = CipherText(0, np.arange(3.0), 0.0, 20, be)  # no noise drawn
            with pytest.raises(error):
                call(be, ct)
            self._untouched(be, noise)
        for b in (None, "a"):  # the mirror's scalar test is the same rule
            with pytest.raises(InvalidArgument):
                _ArrayOps.add(np.arange(3.0), b)

    @pytest.mark.parametrize("noise", [0.0, 1e-9])
    def test_a_ragged_or_non_numeric_tile_raises_first(self, noise):
        # numpy's own ValueError (inhomogeneous shape) or UFuncTypeError
        # escaped here before the tile's entries were checked
        ragged = ([[1.0, 2.0], [3.0]], [[1.0], [2.0, 3.0]], [1.0, [2.0]])
        calls = [
            *(lambda be, ct, b=b, op=op: getattr(be, op)(ct, b)
              for op in ("add", "sub", "mul") for b in ragged),
            *(lambda be, ct, b=b: be.encrypt(b) for b in ragged),
            *(lambda be, ct, b=b, op=op: be.run_on_window(lambda w, v: getattr(w, op)(v, b), ct)
              for op in ("add", "sub", "mul") for b in ragged),
            # a ragged tile after an op that counted: the program's snapshot restores it
            lambda be, ct: be.run_on_window(lambda w, v: w.add(w.mul(v, 2.0), ragged[1]), ct),
        ]
        for call in calls:
            be = fresh(16, noise=noise)
            ct = CipherText(0, np.arange(3.0), 0.0, 20, be)  # no noise drawn
            with pytest.raises(InvalidArgument):
                call(be, ct)
            self._untouched(be, noise)
        for op in ("add", "sub", "mul"):  # the mirror: shorter, equal and longer tiles
            for b in (["a"], ["a", "b", "c"], [None, 1.0, 2.0, 3.0], np.array(["a"]), *ragged):
                with pytest.raises(InvalidArgument):
                    getattr(_ArrayOps, op)(np.arange(3.0), b)

    @pytest.mark.parametrize("op", ["add", "sub", "mul"])
    @pytest.mark.parametrize("noise", [0.0, 1e-9])
    def test_a_list_is_the_equal_array(self, op, noise):
        x = np.array([1.0, -2.0, 3.0, 0.5])
        for b in ([2.0, -0.0, 1.5], (2, 0, 1), [4.0]):
            array = np.asarray(b, dtype=float)
            for run in (lambda be, ct, b: getattr(be, op)(ct, b),
                        lambda be, ct, b: be.run_on_window(lambda w, v: getattr(w, op)(v, b), ct)):
                got_be, want_be = fresh(16, noise=noise), fresh(16, noise=noise)
                got = run(got_be, got_be.encrypt(x), b)
                want = run(want_be, want_be.encrypt(x), array)
                assert got_be.decrypt(got).tobytes() == want_be.decrypt(want).tobytes()
                assert got_be.counter == want_be.counter and got.level == want.level
            mirrored = getattr(_ArrayOps, op)(x, b)
            assert mirrored.tobytes() == getattr(_ArrayOps, op)(x, array).tobytes()
        be = fresh(16)
        assert be.decrypt(be.encrypt([1, 2])).tobytes() == be.decrypt(be.encrypt(
            np.array([1.0, 2.0]))).tobytes()
        assert be.encrypt((1.0, 2.0)).width == 2


class TestArrayOpsSlotSemantics:
    """The mirror's adapter treats an array as slots [0, len) of an endless
    vector whose other slots are zero, so it computes what a ciphertext over
    a zero tail holds in those slots."""

    A = np.array([1.0, -2.0, 3.0])
    B = np.array([4.0, 5.0])

    @pytest.mark.parametrize("op", ["add", "sub", "mul"])
    def test_shorter_operand_is_zero_extended(self, op):
        fn = getattr(_ArrayOps, op)
        ref = getattr(operator, op)
        b_ext = np.array([4.0, 5.0, 0.0])
        np.testing.assert_array_equal(fn(self.A, self.B), ref(self.A, b_ext))
        np.testing.assert_array_equal(fn(self.B, self.A), ref(b_ext, self.A))
        # the backend's op with the shorter operand as plaintext
        be = fresh(slot_count=8)
        out = getattr(be, op)(be.encrypt(self.A), self.B)
        np.testing.assert_array_equal(be.decrypt(out)[:3], fn(self.A, self.B))

    def test_right_rotation_grows_and_left_rotation_drops(self):
        np.testing.assert_array_equal(_ArrayOps.rotate(self.A, -2), [0.0, 0.0, 1.0, -2.0, 3.0])
        np.testing.assert_array_equal(_ArrayOps.rotate(self.A, 1), [-2.0, 3.0])
        be = fresh(slot_count=8)
        a = be.encrypt(self.A)
        np.testing.assert_array_equal(be.rotate(a, -2).slots[:5], _ArrayOps.rotate(self.A, -2))
        np.testing.assert_array_equal(be.rotate(a, 1).slots[:2], _ArrayOps.rotate(self.A, 1))

    def test_repeat_pack_equals_the_ciphertext_run(self):
        x = np.random.default_rng(3).normal(size=3)
        G = GridMatrix.uniform(3, 3, 2, -1.0, 1.0)
        packed = repeat_pack(x, G, EXACT_COMPARATOR)  # g + 2k = 7 copies, rounded up to 8
        be = fresh(slot_count=64)
        ct = repeat_pack(be.encrypt(x), G, EXACT_COMPARATOR)
        assert packed.size == 3 * 8
        np.testing.assert_array_equal(packed, ct.slots[: packed.size])

    @pytest.mark.parametrize("W, repeated", [
        ((3, 4), False),  # wide: the duplication reads past the period
        ((5, 5), False),  # square
        ((1, 6), False),  # one row: one diagonal, no duplication
        ((7, 3), True),   # tall repeated
        (gen_permutation(2, 3), False),
    ], ids=["wide", "square", "one-row", "tall-repeated", "permutation"])
    def test_block_sum_reads_the_slots_the_ciphertext_does(self, W, repeated):
        # one statement of the block sum's reads: an operand with nonzero
        # slots past its period gives the mirror what it gives the exact
        # backend, slot for slot, duplication included
        if isinstance(W, tuple):
            W = np.random.default_rng(4).normal(size=W)
        sched = matvec_schedule(W, repeated)
        v = np.random.default_rng(5).normal(size=3 * sched.period)
        v[::4] = -0.0
        out = _ArrayOps.run_block_sum(v, sched)
        be = fresh(slot_count=64)
        want = be.decrypt(be.run_block_sum(be.encrypt(v), sched))
        assert np.array_equal(out.view(np.int64), want[:out.size].view(np.int64))
        assert np.all(want[out.size:] == 0.0)

    def test_unfolded_blocks_read_the_slots_the_ciphertext_does(self):
        B = np.random.default_rng(6).normal(size=(2, 16))
        A = np.random.default_rng(7).normal(size=(2, 4))
        own = matvec_schedule(B)
        shared = matvec_schedule(A, True, own.shape)
        v, w = np.random.default_rng(8).normal(size=(2, 40))
        be = fresh(slot_count=64)
        mirrored = _ArrayOps.run_block_sum(v, shared)
        blocks = be.run_block_sum(be.encrypt(v), shared)
        for got, block in zip(mirrored, blocks):
            assert np.array_equal(got.view(np.int64), be.decrypt(block)[:got.size].view(np.int64))
        out = _ArrayOps.run_block_sum(w, own, mirrored)
        want = be.decrypt(be.run_block_sum(be.encrypt(w), own, blocks))
        assert np.array_equal(out.view(np.int64), want[:out.size].view(np.int64))

    def test_no_slot_limit(self):
        assert _ArrayOps(self.A).slot_count == math.inf
        assert fresh(slot_count=8).slot_count == 8
        assert isinstance(_ops_of(self.A), _ArrayOps)
        be = fresh()
        assert _ops_of(be.encrypt(self.A)) is be


def _read_by_gather(a, s, m):
    """The reference read: every slot's index into a's window, gathered."""
    S = a.backend.config.slot_count
    i = (np.arange(s, s + m) - a.start) % S
    out = np.full(m, a.tail)
    inside = i < a.data.size
    out[inside] = a.data[i[inside]]
    return out


class TestRead:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 6).flatmap(lambda j: st.tuples(
        st.just(2 ** j), st.integers(0, 2 ** j), st.integers(-2 ** j, 2 ** (j + 1)),
        st.integers(-2 ** (j + 1), 2 ** (j + 1)), st.integers(1, 2 ** j))))
    def test_matches_the_gather(self, case):
        S, size, start, s, m = case
        be = fresh(slot_count=S)
        data = np.arange(1.0, size + 1.0)
        a = CipherText(start % S, data, -0.5, 3, be)
        got = _read(a, s, m)
        want = _read_by_gather(a, s, m)
        np.testing.assert_array_equal(got, want)

    def test_read_past_the_slot_count_is_rejected(self):
        be = fresh(slot_count=8)
        with pytest.raises(LengthMismatch):
            _read(be.encrypt([1.0, 2.0]), 0, 9)


_TAILS = (0.0, -0.0, 0.5, -1.25)
_SCALARS = (0.0, -0.0, 2.0, -0.5, 3.0)
_STEPS = ("add", "sub", "mul", "add_scalar", "mul_scalar", "add_tile", "sub_tile", "mul_tile",
          "rotate")


def _chain(ops, values, steps, tiles):
    """The program a chain of steps makes, run by ops (a backend, or a
    window program's ops): each step's result is appended to the values
    it may read, and the last one is returned."""
    values = list(values)
    for kind, i, j, t in steps:
        a, b = values[i % len(values)], values[j % len(values)]
        op, _, of = kind.partition("_")
        if op == "rotate":
            values.append(ops.rotate(a, t))
        else:
            b = {"scalar": _SCALARS[j % len(_SCALARS)], "tile": tiles[j % len(tiles)]}.get(of, b)
            values.append(getattr(ops, op)(a, b))
    return values[-1]


@st.composite
def _chains(draw):
    """A slot count, one or two operands (start, size, tail, level), a
    chain of steps (kind, operand, operand, left shift) and tile lengths."""
    S = draw(st.sampled_from([16, 64, 256]))
    operands = draw(st.lists(st.tuples(st.integers(0, S - 1), st.integers(0, S),
                                       st.sampled_from(_TAILS), st.integers(0, 6)),
                             min_size=1, max_size=2))
    steps = draw(st.lists(st.tuples(st.sampled_from(_STEPS), st.integers(0, 9),
                                    st.integers(0, 9), st.integers(1, S // 4)),
                          min_size=1, max_size=10))
    return S, operands, steps, draw(st.lists(st.integers(0, S), min_size=1, max_size=3))


class TestWindowProgram:
    """HeBackend.run_on_window against the same ops one backend call each."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_chains(), st.booleans(), st.integers(0, 2 ** 16))
    def test_rotations_match_the_op_by_op_ops(self, chain, noisy, seed):
        """Random chains of adds, subs, products (by a ciphertext, a
        scalar or a zero-tail tile) and left rotations within the stated
        reach, on one or two operands of any window, tail and level: every
        slot, the op counts, the level and the next noise draws equal the
        op-by-op run's, in a padded window, in one that would wrap (run on
        every slot) and on a noisy backend; where the op-by-op run
        exhausts its depth the program raises too and leaves the backend
        as it was."""
        S, shapes, steps, lengths = chain
        reach = sum(t for kind, _, _, t in steps if kind == "rotate")
        rng = np.random.default_rng(seed)
        start, size = shapes[0][:2]
        room = size - (-start % S) if -start % S < size else 0  # operand 0's slots from slot 0
        tiles = [rng.normal(size=m % (room + 1)) for m in lengths]
        cfg = BackendConfig(slot_count=S, depth_budget=6, noise_std=1e-3 if noisy else 0.0,
                            rng_seed=seed)
        ref, be, untouched = HeBackend(cfg), HeBackend(cfg), HeBackend(cfg)
        operands = []
        for start, size, tail, level in shapes:
            data = rng.normal(size=size)
            data[rng.integers(0, 4, size) == 0] = -0.0
            operands.append((start, data, tail, level))
        try:
            want = _chain(ref, [CipherText(*op, ref) for op in operands], steps, tiles)
        except DepthExhausted:
            with pytest.raises(DepthExhausted):
                be.run_on_window(lambda w, *xs: _chain(w, xs, steps, tiles),
                                 *(CipherText(*op, be) for op in operands), reach=reach)
            assert be.counter == OpCounter()
            assert np.array_equal(be._rng.standard_normal(4), untouched._rng.standard_normal(4))
            return
        got = be.run_on_window(lambda w, *xs: _chain(w, xs, steps, tiles),
                               *(CipherText(*op, be) for op in operands), reach=reach)
        assert np.array_equal(be.decrypt(got).view(np.int64), ref.decrypt(want).view(np.int64))
        assert be.counter == ref.counter and got.level == want.level
        assert np.array_equal(be._rng.standard_normal(4), ref._rng.standard_normal(4))

    def test_a_window_value_is_refused_by_ops_of(self):
        """A stage function that picks its own ops (approx.poly_comp) is not
        a window program's op: handed a window value, it raises instead of
        running the mirror's array ops on it."""
        be = fresh(slot_count=16)
        ct = be.encrypt(np.linspace(-0.5, 0.5, 8))
        for program in (lambda w, x: _ops_of(x),
                        lambda w, x: poly_comp(x, 0.25, EXACT_COMPARATOR)):
            with pytest.raises(InvalidArgument):
                be.run_on_window(program, ct)
        assert be.counter == OpCounter()

    @pytest.mark.parametrize("noise", [0.0, 1e-9])
    def test_a_label_builds_ciphertexts_only_for_a_hook_that_reads_them(self, noise,
                                                                         monkeypatch):
        """Inside a window program a stage label calls a subclass's hook, or
        a hook set on the backend itself, on the stage's values as
        ciphertexts over the window, with the slots and levels the op-by-op
        run's label sees; for the no-op HeBackend._stage it builds none, so
        the program builds one ciphertext, its result."""
        x = np.arange(1.0, 7.0)
        cfg = BackendConfig(slot_count=64, depth_budget=20, noise_std=noise)

        def entry(be, name, a, b):
            return name, be.decrypt(a).tobytes(), be.decrypt(b).tobytes(), a.level, b.level

        class Recording(HeBackend):
            def _stage(self, name, v_in, v_out):
                self.seen.append(entry(self, name, v_in, v_out))

        def program(w, v):
            y = w.mul(v, 2.0)
            w._stage("double", v, y)
            return w.add(y, 1.0)

        ref = Recording(cfg)
        ref.seen = []
        ct = ref.encrypt(x)
        ref._stage("double", ct, ref.mul(ct, 2.0))
        assert len(ref.seen) == 1
        built = []
        init = CipherText.__init__

        def counting(self, *args, **kwargs):
            built.append(type(self))
            init(self, *args, **kwargs)

        subclass, plain, own_hook = Recording(cfg), HeBackend(cfg), HeBackend(cfg)
        subclass.seen, own_hook.seen = [], []
        own_hook._stage = lambda name, a, b: own_hook.seen.append(entry(own_hook, name, a, b))
        for be in (subclass, plain, own_hook):
            ct = be.encrypt(x)
            monkeypatch.setattr(CipherText, "__init__", counting)
            be.run_on_window(program, ct)
            monkeypatch.undo()
            assert len(built) == (1 if be is plain else 3)
            built.clear()
            if be is not plain:
                assert be.seen == ref.seen

    @pytest.mark.parametrize("mode", ["padded", "tight", "noisy"])
    def test_the_stated_reach_binds_in_every_mode(self, mode):
        """A rotation outside [0, reach] raises InvalidArgument in a padded
        window, in a full one that would wrap and on a noisy backend, as
        does a program with no operand, and the counter and the generator
        stay as they were; t = 0 is a no-op and 0 < t <= reach rotates as
        HeBackend.rotate does."""
        S, reach, noise = {"padded": (64, 2, 0.0), "tight": (16, 5, 0.0),
                           "noisy": (64, 2, 1e-9)}[mode]
        x = np.arange(1.0, 7.0)

        def program(t):
            return lambda w, v: w.rotate(w.add(v, 1.0), t)
        be, untouched = fresh(S, noise=noise), fresh(S, noise=noise)
        ct, _ = be.encrypt(x), untouched.encrypt(x)
        for t in (reach + 1, reach + 2, -2, 1.0):
            with pytest.raises(InvalidArgument):
                be.run_on_window(program(t), ct, reach=reach)
        with pytest.raises(InvalidArgument):
            be.run_on_window(lambda w: w, reach=reach)
        assert be.counter == OpCounter()
        assert np.array_equal(be._rng.standard_normal(4), untouched._rng.standard_normal(4))
        for t in (0, 1, reach):
            be, ref = fresh(S, noise=noise), fresh(S, noise=noise)
            got = be.run_on_window(program(t), be.encrypt(x), reach=reach)
            want = ref.rotate(ref.add(ref.encrypt(x), 1.0), t)
            assert np.array_equal(be.decrypt(got).view(np.int64), ref.decrypt(want).view(np.int64))
            assert be.counter == ref.counter == OpCounter(adds=1, rotations=int(t > 0))

    @pytest.mark.parametrize("reach", [-1, 2.0, None])
    def test_reach_is_a_whole_number(self, reach):
        be = fresh(64)
        ct = be.encrypt(np.arange(1.0, 7.0))
        with pytest.raises(InvalidArgument, match="reach must be an integer >= 0"):
            be.run_on_window(lambda w, v: w.rotate(v, 1), ct, reach=reach)
        assert be.counter == OpCounter()

    def test_tiles_and_rotations_stay_in_the_stated_window(self):
        """A tile lies in the operands' window, not in the reach's padding
        before it nor past it, and a padded window's rotation stays within
        the reach; otherwise the program raises and charges nothing."""
        be = fresh(slot_count=64)
        ct = CipherText(2, np.arange(1.0, 9.0), 0.0, 5, be)  # slots [2, 10)
        for tile, t, error in ((np.ones(4), 1, LengthMismatch),   # slots 0, 1 are padding
                               (None, 5, InvalidArgument)):        # past the reach of 4
            def program(w, x):
                y = w.rotate(x, t)
                return y if tile is None else w.add(y, tile)
            with pytest.raises(error):
                be.run_on_window(program, ct, reach=4)
        assert be.counter == OpCounter()
        got = be.run_on_window(lambda w, x: w.mul(w.rotate(x, 4), np.ones(6)),
                               CipherText(0, np.arange(1.0, 9.0), 0.0, 5, be), reach=4)
        assert np.array_equal(be.decrypt(got)[:8], [5, 6, 7, 8, 0, 0, 0, 0])
