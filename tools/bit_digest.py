"""Bit-identity digest of the encrypted pipeline.

Runs a fixed matrix of encrypted forwards and prints the number of runs,
one sha256 per noise level, one per comparator mode and one over
everything they produce, so that a refactor meant to change no result can
be checked by running this script in the old and the new checkout and
comparing the lines:

    python tools/bit_digest.py

The script imports hekan from the ``src`` directory next to it. The matrix
is every shape in SHAPES, on both paths, both comparators, noise sigma 0
and 1e-12, and both arrivals (``encrypt_input``'s replicated copies and a
raw one-copy ``encrypt``), at the smallest power-of-two slot count that
``check_capacity`` accepts. Each run hashes the decrypted slots, the
mirrored output, the input and output levels, each layer's op counts and
the backend generator's next draws; a typed error is hashed by its class
name. Each (shape, path, comparator) also hashes the error that half that
slot count raises and the op counts it left.

A noise level's digest covers its own runs and the mirrored outputs and
capacity errors that every level shares; a comparator mode's covers
everything hashed under that mode; the last line covers them all. A
change that only reorders noise draws keeps the sigma=0 line and moves
the other noise lines, and one confined to one comparator moves that
mode's line only.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hekan import (  # noqa: E402
    BackendConfig,
    HeBackend,
    PipelineConfig,
    encrypt_input,
    model_forward_he,
    model_forward_plain,
    plan_model,
    random_model,
)
from hekan.errors import HeKanError  # noqa: E402
from hekan.inference import check_capacity  # noqa: E402

# (dims, g, k): shared and own fold chains, SiLU doublings past the packed
# copies, g + 2k a power of two, n_i = 1, k up to 5, chains of up to five
# layers and one table config
SHAPES = (
    ([2, 5, 1], 5, 3), ([9, 29], 1, 1), ([9, 29], 2, 1), ([3, 4], 2, 1),
    ([7, 1], 3, 2), ([4, 8, 8, 2], 5, 3), ([1, 3, 2, 4, 1], 1, 5), ([1, 6, 2, 5], 1, 1),
    ([5, 3, 2], 4, 2), ([16, 4], 3, 2), ([64, 10], 3, 2), ([12, 2], 3, 1),
    ([8, 2], 5, 1), ([5, 1], 5, 3), ([1, 5], 2, 1), ([6, 6, 6], 2, 3), ([4, 1], 2, 1),
)
SIGMAS = (0.0, 1e-12)
MODES = ("composite", "exact")


def smallest_slot_count(model, cfg) -> int:
    slots = 1
    while True:
        try:
            check_capacity(model, cfg, slots)
            return slots
        except HeKanError:
            slots *= 2


def main() -> None:
    combined = hashlib.sha256()
    by_sigma = {sigma: hashlib.sha256() for sigma in SIGMAS}
    by_mode = {mode: hashlib.sha256() for mode in MODES}

    def update(data: bytes, sigmas=SIGMAS) -> None:
        combined.update(data)
        by_mode[mode].update(data)  # the mode of the loop below
        for sigma in sigmas:
            by_sigma[sigma].update(data)

    runs = 0
    for i, (dims, g, k) in enumerate(SHAPES):
        model = random_model(dims, g=g, k=k, seed=i)
        x = np.random.default_rng(i).uniform(-1, 1, dims[0])
        for path in ("lazy", "naive"):
            for mode in MODES:
                cfg = PipelineConfig(path=path, comparator_mode=mode)
                try:
                    mirrored = model_forward_plain(model, x, "mirrored",
                                                   comparator=cfg.comparator(), path=path)
                    update(mirrored.tobytes())
                except HeKanError as err:
                    update(type(err).__name__.encode())
                slots = smallest_slot_count(model, cfg)
                depth = plan_model(model, cfg).total
                small = HeBackend(BackendConfig(slot_count=slots // 2 or 1, depth_budget=depth))
                try:
                    model_forward_he(model, encrypt_input(x, model, small), cfg)
                    update(b"fits")
                except HeKanError as err:
                    update(type(err).__name__.encode())
                update(repr(astuple(small.counter)).encode())
                for sigma in SIGMAS:
                    for replicated in (True, False):
                        be = HeBackend(BackendConfig(slot_count=slots, depth_budget=depth,
                                                     noise_std=sigma, rng_seed=i))
                        ct = encrypt_input(x, model, be) if replicated else be.encrypt(x)
                        try:
                            out, per_layer = model_forward_he(model, ct, cfg)
                            update(be.decrypt(out).tobytes(), [sigma])
                            update(repr((ct.level, out.level,
                                         [astuple(c) for c in per_layer])).encode(), [sigma])
                        except HeKanError as err:
                            update(type(err).__name__.encode(), [sigma])
                        update(be._rng.standard_normal(4).tobytes(), [sigma])
                        runs += 1
    print(f"runs {runs}")
    for sigma, digest in by_sigma.items():
        print(f"sha256 sigma={sigma:g} {digest.hexdigest()}")
    for mode, digest in by_mode.items():
        print(f"sha256 comparator={mode} {digest.hexdigest()}")
    print(f"sha256 {combined.hexdigest()}")


if __name__ == "__main__":
    main()
