"""Set-up cost of the composite comparator's build.

For the default comparator target (alpha 5, target_eps 2^-20) and
criterion 4's (alpha 7, target_eps 2^-10), builds the comparator fresh
(``build_composite_sign`` with its cache cleared first, as perfbench's
set-up does) and prints one line per target (only the named ones when
labels are given):

    python tools/setup_cost.py [LABEL ...]

    <label> fits=<n> points=<n> peak_mib=<x> min_ms=<t> median_ms=<t>

``fits`` counts the stage fits one build runs (calls of
``fit_odd_sign_stage``) and ``points`` the certificate points it
evaluates (the elements of every array ``CompositeSign.step`` runs on),
both read by wrapping those two functions for one build. ``peak_mib`` is
the ``tracemalloc`` peak of one build, in MiB (2^20 bytes). ``min_ms`` and
``median_ms`` are the minimum and median wall time of REPEATS fresh
builds, unwrapped and untraced. The script imports hekan from the ``src``
directory next to it.
"""

from __future__ import annotations

import statistics
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hekan import approx  # noqa: E402

TARGETS = (("default", approx.DEFAULT_ALPHA, approx.DEFAULT_TARGET_EPS),
           ("criterion4", 7.0, 2.0 ** -10))
REPEATS = 7


def fresh_build(alpha: float, eps: float) -> None:
    approx.build_composite_sign.cache_clear()
    approx.build_composite_sign(alpha, eps)


def counts(alpha: float, eps: float) -> dict:
    """The stage fits and certificate points of one fresh build."""
    fits, points = [], []
    fit, step = approx.fit_odd_sign_stage, approx.CompositeSign.step

    def counted_fit(*args):
        fits.append(args)
        return fit(*args)

    def counted_step(self, ops, d, folded=False):
        points.append(d.size)
        return step(self, ops, d, folded)

    approx.fit_odd_sign_stage, approx.CompositeSign.step = counted_fit, counted_step
    try:
        fresh_build(alpha, eps)
    finally:
        approx.fit_odd_sign_stage, approx.CompositeSign.step = fit, step
    return {"fits": len(fits), "points": sum(points)}


def traced_peak(alpha: float, eps: float) -> int:
    """tracemalloc's peak, in bytes, of one fresh build."""
    approx.build_composite_sign.cache_clear()
    tracemalloc.start()
    try:
        approx.build_composite_sign(alpha, eps)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def build_ms(alpha: float, eps: float) -> list:
    """Wall time in ms of REPEATS fresh builds."""
    out = []
    for _ in range(REPEATS):
        approx.build_composite_sign.cache_clear()
        start = time.perf_counter()
        approx.build_composite_sign(alpha, eps)
        out.append((time.perf_counter() - start) * 1e3)
    return out


def main(argv: list) -> None:
    for label, alpha, eps in TARGETS:
        if argv and label not in argv:
            continue
        fields = {**counts(alpha, eps), "peak_mib": f"{traced_peak(alpha, eps) / 2 ** 20:.2f}"}
        ms = build_ms(alpha, eps)
        fields |= {"min_ms": f"{min(ms):.1f}", "median_ms": f"{statistics.median(ms):.1f}"}
        print(label, " ".join(f"{name}={value}" for name, value in fields.items()))
    approx.build_composite_sign.cache_clear()


if __name__ == "__main__":
    main(sys.argv[1:])
