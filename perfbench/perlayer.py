"""Per-layer metrics of a traced run, computed from the recorded spans.

A layer is one of the library's five modules. Self time is a span's
duration minus the durations of its child spans (calls are sequential, so
children never overlap); span times are integer nanoseconds. Inference metrics are averaged per traced
inference, mirror metrics per traced mirrored forward, set-up metrics per
traced set-up.

``PER_LAYER`` lists every metric with its unit and the end-to-end metric
(and workload) it is expected to move; ``BENCHMARK.json`` repeats the names,
units and directions, and the smoke test keeps the two in step.
"""

from __future__ import annotations

from collections import defaultdict

from spans import LAYERS

_MATVEC_STATS = ("ms", "self_ms", "pt_mults", "rotations")

# (name, unit, better, end-to-end metric it should move)
PER_LAYER = [
    ("backend.slotwise.calls", "count", "lower", "infer_per_s, mainly kan_small"),
    ("backend.slotwise.self_ms", "ms", "lower", "infer_per_s, mainly kan_small"),
    ("backend.rotate.calls", "count", "lower", "infer_per_s, mainly kan_small"),
    ("backend.rotate.self_ms", "ms", "lower", "infer_per_s, mainly kan_small"),
    ("backend.encrypt.self_ms", "ms", "lower", "infer_per_s, mainly kan_small"),
    ("backend.adds", "count", "lower", "infer_per_s"),
    ("backend.bytes_computed", "bytes", "lower", "infer_per_s"),
    ("approx.silu_poly.ms", "ms", "lower", "infer_per_s on kan_small"),
    ("approx.silu_poly.levels", "levels", "lower", "infer_per_s on kan_small"),
    ("approx.comparator.calls", "count", "lower", "infer_per_s on kan_small"),
    ("approx.comparator.ms", "ms", "lower", "infer_per_s on kan_small"),
    ("approx.comparator.levels", "levels", "lower", "infer_per_s on kan_small"),
    ("approx.build_composite_sign.ms", "ms", "lower", "setup_s"),
    ("approx.eval_poly_clear.ms", "ms", "lower", "mirror_ms_p50"),
    ("bspline.repeat_pack.ms", "ms", "lower", "infer_per_s on kan_small"),
    ("bspline.repeat_pack.rotations", "count", "lower", "infer_per_s on kan_small"),
    ("bspline.basis.self_ms", "ms", "lower", "infer_per_s on kan_small"),
    ("bspline.basis.levels", "levels", "lower", "infer_per_s on kan_small"),
    ("bspline.gen_permutation.ms", "ms", "lower", "infer_per_s on table_naive"),
    ("bspline.basis_clear.ms", "ms", "lower", "mirror_ms_p50"),
    *[(f"inference.{role}_matvec.{stat}", "count" if stat in ("pt_mults", "rotations") else "ms",
       "lower", ("infer_per_s, he_ops_per_infer on table_naive" if role == "perm"
                 else "infer_per_s, he_ops_per_infer on table_lazy; not kan_small"))
      for role in ("base", "spline", "perm") for stat in _MATVEC_STATS],
    ("inference.plan.ms", "ms", "lower", "infer_per_s"),
    ("inference.plan_mismatch", "count", "lower", "correctness: planner depth per stage"),
    ("model.random_model.ms", "ms", "lower", "setup_s"),
    ("model.mirror.self_ms", "ms", "lower", "mirror_ms_p50"),
    *[(f"{layer}.self_ms", "ms", "lower", "infer_per_s") for layer in LAYERS],
    ("bench.self_ms", "ms", "lower", "none: benchmark glue inside the timed inference"),
    ("trace.infer_ms", "ms", "lower", "infer_ms_p50 (traced, mean)"),
    ("tracing.overhead", "ratio", "lower", "none: traced / untraced time - 1"),
]

ROOT_INFER = "bench.inference"
LAYER_SPAN = "inference.layer_forward_he"


def _self_times(spans):
    child = defaultdict(float)
    for s in spans:
        if s[1] is not None:
            child[s[1]] += s[5] - s[4]
    return {s[0]: (s[5] - s[4]) - child[s[0]] for s in spans}


def _drop(s):
    if s[6] is None or s[7] is None:
        return None
    return s[6] - s[7]


def layer_metrics(spans, kinds, layers, slot_count, overhead, plan_stages):
    """Per-layer metrics from the spans of one traced run.

    spans: recorder tuples (see spans.FIELDS); kinds: activity id -> kind
    ("setup", "infer", "mirror", ...); layers: layer tag -> (stages dict,
    basis depth) as the planner predicts them; plan_stages: the stage names
    joined against the planner; overhead: traced / untraced time - 1.
    """
    self_t = _self_times(spans)
    by_id = {s[0]: s for s in spans}
    n = defaultdict(int)
    for kind in kinds.values():
        n[kind] += 1
    per = {"infer": max(n["infer"], 1), "mirror": max(n["mirror"], 1),
           "setup": max(n["setup"], 1)}

    acc = defaultdict(float)
    norm = {}

    def add(key, value, kind):
        acc[key] += value
        norm[key] = per[kind]

    observed = defaultdict(lambda: defaultdict(list))  # layer span id -> stage -> drops

    def layer_of(s):
        p = s[1]
        while p is not None:
            ps = by_id[p]
            if ps[2] == LAYER_SPAN:
                return ps
            p = ps[1]
        return None

    for s in spans:
        kind = kinds.get(s[3])
        if kind not in per:
            continue
        sid, name, dur, st = s[0], s[2], s[5] - s[4], self_t[s[0]]
        ms, self_ms = dur * 1e-6, st * 1e-6
        layer = name.split(".", 1)[0]
        delta = s[8]
        if kind == "setup":
            if name == "approx.build_composite_sign":
                add("approx.build_composite_sign.ms", ms, kind)
            elif name == "model.random_model":
                add("model.random_model.ms", ms, kind)
            continue
        if kind == "mirror":
            if name == "approx.eval_poly_clear":
                add("approx.eval_poly_clear.ms", ms, kind)
            elif name == "bspline.basis_clear":
                add("bspline.basis_clear.ms", ms, kind)
            if layer == "model":
                add("model.mirror.self_ms", self_ms, kind)
            continue
        # timed-inference spans
        add(f"{layer}.self_ms", self_ms, kind)
        if name == ROOT_INFER:
            add("trace.infer_ms", ms, kind)
            if delta is not None:
                add("backend.adds", delta[0] + delta[1], kind)
        elif name == "backend.HeBackend.slotwise":
            add("backend.slotwise.calls", 1, kind)
            add("backend.slotwise.self_ms", self_ms, kind)
            add("backend.bytes_computed", 3 * 8 * slot_count, kind)
        elif name == "backend.HeBackend.rotate":
            add("backend.rotate.calls", 1, kind)
            add("backend.rotate.self_ms", self_ms, kind)
            if delta is not None and delta[4]:
                add("backend.bytes_computed", 2 * 8 * slot_count, kind)
        elif name == "backend.HeBackend.encrypt":
            add("backend.encrypt.self_ms", self_ms, kind)
            add("backend.bytes_computed", 8 * slot_count, kind)
        elif name == "backend.HeBackend.decrypt":
            add("backend.bytes_computed", 2 * 8 * slot_count, kind)
        elif name == "approx.eval_poly_he":
            parent = by_id.get(s[1])
            if parent is not None and parent[2] == LAYER_SPAN:
                add("approx.silu_poly.ms", ms, kind)
                acc["approx.silu_poly.levels"] = max(acc["approx.silu_poly.levels"], _drop(s) or 0)
                observed[parent[0]]["silu_poly"].append(_drop(s))
        elif name == "approx.poly_comp":
            add("approx.comparator.calls", 1, kind)
            add("approx.comparator.ms", ms, kind)
            acc["approx.comparator.levels"] = max(acc["approx.comparator.levels"], _drop(s) or 0)
            _observe(observed, layer_of(s), "comparator", _drop(s))
        elif name == "bspline.repeat_pack":
            add("bspline.repeat_pack.ms", ms, kind)
            add("bspline.repeat_pack.rotations", delta[4] if delta else 0, kind)
            _observe(observed, layer_of(s), "repeat_pack", _drop(s))
        elif name == "bspline.bspline_basis_he":
            add("bspline.basis.self_ms", self_ms, kind)
            acc["bspline.basis.levels"] = max(acc["bspline.basis.levels"], _drop(s) or 0)
            _observe(observed, layer_of(s), "basis", _drop(s))
        elif name == "bspline.gen_permutation":
            add("bspline.gen_permutation.ms", ms, kind)
        elif name == "inference.bsgs_matvec":
            role = s[9] or "perm"
            add(f"inference.{role}_matvec.ms", ms, kind)
            add(f"inference.{role}_matvec.self_ms", self_ms, kind)
            if delta is not None:
                add(f"inference.{role}_matvec.pt_mults", delta[3], kind)
                add(f"inference.{role}_matvec.rotations", delta[4], kind)
            stage = "base_matvec" if role == "base" else "spline_matvec"
            _observe(observed, layer_of(s), stage, _drop(s))
        elif name == "inference.plan_model":
            add("inference.plan.ms", ms, kind)

    for key, count in norm.items():
        acc[key] /= count
    acc["inference.plan_mismatch"] = _plan_mismatch(observed, by_id, layers, plan_stages)
    acc["tracing.overhead"] = overhead
    return {name: float(acc[name]) for name, *_ in PER_LAYER}


def _observe(observed, layer_span, stage, drop):
    if layer_span is not None:
        observed[layer_span[0]][stage].append(drop)


def _plan_mismatch(observed, by_id, layers, plan_stages):
    """Stages (per traced layer call) whose measured level drop differs from
    the planner. Matvec drops of one layer add up: the naive path spends
    one level on the permutation product and one on W'."""
    mismatches = 0
    for sid, span in by_id.items():
        if span[2] != LAYER_SPAN or span[9] not in layers:
            continue
        stages, basis = layers[span[9]]
        seen = observed.get(sid, {})
        for stage in plan_stages:
            drops = seen.get(stage, [])
            want = basis if stage == "basis" else stages[stage]
            if not drops or None in drops:
                mismatches += 1
            elif stage == "spline_matvec":
                mismatches += sum(drops) != want
            else:
                mismatches += any(d != want for d in drops)
    return mismatches
