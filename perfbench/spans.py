"""Outside-in span recorder for the hekan benchmark.

The recorder wraps, from outside the library, every public function of the
five library modules (``backend``, ``approx``, ``bspline``, ``inference``,
``model``) and every public method of the ``HeBackend`` classes. Each call
becomes one span: name, start, end, parent span, activity id (one timed
inference, one mirror check, one set-up, ...), the backend's op-counter
delta, the ciphertext level in and out, and an optional tag looked up from
the first argument (the benchmark tags matrices by matvec role and layers by
position). Spans stay in memory until the run ends.

Wrapping replaces the module attributes (and the copies that other modules
and the package namespace imported under the same identity), so calls that
go through the library's own globals are traced too. ``uninstall`` puts
every original object back.
"""

from __future__ import annotations

import functools
import itertools
import time
from contextlib import contextmanager

LAYERS = ("backend", "approx", "bspline", "inference", "model")

FIELDS = ("id", "parent", "name", "activity", "start_ns", "end_ns",
          "level_in", "level_out", "delta", "tag")
COUNTER_FIELDS = ("adds", "subs", "ct_mults", "pt_mults", "rotations")


def _counts(be):
    c = be.counter
    return (c.adds, c.subs, c.ct_mults, c.pt_mults, c.rotations)


def _delta(c0, be):
    c = be.counter
    return (c.adds - c0[0], c.subs - c0[1], c.ct_mults - c0[2], c.pt_mults - c0[3],
            c.rotations - c0[4])


_PLAIN, _CIPHER, _HOLDER, _TUPLE = range(4)
_kinds_by_type = {}


def _kind(obj):
    """How to find a level in objects of this type: a ciphertext (``.level``
    and ``.backend``), a wrapper holding one in ``.ct``, a tuple whose first
    element may be either, or nothing. Decided once per type."""
    t = type(obj)
    k = _kinds_by_type.get(t)
    if k is None:
        if t is tuple:
            k = _TUPLE
        elif isinstance(getattr(obj, "level", None), int) and hasattr(obj, "backend"):
            k = _CIPHER
        elif isinstance(getattr(getattr(obj, "ct", None), "level", None), int):
            k = _HOLDER
        else:
            k = _PLAIN
        _kinds_by_type[t] = k
    return k


def _level(obj):
    k = _kind(obj)
    if k == _CIPHER:
        return obj.level
    if k == _HOLDER:
        return obj.ct.level
    if k == _TUPLE and obj:
        return _level(obj[0])
    return None


def _scan(args):
    """(lowest level, backend) over the ciphertext arguments."""
    lvl = be = None
    for a in args:
        k = _kind(a)
        if k == _CIPHER:
            ct = a
        elif k == _HOLDER:
            ct = a.ct
        else:
            continue
        if lvl is None or ct.level < lvl:
            lvl = ct.level
        be = ct.backend
    return lvl, be


class SpanRecorder:
    """Records spans around the library's public entry points.

    Use the ``installed()`` context (or ``install()`` / ``uninstall()``) to
    switch tracing on and off; ``span()`` opens a benchmark activity whose
    id is stamped on the spans inside it (``kinds`` maps id to kind);
    ``tags`` maps ``id(first argument)`` to a tag string.
    """

    def __init__(self, package):
        self.package = package
        self.modules = {name: getattr(package, name) for name in LAYERS}
        self.backend_cls = self.modules["backend"].HeBackend
        self.spans = []
        self.kinds = {}
        self.tags = {}
        self.activity = None
        self._ids = itertools.count()
        self._stack = []
        self._saved = []
        self._wrappers = self._build_wrappers()

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------

    def _targets(self):
        """(owner, attribute, original, span name, is_method) to wrap."""
        out = []
        for short, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                out.append((mod, attr, obj, f"{short}.{attr}", False))
            for cls in vars(mod).values():
                if not (isinstance(cls, type) and issubclass(cls, self.backend_cls)
                        and cls.__module__ == mod.__name__):
                    continue
                for attr, obj in vars(cls).items():
                    if attr.startswith("_") or not callable(obj):
                        continue
                    out.append((cls, attr, obj, f"{short}.{cls.__name__}.{attr}", True))
        return out

    def _build_wrappers(self):
        wrappers = {}
        for owner, attr, original, name, is_method in self._targets():
            wrappers[id(original)] = (owner, attr, original,
                                      self._wrap(name, original, is_method))
        return wrappers

    def _wrap(self, name, fn, is_method):
        rec = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_method:
                be = args[0]
                lvl_in = _scan(args[1:])[0]
            else:
                lvl_in, be = _scan(args)
            c0 = _counts(be) if be is not None else None
            tag = rec.tags.get(id(args[0])) if args else None
            sid = next(rec._ids)
            stack = rec._stack
            parent = stack[-1] if stack else None
            stack.append(sid)
            lvl_out = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                lvl_out = _level(out)
                return out
            finally:
                t1 = clock()
                stack.pop()
                rec.spans.append((sid, parent, name, rec.activity, t0, t1, lvl_in, lvl_out,
                                  _delta(c0, be) if c0 is not None else None, tag))

        return wrapper

    def _sites(self):
        """(owner, attribute, original, wrapper) for every place a wrapped
        object is reachable: its class, its module, and the modules and
        package namespace that imported it under the same identity."""
        for owner, attr, original, wrapper in self._wrappers.values():
            if isinstance(owner, type):
                yield owner, attr, original, wrapper
        for ns in (self.package, *self.modules.values()):
            for attr, obj in list(vars(ns).items()):
                hit = self._wrappers.get(id(obj))
                if hit is not None and hit[2] is obj and not isinstance(hit[0], type):
                    yield ns, attr, obj, hit[3]

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("recorder already installed")
        for owner, attr, original, wrapper in list(self._sites()):
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, active=True):
        """Tracing on for the body of the ``with`` (a no-op if not active)."""
        if not active:
            yield self
            return
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def originals(self):
        """Every wrapped (owner, attribute, original object) triple, for
        checking that uninstall restored them."""
        return [site[:3] for site in self._sites()]

    # ------------------------------------------------------------------
    # benchmark-side spans
    # ------------------------------------------------------------------

    @contextmanager
    def span(self, name, kind, backend=None, active=True):
        """Root span opened by the benchmark itself around one activity (a
        set-up, an inference, a check) of the given kind. Spans recorded
        inside carry the activity's id. With ``active`` false nothing is
        recorded."""
        if not active:
            yield
            return
        prev = self.activity
        self.activity = len(self.kinds)
        self.kinds[self.activity] = kind
        c0 = _counts(backend) if backend is not None else None
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, name, self.activity, t0, t1, None, None,
                               _delta(c0, backend) if c0 is not None else None, None))
            self.activity = prev

    def rows(self):
        """Spans as JSON-ready lists in FIELDS order, times in ns from the
        first span."""
        t_base = min((sp[4] for sp in self.spans), default=0)
        return [[sp[0], sp[1], sp[2], sp[3], sp[4] - t_base, sp[5] - t_base, sp[6], sp[7],
                 list(sp[8]) if sp[8] is not None else None, sp[9]] for sp in self.spans]
