"""Span recording for the traced benchmark child.

``install`` wraps every public function of the convsup layer modules at its
module attribute, and re-points each convsup module global that refers to
the same function object, so that calls made through module globals (which
is how the program calls across and within its modules) enter a span.  The
entry points of a whole run, ``harness.run_sweep`` and ``harness.validate_suite``,
are left unwrapped: the part of the run that no span covers is the
unattributed remainder.

The RNG layer is traced through a ``numpy.random.Generator`` subclass that
``numpy.random.default_rng`` returns while tracing.  It wraps the bit
generator the plain call would have used, so every random stream, and with
it every output byte, is unchanged.

Spans live in memory as ``[id, name, parent, task, thread, start_ns,
end_ns, count]`` records and are written out once, by ``Tracer.save``, when
the run has ended.  ``task`` is the id of the outermost span on the same
thread; ``count`` is the work a call did (elements, rows or samples) for the
names in ``COUNTERS``.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time

import numpy as np

LAYER_MODULES = ("spectral", "channel", "precoding", "transceiver", "capacity",
                 "harness")
RUN_ENTRY_POINTS = {"harness.run_sweep", "harness.validate_suite"}
METHODS = {"transceiver.FrameSimulator": ("step",)}
RNG_METHODS = ("standard_normal", "exponential", "uniform", "integers")

# span name -> (stat name, work done by one call, from its result)
COUNTERS = {
    "capacity.psi": ("elements", np.size),
    "precoding.waterfill_power": ("rows", lambda result: np.size(result[1])),
    **{f"rng.{m}": ("samples", np.size) for m in RNG_METHODS},
}

FIELDS = ("id", "name", "parent", "task", "thread", "start_ns", "end_ns", "count")


class Tracer:
    """In-memory span store shared by every wrapped function of one run."""

    def __init__(self):
        self.names: list[str] = []
        self.records: list[list[int]] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records one span."""
        name_id = len(self.names)
        self.names.append(name)
        stat = COUNTERS.get(name)
        count = stat[1] if stat else None
        local, records, ids = self._local, self.records, self._ids
        clock = functools.partial(time.clock_gettime_ns, time.CLOCK_MONOTONIC)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.thread = threading.get_ident()
            span_id = next(ids)
            if stack:
                parent = stack[-1]
                rec = [span_id, name_id, parent[0], parent[3], local.thread, 0, 0, 0]
            else:
                rec = [span_id, name_id, -1, span_id, local.thread, 0, 0, 0]
            stack.append(rec)
            rec[5] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[6] = clock()
                stack.pop()
                records.append(rec)
            if count is not None:
                rec[7] = int(count(result))
            return result

        return traced

    def save(self, path) -> None:
        """Write the recorded spans as an ``.npz`` archive."""
        stats = [COUNTERS[n][0] if n in COUNTERS else "" for n in self.names]
        spans = np.array(self.records, dtype=np.int64).reshape(-1, len(FIELDS))
        with open(path, "wb") as fh:
            np.savez(fh, names=np.array(self.names), count_stats=np.array(stats),
                     fields=np.array(FIELDS), spans=spans)


def _public_functions(module):
    short = module.__name__.rsplit(".", 1)[-1]
    for attr in getattr(module, "__all__", ()):
        fn = getattr(module, attr)
        if inspect.isfunction(fn) and fn.__module__ == module.__name__:
            name = f"{short}.{attr}"
            if name not in RUN_ENTRY_POINTS:
                yield name, fn


def install(tracer: Tracer) -> None:
    """Wrap the layer functions and the RNG of the already imported convsup."""
    wrappers = {}
    for short in LAYER_MODULES:
        module = sys.modules[f"convsup.{short}"]
        for name, fn in _public_functions(module):
            wrappers[id(fn)] = tracer.wrap(name, fn)
    for qualname, methods in METHODS.items():
        short, cls_name = qualname.split(".")
        cls = getattr(sys.modules[f"convsup.{short}"], cls_name)
        for meth in methods:
            setattr(cls, meth, tracer.wrap(f"{qualname}.{meth}", getattr(cls, meth)))

    for mod_name, module in list(sys.modules.items()):
        if mod_name != "convsup" and not mod_name.startswith("convsup."):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)

    base = np.random.Generator
    traced_generator = type("TracedGenerator", (base,), {
        m: tracer.wrap(f"rng.{m}", getattr(base, m)) for m in RNG_METHODS})
    plain_default_rng = np.random.default_rng

    def default_rng(seed=None):
        return traced_generator(plain_default_rng(seed).bit_generator)

    np.random.default_rng = default_rng
