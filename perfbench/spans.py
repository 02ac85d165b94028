"""In-memory span tracing of spindd's public functions, from outside the package.

``Tracer.patched()`` replaces each traced function by a timing wrapper for the
duration of a ``with`` block and restores the originals afterwards, so
untraced runs execute the unmodified program.  Many functions are imported by
name into the module that calls them, so the name is patched in the calling
module (``spindd.cli.fit_decay``, ``spindd.evolve.segment_phases``), not only
where it is defined.

A span is ``(span_id, name, start, end, parent_id, thread_id, run_id)``.  The
parent is the innermost open span on the same thread; a span opened on a
worker thread with nothing open there takes the innermost open span of the
thread that started tracing, which is the caller waiting on the pool.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import json
import threading
from contextlib import contextmanager
from time import perf_counter


def _normals_drawn(args, kwargs):
    """Standard normals segment_phases draws, from its arguments alone."""
    model = args[0] if args else kwargs["model"]
    tog = args[1] if len(args) > 1 else kwargs["tog"]
    indices = args[3] if len(args) > 3 else kwargs["indices"]
    if (args[2] if len(args) > 2 else kwargs.get("rng")) is None:
        return 0
    n_seg = len(tog.breakpoints) - 1
    per_traj = sum(
        getattr(c, "n_normals_base", 0) + getattr(c, "n_normals_per_segment", 0) * n_seg
        for c in model.components
        if getattr(c, "n_normals_base", 0) > 0
    )
    try:
        n_traj = len(indices)
    except TypeError:
        n_traj = 1
    return per_traj * n_traj


def _converged(args, kwargs, result):
    return 1 if getattr(result, "converged", False) else 0


# (module, attribute, span name, counters); a counter maps the call to a number
# that is summed per run under ``<span name>.<counter name>``
TARGETS = (
    ("spindd.field", "RngSpec.generator", "field.rng_generator", {}),
    ("spindd.field", "segment_phases", "field.segment_phases",
     {"normals": lambda a, k, r: _normals_drawn(a, k)}),
    ("spindd.evolve", "segment_phases", "field.segment_phases",
     {"normals": lambda a, k, r: _normals_drawn(a, k)}),
    ("spindd.evolve", "ou_chi", "field.ou_chi", {}),
    ("spindd.cli", "ou_chi", "field.ou_chi", {}),
    ("spindd.sequence", "toggling", "sequence.toggling", {}),
    ("spindd.evolve", "coherence_curve", "evolve.coherence_curve", {}),
    ("spindd.evolve", "spin_lock_curve", "evolve.spin_lock_curve", {}),
    ("spindd.evolve", "pulse_error_curve", "evolve.pulse_error_curve", {}),
    ("spindd.cli", "fit_decay", "fit.fit_decay", {"converged": _converged}),
    ("spindd.sense", "fit_power_law", "fit.fit_power_law", {}),
    ("spindd.cli", "suppression_table", "taylor.suppression_table", {}),
    ("spindd.taylor", "cpmg_factor", "taylor.cpmg_factor", {}),
    ("spindd.sense", "sensitivity_scan", "sense.sensitivity_scan", {}),
    ("spindd.config", "validate", "config.validate", {}),
    ("spindd.cli", "run", "cli.run", {}),
)


class Tracer:
    """Collects spans and per-run counters while patched; writes them out at the end."""

    def __init__(self):
        self.spans = []
        self.counters = []  # (run_id, "<span name>.<counter>", value)
        self.run_id = 0
        self.missing = []  # targets absent from the program under test
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, counters):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                root = tracer._root_stack
                parent = root[-1] if root else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append(
                    (sid, name, start, end, parent, threading.get_ident(), tracer.run_id)
                )
            for cname, count in counters.items():
                tracer.counters.append((tracer.run_id, f"{name}.{cname}", count(args, kwargs, result)))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextmanager
    def patched(self, run_id):
        """Trace one run: patch every target, yield, restore the originals."""
        self.run_id = run_id
        self._root_stack = self._stack()
        undo = []
        try:
            for module_name, attr, name, counters in TARGETS:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, leaf, None) if owner is not None else None
                if original is None:
                    if (module_name, attr) not in self.missing:
                        self.missing.append((module_name, attr))
                    continue
                setattr(owner, leaf, self._wrap(name, original, counters))
                undo.append((owner, leaf, original))
            yield self
        finally:
            for owner, leaf, original in reversed(undo):
                setattr(owner, leaf, original)

    def write(self, path):
        """Spans and counters as gzipped JSON lines."""
        with gzip.open(path, "wt") as fh:
            for sid, name, start, end, parent, tid, run in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "thread": tid, "run": run}) + "\n")
            for run, name, value in self.counters:
                fh.write(json.dumps({"counter": name, "run": run, "value": value}) + "\n")


def self_times(spans):
    """span_id -> duration minus the union of its direct children's intervals."""
    children = {}
    for span in spans:
        if span[4] is not None:
            children.setdefault(span[4], []).append(span)
    out = {}
    for sid, _name, start, end, _parent, _tid, _run in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(
            (max(c[2], start), min(c[3], end)) for c in children.get(sid, ())
        ):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (end - start) - covered
    return out


def per_run_totals(tracer: Tracer):
    """{run_id: {"<span>.calls"|".s"|".self_s"|"<span>.<counter>": value}}."""
    selfs = self_times(tracer.spans)
    totals = {}
    for sid, name, start, end, _parent, _tid, run in tracer.spans:
        t = totals.setdefault(run, {})
        t[f"{name}.calls"] = t.get(f"{name}.calls", 0) + 1
        t[f"{name}.s"] = t.get(f"{name}.s", 0.0) + (end - start)
        t[f"{name}.self_s"] = t.get(f"{name}.self_s", 0.0) + selfs[sid]
    for run, name, value in tracer.counters:
        t = totals.setdefault(run, {})
        t[name] = t.get(name, 0) + value
    return totals
