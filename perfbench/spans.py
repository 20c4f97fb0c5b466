"""Spans and counters recorded from outside the ``ripening`` modules.

A :class:`Tracer` replaces every module-level binding of a layer function in
``ripening.*`` with a wrapper, so calls between modules are caught as well as
calls from the benchmark, and puts the originals back on exit.  Wrappers come
in three kinds:

* span: records (id, name, start, end, parent, op, self time) in memory;
* timed leaf: adds one call and its duration to a per-name total and to the
  parent span's child time, without a span record (hot functions);
* counted leaf: adds one call to a per-name total, nothing else.

A span's self time is its duration minus the time its direct children
cover; the code under test is single-threaded, so children never overlap.
For ``find_root`` and ``integrate`` the callable argument is wrapped too,
which counts the function evaluations each call makes.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

SPAN, TIMED, COUNTED = "span", "timed", "counted"

# (module, attribute, kind, name of the argument whose calls are counted)
TARGETS = (
    ("regime", "_tau_closed_form", COUNTED, None),
    ("numerics", "find_root", SPAN, "f"),
    ("numerics", "integrate", SPAN, "f"),
    ("return_map", "initial_size_for_ratio", SPAN, None),
    ("return_map", "return_size", SPAN, None),
    ("return_map", "return_radius", SPAN, None),
    ("distribution", "density", TIMED, None),
    ("recrystallization", "new_volume_fraction", SPAN, None),
    ("recrystallization", "fraction_from_start_size", SPAN, None),
    ("ensemble", "simulate_late_stage", SPAN, None),
    ("ensemble", "init_ensemble", SPAN, None),
    ("ensemble", "Ensemble.run", SPAN, None),
    ("ensemble", "measure_new_volume", SPAN, None),
    ("ensemble", "empirical_return_radius", SPAN, None),
    ("ensemble", "write_snapshot_csv", SPAN, None),
    ("ensemble", "write_series_csv", SPAN, None),
    ("cli", "_emit_json", SPAN, None),
)


class _Frame:
    __slots__ = ("id", "child")

    def __init__(self, span_id):
        self.id = span_id
        self.child = 0.0


class Tracer:
    """Context manager that installs the wrappers while it is active."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, op, self_s)
        self.calls = defaultdict(int)  # name -> calls (leaves and evals)
        self.leaf_s = defaultdict(float)  # name -> total time (timed leaves)
        self.missing = []  # targets a later version no longer has
        self.op = None
        self._stack = []
        self._next_id = 0
        self._restore = []

    # -- spans opened by the benchmark itself ------------------------------

    def begin_op(self, op_id, name):
        self.op = op_id
        return self._enter(name)

    def end_op(self, token):
        self._exit(*token)
        self.op = None

    # -- bookkeeping -------------------------------------------------------

    def _enter(self, name):
        frame = _Frame(self._next_id)
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(frame)
        return name, frame, parent, perf_counter()

    def _exit(self, name, frame, parent, start):
        end = perf_counter()
        self._stack.pop()
        duration = end - start
        if parent is not None:
            parent.child += duration
        self.spans.append((
            frame.id, name, start, end,
            None if parent is None else parent.id, self.op,
            duration - frame.child,
        ))

    def _span(self, fn, name, counted_arg):
        eval_name = f"{name}.evals"

        def counting(f):
            def evaluate(*args, **kwargs):
                self.calls[eval_name] += 1
                return f(*args, **kwargs)
            return evaluate

        def wrapper(*args, **kwargs):
            if counted_arg is not None:
                if args:
                    args = (counting(args[0]),) + args[1:]
                else:
                    kwargs[counted_arg] = counting(kwargs[counted_arg])
            token = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(*token)
        return wrapper

    def _timed(self, fn, name):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self.calls[name] += 1
                self.leaf_s[name] += duration
                if self._stack:
                    self._stack[-1].child += duration
        return wrapper

    def _counted(self, fn, name):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installing --------------------------------------------------------

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "ripening" or n.startswith("ripening.")]
        for module, attr, kind, counted_arg in TARGETS:
            name = f"{module}.{attr}"
            owner = sys.modules.get(f"ripening.{module}")
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, method, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            if kind == SPAN:
                wrapper = self._span(original, name, counted_arg)
            elif kind == TIMED:
                wrapper = self._timed(original, name)
            else:
                wrapper = self._counted(original, name)
            holders = [owner] if cls_name else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._restore.append((holder, key, original))
        return self

    def __exit__(self, *exc):
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()
        return False

    # -- reading -----------------------------------------------------------

    def span_dicts(self):
        keys = ("id", "name", "start", "end", "parent", "op", "self_s")
        return [dict(zip(keys, span)) for span in self.spans]
