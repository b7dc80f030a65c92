"""In-memory span tracer that wraps nse functions from outside the package.

A wrapped call becomes one span ``(id, name, parent, thread, start, end)``.
Parents are tracked per thread, so calls made on the engine's evaluation
pool threads start their own trees.  Wrappers are installed where callers
look the function up (``nse.engine:evaluate_on_supernet``, not
``nse.supernet:evaluate``), and a target that no longer exists is recorded
as absent instead of raising, so the tracer keeps working while functions
are renamed or deleted.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, int | None, int, float, float]] = []
        self.counters: Counter = Counter()
        self.absent: dict[str, str] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def count(self, key: str, amount: float) -> None:
        with self._lock:
            self.counters[key] += amount

    def wrap(self, name, fn, *, context=None, split=False, cpu=False, after=None):
        """Return ``fn`` recording one span per call.

        ``context`` tags the calling thread for the duration of the call;
        ``split`` appends the innermost enclosing tag to the span name
        (``nn.affine.train``); ``cpu`` adds wall minus thread CPU time, the
        time spent waiting for the interpreter lock or a core, to the
        ``<name>.wait_s`` counter; ``after(tracer, result)`` reads the
        return value.
        """
        clock, ids, local, spans = time.perf_counter, self._ids, self._local, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.context = None
            outer = local.context
            label = f"{name}.{outer or 'other'}" if split else name
            sid = next(ids)
            parent = stack[-1] if stack else None
            if context is not None:
                local.context = context
            stack.append(sid)
            cpu_start = time.thread_time() if cpu else 0.0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                local.context = outer
                spans.append((sid, label, parent, threading.get_ident(), start, end))
                if cpu:  # clamped: the two clocks tick at different resolutions
                    wait = (end - start) - (time.thread_time() - cpu_start)
                    self.count(f"{name}.wait_s", max(0.0, wait))
            if after is not None:
                after(self, result)
            return result

        return traced

    def patch(self, name: str, target: str, **options) -> bool:
        """Wrap ``module:Owner.attr`` in place; record it as absent if missing."""
        module_name, _, qualname = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError) as exc:
            self.absent[target] = f"{type(exc).__name__}: {exc}"
            return False
        if isinstance(raw, (staticmethod, classmethod)):
            wrapped = type(raw)(self.wrap(name, raw.__func__, **options))
        else:
            wrapped = self.wrap(name, raw, **options)
        setattr(owner, attr, wrapped)
        return True


def covered(intervals) -> float:
    """Wall time during which at least one of the intervals is open."""
    total, cursor = 0.0, float("-inf")
    for start, end in sorted(intervals):
        start = max(start, cursor)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans) -> dict[str, float]:
    """Per-name span time not covered by the span's direct children.

    Children are clipped to their parent and their union is subtracted, so
    overlapping children are not counted twice.
    """
    children = defaultdict(list)
    for _, _, parent, _, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals: dict[str, float] = defaultdict(float)
    for sid, name, _, _, start, end in spans:
        inside = [(max(s, start), min(e, end)) for s, e in children.get(sid, ())]
        totals[name] += (end - start) - covered(inside)
    return dict(totals)
