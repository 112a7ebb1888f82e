"""Outside-in span tracing of the program's layer boundaries.

The benchmark wraps the public functions at each layer boundary from the
outside: :class:`Tracer` replaces every binding of a wrapped function
object across the loaded ``repro.*`` modules (callers that did ``from
repro.sparse.segreduce import scatter_reduce`` hold their own binding),
and sets wrapped methods on their class.  :meth:`Tracer.uninstall` puts
every original back, so an untraced pass in the same process runs the
unmodified program.

A span is ``(name, start, end, parent, cell)``.  Spans are appended to
flat arrays while the traced pass runs and summarized afterwards: a
span's *self time* is its duration minus the part of that interval its
child spans cover (:func:`self_times`).  Only the thread that installed
the tracer records; calls from other threads run untraced.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from array import array
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np


class Tracer:
    """Installs span-recording wrappers and holds the recorded spans."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.cell = array("i")
        #: Calls counted without a span (cheap leaf hooks).
        self.counts: Dict[str, int] = {}
        #: Id stamped on every span recorded from now on (e.g. the cell).
        self.cell_id = -1
        self._stack: List[int] = []
        self._thread = threading.get_ident()
        self._undo: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span_wrapper(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped to record one span named ``name`` per call."""
        nid = self._name_id(name)
        stack = self._stack
        thread = self._thread
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != thread:
                return fn(*args, **kwargs)
            idx = len(self.name_id)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.cell.append(self.cell_id)
            self.start.append(0)
            self.end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1

        return traced

    def count_wrapper(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped to count calls under ``name`` (no span: its time
        stays in the caller's self time)."""
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # ------------------------------------------------------------------
    # Installing
    # ------------------------------------------------------------------
    def wrap_function(self, name: str, fn: Callable, count_only=False) -> int:
        """Rebind every reference to ``fn`` in the loaded ``repro``
        modules; returns how many bindings were replaced."""
        wrapper = (self.count_wrapper if count_only
                   else self.span_wrapper)(name, fn)
        replaced = 0
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, fn))
                    replaced += 1
        return replaced

    def wrap_method(self, name: str, cls: type, attr: str,
                    count_only=False) -> None:
        """Replace ``cls.attr`` (a plain function in the class body)."""
        fn = vars(cls)[attr]
        wrapper = (self.count_wrapper if count_only
                   else self.span_wrapper)(name, fn)
        setattr(cls, attr, wrapper)
        self._undo.append((cls, attr, fn))

    def uninstall(self) -> None:
        """Restore every original binding, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def arrays(self) -> Dict[str, np.ndarray]:
        """The recorded spans as numpy arrays (``names`` indexes
        ``name_id``)."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "cell": np.frombuffer(self.cell, dtype=np.int32).copy(),
        }

    def summary(self) -> Dict[str, Tuple[int, float]]:
        """``{span name: (calls, self seconds)}`` over all spans."""
        spans = self.arrays()
        own = self_times(spans["start"], spans["end"], spans["parent"])
        calls = np.bincount(spans["name_id"], minlength=len(self.names))
        selfs = np.bincount(spans["name_id"], weights=own,
                            minlength=len(self.names))
        return {name: (int(calls[i]), float(selfs[i]) / 1e9)
                for i, name in enumerate(self.names)}


def self_times(start: Sequence[int], end: Sequence[int],
               parent: Sequence[int]) -> np.ndarray:
    """Per-span self time: duration minus the union of its children's
    intervals, each clipped to the parent's interval.

    Children of one synchronous parent never overlap, so the common case
    is a subtraction of summed child durations; parents whose children
    overlap (spans from concurrent callers) get an exact interval merge.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    own = (end - start).astype(np.float64)
    kids = np.flatnonzero(parent >= 0)
    if kids.size == 0:
        return own
    par = parent[kids]
    lo = np.maximum(start[kids], start[par])
    hi = np.minimum(end[kids], end[par])
    covered = np.maximum(hi - lo, 0)
    order = np.lexsort((lo, par))
    par, lo, hi, covered = par[order], lo[order], hi[order], covered[order]
    same = par[1:] == par[:-1]
    overlapping = same & (lo[1:] < hi[:-1])
    simple = np.ones(len(par), dtype=bool)
    if overlapping.any():
        for p in np.unique(par[1:][overlapping]):
            simple[par == p] = False
            sel = np.flatnonzero(par == p)
            own[p] -= _union_length(lo[sel], hi[sel])
    own -= np.bincount(par[simple], weights=covered[simple],
                       minlength=len(own))
    return own


def _union_length(lo: np.ndarray, hi: np.ndarray) -> int:
    """Total length covered by intervals sorted by start."""
    total = 0
    cur_lo, cur_hi = None, None
    for a, b in zip(lo.tolist(), hi.tolist()):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _repro_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))]


def public_functions(module) -> List[Tuple[str, Callable]]:
    """The module's own public functions (not imported ones)."""
    return [(n, f) for n, f in inspect.getmembers(module, inspect.isfunction)
            if not n.startswith("_") and f.__module__ == module.__name__]


def public_methods(cls: type, exclude=()) -> List[str]:
    """Names of plain public functions defined in ``cls``'s own body."""
    return [n for n, f in vars(cls).items()
            if inspect.isfunction(f) and not n.startswith("_")
            and n not in exclude]
