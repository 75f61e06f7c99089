"""In-memory span recording around calls into the program, from outside it.

A :class:`Tracer` hands out wrappers for plain functions and generator
functions. Each wrapped call appends one span (name id, start, end, parent
span) to flat arrays kept in memory; nothing is written until the harness
asks for it at the end of a run. :class:`Patches` installs wrappers onto
module or class attributes and restores the original objects, checking by
identity that each one is back.

Self time is a span's duration minus the time its direct children cover.
The program is single-threaded inside the traced calls, so a span's children
never overlap and their durations simply add.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np


class Tracer:
    """Span store plus the wrapper factories that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("l")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        #: named totals recorded beside the spans (bytes sent, ...)
        self.counters: dict[str, float] = {}
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.starts)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _namer(self, name):
        """``name`` is a span name, or a callable mapping call args to one."""
        if callable(name):
            cache: dict[str, int] = {}

            def resolve(args):
                label = name(args)
                nid = cache.get(label)
                if nid is None:
                    nid = cache[label] = self.name_id(label)
                return nid

            return resolve
        nid = self.name_id(name)
        return lambda args: nid

    def wrap(self, fn, name, size=None):
        """A wrapper recording one span per call of ``fn``.

        ``size(args)``, when given, is added to the counter ``<span>.size``
        on every call (rows encoded, bytes sent, accesses simulated, ...).
        """
        resolve = self._namer(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self._stack
        perf = time.perf_counter
        names, counters = self.names, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            nid = resolve(args)
            if size is not None:
                key = names[nid] + ".size"
                counters[key] = counters.get(key, 0.0) + size(args)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf()
                stack.pop()

        return traced

    def wrap_iter(self, fn, name):
        """A wrapper for a generator function: one span per item produced.

        The span closes before the item is handed to the consumer, so the
        consumer's own work between items is not charged to the generator.
        """
        nid = self.name_id(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                i = len(starts)
                name_ids.append(nid)
                parents.append(stack[-1])
                ends.append(0.0)
                stack.append(i)
                starts.append(perf())
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    ends[i] = perf()
                    stack.pop()
                yield item

        return traced

    # ------------------------------------------------------------ analysis
    def arrays(self) -> dict[str, np.ndarray]:
        """The recorded spans as NumPy columns, plus the name table."""
        return {
            "name_id": np.asarray(self.name_ids, dtype=np.int64),
            "parent": np.asarray(self.parents, dtype=np.int64),
            "start": np.asarray(self.starts, dtype=np.float64),
            "end": np.asarray(self.ends, dtype=np.float64),
            "names": np.asarray(self.names, dtype=str),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, total ``us`` and total ``self_us``."""
        cols = self.arrays()
        return summarize(cols["name_id"], cols["parent"], cols["start"], cols["end"], self.names)

    def root_seconds(self) -> float:
        """Total duration of the spans that have no parent."""
        cols = self.arrays()
        return float((cols["end"] - cols["start"])[cols["parent"] < 0].sum())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed duration of its direct children."""
    dur = end - start
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child


def summarize(name_id, parent, start, end, names) -> dict[str, dict[str, float]]:
    """Group spans by name into call counts, total and self microseconds."""
    out: dict[str, dict[str, float]] = {}
    if len(start) == 0:
        return out
    dur = end - start
    own = self_times(parent, start, end)
    n = len(names)
    calls = np.bincount(name_id, minlength=n)
    total = np.bincount(name_id, weights=dur, minlength=n)
    self_total = np.bincount(name_id, weights=own, minlength=n)
    for nid, label in enumerate(names):
        if calls[nid]:
            out[label] = {
                "calls": int(calls[nid]),
                "us": float(total[nid]) * 1e6,
                "self_us": float(self_total[nid]) * 1e6,
            }
    return out


class Patches:
    """Reversible replacement of module/class attributes with wrappers."""

    def __init__(self):
        self._saved: list[tuple[object, str, object, bool]] = []

    def install(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` with ``make(original)``.

        Class attributes are read with ``inspect.getattr_static`` so an
        inherited method is patched on ``owner`` itself and removed again
        afterwards instead of overwriting the base class.
        """
        original = inspect.getattr_static(owner, attr)
        own = attr in vars(owner)
        self._saved.append((owner, attr, original, own))
        setattr(owner, attr, make(getattr(owner, attr)))

    def restore(self) -> None:
        """Put every original back, newest first; raise if one is not back."""
        while self._saved:
            owner, attr, original, own = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
            if inspect.getattr_static(owner, attr) is not original:
                raise RuntimeError(f"{owner!r}.{attr} was not restored")

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
