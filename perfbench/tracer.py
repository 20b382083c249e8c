"""Spans around calls into each tfperf module, installed from outside the package.

`Tracer.install()` replaces each traced function with a wrapper wherever the
package holds a reference to it: in the defining module and in every module
that imported it by value (`cli.evolve`, `fusion.op_latency`, ...).
`uninstall()` puts the originals back, so untraced passes run unmodified code.

Spans live in flat in-memory arrays with parent links; `save()` writes them
out when the run ends. A span's self time is its duration minus the durations
of its direct children, which in single-threaded nested calls are contained in
it, so the self times of all spans add up to the duration of the root spans.
"""
from __future__ import annotations

import functools
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[int, dict] = {}  # span index -> counts recorded at its boundary
        self._stack = [-1]
        self._targets: list = []
        self._restore: list = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, count=None):
        """`fn` inside a span; `count(args, kwargs, result)` returns counts to keep."""
        nid = self._name_id(name)
        clock = time.perf_counter
        stack, counts = self._stack, self.counts
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if count is not None:
                counts[i] = count(args, kwargs, result)
            return result
        return traced

    # -- installation --------------------------------------------------------

    def target(self, owner, attr: str, name: str, count=None) -> None:
        """Trace `owner.attr` (a module function or a class method) as span `name`."""
        self._targets.append((owner, attr, name, count))

    def install(self, modules) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, count in self._targets:
            orig = getattr(owner, attr)
            wrapper = self.wrap(name, orig, count)
            holders = {id(owner): owner}
            for m in modules:  # every by-value import of the same function
                holders.setdefault(id(m), m)
            for h in holders.values():
                for key, value in list(vars(h).items()):
                    if value is orig:
                        self._restore.append((h, key, orig))
                        setattr(h, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self._restore):
            setattr(holder, key, orig)
        self._restore.clear()

    # -- analysis ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self, lo: int = 0, hi: int | None = None):
        """(name_id, parent, start, end) as numpy arrays for spans lo..hi-1."""
        hi = len(self) if hi is None else hi
        return (np.frombuffer(self.name_id, dtype=np.int64)[lo:hi].copy(),
                np.frombuffer(self.parent, dtype=np.int64)[lo:hi].copy(),
                np.frombuffer(self.start, dtype=np.float64)[lo:hi].copy(),
                np.frombuffer(self.end, dtype=np.float64)[lo:hi].copy())

    def save(self, path: str) -> None:
        name_id, parent, start, end = self.arrays()
        t0 = start.min() if len(start) else 0.0
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id,
                            parent=parent, start_s=start - t0, end_s=end - t0)


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray, lo: int = 0) -> np.ndarray:
    """Each span's duration minus its direct children's durations.

    `parent` holds absolute span indices (-1 for a root); `lo` is the absolute
    index of the first span passed in. Every parent must be inside the slice.
    """
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent] - lo, weights=dur[has_parent], minlength=len(dur))
    return dur - child
