"""In-memory span recording and self-time arithmetic.

A span is one call of a traced function: its name, start and end
(``perf_counter_ns``) and the index of the span that was open when it
started (-1 for a root). Spans are appended in call order, so the
descendants of a span are the contiguous run of indices after it that
ends at the next span with the same or a shallower parent. Nothing is
written out while a run is measured; the arrays stay in memory until the
benchmark summarizes them.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np


class Tracer:
    """Records spans for the functions it wraps while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._open: list[int] = []
        self.absent: set[str] = set()

    def __len__(self) -> int:
        return len(self.start)

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn):
        """``fn`` wrapped so that each call records one span called ``name``."""
        nid = self._name_id(name)
        name_of, parent, start, end, open_spans = self.name_of, self.parent, self.start, self.end, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(open_spans[-1] if open_spans else -1)
            end.append(0)
            open_spans.append(idx)
            start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                open_spans.pop()

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name`` and return its result."""
        return self.wrap(name, fn)(*args, **kwargs)

    @contextmanager
    def installed(self, targets):
        """Replace each ``(module, owner, attr, span name)`` target by a span
        wrapper for the duration of the block; ``owner`` names a class inside
        the module or is None for a module attribute. A target the program
        does not define is left out and listed in ``self.absent``. Every
        original is put back on exit, also when the block raises."""
        patched = []
        try:
            for module_name, owner_name, attr, span_name in targets:
                owner = importlib.import_module(module_name)
                if owner_name is not None:
                    owner = getattr(owner, owner_name, None)
                original = vars(owner).get(attr) if owner is not None else None
                if original is None:
                    self.absent.add(".".join(filter(None, (module_name, owner_name, attr))))
                    continue
                setattr(owner, attr, self.wrap(span_name, original))
                patched.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def table(self) -> "SpanTable":
        """Snapshot of the recorded spans with their self times."""
        # copies, so that the tracer can keep recording afterwards
        parent = np.array(self.parent, dtype=np.int64)
        duration = np.array(self.end, dtype=np.int64) - np.array(self.start, dtype=np.int64)
        return SpanTable(
            names=list(self.names),
            name_of=np.array(self.name_of, dtype=np.int64),
            parent=parent,
            duration=duration,
            own=self_times(parent, duration),
        )


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    child_total = np.zeros(len(duration), dtype=np.int64)
    has_parent = parent >= 0
    np.add.at(child_total, parent[has_parent], duration[has_parent])
    return duration - child_total


@dataclass(frozen=True)
class SpanTable:
    names: list
    name_of: np.ndarray
    parent: np.ndarray
    duration: np.ndarray
    own: np.ndarray

    def totals(self, lo: int = 0, hi: int | None = None) -> dict:
        """name -> (calls, inclusive ns, self ns) over the spans with index in [lo, hi)."""
        name_of = self.name_of[lo:hi]
        duration = self.duration[lo:hi]
        own = self.own[lo:hi]
        out = {}
        for nid, name in enumerate(self.names):
            mask = name_of == nid
            calls = int(mask.sum())
            if calls:
                out[name] = (calls, int(duration[mask].sum()), int(own[mask].sum()))
        return out
