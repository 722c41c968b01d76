"""Outside-in span recorder for the release path.

The recorder wraps public functions at the names their callers resolve
(``repro.core.pipeline.localize_mlab_tests``, ``FeatureBuilder.vectorize``,
...), so nothing under ``src/`` changes to be measured.  Spans are kept in
memory as ``(name, start, end, parent)`` rows and written out once, when
the run ends.  A span's *self time* is its duration minus the part its
child spans cover; the self times of a tree sum to the root's duration
exactly, which is what lets the per-layer numbers reconcile with wall time.

A wrapped call may also count its work: a ``count`` callback receives the
call's arguments and result and returns a number stored on the call's
span (``geo.radius`` spans carry the number of cells each query returned).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from dataclasses import asdict, dataclass

__all__ = ["Span", "Tracer", "self_times"]


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: Index of the enclosing span in the tracer's list; -1 for a root.
    parent: int
    #: Work the call did, as its ``count`` callback measured it.
    work: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Single-threaded span stack plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, 0.0, 0.0, parent)
        # Appended before the body runs, so children get higher indices.
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is a module or a class.  Class-, static- and plain
        methods keep their binding kind.  :meth:`restore` undoes every
        wrap in reverse order.
        """
        original = inspect.getattr_static(owner, attr)
        func = (
            original.__func__
            if isinstance(original, (classmethod, staticmethod))
            else original
        )

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = func(*args, **kwargs)
                if count is not None:
                    record.work = float(count(args, kwargs, result))
            return result

        if isinstance(original, classmethod):
            replacement = classmethod(wrapper)
        elif isinstance(original, staticmethod):
            replacement = staticmethod(wrapper)
        else:
            replacement = wrapper
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [asdict(s) for s in self.spans]}, fh)


def self_times(spans: list[Span]) -> list[float]:
    """Per-span self time: duration minus the children's durations.

    Children of one parent never overlap (the recorder is a stack), so
    subtracting their durations removes exactly the covered interval.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out
