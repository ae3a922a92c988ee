"""In-memory span recorder for the traced benchmark run.

A span is one call of a wrapped function: its name, the span that was open
when it started (its parent), the round (one pass of the benchmark's
pipeline, the "request") it belongs to, start and end in integer
nanoseconds, and the shape of its first array argument.  Everything is
single-threaded, so spans nest strictly and a span's children never overlap;
self time is therefore the span's duration minus the sum of its children's.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    parent: int  # index into Recorder.spans, -1 for a root span
    round: int
    start_ns: int
    end_ns: int = 0
    shape: tuple = ()

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Recorder:
    """Collects spans from wrapped callables; nothing is written until
    :meth:`write_jsonl` is called at the end of the run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.round = 0
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that every call records a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._open[-1] if self._open else -1
            span = Span(name, parent, self.round, time.perf_counter_ns(),
                        shape=_first_shape(args))
            self.spans.append(span)
            self._open.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._open.pop()
                span.end_ns = time.perf_counter_ns()

        return wrapper

    def self_times_ns(self) -> list[int]:
        """Per span: duration minus the duration of its direct children."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_ns[span.parent] += span.duration_ns
        return [s.duration_ns - c for s, c in zip(self.spans, child_ns)]

    def ancestors(self, idx: int):
        """Names of the spans enclosing span ``idx``, innermost first."""
        parent = self.spans[idx].parent
        while parent >= 0:
            yield self.spans[parent].name
            parent = self.spans[parent].parent

    def write_jsonl(self, path) -> None:
        selfs = self.self_times_ns()
        with open(path, "w", encoding="utf-8") as fh:
            for i, (span, self_ns) in enumerate(zip(self.spans, selfs)):
                row = asdict(span)
                row["id"] = i
                row["self_ns"] = self_ns
                fh.write(json.dumps(row) + "\n")


def _first_shape(args) -> tuple:
    for a in args:
        shape = getattr(a, "shape", None)
        if isinstance(shape, tuple):
            return shape
    return ()
