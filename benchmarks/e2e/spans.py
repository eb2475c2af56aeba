"""Spans recorded by the benchmark around its calls into each layer.

Spans are kept in memory and written as JSON lines when the worker ends.
A ``gc.callbacks`` hook charges every generation-2 collection to the span
that was open when it ran, because on the large heaps these workloads build
the collector -- not the layer's own code -- is what produces the long
stalls.
"""

from __future__ import annotations

import gc
import json
from time import perf_counter
from typing import Dict, List, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent", "gc2_s", "gc2_max_s", "gc2_count")

    def __init__(self, name: str, parent: Optional[int]) -> None:
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.gc2_s = 0.0
        self.gc2_max_s = 0.0
        self.gc2_count = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Open:
    """Context manager for one span (a class: cheaper than a generator)."""

    __slots__ = ("recorder", "index")

    def __init__(self, recorder: "Recorder", index: int) -> None:
        self.recorder = recorder
        self.index = index

    def __enter__(self) -> None:
        self.recorder.spans[self.index].start = perf_counter()

    def __exit__(self, *exc) -> None:
        self.recorder.spans[self.index].end = perf_counter()
        self.recorder._stack.pop()


class Recorder:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._gc_start = 0.0

    def span(self, name: str) -> _Open:
        index = len(self.spans)
        self.spans.append(Span(name, self._stack[-1] if self._stack else None))
        self._stack.append(index)
        return _Open(self, index)

    # -- collector attribution ------------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if info["generation"] != 2:
            return
        if phase == "start":
            self._gc_start = perf_counter()
        elif self._stack:
            took = perf_counter() - self._gc_start
            span = self.spans[self._stack[-1]]
            span.gc2_s += took
            span.gc2_count += 1
            span.gc2_max_s = max(span.gc2_max_s, took)

    def watch_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    # -- read-out -----------------------------------------------------------

    def by_name(self) -> Dict[str, dict]:
        """Per span name: call count, total and self seconds, gen-2 time.

        A span's self time is its duration minus what its child spans
        cover, so the self times under one root add up to the root.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        out: Dict[str, dict] = {}
        for span, children in zip(self.spans, child_time):
            row = out.setdefault(
                span.name,
                {"count": 0, "total_s": 0.0, "self_s": 0.0, "gc2_s": 0.0,
                 "gc2_max_s": 0.0, "gc2_count": 0},
            )
            row["count"] += 1
            row["total_s"] += span.duration
            row["self_s"] += span.duration - children
            row["gc2_s"] += span.gc2_s
            row["gc2_count"] += span.gc2_count
            row["gc2_max_s"] = max(row["gc2_max_s"], span.gc2_max_s)
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "gc2_s": span.gc2_s,
                            "gc2_count": span.gc2_count,
                        }
                    )
                    + "\n"
                )


class _NullSpan:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        return None


_NULL = _NullSpan()


def null_span(name: str) -> _NullSpan:
    """Stand-in for :meth:`Recorder.span` on untraced runs."""
    return _NULL
