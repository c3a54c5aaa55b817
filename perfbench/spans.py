"""In-memory span recorder for the traced benchmark run.

Spans are recorded by the benchmark around its calls into each layer's
public functions; nothing inside ``src/`` is instrumented. A span has a
name, a start and an end (``time.perf_counter`` seconds), the id of the
span that was open when it started, and the run id shared by every span
of one benchmark run. Spans stay in memory and are written out once,
when the run ends (:meth:`Tracer.write`).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Iterator


class Tracer:
    """Records nested spans of one benchmark run."""

    enabled = True

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[dict]:
        record = {
            "id": len(self.spans),
            "run": self.run_id,
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()

    def self_times(self, root_id: int) -> dict[str, float]:
        """Self time per span name over the tree under ``root_id``.

        A span's self time is its duration minus the durations of its
        direct children (spans here never overlap their siblings: the
        benchmark is one thread). The root's own self time is returned
        under its name, so the values sum to the root's duration.
        """
        children: dict[int, list[dict]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(span)
        totals: dict[str, float] = {}
        stack = [self.spans[root_id]]
        while stack:
            span = stack.pop()
            kids = children.get(span["id"], [])
            own = (span["end"] - span["start"]) - sum(k["end"] - k["start"] for k in kids)
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
            stack.extend(kids)
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"run": self.run_id, "spans": self.spans}, indent=1))


class NullTracer:
    """The untraced run's tracer: every span is a no-op."""

    enabled = False

    def span(self, name: str, **attrs: object):
        return nullcontext({})
