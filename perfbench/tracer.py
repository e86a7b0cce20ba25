"""In-memory spans recorded around calls into the engine's layers.

A span has a name, start and end (``time.perf_counter`` seconds), the id
of the span that was open when it started (its parent) and the run id.
Spans are kept in memory and written out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self, run_id: str, enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "parent": self._stack[-1] if self._stack else None,
               "run_id": self.run_id, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration minus the part its
        direct children cover (children never overlap: one thread)."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += (s["end"] - s["start"]) - child[s["id"]]
        return dict(out)

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"run_id": self.run_id, "spans": self.spans}, f)
