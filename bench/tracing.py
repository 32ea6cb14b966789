"""Spans and garbage-collector counters recorded by the benchmark itself.

Spans wrap calls into the package from the benchmark's own code; nothing
inside `src/` is instrumented.  They are kept in memory and written out
once, when the run ends.
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from time import perf_counter_ns


class Tracer:
    """In-memory span log: [name, start_ns, end_ns, parent index, trial id]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, trial=None):
        parent = self._open[-1] if self._open else None
        if trial is None and parent is not None:
            trial = self.spans[parent][4]
        rec = [name, perf_counter_ns(), 0, parent, trial]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = perf_counter_ns()
            self._open.pop()

    @staticmethod
    def seconds(rec) -> float:
        return (rec[2] - rec[1]) * 1e-9

    def durations(self, name: str) -> list[float]:
        return [(r[2] - r[1]) * 1e-9 for r in self.spans if r[0] == name]

    def by_trial(self, name: str) -> dict:
        """Summed duration of `name` spans per trial id, in seconds."""
        out: dict = {}
        for r in self.spans:
            if r[0] == name:
                out[r[4]] = out.get(r[4], 0.0) + (r[2] - r[1]) * 1e-9
        return out

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, (name, start, end, parent, trial) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "trial": trial}) + "\n")


class GcMonitor:
    """Counts gen-2 collections and the pauses of all collections, through
    `gc.callbacks`.

    Only observes: the collector stays enabled with its default thresholds.
    """

    def __init__(self):
        self.gen2 = 0
        self.pause_ns = 0
        self._start = 0

    def _callback(self, phase, info):
        if phase == "start":
            self._start = perf_counter_ns()
            return
        self.pause_ns += perf_counter_ns() - self._start
        if info["generation"] == 2:
            self.gen2 += 1

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)
        return False
