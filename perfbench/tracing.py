"""Spans and probes for the benchmark's traced run.

Spans are recorded by the benchmark around its calls into each strongstab
layer: name, start, end and the index of the enclosing span. They are kept
in memory and written out when the run ends. A layer's self time is its
span durations minus the part covered by its child spans.

The program itself is not modified. Calls that happen inside a layer are
reached in two ways: the adversary is handed to ``engine.run`` inside a
delegating proxy, and during the traced pass ``analysis`` resolves
``StabilityChecker``, ``find_disruptions`` and ``count_o_changes`` to timed
wrappers (restored afterwards).
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, excluding time covered by child spans."""
        own = defaultdict(float)
        for name, start, end, parent in self.spans:
            own[name] += end - start
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
        return dict(own)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end, "parent": parent}) + "\n")


def span(tracer, name: str):
    """A span on `tracer`, or nothing when the run is untraced."""
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


class AdversaryProbe:
    """Delegating proxy that times and counts `act` calls."""

    def __init__(self, inner, tracer: Tracer, stats: Counter):
        self._inner = inner
        self._tracer = tracer
        self._stats = stats

    def act(self, config, topo, pid):
        with self._tracer.span("adversary.act"):
            write = self._inner.act(config, topo, pid)
        self._stats["adversary.act_calls"] += 1
        if write is not None:
            self._stats["adversary.byz_writes"] += 1
        return write

    def __getattr__(self, name):
        return getattr(self._inner, name)


@contextlib.contextmanager
def instrument_analysis(analysis, tracer: Tracer, stats: Counter):
    """Route the analysis layer's internal calls through timed wrappers.

    A stability check counts as a repeat when the same checker has already
    seen the configuration; `stability.unknown_distinct` counts UNKNOWN
    verdicts among first-time checks only.
    """
    base = analysis.StabilityChecker

    class TimedChecker(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._bench_seen = set()

        def check(self, config):
            with tracer.span("stability.check"):
                verdict = super().check(config)
            stats["stability.checks"] += 1
            if config in self._bench_seen:
                stats["stability.repeats"] += 1
            else:
                self._bench_seen.add(config)
                stats["stability.distinct"] += 1
                if verdict.value == "unknown":
                    stats["stability.unknown_distinct"] += 1
            return verdict

    saved = {
        "StabilityChecker": base,
        "find_disruptions": analysis.find_disruptions,
        "count_o_changes": analysis.count_o_changes,
    }
    analysis.StabilityChecker = TimedChecker
    analysis.find_disruptions = tracer.wrap("analysis.scan", saved["find_disruptions"])
    analysis.count_o_changes = tracer.wrap("analysis.count_o_changes", saved["count_o_changes"])
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(analysis, name, value)
