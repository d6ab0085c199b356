"""In-memory spans around the benchmark's calls into each layer of the package.

A span is (name, start_ns, end_ns, parent index); the layer is the part of
the name before the first dot.  Spans are kept in memory and written out
when the run ends, with each layer's self time: a span's duration minus the
time its child spans cover.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs), recorded as a span while tracing is enabled."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        record = [name, 0, 0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter_ns()
        try:
            yield
        finally:
            record[2] = perf_counter_ns()
            self._stack.pop()

    def durations_us(self, name: str) -> list[float]:
        return [(end - start) / 1e3 for n, start, end, _ in self.spans if n == name]

    def median_us(self, name: str) -> float:
        return statistics.median(self.durations_us(name))

    def self_time_ms(self) -> dict[str, float]:
        """Per layer: summed span durations minus the time covered by child spans."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        layers: dict[str, float] = {}
        for (name, *_), ns in zip(self.spans, own):
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + ns / 1e6
        return layers

    def write(self, path: Path) -> None:
        origin = min((s[1] for s in self.spans), default=0)
        path.write_text(
            json.dumps(
                {
                    "fields": ["name", "start_us", "end_us", "parent"],
                    "spans": [[n, (s - origin) / 1e3, (e - origin) / 1e3, p] for n, s, e, p in self.spans],
                    "self_time_ms": self.self_time_ms(),
                }
            )
        )
