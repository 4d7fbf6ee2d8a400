"""In-memory span and counter recording for the traced benchmark pass.

Spans are recorded from the benchmark's side of each call into a module
of ``diatomic_dp``: the name is ``<module>.<function>``, the parent is
the task span that made the call, and every span carries its task id.
Nothing is written until the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Records spans and counts when enabled; passes calls straight through otherwise.

    Untraced rounds use a disabled tracer, so both kinds of round execute
    the same task code and differ only by the recording.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple[str, int, int, int, str]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._parent = -1
        self._task = ""

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)``; when enabled, record it as span ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, start, time.perf_counter_ns(), self._parent, self._task))

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts[name] += value

    @contextmanager
    def task(self, task_id: str):
        """Open the parent span for one task's calls."""
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        self.spans.append(("task", time.perf_counter_ns(), 0, -1, task_id))
        self._parent, self._task = index, task_id
        try:
            yield
        finally:
            name, start, _, parent, tid = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter_ns(), parent, tid)
            self._parent, self._task = -1, ""


def span_totals(spans) -> dict[str, tuple[int, float]]:
    """Per span name: (number of spans, summed duration in seconds)."""
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for name, start, end, _, _ in spans:
        out[name][0] += 1
        out[name][1] += (end - start) * 1e-9
    return {name: (n, s) for name, (n, s) in out.items()}


def layer_self_times(spans) -> dict[str, float]:
    """Self time per layer: span durations minus the time their child spans cover.

    The layer is the part of the span name before the first dot; task
    spans form the ``bench`` layer, whose self time is the harness's own
    work between calls. Children of one parent never overlap (a closed
    loop runs one call at a time), so coverage is a plain sum.
    """
    child_time: dict[int, int] = defaultdict(int)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(spans):
        layer = "bench" if name == "task" else name.split(".", 1)[0]
        out[layer] += (end - start - child_time[index]) * 1e-9
    return dict(out)
