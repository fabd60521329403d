"""Spans and counters recorded around calls into felogit from outside.

A traced pass records one span per wrapped call: name, start, end, the
index of the enclosing span and the id of the task it served.  Counts
are kept per (name, task) at the same boundaries.  Everything stays in
memory; ``run.py`` writes it out when the run ends.  The untraced pass
uses ``NullTracer``, whose calls go straight through.  Both keep the
calibration samples that ``speed`` takes between the tasks of a pass.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

import speed


def task_kind(task):
    """Task ids look like ``kind`` or ``kind/rep<k>``."""
    return task.split("/", 1)[0] if task else ""


class NullTracer:
    """Records no spans or counts; ``call`` is a plain call."""

    enabled = False

    def __init__(self):
        self.task = None
        self.kernel_s = []  # calibration samples of this pass, in order

    def sample_speed(self):
        """Run the calibration kernel once; call it between tasks."""
        self.kernel_s.append(speed.kernel_s())

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, n=1):
        pass


class Tracer(NullTracer):
    enabled = True

    def __init__(self):
        super().__init__()
        self.spans = []  # [name, start, end, parent index or None, task]
        self.counts = defaultdict(int)  # (name, task) -> count
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                self.task]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def count(self, name, n=1):
        self.counts[(name, self.task)] += n

    # -- aggregation ------------------------------------------------------

    def _select(self, name, kind):
        return [i for i, s in enumerate(self.spans)
                if s[0] == name and (kind is None or task_kind(s[4]) == kind)]

    def calls(self, name, kind=None):
        return len(self._select(name, kind))

    def busy(self, name, kind=None):
        return sum(self.spans[i][2] - self.spans[i][1]
                   for i in self._select(name, kind))

    def self_time(self, name, kind=None):
        """Busy time minus the time direct children cover.  Children of
        one span run one after another in this single thread, so their
        durations add without overlap."""
        chosen = set(self._select(name, kind))
        child = defaultdict(float)
        for s in self.spans:
            if s[3] in chosen:
                child[s[3]] += s[2] - s[1]
        return sum(self.spans[i][2] - self.spans[i][1] - child[i]
                   for i in chosen)

    def total(self, name, kind=None):
        return sum(v for (n, task), v in self.counts.items()
                   if n == name and (kind is None or task_kind(task) == kind))

    def top_level_busy(self):
        """Per task, the summed duration of the spans that task opened
        directly: spans with no parent or a parent serving another task."""
        out = defaultdict(float)
        for s in self.spans:
            if s[3] is None or self.spans[s[3]][4] != s[4]:
                out[s[4]] += s[2] - s[1]
        return out

    def dump(self):
        return {
            "spans": [{"name": s[0], "start": s[1], "end": s[2],
                       "parent": s[3], "task": s[4]} for s in self.spans],
            "counts": [{"name": n, "task": t, "value": v}
                       for (n, t), v in self.counts.items()],
        }
