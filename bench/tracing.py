"""Spans recorded from outside the program, around calls into its layers.

A traced run replaces each layer's public entry point with a wrapper that
records ``(name, start, end, parent, batch seq)`` into a list held in memory.
Nothing in the program changes; the untraced run never installs a wrapper.
Counts (nodes encoded, sampler slots, mails routed) are taken at the same
boundaries from the calls' arguments and results.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

clock = time.monotonic  # CLOCK_MONOTONIC: the program's repro.obs spans use it too


class Tracer:
    """In-memory span list plus counters, filled by the installed wrappers."""

    def __init__(self):
        self.spans: list = []     # (name, start, end, parent index, seq)
        self.counts = defaultdict(float)
        self.seq = -1             # batch sequence number of the open spans
        self._stack: list[int] = []
        self._restores: list = []

    # ------------------------------------------------------------------ #
    def wrap(self, owner, attribute: str, name: str, count=None) -> bool:
        """Span every call of ``owner.attribute``; False if it is missing.

        ``count(counts, args, result)`` runs after each call, outside the span.
        """
        func = getattr(owner, attribute, None)
        if func is None:
            return False
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.seq)
            if count is not None:
                count(self.counts, args, result)
            return result

        had_own = attribute in vars(owner)
        previous = vars(owner).get(attribute)
        setattr(owner, attribute, traced)
        self._restores.append((owner, attribute, had_own, previous))
        return True

    def uninstall(self) -> None:
        for owner, attribute, had_own, previous in reversed(self._restores):
            if had_own:
                setattr(owner, attribute, previous)
            else:
                delattr(owner, attribute)
        self._restores.clear()

    # ------------------------------------------------------------------ #
    def totals(self) -> dict:
        """Per span name: ``(calls, total seconds, self seconds)``.

        Self time is the span's duration minus the part its child spans cover.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_time[index]
        return out

    def top_level_seconds(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans
                   if parent < 0)

    def chrome_events(self, pid: int, origin: float) -> list:
        """The spans as Chrome ``X`` events, microseconds since ``origin``."""
        return [{"name": name, "cat": "bench", "ph": "X", "pid": pid,
                 "tid": "bench", "ts": (start - origin) * 1e6,
                 "dur": (end - start) * 1e6,
                 "args": {"seq": seq, "parent": parent}}
                for name, start, end, parent, seq in self.spans]


def write_chrome_trace(path, events: list, metadata: dict) -> None:
    """One trace-event JSON object; loads in Perfetto / chrome://tracing."""
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "metadata": metadata}, handle)
