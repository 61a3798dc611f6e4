"""A tiny structured run logger used by the trainers and the serving loop."""

from __future__ import annotations

import sys
import time

__all__ = ["RunLogger"]


class RunLogger:
    """Collects (step, metrics) records and optionally echoes them to stderr.

    Deliberately minimal: the benchmark harness and tests read ``history``
    directly, and verbose mode exists only for interactive example scripts.
    """

    def __init__(self, name: str = "run", verbose: bool = False):
        self.name = name
        self.verbose = verbose
        self.history: list[dict] = []
        self._start = time.perf_counter()

    def log(self, step: int | str, **metrics) -> dict:
        record = {"step": step, "elapsed_s": time.perf_counter() - self._start}
        record.update(metrics)
        self.history.append(record)
        if self.verbose:
            rendered = ", ".join(
                f"{key}={value:.4f}" if isinstance(value, float) else f"{key}={value}"
                for key, value in metrics.items()
            )
            print(f"[{self.name}] step {step}: {rendered}", file=sys.stderr)
        return record

    def last(self, key: str, default=None):
        """Most recent value recorded under ``key``."""
        for record in reversed(self.history):
            if key in record:
                return record[key]
        return default

    def series(self, key: str) -> list:
        """All recorded values of ``key`` in order."""
        return [record[key] for record in self.history if key in record]
