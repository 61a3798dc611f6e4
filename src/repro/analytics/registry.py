"""The publishing protocol between the event stream and its derived views.

:class:`ViewRegistry` owns a set of incremental views (objects with the
uniform ``fold(src, dst, timestamps, labels, first_row)`` method — e.g.
:class:`~repro.analytics.windows.WindowAggregator` and
:class:`~repro.analytics.velocity.DegreeVelocity`) over one event source (an
:class:`~repro.storage.event_store.EventStore`, or any store-like object
with the same column properties, such as a
:class:`~repro.graph.temporal_graph.TemporalGraph` façade or a
:class:`~repro.storage.graph_view.GraphView`).

``advance(hi)`` mirrors :meth:`~repro.storage.graph_view.GraphView.extend_to`:
it publishes the store prefix ``[0, hi)`` to every view, folding exactly the
rows ``[folded, hi)`` that no view has seen yet — **each row reaches each
view exactly once**, tracked by a single high-water mark.  Re-publishing an
already-folded prefix (``hi <= folded``) is an idempotent no-op, so replays
and mode comparisons are safe.

Refresh races
-------------
A reader-attached mmap store only sees rows the writer has *published*
(the seqlock-guarded counts in ``header.bin``).  NumPy slicing would
silently clamp ``store.src[lo:hi]`` to the visible prefix, so a registry
racing ahead of
the writer would quietly fold a short block and desynchronise from the
stream forever.  ``advance`` therefore refreshes the store when ``hi`` is
beyond the visible prefix and raises :class:`StaleStoreError` — naming both
counts — if the rows are still unpublished, instead of folding garbage.
``tests/analytics/test_registry_races.py`` pins this against a live
writer/reader process pair.

Every ``advance`` is instrumented with the ``features.advance``
:mod:`repro.obs` span (batch size as the span arg) when a live
:class:`~repro.obs.telemetry.Telemetry` is bound.
"""

from __future__ import annotations

import numpy as np

from ..obs import NULL_TELEMETRY

__all__ = ["StaleStoreError", "ViewRegistry"]


class StaleStoreError(RuntimeError):
    """``advance(hi)`` asked for rows the writer has not yet published."""


class ViewRegistry:
    """Folds store row ranges into registered views, each row exactly once.

    ``event_times`` (optional) is a per-row occurrence-time column for
    arrival-ordered out-of-order streams (the ``late_events`` scenario):
    the store's append log is arrival order and its ``timestamps`` column
    holds arrival times, while the views must fold by *occurrence* time —
    the axis watermark policies act on.  When given, ``advance`` folds
    ``event_times[lo:hi]`` instead of ``store.timestamps[lo:hi]``.
    """

    def __init__(self, store, telemetry=NULL_TELEMETRY, event_times=None):
        self.store = store
        self.telemetry = telemetry
        if event_times is not None:
            event_times = np.asarray(event_times, dtype=np.float64).reshape(-1)
        self.event_times = event_times
        self._views: dict[str, object] = {}
        self._folded = 0  # store rows already published to every view

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register(self, name: str, view) -> "ViewRegistry":
        """Add a view.  Must happen before the first ``advance`` so every
        view has folded the same prefix (the exactly-once invariant is per
        registry, not per view)."""
        if self._folded:
            raise RuntimeError(
                f"cannot register {name!r} after advance(): the registry has "
                f"already published {self._folded} rows this view would miss"
            )
        if name in self._views:
            raise ValueError(f"a view named {name!r} is already registered")
        if not callable(getattr(view, "fold", None)):
            raise TypeError(f"view {name!r} has no fold() method")
        self._views[name] = view
        return self

    def __getitem__(self, name: str):
        return self._views[name]

    def __contains__(self, name: str) -> bool:
        return name in self._views

    @property
    def views(self) -> dict:
        return dict(self._views)

    @property
    def folded(self) -> int:
        """Rows published so far: every view has folded exactly ``[0, folded)``."""
        return self._folded

    # ------------------------------------------------------------------ #
    # Publishing
    # ------------------------------------------------------------------ #
    def _visible_rows(self) -> int:
        return int(self.store.num_events)

    def advance(self, hi: int | None = None) -> int:
        """Publish the store prefix ``[0, hi)`` to every registered view.

        With ``hi=None``, follows the store to its currently visible end
        (refreshing an mmap reader first).  Returns the new high-water mark.
        Rows ``[folded, hi)`` are folded into each view exactly once;
        ``hi <= folded`` is an idempotent no-op.  Raises
        :class:`StaleStoreError` if ``hi`` names rows the writer has not
        published yet (after one refresh attempt).
        """
        refresh = getattr(self.store, "refresh", None)
        if hi is None:
            if refresh is not None:
                refresh()
            hi = self._visible_rows()
        hi = int(hi)
        if hi <= self._folded:
            return self._folded
        visible = self._visible_rows()
        if hi > visible and refresh is not None:
            refresh()
            visible = self._visible_rows()
        if hi > visible:
            raise StaleStoreError(
                f"advance({hi}) is past the published prefix: only {visible} "
                f"rows are visible (writer not yet published?). Refusing to "
                f"fold a silently-clamped block."
            )
        lo, store = self._folded, self.store
        with self.telemetry.span("features.advance", arg=hi - lo):
            src = store.src[lo:hi]
            dst = store.dst[lo:hi]
            if self.event_times is not None:
                if len(self.event_times) < hi:
                    raise StaleStoreError(
                        f"event_times column holds {len(self.event_times)} "
                        f"rows but advance({hi}) was requested")
                timestamps = self.event_times[lo:hi]
            else:
                timestamps = store.timestamps[lo:hi]
            labels = store.labels[lo:hi]
            if not (len(src) == len(dst) == len(timestamps) == len(labels)
                    == hi - lo):
                raise StaleStoreError(
                    f"store columns clamped to {len(src)} rows while folding "
                    f"[{lo}, {hi}) — concurrent writer growth mid-advance"
                )
            for view in self._views.values():
                view.fold(src, dst, timestamps, labels, first_row=lo)
            self._folded = hi
        return self._folded

    def memory_footprint_bytes(self) -> int:
        return int(sum(view.memory_footprint_bytes()
                       for view in self._views.values()
                       if hasattr(view, "memory_footprint_bytes")))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ViewRegistry(views={sorted(self._views)}, "
                f"folded={self._folded})")
