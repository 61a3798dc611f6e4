"""Named bundles of NumPy arrays in ``multiprocessing.shared_memory``.

The one shared-memory lifecycle of the package: telemetry state, the
serving runtime's hand-off ring and the shared
:class:`repro.core.mailbox.Mailbox` all live in these bundles (``repro.obs``
imports nothing of the package — observability sits below every other
subsystem).  One process *creates* the bundle (and owns the segments: its
release unlinks them), any number of processes *attach* to the same
physical pages through a picklable handle — or, for a bundle created under
a name ``prefix``, through the handle :func:`named_handle` rebuilds from the
prefix and the specs alone, so a process can find a bundle created after it
started without being sent one.

The owner-side lifecycle is leak-proof by construction: a partial failure
during ``create`` unwinds the segments already allocated, ``release`` copies
the data back into private memory before unlinking (so the arrays stay
readable after the shared segments are gone), and a ``weakref.finalize``
safety net unlinks anything the owner never released — the guarantees the
``/dev/shm`` leak regression tests pin for the mailbox and the runtime.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory

import numpy as np

__all__ = ["BundleHandle", "SharedArrayBundle", "named_handle"]


@dataclass(frozen=True)
class BundleHandle:
    """Picklable attach recipe: array name -> (segment name, shape, dtype str)."""

    segments: dict = field(default_factory=dict)


def named_handle(prefix: str, specs: dict) -> BundleHandle:
    """The handle of the bundle ``SharedArrayBundle.create(specs, prefix)`` makes."""
    return BundleHandle(segments={
        name: (prefix + name, tuple(shape), np.dtype(dtype).str)
        for name, (shape, dtype) in specs.items()
    })


def _open_existing_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to a segment without registering it for resource-tracker cleanup.

    Before Python 3.13 (``track=False``) every ``SharedMemory`` constructor
    registers with the ``resource_tracker``, which would let an attaching
    worker's exit unlink the owner's live segments (spawn) or unbalance the
    shared tracker (fork); suppressing registration during attach is the
    standard pre-3.13 workaround.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        pass
    original_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


def _unlink_leaked_segments(segments: dict) -> None:
    for segment in segments.values():
        try:
            segment.unlink()
        except (FileNotFoundError, OSError):
            pass


class SharedArrayBundle:
    """A dict of named NumPy arrays living in shared-memory segments."""

    def __init__(self):
        self.arrays: dict[str, np.ndarray] = {}
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._attached = False
        self._finalizer = None

    # ------------------------------------------------------------------ #
    @classmethod
    def create(cls, specs: dict[str, tuple[tuple[int, ...], object]],
               prefix: str | None = None) -> "SharedArrayBundle":
        """Allocate one zero-initialised shared array per ``specs`` entry.

        Segments get random names, or ``prefix + name`` when a ``prefix`` is
        given (see :func:`named_handle`).
        """
        bundle = cls()
        try:
            for name, (shape, dtype) in specs.items():
                nbytes = max(int(np.prod(shape)) * np.dtype(dtype).itemsize, 1)
                # Fresh segments are kernel-zero-filled (tmpfs), so no
                # explicit zeroing: creating a multi-MB trace ring costs no
                # page touches until it is actually written.
                segment = shared_memory.SharedMemory(
                    name=None if prefix is None else prefix + name,
                    create=True, size=nbytes)
                bundle._segments[name] = segment
                bundle.arrays[name] = np.ndarray(shape, dtype=dtype,
                                                 buffer=segment.buf)
        except Exception:
            # Never leak the segments already allocated (e.g. shm exhaustion
            # halfway through): drop the views, then close + unlink.
            bundle.arrays.clear()
            for segment in bundle._segments.values():
                segment.close()
                segment.unlink()
            raise
        bundle._finalizer = weakref.finalize(
            bundle, _unlink_leaked_segments, bundle._segments)
        return bundle

    @classmethod
    def attach(cls, handle: BundleHandle) -> "SharedArrayBundle":
        """Map an existing bundle (non-owning: release only unmaps)."""
        bundle = cls()
        bundle._attached = True
        for name, (segment_name, shape, dtype_str) in handle.segments.items():
            segment = _open_existing_segment(segment_name)
            bundle._segments[name] = segment
            bundle.arrays[name] = np.ndarray(
                tuple(shape), dtype=np.dtype(dtype_str), buffer=segment.buf)
        return bundle

    def handle(self) -> BundleHandle:
        if not self._segments:
            raise RuntimeError("bundle is not shared (already released?)")
        return BundleHandle(segments={
            name: (self._segments[name].name, tuple(array.shape), array.dtype.str)
            for name, array in self.arrays.items()
        })

    # ------------------------------------------------------------------ #
    @property
    def is_shared(self) -> bool:
        return bool(self._segments)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

    def release(self, keep: bool = True) -> None:
        """Detach; the owner also unlinks.

        With ``keep`` the arrays stay readable (a private copy); without it
        they are dropped unread.  Either way no other view of a shared array
        should outlive this call: depending on the NumPy version such a view
        keeps the mapping alive (its unmap then waits for the view to go) or
        is left pointing at unmapped memory.  Never raises for a live view,
        so a teardown on an error path cannot stop halfway.
        """
        if not self._segments:
            return
        if not keep:
            self.arrays.clear()
        for name, segment in self._segments.items():
            if keep:
                self.arrays[name] = np.array(self.arrays[name])
            if not self._attached:
                segment.unlink()  # first: the name goes even if the unmap waits
            try:
                segment.close()
            except BufferError:
                pass  # a live view holds the mapping; it unmaps with that view
        self._segments = {}
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
