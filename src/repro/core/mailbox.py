"""The mailbox: fixed-size per-node FIFO storage of incoming mails (paper §3.5).

Every node owns ``num_slots`` mail slots of dimension ``mail_dim``.  A mail is
the summary of one (reduced batch of) interaction(s) that happened in the
node's k-hop temporal neighbourhood, labelled with its timestamp.  The mailbox
supports exactly the operations the paper's asynchronous framework needs:

* :meth:`deliver` — ψ, the mailbox update: push a whole batch of mails (one
  or several per node — duplicates are resolved with vectorised
  sequential-equivalent semantics), evicting the oldest when full;
* :meth:`read` — return the dense ``(len(nodes), num_slots, mail_dim)`` view
  plus a validity mask and the mail timestamps, *sorted by timestamp* (the
  paper notes that sorting on read makes the model robust to out-of-order
  event arrival in distributed streaming systems);
* :meth:`gather_many` — the batched-encoder entry point: concatenate several
  node-id arrays (e.g. sources, destinations and negatives of one event
  batch), deduplicate them, and read each distinct mailbox exactly once,
  returning the stacked mails, validity masks and the inverse map back to
  the caller's order (consumed by
  :meth:`repro.core.encoder.APANEncoder.encode_many`);
* alternative update policies (``reservoir``, ``newest_overwrite``) used by
  the ablation benchmarks.

The store is a set of pre-allocated NumPy arrays, so reading a batch of nodes
is a single fancy-indexing operation — this is what keeps APAN's critical path
free of graph queries.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory

import numpy as np

__all__ = ["Mailbox", "MailboxGather", "SharedMailboxHandle"]


@dataclass
class MailboxGather:
    """Deduplicated batched mailbox read returned by :meth:`Mailbox.gather_many`.

    Attributes
    ----------
    nodes:
        ``(U,)`` sorted distinct node ids actually read.
    inverse:
        ``(N,)`` indices with ``nodes[inverse]`` equal to the concatenation of
        the query groups — row ``i`` of the caller's flattened query is served
        by stacked row ``inverse[i]``.
    mails, times, valid:
        Dense stacks of shape ``(U, num_slots, mail_dim)``, ``(U, num_slots)``
        and ``(U, num_slots)`` — exactly what :meth:`Mailbox.read` returns for
        ``nodes``.
    """

    nodes: np.ndarray
    inverse: np.ndarray
    mails: np.ndarray
    times: np.ndarray
    valid: np.ndarray

    def __len__(self) -> int:
        return len(self.nodes)

@dataclass
class SharedMailboxHandle:
    """Picklable description of a shared-memory-backed :class:`Mailbox`.

    Produced by :meth:`Mailbox.share_memory` in the process that owns the
    mailbox and consumed by :meth:`Mailbox.attach` in worker processes.  It
    carries the mailbox geometry plus the ``multiprocessing.shared_memory``
    segment name of each state array, so any process on the machine can map
    the same physical pages.
    """

    num_nodes: int
    num_slots: int
    mail_dim: int
    update_policy: str = "fifo"
    seed: int | None = None
    segments: dict = field(default_factory=dict)


def _shared_array_specs(num_nodes: int, num_slots: int,
                        mail_dim: int) -> dict[str, tuple[tuple[int, ...], type]]:
    """Shape/dtype of every Mailbox state array that lives in shared memory.

    ``_next_slot`` and ``_delivered`` are included: delivery mutates them, and
    workers must see each other's FIFO cursors for in-order delivery to be
    equivalent to single-process delivery.
    """
    return {
        "mails": ((num_nodes, num_slots, mail_dim), np.float64),
        "mail_times": ((num_nodes, num_slots), np.float64),
        "valid": ((num_nodes, num_slots), np.bool_),
        "_next_slot": ((num_nodes,), np.int64),
        "_delivered": ((num_nodes,), np.int64),
    }


def _open_shared_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without registering it for cleanup.

    The attaching process does not own the segment, but before Python 3.13
    (``track=False``) every ``SharedMemory`` constructor registers with the
    ``resource_tracker`` — which would let a worker's exit unlink the parent's
    live memory (spawn) or unbalance the shared tracker (fork).  Suppressing
    registration during attach is the standard pre-3.13 workaround.
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
    """Last-resort cleanup for shared segments an owner never released.

    Registered via ``weakref.finalize`` when a mailbox moves into shared
    memory and detached again by :meth:`Mailbox.release_shared`.  If the
    owning process reaches interpreter exit (or drops the mailbox) with the
    segments still linked — e.g. a :class:`ServingRuntime` whose worker died
    before ``close()`` ran — the segments are unlinked here so they do not
    outlive the process in ``/dev/shm``.  Only ``unlink`` is attempted:
    ``close`` could raise while NumPy views still hold the buffer, and the
    kernel unmaps on process exit anyway.
    """
    for segment in segments.values():
        try:
            segment.unlink()
        except (FileNotFoundError, OSError):
            pass


_UPDATE_POLICIES = ("fifo", "reservoir", "newest_overwrite")


class Mailbox:
    """Fixed-slot per-node mail storage with FIFO (or ablation) semantics."""

    def __init__(self, num_nodes: int, num_slots: int, mail_dim: int,
                 update_policy: str = "fifo", seed: int | None = None):
        if num_nodes <= 0 or num_slots <= 0 or mail_dim <= 0:
            raise ValueError("num_nodes, num_slots and mail_dim must be positive")
        if update_policy not in _UPDATE_POLICIES:
            raise ValueError(
                f"unknown update policy {update_policy!r}; expected one of {_UPDATE_POLICIES}"
            )
        self.num_nodes = num_nodes
        self.num_slots = num_slots
        self.mail_dim = mail_dim
        self.update_policy = update_policy
        self._rng = np.random.default_rng(seed)

        self.mails = np.zeros((num_nodes, num_slots, mail_dim))
        self.mail_times = np.zeros((num_nodes, num_slots))
        self.valid = np.zeros((num_nodes, num_slots), dtype=bool)
        # Next slot to overwrite under FIFO, and how many mails ever delivered
        # (needed by reservoir sampling).
        self._next_slot = np.zeros(num_nodes, dtype=np.int64)
        self._delivered = np.zeros(num_nodes, dtype=np.int64)

    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Clear all mailboxes (start of an epoch / a fresh stream)."""
        self.mails.fill(0.0)
        self.mail_times.fill(0.0)
        self.valid.fill(False)
        self._next_slot.fill(0)
        self._delivered.fill(0)

    def occupancy(self, nodes: np.ndarray | None = None) -> np.ndarray:
        """Number of valid mails per node."""
        if nodes is None:
            return self.valid.sum(axis=1)
        return self.valid[np.asarray(nodes, dtype=np.int64)].sum(axis=1)

    def memory_footprint_bytes(self) -> int:
        """Approximate memory used by the mail store (paper §4.7 discussion)."""
        return int(self.mails.nbytes + self.mail_times.nbytes + self.valid.nbytes)

    # ------------------------------------------------------------------ #
    def deliver(self, nodes: np.ndarray, mails: np.ndarray,
                timestamps: np.ndarray) -> None:
        """Deliver a batch of mails (ψ update), one row per receiving slot write.

        The whole batch is applied with vectorised array ops — no per-mail
        Python loop, except the ``reservoir`` policy's duplicate-node
        fallback, whose draws depend on the running delivered counter.
        ``nodes`` may contain duplicates
        (callers usually reduce multiple mails per node with ρ first, see
        :class:`repro.core.propagator.MailPropagator`); duplicates are
        resolved exactly as sequential in-order delivery would resolve them,
        which the duplicate-delivery property tests assert.
        """
        nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
        mails = np.asarray(mails, dtype=np.float64)
        timestamps = np.asarray(timestamps, dtype=np.float64).reshape(-1)
        if mails.shape != (len(nodes), self.mail_dim):
            raise ValueError(
                f"mails must have shape ({len(nodes)}, {self.mail_dim}), got {mails.shape}"
            )
        if len(timestamps) != len(nodes):
            raise ValueError("timestamps must align with nodes")
        if len(nodes) == 0:
            return
        if nodes.min() < 0 or nodes.max() >= self.num_nodes:
            raise IndexError("node id out of range")

        if self.update_policy == "fifo":
            self._deliver_fifo(nodes, mails, timestamps)
        elif self.update_policy == "newest_overwrite":
            self._deliver_newest_overwrite(nodes, mails, timestamps)
        else:
            self._deliver_reservoir(nodes, mails, timestamps)

    @staticmethod
    def _occurrence_offsets(nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-element occurrence index within its node group, plus group sizes.

        ``offsets[i]`` is how many earlier elements of ``nodes`` hold the same
        node id (so sequential semantics survive vectorisation), and
        ``group_counts[i]`` is the total number of occurrences of ``nodes[i]``.
        """
        order = np.argsort(nodes, kind="stable")
        sorted_nodes = nodes[order]
        boundaries = np.empty(len(nodes), dtype=bool)
        boundaries[0] = True
        boundaries[1:] = sorted_nodes[1:] != sorted_nodes[:-1]
        group_starts = np.where(boundaries)[0]
        group_id = np.cumsum(boundaries) - 1
        sorted_offsets = np.arange(len(nodes)) - group_starts[group_id]
        counts = np.diff(np.append(group_starts, len(nodes)))
        offsets = np.empty(len(nodes), dtype=np.int64)
        offsets[order] = sorted_offsets
        group_counts = np.empty(len(nodes), dtype=np.int64)
        group_counts[order] = counts[group_id]
        return offsets, group_counts

    def _deliver_fifo(self, nodes, mails, timestamps) -> None:
        if len(np.unique(nodes)) == len(nodes):
            # One mail per node: plain fancy indexing.
            slots = self._next_slot[nodes]
            self.mails[nodes, slots] = mails
            self.mail_times[nodes, slots] = timestamps
            self.valid[nodes, slots] = True
            self._next_slot[nodes] = (slots + 1) % self.num_slots
            self._delivered[nodes] += 1
            return
        # Duplicate nodes: occurrence j of a node lands in slot
        # (next_slot + j) % num_slots, exactly as sequential delivery would.
        # Writes that a later occurrence of the same slot would overwrite are
        # dropped up front (only the last num_slots occurrences per node can
        # survive the ring buffer), so one fancy assignment suffices.
        offsets, group_counts = self._occurrence_offsets(nodes)
        slots = (self._next_slot[nodes] + offsets) % self.num_slots
        survives = offsets >= group_counts - self.num_slots
        write_nodes = nodes[survives]
        write_slots = slots[survives]
        self.mails[write_nodes, write_slots] = mails[survives]
        self.mail_times[write_nodes, write_slots] = timestamps[survives]
        self.valid[write_nodes, write_slots] = True
        last = offsets == group_counts - 1
        self._next_slot[nodes[last]] = (self._next_slot[nodes[last]]
                                        + group_counts[last]) % self.num_slots
        np.add.at(self._delivered, nodes, 1)

    def _deliver_newest_overwrite(self, nodes, mails, timestamps) -> None:
        """Ablation policy: always overwrite slot 0 (mailbox of effective size 1)."""
        offsets, group_counts = self._occurrence_offsets(nodes)
        last = offsets == group_counts - 1
        self.mails[nodes[last], 0] = mails[last]
        self.mail_times[nodes[last], 0] = timestamps[last]
        self.valid[nodes, 0] = True
        np.add.at(self._delivered, nodes, 1)

    def _deliver_reservoir(self, nodes, mails, timestamps) -> None:
        """Ablation policy: reservoir sampling keeps a uniform sample of history.

        The common case (every node appears once — the propagator reduces
        duplicates with ρ before delivering) is fully vectorised: the
        still-filling nodes take slot ``delivered`` directly, and the full
        ones draw their candidate slots in one array call.  Duplicate nodes
        fall back to the sequential loop, whose draws depend on the running
        ``delivered`` counter.
        """
        unique = len(np.unique(nodes)) == len(nodes)
        if unique:
            delivered = self._delivered[nodes]
            filling = delivered < self.num_slots
            slots = np.where(filling, delivered, 0)
            accept = filling.copy()
            full = np.where(~filling)[0]
            if len(full):
                candidates = self._rng.integers(0, delivered[full] + 1)
                keep = candidates < self.num_slots
                slots[full[keep]] = candidates[keep]
                accept[full[keep]] = True
            write_nodes = nodes[accept]
            write_slots = slots[accept]
            self.mails[write_nodes, write_slots] = mails[accept]
            self.mail_times[write_nodes, write_slots] = timestamps[accept]
            self.valid[write_nodes, write_slots] = True
            self._delivered[nodes] += 1
            return
        for node, mail, timestamp in zip(nodes, mails, timestamps):
            delivered = self._delivered[node]
            if delivered < self.num_slots:
                slot = delivered
            else:
                candidate = int(self._rng.integers(0, delivered + 1))
                if candidate >= self.num_slots:
                    self._delivered[node] += 1
                    continue
                slot = candidate
            self.mails[node, slot] = mail
            self.mail_times[node, slot] = timestamp
            self.valid[node, slot] = True
            self._delivered[node] += 1

    # ------------------------------------------------------------------ #
    def read(self, nodes: np.ndarray,
             sort_by_time: bool = True) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read the mailboxes of ``nodes``.

        Returns ``(mails, timestamps, valid)`` with shapes
        ``(len(nodes), num_slots, mail_dim)``, ``(len(nodes), num_slots)`` and
        ``(len(nodes), num_slots)``.  When ``sort_by_time`` is True, each
        node's slots are ordered oldest-to-newest regardless of physical slot
        position (invalid slots are pushed to the end).
        """
        nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
        if len(nodes) and (nodes.min() < 0 or nodes.max() >= self.num_nodes):
            raise IndexError("node id out of range")
        # A fancy gather already returns a copy: every array is private to
        # the caller, so a worker delivering into shared state cannot
        # overwrite it.
        mails = self.mails[nodes]
        times = self.mail_times[nodes]
        valid = self.valid[nodes]
        if not sort_by_time or len(nodes) == 0:
            return mails, times, valid
        # Invalid slots get +inf sort keys so they land at the end.
        sort_keys = np.where(valid, times, np.inf)
        order = np.argsort(sort_keys, axis=1, kind="stable")
        rows = np.arange(len(nodes))[:, None]
        return mails[rows, order], times[rows, order], valid[rows, order]

    def gather_many(self, *node_groups: np.ndarray,
                    sort_by_time: bool = True) -> MailboxGather:
        """Deduplicate several node-id arrays and read each mailbox once.

        This is the storage half of the batched encoder path: the caller
        passes every group of nodes it needs embeddings for (for one event
        batch that is sources, destinations, and — during training — sampled
        negatives), and gets back one dense ``(U, num_slots, mail_dim)``
        mailbox stack over the ``U`` *distinct* nodes, plus the ``inverse``
        map that scatters the encoded rows back to the concatenated query
        order.  Encoding each distinct node exactly once is both cheaper and
        required for consistency (paper §3.2: a node appearing several times
        in a batch shares one embedding).
        """
        if not node_groups:
            raise ValueError("gather_many requires at least one node group")
        flat = np.concatenate(
            [np.asarray(group, dtype=np.int64).reshape(-1) for group in node_groups]
        )
        nodes, inverse = np.unique(flat, return_inverse=True)
        mails, times, valid = self.read(nodes, sort_by_time=sort_by_time)
        return MailboxGather(nodes=nodes, inverse=inverse.reshape(-1),
                             mails=mails, times=times, valid=valid)

    # ------------------------------------------------------------------ #
    # Shared-memory views (the multi-process serving runtime's key-value
    # store: scorer and propagation workers map the same physical arrays).
    # ------------------------------------------------------------------ #
    @property
    def is_shared(self) -> bool:
        """True when the state arrays live in ``multiprocessing.shared_memory``."""
        return bool(getattr(self, "_shm_segments", None))

    def share_memory(self) -> SharedMailboxHandle:
        """Move the state arrays into shared-memory segments; return a handle.

        The mailbox keeps working exactly as before (same arrays, same
        semantics) but its storage now lives in OS shared memory, so worker
        processes can :meth:`attach` to it and deliver mail that this process
        observes without any copying.  The calling process owns the segments:
        call :meth:`release_shared` (or let :class:`ServingRuntime` do it)
        to copy the state back to private memory and unlink the segments.
        """
        if self.is_shared:
            raise RuntimeError("mailbox state is already in shared memory")
        segments: dict[str, shared_memory.SharedMemory] = {}
        segment_names: dict[str, str] = {}
        try:
            for name, (shape, dtype) in _shared_array_specs(
                    self.num_nodes, self.num_slots, self.mail_dim).items():
                current = getattr(self, name)
                segment = shared_memory.SharedMemory(create=True, size=current.nbytes)
                segments[name] = segment
                view = np.ndarray(shape, dtype=dtype, buffer=segment.buf)
                view[:] = current
                setattr(self, name, view)
                segment_names[name] = segment.name
        except Exception:
            # A partial failure (e.g. shm exhaustion) must not leak the
            # segments already created: copy the state back to private
            # arrays, then close + unlink everything.
            for name, segment in segments.items():
                view = getattr(self, name)
                if isinstance(view, np.ndarray) and view.base is not None:
                    setattr(self, name, np.array(view))
                del view
                segment.close()
                segment.unlink()
            raise
        self._shm_segments = segments
        # Safety net: if this process exits (or the mailbox is dropped)
        # without release_shared(), unlink the segments rather than leaking
        # them past the process's lifetime.
        self._shm_finalizer = weakref.finalize(
            self, _unlink_leaked_segments, segments)
        return SharedMailboxHandle(
            num_nodes=self.num_nodes, num_slots=self.num_slots,
            mail_dim=self.mail_dim, update_policy=self.update_policy,
            seed=None, segments=segment_names,
        )

    @classmethod
    def attach(cls, handle: SharedMailboxHandle) -> "Mailbox":
        """Map an existing shared-memory mailbox (worker-process side).

        The returned mailbox reads and writes the *same* physical arrays as
        the process that called :meth:`share_memory`.  The attaching process
        does not own the segments (see :func:`_open_shared_segment`), and its
        :meth:`release_shared` merely unmaps.
        """
        mailbox = cls(handle.num_nodes, handle.num_slots, handle.mail_dim,
                      update_policy=handle.update_policy, seed=handle.seed)
        mailbox._shm_segments = {}
        mailbox._shm_attached = True
        for name, (shape, dtype) in _shared_array_specs(
                handle.num_nodes, handle.num_slots, handle.mail_dim).items():
            segment = _open_shared_segment(handle.segments[name])
            setattr(mailbox, name, np.ndarray(shape, dtype=dtype, buffer=segment.buf))
            mailbox._shm_segments[name] = segment
        return mailbox

    def release_shared(self) -> None:
        """Detach from shared memory, copying state back into private arrays.

        In the owning process (the one that called :meth:`share_memory`) this
        also unlinks the segments, so the mailbox survives with its final
        state in ordinary memory and no shared-memory files leak.  In an
        attached process it only unmaps.  No-op for a non-shared mailbox.
        """
        if not self.is_shared:
            return
        attached = getattr(self, "_shm_attached", False)
        segments = self._shm_segments
        for name, segment in segments.items():
            setattr(self, name, np.array(getattr(self, name)))
            segment.close()
            if not attached:
                segment.unlink()
        segments.clear()
        self._shm_segments = {}
        finalizer = getattr(self, "_shm_finalizer", None)
        if finalizer is not None:
            finalizer.detach()
            self._shm_finalizer = None
