"""The mailbox: fixed-size per-node FIFO storage of incoming mails (paper §3.5).

Every node owns ``num_slots`` mail slots of dimension ``mail_dim``.  A mail is
the summary of one (reduced batch of) interaction(s) that happened in the
node's k-hop temporal neighbourhood, labelled with its timestamp.  The mailbox
supports exactly the operations the paper's asynchronous framework needs:

* :meth:`deliver` — ψ, the mailbox update: push a whole batch of mails
  (duplicates resolved as sequential delivery would), evicting the oldest
  when full; ``reservoir`` and ``newest_overwrite`` are ablation policies;
* :meth:`read` — the dense ``(len(nodes), num_slots, mail_dim)`` stack with
  validity mask and timestamps, *sorted by timestamp* (the paper notes this
  makes the model robust to out-of-order arrival);
* :meth:`gather_many` — the batched-encoder entry point: read each distinct
  node of several node-id arrays once, plus the inverse map back;
* :meth:`share_memory` / :meth:`attach` / :meth:`release_shared` — the
  serving runtime's key-value store: the state arrays move into one
  :class:`repro.obs._shm.SharedArrayBundle` that the scorer and every
  propagation worker map.

The store is a set of pre-allocated NumPy arrays, so reading a batch of nodes
is a single fancy-indexing operation — this is what keeps APAN's critical path
free of graph queries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs._shm import BundleHandle, SharedArrayBundle

__all__ = ["Mailbox", "MailboxGather", "MailboxHandle"]


@dataclass
class MailboxGather:
    """Deduplicated batched mailbox read returned by :meth:`Mailbox.gather_many`.

    ``nodes`` are the ``U`` sorted distinct ids read; ``nodes[inverse]``
    equals the concatenated query groups; ``mails``, ``times`` and ``valid``
    are exactly what :meth:`Mailbox.read` returns for ``nodes``.
    """

    nodes: np.ndarray
    inverse: np.ndarray
    mails: np.ndarray
    times: np.ndarray
    valid: np.ndarray

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class MailboxHandle:
    """Picklable recipe for :meth:`Mailbox.attach`: the shared arrays plus
    the update policy and its concrete seed (the geometry is read off the
    arrays' shapes)."""

    bundle: BundleHandle
    update_policy: str = "fifo"
    seed: int = 0


_UPDATE_POLICIES = ("fifo", "reservoir", "newest_overwrite")

# SplitMix64 constants: the golden-ratio increment and the finaliser's two
# multipliers.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(words: np.ndarray) -> np.ndarray:
    """SplitMix64's finaliser: a bijective avalanche of ``uint64`` words."""
    words = (words ^ (words >> np.uint64(30))) * _MIX1
    words = (words ^ (words >> np.uint64(27))) * _MIX2
    return words ^ (words >> np.uint64(31))


class Mailbox:
    """Fixed-slot per-node mail storage with FIFO (or ablation) semantics."""

    #: ``(key, attribute)`` of every state array, cursors included (workers
    #: delivering in turn must see each other's): the one list sharing,
    #: :meth:`reset` and :meth:`snapshot` / :meth:`restore` walk.
    STATE = (("mails", "mails"), ("times", "mail_times"), ("valid", "valid"),
             ("next_slot", "_next_slot"), ("delivered", "_delivered"))

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
        # Draw entropy for seed=None once, here: an attached worker mailbox
        # must draw reservoir slots like this one does.
        if seed is None:
            seed = int(np.random.SeedSequence().entropy)
        self.seed = seed
        self._entropy = np.random.SeedSequence(seed).generate_state(1, np.uint64)[0]
        self._bundle, self._owner = None, False

        self.mails = np.zeros((num_nodes, num_slots, mail_dim))
        self.mail_times = np.zeros((num_nodes, num_slots))
        self.valid = np.zeros((num_nodes, num_slots), dtype=bool)
        self._next_slot = np.zeros(num_nodes, dtype=np.int64)
        self._delivered = np.zeros(num_nodes, dtype=np.int64)

    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Clear all mailboxes (start of an epoch / a fresh stream)."""
        for _, attribute in self.STATE:
            getattr(self, attribute).fill(0)

    def snapshot(self, prefix: str = "") -> dict[str, np.ndarray]:
        """A private copy of every state array, keyed ``prefix + key``."""
        return {prefix + key: getattr(self, attribute).copy()
                for key, attribute in self.STATE}

    def restore(self, snapshot: dict[str, np.ndarray], prefix: str = "") -> None:
        """Copy a :meth:`snapshot` back in place (shared state stays shared)."""
        for key, attribute in self.STATE:
            getattr(self, attribute)[:] = snapshot[prefix + key]

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

        Vectorised.  ``nodes`` may repeat (ρ usually reduces them first);
        duplicates are resolved exactly as sequential in-order delivery would.
        """
        nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
        mails = np.asarray(mails, dtype=np.float64)
        timestamps = np.asarray(timestamps, dtype=np.float64).reshape(-1)
        if mails.shape != (len(nodes), self.mail_dim):
            raise ValueError(f"mails must have shape ({len(nodes)}, "
                             f"{self.mail_dim}), got {mails.shape}")
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
        """``offsets[i]``: earlier elements of ``nodes`` equal to ``nodes[i]``;
        ``group_counts[i]``: all occurrences of ``nodes[i]``."""
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
        # Duplicates: occurrence j lands in slot (next_slot + j) % num_slots,
        # as sequential delivery would; only the last num_slots occurrences
        # per node survive the ring, so one fancy assignment suffices.
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

        A node's ``i``-th mail ever fills slot ``i`` while ``i < num_slots``;
        later it replaces slot ``r`` if a uniform draw ``r`` in ``[0, i]``
        lands below ``num_slots``.  ``r`` is a pure function of
        ``(seed, node, i)`` (counter-based, like the samplers' per-query
        generators), so a mailbox's contents depend neither on how deliveries
        are batched nor on which process makes them.
        """
        offsets, _ = self._occurrence_offsets(nodes)
        index = self._delivered[nodes] + offsets
        key = _mix64(self._entropy + nodes.astype(np.uint64) * _GOLDEN)
        draws = _mix64(key ^ index.astype(np.uint64)) % (index + 1).astype(np.uint64)
        slots = np.where(index < self.num_slots, index, draws.astype(np.int64))
        # Sequential delivery: of several mails landing in one slot, the
        # last survives.
        accepted = np.flatnonzero(slots < self.num_slots)[::-1]
        _, first = np.unique(nodes[accepted] * self.num_slots + slots[accepted],
                             return_index=True)
        writes = accepted[first]
        write_nodes, write_slots = nodes[writes], slots[writes]
        self.mails[write_nodes, write_slots] = mails[writes]
        self.mail_times[write_nodes, write_slots] = timestamps[writes]
        self.valid[write_nodes, write_slots] = True
        np.add.at(self._delivered, nodes, 1)

    # ------------------------------------------------------------------ #
    def read(self, nodes: np.ndarray,
             sort_by_time: bool = True) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(mails, timestamps, valid)`` of ``nodes``, private copies.

        With ``sort_by_time`` each node's slots run oldest to newest whatever
        their physical position, invalid slots last.
        """
        nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
        if len(nodes) and (nodes.min() < 0 or nodes.max() >= self.num_nodes):
            raise IndexError("node id out of range")
        # A fancy gather copies, so a worker delivering into shared state
        # cannot overwrite what the caller holds.
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

        The storage half of the batched encoder path: one stack over the
        distinct nodes of every group (sources, destinations, negatives),
        and the ``inverse`` map back to the concatenated query order.  A
        node appearing several times in a batch shares one embedding
        (paper §3.2).
        """
        if not node_groups:
            raise ValueError("gather_many requires at least one node group")
        flat = np.concatenate([np.asarray(group, dtype=np.int64).reshape(-1)
                               for group in node_groups])
        nodes, inverse = np.unique(flat, return_inverse=True)
        mails, times, valid = self.read(nodes, sort_by_time=sort_by_time)
        return MailboxGather(nodes=nodes, inverse=inverse.reshape(-1),
                             mails=mails, times=times, valid=valid)

    # ------------------------------------------------------------------ #
    # Shared memory: the serving runtime's key-value store (scorer and
    # propagation workers map the same physical arrays).
    # ------------------------------------------------------------------ #
    @property
    def is_shared(self) -> bool:
        """True while the state arrays live in shared-memory segments."""
        return self._bundle is not None

    def share_memory(self) -> MailboxHandle:
        """Move the state arrays into shared memory; return the attach handle.

        Workers can then :meth:`attach` and deliver mail this process reads
        without copying; this process owns the segments until
        :meth:`release_shared`.  A failed share leaks nothing."""
        if self.is_shared:
            raise RuntimeError("mailbox state is already in shared memory")
        bundle = SharedArrayBundle.create({
            key: (getattr(self, attribute).shape, getattr(self, attribute).dtype)
            for key, attribute in self.STATE})
        for key, attribute in self.STATE:
            bundle[key][:] = getattr(self, attribute)
            setattr(self, attribute, bundle[key])
        self._bundle, self._owner = bundle, True
        return MailboxHandle(bundle.handle(), self.update_policy, self.seed)

    @classmethod
    def attach(cls, handle: MailboxHandle) -> "Mailbox":
        """Map a shared mailbox (worker side): same physical arrays as the
        owner's, and a :meth:`release_shared` that only unmaps."""
        bundle = SharedArrayBundle.attach(handle.bundle)
        mailbox = cls(*bundle["mails"].shape, update_policy=handle.update_policy,
                      seed=handle.seed)
        for key, attribute in cls.STATE:
            setattr(mailbox, attribute, bundle[key])
        mailbox._bundle = bundle
        return mailbox

    def release_shared(self) -> None:
        """Leave shared memory (no-op for a private mailbox).  The owner keeps
        its state in private arrays and unlinks the segments; an attached
        mailbox unmaps without copying and drops its arrays."""
        if self._bundle is None:
            return
        bundle, self._bundle = self._bundle, None
        for _, attribute in self.STATE:
            setattr(self, attribute, None)  # the bundle's views are the last
        bundle.release(keep=self._owner)
        if self._owner:
            for key, attribute in self.STATE:
                setattr(self, attribute, bundle[key])
