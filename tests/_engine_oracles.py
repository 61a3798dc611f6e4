"""Per-event and per-node oracles for the propagation and encoder fast paths.

:meth:`repro.core.propagator.MailPropagator._route_mails` routes whole
frontiers with array ops, and :meth:`repro.core.encoder.APANEncoder.encode_many`
encodes a whole mailbox stack at once.  The functions here are the paper's
pseudocode those fast paths replaced: one event (one node) at a time.  They
left ``src/`` and stay here as ground truth (the ``_csr_oracle.py`` idiom):
the equivalence suites inject them into a propagator or encoder instance with
:func:`use_reference_routing` / :func:`use_reference_encoder` and assert that
the production path leaves byte-equal mailboxes and encodes within 1e-9.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.nn import functional as F


def pass_mail(propagator, mail: np.ndarray, hop: int) -> np.ndarray:
    """f — how a mail attenuates as it travels (identity in the paper)."""
    if propagator.mail_passing == "identity":
        return mail
    # time_decay: attenuate by hop count (a simple stand-in for distance decay).
    return mail * float(np.exp(-propagator.time_decay * hop))


def route_mails_reference(propagator, batch, mails: np.ndarray):
    """Per-event routing loop, the paper's pseudocode.

    For every event, the two interacting nodes receive the mail (hop 0);
    then each hop samples the temporal neighbours of the previous frontier,
    skipping nodes already reached by this event's mail.  Returns what
    ``MailPropagator._route_mails`` returns: ``(receivers, mails, times,
    hop_sizes)`` in (event, hop, discovery) order.
    """
    receivers: list[int] = []
    receiver_mails: list[np.ndarray] = []
    receiver_times: list[float] = []
    hop_sizes = [0] * propagator.num_hops

    for index in range(len(batch)):
        mail = mails[index]
        timestamp = float(batch.timestamps[index])
        endpoints = (int(batch.src[index]), int(batch.dst[index]))
        # Hop 0: the two interacting nodes always receive the mail.
        for node in endpoints:
            receivers.append(node)
            receiver_mails.append(mail)
            receiver_times.append(timestamp)
        # Hops 1..k-1: temporal neighbours reached along historical edges.
        frontier = list(endpoints)
        seen = set(endpoints)
        for hop in range(1, propagator.num_hops):
            next_frontier: list[int] = []
            for node in frontier:
                sample = propagator._sampler.sample(node, timestamp)
                for neighbor, valid in zip(sample.neighbors, sample.mask):
                    if not valid:
                        continue
                    neighbor = int(neighbor)
                    if neighbor in seen:
                        continue
                    seen.add(neighbor)
                    next_frontier.append(neighbor)
                    receivers.append(neighbor)
                    receiver_mails.append(pass_mail(propagator, mail, hop))
                    receiver_times.append(timestamp)
                    hop_sizes[hop] += 1
            frontier = next_frontier
            if not frontier:
                break
        hop_sizes[0] += len(endpoints)

    if not receivers:
        return (np.empty(0, dtype=np.int64),
                np.zeros((0, propagator.mailbox.mail_dim)), np.empty(0), hop_sizes)
    return (np.asarray(receivers, dtype=np.int64), np.stack(receiver_mails),
            np.asarray(receiver_times), hop_sizes)


def encode_reference(encoder, last_embeddings, mails: np.ndarray,
                     mail_times: np.ndarray, valid: np.ndarray,
                     current_time: float):
    """Per-node encoder loop: the batch is processed one node at a time.

    Every row runs the ``Tensor`` forward of the same module stack, so
    parameters, gradients and (with dropout inactive) outputs line up with
    ``encode_many``; the per-row attention weights are re-stitched so
    interpretability tooling sees the same ``(N, heads, 1, num_slots)`` array.
    """
    batch_size = last_embeddings.shape[0]
    if batch_size == 0:
        return encoder._encode_tensor(last_embeddings, mails, mail_times,
                                      valid, current_time)
    outputs = []
    weights = []
    for row in range(batch_size):
        outputs.append(encoder._encode_tensor(
            last_embeddings[row:row + 1], mails[row:row + 1],
            mail_times[row:row + 1], valid[row:row + 1], current_time))
        weights.append(encoder.attention.last_attention_weights)
    encoder.attention._last_attention = np.concatenate(weights, axis=0)
    return F.concat(outputs, axis=0)


def use_reference_routing(propagator):
    """Route ``propagator``'s mail through :func:`route_mails_reference`."""
    propagator._route_mails = functools.partial(route_mails_reference, propagator)
    return propagator


def use_reference_encoder(encoder):
    """Encode through :func:`encode_reference` (``forward`` included)."""
    encoder.encode_many = functools.partial(encode_reference, encoder)
    return encoder
