"""APAN core: mailbox, propagator, encoder, decoders, model, trainer, interpretability."""

from .checkpoint import load_checkpoint, save_checkpoint
from .config import APANConfig
from .decoder import EdgeClassificationDecoder, LinkPredictionDecoder, NodeClassificationDecoder
from .encoder import APANEncoder
from .interfaces import BatchEmbeddings, TemporalEmbeddingModel
from .interpret import MailAttribution, explain_node
from .mailbox import Mailbox, MailboxGather
from .model import APAN
from .propagator import MailPropagator, PropagationReport
from .trainer import LinkPredictionTrainer, TrainingResult

__all__ = [
    "APAN",
    "APANConfig",
    "APANEncoder",
    "Mailbox",
    "MailboxGather",
    "MailPropagator",
    "PropagationReport",
    "LinkPredictionDecoder",
    "EdgeClassificationDecoder",
    "NodeClassificationDecoder",
    "BatchEmbeddings",
    "TemporalEmbeddingModel",
    "LinkPredictionTrainer",
    "TrainingResult",
    "MailAttribution",
    "explain_node",
    "save_checkpoint",
    "load_checkpoint",
]
