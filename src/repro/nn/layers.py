"""Standard neural network layers used across APAN and the baselines."""

from __future__ import annotations

import numpy as np

from . import functional as F
from . import init
from .module import Module, Parameter
from .tensor import Tensor

__all__ = [
    "Linear",
    "MLP",
    "LayerNorm",
    "Embedding",
    "Dropout",
    "Sequential",
    "GRUCell",
    "TimeEncode",
    "Identity",
]


class Identity(Module):
    """Pass-through layer (used as the paper's identity mail-passing function f)."""

    def forward(self, x: Tensor) -> Tensor:
        return x


class Linear(Module):
    """Affine transform ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x.matmul(self.weight)
        if self.bias is not None:
            out = out + self.bias
        return out


class Dropout(Module):
    """Inverted dropout layer with its own RNG for reproducibility."""

    def __init__(self, rate: float = 0.1, rng: np.random.Generator | None = None):
        super().__init__()
        self.rate = rate
        self._rng = rng if rng is not None else np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.rate, training=self.training, rng=self._rng)


class LayerNorm(Module):
    """Layer normalisation with learnable gain and bias (paper Eq. 5)."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gain = Parameter(np.ones(dim))
        self.bias = Parameter(np.zeros(dim))

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.gain, self.bias, eps=self.eps)


class Sequential(Module):
    """Run child modules in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self._layers = list(layers)
        for index, layer in enumerate(layers):
            setattr(self, f"layer_{index}", layer)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self._layers:
            x = layer(x)
        return x

    def __iter__(self):
        return iter(self._layers)

    def __len__(self) -> int:
        return len(self._layers)


class _ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class MLP(Module):
    """Two(+)-layer feed-forward network with ReLU activations and dropout.

    The paper uses two-layer MLPs with a hidden size of 80 for both the
    encoder head and the decoders.
    """

    def __init__(self, in_features: int, hidden_features: int, out_features: int,
                 num_layers: int = 2, dropout: float = 0.0,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if num_layers < 1:
            raise ValueError("MLP requires at least one layer")
        rng = rng if rng is not None else np.random.default_rng()
        dims: list[int]
        if num_layers == 1:
            dims = [in_features, out_features]
        else:
            dims = [in_features] + [hidden_features] * (num_layers - 1) + [out_features]
        layers: list[Module] = []
        for index in range(num_layers):
            layers.append(Linear(dims[index], dims[index + 1], rng=rng))
            if index < num_layers - 1:
                layers.append(_ReLU())
                if dropout > 0.0:
                    layers.append(Dropout(dropout, rng=rng))
        self.network = Sequential(*layers)
        self.in_features = in_features
        self.out_features = out_features
        self.dropout = dropout

    def forward(self, x: Tensor) -> Tensor:
        return self.network(x)

    def infer(self, x: np.ndarray) -> np.ndarray:
        """:meth:`forward` on a plain ndarray, bit-equal while dropout is inactive."""
        for layer in self.network:
            if isinstance(layer, Linear):  # built above, always with a bias
                x = x @ layer.weight.data + layer.bias.data
            elif isinstance(layer, _ReLU):
                x = x * (x > 0)
        return x


class Embedding(Module):
    """Lookup table used by the positional encoding of the APAN encoder."""

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(init.normal((num_embeddings, embedding_dim), rng, std=0.1))

    def forward(self, indices: np.ndarray) -> Tensor:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.min(initial=0) < 0 or (indices.size and indices.max() >= self.num_embeddings):
            raise IndexError("embedding index out of range")
        flat = self.weight.gather_rows(indices.reshape(-1))
        return flat.reshape(*indices.shape, self.embedding_dim)


class GRUCell(Module):
    """Gated recurrent unit cell, used by the TGN/JODIE/DyRep memory updaters."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.weight_ih = Parameter(init.xavier_uniform((input_size, 3 * hidden_size), rng))
        self.weight_hh = Parameter(init.xavier_uniform((hidden_size, 3 * hidden_size), rng))
        self.bias_ih = Parameter(np.zeros(3 * hidden_size))
        self.bias_hh = Parameter(np.zeros(3 * hidden_size))

    def forward(self, x: Tensor, hidden: Tensor) -> Tensor:
        gates_x = x.matmul(self.weight_ih) + self.bias_ih
        gates_h = hidden.matmul(self.weight_hh) + self.bias_hh
        h = self.hidden_size
        reset = (gates_x[:, :h] + gates_h[:, :h]).sigmoid()
        update = (gates_x[:, h:2 * h] + gates_h[:, h:2 * h]).sigmoid()
        candidate = (gates_x[:, 2 * h:] + reset * gates_h[:, 2 * h:]).tanh()
        ones = Tensor(np.ones_like(update.data))
        return update * hidden + (ones - update) * candidate


class TimeEncode(Module):
    """Bochner-type functional time encoding from TGAT (Xu et al., 2020).

    Maps a scalar time delta to a ``dim``-dimensional vector of cosines with
    learnable frequencies.  The APAN paper lists this as an alternative to the
    learned positional encoding (Section 3.6); both variants are implemented
    and compared in the ablation benchmarks.
    """

    def __init__(self, dim: int):
        super().__init__()
        self.dim = dim
        # Initialisation follows TGAT: geometrically spaced frequencies.
        frequencies = 1.0 / (10.0 ** np.linspace(0, 9, dim))
        self.frequencies = Parameter(frequencies)
        self.phase = Parameter(np.zeros(dim))

    def forward(self, delta_t: np.ndarray) -> Tensor:
        delta_t = np.asarray(delta_t, dtype=np.float64).reshape(-1, 1)
        scaled = Tensor(delta_t) * self.frequencies + self.phase
        return scaled.cos()
