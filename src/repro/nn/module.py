"""Module and Parameter abstractions, mirroring a tiny ``torch.nn``.

Modules own :class:`Parameter` tensors and child modules, and expose the usual
``parameters()`` / ``train()`` / ``eval()`` / ``state_dict()`` interface used
by the trainers, the serving loop and the checkpointing tests.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .tensor import Tensor

__all__ = ["Parameter", "Module"]


class Parameter(Tensor):
    """A tensor that is registered as a learnable parameter of a module."""

    def __init__(self, data, name: str | None = None):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all neural network modules."""

    def __init__(self):
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self.training = True

    # ------------------------------------------------------------------ #
    # Registration — attribute assignment auto-registers parameters and
    # child modules so user code reads like regular Python.
    # ------------------------------------------------------------------ #
    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register non-learnable state saved with the module (e.g. node memory)."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = ""):
        for name, param in self._parameters.items():
            yield f"{prefix}{name}", param
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def parameters(self) -> list[Parameter]:
        return [param for _, param in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total number of learnable scalar parameters."""
        return sum(param.size for param in self.parameters())

    def children(self):
        return iter(self._modules.values())

    def modules(self):
        yield self
        for child in self._modules.values():
            yield from child.modules()

    # ------------------------------------------------------------------ #
    # Training state
    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def state_dict(self, prefix: str = "") -> dict[str, np.ndarray]:
        state: dict[str, np.ndarray] = {}
        for name, param in self._parameters.items():
            state[f"{prefix}{name}"] = param.data.copy()
        for name, buffer in self._buffers.items():
            state[f"{prefix}{name}"] = np.array(buffer, copy=True)
        for child_name, child in self._modules.items():
            state.update(child.state_dict(prefix=f"{prefix}{child_name}."))
        return state

    def load_state_dict(self, state: dict[str, np.ndarray], prefix: str = "") -> None:
        for name, param in self._parameters.items():
            key = f"{prefix}{name}"
            if key not in state:
                raise KeyError(f"missing parameter {key!r} in state dict")
            if state[key].shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {key!r}: "
                    f"expected {param.data.shape}, got {state[key].shape}"
                )
            param.data = state[key].astype(param.data.dtype).copy()
        for name in self._buffers:
            key = f"{prefix}{name}"
            if key in state:
                self._buffers[name] = np.array(state[key], copy=True)
                object.__setattr__(self, name, self._buffers[name])
        for child_name, child in self._modules.items():
            child.load_state_dict(state, prefix=f"{prefix}{child_name}.")

    # ------------------------------------------------------------------ #
    # Call protocol
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
