"""Reverse-mode automatic differentiation over NumPy arrays.

This module is the foundation of the ``repro.nn`` package.  The original APAN
implementation relies on PyTorch; this environment has no deep learning
framework installed, so we provide a small but complete tape-based autograd
engine.  It supports every operation the APAN model and its baselines need:
broadcasting arithmetic, matrix multiplication, softmax, layer normalisation,
dropout, embedding lookups, slicing, concatenation and the usual reductions.

Design notes
------------
* A :class:`Tensor` wraps a ``numpy.ndarray`` (always ``float64`` unless the
  caller supplies another dtype) plus an optional gradient buffer and a
  backward closure.
* The graph is built eagerly as operations execute.  Calling
  :meth:`Tensor.backward` runs a topological sort of the recorded graph and
  accumulates gradients into every tensor created with ``requires_grad=True``.
* Broadcasting is handled by :func:`unbroadcast`, which sums gradients along
  broadcast dimensions so shapes always match the forward operands.
* Gradient correctness for every primitive is verified against central finite
  differences in ``tests/nn/test_autograd.py``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "unbroadcast"]


_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables graph construction.

    Used by the evaluators and by the online serving loop, where we only
    run forward passes and do not want to pay the cost of recording a tape.
    """

    def __enter__(self):
        global _GRAD_ENABLED
        self._previous = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._previous
        return False


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradients."""
    return _GRAD_ENABLED


def unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce ``grad`` so that it matches ``shape``.

    NumPy broadcasting may have expanded an operand along new leading axes or
    along axes of size one; the corresponding gradient must be summed over
    those axes to match the original operand's shape.
    """
    if grad.shape == shape:
        return grad
    # Sum over extra leading dimensions added by broadcasting.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over dimensions that were of size 1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(data) -> np.ndarray:
    if isinstance(data, np.ndarray):
        if data.dtype.kind in "fc":
            return data
        return data.astype(np.float64)
    return np.asarray(data, dtype=np.float64)


class Tensor:
    """A NumPy-backed tensor with reverse-mode autodiff support."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: np.ndarray | None = None
        self._backward = None
        self._parents: tuple = ()
        self.name = name

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def zeros(*shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    @staticmethod
    def ensure(value) -> "Tensor":
        """Coerce ``value`` to a :class:`Tensor` (no-op if it already is one)."""
        return value if isinstance(value, Tensor) else Tensor(value)

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------ #
    # Graph plumbing
    # ------------------------------------------------------------------ #
    def _make_result(self, data: np.ndarray, parents: tuple, backward) -> "Tensor":
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
        else:
            self.grad = self.grad + grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without a gradient requires a scalar output")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        # Topological sort of the dynamic graph rooted at ``self``.
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is None or node.grad is None:
                continue
            node._backward(node.grad)

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other) -> "Tensor":
        other = Tensor.ensure(other)
        out_data = self.data + other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(unbroadcast(grad, other.shape))

        return self._make_result(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad):
            if self.requires_grad:
                self._accumulate(-grad)

        return self._make_result(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-Tensor.ensure(other))

    def __rsub__(self, other) -> "Tensor":
        return Tensor.ensure(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = Tensor.ensure(other)
        out_data = self.data * other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(unbroadcast(grad * self.data, other.shape))

        return self._make_result(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = Tensor.ensure(other)
        out_data = self.data / other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    unbroadcast(-grad * self.data / (other.data ** 2), other.shape)
                )

        return self._make_result(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor.ensure(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make_result(out_data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other) -> "Tensor":
        other = Tensor.ensure(other)
        out_data = self.data @ other.data

        def backward(grad):
            if self.requires_grad:
                if other.data.ndim == 1:
                    grad_self = np.outer(grad, other.data) if self.data.ndim == 2 else grad * other.data
                else:
                    grad_self = grad @ np.swapaxes(other.data, -1, -2)
                self._accumulate(unbroadcast(grad_self, self.shape))
            if other.requires_grad:
                if self.data.ndim == 1:
                    grad_other = np.outer(self.data, grad) if other.data.ndim == 2 else self.data * grad
                else:
                    grad_other = np.swapaxes(self.data, -1, -2) @ grad
                other._accumulate(unbroadcast(grad_other, other.shape))

        return self._make_result(out_data, (self, other), backward)

    # ------------------------------------------------------------------ #
    # Elementwise nonlinearities
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return self._make_result(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return self._make_result(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * mask)

        return self._make_result(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return self._make_result(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data ** 2))

        return self._make_result(out_data, (self,), backward)

    def cos(self) -> "Tensor":
        out_data = np.cos(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(-grad * np.sin(self.data))

        return self._make_result(out_data, (self,), backward)

    def sin(self) -> "Tensor":
        out_data = np.sin(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * np.cos(self.data))

        return self._make_result(out_data, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.2) -> "Tensor":
        mask = self.data > 0
        scale = np.where(mask, 1.0, negative_slope)
        out_data = self.data * scale

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * scale)

        return self._make_result(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            if not self.requires_grad:
                return
            grad = np.asarray(grad)
            if axis is None:
                self._accumulate(np.broadcast_to(grad, self.shape).copy())
                return
            if not keepdims:
                grad = np.expand_dims(grad, axis=axis)
            self._accumulate(np.broadcast_to(grad, self.shape).copy())

        return self._make_result(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = 1
            for ax in axes:
                count *= self.shape[ax]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad):
            if not self.requires_grad:
                return
            grad = np.asarray(grad)
            if axis is None:
                mask = (self.data == out_data).astype(self.data.dtype)
                self._accumulate(mask * grad / mask.sum())
                return
            expanded = out_data if keepdims else np.expand_dims(out_data, axis=axis)
            grad_expanded = grad if keepdims else np.expand_dims(grad, axis=axis)
            mask = (self.data == expanded).astype(self.data.dtype)
            counts = mask.sum(axis=axis, keepdims=True)
            self._accumulate(mask * grad_expanded / counts)

        return self._make_result(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original_shape = self.shape

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad.reshape(original_shape))

        return self._make_result(out_data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out_data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return self._make_result(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad):
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full)

        return self._make_result(out_data, (self,), backward)

    def gather_rows(self, indices) -> "Tensor":
        """Row lookup (``self[indices]``) with scatter-add backward.

        Used for embedding tables and for reading node-state matrices; the
        indices may contain duplicates, which the backward pass accumulates.
        """
        indices = np.asarray(indices, dtype=np.int64)
        out_data = self.data[indices]

        def backward(grad):
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, indices, grad)
                self._accumulate(full)

        return self._make_result(out_data, (self,), backward)

    def squeeze(self, axis=None) -> "Tensor":
        out_data = self.data.squeeze(axis=axis)
        original_shape = self.shape

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad.reshape(original_shape))

        return self._make_result(out_data, (self,), backward)

    def unsqueeze(self, axis: int) -> "Tensor":
        out_data = np.expand_dims(self.data, axis=axis)
        original_shape = self.shape

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad.reshape(original_shape))

        return self._make_result(out_data, (self,), backward)
