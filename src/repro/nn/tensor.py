"""Reverse-mode autograd on numpy arrays.

This is the substrate that replaces PyTorch for this reproduction: a
:class:`Tensor` wrapping a float64 numpy array, recording the operations
applied to it, and computing exact gradients with :meth:`Tensor.backward`.
The op set is exactly what the GNN stack needs — dense algebra,
activations, reductions, indexed gather/scatter — nothing speculative.

Every op computes its value immediately (one numpy call per op) and
records a backward closure when gradients flow. Training and inference
run on the same path, so a checkpoint's bytes depend only on the op
sequence and the BLAS build.

Gradient checks for every op live in ``tests/test_nn_tensor.py``
(hypothesis-driven finite-difference comparisons).
"""

from __future__ import annotations

import contextlib
import math
import threading
from typing import Callable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.exceptions import ModelError

ArrayLike = Union[float, int, Sequence, np.ndarray, "Tensor"]


class _EngineModes(threading.local):
    """The mode flags, one set per thread.

    Serving runs forwards on several threads at once (handler threads
    with batching off, chunked micro-batches across executor workers),
    and a training loop may share the process. Per-thread flags mean one
    thread leaving ``no_grad()`` or ``batch_invariant()`` never changes
    the kernels under another thread's ops. Class attributes are the
    defaults every new thread starts from.
    """

    grad_enabled = True
    batch_invariant = False


_MODES = _EngineModes()


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (inference mode)."""
    previous = _MODES.grad_enabled
    _MODES.grad_enabled = False
    try:
        yield
    finally:
        _MODES.grad_enabled = previous


def is_grad_enabled() -> bool:
    """Whether operations currently record the autograd graph."""
    return _MODES.grad_enabled


@contextlib.contextmanager
def batch_invariant():
    """Context manager selecting batch-invariant matmul kernels.

    BLAS gemm picks different blocking (and therefore different rounding)
    depending on the row count, so row ``i`` of ``A @ W`` can differ in
    the last ulp between a 1-row and an N-row ``A``. Inside this context
    matmuls run through :func:`rowwise_matmul`, whose per-row result is
    independent of every other row — the property the serving layer needs
    so micro-batched inference is bit-identical to single-request
    inference regardless of how requests were coalesced.
    """
    previous = _MODES.batch_invariant
    _MODES.batch_invariant = True
    try:
        yield
    finally:
        _MODES.batch_invariant = previous


def is_batch_invariant() -> bool:
    """Whether matmuls currently use the batch-invariant kernel."""
    return _MODES.batch_invariant


#: Most rows :func:`rowwise_matmul` computes in one pass. Past about 64
#: rows the per-``(row, k)`` inner loops of the reduce cost more than the
#: column loop's two numpy calls per k (crossover measured at 64-96 rows
#: for k in 15-64, j in 2-32).
ONE_PASS_MAX_ROWS = 64


def rowwise_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` via k-ordered accumulation, bit-identical per row.

    Row ``i`` of the result is ``((0 + a[i,0] b[0]) + a[i,1] b[1]) + ...``
    with every product rounded before its add, no matter how many rows
    ``a`` has, so results for a row never depend on the rest of the
    batch. Training keeps BLAS gemm.

    Small inputs form all ``(rows, k, j)`` products in one multiply and
    sum over k in one reduce. In a C-ordered product with ``j >= 2`` the
    k axis is not the contiguous one, so numpy adds in k order exactly
    like :func:`rowwise_matmul_loop`. With ``j == 1`` it is, and numpy
    switches to pairwise summation, so that case, and row counts where
    the loop is faster, run the loop.
    """
    if b.shape[1] == 1 or a.shape[0] > ONE_PASS_MAX_ROWS:
        return rowwise_matmul_loop(a, b)
    products = np.multiply(a[:, :, None], b, order="C")
    return np.add.reduce(products, axis=1, initial=0.0)


def rowwise_matmul_loop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` as one multiply-add per inner-dimension column.

    The reference for :func:`rowwise_matmul`, which calls it where one
    pass would not be faster or would not add in k order.
    """
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.float64)
    for k in range(b.shape[0]):
        out += a[:, k, None] * b[k]
    return out


_SCALAR_TYPES = (int, float, np.integer, np.floating)


def _normalize_exponent(exponent) -> float:
    """Validate a ``**`` exponent: python scalars, numpy scalars, and
    0-d numeric arrays normalize to float; everything else (tensors,
    arrays with dimensions, complex) raises ``TypeError``."""
    if isinstance(exponent, (bool, np.bool_)):
        raise TypeError("tensor exponent must be a real scalar, got bool")
    if isinstance(exponent, _SCALAR_TYPES):
        return float(exponent)
    if (
        isinstance(exponent, np.ndarray)
        and exponent.ndim == 0
        and exponent.dtype.kind in "iuf"
    ):
        return float(exponent)
    raise TypeError(
        "tensor exponent must be a scalar or 0-d numeric array, got "
        f"{type(exponent).__name__}"
    )


def _resolve_reshape(old_shape: Tuple[int, ...], shape) -> Tuple[int, ...]:
    """Resolve a reshape spec (one ``-1`` allowed) against ``old_shape``.

    Raises :class:`ModelError` for a spec that does not fit, instead of
    numpy's ``ValueError``.
    """
    shape = tuple(int(d) for d in shape)
    total = math.prod(old_shape)
    if -1 in shape:
        known = math.prod(d for d in shape if d != -1)
        if shape.count(-1) > 1 or known == 0 or total % known:
            raise ModelError(f"cannot reshape {old_shape} into {shape}")
        shape = tuple(total // known if d == -1 else d for d in shape)
    if math.prod(shape) != total:
        raise ModelError(
            f"cannot reshape {old_shape} (size {total}) into {shape}"
        )
    return shape


class Tensor:
    """A numpy array with reverse-mode automatic differentiation.

    Attributes
    ----------
    data:
        The underlying float64 array.
    grad:
        Accumulated gradient (same shape as ``data``) after
        :meth:`backward`; ``None`` before.
    requires_grad:
        Whether gradients flow into this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data: ArrayLike, requires_grad: bool = False):
        if isinstance(data, Tensor):
            self.data = data.data
        else:
            self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and _MODES.grad_enabled
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        """Array shape."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total element count."""
        return self.data.size

    def numpy(self) -> np.ndarray:
        """A defensive copy of the underlying array."""
        return self.data.copy()

    def item(self) -> float:
        """The scalar value (raises if not 1-element)."""
        if self.size != 1:
            raise ModelError(f"item() on tensor of size {self.size}")
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """A view of the data cut off from the graph."""
        return Tensor(self.data)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = _MODES.grad_enabled and any(
            p.requires_grad for p in parents
        )
        out = Tensor(data)
        out.requires_grad = requires
        if requires:
            out._parents = tuple(p for p in parents if p.requires_grad)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        # Constants (inputs, targets, cached batch features) never take a
        # gradient: nothing reads it, and a cached tensor would carry one
        # from step to step.
        if not self.requires_grad:
            return
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.shape:
            grad = _unbroadcast(grad, self.shape)
        # No defensive copy: backward closures hand over arrays they do
        # not reuse, and accumulation allocates (`self.grad + grad`)
        # rather than mutating, so aliasing a pass-through gradient is
        # safe. Consumers that mutate gradients in place (the clippers
        # in repro.nn.optim) dedup by array identity and fall back to
        # an out-of-place scale for non-writeable views.
        self.grad = grad if self.grad is None else self.grad + grad

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to ones (scalar outputs expect the default).
        """
        if not self.requires_grad:
            raise ModelError("backward() on a tensor without requires_grad")
        my_shape = self.shape
        if grad is None:
            if self.size != 1:
                raise ModelError(
                    "backward() without an explicit gradient requires a "
                    "scalar output"
                )
            grad = np.ones(my_shape, dtype=np.float64)
        else:
            # Copy: the seed gradient may be caller-owned, and
            # _accumulate does not copy.
            grad = np.array(
                grad.data if isinstance(grad, Tensor) else grad,
                dtype=np.float64,
            )
            if grad.shape != my_shape:
                raise ModelError(
                    f"gradient shape {grad.shape} != output shape {my_shape}"
                )

        # Iterative post-order, visiting parents in the same order as
        # the recursive formulation (gradient accumulation order — and
        # therefore bitwise output — depends on it).
        order: List[Tensor] = []
        seen: Set[int] = set()
        stack: List[Tuple["Tensor", bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in reversed(node._parents):
                stack.append((parent, False))
        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = _as_tensor(other)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other._accumulate(grad)

        return Tensor._make(self.data + other.data, (self, other), backward)

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = _as_tensor(other)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other._accumulate(-grad)

        return Tensor._make(self.data - other.data, (self, other), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return _as_tensor(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = _as_tensor(other)
        self_data, other_data = self.data, other.data

        # Each product only for an operand that takes a gradient:
        # _accumulate would drop it otherwise.
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * other_data)
            if other.requires_grad:
                other._accumulate(grad * self_data)

        return Tensor._make(self_data * other_data, (self, other), backward)

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = _as_tensor(other)
        self_data, other_data = self.data, other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / other_data)
            if other.requires_grad:
                other._accumulate(-grad * self_data / other_data**2)

        return Tensor._make(self_data / other_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return _as_tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __pow__(self, exponent) -> "Tensor":
        exponent = _normalize_exponent(exponent)
        self_data = self.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self_data ** (exponent - 1))

        return Tensor._make(self_data**exponent, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = _as_tensor(other)
        if self.ndim != 2 or other.ndim != 2:
            raise ModelError("matmul supports 2-D tensors only")
        self_data, other_data = self.data, other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad @ other_data.T)
            if other.requires_grad:
                other._accumulate(self_data.T @ grad)

        product = (
            rowwise_matmul(self_data, other_data)
            if _MODES.batch_invariant
            else self_data @ other_data
        )
        return Tensor._make(product, (self, other), backward)

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        """Elementwise exponential."""
        result = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * result)

        return Tensor._make(result, (self,), backward)

    def log(self) -> "Tensor":
        """Elementwise natural log."""
        self_data = self.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self_data)

        return Tensor._make(np.log(self_data), (self,), backward)

    def sqrt(self) -> "Tensor":
        """Elementwise square root."""
        result = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / (2.0 * result))

        return Tensor._make(result, (self,), backward)

    def tanh(self) -> "Tensor":
        """Elementwise tanh."""
        result = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - result**2))

        return Tensor._make(result, (self,), backward)

    def sigmoid(self) -> "Tensor":
        """Elementwise logistic sigmoid."""
        result = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * result * (1.0 - result))

        return Tensor._make(result, (self,), backward)

    def relu(self) -> "Tensor":
        """Elementwise ReLU."""
        mask = self.data > 0

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(self.data * mask, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.2) -> "Tensor":
        """Elementwise LeakyReLU (GAT's attention nonlinearity)."""
        mask = self.data > 0
        slope_grad = np.where(mask, 1.0, negative_slope)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * slope_grad)

        return Tensor._make(
            np.where(mask, self.data, negative_slope * self.data),
            (self,),
            backward,
        )

    def abs(self) -> "Tensor":
        """Elementwise absolute value (sign subgradient at 0 is 0)."""
        sign = np.sign(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * sign)

        return Tensor._make(np.abs(self.data), (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (all axes when None)."""
        self_shape = self.data.shape

        def backward(grad: np.ndarray) -> None:
            expanded = _expand_reduced(grad, self_shape, axis, keepdims)
            self._accumulate(expanded)

        return Tensor._make(
            self.data.sum(axis=axis, keepdims=keepdims), (self,), backward
        )

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Mean over ``axis``."""
        self_shape = self.data.shape
        count = (
            self.data.size
            if axis is None
            else np.prod([self_shape[a] for a in _normalize_axes(axis, self.ndim)])
        )

        def backward(grad: np.ndarray) -> None:
            expanded = _expand_reduced(grad, self_shape, axis, keepdims)
            self._accumulate(expanded / count)

        return Tensor._make(
            self.data.mean(axis=axis, keepdims=keepdims), (self,), backward
        )

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Max over ``axis``; gradient splits equally among ties."""
        self_data = self.data
        self_shape = self_data.shape
        result = self_data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            expanded_max = _expand_reduced(
                result if keepdims else np.asarray(result),
                self_shape,
                axis,
                keepdims,
            )
            mask = (self_data == expanded_max).astype(np.float64)
            tie_count = mask.sum(axis=axis, keepdims=True)
            expanded_grad = _expand_reduced(grad, self_shape, axis, keepdims)
            self._accumulate(expanded_grad * mask / tie_count)

        return Tensor._make(result, (self,), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        """Reshape (accepts a tuple or varargs; one ``-1`` allowed)."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        self_shape = self.data.shape
        shape = _resolve_reshape(self_shape, shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(self_shape))

        return Tensor._make(self.data.reshape(shape), (self,), backward)

    def transpose(self) -> "Tensor":
        """2-D transpose."""
        if self.ndim != 2:
            raise ModelError("transpose supports 2-D tensors only")

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.T)

        return Tensor._make(self.data.T, (self,), backward)

    @property
    def T(self) -> "Tensor":
        """Alias for :meth:`transpose`."""
        return self.transpose()

    def __getitem__(self, key) -> "Tensor":
        self_shape = self.data.shape

        def backward(grad: np.ndarray) -> None:
            full = np.zeros(self_shape, dtype=np.float64)
            np.add.at(full, key, grad)
            self._accumulate(full)

        return Tensor._make(self.data[key], (self,), backward)

    # ------------------------------------------------------------------
    # Comparisons (return plain bool arrays; not differentiable).
    # ------------------------------------------------------------------
    def __gt__(self, other: ArrayLike) -> np.ndarray:
        return self.data > _raw(other)

    def __lt__(self, other: ArrayLike) -> np.ndarray:
        return self.data < _raw(other)

    def __ge__(self, other: ArrayLike) -> np.ndarray:
        return self.data >= _raw(other)

    def __le__(self, other: ArrayLike) -> np.ndarray:
        return self.data <= _raw(other)


# ----------------------------------------------------------------------
# Free functions
# ----------------------------------------------------------------------
def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis``."""
    tensors = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, stop)
            tensor._accumulate(grad[tuple(slicer)])

    return Tensor._make(data, tuple(tensors), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis``."""
    tensors = [_as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        pieces = np.split(grad, len(tensors), axis=axis)
        for tensor, piece in zip(tensors, pieces):
            tensor._accumulate(np.squeeze(piece, axis=axis))

    return Tensor._make(data, tuple(tensors), backward)


def where(condition, a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise select: ``condition ? a : b``.

    ``condition`` may be a bool array, anything array-like, or a
    ``Tensor`` (thresholded like ``np.asarray(x, bool)``; not
    differentiable). Gradients propagate through both ``a`` and ``b``,
    masked by the condition.
    """
    a = _as_tensor(a)
    b = _as_tensor(b)
    condition = np.asarray(
        condition.data if isinstance(condition, Tensor) else condition,
        dtype=bool,
    )

    def backward(grad: np.ndarray) -> None:
        a._accumulate(grad * condition)
        b._accumulate(grad * ~condition)

    return Tensor._make(np.where(condition, a.data, b.data), (a, b), backward)


def _as_tensor(value: ArrayLike) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _raw(value: ArrayLike) -> np.ndarray:
    return value.data if isinstance(value, Tensor) else np.asarray(value)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _normalize_axes(axis, ndim: int) -> Tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, (int, np.integer)):
        axis = (int(axis),)
    return tuple(a % ndim for a in axis)


def _expand_reduced(
    grad: np.ndarray, shape: Tuple[int, ...], axis, keepdims: bool
) -> np.ndarray:
    """Broadcast a reduced gradient back to the pre-reduction shape."""
    grad = np.asarray(grad, dtype=np.float64)
    if axis is None:
        return np.broadcast_to(grad.reshape((1,) * len(shape)), shape).copy()
    axes = _normalize_axes(axis, len(shape))
    if not keepdims:
        for a in sorted(axes):
            grad = np.expand_dims(grad, axis=a)
    return np.broadcast_to(grad, shape).copy()
