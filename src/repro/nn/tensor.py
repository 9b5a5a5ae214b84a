"""Reverse-mode autograd on numpy arrays, with a lazy fused engine.

This is the substrate that replaces PyTorch for this reproduction: a
:class:`Tensor` wrapping a float64 numpy array, recording the operations
applied to it, and computing exact gradients with :meth:`Tensor.backward`.
The op set is exactly what the GNN stack needs — dense algebra,
activations, reductions, indexed gather/scatter — nothing speculative.

Two execution engines share this class:

- the **lazy engine** (default): operators record
  :class:`~repro.nn.lazyir.LazyNode` graphs instead of computing;
  realization happens at sync points (``.data`` / ``.numpy()`` /
  ``.item()`` access, comparisons, ``backward()``), where the scheduler
  in :mod:`repro.nn.realize` fuses elementwise/reduce chains into
  single kernels over arena-recycled temporaries. Autograd records
  gradient formulas as nodes in the *same* graph (``_vjp`` closures),
  so backward passes fuse too and a whole training step realizes in one
  batched execution.
- the **eager engine** (inside :func:`eager`): the original
  op-at-a-time numpy path, kept verbatim as the equivalence oracle and
  used for inference, whose ever-changing batch shapes would give the
  lazy engine a new plan to compile per call.

The two are **bitwise identical** — lazy kernels replay the exact numpy
call sequence of the eager ops (``tests/test_nn_lazy_equivalence.py``
fuzzes this contract). One knowing divergence: the eager path also
materializes ``.grad`` on tensors with ``requires_grad=False`` whose
closures happen to fire; the lazy path skips them (nothing observes
those gradients, and chaining graph nodes onto long-lived constant
tensors — cached training targets, say — would grow without bound).

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
from repro.nn import lazyir
from repro.nn import realize as _realize_mod
from repro.nn.backends.numpy_backend import rowwise_matmul  # noqa: F401
# (re-exported: rowwise_matmul moved to the backend with the other
# kernels; callers keep importing it from here)

ArrayLike = Union[float, int, Sequence, np.ndarray, "Tensor"]


class _EngineModes(threading.local):
    """The engine mode flags, one set per thread.

    Serving runs forwards on several threads at once (handler threads
    with batching off, chunked micro-batches across executor workers),
    and a training loop may share the process. Per-thread flags mean one
    thread leaving ``batch_invariant()`` or ``eager()`` never changes
    the kernels or the engine under another thread's ops. Class
    attributes are the defaults every new thread starts from.
    """

    grad_enabled = True
    batch_invariant = False
    lazy_enabled = True


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

    The lazy engine captures this flag when the matmul is *recorded*,
    not when the graph is realized, matching eager semantics even when
    results are forced after the context exits.
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


@contextlib.contextmanager
def eager():
    """Context manager running ops on the eager engine.

    The eager path computes each op immediately with per-op closures —
    the original implementation, retained as the bitwise oracle for the
    lazy engine and for debugging (values exist as soon as the op runs).
    """
    previous = _MODES.lazy_enabled
    _MODES.lazy_enabled = False
    try:
        yield
    finally:
        _MODES.lazy_enabled = previous


def is_lazy_enabled() -> bool:
    """Whether operations currently record lazy graphs (vs eager)."""
    return _MODES.lazy_enabled


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


class Tensor:
    """A numpy array with reverse-mode automatic differentiation.

    Attributes
    ----------
    data:
        The underlying float64 array. On the lazy engine this is a sync
        point: accessing it realizes the recorded graph.
    grad:
        Accumulated gradient (same shape as ``data``) after
        :meth:`backward`; ``None`` before. Realized lazily on access.
    requires_grad:
        Whether gradients flow into this tensor.
    """

    __slots__ = (
        "_data",
        "_node",
        "_grad",
        "_grad_node",
        "requires_grad",
        "_backward",
        "_vjp",
        "_parents",
    )

    def __init__(self, data: ArrayLike, requires_grad: bool = False):
        if isinstance(data, Tensor):
            self._data = data._data
            self._node = data._node
            if self._data is None and not _MODES.lazy_enabled:
                self._data = data.data
        else:
            self._data = np.asarray(data, dtype=np.float64)
            self._node = None
        self._grad: Optional[np.ndarray] = None
        self._grad_node = None
        self.requires_grad = bool(requires_grad) and _MODES.grad_enabled
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._vjp = None
        self._parents: Tuple["Tensor", ...] = ()

    # ------------------------------------------------------------------
    # Data access (lazy sync points)
    # ------------------------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        """The concrete array; realizes the lazy graph when needed."""
        if self._data is None:
            _realize_mod.realize([self._node])
            self._data = self._node.buffer
        return self._data

    @data.setter
    def data(self, value) -> None:
        self._data = np.asarray(value, dtype=np.float64)
        self._node = None

    @property
    def grad(self) -> Optional[np.ndarray]:
        """Accumulated gradient; realizes a pending lazy chain."""
        if self._grad_node is not None:
            _realize_mod.realize([self._grad_node])
            self._grad = self._grad_node.buffer
            self._grad_node = None
        return self._grad

    @grad.setter
    def grad(self, value) -> None:
        self._grad = value
        self._grad_node = None

    def _lazy_node(self):
        """This tensor's IR node (a buffer wrapper for concrete data)."""
        node = self._node
        if node is None:
            node = lazyir.buffer(self._data)
            self._node = node
        return node

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        """Array shape (known without realizing)."""
        return self._data.shape if self._data is not None else self._node.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return len(self.shape)

    @property
    def size(self) -> int:
        """Total element count."""
        shape = self.shape
        return math.prod(shape) if shape else 1

    def numpy(self) -> np.ndarray:
        """A defensive copy of the underlying array."""
        return self.data.copy()

    def item(self) -> float:
        """The scalar value (raises if not 1-element)."""
        if self.size != 1:
            raise ModelError(f"item() on tensor of size {self.size}")
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """A view of the data cut off from the graph (no realization)."""
        out = Tensor.__new__(Tensor)
        out._data = self._data
        out._node = self._node
        out._grad = None
        out._grad_node = None
        out.requires_grad = False
        out._backward = None
        out._vjp = None
        out._parents = ()
        return out

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self._grad = None
        self._grad_node = None

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
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.shape:
            grad = _unbroadcast(grad, self.shape)
        if self._grad_node is not None:
            # Mixed-engine graph: fold the eager contribution into the
            # pending lazy chain in arrival order.
            self._grad_node = lazyir.alu(
                "add", self._grad_node, lazyir.buffer(grad)
            )
            return
        # No defensive copy: backward closures hand over arrays they do
        # not reuse, and accumulation allocates (`self.grad + grad`)
        # rather than mutating, so aliasing a pass-through gradient is
        # safe. Consumers that mutate gradients in place (the clippers
        # in repro.nn.optim) dedup by array identity and fall back to
        # an out-of-place scale for non-writeable views.
        self._grad = grad if self._grad is None else self._grad + grad

    def _acc_node(self, gnode) -> None:
        """Accumulate a lazy gradient node (lazy-engine _accumulate).

        Deliberately skips tensors without ``requires_grad``: the eager
        closures do write ``.grad`` on such tensors, but nothing reads
        them, and extending node chains onto long-lived constants every
        step would leak graph memory.
        """
        if not self.requires_grad:
            return
        if gnode.shape != self.shape:
            gnode = _unbroadcast_node(gnode, self.shape)
        if self._grad is not None:
            # Seed with the previous backward's realized gradient so the
            # accumulation order matches eager: (old + g1) + g2.
            self._grad_node = lazyir.alu(
                "add", lazyir.buffer(self._grad), gnode
            )
            self._grad = None
        elif self._grad_node is not None:
            self._grad_node = lazyir.alu("add", self._grad_node, gnode)
        else:
            self._grad_node = gnode

    def _pending_grad_node(self):
        if self._grad_node is not None:
            return self._grad_node
        if self._grad is not None:
            return lazyir.buffer(self._grad)
        return None

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to ones (scalar outputs expect the default).
        On the lazy engine the whole pass records gradient nodes, then
        this tensor's value and every leaf gradient realize in a single
        fused execution.
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
            # _accumulate no longer copies.
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
            if node._vjp is not None:
                gnode = node._pending_grad_node()
                if gnode is not None:
                    node._vjp(gnode)
            elif node._backward is not None and node.grad is not None:
                node._backward(node.grad)

        # Batch-realize this tensor's value and all leaf gradients in
        # one plan so forward and backward fuse across the whole step.
        targets = []
        if self._data is None and self._node is not None:
            targets.append(self._node)
        leaves = []
        for node in order:
            if (
                node._vjp is None
                and node._backward is None
                and node.requires_grad
                and node._grad_node is not None
            ):
                leaves.append(node)
                targets.append(node._grad_node)
        if targets:
            _realize_mod.realize(targets)
            if self._data is None and self._node is not None:
                self._data = self._node.buffer
            for node in leaves:
                node._grad = node._grad_node.buffer
                node._grad_node = None

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        if _MODES.lazy_enabled:
            operand, other_t = _lazy_operand(other)
            node = lazyir.alu("add", self._lazy_node(), operand)

            def vjp(g) -> None:
                self._acc_node(g)
                if other_t is not None:
                    other_t._acc_node(g)

            return _lazy_result(node, _parents_of(self, other_t), vjp)

        other = _as_tensor(other)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other._accumulate(grad)

        return Tensor._make(self.data + other.data, (self, other), backward)

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        if _MODES.lazy_enabled:
            operand, other_t = _lazy_operand(other)
            node = lazyir.alu("sub", self._lazy_node(), operand)

            def vjp(g) -> None:
                self._acc_node(g)
                if other_t is not None:
                    other_t._acc_node(lazyir.alu1("neg", g))

            return _lazy_result(node, _parents_of(self, other_t), vjp)

        other = _as_tensor(other)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other._accumulate(-grad)

        return Tensor._make(self.data - other.data, (self, other), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return _as_tensor(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        if _MODES.lazy_enabled:
            operand, other_t = _lazy_operand(other)
            self_node = self._lazy_node()
            node = lazyir.alu("mul", self_node, operand)

            def vjp(g) -> None:
                self._acc_node(lazyir.alu("mul", g, operand))
                if other_t is not None:
                    other_t._acc_node(lazyir.alu("mul", g, self_node))

            return _lazy_result(node, _parents_of(self, other_t), vjp)

        other = _as_tensor(other)
        self_data, other_data = self.data, other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * other_data)
            other._accumulate(grad * self_data)

        return Tensor._make(self_data * other_data, (self, other), backward)

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        if _MODES.lazy_enabled:
            operand, other_t = _lazy_operand(other)
            self_node = self._lazy_node()
            node = lazyir.alu("div", self_node, operand)

            def vjp(g) -> None:
                self._acc_node(lazyir.alu("div", g, operand))
                if other_t is not None:
                    other_node = operand  # a LazyNode when other_t exists
                    other_t._acc_node(
                        lazyir.alu(
                            "div",
                            lazyir.alu("mul", lazyir.alu1("neg", g), self_node),
                            lazyir.alu("pow", other_node, 2.0),
                        )
                    )

            return _lazy_result(node, _parents_of(self, other_t), vjp)

        other = _as_tensor(other)
        self_data, other_data = self.data, other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / other_data)
            other._accumulate(-grad * self_data / other_data**2)

        return Tensor._make(self_data / other_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return _as_tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        if _MODES.lazy_enabled:
            node = lazyir.alu1("neg", self._lazy_node())

            def vjp(g) -> None:
                self._acc_node(lazyir.alu1("neg", g))

            return _lazy_result(node, (self,), vjp)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __pow__(self, exponent) -> "Tensor":
        exponent = _normalize_exponent(exponent)
        if _MODES.lazy_enabled:
            self_node = self._lazy_node()
            node = lazyir.alu("pow", self_node, exponent)

            def vjp(g) -> None:
                self._acc_node(
                    lazyir.alu(
                        "mul",
                        lazyir.alu("mul", g, exponent),
                        lazyir.alu("pow", self_node, exponent - 1),
                    )
                )

            return _lazy_result(node, (self,), vjp)

        self_data = self.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self_data ** (exponent - 1))

        return Tensor._make(self_data**exponent, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = _as_tensor(other)
        if self.ndim != 2 or other.ndim != 2:
            raise ModelError("matmul supports 2-D tensors only")
        if _MODES.lazy_enabled:
            self_node, other_node = self._lazy_node(), other._lazy_node()
            # Batch-invariant mode captured at record time (see
            # batch_invariant()): realizing later must not change kernels.
            node = lazyir.matmul_node(
                self_node, other_node, _MODES.batch_invariant
            )

            def vjp(g) -> None:
                self._acc_node(lazyir.matmul_nt(g, other_node))
                other._acc_node(lazyir.matmul_tn(self_node, g))

            return _lazy_result(node, (self, other), vjp)

        self_data, other_data = self.data, other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad @ other_data.T)
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
        if _MODES.lazy_enabled:
            node = lazyir.alu1("exp", self._lazy_node())

            def vjp(g) -> None:
                self._acc_node(lazyir.alu("mul", g, node))

            return _lazy_result(node, (self,), vjp)

        result = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * result)

        return Tensor._make(result, (self,), backward)

    def log(self) -> "Tensor":
        """Elementwise natural log."""
        if _MODES.lazy_enabled:
            self_node = self._lazy_node()
            node = lazyir.alu1("log", self_node)

            def vjp(g) -> None:
                self._acc_node(lazyir.alu("div", g, self_node))

            return _lazy_result(node, (self,), vjp)

        self_data = self.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self_data)

        return Tensor._make(np.log(self_data), (self,), backward)

    def sqrt(self) -> "Tensor":
        """Elementwise square root."""
        if _MODES.lazy_enabled:
            node = lazyir.alu1("sqrt", self._lazy_node())

            def vjp(g) -> None:
                self._acc_node(
                    lazyir.alu("div", g, lazyir.alu("mul", 2.0, node))
                )

            return _lazy_result(node, (self,), vjp)

        result = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / (2.0 * result))

        return Tensor._make(result, (self,), backward)

    def tanh(self) -> "Tensor":
        """Elementwise tanh."""
        if _MODES.lazy_enabled:
            node = lazyir.alu1("tanh", self._lazy_node())

            def vjp(g) -> None:
                self._acc_node(
                    lazyir.alu(
                        "mul",
                        g,
                        lazyir.alu("sub", 1.0, lazyir.alu("pow", node, 2.0)),
                    )
                )

            return _lazy_result(node, (self,), vjp)

        result = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - result**2))

        return Tensor._make(result, (self,), backward)

    def sigmoid(self) -> "Tensor":
        """Elementwise logistic sigmoid."""
        if _MODES.lazy_enabled:
            self_node = self._lazy_node()
            # Same call sequence as eager: 1 / (1 + exp(-x)).
            node = lazyir.alu(
                "div",
                1.0,
                lazyir.alu(
                    "add", 1.0, lazyir.alu1("exp", lazyir.alu1("neg", self_node))
                ),
            )

            def vjp(g) -> None:
                self._acc_node(
                    lazyir.alu(
                        "mul",
                        lazyir.alu("mul", g, node),
                        lazyir.alu("sub", 1.0, node),
                    )
                )

            return _lazy_result(node, (self,), vjp)

        result = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * result * (1.0 - result))

        return Tensor._make(result, (self,), backward)

    def relu(self) -> "Tensor":
        """Elementwise ReLU."""
        if _MODES.lazy_enabled:
            self_node = self._lazy_node()
            mask = lazyir.alu1("gt0", self_node)
            node = lazyir.alu("mul", self_node, mask)

            def vjp(g) -> None:
                self._acc_node(lazyir.alu("mul", g, mask))

            return _lazy_result(node, (self,), vjp)

        mask = self.data > 0

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(self.data * mask, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.2) -> "Tensor":
        """Elementwise LeakyReLU (GAT's attention nonlinearity)."""
        if _MODES.lazy_enabled:
            self_node = self._lazy_node()
            mask = lazyir.alu1("gt0", self_node)
            slope_grad = lazyir.where_node(mask, 1.0, negative_slope)
            node = lazyir.where_node(
                mask, self_node, lazyir.alu("mul", negative_slope, self_node)
            )

            def vjp(g) -> None:
                self._acc_node(lazyir.alu("mul", g, slope_grad))

            return _lazy_result(node, (self,), vjp)

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
        if _MODES.lazy_enabled:
            self_node = self._lazy_node()
            sign = lazyir.alu1("sign", self_node)
            node = lazyir.alu1("abs", self_node)

            def vjp(g) -> None:
                self._acc_node(lazyir.alu("mul", g, sign))

            return _lazy_result(node, (self,), vjp)

        sign = np.sign(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * sign)

        return Tensor._make(np.abs(self.data), (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (all axes when None)."""
        if _MODES.lazy_enabled:
            self_shape = self.shape
            node = lazyir.reduce_node("sum", self._lazy_node(), axis, keepdims)

            def vjp(g) -> None:
                self._acc_node(_expand_node(g, self_shape, axis))

            return _lazy_result(node, (self,), vjp)

        self_shape = self.data.shape

        def backward(grad: np.ndarray) -> None:
            expanded = _expand_reduced(grad, self_shape, axis, keepdims)
            self._accumulate(expanded)

        return Tensor._make(
            self.data.sum(axis=axis, keepdims=keepdims), (self,), backward
        )

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Mean over ``axis``."""
        if _MODES.lazy_enabled:
            self_shape = self.shape
            count = (
                self.size
                if axis is None
                else np.prod(
                    [self_shape[a] for a in _normalize_axes(axis, self.ndim)]
                )
            )
            node = lazyir.reduce_node("mean", self._lazy_node(), axis, keepdims)

            def vjp(g) -> None:
                self._acc_node(
                    lazyir.alu(
                        "div", _expand_node(g, self_shape, axis), float(count)
                    )
                )

            return _lazy_result(node, (self,), vjp)

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
        if _MODES.lazy_enabled:
            self_node = self._lazy_node()
            self_shape = self.shape
            node = lazyir.reduce_node("max", self_node, axis, keepdims)

            def vjp(g) -> None:
                expanded_max = _expand_node(node, self_shape, axis)
                mask = lazyir.cast_f8(
                    lazyir.alu("eq", self_node, expanded_max)
                )
                tie_count = lazyir.reduce_node("sum", mask, axis, True)
                expanded_grad = _expand_node(g, self_shape, axis)
                self._acc_node(
                    lazyir.alu(
                        "div",
                        lazyir.alu("mul", expanded_grad, mask),
                        tie_count,
                    )
                )

            return _lazy_result(node, (self,), vjp)

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
        """Reshape (accepts a tuple or varargs)."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        if _MODES.lazy_enabled:
            self_shape = self.shape
            resolved = lazyir.resolve_reshape(self_shape, shape)
            node = lazyir.reshape_node(self._lazy_node(), resolved)

            def vjp(g) -> None:
                self._acc_node(lazyir.reshape_node(g, self_shape))

            return _lazy_result(node, (self,), vjp)

        self_shape = self.data.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(self_shape))

        return Tensor._make(self.data.reshape(shape), (self,), backward)

    def transpose(self) -> "Tensor":
        """2-D transpose."""
        if self.ndim != 2:
            raise ModelError("transpose supports 2-D tensors only")
        if _MODES.lazy_enabled:
            node = lazyir.transpose_node(self._lazy_node())

            def vjp(g) -> None:
                self._acc_node(lazyir.transpose_node(g))

            return _lazy_result(node, (self,), vjp)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.T)

        return Tensor._make(self.data.T, (self,), backward)

    @property
    def T(self) -> "Tensor":
        """Alias for :meth:`transpose`."""
        return self.transpose()

    def __getitem__(self, key) -> "Tensor":
        if _MODES.lazy_enabled:
            self_shape = self.shape
            node = lazyir.getitem_node(self._lazy_node(), key)

            def vjp(g) -> None:
                self._acc_node(lazyir.putadd_node(g, key, self_shape))

            return _lazy_result(node, (self,), vjp)

        self_shape = self.data.shape

        def backward(grad: np.ndarray) -> None:
            full = np.zeros(self_shape, dtype=np.float64)
            np.add.at(full, key, grad)
            self._accumulate(full)

        return Tensor._make(self.data[key], (self,), backward)

    # ------------------------------------------------------------------
    # Comparisons (return plain bool arrays; not differentiable).
    # These are lazy sync points: both operands realize.
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
# Lazy construction helpers
# ----------------------------------------------------------------------
def _lazy_result(node, parents: Tuple[Tensor, ...], vjp) -> Tensor:
    """Wrap an IR node as a Tensor, attaching the vjp when grads flow.

    Hot path of every recorded op — branches explicitly over the 1- and
    2-parent cases instead of spinning up generator frames.
    """
    out = Tensor.__new__(Tensor)
    out._data = None
    out._node = node
    out._grad = None
    out._grad_node = None
    out._backward = None
    if _MODES.grad_enabled and parents:
        n = len(parents)
        p0 = parents[0]
        if n == 1:
            if p0.requires_grad:
                out.requires_grad = True
                out._parents = parents
                out._vjp = vjp
                return out
        elif n == 2:
            p1 = parents[1]
            if p0.requires_grad:
                out.requires_grad = True
                out._parents = parents if p1.requires_grad else (p0,)
                out._vjp = vjp
                return out
            if p1.requires_grad:
                out.requires_grad = True
                out._parents = (p1,)
                out._vjp = vjp
                return out
        else:
            keep = tuple(p for p in parents if p.requires_grad)
            if keep:
                out.requires_grad = True
                out._parents = keep
                out._vjp = vjp
                return out
    out.requires_grad = False
    out._parents = ()
    out._vjp = None
    return out


def _lazy_operand(value):
    """Resolve a binary-op operand to ``(node_or_scalar, tensor_or_None)``.

    Python/numpy scalars inline into the op's structural arg (bitwise
    identical to the eager path's 0-d arrays, cheaper to cache); arrays
    and tensors become graph inputs.
    """
    if isinstance(value, Tensor):
        return value._lazy_node(), value
    if isinstance(value, _SCALAR_TYPES) and not isinstance(
        value, (bool, np.bool_)
    ):
        return float(value), None
    tensor = Tensor(value)
    return tensor._lazy_node(), tensor


def _parents_of(self_t: Tensor, other_t: Optional[Tensor]):
    return (self_t,) if other_t is None else (self_t, other_t)


def _unbroadcast_node(g, shape: Tuple[int, ...]):
    """IR mirror of :func:`_unbroadcast` (same reduction sequence)."""
    while len(g.shape) > len(shape):
        g = lazyir.reduce_node("sum", g, 0, False)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = lazyir.reduce_node("sum", g, axis, True)
    if g.shape != shape:
        g = lazyir.reshape_node(g, shape)
    return g


def _expand_node(g, shape: Tuple[int, ...], axis):
    """IR mirror of :func:`_expand_reduced` (reshape + broadcast copy)."""
    rshape = lazyir.reduced_shape(shape, axis, True)
    return lazyir.expand_node(g, rshape, shape)


# ----------------------------------------------------------------------
# Free functions
# ----------------------------------------------------------------------
def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis``."""
    tensors = [_as_tensor(t) for t in tensors]
    if _MODES.lazy_enabled:
        node = lazyir.concat_node([t._lazy_node() for t in tensors], axis)
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)
        out_ndim = len(node.shape)

        def vjp(g) -> None:
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                slicer = [slice(None)] * out_ndim
                slicer[axis] = slice(int(start), int(stop))
                tensor._acc_node(lazyir.getitem_node(g, tuple(slicer)))

        return _lazy_result(node, tuple(tensors), vjp)

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
    if _MODES.lazy_enabled:
        node = lazyir.stack_node([t._lazy_node() for t in tensors], axis)
        out_ndim = len(node.shape)
        norm_axis = axis % out_ndim

        def vjp(g) -> None:
            # Integer indexing == eager's split+squeeze: identical views.
            for i, tensor in enumerate(tensors):
                key = (slice(None),) * norm_axis + (i,)
                tensor._acc_node(lazyir.getitem_node(g, key))

        return _lazy_result(node, tuple(tensors), vjp)

    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        pieces = np.split(grad, len(tensors), axis=axis)
        for tensor, piece in zip(tensors, pieces):
            tensor._accumulate(np.squeeze(piece, axis=axis))

    return Tensor._make(data, tuple(tensors), backward)


def where(condition, a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise select: ``condition ? a : b``.

    ``condition`` may be a bool array, anything array-like, or a
    ``Tensor`` (realized and thresholded like ``np.asarray(x, bool)``;
    not differentiable). Gradients propagate through both ``a`` and
    ``b``, masked by the condition.
    """
    a = _as_tensor(a)
    b = _as_tensor(b)
    condition = np.asarray(
        condition.data if isinstance(condition, Tensor) else condition,
        dtype=bool,
    )
    if _MODES.lazy_enabled:
        cond_node = lazyir.buffer(condition)
        node = lazyir.where_node(cond_node, a._lazy_node(), b._lazy_node())

        def vjp(g) -> None:
            a._acc_node(lazyir.alu("mul", g, cond_node))
            b._acc_node(
                lazyir.alu("mul", g, lazyir.alu1("not", cond_node))
            )

        return _lazy_result(node, (a, b), vjp)

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
