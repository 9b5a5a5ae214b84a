"""Indexed gather/scatter (segment) operations with autograd.

These are the message-passing primitives: ``gather`` pulls node rows out
along edges, the ``segment_*`` reductions push edge messages back into
nodes, and ``segment_softmax`` normalizes attention scores per
destination node (GAT). All operate on 2-D tensors ``(items, features)``
with a 1-D int index mapping items to segments.

Two kernels exist for the scatter-add at the heart of every sum
reduction:

- the **bincount path** (default): the scatter is flattened to one
  ``np.bincount(weights=...)`` call. ``bincount`` accumulates weights
  sequentially in item order — exactly ``np.add.at``'s order — so it is
  **bitwise identical** to the seed kernels while running several times
  faster (``ufunc.at`` dispatches per element);
- the **reference path**: the seed repo's literal ``np.add.at`` kernel,
  kept (like the simulator's ``_apply_mixer_reference``) as the ground
  truth for equivalence tests — enabled via the
  :func:`reference_scatter` context manager.

Segment maxima always use ``np.maximum.at`` (max is exact). Segment ops
compose with the batch-invariant matmul mode in :mod:`repro.nn.tensor`
— they never touch gemm.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

from repro.exceptions import ModelError
from repro.nn.tensor import Tensor, _as_tensor

_REFERENCE_SCATTER = False


@contextmanager
def reference_scatter():
    """Run scatter-adds through the seed ``np.add.at`` kernel.

    The bincount scatter is bitwise identical to ``np.add.at``, so this
    changes speed, never values. Tests use it to assert that identity.
    """
    global _REFERENCE_SCATTER
    previous = _REFERENCE_SCATTER
    _REFERENCE_SCATTER = True
    try:
        yield
    finally:
        _REFERENCE_SCATTER = previous


# ---------------------------------------------------------------------------
# Flattened scatter indices, memoized on index-array identity
# ---------------------------------------------------------------------------
# The bincount scatter flattens ``out[index[i], j] += v[i, j]`` into
# one 1-D bincount over ``index[:, None] * cols + arange(cols)``. That
# flat index is a pure function of ``(index, cols)``, and graph
# topology arrays are immutable by contract once a batch is built — so
# with cached batch assembly the same index objects recur every epoch
# and the flattening can be computed once per array instead of once
# per scatter call. Entries hold the index array itself: the identity
# check is exact and the held reference pins the id against reuse.
_FLAT_INDEX_CACHE: dict = {}
_FLAT_INDEX_CAP = 256
# Serving threads run forwards concurrently; two evicting at once would
# pop the same oldest key and raise KeyError out of a forward.
_FLAT_INDEX_LOCK = threading.Lock()


def flat_scatter_index(index: np.ndarray, cols: int) -> np.ndarray:
    """``(index[:, None] * cols + arange(cols)).ravel()``, memoized."""
    key = (id(index), cols)
    hit = _FLAT_INDEX_CACHE.get(key)
    if hit is not None and hit[0] is index:
        return hit[1]
    flat = (index[:, None] * cols + np.arange(cols)).ravel()
    with _FLAT_INDEX_LOCK:
        if len(_FLAT_INDEX_CACHE) >= _FLAT_INDEX_CAP:
            _FLAT_INDEX_CACHE.pop(next(iter(_FLAT_INDEX_CACHE)))
        _FLAT_INDEX_CACHE[key] = (index, flat)
    return flat


def _check_index(index: np.ndarray, num_items: int) -> np.ndarray:
    index = np.asarray(index, dtype=np.int64)
    if index.ndim != 1:
        raise ModelError(f"index must be 1-D, got shape {index.shape}")
    if index.shape[0] != num_items:
        raise ModelError(
            f"index length {index.shape[0]} != item count {num_items}"
        )
    if index.size and index.min() < 0:
        raise ModelError("negative segment index")
    return index


def _scatter_add(
    shape: tuple, index: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Dense scatter-add: ``out[index[i]] += values[i]`` along axis 0."""
    if _REFERENCE_SCATTER:
        out = np.zeros(shape, dtype=np.float64)
        np.add.at(out, index, values)
        return out
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        return np.bincount(index, weights=values, minlength=shape[0])
    # Flatten trailing dims into independent bins: bincount accumulates
    # weights in item order, matching np.add.at bit for bit. The flat
    # index is memoized per index array, so cached batches pay for the
    # flattening once, not once per step.
    cols = int(np.prod(shape[1:]))
    return np.bincount(
        flat_scatter_index(index, cols),
        weights=values.reshape(-1),
        minlength=shape[0] * cols,
    ).reshape(shape)


def _segment_max_raw(
    data: np.ndarray, index: np.ndarray, num_segments: int
) -> np.ndarray:
    """Per-segment maxima of ``data`` rows; empty segments are ``-inf``."""
    out = np.full(
        (num_segments,) + data.shape[1:], -np.inf, dtype=np.float64
    )
    np.maximum.at(out, index, data)
    return out


def gather(x: Tensor, index: np.ndarray) -> Tensor:
    """Select rows: ``out[i] = x[index[i]]``; backward scatter-adds."""
    x = _as_tensor(x)
    index = np.asarray(index, dtype=np.int64)
    if index.ndim != 1:
        raise ModelError("gather index must be 1-D")
    if index.size and index.max() >= x.shape[0]:
        raise ModelError("gather index out of range")
    x_shape = x.data.shape

    def backward(grad: np.ndarray) -> None:
        x._accumulate(_scatter_add(x_shape, index, grad))

    return Tensor._make(x.data[index], (x,), backward)


def segment_sum(x: Tensor, index: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows into segments: ``out[s] = sum_{i: index[i]=s} x[i]``."""
    x = _as_tensor(x)
    index = _check_index(index, x.shape[0])
    if index.size and index.max() >= num_segments:
        raise ModelError("segment index exceeds num_segments")
    out = _scatter_add((num_segments,) + x.data.shape[1:], index, x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad[index])

    return Tensor._make(out, (x,), backward)


def segment_mean(x: Tensor, index: np.ndarray, num_segments: int) -> Tensor:
    """Mean rows per segment; empty segments yield zeros."""
    x = _as_tensor(x)
    index = _check_index(index, x.shape[0])
    counts = np.bincount(index, minlength=num_segments).astype(np.float64)
    safe = np.maximum(counts, 1.0)
    shape = (num_segments,) + (1,) * (x.ndim - 1)
    total = segment_sum(x, index, num_segments)
    return total * Tensor(1.0 / safe.reshape(shape))


def segment_max(x: Tensor, index: np.ndarray, num_segments: int) -> Tensor:
    """Max rows per segment (GraphSAGE pooling); empty segments yield zeros.

    The gradient splits equally among elements tied at the segment max —
    a valid subgradient that keeps the op deterministic.
    """
    x = _as_tensor(x)
    index = _check_index(index, x.shape[0])
    if index.size and index.max() >= num_segments:
        raise ModelError("segment index exceeds num_segments")
    feature_shape = x.data.shape[1:]
    out = _segment_max_raw(x.data, index, num_segments)
    empty = np.isinf(out)
    out = np.where(empty, 0.0, out)
    x_data = x.data

    def backward(grad: np.ndarray) -> None:
        mask = (x_data == out[index]).astype(np.float64)
        tie_count = _scatter_add(
            (num_segments,) + feature_shape, index, mask
        )
        tie_count = np.maximum(tie_count, 1.0)
        x._accumulate(mask * grad[index] / tie_count[index])

    return Tensor._make(out, (x,), backward)


def segment_softmax(
    scores: Tensor, index: np.ndarray, num_segments: int
) -> Tensor:
    """Softmax of ``scores`` within each segment (GAT attention weights).

    Numerically stabilized by subtracting the per-segment max as a
    *constant* shift — softmax is shift-invariant per segment, so the
    gradient stays exact.
    """
    scores = _as_tensor(scores)
    index = _check_index(index, scores.shape[0])
    max_per_segment = _segment_max_raw(scores.data, index, num_segments)
    max_per_segment = np.where(
        np.isinf(max_per_segment), 0.0, max_per_segment
    )
    shifted = scores - Tensor(max_per_segment[index])
    exps = shifted.exp()
    denom = segment_sum(exps, index, num_segments)
    # Clamp empty-segment denominators (no incoming edges) to 1.
    denom_safe = denom + Tensor((denom.data == 0.0).astype(np.float64))
    return exps * gather(denom_safe ** -1.0, index)


def segment_count(index: np.ndarray, num_segments: int) -> np.ndarray:
    """Number of items per segment (plain numpy; not differentiable)."""
    index = np.asarray(index, dtype=np.int64)
    return np.bincount(index, minlength=num_segments).astype(np.float64)
