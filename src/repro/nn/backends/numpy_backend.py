"""Reference numpy kernels for the lazy tensor engine.

Every kernel replays the *exact* numpy call the eager path makes for
the same op — same ufunc, same operand order, same scalar handling —
which is what upholds the bitwise eager-vs-lazy equivalence contract
(``tests/test_nn_lazy_equivalence.py``). Two deliberate details:

- Elementwise ufuncs write into scheduler-provided output buffers
  (``out=``). A ufunc's inner loop is identical with and without
  ``out=``, so reusing plan-owned buffers changes allocation, never
  bits.
- ``pow`` uses the python ``**`` operator rather than ``np.power``:
  ndarray ``**`` fast-paths exponents like ``2`` and ``-1.0`` through
  ``np.square`` / ``np.reciprocal``, whose results can differ in the
  last ulp from the generic ``pow`` loop. The eager path goes through
  ``**``, so the kernel must too.

``build_instr`` compiles one :class:`~repro.nn.lazyir.LazyNode` into a
closure ``run(V)`` over the plan's flat value-slot list ``V``; source
and output positions are baked in as integer indices, so the executor's
only per-call work is the closure call itself. ``build_view`` compiles
view nodes into stride tricks. This module is the reference
implementation of the backend seam (:mod:`repro.nn.backends`).
"""

from __future__ import annotations

import threading

import numpy as np

from repro.nn.lazyir import thaw_key


def rowwise_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` via k-ordered outer-product accumulation.

    Each output row is built by the same fixed-order sequence of fused
    multiply-adds no matter how many rows ``a`` has, so results for a row
    never depend on the rest of the batch. Intended for the small inner
    dimensions of inference (k <= 64); training keeps BLAS gemm.
    """
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.float64)
    for k in range(b.shape[0]):
        out += a[:, k, None] * b[k]
    return out


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


_BINARY_UFUNCS = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.true_divide,
    "maximum": np.maximum,
    "eq": np.equal,
}

_UNARY_UFUNCS = {
    "neg": np.negative,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "tanh": np.tanh,
    "abs": np.absolute,
    "sign": np.sign,
    "isinf": np.isinf,
    "not": np.invert,
}


def build_view(node):
    """Compile a VIEW node into ``fn(src_array) -> view``."""
    op = node.op
    if op == "transpose":
        return lambda a: a.T
    if op == "reshape":
        shape = node.arg
        return lambda a: a.reshape(shape)
    if op == "getitem":
        key = thaw_key(node.arg)
        return lambda a: a[key]
    raise AssertionError(f"not a view op: {op}")  # pragma: no cover


def build_instr(node, srcs, oi):
    """Compile one op node into ``(run, mode)``.

    ``srcs`` are the value-slot indices of ``node.srcs`` in the plan's
    flat slot list ``V``; ``oi`` is the output slot. ``mode`` is
    ``"out"`` when ``run`` writes into a scheduler-provided ``V[oi]``
    buffer or ``"set"`` when the kernel allocates its own result and
    assigns the slot.
    """
    op, arg = node.op, node.arg

    if op in _BINARY_UFUNCS:
        ufunc = _BINARY_UFUNCS[op]
        if arg is None:
            ia, ib = srcs

            def run(V):
                ufunc(V[ia], V[ib], out=V[oi])

        elif arg[0] == "sr":
            ia, const = srcs[0], arg[1]

            def run(V):
                ufunc(V[ia], const, out=V[oi])

        else:  # scalar-left
            ib, const = srcs[0], arg[1]

            def run(V):
                ufunc(const, V[ib], out=V[oi])

        return run, "out"

    if op in _UNARY_UFUNCS:
        ufunc, ia = _UNARY_UFUNCS[op], srcs[0]

        def run(V):
            ufunc(V[ia], out=V[oi])

        return run, "out"

    if op == "pow":
        # Always scalar exponent (the tensor layer rejects the rest);
        # "set" mode so the ** fast paths stay on the eager codepath.
        ia, exponent = srcs[0], arg[1]

        def run(V):
            V[oi] = V[ia] ** exponent

        return run, "set"

    if op == "gt0":
        ia = srcs[0]

        def run(V):
            np.greater(V[ia], 0, out=V[oi])

        return run, "out"

    if op == "cast":
        ia = srcs[0]

        def run(V):
            np.copyto(V[oi], V[ia])

        return run, "out"

    if op == "expand":
        ia = srcs[0]
        rshape, tshape = arg

        def run(V):
            np.copyto(V[oi], np.broadcast_to(V[ia].reshape(rshape), tshape))

        return run, "out"

    if op == "where":
        _, const_a, const_b = arg
        rest = list(srcs[1:])
        ic = srcs[0]
        ia = rest.pop(0) if const_a is None else None
        ib = rest.pop(0) if const_b is None else None

        def run(V):
            a = const_a if ia is None else V[ia]
            b = const_b if ib is None else V[ib]
            V[oi] = np.where(V[ic], a, b)

        return run, "set"

    if op in ("sum", "mean", "max"):
        # Reductions write into the preallocated output: ndarray.sum /
        # mean / max with ``out=`` run the same ``ufunc.reduce`` inner
        # loop as the allocating call, so the bits don't change — only
        # the per-call temporary goes away.
        ia = srcs[0]
        axis, keepdims = arg
        method = {"sum": "sum", "mean": "mean", "max": "max"}[op]

        def run(V):
            getattr(V[ia], method)(axis=axis, keepdims=keepdims, out=V[oi])

        return run, "out"

    if op == "matmul":
        ia, ib = srcs
        if arg:  # batch-invariant flag captured at record time

            def run(V):
                V[oi] = rowwise_matmul(V[ia], V[ib])

            return run, "set"

        # np.matmul(out=) dispatches the identical gemm call as ``@``.
        def run(V):
            np.matmul(V[ia], V[ib], out=V[oi])

        return run, "out"

    if op == "matmul_nt":
        ia, ib = srcs

        def run(V):
            np.matmul(V[ia], V[ib].T, out=V[oi])

        return run, "out"

    if op == "matmul_tn":
        ia, ib = srcs

        def run(V):
            np.matmul(V[ia].T, V[ib], out=V[oi])

        return run, "out"

    if op == "getitem_arr":
        # Row gather via np.take(out=): a pure index copy, bitwise
        # identical to ``a[index]``, without the per-call result array.
        # mode="clip" skips the buffered bounds-checking path (2-3x
        # slower with ``out=``); the tensor layer validated the index
        # at record time, so clipping never actually fires.
        ia, ii = srcs

        def run(V):
            np.take(V[ia], V[ii], axis=0, out=V[oi], mode="clip")

        return run, "out"

    if op == "getitem_obj":
        ia, key = srcs[0], arg[1]

        def run(V):
            V[oi] = V[ia][key]

        return run, "set"

    if op == "putadd":
        # ``fill(0)`` then ``add.at`` into the preallocated output —
        # same zeros, same accumulation order as the allocating form.
        mode = arg[0]
        if mode == "arr":
            ig, ii = srcs

            def run(V):
                out = V[oi]
                out.fill(0.0)
                np.add.at(out, V[ii], V[ig])

        else:  # "basic" / "obj"
            ig = srcs[0]
            key = thaw_key(arg[1]) if mode == "basic" else arg[1]

            def run(V):
                out = V[oi]
                out.fill(0.0)
                np.add.at(out, key, V[ig])

        return run, "out"

    if op == "concat":
        axis = arg

        def run(V):
            np.concatenate([V[i] for i in srcs], axis=axis, out=V[oi])

        return run, "out"

    if op == "stack":
        axis = arg

        def run(V):
            V[oi] = np.stack([V[i] for i in srcs], axis=axis)

        return run, "set"

    if op == "scatter_add":
        return _build_scatter_add(arg, srcs, oi)

    if op == "segmax_raw":
        return _build_segmax_raw(arg, srcs, oi)

    raise AssertionError(f"no kernel for op: {op}")  # pragma: no cover


def _csr_srcs(arg, srcs):
    """Split CSR operand slots: (values, perm-or-None, nonempty, starts)."""
    if arg[1]:  # has explicit permutation
        return srcs[0], srcs[1], srcs[2], srcs[3]
    return srcs[0], None, srcs[1], srcs[2]


def _build_scatter_add(arg, srcs, oi):
    mode = arg[0]
    if mode == "csr":
        iv, ip, inz, ist = _csr_srcs(arg, srcs)

        def run(V):
            values = V[iv]
            out = V[oi]
            out.fill(0.0)
            nonempty = V[inz]
            if nonempty.size:
                ordered = values if ip is None else values[V[ip]]
                out[nonempty] = np.add.reduceat(ordered, V[ist], axis=0)

        return run, "out"

    iv, ii = srcs
    shape = arg[1]
    if mode == "ref":

        def run(V):
            out = V[oi]
            out.fill(0.0)
            np.add.at(out, V[ii], V[iv])

        return run, "out"

    # bincount path: flatten trailing dims into independent bins
    # (bitwise identical to np.add.at; see segment._scatter_add).
    # bincount allocates its result internally, so this stays "set".
    if len(shape) == 1:

        def run(V):
            V[oi] = np.bincount(V[ii], weights=V[iv], minlength=shape[0])

        return run, "set"

    cols = int(np.prod(shape[1:]))
    minlength = shape[0] * cols

    def run(V):
        V[oi] = np.bincount(
            flat_scatter_index(V[ii], cols),
            weights=V[iv].reshape(-1),
            minlength=minlength,
        ).reshape(shape)

    return run, "set"


def _build_segmax_raw(arg, srcs, oi):
    mode = arg[0]
    if mode == "csr":
        iv, ip, inz, ist = _csr_srcs(arg, srcs)

        def run(V):
            values = V[iv]
            out = V[oi]
            out.fill(-np.inf)
            nonempty = V[inz]
            if nonempty.size:
                ordered = values if ip is None else values[V[ip]]
                out[nonempty] = np.maximum.reduceat(ordered, V[ist], axis=0)

        return run, "out"

    iv, ii = srcs

    def run(V):
        out = V[oi]
        out.fill(-np.inf)
        np.maximum.at(out, V[ii], V[iv])

    return run, "out"
