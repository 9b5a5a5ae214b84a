"""Unit tests for the lazy engine internals: IR recording, fusion,
plan caching, arena accounting, and profiler counter attribution."""

import threading

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.nn import (
    Tensor,
    eager,
    is_grad_enabled,
    is_lazy_enabled,
    no_grad,
    where,
)
from repro.nn import lazyir
from repro.nn import realize as realize_mod
from repro.nn.realize import clear_plan_cache, counters, plan_cache_size
from repro.nn.tensor import batch_invariant, is_batch_invariant
from repro.profiling import TrainingProfiler


def setup_function(function):
    clear_plan_cache()
    lazyir.clear_cse_table()


class TestRecording:
    def test_ops_record_without_computing(self):
        x = Tensor(np.ones((3, 3)))
        y = (x + 1.0).tanh() * 2.0
        assert y._data is None
        assert y._node is not None
        np.testing.assert_array_equal(
            y.data, np.tanh(np.ones((3, 3)) + 1.0) * 2.0
        )
        assert y._data is not None  # realized and cached

    def test_eager_context_computes_immediately(self):
        assert is_lazy_enabled()
        with eager():
            assert not is_lazy_enabled()
            y = Tensor(np.ones(3)) + 1.0
            assert y._data is not None
        assert is_lazy_enabled()

    def test_cse_dedupes_identical_ops(self):
        x = Tensor(np.arange(4.0))
        a = x + x
        b = x + x
        assert a._node is b._node
        # Different structure is a different node.
        c = x * x
        assert c._node is not a._node

    def test_cse_cleared_at_realize(self):
        x = Tensor(np.arange(4.0))
        a = x + x
        _ = a.data  # realize (sync point)
        b = x + x
        assert b._node is not a._node

    def test_shape_introspection_without_realize(self):
        x = Tensor(np.ones((2, 5)))
        y = (x @ Tensor(np.ones((5, 3)))).sum(axis=0, keepdims=True)
        assert y.shape == (1, 3)
        assert y.ndim == 2
        assert y.size == 3
        assert y._data is None  # shape inference did not realize


class TestModeFlagsPerThread:
    @pytest.mark.parametrize(
        "mode, is_on, inside",
        [
            (batch_invariant, is_batch_invariant, True),
            (eager, is_lazy_enabled, False),
            (no_grad, is_grad_enabled, False),
        ],
    )
    def test_other_thread_leaving_a_mode_keeps_ours(self, mode, is_on, inside):
        # B enters first and leaves while A is inside: with one flag per
        # process, B's exit restored the value B saw on entry under A.
        b_inside, a_inside, b_left = (
            threading.Barrier(2, timeout=10) for _ in range(3)
        )
        seen = {}

        def thread_a():
            b_inside.wait()
            with mode():
                a_inside.wait()
                b_left.wait()
                seen["inside"] = is_on()
            seen["after"] = is_on()

        def thread_b():
            with mode():
                b_inside.wait()
                a_inside.wait()
            b_left.wait()

        threads = [threading.Thread(target=f) for f in (thread_a, thread_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == {"inside": inside, "after": not inside}
        assert is_on() is not inside

    def test_new_thread_starts_from_defaults(self):
        seen = []
        with eager(), batch_invariant(), no_grad():
            thread = threading.Thread(
                target=lambda: seen.append(
                    (is_lazy_enabled(), is_batch_invariant(),
                     is_grad_enabled())
                )
            )
            thread.start()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert seen == [(True, False, True)]


class TestFusion:
    def test_elementwise_chain_fuses_into_one_kernel(self):
        x = Tensor(np.random.default_rng(0).normal(size=(64, 64)))
        before_kernels, before_ops = counters.kernels, counters.ops
        y = ((x * 2.0 + 1.0).tanh() - 0.5).sum()
        _ = y.data
        assert counters.kernels - before_kernels == 1
        assert counters.ops - before_ops == 5

    def test_views_are_views_not_kernels(self):
        x = Tensor(np.arange(12.0).reshape(3, 4))
        before = counters.kernels
        transposed = x.T
        base = transposed.data
        assert counters.kernels == before  # a view step, not a kernel
        assert np.shares_memory(base, x.data)

    def test_multi_consumer_node_is_materialized_once(self):
        x = Tensor(np.random.default_rng(1).normal(size=(8, 8)))
        shared = (x * 3.0).tanh()
        a = shared + 1.0
        b = shared * 2.0
        before = counters.ops
        realize_mod.realize([a._node, b._node])
        # shared chain (mul, tanh) computed once, plus one op per branch
        assert counters.ops - before == 4

    def test_scalar_inlining_matches_eager_bits(self):
        data = np.random.default_rng(2).normal(size=(16, 16))
        lazy = ((Tensor(data) * 1.7 + 0.3) / 2.9).data
        with eager():
            ref = ((Tensor(data) * 1.7 + 0.3) / 2.9).data
        np.testing.assert_array_equal(lazy, ref)


class TestPlanCache:
    def test_same_structure_hits_cache(self):
        def build(values):
            return ((Tensor(values) * 2.0).tanh() + 1.0).data

        values = np.random.default_rng(3).normal(size=(10, 4))
        build(values)
        hits, misses = counters.plan_hits, counters.plan_misses
        build(values + 1.0)  # same structure, different values
        assert counters.plan_hits == hits + 1
        assert counters.plan_misses == misses

    def test_different_scalar_is_different_plan(self):
        values = np.random.default_rng(4).normal(size=(4,))
        _ = (Tensor(values) * 2.0).data
        misses = counters.plan_misses
        _ = (Tensor(values) * 3.0).data  # different inlined constant
        assert counters.plan_misses == misses + 1

    def test_boolean_mask_getitem_bypasses_cache(self):
        values = np.arange(6.0)
        mask = values > 2.0
        size = plan_cache_size()
        out = Tensor(values)[mask].data
        np.testing.assert_array_equal(out, values[mask])
        assert plan_cache_size() == size  # uncacheable graph not stored

    def test_clear_plan_cache(self):
        _ = (Tensor(np.ones(3)) + 1.0).data
        assert plan_cache_size() > 0
        clear_plan_cache()
        assert plan_cache_size() == 0


class TestArenaAccounting:
    def test_cur_bytes_returns_to_baseline(self):
        baseline = counters.cur_bytes
        x = Tensor(np.random.default_rng(5).normal(size=(32, 32)))
        _ = ((x * 2.0).tanh() + 1.0).sum().data
        assert counters.cur_bytes == baseline

    def test_peak_bytes_tracks_temporaries(self):
        counters.push_mark()
        x = Tensor(np.random.default_rng(6).normal(size=(64, 64)))
        _ = (x * 2.0 + 1.0).data
        peak = counters.pop_mark()
        # One fused temporary (the escaping result buffer) at minimum.
        assert peak >= 64 * 64 * 8


class TestProfilerIntegration:
    def test_phase_attributes_engine_counters(self):
        profiler = TrainingProfiler()
        x = Tensor(np.random.default_rng(7).normal(size=(16, 16)))
        with profiler.phase("forward"):
            _ = ((x * 2.0).tanh() + 1.0).data
        report = profiler.report()
        phase_counters = report["phases"]["forward"]["counters"]
        assert phase_counters["kernels"] >= 1
        assert phase_counters["realizes"] >= 1
        assert phase_counters["peak_temp_bytes"] > 0
        assert "forward" in profiler.format_report()


class TestSatelliteRegressions:
    def test_where_accepts_tensor_condition(self):
        cond = Tensor(np.array([1.0, 0.0, 2.0]))
        a = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        b = Tensor(np.array([10.0, 20.0, 30.0]), requires_grad=True)
        out = where(cond, a, b)
        np.testing.assert_array_equal(out.data, [1.0, 20.0, 3.0])
        out.sum().backward()
        np.testing.assert_array_equal(a.grad, [1.0, 0.0, 1.0])
        np.testing.assert_array_equal(b.grad, [0.0, 1.0, 0.0])

    def test_where_tensor_condition_matches_eager(self):
        rng = np.random.default_rng(8)
        cond_values = rng.normal(size=(5, 3))
        a_values = rng.normal(size=(5, 3))
        b_values = rng.normal(size=(5, 3))

        def run():
            a = Tensor(a_values, requires_grad=True)
            b = Tensor(b_values, requires_grad=True)
            out = where(Tensor(cond_values) > 0.0, a, b)
            out.sum().backward()
            return out.data.copy(), a.grad.copy(), b.grad.copy()

        lazy = run()
        with eager():
            ref = run()
        for got, want in zip(lazy, ref):
            np.testing.assert_array_equal(got, want)

    def test_comparisons_accept_tensor_operands(self):
        a = Tensor(np.array([1.0, 5.0]))
        b = Tensor(np.array([3.0, 3.0]))
        np.testing.assert_array_equal(a > b, [False, True])
        np.testing.assert_array_equal(a < b, [True, False])
        np.testing.assert_array_equal(a >= b, [False, True])
        np.testing.assert_array_equal(a <= b, [True, False])

    def test_data_setter_invalidates_node(self):
        x = Tensor(np.zeros(3))
        y = x + 1.0
        x.data = np.ones(3)
        assert x._node is None
        # y recorded against the old buffer; already-recorded graphs
        # keep their input binding.
        np.testing.assert_array_equal(y.data, np.ones(3))

    def test_detach_shares_lazy_node(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x * 2.0
        d = y.detach()
        assert d._node is y._node
        assert not d.requires_grad
        np.testing.assert_array_equal(d.data, np.full(3, 2.0))

    def test_reshape_minus_one_and_errors(self):
        x = Tensor(np.arange(12.0))
        assert x.reshape(3, -1).shape == (3, 4)
        try:
            x.reshape(5, -1)
        except ModelError:
            pass
        else:  # pragma: no cover
            raise AssertionError("expected ModelError")

    def test_backward_realizes_loss_and_grads_in_one_plan(self):
        x = Tensor(np.random.default_rng(9).normal(size=(6, 6)),
                   requires_grad=True)
        loss = (x.tanh() * 2.0).sum()
        before = counters.realizes
        loss.backward()
        assert counters.realizes - before == 1  # single batched realize
        assert loss._data is not None
        assert x._grad is not None
