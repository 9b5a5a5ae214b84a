"""Tests for segment (gather/scatter) operations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ModelError
from repro.nn.segment import (
    _scatter_add,
    gather,
    reference_scatter,
    segment_count,
    segment_max,
    segment_mean,
    segment_softmax,
    segment_sum,
)
from repro.nn.tensor import Tensor

from tests.test_nn_tensor import numeric_gradient


class TestGather:
    def test_forward(self):
        x = Tensor(np.arange(12.0).reshape(4, 3))
        out = gather(x, np.array([2, 0, 2]))
        np.testing.assert_allclose(out.data[0], [6, 7, 8])
        np.testing.assert_allclose(out.data[2], [6, 7, 8])

    def test_backward_scatter_adds(self):
        x = Tensor(np.zeros((3, 2)), requires_grad=True)
        gather(x, np.array([1, 1, 0])).sum().backward()
        np.testing.assert_allclose(x.grad, [[1, 1], [2, 2], [0, 0]])

    def test_index_validation(self):
        x = Tensor(np.zeros((3, 2)))
        with pytest.raises(ModelError):
            gather(x, np.array([3]))
        with pytest.raises(ModelError):
            gather(x, np.array([[0, 1]]))


class TestSegmentSum:
    def test_forward(self):
        x = Tensor(np.array([[1.0], [2.0], [3.0]]))
        out = segment_sum(x, np.array([0, 1, 0]), 2)
        np.testing.assert_allclose(out.data, [[4.0], [2.0]])

    def test_empty_segment_zero(self):
        x = Tensor(np.array([[1.0]]))
        out = segment_sum(x, np.array([2]), 4)
        np.testing.assert_allclose(out.data[:2], 0.0)

    def test_backward(self):
        data = np.random.default_rng(0).normal(size=(5, 3))
        index = np.array([0, 1, 0, 2, 1])

        def build(x):
            return (segment_sum(x, index, 3) ** 2.0).sum()

        x = Tensor(data.copy(), requires_grad=True)
        build(x).backward()
        numeric = numeric_gradient(lambda arr: build(Tensor(arr)).item(), data)
        np.testing.assert_allclose(x.grad, numeric, atol=1e-5)

    def test_index_bounds(self):
        x = Tensor(np.ones((2, 1)))
        with pytest.raises(ModelError):
            segment_sum(x, np.array([0, 5]), 3)
        with pytest.raises(ModelError):
            segment_sum(x, np.array([0, -1]), 3)
        with pytest.raises(ModelError):
            segment_sum(x, np.array([0]), 3)  # length mismatch


class TestSegmentMean:
    def test_forward(self):
        x = Tensor(np.array([[2.0], [4.0], [6.0]]))
        out = segment_mean(x, np.array([0, 0, 1]), 2)
        np.testing.assert_allclose(out.data, [[3.0], [6.0]])

    def test_empty_segment_zero(self):
        x = Tensor(np.array([[2.0]]))
        out = segment_mean(x, np.array([1]), 3)
        np.testing.assert_allclose(out.data[0], 0.0)
        np.testing.assert_allclose(out.data[2], 0.0)

    def test_backward(self):
        data = np.random.default_rng(1).normal(size=(5, 2))
        index = np.array([0, 1, 0, 0, 1])

        def build(x):
            return (segment_mean(x, index, 2) ** 2.0).sum()

        x = Tensor(data.copy(), requires_grad=True)
        build(x).backward()
        numeric = numeric_gradient(lambda arr: build(Tensor(arr)).item(), data)
        np.testing.assert_allclose(x.grad, numeric, atol=1e-5)


class TestSegmentMax:
    def test_forward(self):
        x = Tensor(np.array([[1.0, 5.0], [3.0, 2.0], [0.0, 9.0]]))
        out = segment_max(x, np.array([0, 0, 1]), 2)
        np.testing.assert_allclose(out.data, [[3.0, 5.0], [0.0, 9.0]])

    def test_empty_segment_zero(self):
        x = Tensor(np.array([[1.0]]))
        out = segment_max(x, np.array([0]), 2)
        assert out.data[1, 0] == 0.0

    def test_backward_routes_to_max(self):
        x = Tensor(np.array([[1.0], [3.0], [2.0]]), requires_grad=True)
        segment_max(x, np.array([0, 0, 0]), 1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.0], [1.0], [0.0]])

    def test_backward_tie_splits(self):
        x = Tensor(np.array([[2.0], [2.0]]), requires_grad=True)
        segment_max(x, np.array([0, 0]), 1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.5], [0.5]])

    def test_backward_no_ties_numeric(self):
        data = np.random.default_rng(2).permutation(10).astype(float).reshape(5, 2)
        index = np.array([0, 1, 0, 1, 0])

        def build(x):
            return (segment_max(x, index, 2) ** 2.0).sum()

        x = Tensor(data.copy(), requires_grad=True)
        build(x).backward()
        numeric = numeric_gradient(lambda arr: build(Tensor(arr)).item(), data)
        np.testing.assert_allclose(x.grad, numeric, atol=1e-5)

    def test_negative_values(self):
        # max of all-negative segment must stay negative, not clamp to 0
        x = Tensor(np.array([[-3.0], [-1.0]]))
        out = segment_max(x, np.array([0, 0]), 1)
        assert out.data[0, 0] == -1.0


class TestSegmentSoftmax:
    def test_sums_to_one_per_segment(self):
        rng = np.random.default_rng(0)
        scores = Tensor(rng.normal(size=(6, 2)))
        index = np.array([0, 0, 1, 1, 1, 2])
        out = segment_softmax(scores, index, 3)
        sums = np.zeros((3, 2))
        np.add.at(sums, index, out.data)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_shift_invariance(self):
        scores = np.array([[1.0], [3.0], [2.0]])
        index = np.array([0, 0, 0])
        a = segment_softmax(Tensor(scores), index, 1).data
        b = segment_softmax(Tensor(scores + 100.0), index, 1).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_numerical_stability_large_scores(self):
        scores = Tensor(np.array([[1000.0], [1001.0]]))
        out = segment_softmax(scores, np.array([0, 0]), 1)
        assert np.isfinite(out.data).all()

    def test_backward(self):
        data = np.random.default_rng(3).normal(size=(5, 1))
        index = np.array([0, 0, 1, 1, 1])

        def build(x):
            soft = segment_softmax(x, index, 2)
            weights = Tensor(np.arange(5.0)[:, None])
            return (soft * weights).sum()

        x = Tensor(data.copy(), requires_grad=True)
        build(x).backward()
        numeric = numeric_gradient(lambda arr: build(Tensor(arr)).item(), data)
        np.testing.assert_allclose(x.grad, numeric, atol=1e-5)

    @given(st.integers(0, 10**6), st.integers(2, 8), st.integers(1, 4))
    @settings(max_examples=15, deadline=None)
    def test_property_distribution(self, seed, items, segments):
        rng = np.random.default_rng(seed)
        scores = Tensor(rng.normal(size=(items, 1)) * 10)
        index = rng.integers(0, segments, size=items)
        out = segment_softmax(scores, index, segments).data
        assert (out >= 0).all()
        sums = np.zeros((segments, 1))
        np.add.at(sums, index, out)
        occupied = np.bincount(index, minlength=segments) > 0
        np.testing.assert_allclose(sums[occupied], 1.0, atol=1e-9)


class TestSegmentCount:
    def test_counts(self):
        counts = segment_count(np.array([0, 0, 2]), 4)
        np.testing.assert_allclose(counts, [2, 0, 1, 0])


def _random_case(seed, items, segments, features=4):
    rng = np.random.default_rng(seed)
    index = rng.integers(0, segments, size=items).astype(np.int64)
    data = rng.normal(size=(items, features))
    return index, data


class TestBincountScatter:
    """The default bincount scatter is bitwise identical to the seed
    ``np.add.at`` kernel (same accumulation order)."""

    @pytest.mark.parametrize(
        "seed,items,segments",
        [
            (0, 40, 7),     # random many-to-few
            (1, 40, 60),    # guaranteed empty segments
            (2, 1, 3),      # single item
            (3, 12, 1),     # single segment (single-node-graph pooling)
        ],
    )
    def test_bitwise_identical_to_add_at(self, seed, items, segments):
        index, data = _random_case(seed, items, segments)
        shape = (segments, data.shape[1])
        fast = _scatter_add(shape, index, data)
        with reference_scatter():
            ref = _scatter_add(shape, index, data)
        assert np.array_equal(fast, ref)

    def test_bitwise_identical_1d(self):
        index, data = _random_case(5, 30, 6, features=1)
        values = data[:, 0]
        fast = _scatter_add((6,), index, values)
        with reference_scatter():
            ref = _scatter_add((6,), index, values)
        assert np.array_equal(fast, ref)

    def test_zero_items(self):
        out = _scatter_add(
            (4, 3), np.zeros(0, dtype=np.int64), np.zeros((0, 3))
        )
        assert np.array_equal(out, np.zeros((4, 3)))
