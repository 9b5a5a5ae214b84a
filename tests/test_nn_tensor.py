"""Tests for the autograd Tensor: every op gradient-checked.

The property tests compare reverse-mode gradients against central finite
differences on random inputs — the standard oracle for autograd
correctness.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ModelError
from repro.nn.tensor import (
    ONE_PASS_MAX_ROWS,
    Tensor,
    batch_invariant,
    concat,
    is_batch_invariant,
    is_grad_enabled,
    no_grad,
    rowwise_matmul,
    rowwise_matmul_loop,
    stack,
    where,
)


def numeric_gradient(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of scalar fn at x."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        up = fn(x)
        flat[i] = original - eps
        down = fn(x)
        flat[i] = original
        grad_flat[i] = (up - down) / (2 * eps)
    return grad


def check_gradient(build, shape, seed=0, atol=1e-5):
    """Assert autograd gradient == numeric gradient for scalar build(x)."""
    rng = np.random.default_rng(seed)
    x_data = rng.normal(size=shape)

    tensor = Tensor(x_data.copy(), requires_grad=True)
    out = build(tensor)
    out.backward()

    numeric = numeric_gradient(lambda arr: build(Tensor(arr)).item(), x_data)
    assert tensor.grad is not None
    np.testing.assert_allclose(tensor.grad, numeric, atol=atol)


class TestBasicOps:
    def test_add(self):
        check_gradient(lambda x: (x + 2.0).sum(), (3, 4))

    def test_radd(self):
        check_gradient(lambda x: (2.0 + x).sum(), (3,))

    def test_sub_rsub(self):
        check_gradient(lambda x: (x - 1.0).sum(), (3,))
        check_gradient(lambda x: (1.0 - x).sum(), (3,))

    def test_mul(self):
        check_gradient(lambda x: (x * x).sum(), (4,))

    def test_div(self):
        check_gradient(lambda x: (1.0 / (x * x + 2.0)).sum(), (4,))

    def test_neg(self):
        check_gradient(lambda x: (-x).sum(), (3,))

    def test_pow(self):
        check_gradient(lambda x: ((x * x + 1.0) ** 1.5).sum(), (3,))

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_pow_rejects_bool_and_array_exponents(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** True
        with pytest.raises(TypeError):
            Tensor([1.0]) ** np.array([2.0])

    def test_pow_accepts_integer_and_0d_exponents(self):
        base = np.array([1.5, 2.0, 3.0])
        expected = base**2
        for exponent in (2, np.int64(2), np.float64(2.0), np.array(2.0)):
            np.testing.assert_array_equal(
                (Tensor(base) ** exponent).data, expected
            )

    def test_matmul(self):
        rng = np.random.default_rng(1)
        other = rng.normal(size=(4, 2))
        check_gradient(lambda x: (x @ Tensor(other)).sum(), (3, 4))

    def test_matmul_second_arg_grad(self):
        rng = np.random.default_rng(2)
        a_data = rng.normal(size=(3, 4))
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        out = (Tensor(a_data) @ b).sum()
        out.backward()
        numeric = numeric_gradient(
            lambda arr: float((a_data @ arr).sum()), b.data.copy()
        )
        np.testing.assert_allclose(b.grad, numeric, atol=1e-5)

    def test_matmul_requires_2d(self):
        with pytest.raises(ModelError):
            Tensor(np.ones(3)) @ Tensor(np.ones(3))

    def test_broadcasting_add(self):
        x = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        ((x + b) * 2.0).sum().backward()
        assert x.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        np.testing.assert_allclose(b.grad, 6.0)


class TestActivations:
    def test_exp(self):
        check_gradient(lambda x: x.exp().sum(), (4,))

    def test_log(self):
        check_gradient(lambda x: (x * x + 1.0).log().sum(), (4,))

    def test_sqrt(self):
        check_gradient(lambda x: (x * x + 1.0).sqrt().sum(), (4,))

    def test_tanh(self):
        check_gradient(lambda x: x.tanh().sum(), (4,))

    def test_sigmoid(self):
        check_gradient(lambda x: x.sigmoid().sum(), (4,))

    def test_relu(self):
        # avoid the kink: shift inputs away from 0
        check_gradient(lambda x: (x + 5.0).relu().sum(), (4,))
        check_gradient(lambda x: (x - 5.0).relu().sum(), (4,))

    def test_leaky_relu(self):
        check_gradient(lambda x: (x + 5.0).leaky_relu(0.1).sum(), (4,))
        check_gradient(lambda x: (x - 5.0).leaky_relu(0.1).sum(), (4,))

    def test_abs(self):
        check_gradient(lambda x: (x + 5.0).abs().sum(), (4,))


class TestReductions:
    def test_sum_all(self):
        check_gradient(lambda x: x.sum(), (3, 4))

    def test_sum_axis(self):
        check_gradient(lambda x: (x.sum(axis=0) ** 2.0).sum(), (3, 4))

    def test_sum_keepdims(self):
        check_gradient(lambda x: (x.sum(axis=1, keepdims=True) * x).sum(), (3, 4))

    def test_mean(self):
        check_gradient(lambda x: x.mean(), (3, 4))

    def test_mean_axis(self):
        check_gradient(lambda x: (x.mean(axis=1) ** 2.0).sum(), (3, 4))

    def test_max_all(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.permutation(12).astype(float).reshape(3, 4),
                   requires_grad=True)
        x.max().backward()
        assert x.grad.sum() == pytest.approx(1.0)
        assert x.grad.reshape(-1)[np.argmax(x.data)] == pytest.approx(1.0)

    def test_max_axis(self):
        rng = np.random.default_rng(1)
        data = rng.permutation(12).astype(float).reshape(3, 4)
        x = Tensor(data, requires_grad=True)
        x.max(axis=1).sum().backward()
        assert x.grad.sum() == pytest.approx(3.0)

    def test_max_tie_splitting(self):
        x = Tensor(np.array([[1.0, 1.0, 0.0]]), requires_grad=True)
        x.max(axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.5, 0.5, 0.0]])


class TestShapeOps:
    def test_reshape(self):
        check_gradient(lambda x: (x.reshape(2, 6) ** 2.0).sum(), (3, 4))

    def test_reshape_varargs_matches_tuple(self):
        x = Tensor(np.arange(6.0))
        assert x.reshape(2, 3).shape == x.reshape((2, 3)).shape

    def test_transpose(self):
        rng = np.random.default_rng(3)
        other = rng.normal(size=(3, 2))
        check_gradient(lambda x: (x.T @ Tensor(other)).sum(), (3, 4))

    def test_transpose_requires_2d(self):
        with pytest.raises(ModelError):
            Tensor(np.ones(3)).transpose()

    def test_getitem(self):
        check_gradient(lambda x: (x[np.array([0, 2, 2])] ** 2.0).sum(), (4, 3))

    def test_getitem_slice(self):
        check_gradient(lambda x: (x[1:3] ** 2.0).sum(), (4, 3))

    def test_concat(self):
        rng = np.random.default_rng(4)
        b_data = rng.normal(size=(2, 3))
        check_gradient(
            lambda x: (concat([x, Tensor(b_data)], axis=0) ** 2.0).sum(),
            (2, 3),
        )

    def test_concat_axis1(self):
        rng = np.random.default_rng(5)
        b_data = rng.normal(size=(2, 2))
        check_gradient(
            lambda x: (concat([x, Tensor(b_data)], axis=1) ** 2.0).sum(),
            (2, 3),
        )

    def test_stack(self):
        check_gradient(lambda x: (stack([x, x * 2.0]) ** 2.0).sum(), (3,))

    def test_where(self):
        mask = np.array([True, False, True])
        check_gradient(
            lambda x: where(mask, x * 2.0, x * 3.0).sum(), (3,)
        )

    def test_where_accepts_tensor_condition(self):
        cond = Tensor(np.array([1.0, 0.0, 2.0]))
        a = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        b = Tensor(np.array([10.0, 20.0, 30.0]), requires_grad=True)
        out = where(cond, a, b)
        np.testing.assert_array_equal(out.data, [1.0, 20.0, 3.0])
        out.sum().backward()
        np.testing.assert_array_equal(a.grad, [1.0, 0.0, 1.0])
        np.testing.assert_array_equal(b.grad, [0.0, 1.0, 0.0])

    def test_comparisons_accept_tensor_operands(self):
        a = Tensor(np.array([1.0, 5.0]))
        b = Tensor(np.array([3.0, 3.0]))
        np.testing.assert_array_equal(a > b, [False, True])
        np.testing.assert_array_equal(a < b, [True, False])
        np.testing.assert_array_equal(a >= b, [False, True])
        np.testing.assert_array_equal(a <= b, [True, False])

    def test_reshape_minus_one_and_errors(self):
        x = Tensor(np.arange(12.0))
        assert x.reshape(3, -1).shape == (3, 4)
        for bad in ((5, -1), (-1, -1), (5, 3)):
            with pytest.raises(ModelError):
                x.reshape(*bad)


class TestModeFlagsPerThread:
    @pytest.mark.parametrize(
        "mode, is_on, inside",
        [
            (batch_invariant, is_batch_invariant, True),
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
        with batch_invariant(), no_grad():
            thread = threading.Thread(
                target=lambda: seen.append(
                    (is_batch_invariant(), is_grad_enabled())
                )
            )
            thread.start()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert seen == [(False, True)]


class TestRowwiseMatmul:
    @staticmethod
    def operand(rng, shape, fortran):
        x = rng.standard_normal(shape) * rng.choice([1e-3, 1.0, 1e3], shape)
        draw = rng.random(shape)
        x[draw < 0.1] = 0.0
        x[(draw >= 0.1) & (draw < 0.2)] = -0.0
        return np.asfortranarray(x) if fortran else x

    @pytest.mark.parametrize("j", [1, 2, 3, 32, 33, 64])
    def test_bytes_equal_loop_reference(self, j):
        rng = np.random.default_rng(j)
        shapes = [(1, 1), (ONE_PASS_MAX_ROWS, 70), (700, 70)]
        for limit in (ONE_PASS_MAX_ROWS, 700):
            shapes += [
                (int(rng.integers(1, limit + 1)), int(rng.integers(1, 71)))
                for _ in range(20)
            ]
        for index, (rows, k) in enumerate(shapes):
            a = self.operand(rng, (rows, k), fortran=index % 2 == 1)
            b = self.operand(rng, (k, j), fortran=index % 4 >= 2)
            product = rowwise_matmul(a, b)
            assert product.tobytes() == rowwise_matmul_loop(a, b).tobytes()
            # A row alone gives the same bytes as inside the batch.
            row = int(rng.integers(0, rows))
            alone = rowwise_matmul(a[row : row + 1], b)
            assert alone.tobytes() == product[row : row + 1].tobytes()


class TestBackwardMechanics:
    def test_requires_scalar_for_default_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ModelError, match="scalar"):
            x.backward()

    def test_explicit_gradient(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x * 2.0).backward(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])

    def test_explicit_gradient_shape_checked(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ModelError):
            (x * 2.0).backward(np.ones(4))

    def test_backward_without_requires_grad(self):
        with pytest.raises(ModelError):
            Tensor(np.ones(1)).sum().backward()

    def test_gradient_accumulation(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x * 2.0).sum().backward()
        (x * 3.0).sum().backward()
        np.testing.assert_allclose(x.grad, 5.0)

    def test_zero_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x * 2.0).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_diamond_graph(self):
        # x used twice: gradient must sum both paths
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * x  # path 1 and 2 share x
        (y + x).sum().backward()
        np.testing.assert_allclose(x.grad, [5.0])  # 2x + 1

    def test_detach_blocks_gradient(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x.detach() * 2.0 + x).sum().backward()
        np.testing.assert_allclose(x.grad, 1.0)

    def test_no_grad_context(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = (x * 2.0).sum()
        assert not y.requires_grad

    def test_item(self):
        assert Tensor(np.array([3.5])).item() == 3.5
        with pytest.raises(ModelError):
            Tensor(np.ones(3)).item()

    @given(st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_property_chain_rule_random_composite(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(3, 3))

        def build(x):
            return ((x @ x.T).tanh().sum(axis=0) ** 2.0).mean()

        x = Tensor(data.copy(), requires_grad=True)
        build(x).backward()
        numeric = numeric_gradient(lambda arr: build(Tensor(arr)).item(), data)
        np.testing.assert_allclose(x.grad, numeric, atol=1e-4)
