import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capgen.errors import ContractError, DomainError, ShapeError
from capgen.gradcheck import fd_gradients, max_relative_error
from capgen.tensor import (
    Tape, Tensor, add_rowvec, at, backward, concat, log, matmul, mean_rows, narrow,
    pick_per_row, reshape, sigmoid, softmax, stack_rows, sum_all, take_row, take_rows,
    tanh, transpose,
)


def leaf(data, rng=None):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


def op_gradcheck(build, params, floor=1e-6):
    """FD check of sum(tanh(graph)) to keep every op's backward nonlinearly excited."""
    def loss():
        out = build()
        return sum_all(tanh(out)) if out.data.shape != () else tanh(out)

    for p in params.values():
        p.grad = None
    with Tape():
        backward(loss())
    analytic = {k: p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
                for k, p in params.items()}
    numeric = fd_gradients(lambda: float(loss().data), params)
    return max_relative_error(analytic, numeric, floor=floor)


class TestMatmul:
    def test_identity(self):
        out = matmul(Tensor(np.eye(2)), Tensor([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_projector(self):
        out = matmul(Tensor([[1.0, 0.0], [0.0, 0.0]]), Tensor([[5.0], [7.0]]))
        np.testing.assert_array_equal(out.data, [[5.0], [0.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_gradient_vs_finite_differences(self, rng):
        a = leaf(rng.standard_normal((3, 4)))
        b = leaf(rng.standard_normal((4, 2)))
        err = op_gradcheck(lambda: matmul(a, b), {"a": a, "b": b})
        assert err < 1e-6

    def test_matvec_gradient(self, rng):
        a = leaf(rng.standard_normal((3, 4)))
        v = leaf(rng.standard_normal(4))
        err = op_gradcheck(lambda: matmul(a, v), {"a": a, "v": v})
        assert err < 1e-6


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_tanh_at_zero(self):
        assert tanh(Tensor([0.0])).data[0] == 0.0

    def test_sigmoid_extreme_inputs_stay_finite(self):
        y = sigmoid(Tensor([-1000.0, 1000.0])).data
        assert np.all(np.isfinite(y)) and 0.0 <= y[0] < 1e-300 and y[1] == 1.0

    def test_mul_values_and_gradient(self, rng):
        a = leaf([1.0, 2.0, 3.0])
        b = leaf([4.0, 5.0, 6.0])
        np.testing.assert_array_equal((a * b).data, [4.0, 10.0, 18.0])
        with Tape():
            backward(sum_all(a * b))
        analytic = {"a": a.grad, "b": b.grad}
        numeric = fd_gradients(lambda: float(sum_all(a * b).data), {"a": a, "b": b})
        assert max_relative_error(analytic, numeric, floor=1e-6) < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]) + Tensor([1.0, 2.0, 3.0])

    def test_scalar_broadcast_allowed(self):
        out = Tensor([1.0, 2.0]) * 3.0 + 1.0
        np.testing.assert_array_equal(out.data, [4.0, 7.0])

    def test_log_domain_error(self):
        with pytest.raises(DomainError):
            log(Tensor([1.0, 0.0]))

    @pytest.mark.parametrize("op", [sigmoid, tanh])
    def test_unary_gradients(self, op, rng):
        x = leaf(rng.standard_normal(6))
        err = op_gradcheck(lambda: op(x), {"x": x})
        assert err < 1e-5

    def test_log_gradient(self, rng):
        x = leaf(rng.uniform(0.5, 2.0, size=5))
        assert op_gradcheck(lambda: log(x), {"x": x}) < 1e-5


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_array_equal(softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])

    def test_large_inputs_no_overflow(self):
        y = softmax(Tensor([1000.0, 1000.0, 1000.0])).data
        np.testing.assert_allclose(y, [1 / 3] * 3, atol=1e-15)

    def test_matches_high_precision_oracle(self):
        # arbitrary-precision reference for e^x_i / sum_j e^x_j
        import mpmath
        mpmath.mp.dps = 50
        x = [1.0, 2.0, 3.0]
        es = [mpmath.e ** xi for xi in x]
        expected = np.array([float(e / sum(es)) for e in es])
        np.testing.assert_allclose(softmax(Tensor(x)).data, expected, atol=1e-12)

    def test_empty_input(self):
        with pytest.raises(ShapeError):
            softmax(Tensor(np.zeros(0)))

    def test_nonfinite_input(self):
        with pytest.raises(DomainError):
            softmax(Tensor([1.0, np.inf]))

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_is_distribution(self, xs):
        y = softmax(Tensor(xs)).data
        assert np.all(y > 0)
        assert abs(y.sum() - 1.0) <= 1e-12

    @given(st.lists(st.floats(-20, 20), min_size=2, max_size=6), st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_permutation_equivariant(self, xs, pyrng):
        perm = list(range(len(xs)))
        pyrng.shuffle(perm)
        base = softmax(Tensor(xs)).data
        moved = softmax(Tensor([xs[p] for p in perm])).data
        np.testing.assert_allclose(moved, base[perm], atol=1e-15)

    def test_gradient(self, rng):
        x = leaf(rng.standard_normal(5))
        assert op_gradcheck(lambda: softmax(x), {"x": x}) < 1e-5


class TestConcat:
    def test_values(self):
        out = concat([Tensor([[1.0, 2.0]]), Tensor([[3.0]])], axis=1)
        np.testing.assert_array_equal(out.data, [[1.0, 2.0, 3.0]])

    def test_empty_identity(self):
        out = concat([Tensor([1.0, 2.0]), Tensor(np.zeros(0))])
        np.testing.assert_array_equal(out.data, [1.0, 2.0])

    def test_non_axis_mismatch(self):
        with pytest.raises(ShapeError):
            concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4)))], axis=0)

    def test_gradient_is_ones_into_both(self):
        a = leaf([1.0, 2.0])
        b = leaf([3.0])
        with Tape():
            backward(sum_all(concat([a, b])))
        np.testing.assert_array_equal(a.grad, [1.0, 1.0])
        np.testing.assert_array_equal(b.grad, [1.0])


class TestBackward:
    def test_sum_gradient(self):
        x = leaf([1.0, 5.0, -2.0])
        with Tape():
            backward(sum_all(x))
        np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_square_gradient(self):
        x = leaf([1.0, 2.0])
        with Tape():
            backward(sum_all(x * x))
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_non_scalar_loss_rejected(self):
        x = leaf([1.0, 2.0])
        with Tape():
            y = x * 2.0
            with pytest.raises(ContractError):
                backward(y)

    def test_off_tape_loss_rejected(self):
        x = leaf([1.0])
        y = sum_all(x)  # no tape active
        with pytest.raises(ContractError):
            backward(y)

    def test_accumulation_until_zeroed(self):
        x = leaf([1.0, 2.0])
        with Tape():
            loss = sum_all(x * x)
            backward(loss)
            backward(loss)
        np.testing.assert_array_equal(x.grad, [4.0, 8.0])
        x.grad = None
        with Tape():
            backward(sum_all(x * x))
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_replay_bit_identical(self, rng):
        data = rng.standard_normal(6)

        def grads():
            x = leaf(data.copy())
            with Tape():
                backward(sum_all(sigmoid(x) * tanh(x)))
            return x.grad

        g1, g2 = grads(), grads()
        assert np.array_equal(g1, g2)

    def test_nested_tapes_rejected(self):
        with Tape():
            with pytest.raises(ContractError):
                with Tape():
                    pass

    def test_no_tape_node_without_requires_grad(self):
        x = Tensor([1.0, 2.0])
        with Tape():
            y = x * 2.0
        assert y.node is None and not y.requires_grad


class TestDeferredLeafGradients:
    """Leaf gradients of matrix @ vector, vector @ matrix and row gathers
    are summed once per backward; mixed with dense ones they must agree
    with finite differences."""

    def test_weight_used_as_matvec_and_matmat(self, rng):
        w = leaf(rng.standard_normal((3, 4)))
        v1, v2 = leaf(rng.standard_normal(4)), leaf(rng.standard_normal(4))
        u = leaf(rng.standard_normal(3))
        m = leaf(rng.standard_normal((4, 2)))
        params = {"w": w, "v1": v1, "v2": v2, "u": u, "m": m}

        def build():
            return concat([
                matmul(w, v1),                        # deferred, two steps
                matmul(w, v2),
                matmul(u, w),                         # deferred, vector on the left
                reshape(matmul(w, m), (6,)),          # dense
                matmul(tanh(w), v1),                  # node input: expanded on the spot
            ])

        assert op_gradcheck(build, params) < 1e-6

    def test_embedding_read_by_take_row_and_take_rows(self, rng):
        e = leaf(rng.standard_normal((5, 3)))
        params = {"e": e}

        def build():
            return concat([
                take_row(e, 2),
                reshape(take_rows(e, [2, 0, 2]), (9,)),
                take_row(e, 4),
                take_row(tanh(e), 2),                 # node input: expanded on the spot
                reshape(take_rows(e, [1]) * take_rows(e, [3]), (3,)),
            ])

        assert op_gradcheck(build, params) < 1e-6

    def test_two_backward_calls_keep_accumulating(self, rng):
        w = leaf(rng.standard_normal((3, 4)))
        e = leaf(rng.standard_normal((6, 4)))
        b = leaf(rng.standard_normal(3))
        params = {"w": w, "e": e, "b": b}

        def loss():
            h = tanh(matmul(w, take_row(e, 1)) + b)
            return sum_all(tanh(matmul(w, take_row(e, 4)) + h))

        with Tape():
            backward(loss())
        with Tape():
            out = loss()
            backward(out)
            backward(out)
        analytic = {k: p.grad / 3.0 for k, p in params.items()}
        numeric = fd_gradients(lambda: float(loss().data), params)
        assert max_relative_error(analytic, numeric, floor=1e-6) < 1e-6


class TestStructuralOps:
    def test_indexing_ops_values(self):
        m = Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_array_equal(take_rows(m, [2, 0]).data, [[5.0, 6.0], [1.0, 2.0]])
        np.testing.assert_array_equal(take_row(m, 1).data, [3.0, 4.0])
        v = Tensor([7.0, 8.0, 9.0])
        assert at(v, 2).data == 9.0
        np.testing.assert_array_equal(narrow(v, 1, 2).data, [8.0, 9.0])
        np.testing.assert_array_equal(pick_per_row(m, [1, 0, 1]).data, [2.0, 3.0, 6.0])

    @pytest.mark.parametrize("build_params", [
        lambda rng: ("take_rows", lambda p: take_rows(p, [0, 2, 0]), (4, 3)),
        lambda rng: ("take_row", lambda p: take_row(p, 1), (3, 2)),
        lambda rng: ("mean_rows", mean_rows, (5, 3)),
        lambda rng: ("transpose", transpose, (3, 4)),
        lambda rng: ("reshape", lambda p: reshape(p, (6,)), (2, 3)),
        lambda rng: ("narrow", lambda p: narrow(p, 1, 3), (6,)),
        lambda rng: ("pick", lambda p: pick_per_row(p, [2, 0]), (2, 3)),
    ])
    def test_structural_gradients(self, build_params, rng):
        name, fn, shape = build_params(rng)
        p = leaf(rng.standard_normal(shape))
        assert op_gradcheck(lambda: fn(p), {name: p}) < 1e-5

    def test_add_rowvec_and_stack_gradients(self, rng):
        m = leaf(rng.standard_normal((4, 3)))
        v = leaf(rng.standard_normal(3))
        assert op_gradcheck(lambda: add_rowvec(m, v), {"m": m, "v": v}) < 1e-5
        rows = [leaf(rng.standard_normal(3)) for _ in range(3)]
        params = {f"r{i}": r for i, r in enumerate(rows)}
        assert op_gradcheck(lambda: stack_rows(rows), params) < 1e-5

    def test_take_rows_accumulates_repeated_ids(self):
        e = leaf(np.eye(3))
        with Tape():
            backward(sum_all(take_rows(e, [0, 0])))
        np.testing.assert_array_equal(e.grad[0], [2.0, 2.0, 2.0])
        np.testing.assert_array_equal(e.grad[1], [0.0, 0.0, 0.0])
