import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capgen.tensor
from capgen.errors import ContractError, DomainError, ShapeError
from capgen.gradcheck import fd_gradients, max_relative_error
from capgen.tensor import (
    Tape, Tensor, additive_scores, backward, concat, log, log_softmax, lstm_cell, matmul_t, narrow,
    pick_in_rows, reshape, scale_rows, sigmoid, softmax, stack_rows, sum_all,
    take_rows, tanh, transpose, weighted_sum,
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
    """Products of rows against a weight, ``matmul_t``: the product, then
    its added terms."""

    def test_identity(self):
        out = matmul_t(Tensor(np.eye(2)), Tensor([[1.0, 3.0], [2.0, 4.0]]))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_projector(self):
        out = matmul_t(Tensor([[1.0, 0.0], [0.0, 0.0]]), Tensor([[5.0, 7.0]]))
        np.testing.assert_array_equal(out.data, [[5.0], [0.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul_t(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_gradient_vs_finite_differences(self, rng):
        a = leaf(rng.standard_normal((3, 4)))
        b = leaf(rng.standard_normal((2, 4)))
        err = op_gradcheck(lambda: matmul_t(a, b), {"a": a, "b": b})
        assert err < 1e-6

    def test_matvec_gradient(self, rng):
        a = leaf(rng.standard_normal((3, 4)))
        v = leaf(rng.standard_normal(4))
        err = op_gradcheck(lambda: matmul_t(reshape(v, (1, 4)), a), {"a": a, "v": v})
        assert err < 1e-6

    def test_transposed_operand_gradient(self, rng):
        x = leaf(rng.standard_normal((3, 4)))
        w = leaf(rng.standard_normal((4, 5)))
        assert op_gradcheck(lambda: matmul_t(x, transpose(w, (1, 0))), {"x": x, "w": w}) < 1e-6


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
        """The two mixed forms: tensor × number and number − tensor."""
        out = 1.0 - Tensor([1.0, 2.0]) * 3.0
        np.testing.assert_array_equal(out.data, [-2.0, -5.0])

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


def row(xs) -> Tensor:
    """A list of numbers as a (1, n) row, the form the row ops take."""
    return Tensor(np.asarray(xs, dtype=np.float64).reshape(1, -1))


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_array_equal(softmax(row([0.0, 0.0])).data, [[0.5, 0.5]])

    def test_large_inputs_no_overflow(self):
        y = softmax(row([1000.0, 1000.0, 1000.0])).data
        np.testing.assert_allclose(y, [[1 / 3] * 3], atol=1e-15)

    def test_matches_high_precision_oracle(self):
        # arbitrary-precision reference for e^x_i / sum_j e^x_j
        import mpmath
        mpmath.mp.dps = 50
        x = [1.0, 2.0, 3.0]
        es = [mpmath.e ** xi for xi in x]
        expected = np.array([float(e / sum(es)) for e in es])
        np.testing.assert_allclose(softmax(row(x)).data[0], expected, atol=1e-12)

    def test_empty_input(self):
        with pytest.raises(ShapeError):
            softmax(Tensor(np.zeros((1, 0))))

    def test_nonfinite_input(self):
        with pytest.raises(DomainError):
            softmax(row([1.0, np.inf]))

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_is_distribution(self, xs):
        y = softmax(row(xs)).data
        assert np.all(y > 0)
        assert abs(y.sum() - 1.0) <= 1e-12

    @given(st.lists(st.floats(-20, 20), min_size=2, max_size=6), st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_permutation_equivariant(self, xs, pyrng):
        perm = list(range(len(xs)))
        pyrng.shuffle(perm)
        base = softmax(row(xs)).data[0]
        moved = softmax(row([xs[p] for p in perm])).data[0]
        np.testing.assert_allclose(moved, base[perm], atol=1e-15)

    def test_gradient(self, rng):
        x = leaf(rng.standard_normal((1, 5)))
        assert op_gradcheck(lambda: softmax(x), {"x": x}) < 1e-5


class TestLogSoftmax:
    def test_rows_match_log_of_softmax(self, rng):
        x = rng.standard_normal((4, 6)) * 5
        got = log_softmax(Tensor(x)).data
        for got_row, expect in zip(got, x):
            np.testing.assert_allclose(got_row, np.log(softmax(row(expect)).data[0]), atol=1e-12)
        np.testing.assert_allclose(log_softmax(Tensor(x[:1])).data[0], got[0], atol=0)

    def test_underflowing_probability_keeps_a_finite_log(self):
        y = log_softmax(Tensor([[0.0, -1000.0, 0.0]])).data
        assert softmax(row([0.0, -1000.0, 0.0])).data[0, 1] == 0.0
        np.testing.assert_allclose(y[0], [-np.log(2), -1000.0 - np.log(2), -np.log(2)],
                                   atol=1e-12)

    def test_nonfinite_input(self):
        with pytest.raises(DomainError):
            log_softmax(Tensor([[1.0, np.nan]]))

    @pytest.mark.parametrize("shape", [(0,), (2, 0), (1, 2, 3)])
    def test_bad_shapes(self, shape):
        with pytest.raises(ShapeError):
            log_softmax(Tensor(np.zeros(shape)))

    def test_gradient(self, rng):
        x = leaf(rng.standard_normal((3, 5)))
        assert op_gradcheck(lambda: log_softmax(x), {"x": x}) < 1e-5


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
    """Leaf gradients of one-row and many-row weight products and of row
    gathers are summed once per backward; mixed with dense ones they must
    agree with finite differences."""

    def test_weight_used_as_matvec_and_matmat(self, rng):
        w = leaf(rng.standard_normal((3, 4)))
        v1, v2 = leaf(rng.standard_normal(4)), leaf(rng.standard_normal(4))
        u = leaf(rng.standard_normal((1, 3)))
        m = leaf(rng.standard_normal((2, 4)))
        params = {"w": w, "v1": v1, "v2": v2, "u": u, "m": m}

        def row(v):
            return reshape(v, (1, 4))

        def build():
            return concat([
                reshape(matmul_t(row(v1), w), (3,)),          # deferred, two steps
                reshape(matmul_t(row(v2), w), (3,)),
                reshape(matmul_t(m, w), (6,)),                # deferred, a GEMM of two rows
                reshape(matmul_t(u, transpose(w, (1, 0))), (4,)),  # dense: the weight is a node
                reshape(matmul_t(row(v1), tanh(w)), (3,)),    # node input: expanded on the spot
            ])

        assert op_gradcheck(build, params) < 1e-6

    def test_embedding_read_by_take_row_and_take_rows(self, rng):
        e = leaf(rng.standard_normal((5, 3)))
        params = {"e": e}

        def build():
            return concat([
                take_rows(e, 2),
                reshape(take_rows(e, [2, 0, 2]), (9,)),
                take_rows(e, 4),
                take_rows(tanh(e), 2),                # node input: expanded on the spot
                reshape(take_rows(e, [1]) * take_rows(e, [3]), (3,)),
            ])

        assert op_gradcheck(build, params) < 1e-6

    def test_two_backward_calls_keep_accumulating(self, rng):
        w = leaf(rng.standard_normal((3, 4)))
        e = leaf(rng.standard_normal((6, 4)))
        b = leaf(rng.standard_normal(3))
        params = {"w": w, "e": e, "b": b}

        def loss():
            h = tanh(matmul_t(reshape(take_rows(e, 1), (1, 4)), w, b))
            return sum_all(tanh(matmul_t(reshape(take_rows(e, 4), (1, 4)), w, h)))

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
        np.testing.assert_array_equal(take_rows(m, 1).data, [3.0, 4.0])
        v = row([7.0, 8.0, 9.0])
        np.testing.assert_array_equal(narrow(v, 1, 2).data, [[8.0, 9.0]])
        np.testing.assert_array_equal(narrow(m, 1, 1).data, [[2.0], [4.0], [6.0]])
        np.testing.assert_array_equal(pick_in_rows(m, [1, 0, 1]).data, [2.0, 3.0, 6.0])

    @pytest.mark.parametrize("build_params", [
        lambda rng: ("take_rows", lambda p: take_rows(p, [0, 2, 0]), (4, 3)),
        lambda rng: ("take_rows/int", lambda p: take_rows(p, 1), (3, 2)),
        lambda rng: ("transpose", lambda p: transpose(p, (1, 0)), (3, 4)),
        lambda rng: ("reshape", lambda p: reshape(p, (6,)), (2, 3)),
        lambda rng: ("narrow", lambda p: narrow(p, 1, 3), (1, 6)),
        lambda rng: ("pick", lambda p: pick_in_rows(p, [2, 0]), (2, 3)),
    ])
    def test_structural_gradients(self, build_params, rng):
        name, fn, shape = build_params(rng)
        p = leaf(rng.standard_normal(shape))
        assert op_gradcheck(lambda: fn(p), {name: p}) < 1e-5

    def test_stack_gradients(self, rng):
        rows = [leaf(rng.standard_normal(3)) for _ in range(3)]
        params = {f"r{i}": r for i, r in enumerate(rows)}
        assert op_gradcheck(lambda: stack_rows(rows), params) < 1e-5

    def test_take_rows_accumulates_repeated_ids(self):
        e = leaf(np.eye(3))
        with Tape():
            backward(sum_all(take_rows(e, [0, 0])))
        np.testing.assert_array_equal(e.grad[0], [2.0, 2.0, 2.0])
        np.testing.assert_array_equal(e.grad[1], [0.0, 0.0, 0.0])


class TestLstmCell:
    """``lstm_cell``, one node for an LSTM step's gate arithmetic, against
    the per-gate ops it replaces."""

    @staticmethod
    def per_gate(z, m_prev):
        H = m_prev.shape[1]
        i, f, o = (sigmoid(narrow(z, k * H, H)) for k in range(3))
        g = tanh(narrow(z, 3 * H, H))
        m = f * m_prev + i * g
        return o * tanh(m), m

    @staticmethod
    def fused(z, m_prev):
        H = m_prev.shape[1]
        hm = lstm_cell(z, m_prev)
        return narrow(hm, 0, H), narrow(hm, H, H)

    @pytest.mark.parametrize("n", [1, 2, 8])
    @pytest.mark.parametrize("H", [3, 64, 512])
    def test_value_and_gradients_equal_the_per_gate_ops(self, rng, n, H):
        z0 = rng.standard_normal((n, 4 * H)) * 3
        z0[:, ::5], z0[:, 2::5] = 40.0, -40.0       # saturated pre-activations
        m0 = rng.standard_normal((n, H))
        wh, wm = rng.standard_normal((n, H)), rng.standard_normal((n, H))

        def run(cell):
            z, m_prev = leaf(z0), leaf(m0)
            with Tape():
                h, m = cell(z, m_prev)
                # m feeds a later step as well as h, as in a recurrence
                backward(sum_all(h * Tensor(wh)) + sum_all(m * Tensor(wm)))
            return h.data, m.data, z.grad, m_prev.grad

        for got, want in zip(run(self.fused), run(self.per_gate), strict=True):
            assert np.array_equal(got, want)

    def test_records_one_node_and_passes_a_finite_difference_check(self, rng):
        z, m_prev = leaf(rng.standard_normal((2, 12))), leaf(rng.standard_normal((2, 3)))
        with Tape() as tape:
            lstm_cell(z, m_prev)
            assert len(tape.nodes) == 1
        assert op_gradcheck(lambda: lstm_cell(z, m_prev), {"z": z, "m_prev": m_prev}) < 1e-6

    def test_shapes_must_fit(self):
        for z, m in (((2, 12), (2, 4)), ((3, 12), (2, 3)), ((12,), (3,))):
            with pytest.raises(ShapeError):
                lstm_cell(Tensor(np.zeros(z)), Tensor(np.zeros(m)))


class TestPerRowProducts:
    """What a decoding step over n rows owes each row.  Greedy decoding and
    sampling step one row, and their pins rest on a one-row product being
    the GEMV of that row bit for bit; beam search steps n rows, each within
    rounding of the row alone.  The additive scores and the softmax work
    row by row, so their rows equal the row alone bit for bit for any n.
    Checked here at the op, so a numpy or BLAS change that breaks it fails
    here rather than inside a pinned decode."""

    # (m, k): paper and desk word heads, paper LSTM blocks, a tiny decoder's
    # head, the paper word MLP
    SHAPES = [(5000, 512), (500, 64), (2048, 512), (512, 512), (12, 8), (512, 1024)]

    @staticmethod
    def assert_rows_match(out, want):
        """One row bit for bit, each of n > 1 rows within rounding."""
        if len(out) == 1:
            assert np.array_equal(out[0], want[0])
        for got, row in zip(out, want, strict=True):
            np.testing.assert_allclose(got, row, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    @pytest.mark.parametrize("m, k", SHAPES)
    def test_rows_equal_their_own_gemv(self, rng, n, m, k):
        w = rng.standard_normal((m, k))
        x = rng.standard_normal((n, k))
        out = matmul_t(Tensor(x), Tensor(w)).data
        assert out.shape == (n, m)
        self.assert_rows_match(out, [w @ x[i] for i in range(n)])

    @pytest.mark.parametrize("n, m, k", [
        *((1, m, k) for m, k in SHAPES),                            # one row: the GEMV
        *((n, m, k) for n in (2, 5, 8) for m, k in [(500, 64), (256, 64), (12, 8)]),
        (2, 512, 512),                                              # fits one block
        (9, 2048, 512), (16, 5000, 512), (104, 2048, 512)])        # beyond a few rows
    def test_products_left_whole_keep_the_one_call_bits(self, rng, n, m, k):
        # desk and tiny weights fit the block limit whole, and one row or more
        # than 8 is never split: each is one np.dot, with its bits
        w, x = rng.standard_normal((m, k)), rng.standard_normal((n, k))
        assert np.array_equal(matmul_t(Tensor(x), Tensor(w)).data, np.dot(x, w.T))

    @pytest.mark.parametrize("n", [2, 5, 8])
    @pytest.mark.parametrize("m, k", [(5000, 512), (2048, 512), (2048, 1024)])
    def test_few_rows_against_a_large_weight_run_in_blocks(self, rng, n, m, k):
        # one GEMM per block of 2**19 // (n * k) output rows, joined in order
        w, x = rng.standard_normal((m, k)), rng.standard_normal((n, k))
        size = 2 ** 19 // (n * k)
        want = np.concatenate([np.dot(x, w[lo:lo + size].T) for lo in range(0, m, size)],
                              axis=1)
        out = matmul_t(Tensor(x.reshape(n, 1, k)), Tensor(w)).data
        assert out.shape == (n, 1, m) and np.array_equal(out[:, 0], want)

    def test_blocked_product_gradients_match_one_call(self, rng, monkeypatch):
        # the input gradient of a blocked product adds one GEMM per block of
        # the summed axis, in order, within rounding of one GEMM; the
        # deferred weight gradient is the one-call product's, bit for bit
        x0, w0, c = (rng.standard_normal((5, 512)), rng.standard_normal((2048, 512)),
                     rng.standard_normal((5, 2048)))

        def grads():
            x, w = leaf(x0), leaf(w0)
            with Tape():
                y = matmul_t(x, w)
                backward(sum_all(y * Tensor(c)))
            return y.data, x.grad, w.grad

        blocked = grads()
        monkeypatch.setattr(capgen.tensor, "_BLOCK_ELEMS", 2 ** 40)
        whole = grads()
        size = 2 ** 19 // (5 * 512)
        in_order = c[:, :size] @ w0[:size]
        for lo in range(size, 2048, size):
            in_order += c[:, lo:lo + size] @ w0[lo:lo + size]
        assert np.array_equal(whole[0], np.dot(x0, w0.T)) and np.array_equal(whole[1], c @ w0)
        assert not np.array_equal(blocked[0], whole[0])     # the forward did block
        assert np.array_equal(blocked[1], in_order)
        assert np.abs(blocked[1] - whole[1]).max() <= 1e-12 * np.abs(whole[1]).max()
        assert np.array_equal(blocked[2], whole[2])

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("dim", [64, 512])
    def test_transposed_weight_and_column_sliced_rows(self, rng, n, dim):
        # attention's context product, ``weighted_sum``, takes each row's L
        # weights against that row's own (L, D) features; DA's takes the
        # first L columns of (n, L + 1).  Every row equals its own GEMV, and
        # the one-row GEMM against the (D, L) transpose, bit for bit.
        feats = rng.standard_normal((n, 28, dim))
        for alpha in (rng.standard_normal((n, 28)), rng.standard_normal((n, 29))[:, :28]):
            out = weighted_sum(Tensor(alpha), Tensor(feats)).data
            for i in range(n):
                assert np.array_equal(out[i], feats[i].T @ alpha[i])
                gemm = matmul_t(Tensor(alpha[i:i + 1]), transpose(Tensor(feats[i]), (1, 0))).data
                assert np.array_equal(out[i], gemm[0])

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_terms_add_after_the_product_in_order(self, rng, n):
        w, x = rng.standard_normal((7, 4)), rng.standard_normal((n, 4))
        base, bias = rng.standard_normal((n, 7)), rng.standard_normal(7)
        out = matmul_t(Tensor(x), Tensor(w), Tensor(base), Tensor(bias)).data
        assert np.array_equal(out, (x @ w.T + base) + bias)
        self.assert_rows_match(out, [(base[i] + w @ x[i]) + bias for i in range(n)])
        with pytest.raises(ShapeError):
            matmul_t(Tensor(x), Tensor(w), Tensor(np.zeros(6)))
        with pytest.raises(ShapeError):
            matmul_t(Tensor(x), Tensor(w.T))

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("rows, attn", [(28, 512), (28, 64), (4, 7)])
    def test_scores_equal_their_own_row(self, rng, n, rows, attn):
        keys, q, w = (rng.standard_normal((n, rows, attn)), rng.standard_normal((n, attn)),
                      rng.standard_normal(attn))
        out = additive_scores(Tensor(keys), Tensor(q), Tensor(w)).data
        assert out.shape == (n, rows)
        assert all(np.array_equal(out[i], np.tanh(keys[i] + q[i]) @ w) for i in range(n))

    @pytest.mark.parametrize("n", [1, 3])
    def test_additive_scores_gradient(self, rng, n):
        keys, q, w = (leaf(rng.standard_normal((n, 4, 3))), leaf(rng.standard_normal((n, 3))),
                      leaf(rng.standard_normal(3)))
        params = {"keys": keys, "q": q, "w": w}
        assert op_gradcheck(lambda: additive_scores(keys, q, w), params) < 1e-6

    def test_additive_scores_take_per_row_keys_only(self, rng):
        q, w = Tensor(rng.standard_normal((2, 3))), Tensor(rng.standard_normal(3))
        for keys in (rng.standard_normal((4, 3)), rng.standard_normal((3, 4, 3))):
            with pytest.raises(ShapeError):     # shared (L, A) keys; a row count off
                additive_scores(Tensor(keys), q, w)

    @pytest.mark.parametrize("n", [2, 5])
    @pytest.mark.parametrize("width", [5, 29, 500, 5000])
    def test_row_softmax_equals_each_row_alone(self, rng, n, width):
        x = rng.standard_normal((n, width)) * 4
        rows = softmax(Tensor(x)).data
        assert all(np.array_equal(rows[i], softmax(Tensor(x[i:i + 1])).data[0])
                   for i in range(n))


class TestBatchedOps:
    """The explicit batch-axis ops: values against numpy, gradients against
    finite differences."""

    def test_matmul_t_values_and_gradient(self, rng):
        a = leaf(rng.standard_normal((3, 4)))
        w = leaf(rng.standard_normal((5, 4)))
        np.testing.assert_array_equal(matmul_t(a, w).data, a.data @ w.data.T)
        assert op_gradcheck(lambda: matmul_t(a, w), {"a": a, "w": w}) < 1e-6

    @pytest.mark.parametrize("lead", [(1,), (3,), (2, 3)], ids=["1", "3", "2x3"])
    def test_matmul_t_terms_gradient(self, rng, lead):
        # halved, so that the sum of four terms does not saturate the probe's tanh
        x = leaf(rng.standard_normal(lead + (4,)) * 0.5)
        w = leaf(rng.standard_normal((5, 4)) * 0.5)
        base, bias = leaf(rng.standard_normal(lead + (5,)) * 0.5), leaf(rng.standard_normal(5) * 0.5)
        np.testing.assert_array_equal(matmul_t(x, w, base, bias).data,
                                      (x.data @ w.data.T + base.data) + bias.data)
        params = {"x": x, "w": w, "base": base, "bias": bias}
        assert op_gradcheck(lambda: matmul_t(x, w, base, bias), params) < 1e-6
        for bad in (np.zeros(6), np.zeros(lead + (6,))):
            with pytest.raises(ShapeError):
                matmul_t(x, w, Tensor(bad))

    def test_matmul_t_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul_t(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))

    def test_rank_b_factors_sum_over_steps(self, rng):
        # a recurrence's U gets one rank-B factor per step, summed in one GEMM,
        # next to a rank-1 factor from a one-row product
        u = leaf(rng.standard_normal((4, 4)))
        h0 = leaf(rng.standard_normal((3, 4)))
        v = leaf(rng.standard_normal(4))

        def build():
            h = h0
            for _ in range(3):
                h = tanh(matmul_t(h, u))
            return concat([reshape(h, (12,)), reshape(matmul_t(reshape(v, (1, 4)), u), (4,))])

        assert op_gradcheck(build, {"u": u, "h0": h0, "v": v}) < 1e-6

    def test_transpose_axes(self, rng):
        x = leaf(rng.standard_normal((2, 3, 4)))
        np.testing.assert_array_equal(transpose(x, (1, 0, 2)).data, x.data.transpose(1, 0, 2))
        assert op_gradcheck(lambda: transpose(x, (1, 2, 0)), {"x": x}) < 1e-6

    @pytest.mark.parametrize("shape", [(1, 5), (3, 5)])
    def test_scale_rows(self, shape, rng):
        x = leaf(rng.standard_normal(shape))
        s = leaf(rng.standard_normal(shape[:-1] + (3,)))
        np.testing.assert_array_equal(scale_rows(x, s, 1).data, x.data * s.data[:, 1:2])
        assert op_gradcheck(lambda: scale_rows(x, s, 1), {"x": x, "s": s}) < 1e-6

    def test_weighted_sum(self, rng):
        alpha = leaf(rng.random((2, 3)))
        v = leaf(rng.standard_normal((2, 3, 4)))
        expect = np.stack([alpha.data[b] @ v.data[b] for b in range(2)])
        np.testing.assert_allclose(weighted_sum(alpha, v).data, expect, rtol=1e-14)
        assert op_gradcheck(lambda: weighted_sum(alpha, v), {"alpha": alpha, "v": v}) < 1e-6

    def test_row_softmax_matches_vector_softmax(self, rng):
        x = rng.standard_normal((3, 5))
        rows = softmax(Tensor(x)).data
        for b in range(3):
            np.testing.assert_allclose(rows[b], softmax(Tensor(x[b:b + 1])).data[0], rtol=1e-15)

    def test_masked_softmax_gives_padding_exactly_zero(self, rng):
        x = leaf(rng.standard_normal((2, 4)))
        mask = np.array([[True, True, True, True], [True, True, False, False]])
        y = softmax(x, mask).data
        assert np.all(y[1, 2:] == 0.0)
        np.testing.assert_allclose(y[1, :2], softmax(Tensor(x.data[1:, :2])).data[0], rtol=1e-15)
        with Tape():
            backward(sum_all(tanh(softmax(x, mask))))
        assert np.all(x.grad[1, 2:] == 0.0)
        assert op_gradcheck(lambda: softmax(x, mask), {"x": x}) < 1e-6

    def test_masked_softmax_rejects_an_empty_row(self):
        with pytest.raises(ShapeError):
            softmax(Tensor(np.zeros((2, 2))), np.array([[True, False], [False, False]]))

    def test_stack_matrices(self, rng):
        rows = [leaf(rng.standard_normal((2, 3))) for _ in range(4)]
        assert stack_rows(rows).data.shape == (4, 2, 3)
        assert op_gradcheck(lambda: stack_rows(rows),
                            {f"r{i}": r for i, r in enumerate(rows)}) < 1e-6

    def test_rows_of_one_node_accumulate(self, rng):
        # step rows of one (T, B, H) node, as in a batched recurrence
        x = leaf(rng.standard_normal((3, 2, 4)))

        def build():
            y = tanh(x)
            h = take_rows(y, 0)
            for t in (1, 2, 1):
                h = tanh(h + take_rows(y, t))
            return h

        assert op_gradcheck(build, {"x": x}) < 1e-6


class TestTapeLifetime:
    def test_intermediates_die_with_the_block(self, rng):
        x = leaf(rng.standard_normal(4))
        enabled = gc.isenabled()
        gc.disable()
        try:
            with Tape():
                y = tanh(x) * 2.0
                loss = sum_all(y * y)
                ref = weakref.ref(y)
                del y
                backward(loss)
                assert ref() is not None      # the graph holds it until the block ends
            assert ref() is None
            assert loss.node is None
        finally:
            if enabled:
                gc.enable()
        assert x.grad is not None
