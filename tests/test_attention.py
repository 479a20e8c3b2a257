import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capgen.attention import (
    AdaptiveGate, AdditiveAttention, TraceRow, adaptive_blend, parallel_adaptive_blend,
    write_trace_csv,
)
from capgen.errors import EmptyInputError, ShapeError
from capgen.gradcheck import check_gradients
from capgen.tensor import Tensor, sum_all


def make_attention(rng, query=4, feat=3, attn=5):
    return AdditiveAttention(query, feat, attn, rng)


def attend(att, h, feats, mask=None):
    """``att.attend`` over keys projected from ``feats`` on this call."""
    return att.attend(h, feats, att.keys(feats), mask)


def row(v) -> Tensor:
    """A vector as a one-row matrix, the decoding form of a query."""
    return Tensor(np.asarray(v, dtype=np.float64)[None, :])


def sets(v, n=1) -> Tensor:
    """One (L, D) feature set as the (n, L, D) sets of n query rows, each
    row over its own copy."""
    return Tensor(np.repeat(np.asarray(v, dtype=np.float64)[None], n, axis=0))


class TestTemporalAttend:
    def test_single_frame_gets_all_weight(self, rng):
        att = make_attention(rng)
        v = rng.standard_normal((1, 3))
        ctx, alpha = attend(att, row(rng.standard_normal(4)), sets(v))
        np.testing.assert_array_equal(alpha.data, [[1.0]])
        np.testing.assert_allclose(ctx.data[0], v[0], atol=1e-15)

    def test_zero_parameters_give_uniform_weights(self, rng):
        att = make_attention(rng)
        for p in att.parameters().values():
            p.data[:] = 0.0
        v = rng.standard_normal((6, 3))
        ctx, alpha = attend(att, row(rng.standard_normal(4)), sets(v))
        np.testing.assert_allclose(alpha.data, np.full((1, 6), 1 / 6), atol=1e-15)
        np.testing.assert_allclose(ctx.data[0], v.mean(axis=0), atol=1e-15)

    def test_context_matches_explicit_weighted_sum(self, rng):
        att = make_attention(rng)
        v = rng.standard_normal((5, 3))
        h = rng.standard_normal((3, 4))
        ctx, alpha = attend(att, Tensor(h), sets(v, 3))
        for i in range(3):
            manual = sum(alpha.data[i, l] * v[l] for l in range(5))
            np.testing.assert_allclose(ctx.data[i], manual, atol=1e-12)

    def test_gradcheck(self, rng):
        att = make_attention(rng)
        h = Tensor(rng.standard_normal((2, 4)))
        v = Tensor(rng.standard_normal((2, 5, 3)))
        assert check_gradients(lambda: sum_all(attend(att, h, v)[0] * attend(att, h, v)[0]),
                               att.parameters()) < 1e-4

    def test_precomputed_keys_give_the_same_bits(self, rng):
        att = make_attention(rng)
        h = Tensor(rng.standard_normal((3, 4)))
        v = Tensor(rng.standard_normal((3, 5, 3)))
        keys = att.keys(v)
        product = (v.data.reshape(15, 3) @ att.U_a.data.T).reshape(3, 5, -1)  # one GEMM
        assert np.array_equal(keys.data, product)
        ctx, alpha = att.attend(h, v, Tensor(product))
        ctx_k, alpha_k = att.attend(h, v, keys)
        assert np.array_equal(ctx_k.data, ctx.data) and np.array_equal(alpha_k.data, alpha.data)

    def test_empty_frames(self, rng):
        att = make_attention(rng)
        with pytest.raises(EmptyInputError):
            attend(att, row(rng.standard_normal(4)), Tensor(np.zeros((1, 0, 3))))
        with pytest.raises(EmptyInputError):
            att.keys(Tensor(np.zeros((1, 0, 3))))

    def test_one_shared_feature_set_is_a_shape_error(self, rng):
        att = make_attention(rng)
        v = Tensor(rng.standard_normal((5, 3)))
        with pytest.raises(ShapeError, match=r"\(n, L, 3\) feature sets"):
            att.keys(v)
        with pytest.raises(ShapeError, match=r"\(n, L, 3\) feature sets"):
            att.attend(row(rng.standard_normal(4)), v, att.keys(sets(v.data)))
        with pytest.raises(ShapeError):   # (L, A) keys shared by every row
            att.attend(row(rng.standard_normal(4)), sets(v.data),
                       Tensor(v.data @ att.U_a.data.T))

    def test_permutation_equivariance(self, rng):
        att = make_attention(rng)
        h = Tensor(rng.standard_normal((2, 4)))
        v = rng.standard_normal((7, 3))
        perm = rng.permutation(7)
        ctx, alpha = attend(att, h, sets(v, 2))
        ctx_p, alpha_p = attend(att, h, sets(v[perm], 2))
        np.testing.assert_allclose(alpha_p.data, alpha.data[:, perm], atol=1e-12)
        np.testing.assert_allclose(ctx_p.data, ctx.data, atol=1e-12)


class TestBatchedAttend:
    def test_padded_rows_weigh_exactly_zero(self, rng):
        att = make_attention(rng)
        arrays = [rng.standard_normal((n, 3)) for n in (5, 2, 4)]
        h = rng.standard_normal((3, 4))
        padded = np.zeros((3, 5, 3))
        mask = np.zeros((3, 5), dtype=bool)
        for b, v in enumerate(arrays):
            padded[b, :len(v)] = v
            mask[b, :len(v)] = True
        feats = Tensor(padded)
        ctx, alpha = att.attend(Tensor(h), feats, att.keys(feats), mask)
        assert ctx.shape == (3, 3) and alpha.shape == (3, 5)
        assert np.all(alpha.data[~mask] == 0.0)
        for b, v in enumerate(arrays):
            ctx1, alpha1 = attend(att, row(h[b]), sets(v))
            np.testing.assert_allclose(alpha.data[b, :len(v)], alpha1.data[0], rtol=0, atol=1e-15)
            np.testing.assert_allclose(ctx.data[b], ctx1.data[0], rtol=0, atol=1e-14)

    def test_gradcheck(self, rng):
        att = make_attention(rng)
        h = Tensor(rng.standard_normal((2, 4)))
        v = Tensor(rng.standard_normal((2, 3, 3)))
        mask = np.array([[True, True, True], [True, False, False]])

        def loss():
            ctx = attend(att, h, v, mask)[0]
            return sum_all(ctx * ctx)

        assert check_gradients(loss, att.parameters()) < 1e-4

    def test_query_per_feature_set(self, rng):
        att = make_attention(rng)
        with pytest.raises(ShapeError):
            attend(att, row(rng.standard_normal(4)), Tensor(rng.standard_normal((2, 3, 3))))


class TestSpatialAttend:
    def test_single_region(self, rng):
        att = make_attention(rng)
        r = rng.standard_normal((1, 3))
        ctx, alpha = attend(att, row(rng.standard_normal(4)), sets(r))
        np.testing.assert_array_equal(alpha.data, [[1.0]])
        np.testing.assert_allclose(ctx.data[0], r[0], atol=1e-15)


class TestAdaptiveBlend:
    def test_zero_gate_is_even_mixture(self, rng):
        gate = AdaptiveGate(4, rng)
        gate.W_s.data[:] = 0.0
        c = row(rng.standard_normal(4))
        h_lang = row(rng.standard_normal(4))
        blended, beta = adaptive_blend(gate, row(rng.standard_normal(4)), c, h_lang)
        assert beta.data[0, 0] == 0.5
        np.testing.assert_allclose(blended.data, (c.data + h_lang.data) / 2, atol=1e-15)

    def test_saturated_gate_is_visual_only(self, rng):
        gate = AdaptiveGate(1, rng)
        gate.W_s.data[:] = 50.0
        c = row(rng.standard_normal(3))
        blended, beta = adaptive_blend(gate, row([1.0]), c, row(rng.standard_normal(3)))
        assert beta.data[0, 0] > 1.0 - 1e-15
        np.testing.assert_allclose(blended.data, c.data, atol=1e-12)

    def test_dim_mismatch(self, rng):
        gate = AdaptiveGate(4, rng)
        with pytest.raises(ShapeError):
            adaptive_blend(gate, row(rng.standard_normal(4)),
                           row(np.zeros(3)), row(np.zeros(4)))

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_output_is_convex_combination(self, seed):
        rng = np.random.default_rng(seed)
        gate = AdaptiveGate(4, rng)
        c = rng.standard_normal((3, 5))
        h_lang = rng.standard_normal((3, 5))
        blended, beta = adaptive_blend(gate, Tensor(rng.standard_normal((3, 4))),
                                       Tensor(c), Tensor(h_lang))
        assert np.all((0.0 < beta.data) & (beta.data < 1.0)) and beta.shape == (3, 1)
        lo = np.minimum(c, h_lang) - 1e-12
        hi = np.maximum(c, h_lang) + 1e-12
        assert np.all(blended.data >= lo) and np.all(blended.data <= hi)
        # the blend is the exact convex combination
        expect = beta.data * c + (1 - beta.data) * h_lang
        np.testing.assert_allclose(blended.data, expect, atol=1e-12)


class TestParallelBlend:
    def test_zero_gate_is_three_way_mean(self, rng):
        gate = AdaptiveGate(4, rng, arity=3)
        gate.W_s.data[:] = 0.0
        c1, c2, hl = (row(rng.standard_normal(4)) for _ in range(3))
        blended, betas = parallel_adaptive_blend(gate, row(rng.standard_normal(4)),
                                                 c1, c2, hl)
        np.testing.assert_allclose(betas.data, np.full((1, 3), 1 / 3), atol=1e-15)
        np.testing.assert_allclose(blended.data, (c1.data + c2.data + hl.data) / 3,
                                   atol=1e-15)

    def test_saturated_first_logit(self, rng):
        gate = AdaptiveGate(1, rng, arity=3)
        gate.W_s.data[:] = np.array([[50.0], [0.0], [0.0]])
        c1 = row(rng.standard_normal(3))
        blended, betas = parallel_adaptive_blend(
            gate, row([1.0]), c1, row(rng.standard_normal(3)), row(rng.standard_normal(3)))
        assert betas.data[0, 0] > 1.0 - 1e-15
        np.testing.assert_allclose(blended.data, c1.data, atol=1e-12)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_weights_form_distribution_and_hull(self, seed):
        rng = np.random.default_rng(seed)
        gate = AdaptiveGate(4, rng, arity=3)
        vecs = rng.standard_normal((3, 2, 5))
        blended, betas = parallel_adaptive_blend(
            gate, Tensor(rng.standard_normal((2, 4))),
            Tensor(vecs[0]), Tensor(vecs[1]), Tensor(vecs[2]))
        assert np.all(np.abs(betas.data.sum(axis=1) - 1.0) <= 1e-9)
        assert np.all(betas.data > 0.0) and np.all(betas.data < 1.0)
        assert np.all(blended.data >= vecs.min(axis=0) - 1e-12)
        assert np.all(blended.data <= vecs.max(axis=0) + 1e-12)


class TestTraceExport:
    def test_csv_layout(self, tmp_path):
        rows = (TraceRow(np.array([0.25, 0.75]), np.array([0.5])),
                TraceRow(np.array([1.0, 0.0]), np.array([0.125])))
        path = tmp_path / "trace.csv"
        write_trace_csv(path, ["a", "cat"], rows)
        with open(path) as fh:
            got = list(csv.reader(fh))
        assert got[0] == ["step", "token", "alpha_1", "alpha_2", "beta"]
        assert got[1] == ["1", "a", "0.25", "0.75", "0.5"]
        assert got[2] == ["2", "cat", "1", "0", "0.125"]

    def test_three_way_beta_columns(self, tmp_path):
        rows = (TraceRow(np.array([1.0]), np.array([0.2, 0.3, 0.5])),)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, ["w"], rows)
        with open(path) as fh:
            header = next(csv.reader(fh))
        assert header == ["step", "token", "alpha_1", "beta1", "beta2", "beta3"]
