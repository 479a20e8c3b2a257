"""Attention mechanisms: additive soft attention over feature rows, the
scalar adaptive gate and its three-way parallel variant.  All of them are
stateless given their parameters and safe for concurrent read-only use."""

from __future__ import annotations

import csv
from typing import NamedTuple, Optional

import numpy as np

from .errors import EmptyInputError, ShapeError
from .layers import Module, glorot
from .tensor import (
    Tensor, additive_scores, matmul_t, scale_rows, sigmoid, softmax, weighted_sum,
)

__all__ = [
    "AdditiveAttention", "AdaptiveGate", "TraceRow",
    "adaptive_blend", "parallel_adaptive_blend", "write_trace_csv",
]


class AdditiveAttention(Module):
    """Single-layer additive attention.

    Scores each feature row v against a query state h as
    w . tanh(W_a h + U_a v + b_a), normalizes with a softmax, and returns
    the weighted feature sum.  The same scorer serves frame-level
    (temporal) and region-level (spatial) features.  ``bias=False`` drops
    ``b_a``, and ``scores`` is the scoring alone (DA's scorers use both).

    The keys U_a v do not depend on the query.  ``keys(feats)`` computes
    them once per feature set, and ``attend`` takes them so that every
    step of a caption reuses one projection.

    Attention runs over a batch: n (n, query_dim) query rows, row i over
    its own feature set, the i-th of an (n, L, D) tensor of feature sets
    padded to L rows.  ``mask`` (n, L) marks the real rows, and padded
    rows get weight exactly 0; None means every row is real.
    """

    def __init__(self, query_dim: int, feature_dim: int, attn_dim: int,
                 rng: np.random.Generator, bias: bool = True):
        self.query_dim = query_dim
        self.feature_dim = feature_dim
        self.W_a = glorot(rng, attn_dim, query_dim)
        self.U_a = glorot(rng, attn_dim, feature_dim)
        self.b_a = Tensor(np.zeros(attn_dim), requires_grad=True) if bias else None
        self.w = Tensor(glorot(rng, attn_dim, 1).data[:, 0].copy(), requires_grad=True)

    def _check_feats(self, feats: Tensor) -> None:
        if feats.data.ndim != 3 or feats.data.shape[-1] != self.feature_dim:
            raise ShapeError(f"attention expects (n, L, {self.feature_dim}) feature sets, "
                             f"got {feats.data.shape}")
        if feats.data.shape[1] == 0:
            raise EmptyInputError(f"attention over empty feature sets {feats.data.shape}")

    def keys(self, feats: Tensor) -> Tensor:
        """The key projection ``feats @ U_a.T``: (n, L, attn_dim) for
        (n, L, D) feature sets."""
        self._check_feats(feats)
        return matmul_t(feats, self.U_a)

    def attend(self, h: Tensor, feats: Tensor, keys: Tensor,
               mask=None) -> tuple[Tensor, Tensor]:
        """Return (context, alpha) for the n query rows h, row i over the
        feature set ``feats[i]``; ``keys`` is ``self.keys(feats)``.
        Context is (n, D), alpha (n, L), and ``mask`` the (n, L) real rows
        (None: all of them)."""
        self._check_feats(feats)
        if h.data.ndim != 2 or h.shape[1] != self.query_dim or h.shape[0] != feats.shape[0]:
            raise ShapeError(f"attention expects (n, {self.query_dim}) query rows, "
                             f"one per feature set of {feats.shape}, got {h.shape}")
        alpha = softmax(self.scores(h, keys), mask)                        # (n, L)
        return weighted_sum(alpha, feats), alpha

    def scores(self, h: Tensor, keys: Tensor) -> Tensor:
        """(n, L) scores of the n query rows h, row i against ``keys[i]``."""
        bias = () if self.b_a is None else (self.b_a,)
        return additive_scores(keys, matmul_t(h, self.W_a, *bias), self.w)


class AdaptiveGate(Module):
    """Learned gate mixing attended context with the language state.

    arity 1: a sigmoid scalar blends two vectors.
    arity 3: a softmax triple blends two contexts and the language state.
    """

    def __init__(self, hidden_dim: int, rng: np.random.Generator, arity: int = 1):
        if arity not in (1, 3):
            raise ShapeError(f"adaptive gate arity must be 1 or 3, got {arity}")
        self.arity = arity
        self.W_s = glorot(rng, arity, hidden_dim)


def adaptive_blend(gate: AdaptiveGate, h: Tensor, ctx: Tensor,
                   h_lang: Tensor) -> tuple[Tensor, Tensor]:
    """Convex blend: beta*ctx + (1-beta)*h_lang with beta = sigmoid(W_s h),
    one beta per row of the (n, H) operands, as an (n, 1) column."""
    if gate.arity != 1:
        raise ShapeError("adaptive_blend needs an arity-1 gate")
    if ctx.shape != h_lang.shape:
        raise ShapeError(f"blend operands differ: {ctx.shape} vs {h_lang.shape}")
    beta = sigmoid(matmul_t(h, gate.W_s))  # (n, 1)
    blended = scale_rows(ctx, beta, 0) + scale_rows(h_lang, 1.0 - beta, 0)
    return blended, beta


def parallel_adaptive_blend(gate: AdaptiveGate, h: Tensor, ctx1: Tensor,
                            ctx2: Tensor, h_lang: Tensor) -> tuple[Tensor, Tensor]:
    """Three-way blend of two attended contexts and the language state.

    The weights are a softmax over W_s h, so they are positive and sum
    to one; the result stays inside the coordinate-wise hull of its
    three inputs.  (n, H) rows get (n, 3) weights.
    """
    if gate.arity != 3:
        raise ShapeError("parallel_adaptive_blend needs an arity-3 gate")
    if not (ctx1.shape == ctx2.shape == h_lang.shape):
        raise ShapeError(
            f"blend operands differ: {ctx1.shape}, {ctx2.shape}, {h_lang.shape}")
    betas = softmax(matmul_t(h, gate.W_s))  # (n, 3)
    blended = (scale_rows(ctx1, betas, 0) + scale_rows(ctx2, betas, 1)
               + scale_rows(h_lang, betas, 2))
    return blended, betas


class TraceRow(NamedTuple):
    """Attention internals recorded for one decoding step: a step over n
    rows records (n, ·) arrays, and ``pick(i)`` is row i's own row.  Over
    clips padded to a common length, ``mask`` marks each row's real
    columns of ``alpha``, and ``pick`` keeps only those, so a clip's row
    has the width it has when decoded alone."""
    alpha: np.ndarray
    beta: np.ndarray
    mask: Optional[np.ndarray] = None

    def pick(self, i: int) -> "TraceRow":
        alpha = self.alpha[i] if self.mask is None else self.alpha[i][self.mask[i]]
        return TraceRow(alpha, self.beta[i])


def write_trace_csv(path, tokens: list[str], rows) -> None:
    """Dump per-step attention weights for one sample.

    Columns: step, token, alpha_1..alpha_n, then beta (or beta1..beta3).
    ``tokens`` labels each step with the word generated at that step.
    """
    if not rows:
        raise EmptyInputError("no trace rows to write")
    n_alpha = len(rows[0].alpha)
    n_beta = len(rows[0].beta)
    beta_cols = ["beta"] if n_beta == 1 else [f"beta{i + 1}" for i in range(n_beta)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "token"]
                        + [f"alpha_{i + 1}" for i in range(n_alpha)] + beta_cols)
        for step, row in enumerate(rows, start=1):
            token = tokens[step - 1] if step - 1 < len(tokens) else ""
            writer.writerow([step, token]
                            + [f"{a:.10g}" for a in row.alpha]
                            + [f"{b:.10g}" for b in row.beta])
