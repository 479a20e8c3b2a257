"""Two-pass image-caption decoder with deliberation.

The first LSTM drafts: it reads [global feature; previous second-pass
hidden; word embedding], a residual word shortcut reprojects [word;
hidden], and region attention pools a first visual context.  The second
LSTM proofreads: a gated transform of its memory acts as an extra
"language" attention slot (the sentinel) next to the regions, and the
word distribution comes from fusing the draft hidden, the refined hidden
and the second attended vector.

Decoding runs ``da_step`` once per word on a state of n rows over one
image's regions (the rows protocol of ``decoders.py``): beam search steps
all its hypotheses in one call, greedy and sampled decoding one row.
Every product of the step is one GEMV per row (``matvec_rows``), so each
row equals the step of that row alone bit for bit.  Teacher forcing runs
a whole batch in one pass on (B, H) states with GEMM products, which
gives what ``da_step`` gives within rounding and is faster at training
batch sizes.  The first LSTM reads the previous second-pass hidden,
so both passes share one loop over the steps, each step on (B, ·) rows.
Regions are padded to (B, L, D) with a row mask and their keys computed
once per batch, and the sentinel is one more always-unmasked column of
the second attention's row softmax.  The fusion ``W_sd``, the word head
and ``log_softmax`` run once over the B·T rows after the loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .attention import TraceRow
from .data import FeatureSet
from .decoders import (
    _as_batch, _drop, _dropout_masks, _head_log_probs, _pad_rows, _repeat_row,
)
from .errors import ConfigError, ContractError, ShapeError
from .layers import Embedding, Linear, LstmCell, Module, dropout, glorot
from .tensor import (
    Tensor, additive_scores, concat, matmul, matmul_t, matvec_rows, narrow, reshape, scale_rows,
    sigmoid, softmax, stack_rows, take_row, take_rows, tanh, transpose, weighted_sum, zeros,
)

__all__ = ["DaConfig", "DaState", "DeliberateDecoder", "da_step",
           "da_first_pass_distribution"]


@dataclass
class DaConfig:
    vocab_size: int
    hidden_dim: int = 512
    embed_dim: int = 512
    attn_dim: int = 512
    region_dim: int = 2048
    global_dim: int = 2048
    first_pass_head: bool = False  # auxiliary draft-word head
    deliberate: bool = True        # False drops the whole second pass
    dropout: float = 0.0
    seed: int = 0

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


@dataclass(frozen=True)
class DaState:
    """Immutable decoder state of n rows; ``da_step`` returns a fresh one."""
    h1: Tensor
    m1: Tensor
    h2: Tensor
    m2: Tensor
    feats: tuple                   # ((1, G) global row, regions, attn1 keys, attn2 keys)
    draft: Optional[tuple] = None  # (h1_tilde, v1_hat) rows of the latest step
    row: Optional[TraceRow] = None  # the latest step's trace rows

    def take(self, idx) -> "DaState":
        """The state of rows ``idx``, ready to step."""
        return DaState(take_rows(self.h1, idx), take_rows(self.m1, idx),
                       take_rows(self.h2, idx), take_rows(self.m2, idx), self.feats)


class _ScoredAttention(Module):
    """Bias-free additive scorer w . tanh(W_v v + W_h h) over region rows;
    the keys W_v v are computed once per caption, or once per batch of
    (B, L, D) padded regions, by ``keys``."""

    def __init__(self, query_dim, feature_dim, attn_dim, rng):
        self.W_v = glorot(rng, attn_dim, feature_dim)
        self.W_h = glorot(rng, attn_dim, query_dim)
        self.w = Tensor(glorot(rng, attn_dim, 1).data[:, 0].copy(), requires_grad=True)

    def keys(self, feats: Tensor) -> Tensor:
        """(L, attn) keys of (L, D) regions; (B, L, attn) of a batch."""
        if feats.data.ndim == 2:
            return matmul_t(feats, self.W_v)
        batch, rows, dim = feats.shape
        return reshape(matmul_t(reshape(feats, (batch * rows, dim)), self.W_v),
                       (batch, rows, self.W_v.shape[0]))

    def scores(self, h: Tensor, keys: Tensor) -> Tensor:
        """(n, L) scores of n (n, H) queries over one image's (L, attn)
        keys, with per-row GEMVs; (B, L) of (B, H) queries over a batch's
        (B, L, attn) keys."""
        q = matvec_rows(h, self.W_h) if keys.data.ndim == 2 else matmul_t(h, self.W_h)
        return additive_scores(keys, q, self.w)


class DeliberateDecoder(Module):
    """Deliberate-attention decoder (variant tag "DA" in checkpoints)."""

    variant = "da"

    def __init__(self, config: DaConfig):
        c = config
        if not c.deliberate and not c.first_pass_head:
            raise ConfigError("disabling deliberation requires the first-pass head")
        self.config = config
        rng = config.rng()
        self.embed = Embedding(c.vocab_size, c.embed_dim, rng)
        self.lstm1 = LstmCell(c.global_dim + c.hidden_dim + c.embed_dim, c.hidden_dim, rng)
        self.W_rd = Linear(c.embed_dim + c.hidden_dim, c.hidden_dim, rng, bias=False)
        self.attn1 = _ScoredAttention(c.hidden_dim, c.region_dim, c.attn_dim, rng)
        if c.first_pass_head:
            self.first_head = Linear(c.hidden_dim + c.region_dim, c.vocab_size, rng)
        else:
            self.first_head = None
        if c.deliberate:
            y2_dim = c.global_dim + c.hidden_dim + c.region_dim
            self.lstm2 = LstmCell(y2_dim, c.hidden_dim, rng)
            self.W_x = glorot(rng, c.hidden_dim, y2_dim)
            self.W_h = glorot(rng, c.hidden_dim, c.hidden_dim)
            self.attn2 = _ScoredAttention(c.hidden_dim, c.region_dim, c.attn_dim, rng)
            # sentinel slot score: w_a . tanh(W_s s + W_h3 h2)
            self.W_s = glorot(rng, c.attn_dim, c.hidden_dim)
            self.W_h3 = glorot(rng, c.attn_dim, c.hidden_dim)
            self.w_a = Tensor(glorot(rng, c.attn_dim, 1).data[:, 0].copy(),
                              requires_grad=True)
            # the sentinel competes with region rows, so it must share their dim
            if c.hidden_dim != c.region_dim:
                self.sentinel_proj = Linear(c.hidden_dim, c.region_dim, rng, bias=False)
            else:
                self.sentinel_proj = None
            self.W_sd = Linear(2 * c.hidden_dim + c.region_dim, c.hidden_dim, rng, bias=False)
            self.out = Linear(c.hidden_dim, c.vocab_size, rng)

    def init_state(self, features: FeatureSet) -> DaState:
        v_g = Tensor(features.require("global"))
        regions = Tensor(features.require("spatial"))
        c = self.config
        if v_g.shape != (c.global_dim,):
            raise ConfigError(f"global feature dim {v_g.shape} != configured {c.global_dim}")
        keys1 = keys2 = None
        if regions.shape[1] == c.region_dim:    # else da_step reports the mismatch
            keys1 = self.attn1.keys(regions)
            keys2 = self.attn2.keys(regions) if c.deliberate else None
        z = zeros(1, c.hidden_dim)
        return DaState(z, z, z, z, (reshape(v_g, (1, -1)), regions, keys1, keys2))

    def step(self, state: DaState, token_ids, training: bool = False, rng=None):
        v_g, regions = state.feats[:2]
        return da_step(self, state, token_ids, v_g, regions, training=training, rng=rng)

    def forward_teacher_forced(self, features, tokens, training=False, rng=None,
                               with_aux: bool = False):
        """Teacher-forced log-probs, (T, vocab) for one caption and
        (B, T, vocab) for a batch (see the module docstring); with_aux
        also returns the draft head's rows."""
        c = self.config
        if with_aux and self.first_head is None:
            raise ConfigError("the first-pass head is disabled in this configuration")
        batch = _as_batch(features, tokens)
        (masks,) = _dropout_masks((self,), batch.steps, 2 if c.deliberate else 1,
                                  training, rng)
        width, steps = batch.ids.shape[0], batch.ids.shape[1] - 1
        v_g, regions, mask = _da_inputs(self, batch.feats)
        words = self.embed.lookup(batch.ids[:, :-1].T)                  # (T, B, E)
        keys1 = self.attn1.keys(regions)
        if c.deliberate:
            keys2 = self.attn2.keys(regions)
            mask2 = np.concatenate([mask, np.ones((width, 1), dtype=bool)], axis=1)

        need_drafts = with_aux or not c.deliberate
        h1 = m1 = h2 = m2 = zeros(width, c.hidden_dim)
        drafts, fused = [], []
        for t in range(steps):
            w_t = take_row(words, t)
            y1 = concat([v_g, h2, w_t], axis=1)
            out1 = self.lstm1.step(self.lstm1.input_products(y1), h1, m1)
            h1, m1 = out1.h, out1.m
            h1_tilde = self.W_rd(concat([w_t, _drop(h1, masks, t, 0)], axis=1))
            alpha1 = softmax(self.attn1.scores(h1_tilde, keys1), mask)
            v1_hat = weighted_sum(alpha1, regions)
            if need_drafts:
                drafts.append(concat([h1_tilde, v1_hat], axis=1))
            if not c.deliberate:
                continue
            y2 = concat([v_g, h1_tilde, v1_hat], axis=1)
            out2 = self.lstm2.step(self.lstm2.input_products(y2), h2, m2)
            h2_d = _drop(out2.h, masks, t, 1)
            s = sigmoid(matmul_t(y2, self.W_x) + matmul_t(h2, self.W_h)) * tanh(out2.m)
            h2, m2 = out2.h, out2.m
            sent = matmul(tanh(matmul_t(s, self.W_s) + matmul_t(h2_d, self.W_h3)), self.w_a)
            alpha2 = softmax(concat([self.attn2.scores(h2_d, keys2), reshape(sent, (width, 1))],
                                    axis=1), mask2)
            s_vis = self.sentinel_proj(s) if self.sentinel_proj is not None else s
            v2_hat = weighted_sum(alpha2, concat([regions, reshape(s_vis, (width, 1, -1))],
                                                 axis=1))
            fused.append(concat([h1_tilde, h2_d, v2_hat], axis=1))

        draft = main = None
        if need_drafts:
            draft = main = _head_log_probs(self.first_head, stack_rows(drafts), batch.single)
        if c.deliberate:
            main = _head_log_probs(lambda x: self.out(self.W_sd(x)), stack_rows(fused),
                                   batch.single)
        return (main, draft) if with_aux else main


def _da_inputs(dec: DeliberateDecoder, feats: list) -> tuple[Tensor, Tensor, np.ndarray]:
    """The (B, G) global vectors, the (B, L, D) regions padded to the
    longest set, and its (B, L) mask of real regions."""
    c = dec.config
    for f in feats:
        v_g, regions = f.require("global"), f.require("spatial")
        if v_g.shape != (c.global_dim,):
            raise ConfigError(f"global feature dim {v_g.shape} != configured {c.global_dim}")
        if regions.shape[0] < 1:
            raise ContractError("teacher forcing needs at least one region")
        if regions.shape[1] != c.region_dim:
            raise ShapeError(f"regions have dim {regions.shape[1]}, "
                             f"the region attention expects {c.region_dim}")
    regions, mask = _pad_rows([f.spatial for f in feats])
    return Tensor(np.stack([f.global_vec for f in feats])), regions, mask


def da_step(dec: DeliberateDecoder, state: DaState, token_ids,
            v_g: Tensor, regions: Tensor, training: bool = False, rng=None):
    """One decoding step of the state's n rows on n token ids; returns
    the (n, vocab) word distributions and the new state.  ``v_g`` is the
    image's (1, G) global row and ``regions`` its (L, D) regions, whose
    attention keys come from ``state.feats``."""
    c = dec.config
    L = regions.data.shape[0]
    if L < 1:
        raise ContractError("da_step needs at least one region")
    keys1, keys2 = state.feats[2:]
    if keys1 is None:
        raise ShapeError(f"da_step: regions have dim {regions.data.shape[1]}, "
                         f"the region attention expects {c.region_dim}")
    n = len(token_ids)
    w_t = dec.embed.lookup_one(token_ids)
    g_rows = _repeat_row(v_g, n)
    regions_t = transpose(regions)

    # first pass: draft hidden with residual word shortcut, region attention
    y1 = concat([g_rows, state.h2, w_t], axis=1)
    out1 = dec.lstm1.step(y1, state.h1, state.m1)
    h1_d = dropout(out1.h, c.dropout, training, rng)
    h1_tilde = dec.W_rd(concat([w_t, h1_d], axis=1), per_row=True)
    alpha1 = softmax(dec.attn1.scores(h1_tilde, keys1))
    v1_hat = matvec_rows(alpha1, regions_t)

    if not c.deliberate:
        p = softmax(dec.first_head(concat([h1_tilde, v1_hat], axis=1), per_row=True))
        return p, DaState(out1.h, out1.m, state.h2, state.m2, state.feats,
                          draft=(h1_tilde, v1_hat),
                          row=TraceRow(alpha1.data, np.ones((n, 1))))

    # second pass: sentinel-augmented attention over regions + language slot
    y2 = concat([g_rows, h1_tilde, v1_hat], axis=1)
    out2 = dec.lstm2.step(y2, state.h2, state.m2)
    h2_d = dropout(out2.h, c.dropout, training, rng)
    g = sigmoid(matvec_rows(state.h2, dec.W_h, matvec_rows(y2, dec.W_x)))
    s = g * tanh(out2.m)
    e2 = dec.attn2.scores(h2_d, keys2)
    sent_score = matvec_rows(tanh(matvec_rows(h2_d, dec.W_h3, matvec_rows(s, dec.W_s))),
                             reshape(dec.w_a, (1, -1)))
    alpha2 = softmax(concat([e2, sent_score], axis=1))
    s_vis = dec.sentinel_proj(s, per_row=True) if dec.sentinel_proj is not None else s
    v2_hat = matvec_rows(narrow(alpha2, 0, L), regions_t) + scale_rows(s_vis, alpha2, L)
    h2_tilde = dec.W_sd(concat([h1_tilde, h2_d, v2_hat], axis=1), per_row=True)
    p = softmax(dec.out(h2_tilde, per_row=True))
    return p, DaState(out1.h, out1.m, out2.h, out2.m, state.feats,
                      draft=(h1_tilde, v1_hat), row=TraceRow(alpha2.data, alpha2.data[:, L:]))


def da_first_pass_distribution(dec: DeliberateDecoder, state: DaState) -> Tensor:
    """Auxiliary (n, vocab) draft-word distributions from the latest
    step's first pass."""
    if dec.first_head is None:
        raise ConfigError("the first-pass head is disabled in this configuration")
    if state.draft is None:
        raise ContractError("no step has been taken from this state yet")
    h1_tilde, v1_hat = state.draft
    return softmax(dec.first_head(concat([h1_tilde, v1_hat], axis=1), per_row=True))
