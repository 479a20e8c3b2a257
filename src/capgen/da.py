"""Two-pass image-caption decoder with deliberation.

The first LSTM drafts: it reads [global feature; previous second-pass
hidden; word embedding], a residual word shortcut reprojects [word;
hidden], and region attention pools a first visual context.  The second
LSTM proofreads: a gated transform of its memory acts as an extra
"language" attention slot (the sentinel) next to the regions, and the
word distribution comes from fusing the draft hidden, the refined hidden
and the second attended vector.  Every scorer is a bias-free
``AdditiveAttention``: ``attn1`` attends over the regions, ``attn2``
scores them, and ``sentinel`` scores each row's sentinel (the visual
sentinel of Lu et al. 2017, arXiv:1612.01887) as a one-row feature set.

One step body runs both passes on a state's rows, for decoding and for
teacher forcing alike, with the same products (``tensor.matmul_t``).
``init_state`` builds the ``DecoderState`` over n images (``h``/``m``
the first LSTM, ``h_top``/``m_top`` the second): it checks each feature
set's widths, pads the regions to (n, L, D) with a row mask, and
computes the region keys once.  Row i attends over image i's regions;
the sentinel score is one more always-unmasked softmax column.  The
first LSTM reads the previous second-pass hidden, so the passes share
one loop over the steps.  When teacher forcing, the fusion ``W_sd``, the
word head and ``log_softmax`` then run once over the B·T rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import AdditiveAttention, TraceRow
from .decoders import (
    DecoderState, _as_batch, _drop, _dropout_masks, _head_log_probs, _pad_rows,
)
from .errors import ConfigError, ShapeError
from .layers import Embedding, Linear, LstmCell, Module, glorot
from .tensor import (
    Tensor, concat, matmul_t, narrow, reshape, scale_rows, sigmoid, softmax, stack_rows,
    take_rows, tanh, weighted_sum, zeros,
)

__all__ = ["DaConfig", "DeliberateDecoder", "da_step"]


@dataclass
class DaConfig:
    vocab_size: int
    hidden_dim: int = 512
    embed_dim: int = 512
    attn_dim: int = 512
    region_dim: int = 2048
    global_dim: int = 2048
    dropout: float = 0.0
    seed: int = 0


class DeliberateDecoder(Module):
    """Deliberate-attention decoder (variant tag "da" in checkpoints)."""

    variant = "da"

    def __init__(self, config: DaConfig):
        c = config
        self.config = config
        rng = np.random.default_rng(c.seed)
        self.embed = Embedding(c.vocab_size, c.embed_dim, rng)
        self.lstm1 = LstmCell(c.global_dim + c.hidden_dim + c.embed_dim, c.hidden_dim, rng)
        self.W_rd = Linear(c.embed_dim + c.hidden_dim, c.hidden_dim, rng, bias=False)
        self.attn1 = AdditiveAttention(c.hidden_dim, c.region_dim, c.attn_dim, rng, bias=False)
        y2_dim = c.global_dim + c.hidden_dim + c.region_dim
        self.lstm2 = LstmCell(y2_dim, c.hidden_dim, rng)
        self.W_x = glorot(rng, c.hidden_dim, y2_dim)
        self.W_h = glorot(rng, c.hidden_dim, c.hidden_dim)
        self.attn2 = AdditiveAttention(c.hidden_dim, c.region_dim, c.attn_dim, rng, bias=False)
        self.sentinel = AdditiveAttention(c.hidden_dim, c.hidden_dim, c.attn_dim, rng, bias=False)
        # the sentinel competes with region rows, so it must share their dim
        self.sentinel_proj = (Linear(c.hidden_dim, c.region_dim, rng, bias=False)
                              if c.hidden_dim != c.region_dim else None)
        self.W_sd = Linear(2 * c.hidden_dim + c.region_dim, c.hidden_dim, rng, bias=False)
        self.out = Linear(c.hidden_dim, c.vocab_size, rng)

    def init_state(self, features) -> DecoderState:
        """The (n, ·) state over n images' ``FeatureSet``s, their regions
        padded to (n, L, D) with the (n, L) mask of real ones (None when
        none is padded).  Each set's feature widths are checked and the
        region keys computed here, once."""
        c = self.config
        sets = list(features)
        for f in sets:
            if f.require("global").shape != (c.global_dim,):
                raise ConfigError(f"global feature dim {f.global_vec.shape} "
                                  f"!= configured {c.global_dim}")
            width = f.require("spatial").shape[1]
            if width != c.region_dim:
                raise ShapeError(f"DA init_state: regions have dim {width}, "
                                 f"the region attention expects {c.region_dim}")
        regions, mask = _pad_rows([f.spatial for f in sets])
        z = zeros(len(sets), c.hidden_dim)
        v_g = Tensor(np.stack([f.global_vec for f in sets]))
        return DecoderState(z, z, z, z, (v_g, regions, self.attn1.keys(regions),
                                         self.attn2.keys(regions), mask))

    def step(self, state: DecoderState, token_ids, rng=None):
        return da_step(self, state, token_ids, rng)

    def forward_teacher_forced(self, features, tokens, rng=None):
        """Teacher-forced log-probs, (T, vocab) for one caption and
        (B, T, vocab) for a batch (see the module docstring)."""
        batch = _as_batch(features, tokens)
        (masks,) = _dropout_masks((self,), batch.steps, 2, rng)
        state = self.init_state(batch.feats)
        words = self.embed.lookup(batch.ids[:, :-1].T)                  # (T, B, E)
        fused = []
        for t in range(batch.ids.shape[1] - 1):
            rows, state = _da_body(self, state, take_rows(words, t), masks, t)
            fused.append(rows)
        return _head_log_probs(lambda x: self.out(self.W_sd(x)), stack_rows(fused),
                               batch.single)


def _da_body(dec: DeliberateDecoder, state: DecoderState, w_t: Tensor, masks, t: int):
    """Both passes of one step on the state's n rows, given their (n, E)
    word rows: returns the fused rows [h1~; h2_d; v2^] that ``W_sd`` and
    the word head read, and the new state.  Step ``t`` of the
    (T, n, 2, H) dropout ``masks`` (None: no dropout) drops the first
    (layer 0) and second (layer 1) hidden."""
    v_g, regions, keys1, keys2, mask = state.feats
    n, L = w_t.shape[0], regions.shape[1]

    # first pass: draft hidden with residual word shortcut, region attention
    y1 = concat([v_g, state.h_top, w_t], axis=1)
    out1 = dec.lstm1.step(dec.lstm1.input_products(y1), state.h, state.m)
    h1_tilde = dec.W_rd(concat([w_t, _drop(out1.h, masks, t, 0)], axis=1))
    v1_hat, _ = dec.attn1.attend(h1_tilde, regions, keys1, mask)

    # second pass: sentinel-augmented attention over regions + language slot
    y2 = concat([v_g, h1_tilde, v1_hat], axis=1)
    out2 = dec.lstm2.step(dec.lstm2.input_products(y2), state.h_top, state.m_top)
    h2_d = _drop(out2.h, masks, t, 1)
    s = sigmoid(matmul_t(state.h_top, dec.W_h, matmul_t(y2, dec.W_x))) * tanh(out2.m)
    sent = dec.sentinel.scores(h2_d, dec.sentinel.keys(reshape(s, (n, 1, s.shape[1]))))
    mask2 = None if mask is None else np.concatenate([mask, np.ones((n, 1), dtype=bool)], 1)
    alpha2 = softmax(concat([dec.attn2.scores(h2_d, keys2), sent], axis=1), mask2)
    s_vis = dec.sentinel_proj(s) if dec.sentinel_proj is not None else s
    v2_hat = weighted_sum(narrow(alpha2, 0, L), regions) + scale_rows(s_vis, alpha2, L)
    return concat([h1_tilde, h2_d, v2_hat], axis=1), DecoderState(
        out1.h, out1.m, out2.h, out2.m, state.feats,
        row=TraceRow(alpha2.data, alpha2.data[:, L:], mask2))


def da_step(dec: DeliberateDecoder, state: DecoderState, token_ids, rng=None):
    """One decoding step of the state's n rows on n token ids, over the
    image's regions in ``state.feats``; returns the (n, vocab) word
    distributions and the new state.  Given an ``rng``, dropout draws each
    row's two masks from it as one (1, 2, H) draw of ``_dropout_masks``."""
    (masks,) = _dropout_masks((dec,), [1] * len(token_ids), 2, rng)
    fused, state = _da_body(dec, state, dec.embed.lookup_one(token_ids), masks, 0)
    return softmax(dec.out(dec.W_sd(fused))), state
