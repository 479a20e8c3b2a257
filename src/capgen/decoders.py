"""Caption decoders built on the hierarchical two-LSTM design.

Variants share one step pipeline: the bottom LSTM reads the previous word
embedding, the top LSTM refines the bottom hidden state, additive
attention pools visual features with the bottom hidden as query, a gate
mixes the attended context with the top hidden state, and a two-layer MLP
over the bottom hidden and the blended context emits the word
distribution.  The mean of a feature set, which a two-LSTM initial state
reads and which ``basic`` reads at every step, needs no gradient, so
numpy computes it.  ``build_variant`` wires the six published
configurations: a single-LSTM baseline, temporal/spatial attention,
concatenation fusion, parallel adaptive attention, and two fused streams.

Every decoder (``da.DeliberateDecoder`` too) follows one protocol, the
rows protocol, and every state is a batch of clips: a ``DecoderState``,
or for two streams a ``TwoStreamState`` of two.
``init_state(features)`` takes a sequence of n ``FeatureSet``s and builds
the n-row state whose row i reads clip i.  Its ``feats`` hold each row's
own features: a two-LSTM state the (n, L, D) features padded to the
longest clip, the attention keys ``feats @ U_a.T`` next to them, and the
(n, L) mask of real feature rows, None when no clip is padded; ``basic``
the (n, D) mean frames.  ``init_state`` computes the keys once, and
every step reuses them.  It first checks each clip's attended features
(``basic``'s frames) against the width the decoder was built for, and a
clip that differs is a ``ClipShapeError`` that names its place.
``step(state, token_ids, rng=None) -> (p, state)`` steps a state of n
rows on n token ids, one per row, and returns the (n, vocab) word
distributions and a fresh state whose ``row`` is that step's
``TraceRow(alpha, beta, mask)`` of (n, ·) arrays, ``mask`` the real
columns of a padded ``alpha``.  ``state.take(idx)`` gathers rows by
index, each with its features, so beam search steps all its live
hypotheses as one state and keeps the survivors' rows.  Decoders only
step; ``search.py`` holds the loops that step them.  Greedy decoding
steps one row per clip, all the clips it is given in one state, and
self-critical training the two-row state of ``init_state([features,
features])`` under one tape, row 0 sampling its caption and row 1
decoding the greedy baseline; both run ``search._rows``.  States never
collect trace rows; the search gathers them along a caption.

Decoding and teacher forcing take every weight product through one op:
one ``tensor.matmul_t`` over the rows at hand with its addends folded
in, and one per LSTM step for all four gates, whose gate arithmetic is
one ``tensor.lstm_cell`` node.  It is a GEMM, except that 2 to 8 rows
against a paper-size weight (a beam-5 step, a few-clip greedy decode, a
self-critical step, a teacher-forced recurrence over a batch of up to 8
captions) run one GEMM per cache-sized block of the weight's output
rows.  Their input gradient has its own rule, one GEMM per 64 weight
rows, which timed inside paper-size self-critical steps costs about 0.4x
the forward's blocks (the table at ``tensor._BACK_ROWS``).  So a one-row
step (a one-clip greedy decode) has the bits of matrix-vector products,
and row i of a step over n rows agrees with row i stepped alone within
rounding (a beam-5 log-prob by about 1e-15; the blocked products differ
in their last bits from one GEMM): at a near-tie, a many-clip greedy
decode, or a self-critical baseline, may pick another token than a
one-clip decode.

``forward_teacher_forced(features, tokens, rng=None)`` takes one
caption, a ``FeatureSet`` and its token ids, and returns (T, vocab)
log-probs; or a batch, a sequence of B ``FeatureSet``s and a
``CaptionBatch``, and returns (B, T, vocab) log-probs, T being the
batch's padded step count.  A single caption is a batch of one.  It
gives what running ``step`` once per word gives, within rounding, with
the same layers.  Every input is known up front, so the two-LSTM and
basic decoders run in phases: one embedding gather and one GEMM for the
four gates' input products of an LSTM whose input does not feed back, one
recurrence (``_recur``) per LSTM on (B, H) states from ``init_state``,
then attention once per step, after the top recurrence, since neither
LSTM reads the attended context, over its (B, L, D) feature sets (padded
rows weigh exactly 0), and one word head and ``log_softmax`` over all B·T
rows.  Padded steps of a shorter caption run too; the loss masks them, so
they add exactly 0 to every gradient.  A decoder drops out only when
given an ``rng``: training passes its epoch's, decoding and validation
none.  Every dropout mask, a step's too, comes from ``_dropout_masks``
(caption by caption, or row by row, in batch order, each as one draw)
and is applied by ``_drop``, so a seeded caption draws one stream
whether it is teacher-forced or stepped.  The two-stream decoder
teacher-forces each stream on its own (``stream_teacher_forced``);
``da`` runs its decoding step's body once per step over the batch (see
``da.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .attention import (
    AdaptiveGate, AdditiveAttention, TraceRow, adaptive_blend, parallel_adaptive_blend,
)
from .data import BOS_ID, CaptionBatch, FeatureSet
from .errors import ClipShapeError, ConfigError, ContractError, ShapeError
from .layers import Embedding, Linear, LstmCell, Module, dropout_mask
from .tensor import (
    Tensor, concat, log_softmax, reshape, softmax, stack_rows, take_rows, tanh, transpose,
    zeros,
)

__all__ = [
    "DecoderConfig", "DecoderState", "TwoStreamState",
    "BasicDecoder", "HierarchicalDecoder", "ParallelDecoder", "TwoStreamDecoder",
    "build_variant", "check_variant", "two_stream_fuse", "VARIANTS",
]

VARIANTS = ("basic", "hlstmat_temporal", "hlstmat_spatial", "conf", "para", "two_stream", "da")


@dataclass
class DecoderConfig:
    vocab_size: int
    hidden_dim: int = 512
    embed_dim: int = 512
    attn_dim: int = 512
    feature_dim: int = 512      # width of the attended (appearance) features
    motion_dim: int | None = None  # second feature width for conf/para/two_stream
    use_adaptive_gate: bool = True  # False realizes the gate-free ablation
    dropout: float = 0.0
    seed: int = 0


@dataclass(frozen=True)
class DecoderState:
    """Immutable state of n rows; step() returns a fresh one.  ``h``/``m``
    is the bottom LSTM (DA: the first), ``h_top``/``m_top`` the top one."""
    h: Tensor
    m: Tensor
    h_top: Tensor
    m_top: Tensor
    feats: tuple                    # (features, keys, mask) per attention
    row: Optional[TraceRow] = None  # the latest step's trace rows

    def take(self, idx) -> "DecoderState":
        """Rows ``idx`` of the state and of each entry of ``feats`` (a
        None mask stays None), ready to step."""
        feats = tuple(f if f is None else f[idx] if isinstance(f, np.ndarray)
                      else take_rows(f, idx) for f in self.feats)
        return DecoderState(take_rows(self.h, idx), take_rows(self.m, idx),
                            take_rows(self.h_top, idx), take_rows(self.m_top, idx), feats)


def _nearest_segment_rows(frames: np.ndarray, segments: np.ndarray) -> np.ndarray:
    """Map each frame to the temporally nearest motion segment's feature."""
    n_frames, n_seg = frames.shape[0], segments.shape[0]
    if n_frames == 1:
        idx = np.zeros(1, dtype=int)
    else:
        idx = np.rint(np.arange(n_frames) * (n_seg - 1) / (n_frames - 1)).astype(int)
    return segments[idx]


def _word_logits(dec, x: Tensor) -> Tensor:
    """Word MLP logits U_p tanh(W_p x + b_p) + d over the decoder's
    ``out_hidden`` and ``out_vocab`` layers, for (n, d) rows ``x``."""
    return dec.out_vocab(tanh(dec.out_hidden(x)))


class BasicDecoder(Module):
    """Single-LSTM baseline: the mean-pooled feature vector is concatenated
    to the word embedding at every step; no attention, no gate."""

    variant = "basic"

    def __init__(self, config: DecoderConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        c = config
        self.embed = Embedding(c.vocab_size, c.embed_dim, rng)
        self.lstm = LstmCell(c.embed_dim + c.feature_dim, c.hidden_dim, rng)
        self.out_hidden = Linear(c.hidden_dim, c.hidden_dim, rng)
        self.out_vocab = Linear(c.hidden_dim, c.vocab_size, rng)

    def init_state(self, features) -> DecoderState:
        """The state over n clips' ``FeatureSet``s; its one feature is the
        (n, D) mean frame of each clip (see ``_check_widths``)."""
        sets = list(features)
        _check_widths([f.require("temporal").shape[1] for f in sets], self.config.feature_dim)
        vbar = Tensor(np.stack([f.temporal.mean(axis=0) for f in sets]))
        h = zeros(len(vbar.data), self.config.hidden_dim)
        return DecoderState(h, h, h, h, (vbar,))

    def step(self, state: DecoderState, token_ids, rng=None):
        (vbar,) = state.feats
        n = len(token_ids)
        (masks,) = _dropout_masks((self,), [1] * n, 1, rng)
        y = concat([self.embed.lookup_one(token_ids), vbar], axis=1)
        out = self.lstm.step(self.lstm.input_products(y), state.h, state.m)
        p = softmax(_word_logits(self, _drop(out.h, masks, 0, 0)))
        row = TraceRow(np.ones((n, 1)), np.ones((n, 1)))
        return p, DecoderState(out.h, out.m, out.h, out.m, state.feats, row)

    def forward_teacher_forced(self, features, tokens, rng=None):
        """Teacher-forced log-probs (see the module docstring): the pooled
        features of ``init_state`` join the words in one GEMM for all gates,
        then T batched LSTM steps and one word head over the B·T rows."""
        batch = _as_batch(features, tokens)
        (masks,) = _dropout_masks((self,), batch.steps, 1, rng)
        steps = batch.ids.shape[1] - 1
        state = self.init_state(batch.feats)
        (vbar,) = state.feats
        words = self.embed.lookup(batch.ids[:, :-1].T)                  # (T, B, E)
        ys = concat([words, Tensor(np.broadcast_to(vbar.data, (steps,) + vbar.shape))], axis=2)
        rows = _recur(self.lstm, ys, state.h, state.m, masks, 0)
        return _head_log_probs(lambda x: _word_logits(self, x), stack_rows(rows), batch.single)


class HierarchicalDecoder(Module):
    """Two-LSTM decoder with additive attention and the adaptive gate.

    ``attend_kind`` picks the attention source: "temporal" frames,
    "spatial" regions, or "fused" frame+motion concatenation.  With
    ``use_adaptive_gate=False`` the gate is removed and the attended
    context feeds the word MLP directly (the gate-free ablation).
    """

    def __init__(self, config: DecoderConfig, attend_kind: str = "temporal"):
        if attend_kind not in ("temporal", "spatial", "fused"):
            raise ConfigError(f"unknown attention source {attend_kind!r}")
        self.config = config
        self.attend_kind = attend_kind
        self.variant = {"temporal": "hlstmat_temporal", "spatial": "hlstmat_spatial",
                        "fused": "conf"}[attend_kind]
        c = config
        ctx_dim = c.feature_dim
        if attend_kind == "fused":
            if c.motion_dim is None:
                raise ConfigError("conf decoder needs motion_dim")
            ctx_dim = c.feature_dim + c.motion_dim
        if c.use_adaptive_gate and ctx_dim != c.hidden_dim:
            raise ConfigError(
                f"adaptive gate blends the attended context (dim {ctx_dim}) with the top "
                f"hidden state (dim {c.hidden_dim}); these must match")
        rng = np.random.default_rng(c.seed)
        self.embed = Embedding(c.vocab_size, c.embed_dim, rng)
        self.bottom = LstmCell(c.embed_dim, c.hidden_dim, rng)
        self.top = LstmCell(c.hidden_dim, c.hidden_dim, rng)
        self.init_h = Linear(ctx_dim, c.hidden_dim, rng, bias=False)
        self.init_m = Linear(ctx_dim, c.hidden_dim, rng, bias=False)
        self.attn = AdditiveAttention(c.hidden_dim, ctx_dim, c.attn_dim, rng)
        self.gate = AdaptiveGate(c.hidden_dim, rng) if c.use_adaptive_gate else None
        self.out_hidden = Linear(c.hidden_dim + ctx_dim, c.hidden_dim, rng)
        self.out_vocab = Linear(c.hidden_dim, c.vocab_size, rng)

    def _sources(self, features: FeatureSet) -> list[np.ndarray]:
        if self.attend_kind != "fused":
            return [features.require(self.attend_kind)]
        frames = features.require("temporal")
        motion = _nearest_segment_rows(frames, features.require("motion"))
        return [np.concatenate([frames, motion], axis=1)]

    def init_state(self, features) -> DecoderState:
        return _two_lstm_init(self, features, (self.attn,))

    def _attender(self, feats: tuple):
        """Attend-and-gate over ``DecoderState.feats``:
        ``attend(h_d, ht_d) -> (blended context, TraceRow)``."""
        source, keys, mask = feats

        def attend(h_d, ht_d):
            ctx, alpha = self.attn.attend(h_d, source, keys, mask)
            if self.gate is None:
                return ctx, TraceRow(alpha.data, np.ones((alpha.shape[0], 1)), mask)
            blended, beta = adaptive_blend(self.gate, h_d, ctx, ht_d)
            return blended, TraceRow(alpha.data, beta.data, mask)

        return attend

    def step(self, state: DecoderState, token_ids, rng=None):
        return _two_lstm_step(self, state, token_ids, rng)

    def forward_teacher_forced(self, features, tokens, rng=None):
        return _two_lstm_teacher_forced(self, features, tokens, rng)


class ParallelDecoder(Module):
    """Shared decoder with two attention branches and a three-way gate.

    Appearance and motion features each get their own additive attention;
    a softmax gate weighs the two attended contexts against the top
    hidden state.  Initial state comes from the concatenated feature
    means.
    """

    variant = "para"

    def __init__(self, config: DecoderConfig):
        c = config
        if c.motion_dim is None:
            raise ConfigError("para decoder needs motion_dim")
        if not (c.feature_dim == c.motion_dim == c.hidden_dim):
            raise ConfigError(
                f"para blends appearance (dim {c.feature_dim}), motion (dim {c.motion_dim}) "
                f"and the top hidden state (dim {c.hidden_dim}); all three must match")
        self.config = config
        rng = np.random.default_rng(c.seed)
        self.embed = Embedding(c.vocab_size, c.embed_dim, rng)
        self.bottom = LstmCell(c.embed_dim, c.hidden_dim, rng)
        self.top = LstmCell(c.hidden_dim, c.hidden_dim, rng)
        self.init_h = Linear(c.feature_dim + c.motion_dim, c.hidden_dim, rng, bias=False)
        self.init_m = Linear(c.feature_dim + c.motion_dim, c.hidden_dim, rng, bias=False)
        self.attn_static = AdditiveAttention(c.hidden_dim, c.feature_dim, c.attn_dim, rng)
        self.attn_motion = AdditiveAttention(c.hidden_dim, c.motion_dim, c.attn_dim, rng)
        self.gate = AdaptiveGate(c.hidden_dim, rng, arity=3)
        self.out_hidden = Linear(c.hidden_dim + c.feature_dim, c.hidden_dim, rng)
        self.out_vocab = Linear(c.hidden_dim, c.vocab_size, rng)

    def _sources(self, features: FeatureSet) -> list[np.ndarray]:
        return [features.require("temporal"), features.require("motion")]

    def init_state(self, features) -> DecoderState:
        return _two_lstm_init(self, features, (self.attn_static, self.attn_motion))

    def _attender(self, feats: tuple):
        """Attend-and-gate over ``DecoderState.feats``:
        ``attend(h_d, ht_d) -> (blended context, TraceRow)``."""
        static, static_keys, static_mask, motion, motion_keys, motion_mask = feats

        def attend(h_d, ht_d):
            ctx1, alpha1 = self.attn_static.attend(h_d, static, static_keys, static_mask)
            ctx2, _ = self.attn_motion.attend(h_d, motion, motion_keys, motion_mask)
            blended, betas = parallel_adaptive_blend(self.gate, h_d, ctx1, ctx2, ht_d)
            return blended, TraceRow(alpha1.data, betas.data, static_mask)

        return attend

    def step(self, state: DecoderState, token_ids, rng=None):
        return _two_lstm_step(self, state, token_ids, rng)

    def forward_teacher_forced(self, features, tokens, rng=None):
        return _two_lstm_teacher_forced(self, features, tokens, rng)


def _check_widths(widths: list[int], want: int) -> None:
    """Raise ``ClipShapeError`` naming the first clip whose features, of
    ``widths`` (one per clip), are not ``want`` wide; ``init_state`` checks
    before anything is stacked."""
    for i, width in enumerate(widths):
        if width != want:
            raise ClipShapeError(i, len(widths),
                                 f"has features {width} wide, the decoder reads {want}")


def _two_lstm_init(dec, features, attentions: tuple) -> DecoderState:
    """The state over n clips' ``FeatureSet``s: the bottom LSTM from
    projections of each clip's pooled features, the top from zeros.  Each
    of ``attentions`` attends over the matching entry of ``dec._sources``,
    padded to the longest clip, once every clip's entry has its width
    (see ``_check_widths``)."""
    per_clip = [dec._sources(f) for f in features]
    for k, attn in enumerate(attentions):
        _check_widths([sources[k].shape[1] for sources in per_clip], attn.feature_dim)
    pooled = Tensor(np.stack([np.concatenate([a.mean(axis=0) for a in sources])
                              for sources in per_clip]))
    feats = ()
    for k, attn in enumerate(attentions):
        source, mask = _pad_rows([sources[k] for sources in per_clip])
        feats += (source, attn.keys(source), mask)
    top = zeros(len(per_clip), dec.config.hidden_dim)
    return DecoderState(dec.init_h(pooled), dec.init_m(pooled), top, top, feats)


def _pad_rows(arrays: list[np.ndarray]) -> tuple[Tensor, Optional[np.ndarray]]:
    """Stack (L_b, D) feature matrices into a zero-padded (B, L, D) tensor
    and the (B, L) mask of its real rows, None when no row is padded."""
    rows = max(a.shape[0] for a in arrays)
    padded = np.zeros((len(arrays), rows, arrays[0].shape[1]))
    mask = np.zeros((len(arrays), rows), dtype=bool)
    for b, a in enumerate(arrays):
        padded[b, :a.shape[0]] = a
        mask[b, :a.shape[0]] = True
    return Tensor(padded), None if mask.all() else mask


def _two_lstm_step(dec, state: DecoderState, token_ids, rng):
    """One step of a two-LSTM decoder's n rows: embed, bottom LSTM,
    dropout, top LSTM, dropout, then ``dec._attender``'s ``attend(h_d,
    ht_d) -> (blended context, TraceRow)`` and the word head over [bottom
    hidden; blended context]."""
    (masks,) = _dropout_masks((dec,), [1] * len(token_ids), 2, rng)
    y = dec.embed.lookup_one(token_ids)
    bot = dec.bottom.step(dec.bottom.input_products(y), state.h, state.m)
    h_d = _drop(bot.h, masks, 0, 0)
    top = dec.top.step(dec.top.input_products(h_d), state.h_top, state.m_top)
    ht_d = _drop(top.h, masks, 0, 1)
    blended, row = dec._attender(state.feats)(h_d, ht_d)
    p = softmax(_word_logits(dec, concat([h_d, blended], axis=1)))
    return p, DecoderState(bot.h, bot.m, top.h, top.m, state.feats, row)


def _two_lstm_teacher_forced(dec, features, tokens, rng):
    """Teacher-forced log-probs of a two-LSTM decoder, in phases over a
    batch: (T, vocab) for one caption, (B, T, vocab) for a batch (see the
    module docstring)."""
    batch = _as_batch(features, tokens)
    (masks,) = _dropout_masks((dec,), batch.steps, 2, rng)
    return _two_lstm_forward(dec, batch, masks)


def _two_lstm_forward(dec, batch: "_Batch", masks) -> Tensor:
    """(B, T, vocab) log-probs of a batch, (T, vocab) of a single caption,
    under (T, B, 2, H) dropout ``masks`` (None: no dropout).  One lookup
    gathers the T·B input words and ``_recur`` runs the bottom LSTM over
    them; the top LSTM's recurrence runs over the stacked, dropped-out
    bottom states.  ``dec._attender`` then attends once per step, and the
    word head and ``log_softmax`` run once over the B·T rows."""
    state = dec.init_state(batch.feats)
    h_d = _recur(dec.bottom, dec.embed.lookup(batch.ids[:, :-1].T), state.h, state.m, masks, 0)
    bottoms = stack_rows(h_d)                       # (T, B, H)
    ht_d = _recur(dec.top, bottoms, state.h_top, state.m_top, masks, 1)
    attend = dec._attender(state.feats)
    blended = [attend(h, ht)[0] for h, ht in zip(h_d, ht_d)]
    return _head_log_probs(lambda x: _word_logits(dec, x),
                           concat([bottoms, stack_rows(blended)], axis=2), batch.single)


def _recur(cell: LstmCell, ys: Tensor, h: Tensor, m: Tensor, masks, layer: int) -> list[Tensor]:
    """The T steps of a teacher-forced LSTM over the (T, B, input_dim)
    inputs ``ys`` from (B, H) states ``h`` and ``m``, all T steps' input
    products in one GEMM, step t on its row t: each step's hidden state
    under dropout mask ``masks[t, :, layer]``."""
    out = []
    inputs = cell.input_products(ys)                # (T, B, 4H)
    for t in range(inputs.shape[0]):
        step = cell.step(take_rows(inputs, t), h, m)
        h, m = step.h, step.m
        out.append(_drop(h, masks, t, layer))
    return out


def _drop(x: Tensor, masks, t: int, layer: int) -> Tensor:
    """``x`` under dropout mask ``masks[t, :, layer]`` (None: no dropout)."""
    return x if masks is None else x * Tensor(masks[t, :, layer])


def _head_log_probs(head, rows: Tensor, single: bool) -> Tensor:
    """``log_softmax(head(x))`` over the B·T rows x of a (T, B, d) tensor,
    in one pass: (B, T, vocab) log-probs, or (T, vocab) for a single
    caption."""
    steps, width, dim = rows.shape
    lp = log_softmax(head(reshape(transpose(rows, (1, 0, 2)), (width * steps, dim))))
    vocab = lp.shape[1]
    return reshape(lp, (steps, vocab) if single else (width, steps, vocab))


class _Batch(NamedTuple):
    """Teacher-forcing inputs: B feature sets, the (B, T + 1) token ids,
    each caption's own step count, and whether it came as one caption."""
    feats: list
    ids: np.ndarray
    steps: list
    single: bool


def _as_batch(features, tokens) -> _Batch:
    """One caption (a ``FeatureSet`` and its ids, every id a step input
    but the last) or a batch (B ``FeatureSet``s and a ``CaptionBatch``,
    whose captions end at their lengths) as a ``_Batch``."""
    if isinstance(features, FeatureSet):
        ids = _caption_ids(tokens)
        return _Batch([features], np.asarray([ids]), [len(ids) - 1], True)
    features = list(features)
    if not isinstance(tokens, CaptionBatch) or len(tokens) != len(features):
        raise ContractError("a teacher-forced batch takes one FeatureSet per caption "
                            "of a CaptionBatch")
    steps = [len(_caption_ids(row[:n])) - 1 for row, n in zip(tokens.tokens, tokens.lengths)]
    return _Batch(features, tokens.tokens, steps, False)


def _dropout_masks(decs, steps: list[int], layers: int, rng) -> list:
    """(T, B, layers, H) dropout masks from ``rng`` for each of ``decs``
    (None where dropout is off: no ``rng``, or the decoder's rate is 0),
    T the longest of ``steps``.  Caption b's masks are drawn in batch
    order and, within a caption, decoder by decoder, each as one
    (steps[b], layers, H) draw; a step of n rows passes ``[1] * n``.
    Padded steps get 1."""
    masks = [None] * len(decs)
    for b, n in enumerate(steps):
        for k, dec in enumerate(decs):
            c = dec.config
            drawn = dropout_mask((n, layers, c.hidden_dim), c.dropout, rng)
            if drawn is None:
                continue
            if masks[k] is None:
                masks[k] = np.ones((max(steps), len(steps), layers, c.hidden_dim))
            masks[k][:n, b] = drawn
    return masks


def two_stream_fuse(p1: Tensor, p2: Tensor) -> Tensor:
    """Average two word distributions; stays a valid distribution."""
    if p1.shape != p2.shape:
        raise ShapeError(f"two_stream_fuse: vocab sizes differ: {p1.shape} vs {p2.shape}")
    return (p1 + p2) * 0.5


@dataclass(frozen=True)
class TwoStreamState:
    s1: DecoderState
    s2: DecoderState

    @property
    def row(self) -> Optional[TraceRow]:
        return self.s1.row

    def take(self, idx) -> "TwoStreamState":
        return TwoStreamState(self.s1.take(idx), self.s2.take(idx))


class TwoStreamDecoder(Module):
    """Two independently trained decoders whose distributions are averaged.

    Each stream is a full temporal-attention hierarchical decoder:
    stream 1 attends over the temporal (appearance) frames, stream 2 over
    the motion segments, which ``_stream_views`` hands it in the temporal
    slot.  ``build_variant`` seeds stream 2 with the config's seed + 1.
    Training drives the streams with separate losses
    (``stream_teacher_forced``); the fused distribution is what ``step``
    decodes from.
    """

    variant = "two_stream"

    def __init__(self, stream1: HierarchicalDecoder, stream2: HierarchicalDecoder):
        self.stream1 = stream1
        self.stream2 = stream2

    @property
    def streams(self) -> tuple[HierarchicalDecoder, HierarchicalDecoder]:
        return self.stream1, self.stream2

    def init_state(self, features) -> TwoStreamState:
        f1, f2 = zip(*(_stream_views(f) for f in features))
        return TwoStreamState(self.stream1.init_state(f1), self.stream2.init_state(f2))

    def step(self, state: TwoStreamState, token_ids, rng=None):
        p1, s1 = self.stream1.step(state.s1, token_ids, rng)
        p2, s2 = self.stream2.step(state.s2, token_ids, rng)
        return two_stream_fuse(p1, p2), TwoStreamState(s1, s2)

    def stream_teacher_forced(self, features, tokens, rng=None):
        """One log-prob tensor per stream, for independent training; each
        stream runs the phased path over the batch, and caption b's masks
        for stream 1 are drawn before its masks for stream 2."""
        batch = _as_batch(features, tokens)
        masks = _dropout_masks(self.streams, batch.steps, 2, rng)
        views = zip(*(_stream_views(f) for f in batch.feats))
        return tuple(_two_lstm_forward(dec, batch._replace(feats=list(feats)), mask)
                     for dec, feats, mask in zip(self.streams, views, masks))


def _stream_views(features: FeatureSet) -> tuple[FeatureSet, FeatureSet]:
    """What each two-stream stream reads: stream 1 the features as given
    (their temporal frames), stream 2 the motion segments in the temporal
    slot."""
    return features, FeatureSet(temporal=features.require("motion"))


def _caption_ids(tokens) -> list[int]:
    """A teacher-forced caption as ints: BOS first, at least one step."""
    tokens = [int(t) for t in tokens]
    if not tokens or tokens[0] != BOS_ID:
        raise ContractError("teacher forcing requires a caption starting with BOS")
    if len(tokens) < 2:
        raise ContractError("caption has no prediction steps")
    return tokens


def check_variant(kind: str) -> None:
    """Raise ``ConfigError`` unless ``kind`` names one of ``VARIANTS``."""
    if kind not in VARIANTS:
        raise ConfigError(f"unknown decoder variant {kind!r}; "
                          f"expected one of {', '.join(VARIANTS)}")


def build_variant(kind: str, config: DecoderConfig):
    """Construct one of the published decoder configurations but "da"."""
    check_variant(kind)
    attend_kinds = {"hlstmat_temporal": "temporal", "hlstmat_spatial": "spatial",
                    "conf": "fused"}
    if kind == "basic":
        return BasicDecoder(config)
    if kind in attend_kinds:
        return HierarchicalDecoder(config, attend_kinds[kind])
    if kind == "para":
        return ParallelDecoder(config)
    if kind == "two_stream":
        cfg2 = replace(config, feature_dim=config.motion_dim or config.feature_dim,
                       motion_dim=None, seed=config.seed + 1)
        return TwoStreamDecoder(HierarchicalDecoder(replace(config, motion_dim=None)),
                                HierarchicalDecoder(cfg2))
    raise ConfigError("variant 'da' is built from a DaConfig, not a DecoderConfig")
