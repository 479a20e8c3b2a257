import hashlib
import inspect

import numpy as np
import pytest

import oracle_teacher_forcing as oracle
from pinned_weights import wide_decoder
from capgen import decoders
from capgen.da import DaConfig, DeliberateDecoder
from capgen.data import BOS_ID, EOS_ID, PAD_ID, CaptionBatch, FeatureSet
from capgen.decoders import (
    VARIANTS, DecoderConfig, HierarchicalDecoder, ParallelDecoder,
    build_variant, two_stream_fuse,
)
from capgen.errors import ConfigError, ContractError, ShapeError, VocabularyError
from capgen.gradcheck import check_gradients
from capgen.layers import dropout_mask
from capgen.search import beam_search, greedy_decode
from capgen.tensor import Tape, Tensor, backward, reshape
from capgen.testkit import decoder_gradcheck, tiny_decoder, tiny_features, tiny_widths
from capgen.training import _batch_loss, mle_loss


def small_config(vocab=8, hidden=4, **kw):
    base = dict(vocab_size=vocab, hidden_dim=hidden, embed_dim=hidden,
                attn_dim=3, feature_dim=hidden, motion_dim=hidden, seed=3)
    base.update(kw)
    return DecoderConfig(**base)


def caption_loss(lp, tokens):
    """``mle_loss`` of one caption's (T, vocab) log-probs, as a batch of one."""
    return mle_loss(reshape(lp, (1,) + lp.shape), CaptionBatch.from_id_seqs([tokens]))


def features_for(rng, variant, cfg, frames=3, segments=2):
    fs = FeatureSet(temporal=rng.standard_normal((frames, cfg.feature_dim)))
    if variant == "hlstmat_spatial":
        fs.spatial = rng.standard_normal((frames, cfg.feature_dim))
    if variant in ("conf", "para", "two_stream"):
        fs.motion = rng.standard_normal((segments, cfg.motion_dim))
    return fs


# --- independent evaluation of the full step chain at tiny dimensions ----

def sigmoid_np(x):
    return 1.0 / (1.0 + np.exp(-x))


def manual_hlstmat_step(params, frames, token, h, m, hb, mb, use_adaptive_gate=True):
    """From-scratch numpy replay of one decoder step: bottom LSTM, top LSTM,
    additive attention, adaptive blend, word MLP.  Without the gate the
    attended context feeds the word MLP directly, and beta is 1."""
    def lstm(prefix, y, hp, mp):
        gate = {}
        H = len(hp)
        for k, g in enumerate("ifog"):
            rows = slice(k * H, (k + 1) * H)
            pre = (params[f"{prefix}.W"][rows] @ y + params[f"{prefix}.U"][rows] @ hp
                   + params[f"{prefix}.b"][rows])
            gate[g] = np.tanh(pre) if g == "g" else sigmoid_np(pre)
        mn = gate["f"] * mp + gate["i"] * gate["g"]
        return gate["o"] * np.tanh(mn), mn

    y = params["embed.E"][token]
    h1, m1 = lstm("bottom", y, h, m)
    h2, m2 = lstm("top", h1, hb, mb)
    scores = np.array([
        params["attn.w"] @ np.tanh(params["attn.W_a"] @ h1
                                   + params["attn.U_a"] @ v + params["attn.b_a"])
        for v in frames])
    e = np.exp(scores - scores.max())
    alpha = e / e.sum()
    ctx = alpha @ frames
    if use_adaptive_gate:
        beta = sigmoid_np(params["gate.W_s"] @ h1)[0]
        blended = beta * ctx + (1.0 - beta) * h2
    else:
        beta, blended = 1.0, ctx
    hidden = np.tanh(params["out_hidden.W"] @ np.concatenate([h1, blended])
                     + params["out_hidden.b"])
    logits = params["out_vocab.W"] @ hidden + params["out_vocab.b"]
    ez = np.exp(logits - logits.max())
    return ez / ez.sum(), beta, (h1, m1, h2, m2)


def parameters_of(fn) -> list:
    """Each parameter's name, with its default where it has one."""
    return [p.name if p.default is inspect.Parameter.empty else (p.name, p.default)
            for p in inspect.signature(fn).parameters.values()]


@pytest.mark.parametrize("variant", VARIANTS)
def test_dropout_follows_the_rng_in_every_entry_point(variant):
    """The protocol takes an rng and no training flag: a decoder drops
    out only when given an rng."""
    dec, _ = tiny_decoder(variant)
    forced = dec.stream_teacher_forced if variant == "two_stream" else dec.forward_teacher_forced
    assert parameters_of(dec.step) == ["state", "token_ids", ("rng", None)]
    assert parameters_of(forced) == ["features", "tokens", ("rng", None)]
    assert parameters_of(dropout_mask) == ["shape", "rate", "rng"]


# the feature kinds that each variant but "da" reads
READS = {"basic": ["temporal"], "hlstmat_temporal": ["temporal"],
         "hlstmat_spatial": ["spatial"], "conf": ["temporal", "motion"],
         "para": ["temporal", "motion"], "two_stream": ["temporal", "motion"]}


class TestInitState:
    def test_zero_init_matrices_give_zero_state(self, rng):
        dec = HierarchicalDecoder(small_config())
        dec.init_h.W.data[:] = 0.0
        dec.init_m.W.data[:] = 0.0
        state = dec.init_state([FeatureSet(temporal=rng.standard_normal((3, 4)))])
        for t in (state.h, state.m, state.h_top, state.m_top):
            np.testing.assert_array_equal(t.data, np.zeros((1, 4)))

    def test_single_frame_mean_is_that_frame(self, rng):
        dec = HierarchicalDecoder(small_config())
        v = rng.standard_normal((1, 4))
        state = dec.init_state([FeatureSet(temporal=v)])
        np.testing.assert_allclose(state.h.data[0], dec.init_h.W.data @ v[0], atol=1e-12)

    def test_matches_direct_product_with_independent_mean(self, rng):
        dec = HierarchicalDecoder(small_config())
        v = rng.standard_normal((5, 4))
        state = dec.init_state([FeatureSet(temporal=v)])
        mean = v.sum(axis=0) / 5
        np.testing.assert_allclose(state.h.data[0], dec.init_h.W.data @ mean, atol=1e-12)
        np.testing.assert_allclose(state.m.data[0], dec.init_m.W.data @ mean, atol=1e-12)

    def test_empty_frames_rejected(self):
        dec = HierarchicalDecoder(small_config())
        with pytest.raises(Exception):
            dec.init_state([FeatureSet(temporal=np.zeros((0, 4)))])

    @pytest.mark.parametrize("variant,kind", [
        (variant, kind) for variant, kinds in READS.items() for kind in kinds])
    def test_clip_of_another_width_is_a_shape_error(self, variant, kind):
        dec, dims = tiny_decoder(variant)
        rng = np.random.default_rng(5)
        clips = [tiny_features(rng, 3 + i, **dims) for i in range(3)]
        wide = getattr(clips[1], kind)
        setattr(clips[1], kind, wide[:, :-1])
        match = r"clip 1 of 3 has features \d+ wide"
        with pytest.raises(ShapeError, match=match):
            dec.init_state(clips)
        with pytest.raises(ShapeError, match=match):
            _batch_loss(dec, clips, CaptionBatch.from_id_seqs([[BOS_ID, 5, EOS_ID]] * 3))


class TestStep:
    def test_distribution_sums_to_one(self, rng):
        dec = HierarchicalDecoder(small_config())
        state = dec.init_state([features_for(rng, "hlstmat_temporal", dec.config)])
        p, _ = dec.step(state, [BOS_ID])
        assert p.shape == (1, dec.config.vocab_size)
        assert abs(p.data.sum() - 1.0) <= 1e-9
        assert np.all(p.data >= 0.0)

    def test_deterministic(self, rng):
        dec = HierarchicalDecoder(small_config())
        feats = features_for(rng, "hlstmat_temporal", dec.config)
        state = dec.init_state([feats])
        p1, _ = dec.step(state, [BOS_ID])
        p2, _ = dec.step(state, [BOS_ID])
        assert np.array_equal(p1.data, p2.data)

    def test_invalid_token(self, rng):
        dec = HierarchicalDecoder(small_config())
        state = dec.init_state([features_for(rng, "hlstmat_temporal", dec.config)])
        with pytest.raises(VocabularyError):
            dec.step(state, [99])

    @pytest.mark.parametrize("use_adaptive_gate", [True, False])
    def test_matches_independent_hand_evaluation(self, rng, use_adaptive_gate):
        cfg = small_config(vocab=4, hidden=2, attn_dim=2, feature_dim=2,
                           use_adaptive_gate=use_adaptive_gate)
        dec = HierarchicalDecoder(cfg)
        frames = rng.standard_normal((3, 2))
        params = {k: v.data for k, v in dec.parameters().items()}
        state = dec.init_state([FeatureSet(temporal=frames)])

        h = params["init_h.W"] @ frames.mean(axis=0)
        m = params["init_m.W"] @ frames.mean(axis=0)
        hb = np.zeros(2)
        mb = np.zeros(2)
        for token in (BOS_ID, 3, 1):
            p, state = dec.step(state, [token])
            expect, beta, (h, m, hb, mb) = manual_hlstmat_step(
                params, frames, token, h, m, hb, mb, use_adaptive_gate)
            np.testing.assert_allclose(p.data[0], expect, atol=1e-9)
            np.testing.assert_allclose(state.row.beta, [[beta]], atol=1e-12)
            np.testing.assert_allclose(state.h.data[0], h, atol=1e-9)
            np.testing.assert_allclose(state.h_top.data[0], hb, atol=1e-9)


class TestTeacherForcing:
    def test_requires_bos(self, rng):
        dec = HierarchicalDecoder(small_config())
        feats = features_for(rng, "hlstmat_temporal", dec.config)
        with pytest.raises(ContractError):
            dec.forward_teacher_forced(feats, [5, EOS_ID])

    def test_single_step_caption(self, rng):
        dec = HierarchicalDecoder(small_config())
        feats = features_for(rng, "hlstmat_temporal", dec.config)
        lp = dec.forward_teacher_forced(feats, [BOS_ID, EOS_ID])
        assert lp.data.shape == (1, dec.config.vocab_size)

    def test_logprobs_equal_stepwise_composition(self, rng):
        dec = HierarchicalDecoder(small_config())
        feats = features_for(rng, "hlstmat_temporal", dec.config)
        tokens = [BOS_ID, 5, 6, EOS_ID]
        lp = dec.forward_teacher_forced(feats, tokens).data
        state = dec.init_state([feats])
        for t in range(1, len(tokens)):
            p, state = dec.step(state, [tokens[t - 1]])
            np.testing.assert_allclose(lp[t - 1], np.log(p.data[0]), atol=1e-12)

    def test_padding_contributes_zero_loss(self, rng):
        dec = HierarchicalDecoder(small_config())
        feats = features_for(rng, "hlstmat_temporal", dec.config)
        short = [BOS_ID, 5, EOS_ID]
        padded = short + [0, 0]
        lp_padded = dec.forward_teacher_forced(feats, padded)
        lp_bare = dec.forward_teacher_forced(feats, short)
        loss_padded = float(caption_loss(lp_padded, padded).data)
        loss_bare = float(caption_loss(lp_bare, short).data)
        assert loss_padded == pytest.approx(loss_bare, abs=1e-12)


def stream_case(variant, frames=3, segments=2, feature_seed=4, **kw):
    """A tiny decoder with features for it; ``two_stream/k`` is stream k of
    a two-stream decoder, fed that stream's features, and ``da`` a
    deliberation decoder whose sentinel is projected to the region width."""
    rng = np.random.default_rng(feature_seed)
    if variant == "da":
        cfg = DaConfig(vocab_size=9, hidden_dim=4, embed_dim=4, attn_dim=3, region_dim=5,
                       global_dim=3, seed=3, **kw)
        return DeliberateDecoder(cfg), FeatureSet(spatial=rng.standard_normal((frames, 5)),
                                                  global_vec=rng.standard_normal(3))
    if variant == "conf":
        kw = dict(feature_dim=2, motion_dim=2, **kw)
    cfg = small_config(vocab=9, **kw)
    feats = features_for(rng, variant.split("/")[0], cfg, frames, segments)
    if not variant.startswith("two_stream"):
        return build_variant(variant, cfg), feats
    dec = build_variant("two_stream", cfg)
    k = int(variant[-1])
    return dec.streams[k], decoders._stream_views(feats)[k]


def batched(dec, feats, tokens, rng):
    """The decoder's own teacher forcing."""
    return dec.forward_teacher_forced(feats, tokens, rng)


def logprobs_and_grads(dec, teacher_forced, feats, tokens, training, seed):
    """Log-probs and every parameter gradient of the MLE loss of one
    caption (a ``FeatureSet`` and its ids) or of a batch (``FeatureSet``s
    and a ``CaptionBatch``), under one seeded rng when ``training``, else
    with dropout off."""
    params = dec.parameters()
    for p in params.values():
        p.grad = None
    rng = np.random.default_rng(seed) if training else None
    with Tape():
        lp = teacher_forced(dec, feats, tokens, rng)
        backward(mle_loss(lp, tokens) if isinstance(tokens, CaptionBatch)
                 else caption_loss(lp, tokens))
    return lp.data, {name: p.grad for name, p in params.items()}


def assert_grads_match(grads, ref_grads):
    assert grads.keys() == ref_grads.keys()
    for name, g in grads.items():
        if ref_grads[name] is None:
            assert g is None, name
        else:
            assert np.max(np.abs(g - ref_grads[name])) <= 1e-12, name


# case -> (variant, config overrides)
PHASED_CASES = {
    **{v: (v, {}) for v in ("basic", "hlstmat_temporal", "hlstmat_spatial", "conf",
                            "para", "two_stream/0", "two_stream/1", "da")},
    "gate_free": ("hlstmat_temporal", {"use_adaptive_gate": False}),
}


class TestPhasedTeacherForcing:
    """The batched pass over one caption against the per-step oracle."""

    @pytest.mark.parametrize("case", sorted(PHASED_CASES))
    @pytest.mark.parametrize("mode", ["eval", "dropout", "padded"])
    def test_matches_stepwise_loop(self, case, mode):
        variant, cfg = PHASED_CASES[case]
        dec, feats = stream_case(variant, **cfg)
        tokens = [BOS_ID, 5, 7, 4, EOS_ID]
        if mode == "padded":
            tokens += [PAD_ID, PAD_ID]
        training = mode == "dropout"
        if training:
            dec.config.dropout = 0.3
        lp, grads = logprobs_and_grads(dec, batched, feats, tokens, training, 11)
        ref, ref_grads = logprobs_and_grads(dec, oracle.teacher_forced, feats, tokens,
                                            training, 11)
        assert lp.shape == (len(tokens) - 1, dec.config.vocab_size)
        assert np.max(np.abs(lp - ref)) <= 1e-12
        assert_grads_match(grads, ref_grads)

    @pytest.mark.parametrize("variant", ["hlstmat_temporal", "para", "basic", "da"])
    def test_training_mode_gradcheck(self, variant):
        dec, feats = stream_case(variant, dropout=0.3)
        tokens = [BOS_ID, 5, 7, EOS_ID]

        def loss():  # a fresh rng per call fixes the dropout masks
            lp = dec.forward_teacher_forced(feats, tokens, np.random.default_rng(0))
            return caption_loss(lp, tokens)

        assert check_gradients(loss, dec.parameters()) < 1e-4

    @pytest.mark.parametrize("variant", ["hlstmat_temporal", "para", "basic", "da"])
    def test_underflowing_word_probability_stays_finite(self, variant):
        dec, feats = stream_case(variant)
        word_heads(dec)[0].b.data[5] = -1000.0
        tokens = [BOS_ID, 5, EOS_ID]
        with Tape():
            lp = dec.forward_teacher_forced(feats, tokens)
            backward(caption_loss(lp, tokens))
        assert -1010.0 < lp.data[0, 5] < -990.0
        for name, p in dec.parameters().items():
            assert p.grad is None or np.all(np.isfinite(p.grad)), name


# unequal caption lengths (4, 2 and 6 steps) over unequal feature sets
BATCH_CAPTIONS = [[BOS_ID, 5, 7, 4, EOS_ID], [BOS_ID, 6, EOS_ID],
                  [BOS_ID, 4, 4, 5, 6, 8, EOS_ID]]
BATCH_SHAPES = ((3, 2, 4), (5, 3, 5), (2, 1, 6))   # (frames, motion segments, rng seed)


def batch_case(variant, **kw):
    """``stream_case``'s decoder with one feature set per ``BATCH_CAPTIONS``
    caption, of 3, 5 and 2 frames (2, 3 and 1 motion segments)."""
    dec, _ = stream_case(variant, **kw)
    feats = [stream_case(variant, frames, segments, seed, **kw)[1]
             for frames, segments, seed in BATCH_SHAPES]
    return dec, feats


class TestBatchedTeacherForcing:
    """One batched forward of unequal captions over unequal feature sets
    against the per-step oracle, caption by caption."""

    @pytest.mark.parametrize("case", sorted(PHASED_CASES))
    @pytest.mark.parametrize("mode", ["eval", "dropout"])
    def test_matches_per_caption_loop(self, case, mode):
        variant, cfg = PHASED_CASES[case]
        dec, feats = batch_case(variant, **cfg)
        training = mode == "dropout"
        if training:
            dec.config.dropout = 0.3
        batch = CaptionBatch.from_id_seqs(BATCH_CAPTIONS)
        lp, grads = logprobs_and_grads(dec, batched, feats, batch, training, 11)
        ref, ref_grads = logprobs_and_grads(dec, oracle.teacher_forced, feats, batch,
                                            training, 11)
        assert lp.shape == (len(BATCH_CAPTIONS), batch.steps, dec.config.vocab_size)
        for b, c in enumerate(BATCH_CAPTIONS):
            assert np.max(np.abs(lp[b, :len(c) - 1] - ref[b, :len(c) - 1])) <= 1e-12
        assert_grads_match(grads, ref_grads)

    @pytest.mark.parametrize("variant", ["hlstmat_temporal", "para", "basic", "da"])
    def test_batch_of_one_is_the_single_caption_path(self, variant):
        dec, feats = stream_case(variant, dropout=0.3)
        tokens = BATCH_CAPTIONS[0]
        single = dec.forward_teacher_forced(feats, tokens, np.random.default_rng(2))
        batch = dec.forward_teacher_forced([feats], CaptionBatch.from_id_seqs([tokens]),
                                           np.random.default_rng(2))
        assert np.array_equal(batch.data[0], single.data)

    def test_two_stream_draws_masks_caption_by_caption(self):
        cfg = small_config(vocab=9, dropout=0.3)
        dec = build_variant("two_stream", cfg)
        feats = [features_for(np.random.default_rng(seed), "two_stream", cfg, frames, segments)
                 for frames, segments, seed in BATCH_SHAPES]
        batch = CaptionBatch.from_id_seqs(BATCH_CAPTIONS)
        both = dec.stream_teacher_forced(feats, batch, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        for b, (f, c) in enumerate(zip(feats, BATCH_CAPTIONS)):
            for k, ref in enumerate(dec.stream_teacher_forced(f, c, rng)):
                assert np.max(np.abs(both[k].data[b, :len(c) - 1] - ref.data)) <= 1e-12

    def test_one_feature_set_per_caption(self):
        dec, feats = batch_case("hlstmat_temporal")
        with pytest.raises(ContractError):
            dec.forward_teacher_forced(feats[:2], CaptionBatch.from_id_seqs(BATCH_CAPTIONS))

    def test_every_caption_needs_bos(self):
        dec, feats = batch_case("hlstmat_temporal")
        captions = BATCH_CAPTIONS[:2] + [[5, 6, EOS_ID]]
        with pytest.raises(ContractError):
            dec.forward_teacher_forced(feats, CaptionBatch.from_id_seqs(captions))


def trace_digest(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(np.asarray(row.alpha, dtype=np.float64).tobytes())
        h.update(np.asarray(row.beta, dtype=np.float64).tobytes())
    return h.hexdigest()


# (tokens, float.hex log-prob, sha256 of the trace rows' alpha and beta bytes)
PINNED_DECODES = {
    "hlstmat_temporal/greedy": (
        [10, 0, 1, 5, 1, 5, 1, 5], "-0x1.756cd95e6d136p+1",
        "8a122bd98a3f4ad4410b903c385283fe65f596254c577a647ea0fae308b3a39e"),
    "hlstmat_temporal/beam5": (
        [5, 1, 5, 10, 1, 5, 10, 1], "-0x1.755be2363dbfcp+1",
        "9d6dfbab472659cf10a6a8990702fd2c81b824f311d4a464a4517ebf7a3d3a69"),
    "conf/greedy": (
        [5, 5, 5, 5, 1, 5, 3, 10], "-0x1.049c45608e413p+1",
        "2459b7c6d636d4a0172141981f8092728ebe613658f0f9fac94b9943a5bff926"),
    "conf/beam5": (
        [5, 5, 5, 5, 1, 0, 5, 7], "-0x1.2bbd5031ecd0ep+0",
        "e3b2d1b480f51217855b4e48662160d9d3347e77c022545c6e4e76f9b58d8105"),
    "para/greedy": (
        [7, 0, 8, 11, 7, 11, 7, 11], "-0x1.47a06465ef834p+1",
        "70ae4725027658fa363aa307247b9bd0d06452573de78e260b977bd2da3e4f73"),
    "para/beam5": (
        [7, 0, 8, 7, 11, 7, 11, 7], "-0x1.40829009dcc2ep+1",
        "d834fdc1b83fcae641b5b80a0267ff888588cf2c31da3d8eca4fd08df7476c9e"),
    "basic/greedy": (
        [8, 9, 9, 9, 9, 9, 5, 8], "-0x1.027c0ff7f9644p+0",
        "dbd8ebb4d364765882694170cedf5afc7702dd5338a7198705c45b613f6e1c9d"),
    "basic/beam5": (
        [8, 9, 9, 9, 9, 9, 5, 8], "-0x1.027c0ff7f9640p+0",
        "dbd8ebb4d364765882694170cedf5afc7702dd5338a7198705c45b613f6e1c9d"),
    "hlstmat_spatial/greedy": (
        [5, 5, 5, 5, 1, 5, 0, 10], "-0x1.2a2d4d78b25f6p+1",
        "c9e07b831bec8df207c43b806d56728b8a5e1149fc4a85c2630f8657ed8aa8bc"),
    "hlstmat_spatial/beam5": (
        [5, 5, 5, 0, 7, 3, 3, 3], "-0x1.18d4c40013c53p+1",
        "019a6773c9623b5fcf8849a1536cd82e330f1aabb8b2035ec541335c03811cb1"),
    "two_stream/greedy": (
        [10, 1, 11, 5, 1, 5, 3, 11], "-0x1.73c679ed1fe66p+2",
        "9baa37540ba20f0a4e6cf8af863c519ccd644495de00aa9a7a09539579d4ad64"),
    "two_stream/beam5": (
        [1, 5, 3, 11, 5, 1, 5, 3], "-0x1.39fc6598dcc8ap+2",
        "3c3d7fc4269885bceb7ed6f5f5cbff8d2d351127912e1bf0587edef38509f273"),
    "da/greedy": (
        [10, 4, 0, 10, 4, 8, 3, 5], "-0x1.5a3eedcb34609p+2",
        "5b7100818ead5f41a184ec2aaf47455e27bf4c61d23a4e958434e5b0b15a5b7a"),
    "da/beam5": (
        [10, 4, 8, 3, 5, 8, 3, 5], "-0x1.63298894fc976p+2",
        "296532a6cb118e9c3a1b9e833405bfbc7e021b76ccdc73a378c52ad81380feb5"),
}


# variant -> (features seed, weight scale, greedy pin, beam-5 pin), pinned
# like PINNED_DECODES at settings where beam-5 finds a better caption than
# greedy, so that beam's ranking beyond the greedy path is pinned too
PINNED_BEAM_BEATS_GREEDY = {
    "basic": (14, 2.0,
        ([9, 9, 9, 9, 9, 9, 9, 9], "-0x1.ad5cb0320219cp+1",
         "dbd8ebb4d364765882694170cedf5afc7702dd5338a7198705c45b613f6e1c9d"),
        ([9, 9, 9, 6, 9, 9, 9, 9], "-0x1.c29e0acaafe0dp+0",
         "dbd8ebb4d364765882694170cedf5afc7702dd5338a7198705c45b613f6e1c9d")),
    "hlstmat_spatial": (13, 2.0,
        ([3, 3, 5, 0, 3, 5, 0, 4], "-0x1.60297c62c29f1p+1",
         "9f090e973afa512c232f0f40410e911f79bcd174c8c39c7bee00d5a0e2442627"),
        ([7, 3, 3, 3, 3, 3, 3, 3], "-0x1.2759813c76a86p+1",
         "a0e30001c689158796be41b213bd3a7bcf95e96a6aea293a546b1a4f9660549f")),
    "two_stream": (12, 2.0,
        ([11, 11, 11, 11, 11, 11, 11, 11], "-0x1.6bedc85ad9613p+2",
         "c30bea8331d03b0b47a528b17257b722622979dc6dca20ba4191c934a8c819b7"),
        ([5, 11, 5, 1, 5, 11, 5, 1], "-0x1.32054527801d5p+2",
         "c833dce50b76518d183ef5b017d13d3db9a7354a29968b7a94ae4bb37a331e14")),
    "da": (17, 1.0,
        ([4, 0, 5, 9, 4, 0, 5, 5], "-0x1.59473ded18349p+1",
         "7d57e0e5c60ad2498e9993869e0c09b3ce97504107efe90f5cef26c96fba2e6a"),
        ([4, 0, 9, 9, 9, 9, 9, 9], "-0x1.0d55b63410671p+1",
         "967ca2a78d42f597ef7974e0ff70ce98f4c48203d369907eb6e347f57ae2d8b8")),
}


def word_heads(dec):
    """The layers whose bias is the word head's: DA's ``out``, and each
    two-stream stream's ``out_vocab``."""
    if dec.variant == "da":
        return [dec.out]
    if dec.variant == "two_stream":
        return [s.out_vocab for s in dec.streams]
    return [dec.out_vocab]


# features seed of the PINNED_DECODES decoders; at DA's scale, seed 11's
# greedy caption is word 4 eight times, seed 20's holds six distinct words,
# and two-stream's greedy caption is word 11 eight times at seed 11
PIN_FEATURES_SEEDS = {"da": 20, "two_stream": 9}


def pinned_decode(variant, search, features_seed=None, scale=None):
    """(tokens, float.hex log-prob, trace digest) of a seeded tiny decoder
    (``pinned_weights.wide_decoder``) whose weights are drawn at ``scale``
    on features drawn from ``features_seed`` (None: the variant's pins),
    and whose word head's only nonzero bias is -2 on EOS."""
    if features_seed is None:
        features_seed = PIN_FEATURES_SEEDS.get(variant, 11)
    dec, dims = wide_decoder(variant, scale)
    for head in word_heads(dec):
        head.b.data[:] = 0.0
        head.b.data[EOS_ID] = -2.0
    feats = tiny_features(np.random.default_rng(features_seed), 4, dims["dim"],
                          dims["motion_dim"], dims["region_dim"], dims["global_dim"])
    if search == "greedy":
        got = greedy_decode(dec, feats, max_len=8, record_trace=True)
    else:
        got = beam_search(dec, feats, k=5, max_len=8, record_trace=True)
    return got.tokens, float.hex(got.logprob), trace_digest(got.trace)


# the most tape nodes that one teacher-forced desk-size training batch may
# record, loss included: 8 captions of 13 words (14 steps), hidden 64,
# vocabulary 500, 28 frames, dropout on.  Each LSTM step is 4 nodes.
DESK_BATCH_NODES = {"basic": 100, "hlstmat_temporal": 329, "para": 400, "da": 575}


@pytest.mark.parametrize("variant", sorted(DESK_BATCH_NODES))
def test_desk_batch_tape_stays_small(variant):
    import capgen.training as tr

    rng = np.random.default_rng(0)
    dims = tiny_widths(variant, 64)
    attn_dim = dims.pop("attn_dim")
    feats = [tiny_features(rng, 28, **dims, segments=14) for _ in range(8)]
    dec = tr.build_decoder(variant, 500, feats[0], 64, 64, attn_dim, dropout=0.5)
    batch = CaptionBatch.from_id_seqs([[BOS_ID, *rng.integers(4, 500, 13).tolist(), EOS_ID]
                                       for _ in range(8)])
    with Tape() as tape:
        tr._batch_loss(dec, feats, batch, np.random.default_rng(1))
        assert len(tape.nodes) <= DESK_BATCH_NODES[variant]


class TestPinnedDecoding:
    """Greedy and beam-5 outputs, bit for bit, of seeded tiny decoders whose
    weights are drawn wide enough that captions vary from step to step."""

    @pytest.mark.parametrize("name", sorted(PINNED_DECODES))
    def test_bit_identical(self, name):
        variant, search = name.split("/")
        assert pinned_decode(variant, search) == PINNED_DECODES[name]

    def test_every_greedy_pin_but_basic_varies(self):
        """A caption of one repeated word cannot show a change in ranking.
        ``basic`` reads no attention, so it is exempt, although its pin
        varies too."""
        assert all(len(set(tokens)) > 1 for name, (tokens, _, _) in PINNED_DECODES.items()
                   if name.endswith("/greedy") and not name.startswith("basic/"))

    @pytest.mark.parametrize("variant", sorted(PINNED_BEAM_BEATS_GREEDY))
    def test_beam_beats_greedy_bit_identical(self, variant):
        features_seed, scale, greedy, beam = PINNED_BEAM_BEATS_GREEDY[variant]
        assert greedy[0] != beam[0]
        assert float.fromhex(beam[1]) > float.fromhex(greedy[1])
        assert pinned_decode(variant, "greedy", features_seed, scale) == greedy
        assert pinned_decode(variant, "beam5", features_seed, scale) == beam


@pytest.mark.parametrize("variant", VARIANTS)
def test_teacher_forced_gradcheck(variant):
    assert decoder_gradcheck(variant, hidden=4, vocab_size=6, frames=3) < 1e-4


@pytest.mark.parametrize("variant", VARIANTS)
def test_batched_teacher_forced_gradcheck(variant):
    assert decoder_gradcheck(variant, hidden=4, vocab_size=6, frames=2, batch=3) < 1e-4


def test_fused_two_stream_gradcheck():
    """The fused distribution that two-stream decoding and self-critical
    training step through, teacher-forced by the oracle."""
    dec, dims = tiny_decoder("two_stream", hidden=4, vocab_size=6)
    feats = tiny_features(np.random.default_rng(0), 3, dims["dim"], dims["motion_dim"],
                          dims["region_dim"], dims["global_dim"])
    tokens = [BOS_ID, 4, 5, EOS_ID]
    assert check_gradients(lambda: caption_loss(oracle.teacher_forced(dec, feats, tokens), tokens),
                           dec.parameters()) < 1e-4


class TestBuildVariant:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            build_variant("transformer", small_config())

    def test_conf_fuses_nearest_motion_segment(self, rng):
        cfg = small_config(hidden=6, feature_dim=4, motion_dim=2, attn_dim=3)
        dec = build_variant("conf", cfg)
        assert dec.attn.feature_dim == 6
        frames = rng.standard_normal((4, 4))
        motion = rng.standard_normal((2, 2))
        (fused,) = dec._sources(FeatureSet(temporal=frames, motion=motion))
        assert fused.shape == (4, 6)
        # frames 0,1 map to segment 0; frames 2,3 to segment 1
        np.testing.assert_array_equal(fused[0, 4:], motion[0])
        np.testing.assert_array_equal(fused[1, 4:], motion[0])
        np.testing.assert_array_equal(fused[2, 4:], motion[1])
        np.testing.assert_array_equal(fused[3, 4:], motion[1])

    def test_conf_requires_context_matching_hidden(self):
        with pytest.raises(ConfigError, match="must match"):
            build_variant("conf", small_config(hidden=4, feature_dim=4, motion_dim=2))

    def test_para_requires_equal_dims(self):
        with pytest.raises(ConfigError):
            build_variant("para", small_config(feature_dim=4, motion_dim=3, hidden=4))

    def test_two_stream_with_identical_streams_is_identity(self, rng):
        cfg = small_config()
        dec = build_variant("two_stream", cfg)
        s1, s2 = dec.streams
        p1 = s1.parameters()
        for name, p in s2.parameters().items():
            p.data[...] = p1[name].data
        frames = rng.standard_normal((3, cfg.feature_dim))
        feats = FeatureSet(temporal=frames, motion=frames.copy())
        p, _ = dec.step(dec.init_state([feats]), [BOS_ID])
        p_single, _ = s1.step(s1.init_state([FeatureSet(temporal=frames)]), [BOS_ID])
        np.testing.assert_allclose(p.data, p_single.data, atol=1e-12)

    def test_para_symmetric_init_gives_symmetric_gate_gradients(self, rng):
        cfg = small_config(vocab=6)
        dec = ParallelDecoder(cfg)
        # mirror the appearance branch onto the motion branch
        ps = dec.parameters()
        for k in ("W_a", "U_a", "b_a", "w"):
            ps[f"attn_motion.{k}"].data[...] = ps[f"attn_static.{k}"].data
        dec.gate.W_s.data[1] = dec.gate.W_s.data[0]
        frames = rng.standard_normal((3, cfg.feature_dim))
        feats = FeatureSet(temporal=frames, motion=frames.copy())
        tokens = [BOS_ID, 4, EOS_ID]
        with Tape():
            backward(caption_loss(dec.forward_teacher_forced(feats, tokens), tokens))
        g = dec.gate.W_s.grad
        np.testing.assert_allclose(g[0], g[1], atol=1e-10)
        np.testing.assert_allclose(ps["attn_static.W_a"].grad,
                                   ps["attn_motion.W_a"].grad, atol=1e-10)


class TestTwoStreamFuse:
    def test_identity_on_equal_inputs(self):
        p = Tensor([0.25, 0.75])
        np.testing.assert_array_equal(two_stream_fuse(p, p).data, p.data)

    def test_even_mixture(self):
        out = two_stream_fuse(Tensor([1.0, 0.0]), Tensor([0.0, 1.0]))
        np.testing.assert_array_equal(out.data, [0.5, 0.5])

    def test_vocab_mismatch(self):
        with pytest.raises(ShapeError):
            two_stream_fuse(Tensor([1.0]), Tensor([0.5, 0.5]))

    def test_remains_distribution(self, rng):
        for _ in range(10):
            a = rng.random(7)
            b = rng.random(7)
            out = two_stream_fuse(Tensor(a / a.sum()), Tensor(b / b.sum()))
            assert abs(out.data.sum() - 1.0) <= 1e-12
