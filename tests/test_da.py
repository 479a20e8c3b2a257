from dataclasses import replace

import numpy as np
import pytest

import capgen.da
from capgen.da import DaConfig, DeliberateDecoder, da_step
from capgen.data import BOS_ID, FeatureSet
from capgen.errors import ShapeError
from capgen.search import greedy_decode
from capgen.testkit import decoder_gradcheck


def small_da(vocab=6, hidden=3, region=3, glob=2, **kw):
    base = dict(vocab_size=vocab, hidden_dim=hidden, embed_dim=hidden,
                attn_dim=2, region_dim=region, global_dim=glob, seed=5)
    base.update(kw)
    return DeliberateDecoder(DaConfig(**base))


def da_features(rng, cfg, regions=2):
    return FeatureSet(spatial=rng.standard_normal((regions, cfg.region_dim)),
                      global_vec=rng.standard_normal(cfg.global_dim))


def sigmoid_np(x):
    return 1.0 / (1.0 + np.exp(-x))


def softmax_np(x):
    e = np.exp(x - x.max())
    return e / e.sum()


def manual_da_step(ps, cfg, v_g, regions, token, h1, m1, h2, m2):
    """Independent numpy replay of the full two-pass chain."""
    def lstm(prefix, y, hp, mp):
        gate = {}
        H = len(hp)
        for k, g in enumerate("ifog"):
            rows = slice(k * H, (k + 1) * H)
            pre = (ps[f"{prefix}.W"][rows] @ y + ps[f"{prefix}.U"][rows] @ hp
                   + ps[f"{prefix}.b"][rows])
            gate[g] = np.tanh(pre) if g == "g" else sigmoid_np(pre)
        mn = gate["f"] * mp + gate["i"] * gate["g"]
        return gate["o"] * np.tanh(mn), mn

    w = ps["embed.E"][token]
    y1 = np.concatenate([v_g, h2, w])
    h1n, m1n = lstm("lstm1", y1, h1, m1)
    h1t = ps["W_rd.W"] @ np.concatenate([w, h1n])
    e1 = np.array([ps["attn1.w"] @ np.tanh(ps["attn1.U_a"] @ v + ps["attn1.W_a"] @ h1t)
                   for v in regions])
    a1 = softmax_np(e1)
    v1 = a1 @ regions

    y2 = np.concatenate([v_g, h1t, v1])
    h2n, m2n = lstm("lstm2", y2, h2, m2)
    g = sigmoid_np(ps["W_x"] @ y2 + ps["W_h"] @ h2)
    s = g * np.tanh(m2n)
    e2 = np.array([ps["attn2.w"] @ np.tanh(ps["attn2.U_a"] @ v + ps["attn2.W_a"] @ h2n)
                   for v in regions])
    sent = ps["sentinel.w"] @ np.tanh(ps["sentinel.U_a"] @ s + ps["sentinel.W_a"] @ h2n)
    a2 = softmax_np(np.concatenate([e2, [sent]]))
    s_vis = ps["sentinel_proj.W"] @ s if "sentinel_proj.W" in ps else s
    v2 = a2[:-1] @ regions + a2[-1] * s_vis
    h2t = ps["W_sd.W"] @ np.concatenate([h1t, h2n, v2])
    p = softmax_np(ps["out.W"] @ h2t + ps["out.b"])
    extras = {"a2": a2, "s_vis": s_vis, "v2": v2}
    return p, extras, (h1n, m1n, h2n, m2n)


class TestDaStep:
    def test_alpha2_covers_regions_plus_sentinel(self, rng):
        dec = small_da()
        feats = da_features(rng, dec.config, regions=4)
        state = dec.init_state([feats])
        p, state = dec.step(state, [BOS_ID])
        alpha = state.row.alpha
        assert alpha.shape == (1, 5)
        assert abs(alpha.sum() - 1.0) <= 1e-9
        assert abs(p.data.sum() - 1.0) <= 1e-9

    def test_sentinel_saturation_gives_pure_language_context(self, rng):
        dec = small_da(hidden=3, region=3)
        feats = da_features(rng, dec.config)
        # push every region score to -50 so the sentinel slot takes the mass:
        # zero the feature branch, make tanh(W_a h2) saturate to +1, and weigh
        # the saturated vector by -50/attn; the sentinel score stays 0
        attn = dec.attn2.w.data.shape[0]
        dec.attn2.U_a.data[:] = 0.0
        _, probe = dec.step(dec.init_state([feats]), [BOS_ID])  # h2 ignores attn2 params
        h2 = probe.h_top.data[0]
        dec.attn2.W_a.data[:] = 500.0 * np.sign(h2)[None, :] / max(np.abs(h2).sum(), 1e-9)
        dec.attn2.w.data[:] = -50.0 / attn
        dec.sentinel.U_a.data[:] = 0.0
        dec.sentinel.W_a.data[:] = 0.0
        state = dec.init_state([feats])
        _, state = dec.step(state, [BOS_ID])
        alpha = state.row.alpha[0]
        assert alpha[-1] > 1.0 - 1e-9
        assert alpha[:-1].max() < 1e-9
        # with all the mass on the sentinel slot, the attended vector is the
        # (projected) sentinel itself
        ps = {k: v.data for k, v in dec.parameters().items()}
        _, extras, _ = manual_da_step(ps, dec.config, feats.global_vec, feats.spatial,
                                      BOS_ID, *(np.zeros(3) for _ in range(4)))
        np.testing.assert_allclose(extras["v2"], extras["s_vis"], atol=1e-12)

    def test_matches_independent_hand_evaluation(self, rng):
        dec = small_da(vocab=3, hidden=2, region=2, glob=2)
        cfg = dec.config
        feats = da_features(rng, cfg, regions=2)
        ps = {k: v.data for k, v in dec.parameters().items()}
        state = dec.init_state([feats])
        h1 = m1 = h2 = m2 = np.zeros(2)
        for token in (BOS_ID, 2, 1):
            p, state = dec.step(state, [token])
            expect, _, (h1, m1, h2, m2) = manual_da_step(
                ps, cfg, feats.global_vec, feats.spatial, token, h1, m1, h2, m2)
            np.testing.assert_allclose(p.data[0], expect, atol=1e-9)
            np.testing.assert_allclose(state.h.data[0], h1, atol=1e-9)
            np.testing.assert_allclose(state.h_top.data[0], h2, atol=1e-9)

    def test_sentinel_projection_only_when_dims_differ(self):
        assert small_da(hidden=3, region=3).sentinel_proj is None
        assert small_da(hidden=3, region=4).sentinel_proj is not None

    def test_stage_named_error_on_region_dim_mismatch(self, rng):
        dec = small_da(region=3)
        feats = FeatureSet(spatial=rng.standard_normal((2, 5)),
                           global_vec=rng.standard_normal(dec.config.global_dim))
        with pytest.raises(ShapeError, match="regions have dim 5"):
            dec.init_state([feats])

    def test_explicit_surface_matches_method(self, rng):
        dec = small_da()
        feats = da_features(rng, dec.config)
        state = dec.init_state([feats])
        p_m, _ = dec.step(state, [BOS_ID])
        p_f, _ = da_step(dec, state, [BOS_ID])
        assert np.array_equal(p_m.data, p_f.data)


class TestDaGradients:
    def test_full_chain_gradcheck(self):
        assert decoder_gradcheck("da", hidden=6, vocab_size=8, frames=3) < 1e-4


class TestRegionKeys:
    def test_carried_keys_match_recomputing_them_each_step(self, rng, monkeypatch):
        dec = small_da(vocab=9, hidden=4, region=5, glob=3)
        wide = np.random.default_rng(3)
        for p in dec.parameters().values():
            p.data[...] = wide.standard_normal(p.data.shape)
        feats = da_features(rng, dec.config, regions=4)

        def outputs():
            gen = greedy_decode(dec, feats, max_len=6, record_trace=True)
            return gen.tokens, float.hex(gen.logprob), [row.alpha.tobytes() for row in gen.trace]

        carried = outputs()
        real = capgen.da.da_step

        def recomputing(dec, state, token_ids, rng=None):
            v_g, regions, _, _, mask = state.feats
            keys = (dec.attn1.keys(regions), dec.attn2.keys(regions))
            return real(dec, replace(state, feats=(v_g, regions) + keys + (mask,)), token_ids,
                        rng)

        monkeypatch.setattr(capgen.da, "da_step", recomputing)
        assert outputs() == carried
