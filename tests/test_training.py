import json
import math
import shutil
import warnings
import weakref

import numpy as np
import pytest

from pinned_weights import wide_decoder
from capgen.checkpoint import load_checkpoint
from capgen.cli import main
from capgen.data import (
    BOS_ID, EOS_ID, CaptionBatch, Dataset, Vocabulary, synth_dataset, tokenize,
)
from capgen.decoders import VARIANTS
from capgen.errors import ConfigError, ContractError, DomainError, ShapeError
from capgen.optim import zero_grads
from capgen.search import greedy_decode
from capgen.tensor import (
    Tape, Tensor, backward, log, pick_in_rows, reshape, softmax, stack_rows, sum_all, take_rows,
)
from capgen.testkit import tiny_features
from capgen.training import (
    RewardConfig, TrainConfig, mle_loss, parse_config_file, reward_gradient_step, train,
)


class TestMleLoss:
    def test_perfect_model_zero_loss(self):
        tokens = [BOS_ID, 4, EOS_ID]
        batch = CaptionBatch.from_id_seqs([tokens])
        lp = np.full((1, 2, 6), -50.0)
        lp[0, 0, 4] = 0.0   # log prob 1 on each target
        lp[0, 1, EOS_ID] = 0.0
        loss = mle_loss(Tensor(lp), batch)
        assert float(loss.data) == 0.0

    def test_uniform_model_gives_T_log_v(self):
        vocab = 9
        tokens = [BOS_ID, 4, 5, EOS_ID]
        batch = CaptionBatch.from_id_seqs([tokens])
        lp = np.full((1, 3, vocab), math.log(1.0 / vocab))
        loss = mle_loss(Tensor(lp), batch)
        assert float(loss.data) == pytest.approx(3 * math.log(vocab), rel=1e-12)

    def test_matches_stepwise_accumulation(self, rng):
        vocab = 7
        tokens = [BOS_ID, 5, 6, 4, EOS_ID]
        batch = CaptionBatch.from_id_seqs([tokens])
        raw = rng.standard_normal((4, vocab))
        lp = np.log(np.exp(raw) / np.exp(raw).sum(axis=1, keepdims=True))
        manual = -sum(lp[t, tokens[t + 1]] for t in range(4))
        loss = mle_loss(Tensor(lp[None]), batch)
        assert float(loss.data) == pytest.approx(manual, rel=1e-12)

    def test_batch_average(self, rng):
        a = [BOS_ID, 4, EOS_ID]
        b = [BOS_ID, 5, 6, EOS_ID]
        batch = CaptionBatch.from_id_seqs([a, b])
        lps = Tensor(np.full((2, batch.steps, 8), math.log(1 / 8)))
        loss = mle_loss(lps, batch)
        expect = (2 * math.log(8) + 3 * math.log(8)) / 2
        assert float(loss.data) == pytest.approx(expect, rel=1e-12)

    def test_length_mismatch(self):
        batch = CaptionBatch.from_id_seqs([[BOS_ID, 4, EOS_ID]])
        for shape in ((1, 5, 8), (2, 2, 8), (2, 8)):   # steps, captions, no batch axis
            with pytest.raises(ShapeError):
                mle_loss(Tensor(np.zeros(shape)), batch)


def test_reward_tokenizes_only_references_from_outside_its_corpus(monkeypatch):
    import capgen.training as training
    from capgen import metrics

    vocab = Vocabulary(["a", "dog", "cat", "the"])
    corpus = [["a dog", "the dog"], ["a cat"], ["a dog", "the dog"]]
    reward = training.make_cider_reward(vocab, corpus)
    calls = []
    monkeypatch.setattr(training, "tokenize", lambda text: calls.append(text) or tokenize(text))
    scorer = metrics.CiderD([[tokenize(r) for r in refs] for refs in corpus])
    for refs in (["a dog", "the dog"], ["a cat"], ["a cat dog", "a"]):
        before = len(calls)
        got = reward(vocab.encode(["a", "dog"]), refs)
        assert got == scorer.score(["a", "dog"], [tokenize(r) for r in refs])
        assert calls[before:] == ([] if refs in corpus else refs)


class _BanditPolicy:
    """Minimal decoder-protocol policy: one free (1, vocab) logit row,
    which every row of a state shares."""

    def __init__(self, vocab_size, locked):
        logits = np.full((1, vocab_size), -50.0)
        logits[0, list(locked)] = 0.0
        self.theta = Tensor(logits, requires_grad=True)

    def init_state(self, features):
        return 0

    def step(self, state, token_ids, rng=None):
        return softmax(take_rows(self.theta, [0] * len(token_ids))), state + 1

    def parameters(self):
        return {"theta": self.theta}


class TestRewardGradient:
    def make_bandit(self):
        policy = _BanditPolicy(6, locked=(4, 5))
        reward = lambda tokens, refs: 1.0 if tokens and tokens[0] == 4 else 0.0
        return policy, reward

    def test_bandit_learns_to_pick_rewarded_token(self):
        policy, reward = self.make_bandit()
        cfg = RewardConfig(reward_fn=reward, rng=np.random.default_rng(11), max_len=1)
        p0 = softmax(policy.theta).data[0]
        assert p0[4] == pytest.approx(0.5, abs=1e-10)
        for _ in range(200):
            policy.theta.grad = None
            reward_gradient_step(policy, None, ["ref"], cfg)
            if policy.theta.grad is not None:
                policy.theta.data -= 0.1 * policy.theta.grad
        assert softmax(policy.theta).data[0, 4] > 0.9

    def test_zero_advantage_zero_gradient(self):
        policy, _ = self.make_bandit()
        cfg = RewardConfig(reward_fn=lambda t, r: 1.0,  # constant reward
                           rng=np.random.default_rng(3), max_len=1)
        policy.theta.grad = None
        adv = reward_gradient_step(policy, None, ["ref"], cfg)
        assert adv == 0.0
        g = policy.theta.grad
        assert g is None or np.allclose(g, 0.0)

    def test_advantage_sign_flip_negates_gradient(self):
        policy, reward = self.make_bandit()
        neg_reward = lambda tokens, refs: -reward(tokens, refs)
        g = {}
        for name, fn in (("pos", reward), ("neg", neg_reward)):
            cfg = RewardConfig(reward_fn=fn, rng=np.random.default_rng(42), max_len=1)
            policy.theta.grad = None
            reward_gradient_step(policy, None, ["ref"], cfg)
            g[name] = (policy.theta.grad.copy() if policy.theta.grad is not None
                       else np.zeros_like(policy.theta.data))
        np.testing.assert_allclose(g["pos"], -g["neg"], atol=1e-12)

    def test_empty_references_rejected(self):
        policy, reward = self.make_bandit()
        cfg = RewardConfig(reward_fn=reward, rng=np.random.default_rng(0), max_len=1)
        with pytest.raises(Exception):
            reward_gradient_step(policy, None, [], cfg)


# variant -> (sampled tokens, float.hex advantage) of one seeded self-critical
# step under a position-weighted toy reward; DA's weights are drawn at scale
# 0.75, where its sampled caption differs from greedy's
PINNED_REWARD_STEPS = {
    "basic": ([8, 6, 9, 6, 6, 9, 9, 6], "0x1.56b17754a7448p-4"),
    "hlstmat_temporal": ([10, 5, 10, 1, 10, 5, 10, 5], "0x0.0p+0"),
    "conf": ([5, 5, 5, 5, 5, 1, 5, 3], "0x1.f1b89b0723b28p-3"),
    "para": ([7, 5, 1, 1, 8, 7, 8, 7], "-0x1.030f4c7e7859cp-1"),
    "two_stream": ([10, 5, 10, 5, 11, 11, 11, 3], "-0x1.05197f7d73404p-4"),
    "da": ([4, 4, 4, 4, 8, 7, 4, 4], "0x1.6f2bdb486a126p-3"),
}


def pinned_setup(variant):
    """The decoder and features of the pinned reward steps."""
    dec, dims = wide_decoder(variant)
    feats = tiny_features(np.random.default_rng(11), 4, dims["dim"], dims["motion_dim"],
                          dims["region_dim"], dims["global_dim"])
    return dec, feats


def seeded_reward_step(variant):
    """(sampled tokens, float.hex advantage) of one seeded
    ``reward_gradient_step`` of a tiny decoder with wide weights."""
    dec, feats = pinned_setup(variant)
    scored = []

    def reward(tokens, refs):
        scored.append(list(tokens))
        # the tokens as base-16 digits (every id is below 16, so distinct
        # captions sum apart) modulo the prime 251: few captions score alike
        return float(sum(t * 16 ** i for i, t in enumerate(tokens)) % 251) / 251

    cfg = RewardConfig(reward_fn=reward, rng=np.random.default_rng(6), max_len=8)
    advantage = reward_gradient_step(dec, feats, ["ref"], cfg)
    return scored[0], float.hex(advantage)


@pytest.mark.parametrize("variant", sorted(PINNED_REWARD_STEPS))
def test_seeded_reward_step_is_pinned(variant):
    """A seeded ``reward_gradient_step`` samples the pinned caption and
    returns the pinned advantage, bit for bit."""
    assert seeded_reward_step(variant) == PINNED_REWARD_STEPS[variant]


def test_pinned_reward_steps_see_the_advantage():
    """Only a sample that is the greedy caption, as hlstmat_temporal's is
    at its pin, has an advantage of 0."""
    assert [v for v, (_, adv) in PINNED_REWARD_STEPS.items()
            if float.fromhex(adv) == 0.0] == ["hlstmat_temporal"]


def forced_log_likelihood(dec, feats, targets):
    """The summed log-probs of ``targets`` fed one by one through the
    one-row state of ``init_state([feats])``, as a tape scalar."""
    state, fed, terms = dec.init_state([feats]), BOS_ID, []
    for tok in targets:
        p, state = dec.step(state, [fed])
        terms.append(log(pick_in_rows(p, [tok])))
        fed = tok
    return sum_all(stack_rows(terms))


class TestTwoRowRewardStep:
    """``reward_gradient_step`` samples its caption (row 0) and decodes the
    greedy baseline (row 1) from one two-row state under one tape."""

    MAX_LEN = 8

    def sampled_targets(self, tokens):
        # the sampled ids with the EOS that ended them, if it came in time
        return tokens + [EOS_ID] if len(tokens) < self.MAX_LEN else tokens

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_sampled_row_log_prob_equals_a_forced_replay(self, variant):
        import capgen.training as tr

        dec, feats = pinned_setup(variant)
        with Tape():
            sampled, _, picked = tr._sample_with_baseline(
                dec, feats, np.random.default_rng(6), self.MAX_LEN)
            got = float(np.log(np.stack([q.data for q in picked])[:, 0]).sum())
            want = float(forced_log_likelihood(dec, feats, self.sampled_targets(sampled)).data)
        assert len(picked) == len(self.sampled_targets(sampled))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_baseline_is_the_greedy_decode_and_the_rng_draws_once_per_token(self, variant):
        dec, feats = pinned_setup(variant)
        scored = []
        rng = np.random.default_rng(6)
        cfg = RewardConfig(reward_fn=lambda tokens, refs: scored.append(list(tokens)) or 0.0,
                           rng=rng, max_len=self.MAX_LEN)
        reward_gradient_step(dec, feats, ["ref"], cfg)
        sampled, baseline = scored
        assert baseline == greedy_decode(dec, feats, max_len=self.MAX_LEN).tokens
        replay = np.random.default_rng(6)
        replay.random(len(self.sampled_targets(sampled)))
        assert rng.bit_generator.state == replay.bit_generator.state

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_gradient_is_the_sampled_caption_likelihood_gradient_times_minus_advantage(
            self, variant):
        dec, feats = pinned_setup(variant)
        params = dec.parameters()
        scored, rewards = [], iter([1.0, 0.25])     # the sample's, then the baseline's
        cfg = RewardConfig(reward_fn=lambda tokens, refs: scored.append(list(tokens))
                           or next(rewards), rng=np.random.default_rng(6), max_len=self.MAX_LEN)
        zero_grads(params)
        assert reward_gradient_step(dec, feats, ["ref"], cfg) == 0.75
        got = {name: p.grad for name, p in params.items()}
        zero_grads(params)
        with Tape():
            backward(forced_log_likelihood(dec, feats, self.sampled_targets(scored[0]))
                     * -0.75)
        for name, p in params.items():
            if p.grad is None:
                assert got[name] is None or not got[name].any(), name
                continue
            scale = max(np.abs(p.grad).max(), 1.0)
            np.testing.assert_allclose(got[name], p.grad, rtol=0, atol=1e-12 * scale,
                                       err_msg=name)


class _ForkPolicy:
    """Rows-protocol test double whose distribution follows the fed token:
    a row fed token t gets ``table[t]``."""

    def __init__(self, table):
        self.table = np.asarray(table, dtype=np.float64)

    def init_state(self, features):
        return None

    def step(self, state, token_ids, rng=None):
        return Tensor(self.table[np.asarray(token_ids)]), state


def fork_table(dead_end):
    """After BOS, greedy takes word 5 and a sample may take word 4; the
    word ``dead_end`` leads to a row with no positive probability, the
    other to EOS."""
    table = np.zeros((6, 6))
    table[BOS_ID, 4:] = 0.45, 0.55
    table[9 - dead_end, EOS_ID] = 1.0       # row 9 - dead_end: the other of words 4 and 5
    return table


class TestRewardStepContract:
    def test_sampled_row_without_a_positive_token_is_a_contract_error(self):
        # the first draw of seed 2 picks word 4 (p = 0.45), whose next row is
        # all zero: a draw from it would raise numpy's ValueError and warn
        assert np.random.default_rng(2).random() < 0.45
        cfg = RewardConfig(reward_fn=lambda t, r: 0.0, rng=np.random.default_rng(2),
                           max_len=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError, match="sampled caption: no token had positive "
                                                    "probability at step 2"):
                reward_gradient_step(_ForkPolicy(fork_table(dead_end=4)), None, ["ref"], cfg)

    def test_greedy_row_without_a_positive_token_is_a_contract_error(self):
        cfg = RewardConfig(reward_fn=lambda t, r: 0.0, rng=np.random.default_rng(0),
                           max_len=4)
        with pytest.raises(ContractError, match="greedy decode: no token had positive "
                                                "probability at step 2"):
            reward_gradient_step(_ForkPolicy(fork_table(dead_end=5)), None, ["ref"], cfg)

    def test_max_len_below_one_is_a_contract_error(self):
        cfg = RewardConfig(reward_fn=lambda t, r: 0.0, rng=np.random.default_rng(0),
                           max_len=0)
        with pytest.raises(ContractError, match="max_len"):
            reward_gradient_step(_ForkPolicy(fork_table(dead_end=4)), None, ["ref"], cfg)


class TestConfig:
    def test_parse_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("variant = hlstmat_temporal  # the default\n"
                        "\n"
                        "epochs = 12\n"
                        "lr = 0.002\n")
        values = parse_config_file(path)
        assert values == {"variant": "hlstmat_temporal", "epochs": "12", "lr": "0.002"}

    def test_file_overrides_flags(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs = 7\n")
        cfg = TrainConfig.from_file(path, overrides={"epochs": 99, "seed": 5})
        assert cfg.epochs == 7
        assert cfg.seed == 5

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig({"learning_rate_typo": 1})

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("epochs 12\n")
        with pytest.raises(ConfigError):
            parse_config_file(path)


def poison_training(monkeypatch, fault):
    """Make every training sample's loss NaN (``fault="loss"``) or put a NaN
    into ``top.U``'s gradient after each backward.  Returns the list that
    receives (decoder, its initial parameter values) when train() builds it."""
    import capgen.training as tr
    built = []
    real_build, real_backward, real_loss = tr.build_decoder, tr.backward, tr.mle_loss

    def build(*args):
        dec = real_build(*args)
        built.append((dec, {k: p.data.copy() for k, p in dec.parameters().items()}))
        return dec

    def backward(loss):
        real_backward(loss)
        built[-1][0].top.U.grad[0, 0] = np.nan

    monkeypatch.setattr(tr, "build_decoder", build)
    if fault == "loss":
        monkeypatch.setattr(tr, "mle_loss", lambda *a: real_loss(*a) * float("nan"))
    else:
        monkeypatch.setattr(tr, "backward", backward)
    return built


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("synthdata")
    synth_dataset(seed=9, n_samples=4, vocab_size=6, length=3, dim=10,
                  out_dir=root)
    return root


class TestTrainDriver:
    def base_config(self, root, **kw):
        values = dict(data_dir=str(root), variant="hlstmat_temporal",
                      hidden_dim=10, embed_dim=10, attn_dim=8,
                      optimizer="adam", lr=3e-3, epochs=3, patience=0,
                      batch_size=2, dropout=0.0, seed=7, val_metric="loss",
                      max_len=8)
        values.update(kw)
        return TrainConfig(values)

    def test_runs_and_logs(self, tiny_dataset, tmp_path):
        log = tmp_path / "train.jsonl"
        ckpt = tmp_path / "m.ckpt"
        cfg = self.base_config(tiny_dataset, log_path=str(log), checkpoint=str(ckpt))
        result = train(cfg)
        assert len(result.history) == 3
        lines = [json.loads(l) for l in log.read_text().splitlines()]
        assert [l["epoch"] for l in lines] == [0, 1, 2]
        assert all(set(l) == {"epoch", "loss", "val_metric", "lr", "wall_time",
                              "forward_ms", "backward_ms", "update_ms", "val_ms",
                              "samples_per_s", "tokens_per_s", "clip_frac", "val_split",
                              "beta_mean", "attn_entropy_mean", "grad_norm",
                              "grad_norm_by_module"}
                   for l in lines)
        for l in lines:
            assert l["val_split"] == "val"
            assert l["beta_mean"] is None and l["attn_entropy_mean"] is None  # loss decodes nothing
            assert all(l[k] > 0 for k in ("forward_ms", "backward_ms", "update_ms", "val_ms",
                                          "samples_per_s", "tokens_per_s"))
            # 4 captions of 3 words + EOS: 4 target tokens per pair
            assert l["tokens_per_s"] == pytest.approx(4 * l["samples_per_s"])
            assert 0.0 <= l["clip_frac"] <= 1.0
            assert (l["forward_ms"] + l["backward_ms"] + l["update_ms"] + l["val_ms"]
                    <= 1000.0 * l["wall_time"])
        assert ckpt.exists()

    def test_logs_the_mean_pre_clip_gradient_norms(self, tiny_dataset, tmp_path, monkeypatch):
        """``grad_norm`` and ``grad_norm_by_module`` are the means over the
        epoch's batches of the L2 norms that clipping is handed, globally
        and per first part of the parameter names."""
        import capgen.training as tr
        real_clip, seen = tr.clip_gradients, []

        def clip(params, threshold):
            squares = {}    # module (None: all) -> summed squared gradient entries
            for name, p in params.items():
                for key in (name.split(".")[0], None):
                    squares[key] = squares.get(key, 0.0) + np.sum(p.grad ** 2)
            seen.append({key: np.sqrt(sq) for key, sq in squares.items()})
            return real_clip(params, threshold)

        monkeypatch.setattr(tr, "clip_gradients", clip)
        row = train(self.base_config(tiny_dataset, epochs=1, clip=0.01,
                                     checkpoint=str(tmp_path / "m.ckpt"))).history[0]
        assert len(seen) == 2       # 4 pairs in batches of 2
        assert row["grad_norm"] == pytest.approx(np.mean([s[None] for s in seen]), rel=1e-12)
        assert set(row["grad_norm_by_module"]) == {
            "embed", "bottom", "top", "init_h", "init_m", "attn", "gate", "out_hidden",
            "out_vocab"}
        for module, norm in row["grad_norm_by_module"].items():
            assert norm == pytest.approx(np.mean([s[module] for s in seen]), rel=1e-12)
        assert row["clip_frac"] > 0     # so the logged norms are the pre-clip ones

    def test_reward_rows_log_the_mean_pre_clip_gradient_norms(self, tiny_dataset, tmp_path,
                                                              monkeypatch):
        """A reward epoch's ``grad_norm`` and ``grad_norm_by_module`` are the
        means over its steps of the L2 norms that clipping is handed."""
        import capgen.training as tr
        real_clip, seen = tr.clip_gradients, []

        def clip(params, threshold):
            squares = {}    # module (None: all) -> summed squared gradient entries
            for name, p in params.items():
                for key in (name.split(".")[0], None):
                    squares[key] = squares.get(key, 0.0) + np.sum(p.grad ** 2)
            seen.append({key: np.sqrt(sq) for key, sq in squares.items()})
            return real_clip(params, threshold)

        monkeypatch.setattr(tr, "clip_gradients", clip)
        log = tmp_path / "train.jsonl"
        history = train(self.base_config(tiny_dataset, epochs=1, rl_epochs=1, clip=0.01,
                                         checkpoint=str(tmp_path / "m.ckpt"),
                                         log_path=str(log))).history
        steps = seen[2:]            # after the MLE epoch's 2 batches
        assert len(history) == 2 and len(steps) == 4   # one step per training sample
        row = history[1]
        assert row["grad_norm"] > 0     # the sampled and greedy captions differ
        assert row["grad_norm"] == pytest.approx(np.mean([s[None] for s in steps]), rel=1e-12)
        assert set(row["grad_norm_by_module"]) == set(history[0]["grad_norm_by_module"])
        for module, norm in row["grad_norm_by_module"].items():
            assert norm == pytest.approx(np.mean([s[module] for s in steps]), rel=1e-12)
        assert json.loads(log.read_text().splitlines()[1]) == row

    def test_without_val_split_scores_and_logs_train(self, tiny_dataset, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(tiny_dataset, data)
        manifest = json.loads((data / "manifest.json").read_text())
        del manifest["splits"]["val"]
        (data / "manifest.json").write_text(json.dumps(manifest))
        result = train(self.base_config(data, epochs=1, checkpoint=str(tmp_path / "m.ckpt")))
        assert result.history[0]["val_split"] == "train"

    @pytest.mark.parametrize("variant,components", [("hlstmat_temporal", 1), ("para", 3)])
    def test_validation_logs_gate_and_attention_telemetry(self, tmp_path, variant, components):
        """``beta_mean`` and ``attn_entropy_mean`` pool every trace row of
        the validation decode, EOS steps included, as one-clip decodes of
        the validation split with the returned weights give them."""
        synth_dataset(seed=9, n_samples=4, vocab_size=6, length=3, dim=10,
                      out_dir=tmp_path / "data", motion_segments=2)
        log = tmp_path / "train.jsonl"
        result = train(self.base_config(tmp_path / "data", variant=variant, epochs=1,
                                        val_metric="cider", log_path=str(log),
                                        checkpoint=str(tmp_path / "m.ckpt")))
        row = result.history[0]
        assert json.loads(log.read_text())["beta_mean"] == row["beta_mean"]
        assert len(row["beta_mean"]) == components
        assert all(0.0 <= b <= 1.0 for b in row["beta_mean"])
        if components == 3:   # a softmax triple
            assert sum(row["beta_mean"]) == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= row["attn_entropy_mean"] <= math.log(3) + 1e-12   # 3 frames per clip
        dataset = Dataset.load(tmp_path / "data")
        rows = [r for s in dataset.split("val")
                for r in greedy_decode(result.decoder, dataset.features(s), max_len=8,
                                       record_trace=True).trace]
        betas = np.array([r.beta for r in rows])
        entropy = [-sum(a * math.log(a) for a in r.alpha if a > 0) for r in rows]
        np.testing.assert_allclose(row["beta_mean"], betas.mean(axis=0), rtol=1e-9)
        assert row["attn_entropy_mean"] == pytest.approx(np.mean(entropy), rel=1e-9)

    @pytest.mark.parametrize("val_metric", ["loss", "cider"])
    @pytest.mark.parametrize("has_val", [True, False])
    def test_loads_each_split_once_per_call(self, tiny_dataset, tmp_path, monkeypatch,
                                            val_metric, has_val):
        """However many epochs run, each sample's features are read and each
        reference is tokenized once per split that uses it; with no ``val``
        split, validation reads the training features and references
        already loaded."""
        import capgen.training as tr
        data = tiny_dataset
        if not has_val:
            data = tmp_path / "data"
            shutil.copytree(tiny_dataset, data)
            manifest = json.loads((data / "manifest.json").read_text())
            del manifest["splits"]["val"]
            (data / "manifest.json").write_text(json.dumps(manifest))
        reads, tokenized = [], []
        real_features, real_tokenize = Dataset.features, tr.tokenize
        monkeypatch.setattr(Dataset, "features",
                            lambda self, s: reads.append(s.id) or real_features(self, s))
        monkeypatch.setattr(tr, "tokenize",
                            lambda text: tokenized.append(text) or real_tokenize(text))
        counts = []
        for epochs in (1, 3):
            reads.clear()
            tokenized.clear()
            train(self.base_config(data, epochs=epochs, val_metric=val_metric,
                                   checkpoint=str(tmp_path / f"m{epochs}.ckpt")))
            counts.append((len(reads), len(tokenized)))
        # 4 samples of one reference each, in the training and the validation split
        assert counts == [(8, 8) if has_val else (4, 4)] * 2

    @pytest.mark.parametrize("fault", ["loss", "gradient"])
    def test_non_finite_batch_stops_before_the_update(self, tiny_dataset, tmp_path,
                                                      monkeypatch, fault):
        built = poison_training(monkeypatch, fault)
        ckpt = tmp_path / "m.ckpt"
        with pytest.raises(DomainError, match="loss" if fault == "loss" else "'top.U'"):
            train(self.base_config(tiny_dataset, checkpoint=str(ckpt)))
        dec, initial = built[0]
        for name, p in dec.parameters().items():
            assert np.array_equal(p.data, initial[name]), name
        assert not ckpt.exists()

    def test_non_finite_reward_stops_the_reward_stage(self, tiny_dataset, tmp_path,
                                                       monkeypatch):
        import capgen.training as tr
        monkeypatch.setattr(tr, "make_cider_reward", lambda *a: lambda *b: float("nan"))
        ckpt = tmp_path / "m.ckpt"
        with pytest.raises(DomainError, match="advantage"):
            train(self.base_config(tiny_dataset, epochs=1, rl_epochs=1,
                                   checkpoint=str(ckpt)))
        assert ckpt.exists() and not (tmp_path / "m.ckpt.rl").exists()

    def test_cli_reports_a_non_finite_gradient(self, tiny_dataset, tmp_path, monkeypatch,
                                               capsys):
        poison_training(monkeypatch, "gradient")
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--data-dir", str(tiny_dataset), "--hidden-dim", "10",
                     "--embed-dim", "10", "--attn-dim", "8", "--epochs", "1",
                     "--checkpoint", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'top.U'" in err
        assert not ckpt.exists()

    def test_trains_and_validates_on_every_reference(self, tiny_dataset, tmp_path):
        import capgen.training as tr
        data = tmp_path / "data"
        shutil.copytree(tiny_dataset, data)
        manifest = json.loads((data / "manifest.json").read_text())
        words = manifest["splits"]["train"][1]["refs"][0].split()
        for split in ("train", "val"):
            manifest["splits"][split][0]["refs"].append(" ".join(words + words[:1]))
        (data / "manifest.json").write_text(json.dumps(manifest))
        cfg = self.base_config(data, epochs=1, batch_size=8, optimizer="adadelta",
                               checkpoint=str(tmp_path / "m.ckpt"))
        dataset = Dataset.load(data)
        vocab = Vocabulary.load(data / "vocab.json")

        def pair_losses(decoder, split):
            out = []
            for s in dataset.splits[split]:
                for ref in s.refs:
                    ids = vocab.wrap(tokenize(ref))
                    lp = decoder.forward_teacher_forced(dataset.features(s), ids)
                    out.append(float(mle_loss(reshape(lp, (1,) + lp.shape),
                                              CaptionBatch.from_id_seqs([ids])).data))
            return out

        initial = tr.build_decoder(cfg.variant, len(vocab),
                                   dataset.features(dataset.splits["train"][0]), cfg.hidden_dim,
                                   cfg.embed_dim, cfg.attn_dim, cfg.dropout, cfg.seed)
        before = pair_losses(initial, "train")
        assert len(before) == 5
        result = train(cfg)
        row = result.history[0]
        # one batch: the epoch loss is the initial model's mean over all five pairs
        assert row["loss"] == pytest.approx(np.mean(before), rel=1e-12)
        assert row["val_metric"] == pytest.approx(-np.mean(pair_losses(result.decoder, "val")),
                                                  rel=1e-12)
        # 4 captions of 4 target tokens and one of 5, over 5 pairs
        assert row["tokens_per_s"] / row["samples_per_s"] == pytest.approx(21 / 5)

    def test_two_stream_validation_loss_is_the_training_loss(self, tiny_dataset):
        import capgen.training as tr
        cfg = self.base_config(tiny_dataset, variant="two_stream", batch_size=3)
        dataset = Dataset.load(tiny_dataset)
        vocab = Vocabulary.load(tiny_dataset / "vocab.json")
        samples = dataset.splits["val"]
        decoder = tr.build_decoder(cfg.variant, len(vocab), dataset.features(samples[0]),
                                   cfg.hidden_dim, cfg.embed_dim, cfg.attn_dim, cfg.dropout,
                                   cfg.seed)
        # the sum of the two streams' losses, pair by pair
        want = []
        for s in samples:
            for ref in s.refs:
                batch = CaptionBatch.from_id_seqs([vocab.wrap(tokenize(ref))])
                loss = tr._batch_loss(decoder, [dataset.features(s)], batch)
                want.append(float(loss.data))
        got = tr._val_score(cfg, decoder, vocab, tr._val_set(dataset, vocab, "val", None))
        assert got == pytest.approx(-np.mean(want), rel=1e-12)

    def test_loss_decreases(self, tiny_dataset, tmp_path):
        cfg = self.base_config(tiny_dataset, epochs=8,
                               checkpoint=str(tmp_path / "m.ckpt"))
        result = train(cfg)
        assert result.history[-1]["loss"] < result.history[0]["loss"]

    def test_seeded_runs_bit_identical(self, tiny_dataset, tmp_path):
        losses = []
        for run in range(2):
            cfg = self.base_config(tiny_dataset,
                                   checkpoint=str(tmp_path / f"m{run}.ckpt"))
            result = train(cfg)
            losses.append([h["loss"] for h in result.history])
        assert losses[0] == losses[1]

    # one epoch's loss, captured when basic and da were teacher-forced one
    # step at a time; the batched passes must draw the same dropout masks
    @pytest.mark.parametrize("variant,loss_hex", [("basic", "0x1.21bfd78442232p+3"),
                                                  ("da", "0x1.250010918d030p+3")])
    def test_seeded_dropout_epoch_is_pinned(self, tiny_dataset, tmp_path, variant, loss_hex):
        cfg = self.base_config(tiny_dataset, variant=variant, epochs=1, dropout=0.5,
                               batch_size=4, checkpoint=str(tmp_path / "m.ckpt"))
        loss = train(cfg).history[0]["loss"]
        assert loss == pytest.approx(float.fromhex(loss_hex), rel=1e-12)

    def test_patience_stops_after_stagnation(self, tiny_dataset, tmp_path, monkeypatch):
        import capgen.training as tr
        monkeypatch.setattr(tr, "_val_score", lambda *a, **k: 1.0)  # frozen metric
        cfg = self.base_config(tiny_dataset, epochs=50, patience=3,
                               checkpoint=str(tmp_path / "m.ckpt"))
        result = train(cfg)
        # first epoch improves over -inf, then exactly `patience` stale epochs
        assert len(result.history) == 4

    def test_zero_patience_trains_every_epoch(self, tiny_dataset, tmp_path, monkeypatch):
        import capgen.training as tr
        monkeypatch.setattr(tr, "_val_score", lambda *a, **k: 1.0)  # frozen metric
        cfg = self.base_config(tiny_dataset, epochs=4, patience=0,
                               checkpoint=str(tmp_path / "m.ckpt"))
        assert len(train(cfg).history) == 4

    @pytest.mark.parametrize("key", ["patience", "rl_epochs"])
    def test_negative_count_is_a_config_error(self, tiny_dataset, tmp_path, key):
        ckpt = tmp_path / "m.ckpt"
        cfg = self.base_config(tiny_dataset, epochs=4, checkpoint=str(ckpt), **{key: -1})
        with pytest.raises(ConfigError, match=f"^{key} must be at least 0, got -1$"):
            train(cfg)
        assert not ckpt.exists()

    def test_returns_best_checkpoint_weights(self, tiny_dataset, tmp_path, monkeypatch):
        import capgen.training as tr
        scores = iter([0.1, 0.5, 0.3, 0.2])  # best at epoch 1 of 4
        monkeypatch.setattr(tr, "_val_score", lambda *a, **k: next(scores))
        ckpt = tmp_path / "m.ckpt"
        result = train(self.base_config(tiny_dataset, epochs=4, checkpoint=str(ckpt)))
        _, arrays = load_checkpoint(ckpt)
        assert int(arrays["meta/epoch"]) == 1 and result.best_val == 0.5
        for name, p in result.decoder.parameters().items():
            assert np.array_equal(p.data, arrays[name]), name

    def test_resume_reproduces_next_epoch_loss(self, tiny_dataset, tmp_path):
        full = train(self.base_config(tiny_dataset, epochs=4, val_metric="loss",
                                      checkpoint=str(tmp_path / "full.ckpt")))
        part_ckpt = tmp_path / "part.ckpt"
        train(self.base_config(tiny_dataset, epochs=3, val_metric="loss",
                               checkpoint=str(part_ckpt)))
        resumed = train(self.base_config(tiny_dataset, epochs=4, val_metric="loss",
                                         checkpoint=str(tmp_path / "resumed.ckpt"),
                                         resume=str(part_ckpt)))
        assert resumed.history[0]["epoch"] == 3
        assert resumed.history[0]["loss"] == pytest.approx(full.history[3]["loss"],
                                                           abs=1e-9)

    @pytest.mark.parametrize("rl_epochs", [0, 1])
    def test_returned_decoder_holds_no_gradient(self, tiny_dataset, tmp_path, rl_epochs):
        result = train(self.base_config(tiny_dataset, epochs=1, rl_epochs=rl_epochs,
                                        checkpoint=str(tmp_path / "m.ckpt")))
        assert [name for name, p in result.decoder.parameters().items()
                if p.grad is not None] == []

    def test_resume_keeps_only_the_loaded_optimizer_state(self, tiny_dataset, tmp_path,
                                                         monkeypatch):
        """Once a resumed run's first epoch ends, the records it loaded are
        gone, but for the optimizer arrays it trains on."""
        import capgen.training as tr
        part_ckpt = tmp_path / "part.ckpt"
        train(self.base_config(tiny_dataset, epochs=1, checkpoint=str(part_ckpt)))
        refs, alive = {}, []

        def load(path):
            variant, arrays = load_checkpoint(path)
            refs.update((name, weakref.ref(arr)) for name, arr in arrays.items())
            return variant, arrays

        def score(*args, **kw):
            alive.append({name for name, ref in refs.items() if ref() is not None})
            return val_score(*args, **kw)

        val_score = tr._val_score
        monkeypatch.setattr(tr, "load_checkpoint", load)
        monkeypatch.setattr(tr, "_val_score", score)
        result = train(self.base_config(tiny_dataset, epochs=2, resume=str(part_ckpt),
                                        checkpoint=str(tmp_path / "resumed.ckpt")))
        params = result.decoder.parameters()
        assert set(params) < set(refs)
        assert alive == [{f"opt/{name}/{slot}" for name in params for slot in ("m", "v")}]

    def test_reward_stage_keeps_best_mle_checkpoint(self, tiny_dataset, tmp_path):
        mle = train(self.base_config(tiny_dataset, epochs=2,
                                     checkpoint=str(tmp_path / "mle.ckpt")))
        both = train(self.base_config(tiny_dataset, epochs=2, rl_epochs=1,
                                      checkpoint=str(tmp_path / "both.ckpt")))
        assert mle.checkpoint_path == str(tmp_path / "mle.ckpt")
        assert (tmp_path / "both.ckpt").read_bytes() == (tmp_path / "mle.ckpt").read_bytes()
        assert both.checkpoint_path == str(tmp_path / "both.ckpt.rl")
        variant, arrays = load_checkpoint(both.checkpoint_path)
        assert variant == "hlstmat_temporal"
        params = both.decoder.parameters()
        for name, p in params.items():
            np.testing.assert_array_equal(arrays[name], p.data)
            assert arrays[f"opt/{name}/m"].shape == p.data.shape
        assert int(arrays["opt/step"]) == 4  # one Adam step per training sample
