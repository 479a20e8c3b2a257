"""Losses, reward-based fine-tuning, and the two-stage training driver.

Stage 1 minimizes the teacher-forced negative log-likelihood with early
stopping on a validation metric.  Stage 2 (optional) fine-tunes with a
policy gradient: sample a caption, score it against a greedy-decoded
baseline, and push log-probs in proportion to the reward advantage.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import metrics
from .checkpoint import load_checkpoint, save_checkpoint
from .da import DaConfig, DeliberateDecoder
from .data import (
    BOS_ID, EOS_ID, CaptionBatch, Dataset, FeatureSet, Vocabulary, tokenize,
)
from .decoders import DecoderConfig, TwoStreamDecoder, build_variant
from .errors import ConfigError, EmptyInputError, ShapeError
from .optim import (
    adadelta_update, adam_lr, adam_update, clip_gradients, opt_state_arrays,
    opt_state_from_arrays, zero_grads,
)
from .search import greedy_decode
from .tensor import Tape, Tensor, at, backward, log, pick_per_row, sum_all

__all__ = [
    "mle_loss", "RewardConfig", "reward_gradient_step", "make_cider_reward",
    "TrainConfig", "TrainResult", "train", "parse_config_file",
]


def mle_loss(log_probs, targets: CaptionBatch) -> Tensor:
    """Negative log-likelihood over unmasked steps, averaged over the batch.

    ``log_probs`` is one (T, vocab) tensor for a single-sample batch or a
    sequence of them, one per sample; padded steps contribute exactly 0.
    """
    if isinstance(log_probs, Tensor):
        log_probs = [log_probs]
    if len(log_probs) != len(targets):
        raise ShapeError(f"{len(log_probs)} log-prob matrices for {len(targets)} captions")
    total = None
    for b, lp in enumerate(log_probs):
        if lp.data.shape[0] != targets.steps:
            raise ShapeError(
                f"log-probs cover {lp.data.shape[0]} steps but captions have {targets.steps}")
        picked = pick_per_row(lp, targets.tokens[b, 1:])
        masked = picked * Tensor(targets.target_mask(b))
        sample_loss = -sum_all(masked)
        total = sample_loss if total is None else total + sample_loss
    return total * (1.0 / len(targets))


@dataclass
class RewardConfig:
    """How to score sampled captions during reward fine-tuning.

    ``reward_fn(tokens, refs)`` maps a generated token-id sequence and the
    sample's reference strings to a scalar reward.  Sampling is plain
    ancestral sampling at temperature 1; the baseline is the greedy decode.
    """

    reward_fn: Callable[[list[int], list[str]], float]
    rng: np.random.Generator
    max_len: int = 30


def make_cider_reward(vocab: Vocabulary, corpus_refs: list[list[str]]):
    """Reward = CIDEr-D of the caption against its references, with document
    frequencies counted once, here, over the whole reference corpus."""
    scorer = metrics.CiderD([[tokenize(r) for r in refs] for refs in corpus_refs])

    def reward(tokens: list[int], refs: list[str]) -> float:
        return scorer.score(vocab.decode(tokens), [tokenize(r) for r in refs])

    return reward


def _sample_caption(decoder, features, rng, max_len):
    """Ancestral sampling; returns (tokens, list of per-step log-prob tensors)."""
    state = decoder.init_state(features)
    tok = BOS_ID
    tokens: list[int] = []
    terms = []
    for _ in range(max_len):
        p, state = decoder.step(state, tok)
        probs = p.data / p.data.sum()
        nxt = int(rng.choice(len(probs), p=probs))
        terms.append(log(at(p, nxt)))
        if nxt == EOS_ID:
            break
        tokens.append(nxt)
        tok = nxt
    return tokens, terms


def reward_gradient_step(decoder, features, refs, cfg: RewardConfig) -> float:
    """One self-critical update: accumulate the policy gradient, return the
    reward advantage of the sampled caption over the greedy baseline."""
    if refs is not None and len(refs) == 0:
        raise EmptyInputError("reward fine-tuning needs at least one reference")
    baseline = greedy_decode(decoder, features, max_len=cfg.max_len)
    with Tape():
        tokens, terms = _sample_caption(decoder, features, cfg.rng, cfg.max_len)
        advantage = cfg.reward_fn(tokens, refs) - cfg.reward_fn(baseline.tokens, refs)
        total = terms[0]
        for t in terms[1:]:
            total = total + t
        backward(total * (-advantage))
    return advantage


# ---------------------------------------------------------------------------
# training driver

_CONFIG_DEFAULTS = {
    "variant": "hlstmat_temporal",
    "data_dir": "",
    "hidden_dim": 512, "embed_dim": 512, "attn_dim": 512,
    "optimizer": "adadelta", "lr": 5e-4, "rho": 0.95, "eps": 1e-6,
    "lr_decay": 0.8, "lr_decay_every": 15,
    "epochs": 500, "patience": 20, "batch_size": 64,
    "dropout": 0.5, "clip": 10.0, "seed": 0,
    "val_metric": "cider",  # cider | bleu4 | loss
    "max_len": 30,
    "checkpoint": "", "log_path": "", "resume": "",
    "rl_epochs": 0, "rl_lr": 5e-4,
}

_INT_KEYS = {"hidden_dim", "embed_dim", "attn_dim", "epochs", "patience",
             "batch_size", "seed", "max_len", "rl_epochs", "lr_decay_every"}
_FLOAT_KEYS = {"lr", "rho", "eps", "dropout", "clip", "rl_lr", "lr_decay"}


def parse_config_file(path) -> dict[str, str]:
    """Line-based ``key = value`` files; '#' starts a comment."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (s.strip() for s in line.split("=", 1))
            out[key] = value
    return out


@dataclass
class TrainConfig:
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        merged = dict(_CONFIG_DEFAULTS)
        for k, v in self.values.items():
            if k not in merged:
                raise ConfigError(f"unknown config key {k!r}")
            merged[k] = v
        for k in _INT_KEYS:
            merged[k] = int(merged[k])
        for k in _FLOAT_KEYS:
            merged[k] = float(merged[k])
        self.values = merged

    def __getattr__(self, name):
        try:
            return self.values[name]
        except KeyError:
            raise AttributeError(name) from None

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> "TrainConfig":
        values = dict(overrides or {})
        values.update(parse_config_file(path))  # the file wins over flags
        return cls(values)


@dataclass
class TrainResult:
    history: list[dict]
    best_val: float
    checkpoint_path: str
    decoder: object
    vocab: Vocabulary


def _epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    # per-epoch stream so a resumed run replays the same shuffles and masks
    return np.random.default_rng([seed, epoch])


def _build_decoder(cfg: TrainConfig, vocab: Vocabulary, probe: FeatureSet):
    if cfg.variant == "da":
        da = DaConfig(vocab_size=len(vocab), hidden_dim=cfg.hidden_dim,
                      embed_dim=cfg.embed_dim, attn_dim=cfg.attn_dim,
                      region_dim=probe.require("spatial").shape[1],
                      global_dim=probe.require("global").shape[0],
                      dropout=cfg.dropout, seed=cfg.seed)
        return DeliberateDecoder(da)
    feature_dim = probe.require("temporal").shape[1]
    motion_dim = probe.motion.shape[1] if probe.motion is not None else None
    dc = DecoderConfig(vocab_size=len(vocab), hidden_dim=cfg.hidden_dim,
                       embed_dim=cfg.embed_dim, attn_dim=cfg.attn_dim,
                       feature_dim=feature_dim, motion_dim=motion_dim,
                       dropout=cfg.dropout, seed=cfg.seed)
    return build_variant(cfg.variant, dc)


def _sample_losses(decoder, features, batch: CaptionBatch, training, rng):
    """Per-batch mean loss tensor; two-stream sums its per-stream losses."""
    if isinstance(decoder, TwoStreamDecoder):
        lps = decoder.stream_teacher_forced(features, batch.tokens[0], training, rng)
        return mle_loss(lps[0], batch) + mle_loss(lps[1], batch)
    lp = decoder.forward_teacher_forced(features, batch.tokens[0], training, rng)
    return mle_loss(lp, batch)


def _val_score(cfg, decoder, dataset, vocab, split="val") -> float:
    samples = dataset.splits.get(split) or dataset.splits["train"]
    if cfg.val_metric == "loss":
        total = 0.0
        for s in samples:
            feats = dataset.features(s)
            ids = vocab.wrap(tokenize(s.refs[0]))
            lp = decoder.forward_teacher_forced(feats, ids)
            total += float(mle_loss(lp, CaptionBatch.from_id_seqs([ids])).data)
        return -total / len(samples)  # higher is better, like the metrics
    cands, refs = [], []
    for s in samples:
        feats = dataset.features(s)
        gen = greedy_decode(decoder, feats, max_len=cfg.max_len)
        cands.append(vocab.decode(gen.tokens))
        refs.append([tokenize(r) for r in s.refs])
    corpus = metrics.TokenizedCorpus(cands, refs)
    if cfg.val_metric == "cider":
        return metrics.cider(corpus)
    if cfg.val_metric == "bleu4":
        return metrics.bleu(corpus)[3]
    raise ConfigError(f"unknown val_metric {cfg.val_metric!r}")


def train(cfg: TrainConfig) -> TrainResult:
    """Stage-1 MLE training with early stopping; optional stage-2 rewards.

    The reward stage and the returned decoder start from the best
    checkpoint's weights, not from the last epoch's.

    Seeded end to end: parameter init, sample order and dropout masks all
    derive from cfg.seed, so one configuration reproduces bit-identical
    epoch losses.
    """
    if not cfg.data_dir:
        raise ConfigError("config must set data_dir")
    dataset = Dataset.load(cfg.data_dir)
    vocab = Vocabulary.load(Path(cfg.data_dir) / "vocab.json")
    train_samples = dataset.split("train")
    probe = dataset.features(train_samples[0])
    decoder = _build_decoder(cfg, vocab, probe)
    params = decoder.parameters()

    opt_state: dict = {}
    start_epoch = 0
    best_val = -np.inf
    stale = 0
    if cfg.resume:
        variant, arrays = load_checkpoint(cfg.resume)
        if variant != decoder.variant:
            raise ConfigError(f"checkpoint variant {variant!r} != configured {cfg.variant!r}")
        decoder.load_arrays(arrays)
        opt_state = opt_state_from_arrays(
            {k[len("opt/"):]: v for k, v in arrays.items() if k.startswith("opt/")})
        start_epoch = int(arrays["meta/epoch"]) + 1
        best_val = float(arrays["meta/best_val"])
        stale = int(arrays["meta/stale"])

    feats_cache = [dataset.features(s) for s in train_samples]
    ids_cache = [vocab.wrap(tokenize(s.refs[0])) for s in train_samples]

    history: list[dict] = []
    ckpt_path = cfg.checkpoint or str(Path(cfg.data_dir) / "model.ckpt")
    best_path = cfg.resume or None  # the file that holds the best weights so far
    stale_weights = False           # the weights in params are not the best

    for epoch in range(start_epoch, cfg.epochs):
        t0 = time.perf_counter()
        rng = _epoch_rng(cfg.seed, epoch)
        order = rng.permutation(len(train_samples))
        lr = adam_lr(cfg.lr, epoch, cfg.lr_decay, cfg.lr_decay_every)
        epoch_loss = 0.0
        for lo in range(0, len(order), cfg.batch_size):
            chunk = order[lo:lo + cfg.batch_size]
            zero_grads(params)
            batch_loss = 0.0
            for bi in chunk:
                batch = CaptionBatch.from_id_seqs([ids_cache[bi]])
                with Tape():
                    loss = _sample_losses(decoder, feats_cache[bi], batch, True, rng)
                    backward(loss * (1.0 / len(chunk)))
                batch_loss += float(loss.data)
            clip_gradients(params, cfg.clip)
            if cfg.optimizer == "adadelta":
                adadelta_update(params, opt_state, cfg.rho, cfg.eps)
            elif cfg.optimizer == "adam":
                adam_update(params, opt_state, lr)
            else:
                raise ConfigError(f"unknown optimizer {cfg.optimizer!r}")
            epoch_loss += batch_loss
        epoch_loss /= len(train_samples)

        val = _val_score(cfg, decoder, dataset, vocab)
        improved = val > best_val
        if improved:
            best_val = val
            stale = 0
            _save(ckpt_path, cfg, decoder, params, opt_state, epoch, best_val, stale)
            best_path = ckpt_path
        else:
            stale += 1
        stale_weights = not improved
        entry = {"epoch": epoch, "loss": epoch_loss, "val_metric": val,
                 "lr": lr if cfg.optimizer == "adam" else None,
                 "wall_time": time.perf_counter() - t0}
        history.append(entry)
        if cfg.log_path:
            with open(cfg.log_path, "a") as fh:
                fh.write(json.dumps(entry) + "\n")
        if cfg.patience and stale >= cfg.patience:
            break

    if stale_weights and best_path:
        decoder.load_arrays(load_checkpoint(best_path)[1])

    if cfg.rl_epochs > 0:
        ckpt_path = _reward_stage(cfg, decoder, params, train_samples, feats_cache, vocab,
                                  history, ckpt_path)

    return TrainResult(history, best_val, ckpt_path, decoder, vocab)


def _reward_stage(cfg, decoder, params, train_samples, feats_cache, vocab, history,
                  ckpt_path) -> str:
    """Self-critical fine-tuning over the MLE stage's train samples and
    their loaded features; saves to ``<ckpt_path>.rl`` with its Adam state,
    leaving the best MLE checkpoint in place, and returns that path."""
    reward = make_cider_reward(vocab, [s.refs for s in train_samples])
    opt_state: dict = {}
    for epoch in range(cfg.rl_epochs):
        rng = _epoch_rng(cfg.seed + 1_000_003, epoch)
        rcfg = RewardConfig(reward_fn=reward, rng=rng, max_len=cfg.max_len)
        t0 = time.perf_counter()
        adv_sum = 0.0
        for i, s in enumerate(train_samples):
            zero_grads(params)
            adv_sum += reward_gradient_step(decoder, feats_cache[i], s.refs, rcfg)
            clip_gradients(params, cfg.clip)
            adam_update(params, opt_state, cfg.rl_lr)
        entry = {"epoch": cfg.epochs + epoch, "loss": None,
                 "val_metric": adv_sum / len(train_samples), "lr": cfg.rl_lr,
                 "wall_time": time.perf_counter() - t0}
        history.append(entry)
        if cfg.log_path:
            with open(cfg.log_path, "a") as fh:
                fh.write(json.dumps(entry) + "\n")
    rl_path = f"{ckpt_path}.rl"
    _save(rl_path, cfg, decoder, params, opt_state, cfg.epochs + cfg.rl_epochs - 1,
          history[-1]["val_metric"], 0)
    return rl_path


def _save(path, cfg, decoder, params, opt_state, epoch, best_val, stale):
    arrays = {name: p.data for name, p in params.items()}
    for k, v in opt_state_arrays(opt_state).items():
        arrays[f"opt/{k}"] = v
    arrays["meta/epoch"] = np.asarray(float(epoch))
    arrays["meta/best_val"] = np.asarray(float(best_val))
    arrays["meta/stale"] = np.asarray(float(stale))
    for dim in ("hidden_dim", "embed_dim", "attn_dim"):
        arrays[f"meta/{dim}"] = np.asarray(float(getattr(cfg, dim)))
    save_checkpoint(path, decoder.variant, arrays)
