"""Losses, reward-based fine-tuning, and the two-stage training driver.

Stage 1 minimizes the teacher-forced negative log-likelihood with early
stopping on a validation metric.  Stage 2 (optional) fine-tunes with a
policy gradient: sample a caption, score it against a greedy-decoded
baseline, and push log-probs in proportion to the reward advantage.  The
sample and the baseline are two rows of one decoder state, stepped
together under one tape by ``search.sample_with_baseline``.  This module
steps no decoder itself: every decoding loop, greedy and sampled, is
``search._rows``, and this module keeps only the tape, the rewards and
the loss.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import metrics
from .checkpoint import load_checkpoint, save_checkpoint
from .da import DaConfig, DeliberateDecoder
from .data import CaptionBatch, Dataset, FeatureSet, Vocabulary, tokenize
from .decoders import DecoderConfig, TwoStreamDecoder, build_variant, check_variant
from .errors import ConfigError, ContractError, DomainError, EmptyInputError, ShapeError
from .optim import (
    adadelta_update, adam_lr, adam_update, clip_gradients, opt_state_arrays,
    opt_state_from_arrays, zero_grads,
)
from .search import GREEDY_CHUNK, greedy_decode, sample_with_baseline
from .tensor import (
    Tape, Tensor, backward, log, narrow, pick_in_rows, reshape, stack_rows, sum_all,
)

__all__ = [
    "mle_loss", "RewardConfig", "reward_gradient_step", "make_cider_reward",
    "TrainConfig", "TrainResult", "train", "build_decoder",
]


def mle_loss(log_probs: Tensor, targets: CaptionBatch) -> Tensor:
    """Negative log-likelihood over unmasked steps, averaged over the batch.

    ``log_probs`` is one (B, T, vocab) tensor for the whole batch.  All B·T
    rows are picked at once; padded steps contribute exactly 0.
    """
    if log_probs.data.ndim != 3 or log_probs.shape[:2] != (len(targets), targets.steps):
        raise ShapeError(f"log-probs of shape {log_probs.shape} do not fit a batch of "
                         f"{len(targets)} captions of {targets.steps} steps")
    width, steps, vocab = log_probs.shape
    picked = pick_in_rows(reshape(log_probs, (width * steps, vocab)),
                          targets.tokens[:, 1:].reshape(-1))
    mask = np.arange(steps) < targets.lengths[:, None] - 1
    return sum_all(picked * Tensor(mask.reshape(-1).astype(np.float64))) * (-1.0 / width)


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
    frequencies counted once, here, over the whole reference corpus.  The
    corpus's reference sets are tokenized and encoded once too, and a call
    codes only its caption against that encoding, as ``metrics.cider``
    codes a corpus's candidates; a set from outside the corpus is
    tokenized on each call and coded with the caption."""
    scorer = metrics.CiderD([[tokenize(r) for r in refs] for refs in corpus_refs])
    known = {tuple(refs): i for i, refs in enumerate(corpus_refs)}

    def reward(tokens: list[int], refs: list[str]) -> float:
        i = known.get(tuple(refs))
        return scorer.score(vocab.decode(tokens),
                            [tokenize(r) for r in refs] if i is None else i)

    return reward


def reward_gradient_step(decoder, features, refs, cfg: RewardConfig) -> float:
    """One self-critical update: accumulate the policy gradient, return the
    reward advantage of a sampled caption over the greedy baseline.

    Both captions come from one taped pass over a two-row state of
    ``features``, stepped by ``search.sample_with_baseline``.  Row 0
    samples, one ``cfg.rng`` draw per sampled token, EOS included; row 1
    is ``greedy_decode``'s caption, with its ties and its EOS rule.  The
    loss is -advantage times the sum of row 0's log-probs of its tokens;
    row 1 takes no term, so its gradient is exactly 0.  A ``max_len``
    below 1, raised before the tape opens, or a step where a live row has
    no token of positive probability, is a ``ContractError``."""
    if refs is not None and len(refs) == 0:
        raise EmptyInputError("reward fine-tuning needs at least one reference")
    if cfg.max_len < 1:
        raise ContractError(f"max_len must be >= 1, got {cfg.max_len}")
    with Tape():
        sampled, baseline, picked = sample_with_baseline(decoder, features, cfg.rng,
                                                         cfg.max_len)
        advantage = cfg.reward_fn(sampled, refs) - cfg.reward_fn(baseline, refs)
        backward(sum_all(log(narrow(stack_rows(picked), 0, 1))) * (-advantage))
    return advantage


# ---------------------------------------------------------------------------
# training driver

# Every training setting and its default.  The type of the default types
# the key: ``TrainConfig`` converts numeric values to it, and ``capgen
# train`` has one flag of that type per key.
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


def parse_config_file(path) -> dict[str, str]:
    """Line-based ``key = value`` files; '#' starts a comment."""
    out = {}
    try:
        fh = open(path)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from None
    with fh:
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
    """``_CONFIG_DEFAULTS`` updated by ``values``; a value for a key with a
    numeric default is converted to the type of that default."""

    values: dict = field(default_factory=dict)

    def __post_init__(self):
        merged = dict(_CONFIG_DEFAULTS)
        for k, v in self.values.items():
            if k not in merged:
                raise ConfigError(f"unknown config key {k!r}")
            kind = type(_CONFIG_DEFAULTS[k])
            try:
                merged[k] = v if kind is str else kind(v)
            except (TypeError, ValueError):
                raise ConfigError(f"config key {k!r} takes {kind.__name__} values, "
                                  f"got {v!r}") from None
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
        try:
            return cls(values)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None


@dataclass
class TrainResult:
    history: list[dict]
    best_val: float
    checkpoint_path: str    # the file that holds ``decoder``'s weights
    decoder: object
    vocab: Vocabulary


def _epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    # per-epoch stream so a resumed run replays the same shuffles and masks
    return np.random.default_rng([seed, epoch])


def build_decoder(variant: str, vocab_size: int, features: FeatureSet, hidden_dim: int,
                  embed_dim: int, attn_dim: int, dropout: float = 0.0, seed: int = 0):
    """The ``variant`` decoder, sized from one sample's ``features``: the
    width of the kind it attends (the regions for ``hlstmat_spatial`` and
    ``da``, the frames otherwise), the motion width where there are motion
    features, and DA's global width.  Every decoder is built here.  An
    unknown ``variant`` is a ``ConfigError``, raised before any feature is
    read."""
    check_variant(variant)
    if variant == "da":
        return DeliberateDecoder(DaConfig(
            vocab_size=vocab_size, hidden_dim=hidden_dim, embed_dim=embed_dim,
            attn_dim=attn_dim, region_dim=features.require("spatial").shape[1],
            global_dim=features.require("global").shape[0], dropout=dropout, seed=seed))
    attended = features.require("spatial" if variant == "hlstmat_spatial" else "temporal")
    return build_variant(variant, DecoderConfig(
        vocab_size=vocab_size, hidden_dim=hidden_dim, embed_dim=embed_dim,
        attn_dim=attn_dim, feature_dim=attended.shape[1],
        motion_dim=None if features.motion is None else features.motion.shape[1],
        dropout=dropout, seed=seed))


def _batch_loss(decoder, features: list[FeatureSet], batch: CaptionBatch, rng=None):
    """Mean loss tensor of one batch, teacher-forced in one forward pass,
    with dropout drawn from ``rng`` (None: no dropout); two-stream sums its
    per-stream losses."""
    if isinstance(decoder, TwoStreamDecoder):
        lps = decoder.stream_teacher_forced(features, batch, rng)
        return mle_loss(lps[0], batch) + mle_loss(lps[1], batch)
    return mle_loss(decoder.forward_teacher_forced(features, batch, rng), batch)


def _val_set(dataset, vocab: Vocabulary, split: str, train_feats: list[FeatureSet]):
    """``split``'s features (``train_feats`` for the train split), its
    (sample index, caption ids) pair for every reference of every sample,
    and its tokenized references.  Training reads the train split's pairs,
    and validation reads all three every epoch."""
    samples = dataset.splits[split]
    feats = train_feats if split == "train" else [dataset.features(s) for s in samples]
    refs = [[tokenize(r) for r in s.refs] for s in samples]
    return feats, [(i, vocab.wrap(toks)) for i, rs in enumerate(refs) for toks in rs], refs


def _val_score(cfg, decoder, vocab, val, decoded: list | None = None) -> float:
    """``cfg.val_metric`` of ``decoder`` over the split that ``_val_set``
    loaded into ``val``; higher is better.  A caption metric greedy-decodes
    the split ``GREEDY_CHUNK`` clips at a time, recording traces, and
    appends each clip's ``GenerationResult`` to ``decoded`` when given."""
    feats, pairs, refs = val
    if cfg.val_metric == "loss":   # the training loss, over every (sample, reference) pair
        total = 0.0
        for lo in range(0, len(pairs), cfg.batch_size):
            chunk = pairs[lo:lo + cfg.batch_size]
            batch = CaptionBatch.from_id_seqs([ids for _, ids in chunk])
            loss = _batch_loss(decoder, [feats[i] for i, _ in chunk], batch)
            total += float(loss.data) * len(chunk)
        return -total / len(pairs)
    gens = [gen for lo in range(0, len(feats), GREEDY_CHUNK)
            for gen in greedy_decode(decoder, feats[lo:lo + GREEDY_CHUNK], max_len=cfg.max_len,
                                     record_trace=True)]
    if decoded is not None:
        decoded.extend(gens)
    corpus = metrics.TokenizedCorpus([vocab.decode(gen.tokens) for gen in gens], refs)
    if cfg.val_metric == "cider":
        return metrics.cider(corpus)
    return metrics.bleu(corpus)[3]


def _trace_means(gens) -> dict:
    """``beta_mean``, the mean of each β component, and
    ``attn_entropy_mean``, the mean entropy of α over its entries above 0,
    over every trace row of ``gens``; both None when there is no row."""
    if not gens:
        return {"beta_mean": None, "attn_entropy_mean": None}
    betas = np.concatenate([np.stack([r.beta for r in gen.trace]) for gen in gens])
    entropies = []
    for gen in gens:
        alpha = np.stack([r.alpha for r in gen.trace])
        with np.errstate(divide="ignore", invalid="ignore"):
            entropies.append(-np.where(alpha > 0, alpha * np.log(alpha), 0.0).sum(axis=1))
    return {"beta_mean": betas.mean(axis=0).tolist(),
            "attn_entropy_mean": float(np.concatenate(entropies).mean())}


def _check_finite(epoch: int, params: dict[str, Tensor], **scalars: float) -> None:
    """Raise ``DomainError`` naming the first of ``scalars`` (the batch
    ``loss`` or the reward ``advantage``) that is not finite, else the
    first parameter whose gradient holds a NaN or an infinity."""
    for name, value in scalars.items():
        if not np.isfinite(value):
            raise DomainError(f"epoch {epoch}: the {name} is {value}; no update was made")
    for name, p in params.items():
        if p.grad is not None and not np.isfinite(p.grad).all():
            raise DomainError(f"epoch {epoch}: the gradient of {name!r} is not finite; "
                              "no update was made")


def _grad_squares(params: dict[str, Tensor]) -> dict[str, float]:
    """Each module's summed squared gradient entries, keyed by the first
    part of its parameters' names."""
    out: dict[str, float] = {}
    for name, p in params.items():
        if p.grad is not None:
            key = name.split(".", 1)[0]
            out[key] = out.get(key, 0.0) + float(np.vdot(p.grad, p.grad))
    return out


def _grad_norms(squares: list[dict[str, float]]) -> dict:
    """``grad_norm`` and ``grad_norm_by_module``: the mean over steps of the
    L2 norms of ``_grad_squares`` rows, all modules and each one."""
    return {"grad_norm": float(np.mean([np.sqrt(sum(n.values())) for n in squares])),
            "grad_norm_by_module": {k: float(np.sqrt([n[k] for n in squares]).mean())
                                    for k in squares[0]}}


# the per-parameter state slots of each optimizer, as checkpoints store them
_OPTIMIZER_SLOTS = {"adadelta": {"Eg", "Ex"}, "adam": {"m", "v"}}


def train(cfg: TrainConfig) -> TrainResult:
    """Stage-1 MLE training with early stopping; optional stage-2 rewards.

    The reward stage and the returned decoder start from the best
    checkpoint's weights, not from the last epoch's.  The result names
    the file that holds the returned weights: ``<checkpoint>.rl`` after
    a reward stage, else the best MLE checkpoint, which is the resumed
    file when no epoch of this run improved on it.  A non-finite batch
    loss, reward advantage or gradient stops training with ``DomainError``
    before the optimizer steps or a checkpoint is written.  A
    ``batch_size``, ``epochs``, ``lr_decay_every``, ``hidden_dim``,
    ``embed_dim``, ``attn_dim`` or ``max_len`` below 1, a ``patience`` or
    ``rl_epochs`` below 0, a ``clip``, ``eps``, ``lr`` or ``rl_lr`` not
    above 0, a ``dropout`` or ``rho`` outside [0, 1), or an ``lr_decay``
    outside (0, 1], is a ``ConfigError`` that names the key.  So is an
    output path that is a directory: the checkpoint (``checkpoint``, or
    ``<data_dir>/model.ckpt`` when it is unset), ``log_path``, and with
    ``rl_epochs`` above 0 the reward stage's ``<checkpoint>.rl``; the
    error names the path.  A missing directory for any of them is an
    ``OSError``.  Both are raised before any data loads.  A sample with
    no references in the train split, or in the split that validation
    scores, is a ``ConfigError`` naming the split and the sample, raised
    before any features load.  A ``resume`` checkpoint that the reward
    stage wrote, or whose optimizer state is another optimizer's, is a
    ``ConfigError`` raised before any epoch runs.

    Each array is held once.  A resumed run copies the file's weights into
    the decoder and keeps the file's optimizer arrays as its state, then
    drops the rest of what it loaded.  The last batch's gradients and the
    MLE optimizer state are released when the MLE epochs end, and the
    reward stage's gradients when it ends, so the returned decoder holds
    no gradient.

    Training runs over every (sample, reference) pair; each batch of
    ``batch_size`` pairs is one forward and one ``backward`` under one
    ``Tape``.  Each training sample's features and tokenized references,
    and the validation split's, are loaded once per call; with no ``val``
    split, validation reuses the training split's.  A caption
    ``val_metric`` greedy-decodes the validation clips ``GREEDY_CHUNK`` at
    a time (``search.greedy_decode`` over many clips).

    Each MLE epoch's history row holds ``epoch``, ``loss`` (per pair),
    ``val_metric`` and the ``val_split`` it scored (``val``, or ``train``
    when the dataset has no ``val``), ``lr`` and ``wall_time`` in seconds,
    the epoch's ``forward_ms``, ``backward_ms``, ``update_ms`` (clipping
    plus the optimizer) and ``val_ms``, ``samples_per_s`` and
    ``tokens_per_s``: training pairs and unpadded target tokens over the
    time of the epoch's batch loop, and ``clip_frac``, the share of
    gradient entries that clipping clamped.  ``grad_norm`` is the mean
    over the batches of the gradient's L2 norm before clipping, and
    ``grad_norm_by_module`` of each module's, keyed by the first part of
    its parameters' names.  Two fields read the trace rows of the
    validation decode, every step of every clip's caption, the EOS step
    included: ``beta_mean``, the mean of each adaptive-gate β component (a
    list, of 3 for ``para``; DA's β is its sentinel's attention weight,
    and it is ``[1.0]`` where there is no gate), and
    ``attn_entropy_mean``, the mean entropy -Σ α log α of the recorded
    attention weights α over their entries above 0, so padding adds
    nothing (DA's α includes its sentinel).  Both are None when
    ``val_metric`` is ``loss``, which decodes nothing.

    Each reward epoch's row holds ``epoch``, ``loss`` (None),
    ``val_metric`` (the mean reward advantage over the epoch's steps),
    ``lr`` and ``wall_time``, and ``grad_norm`` and
    ``grad_norm_by_module`` as in MLE rows, averaged over its steps, one
    per training sample.

    Seeded end to end: parameter init, pair order and dropout masks all
    derive from cfg.seed, so one configuration reproduces bit-identical
    epoch losses.
    """
    if not cfg.data_dir:
        raise ConfigError("config must set data_dir")
    check_variant(cfg.variant)
    if cfg.optimizer not in _OPTIMIZER_SLOTS:
        raise ConfigError(f"unknown optimizer {cfg.optimizer!r}")
    if cfg.val_metric not in ("cider", "bleu4", "loss"):
        raise ConfigError(f"unknown val_metric {cfg.val_metric!r}")
    for key, least in (("batch_size", 1), ("epochs", 1), ("lr_decay_every", 1),
                       ("hidden_dim", 1), ("embed_dim", 1), ("attn_dim", 1), ("max_len", 1),
                       ("patience", 0), ("rl_epochs", 0)):
        if getattr(cfg, key) < least:
            raise ConfigError(f"{key} must be at least {least}, got {getattr(cfg, key)}")
    for key, ok, rule in (("clip", cfg.clip > 0, "above 0"), ("eps", cfg.eps > 0, "above 0"),
                          ("lr", cfg.lr > 0, "above 0"), ("rl_lr", cfg.rl_lr > 0, "above 0"),
                          ("lr_decay", 0 < cfg.lr_decay <= 1, "in (0, 1]"),
                          ("dropout", 0 <= cfg.dropout < 1, "in [0, 1)"),
                          ("rho", 0 <= cfg.rho < 1, "in [0, 1)")):
        if not ok:
            raise ConfigError(f"{key} must be {rule}, got {getattr(cfg, key)}")
    ckpt_path = cfg.checkpoint or str(Path(cfg.data_dir) / "model.ckpt")
    outputs = [("checkpoint", ckpt_path), ("log_path", cfg.log_path)]
    if cfg.rl_epochs > 0:
        outputs.append(("reward-stage checkpoint", f"{ckpt_path}.rl"))
    for key, path in outputs:
        if path:    # a missing output directory fails now, with its OSError
            os.scandir(Path(path).parent).close()
            if Path(path).is_dir():
                raise ConfigError(f"{key} {path!r} is a directory; it must name a file")
    dataset = Dataset.load(cfg.data_dir)
    val_split = "val" if dataset.splits.get("val") else "train"
    for split in dict.fromkeys(("train", val_split)):
        for sample in dataset.split(split):
            if not sample.refs:
                raise ConfigError(f"sample {sample.id!r} of split {split!r} has no references")
    vocab = Vocabulary.load(Path(cfg.data_dir) / "vocab.json")
    train_samples = dataset.split("train")
    feats_cache = [dataset.features(s) for s in train_samples]
    decoder = build_decoder(cfg.variant, len(vocab), feats_cache[0], cfg.hidden_dim,
                            cfg.embed_dim, cfg.attn_dim, cfg.dropout, cfg.seed)
    params = decoder.parameters()
    opt_state, start_epoch, best_val, stale = (
        _resume(cfg, decoder) if cfg.resume else ({}, 0, -np.inf, 0))

    train_set = _val_set(dataset, vocab, "train", feats_cache)
    pairs = train_set[1]

    history: list[dict] = []
    best_path = cfg.resume or None  # the file that holds the best weights so far
    stale_weights = False           # the weights in params are not the best

    val = train_set if val_split == "train" else _val_set(dataset, vocab, "val", None)
    for epoch in range(start_epoch, cfg.epochs):
        t0 = time.perf_counter()
        rng = _epoch_rng(cfg.seed, epoch)
        order = rng.permutation(len(pairs))
        lr = adam_lr(cfg.lr, epoch, cfg.lr_decay, cfg.lr_decay_every)
        epoch_loss = 0.0
        forward_s = backward_s = update_s = 0.0
        tokens = clamped = entries = 0
        norms = []      # per batch: each module's squared gradient norm before clipping
        for lo in range(0, len(order), cfg.batch_size):
            chunk = [pairs[j] for j in order[lo:lo + cfg.batch_size]]
            batch = CaptionBatch.from_id_seqs([ids for _, ids in chunk])
            zero_grads(params)
            with Tape():
                ta = time.perf_counter()
                loss = _batch_loss(decoder, [feats_cache[i] for i, _ in chunk], batch, rng)
                tb = time.perf_counter()
                backward(loss)
                forward_s += tb - ta
                backward_s += time.perf_counter() - tb
            batch_loss = float(loss.data) * len(chunk)
            tokens += int((batch.lengths - 1).sum())
            _check_finite(epoch, params, loss=batch_loss)
            norms.append(_grad_squares(params))
            entries += sum(p.grad.size for p in params.values() if p.grad is not None)
            ta = time.perf_counter()
            clamped += clip_gradients(params, cfg.clip)
            if cfg.optimizer == "adadelta":
                adadelta_update(params, opt_state, cfg.rho, cfg.eps)
            else:
                adam_update(params, opt_state, lr)
            update_s += time.perf_counter() - ta
            epoch_loss += batch_loss
        epoch_loss /= len(pairs)
        train_s = time.perf_counter() - t0

        decoded: list = []
        score = _val_score(cfg, decoder, vocab, val, decoded)
        val_s = time.perf_counter() - t0 - train_s
        improved = score > best_val
        if improved:
            best_val = score
            stale = 0
            _save(ckpt_path, cfg, decoder, params, opt_state, epoch, best_val, stale)
            best_path = ckpt_path
        else:
            stale += 1
        stale_weights = not improved
        entry = {"epoch": epoch, "loss": epoch_loss, "val_metric": score,
                 "lr": lr if cfg.optimizer == "adam" else None,
                 "wall_time": time.perf_counter() - t0,
                 "forward_ms": 1000.0 * forward_s, "backward_ms": 1000.0 * backward_s,
                 "update_ms": 1000.0 * update_s, "val_ms": 1000.0 * val_s,
                 "samples_per_s": len(pairs) / train_s, "tokens_per_s": tokens / train_s,
                 "clip_frac": clamped / entries if entries else 0.0, "val_split": val_split,
                 **_grad_norms(norms), **_trace_means(decoded)}
        history.append(entry)
        if cfg.log_path:
            with open(cfg.log_path, "a") as fh:
                fh.write(json.dumps(entry) + "\n")
        if cfg.patience and stale >= cfg.patience:
            break

    zero_grads(params)
    opt_state.clear()   # the reward stage keeps its own Adam state
    if stale_weights and best_path:
        decoder.load_arrays(load_checkpoint(best_path)[1])

    if cfg.rl_epochs > 0:
        best_path = _reward_stage(cfg, decoder, params, train_samples, feats_cache, vocab,
                                  history, ckpt_path)
        zero_grads(params)

    return TrainResult(history, best_val, best_path, decoder, vocab)


def _resume(cfg, decoder) -> tuple[dict, int, float, int]:
    """Copy the ``cfg.resume`` checkpoint's weights into ``decoder``, and
    return its optimizer state, which keeps the loaded arrays, with the
    first epoch to run, the best validation score and the stale count.
    The rest of the loaded records are dropped on return."""
    variant, arrays = load_checkpoint(cfg.resume)
    if variant != decoder.variant:
        raise ConfigError(f"checkpoint variant {variant!r} != configured {cfg.variant!r}")
    if "meta/reward_stage" in arrays:
        raise ConfigError(f"checkpoint {cfg.resume} was written by the reward stage and "
                          "holds no MLE state to resume; resume from its MLE checkpoint")
    decoder.load_arrays(arrays)
    opt_state = opt_state_from_arrays(
        {k[len("opt/"):]: v for k, v in arrays.items() if k.startswith("opt/")})
    slots = {slot for st in opt_state.values() if isinstance(st, dict) for slot in st}
    if not slots <= _OPTIMIZER_SLOTS[cfg.optimizer]:
        raise ConfigError(f"checkpoint {cfg.resume} holds optimizer state {sorted(slots)}, "
                          f"which optimizer {cfg.optimizer!r} cannot resume")
    return (opt_state, int(arrays["meta/epoch"]) + 1, float(arrays["meta/best_val"]),
            int(arrays["meta/stale"]))


def _reward_stage(cfg, decoder, params, train_samples, feats_cache, vocab, history,
                  ckpt_path) -> str:
    """Self-critical fine-tuning over the MLE stage's train samples and
    their loaded features; saves to ``<ckpt_path>.rl`` with its Adam state
    and a ``meta/reward_stage`` record, which ``train`` refuses to resume,
    leaving the best MLE checkpoint in place, and returns that path."""
    reward = make_cider_reward(vocab, [s.refs for s in train_samples])
    opt_state: dict = {}
    for epoch in range(cfg.rl_epochs):
        rng = _epoch_rng(cfg.seed + 1_000_003, epoch)
        rcfg = RewardConfig(reward_fn=reward, rng=rng, max_len=cfg.max_len)
        t0 = time.perf_counter()
        adv_sum = 0.0
        norms = []      # per step: each module's squared gradient norm before clipping
        for i, s in enumerate(train_samples):
            zero_grads(params)
            advantage = reward_gradient_step(decoder, feats_cache[i], s.refs, rcfg)
            _check_finite(cfg.epochs + epoch, params, advantage=advantage)
            adv_sum += advantage
            norms.append(_grad_squares(params))
            clip_gradients(params, cfg.clip)
            adam_update(params, opt_state, cfg.rl_lr)
        entry = {"epoch": cfg.epochs + epoch, "loss": None,
                 "val_metric": adv_sum / len(train_samples), "lr": cfg.rl_lr,
                 "wall_time": time.perf_counter() - t0, **_grad_norms(norms)}
        history.append(entry)
        if cfg.log_path:
            with open(cfg.log_path, "a") as fh:
                fh.write(json.dumps(entry) + "\n")
    rl_path = f"{ckpt_path}.rl"
    _save(rl_path, cfg, decoder, params, opt_state, cfg.epochs + cfg.rl_epochs - 1,
          history[-1]["val_metric"], 0, reward_stage=True)
    return rl_path


def _save(path, cfg, decoder, params, opt_state, epoch, best_val, stale,
          reward_stage: bool = False):
    arrays = {name: p.data for name, p in params.items()}
    for k, v in opt_state_arrays(opt_state).items():
        arrays[f"opt/{k}"] = v
    arrays["meta/epoch"] = np.asarray(float(epoch))
    arrays["meta/best_val"] = np.asarray(float(best_val))
    arrays["meta/stale"] = np.asarray(float(stale))
    if reward_stage:
        arrays["meta/reward_stage"] = np.asarray(1.0)
    for dim in ("hidden_dim", "embed_dim", "attn_dim"):
        arrays[f"meta/{dim}"] = np.asarray(float(getattr(cfg, dim)))
    save_checkpoint(path, decoder.variant, arrays)
