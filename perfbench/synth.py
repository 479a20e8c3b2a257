"""Seeded synthetic inputs: caption datasets on disk, in-memory clip
features and a scored caption corpus.  Nothing is downloaded; the same
seed gives byte-identical inputs."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from capgen.data import Dataset, FeatureSet, Sample, Vocabulary, write_feature_file
from capgen.metrics import TokenizedCorpus

# Reserved ids 0..3 (PAD, BOS, EOS, UNK) come first in every vocabulary.
N_RESERVED = 4
EVAL_VOCAB = 500   # distinct words of the scored corpus


@dataclass(frozen=True)
class Dims:
    """Model and data sizes of one workload."""

    hidden: int          # H = E = A, and the feature width
    vocab: int           # vocabulary size, reserved ids included
    frames: int          # frame (and region) rows per clip
    caption_len: int     # words per training caption
    max_len: int         # decode length under the suppressed EOS


def words(vocab_size: int) -> list[str]:
    return [f"w{i:04d}" for i in range(vocab_size - N_RESERVED)]


def _features(rng: np.random.Generator, dims: Dims, kinds) -> dict[str, np.ndarray]:
    d, n = dims.hidden, dims.frames
    out = {}
    if "temporal" in kinds:
        out["temporal"] = rng.standard_normal((n, d)).astype(np.float32)
    if "spatial" in kinds:
        out["spatial"] = rng.standard_normal((n, d)).astype(np.float32)
    if "motion" in kinds:
        out["motion"] = rng.standard_normal((max(1, n // 2), d)).astype(np.float32)
    if "global" in kinds:
        out["global"] = rng.standard_normal(d).astype(np.float32)
    return out


def _refs(rng: np.random.Generator, vocab: list[str], length: int, n_refs: int) -> list[str]:
    """A base caption plus n_refs - 1 paraphrases sharing about 70% of its words."""
    base = rng.integers(0, len(vocab), size=length)
    refs = [" ".join(vocab[i] for i in base)]
    for _ in range(n_refs - 1):
        ids = base.copy()
        swap = rng.random(length) < 0.3
        ids[swap] = rng.integers(0, len(vocab), size=int(swap.sum()))
        refs.append(" ".join(vocab[i] for i in ids))
    return refs


def ref_sets(seed: int, dims: Dims, n_clips: int, n_refs: int) -> list[list[str]]:
    """Reference captions of clips that exist only in memory."""
    rng = np.random.default_rng([seed, 4])
    vocab = words(dims.vocab)
    return [_refs(rng, vocab, dims.caption_len, n_refs) for _ in range(n_clips)]


def write_dataset(root, seed: int, dims: Dims, n_train: int, n_val: int, kinds) -> None:
    """Feature files, manifest and vocab.json that ``capgen.training.train``
    reads from ``root``; one caption per clip."""
    rng = np.random.default_rng([seed, 1])
    root = Path(root)
    (root / "features").mkdir(parents=True, exist_ok=True)
    vocab = words(dims.vocab)
    splits: dict[str, list[Sample]] = {}
    for split, count in (("train", n_train), ("val", n_val)):
        samples = []
        for s in range(count):
            sid = f"{split}{s:05d}"
            paths = {}
            for kind, arr in _features(rng, dims, kinds).items():
                rel = f"features/{sid}_{kind}.feat"
                write_feature_file(root / rel, kind, arr)
                paths[kind] = rel
            samples.append(Sample(sid, paths, _refs(rng, vocab, dims.caption_len, 1)))
        splits[split] = samples
    Dataset(root, splits).save_manifest()
    Vocabulary(vocab).save(root / "vocab.json")


def clip_features(seed: int, dims: Dims, n: int, kinds) -> list[FeatureSet]:
    """In-memory clips for decoding, widened to float64 like loaded files."""
    rng = np.random.default_rng([seed, 2])
    out = []
    for _ in range(n):
        f = {k: v.astype(np.float64) for k, v in _features(rng, dims, kinds).items()}
        out.append(FeatureSet(temporal=f.get("temporal"), spatial=f.get("spatial"),
                              motion=f.get("motion"), global_vec=f.get("global")))
    return out


def eval_corpus(seed: int, n_captions: int, n_refs: int) -> TokenizedCorpus:
    """Captions of 6-12 Zipf-distributed words, each scored against n_refs
    references; the candidate is its first reference with about 30% of
    the words replaced, so every metric lands strictly inside its range."""
    rng = np.random.default_rng([seed, 3])
    vocab_size = EVAL_VOCAB
    vocab = words(vocab_size + N_RESERVED)
    freq = 1.0 / np.arange(1, vocab_size + 1)
    freq /= freq.sum()
    lengths = rng.integers(6, 13, size=n_captions * n_refs)
    flat = [vocab[i] for i in rng.choice(vocab_size, size=int(lengths.sum()), p=freq)]
    ends = np.cumsum(lengths)
    sents = [flat[e - n:e] for e, n in zip(ends, lengths)]
    refs = [sents[i * n_refs:(i + 1) * n_refs] for i in range(n_captions)]
    cands = []
    for here in refs:
        cand = list(here[0])
        swap = np.flatnonzero(rng.random(len(cand)) < 0.3)
        for j, w in zip(swap, rng.choice(vocab_size, size=len(swap), p=freq)):
            cand[j] = vocab[w]
        cands.append(cand)
    return TokenizedCorpus(cands, refs)
