"""Feature-file format, vocabulary, caption handling and synthetic data.

Feature files are a small validated binary container (little-endian):

    8 bytes  magic "HLFEAT01"
    u8       kind code (0 global, 1 temporal, 2 spatial, 3 motion)
    u32      count
    u32      dim
    float32  payload, row-major, count*dim entries

Floats are widened to 64-bit on load.
"""

from __future__ import annotations

import json
import re
import struct
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, EmptyInputError, FormatError, VocabularyError

PAD_ID, BOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3
PAD, BOS, EOS, UNK = "<pad>", "<bos>", "<eos>", "<unk>"
RESERVED = (PAD, BOS, EOS, UNK)

FEATURE_MAGIC = b"HLFEAT01"
KIND_CODES = {"global": 0, "temporal": 1, "spatial": 2, "motion": 3}
CODE_KINDS = {v: k for k, v in KIND_CODES.items()}

_PUNCT = re.compile(r"[^\w\s]")

__all__ = [
    "PAD_ID", "BOS_ID", "EOS_ID", "UNK_ID", "PAD", "BOS", "EOS", "UNK",
    "FEATURE_MAGIC", "KIND_CODES", "tokenize",
    "Vocabulary", "CaptionBatch", "FeatureSet",
    "write_feature_file", "read_feature_file", "load_features",
    "Sample", "Dataset", "synth_dataset", "build_vocab",
]


def tokenize(text: str, mode: str = "default") -> list[str]:
    """Split a caption into tokens.

    default: lowercase, strip punctuation, split on whitespace.
    whitespace: split on blank space only (pre-tokenized corpora).
    """
    if mode == "default":
        return _PUNCT.sub(" ", text.lower()).split()
    if mode == "whitespace":
        return text.split()
    raise ContractError(f"unknown tokenizer mode {mode!r}")


class Vocabulary:
    """Bidirectional word/id map with reserved PAD/BOS/EOS/UNK ids 0..3.

    Non-reserved ids are assigned by frequency (descending), ties broken
    lexicographically, which makes construction deterministic.
    """

    def __init__(self, words: list[str], min_count: int = 1):
        self.min_count = min_count
        self.id_to_word = list(RESERVED) + list(words)
        self.word_to_id = {w: i for i, w in enumerate(self.id_to_word)}
        if len(self.word_to_id) != len(self.id_to_word):
            raise ContractError("vocabulary contains duplicate words")

    def __len__(self) -> int:
        return len(self.id_to_word)

    def encode(self, tokens: list[str]) -> list[int]:
        return [self.word_to_id.get(t, UNK_ID) for t in tokens]

    def decode(self, ids) -> list[str]:
        words = []
        for i in ids:
            i = int(i)
            if not 0 <= i < len(self.id_to_word):
                raise VocabularyError(f"token id {i} outside vocabulary of size {len(self)}")
            words.append(self.id_to_word[i])
        return words

    def wrap(self, tokens: list[str]) -> list[int]:
        """BOS + encoded tokens + EOS."""
        return [BOS_ID] + self.encode(tokens) + [EOS_ID]

    def save(self, path) -> None:
        payload = {"min_count": self.min_count, "words": self.id_to_word[len(RESERVED):]}
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=0, sort_keys=True)

    @classmethod
    def load(cls, path) -> "Vocabulary":
        with open(path) as fh:
            payload = json.load(fh)
        return cls(payload["words"], payload.get("min_count", 1))


def build_vocab(captions, min_count: int = 1, mode: str = "default") -> Vocabulary:
    """Count tokens over a caption corpus and keep those above min_count."""
    counts = Counter()
    n = 0
    for c in captions:
        n += 1
        counts.update(tokenize(c, mode))
    if n == 0 or not counts:
        raise EmptyInputError("cannot build a vocabulary from an empty corpus")
    kept = sorted((w for w, c in counts.items() if c >= min_count),
                  key=lambda w: (-counts[w], w))
    return Vocabulary(kept, min_count)


@dataclass
class CaptionBatch:
    """Padded token-id matrix with per-sample lengths (BOS and EOS included)."""

    tokens: np.ndarray   # (B, T) int64
    lengths: np.ndarray  # (B,)

    @classmethod
    def from_id_seqs(cls, seqs: list[list[int]]) -> "CaptionBatch":
        if not seqs:
            raise EmptyInputError("empty caption batch")
        tmax = max(len(s) for s in seqs)
        toks = np.full((len(seqs), tmax), PAD_ID, dtype=np.int64)
        lens = np.zeros(len(seqs), dtype=np.int64)
        for b, s in enumerate(seqs):
            s = [int(t) for t in s]
            toks[b, : len(s)] = s
            # true length ends at EOS even if the input row was pre-padded
            lens[b] = s.index(EOS_ID) + 1 if EOS_ID in s else len(s)
        return cls(toks, lens)

    def __len__(self) -> int:
        return self.tokens.shape[0]

    @property
    def steps(self) -> int:
        """Number of prediction steps (inputs shifted one right of targets)."""
        return self.tokens.shape[1] - 1

    def target_mask(self, b: int) -> np.ndarray:
        """1.0 where step t predicts a real token of sample b, else 0.0."""
        t = np.arange(self.steps)
        return (t < self.lengths[b] - 1).astype(np.float64)


@dataclass
class FeatureSet:
    """Per-sample visual features, any subset of the four kinds."""

    temporal: np.ndarray | None = None   # (L, d) frame features
    spatial: np.ndarray | None = None    # (N, d_r) region features
    motion: np.ndarray | None = None     # (M, d_m) segment features
    global_vec: np.ndarray | None = None  # (d_g,)

    def require(self, kind: str) -> np.ndarray:
        value = {"temporal": self.temporal, "spatial": self.spatial,
                 "motion": self.motion, "global": self.global_vec}[kind]
        if value is None or value.size == 0:
            raise EmptyInputError(f"feature set has no {kind} features")
        return value


def write_feature_file(path, kind: str, array: np.ndarray) -> None:
    if kind not in KIND_CODES:
        raise ContractError(f"unknown feature kind {kind!r}")
    arr = np.asarray(array, dtype=np.float32)
    if kind == "global":
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ContractError(f"feature payload must be 2-D, got shape {arr.shape}")
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<BII", KIND_CODES[kind], arr.shape[0], arr.shape[1]))
        fh.write(arr.astype("<f4").tobytes())


def read_feature_file(path) -> tuple[str, np.ndarray]:
    """Read one feature file; returns (kind, float64 array of shape (count, dim))."""
    with open(path, "rb") as fh:
        magic = fh.read(len(FEATURE_MAGIC))
        if magic != FEATURE_MAGIC:
            raise FormatError(f"bad feature magic {magic!r} at byte offset 0 in {path}")
        header = fh.read(9)
        if len(header) != 9:
            raise FormatError(f"truncated feature header at byte offset 8 in {path}")
        code, count, dim = struct.unpack("<BII", header)
        if code not in CODE_KINDS:
            raise FormatError(f"unknown feature kind code {code} at byte offset 8 in {path}")
        n_items = int(count) * int(dim)
        if n_items > (1 << 31):
            raise FormatError(f"feature count*dim overflow ({count}x{dim}) in {path}")
        payload = fh.read(4 * n_items)
        if len(payload) != 4 * n_items:
            raise FormatError(
                f"truncated feature payload in {path}: expected {4 * n_items} bytes, "
                f"got {len(payload)} (payload starts at byte offset 17)")
        extra = fh.read(1)
        if extra:
            raise FormatError(f"trailing bytes after payload at byte offset {17 + 4 * n_items} in {path}")
    arr = np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(count, dim)
    return CODE_KINDS[code], arr


def load_features(paths) -> FeatureSet:
    """Assemble a FeatureSet from a {kind: path} mapping; each file must
    declare the kind it is listed under."""
    fs = FeatureSet()
    for expect_kind, p in paths.items():
        kind, arr = read_feature_file(p)
        if kind != expect_kind:
            raise FormatError(f"{p} declares kind {kind!r}, manifest says {expect_kind!r}")
        _set_kind(fs, kind, arr)
    return fs


def _set_kind(fs: FeatureSet, kind: str, arr: np.ndarray) -> None:
    if kind == "global":
        fs.global_vec = arr[0]
    else:
        setattr(fs, kind, arr)


@dataclass
class Sample:
    id: str
    feature_paths: dict[str, str]
    refs: list[str]


@dataclass
class Dataset:
    """Split manifests binding sample ids to feature files and references."""

    root: Path
    splits: dict[str, list[Sample]] = field(default_factory=dict)

    @classmethod
    def load(cls, root) -> "Dataset":
        root = Path(root)
        manifest = root / "manifest.json"
        if not manifest.exists():
            raise FormatError(f"no manifest.json under {root}")
        with open(manifest) as fh:
            raw = json.load(fh)
        ds = cls(root)
        for split, entries in raw["splits"].items():
            samples = []
            for e in entries:
                s = Sample(e["id"], dict(e["features"]), list(e["refs"]))
                for kind, rel in s.feature_paths.items():
                    p = root / rel
                    if not p.exists():
                        raise FormatError(f"manifest entry {s.id}: missing feature file {p}")
                samples.append(s)
            ds.splits[split] = samples
        return ds

    def split(self, name: str) -> list[Sample]:
        """The samples of split ``name``; a missing or empty split is a ConfigError."""
        if name not in self.splits:
            raise ConfigError(f"split {name!r} is not in the dataset "
                              f"(splits: {sorted(self.splits)})")
        if not self.splits[name]:
            raise ConfigError(f"split {name!r} has no samples")
        return self.splits[name]

    def features(self, sample: Sample) -> FeatureSet:
        return load_features({k: self.root / rel for k, rel in sample.feature_paths.items()})

    def save_manifest(self) -> None:
        raw = {"splits": {
            split: [{"id": s.id, "features": s.feature_paths, "refs": s.refs}
                    for s in samples]
            for split, samples in self.splits.items()}}
        with open(self.root / "manifest.json", "w") as fh:
            json.dump(raw, fh, indent=1, sort_keys=True)


def synth_dataset(seed: int, n_samples: int, vocab_size: int, length: int,
                  dim: int, out_dir, motion_segments: int | None = None) -> Dataset:
    """Generate a desk-scale dataset whose captions are recoverable from features.

    Every content word gets a random prototype vector; frame l of a sample
    carries the prototype of the l-th caption word, so an attention decoder
    can reach zero loss.  Spatial regions mirror the frames, motion segments
    carry prototypes from a second table, and the global vector is the frame
    mean.  Generation is byte-reproducible for a fixed seed.
    """
    if min(n_samples, vocab_size, length, dim) < 1:
        raise ContractError("all synth_dataset sizes must be >= 1")
    rng = np.random.default_rng(seed)
    out = Path(out_dir)
    (out / "features").mkdir(parents=True, exist_ok=True)
    words = [f"w{i:02d}" for i in range(vocab_size)]
    protos = rng.standard_normal((vocab_size, dim))
    motion_protos = rng.standard_normal((vocab_size, dim))
    n_seg = motion_segments if motion_segments is not None else max(1, length // 2)

    samples = []
    refs_lines = []
    for s in range(n_samples):
        sid = f"synth{s:04d}"
        token_idx = rng.integers(0, vocab_size, size=length)
        caption = " ".join(words[i] for i in token_idx)
        frames = protos[token_idx]
        # segment j carries the prototype of the word at its center frame
        centers = np.minimum(((np.arange(n_seg) + 0.5) * length / n_seg).astype(int),
                             length - 1)
        motion = motion_protos[token_idx[centers]]
        paths = {}
        for kind, arr in (("temporal", frames), ("spatial", frames),
                          ("motion", motion), ("global", frames.mean(axis=0))):
            rel = f"features/{sid}_{kind}.feat"
            write_feature_file(out / rel, kind, arr)
            paths[kind] = rel
        samples.append(Sample(sid, paths, [caption]))
        refs_lines.append(json.dumps({"id": sid, "refs": [caption]}))

    ds = Dataset(out, {"train": samples, "val": samples, "test": samples})
    ds.save_manifest()
    with open(out / "refs.jsonl", "w") as fh:
        fh.write("\n".join(refs_lines) + "\n")
    build_vocab([s.refs[0] for s in samples]).save(out / "vocab.json")
    return ds
