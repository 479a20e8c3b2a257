"""The benchmark's workloads: their inputs, operations, checks and metrics.

Every workload runs all five user operations, because every end-to-end
metric is reported on every workload; the workloads differ in model size
and in which operation takes most of the measured time.

* ``train``    one epoch of ``capgen.training.train`` (validation and
               checkpoint included) on a dataset written to disk;
* ``scst``     one self-critical step: ``reward_gradient_step`` with a
               CIDEr reward, then ``clip_gradients`` and ``adam_update``;
* ``greedy``   one ``greedy_decode`` caption;
* ``beam``     one ``beam_search(k=5)`` caption;
* ``evaluate`` one ``evaluate_corpus`` call.

Decoding runs on fixed-seed decoders whose EOS logit bias is -40, so
every caption runs exactly ``max_len`` steps and the work per caption does
not depend on near-ties in an untrained model.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import math
import os
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import capgen.metrics
import capgen.optim
import capgen.search
import capgen.training
from capgen.checkpoint import load_checkpoint
from capgen.da import DaConfig, DeliberateDecoder
from capgen.data import BOS_ID, EOS_ID, Vocabulary
from capgen.decoders import DecoderConfig, build_variant
from capgen.metrics import TokenizedCorpus
from capgen.training import RewardConfig, TrainConfig

from synth import Dims, clip_features, eval_corpus, ref_sets, write_dataset

BEAM = 5
EOS_BIAS = -40.0
REFS_PER_CLIP = 20   # references per clip in the reward and evaluation corpora
SCST_LR = 5e-4
CLIP = 10.0
SCORE_TOL = 1e-9
MIN_ROUNDS = 2       # rounds that run even past the deadline
EVAL_CALLS = 2       # evaluate_corpus calls per round; two rounds score the corpus once
ALL_KINDS = ("temporal", "spatial", "motion", "global")

PAPER = Dims(hidden=512, vocab=5000, frames=28, caption_len=13, max_len=16)
DESK = Dims(hidden=64, vocab=500, frames=28, caption_len=13, max_len=16)
TINY = Dims(hidden=8, vocab=40, frames=6, caption_len=5, max_len=6)


@dataclass(frozen=True)
class Sizes:
    """How much data one workload generates and how it groups operations."""

    dims: Dims
    variants: tuple[str, ...]
    n_train: int            # clips in the train split, one caption each
    n_val: int              # clips scored by train()'s CIDEr validation
    batch_size: int
    scst_clips: int         # clips of the self-critical corpus, REFS_PER_CLIP refs each
    decode_per_round: int   # beam captions per variant per round
    greedy_per_slot: int    # greedy captions per beam caption
    eval_captions: int      # captions per evaluate_corpus call
    kinds: tuple[str, ...] = ("temporal",)


@dataclass(frozen=True)
class Workload:
    sizes: Sizes
    tiny: Sizes             # the smoke run's sizes


class CheckFailed(Exception):
    """An operation returned an output that violates its check."""


@dataclass
class Trained:
    decoder: object
    params: dict
    adam: dict
    rng: np.random.Generator


@dataclass
class Context:
    """What one set-up produces.  Train operations add their models."""

    sizes: Sizes
    seed: int
    root: Path
    data_dir: Path
    decoders: dict
    clips: list
    scst_feats: list
    scst_refs: list
    reward: Callable
    eval_chunks: list
    trained: dict = field(default_factory=dict)
    eval_seen: dict = field(default_factory=dict)


@dataclass
class Op:
    kind: str
    key: str                 # variant, or "corpus" for evaluate
    units: int               # pairs, steps, captions
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Record:
    kind: str
    key: str
    units: int
    seconds: float
    traced: bool
    ok: bool


@dataclass
class Collection:
    """One untimed ``gc.collect()`` before an operation, and what it freed."""

    kind: str                   # the operation it preceded
    seconds: float
    objects: int                # unreachable objects found
    heap_mb: float | None       # malloc heap in use before it
    freed_mb: float | None


class _MallInfo2(ctypes.Structure):
    _fields_ = [(n, ctypes.c_size_t) for n in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd",
        "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]


def _mallinfo2():
    try:
        fn = ctypes.CDLL(None).mallinfo2
    except (OSError, AttributeError):   # not glibc 2.33 or later
        return None
    fn.restype = _MallInfo2
    return fn


_MALLINFO2 = _mallinfo2()


def heap_mb() -> float | None:
    """Bytes the C heap has handed out and not freed (numpy arrays
    included), in MB; None where glibc's ``mallinfo2`` is missing."""
    if _MALLINFO2 is None:
        return None
    m = _MALLINFO2()
    return (m.uordblks + m.hblkhd) / 2**20


# ---------------------------------------------------------------------------
# set-up

def _suppress_eos(decoder, vocab_size: int) -> None:
    """Set the word head's EOS bias; the head is the one (vocab,) bias."""
    heads = [p for name, p in decoder.parameters().items()
             if name.endswith(".b") and p.data.shape == (vocab_size,)]
    if len(heads) != 1:
        raise CheckFailed(f"expected one word-head bias, found {len(heads)}")
    heads[0].data[EOS_ID] = EOS_BIAS


def _decoder(variant: str, dims: Dims, seed: int):
    h = dims.hidden
    if variant == "da":
        dec = DeliberateDecoder(DaConfig(vocab_size=dims.vocab, hidden_dim=h, embed_dim=h,
                                         attn_dim=h, region_dim=h, global_dim=h, seed=seed))
    else:
        dec = build_variant(variant, DecoderConfig(
            vocab_size=dims.vocab, hidden_dim=h, embed_dim=h, attn_dim=h,
            feature_dim=h, motion_dim=h, seed=seed))
    _suppress_eos(dec, dims.vocab)
    return dec


def setup(sizes: Sizes, seed: int, root: Path) -> Context:
    """Write the dataset, build the decode models and the scored corpus."""
    dims = sizes.dims
    data_dir = root / "data"
    write_dataset(data_dir, seed, dims, sizes.n_train, sizes.n_val, sizes.kinds)
    vocab = Vocabulary.load(data_dir / "vocab.json")
    scst_refs = ref_sets(seed, dims, sizes.scst_clips, REFS_PER_CLIP)
    n, n_chunks = sizes.eval_captions, 2 * EVAL_CALLS
    corpus = eval_corpus(seed, n * n_chunks, REFS_PER_CLIP)
    chunks = [TokenizedCorpus(corpus.candidates[i * n:(i + 1) * n],
                              corpus.references[i * n:(i + 1) * n])
              for i in range(n_chunks)]
    return Context(
        sizes=sizes, seed=seed, root=root, data_dir=data_dir,
        decoders={v: _decoder(v, dims, seed) for v in sizes.variants},
        clips=clip_features(seed, dims, 2 * sizes.decode_per_round * sizes.greedy_per_slot,
                            sizes.kinds),
        scst_feats=clip_features(seed + 1, dims, sizes.scst_clips, sizes.kinds),
        scst_refs=scst_refs,
        reward=capgen.training.make_cider_reward(vocab, scst_refs),
        eval_chunks=chunks,
    )


# ---------------------------------------------------------------------------
# operations and their checks

def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def train_op(ctx: Context, variant: str) -> Op:
    s, dims = ctx.sizes, ctx.sizes.dims
    cfg = TrainConfig({
        "variant": variant, "data_dir": str(ctx.data_dir),
        "hidden_dim": dims.hidden, "embed_dim": dims.hidden, "attn_dim": dims.hidden,
        "optimizer": "adadelta", "epochs": 1, "batch_size": s.batch_size,
        "val_metric": "cider", "max_len": dims.max_len, "seed": ctx.seed,
        "checkpoint": str(ctx.root / f"{variant}.ckpt"),
    })

    def check(result):
        loss = result.history[-1]["loss"]
        _require(math.isfinite(loss), f"{variant}: train loss {loss}")
        tag, arrays = load_checkpoint(result.checkpoint_path)
        params = result.decoder.parameters()
        _require(tag == variant, f"{variant}: checkpoint tag {tag!r}")
        for name, p in params.items():
            _require(name in arrays and arrays[name].shape == p.data.shape,
                     f"{variant}: checkpoint lacks {name} {p.data.shape}")
        # Write back the checkpoint now, so that its disk traffic does not
        # overlap the timing of the operations after it.
        with open(result.checkpoint_path, "rb") as fh:
            os.fsync(fh.fileno())
        _suppress_eos(result.decoder, dims.vocab)
        ctx.trained[variant] = Trained(result.decoder, params, {},
                                       np.random.default_rng([ctx.seed, 5]))

    def run():
        ctx.trained.pop(variant, None)   # free the previous model before building the next
        return capgen.training.train(cfg)

    return Op("train", variant, s.n_train, run, check)


def scst_op(ctx: Context, variant: str, clip: int, traced_reward: Callable | None) -> Op:
    i = clip % len(ctx.scst_feats)

    def run():
        t = ctx.trained[variant]
        rcfg = RewardConfig(reward_fn=traced_reward or ctx.reward, rng=t.rng,
                            max_len=ctx.sizes.dims.max_len)
        capgen.optim.zero_grads(t.params)
        adv = capgen.training.reward_gradient_step(
            t.decoder, ctx.scst_feats[i], ctx.scst_refs[i], rcfg)
        capgen.optim.clip_gradients(t.params, CLIP)
        capgen.optim.adam_update(t.params, t.adam, SCST_LR)
        return adv

    def check(adv):
        _require(math.isfinite(adv), f"{variant}: advantage {adv}")
        for name, p in ctx.trained[variant].params.items():
            _require(bool(np.isfinite(p.data).all()), f"{variant}: {name} not finite")

    return Op("scst", variant, 1, run, check)


def _decode_check(ctx: Context, variant: str, feats):
    dims = ctx.sizes.dims

    def check(result):
        toks = result.tokens
        _require(len(toks) == dims.max_len, f"{variant}: {len(toks)} tokens, want {dims.max_len}")
        _require(all(0 <= t < dims.vocab for t in toks), f"{variant}: token outside vocabulary")
        targets = list(toks) + ([EOS_ID] if len(toks) < dims.max_len else [])
        lp = ctx.decoders[variant].forward_teacher_forced(feats, [BOS_ID] + targets).data
        ll = float(sum(lp[t, tok] for t, tok in enumerate(targets)))
        _require(abs(ll - result.logprob) <= SCORE_TOL,
                 f"{variant}: score {result.logprob!r} != teacher-forced {ll!r}")

    return check


def greedy_op(ctx: Context, variant: str, clip: int) -> Op:
    feats = ctx.clips[clip % len(ctx.clips)]
    dec, max_len = ctx.decoders[variant], ctx.sizes.dims.max_len
    return Op("greedy", variant, 1,
              lambda: capgen.search.greedy_decode(dec, feats, max_len=max_len),
              _decode_check(ctx, variant, feats))


def beam_op(ctx: Context, variant: str, clip: int) -> Op:
    feats = ctx.clips[clip % len(ctx.clips)]
    dec, max_len = ctx.decoders[variant], ctx.sizes.dims.max_len
    return Op("beam", variant, 1,
              lambda: capgen.search.beam_search(dec, feats, k=BEAM, max_len=max_len),
              _decode_check(ctx, variant, feats))


_RANGES = {"bleu1": 1.0, "bleu2": 1.0, "bleu3": 1.0, "bleu4": 1.0, "rougeL": 1.0, "cider": 10.0}


def evaluate_op(ctx: Context, chunk: int) -> Op:
    c = chunk % len(ctx.eval_chunks)
    corpus = ctx.eval_chunks[c]

    def check(scores):
        _require(set(scores) == set(_RANGES), f"evaluate keys {sorted(scores)}")
        for name, hi in _RANGES.items():
            v = scores[name]
            _require(math.isfinite(v) and 0.0 <= v <= hi, f"{name} = {v} outside [0, {hi}]")
        if not ctx.eval_seen:   # the run's first call is repeated at once
            ctx.eval_seen[c] = capgen.metrics.evaluate_corpus(corpus)
        _require(ctx.eval_seen.setdefault(c, scores) == scores,
                 "evaluate_corpus differs on a repeated call")

    return Op("evaluate", "corpus", len(corpus),
              lambda: capgen.metrics.evaluate_corpus(corpus), check)


# ---------------------------------------------------------------------------
# one round of operations, repeated until the deadline

def plan_round(ctx: Context, r: int, reward) -> list[Op]:
    """Round ``r``: slots of decoding per variant.  Each variant trains once
    at slot 0 and takes self-critical steps at slots 0 and n//2; the corpus
    is scored at slots n//4 and 3n//4.  So every metric samples the whole
    run."""
    s = ctx.sizes
    n, g = s.decode_per_round, s.greedy_per_slot
    scsts = (0, n // 2)
    evals = (n // 4, 3 * n // 4)
    ops: list[Op] = []
    for j in range(n):
        if j == 0:
            ops += [train_op(ctx, v) for v in s.variants]
        for v in s.variants:
            greedy = [greedy_op(ctx, v, (r * n + j) * g + k) for k in range(g)]
            ops += greedy[:1] + [beam_op(ctx, v, r * n + j)] + greedy[1:]
            ops += [scst_op(ctx, v, len(scsts) * r + i, reward)
                    for i, at in enumerate(scsts) if at == j]
        ops += [evaluate_op(ctx, EVAL_CALLS * r + i) for i, at in enumerate(evals) if at == j]
    return ops


DESK_VARIANTS = ("basic", "hlstmat_temporal", "para", "da")

WORKLOADS = {
    "paper_mix": Workload(
        Sizes(PAPER, ("hlstmat_temporal",), n_train=8, n_val=2, batch_size=8, scst_clips=32,
              decode_per_round=2, greedy_per_slot=2, eval_captions=100),
        Sizes(TINY, ("hlstmat_temporal",), n_train=4, n_val=2, batch_size=2, scst_clips=4,
              decode_per_round=2, greedy_per_slot=2, eval_captions=10)),
    "desk_mix": Workload(
        Sizes(DESK, DESK_VARIANTS, n_train=16, n_val=8, batch_size=8, scst_clips=32,
              decode_per_round=13, greedy_per_slot=1, eval_captions=250, kinds=ALL_KINDS),
        Sizes(TINY, DESK_VARIANTS, n_train=4, n_val=2, batch_size=2, scst_clips=4,
              decode_per_round=13, greedy_per_slot=1, eval_captions=10, kinds=ALL_KINDS)),
}


# ---------------------------------------------------------------------------
# measurement

def measure(ctx: Context, seconds: float, tracer) -> tuple[list[Record], list[Collection]]:
    """Run the plan until ``seconds`` of operation time are spent.

    Rounds are identical in work.  After ``MIN_ROUNDS``, a round starts
    only while it is expected to end less than half a round past the
    deadline, judged by the previous round's length.  With a tracer, operations of
    each (kind, key) alternate traced and untraced, starting traced, so
    one run yields per-layer spans and its own tracing overhead.

    Tapes are reference cycles, so the collector decides when their
    memory returns.  Before each operation that builds tapes and models,
    a collection runs outside the timing, so that peak memory does not
    depend on which operation happened to trigger one.  The cost this
    removes from the timings is returned as the collections' own record.
    """
    records: list[Record] = []
    collections: list[Collection] = []
    seen: Counter = Counter()
    traced_reward = tracer.wrap("training.reward_fn", ctx.reward) if tracer else None

    def run(op: Op) -> float:
        traced = tracer is not None and seen[(op.kind, op.key)] % 2 == 0
        seen[(op.kind, op.key)] += 1
        ok, dt = False, 0.0
        if op.kind in ("train", "scst"):
            before = heap_mb()
            t0 = time.perf_counter()
            found = gc.collect()
            t1 = time.perf_counter()
            after = heap_mb()
            collections.append(Collection(op.kind, t1 - t0, found, before,
                                          None if before is None else before - after))
        try:
            with tracer.op(op.kind, op.units) if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                try:
                    out = op.run()
                finally:
                    dt = time.perf_counter() - t0
            op.check(out)
            ok = True
        except CheckFailed as exc:
            print(f"check failed: {op.kind} {op.key}: {exc}", file=sys.stderr)
        except Exception:  # a failed operation is counted and the run goes on
            print(f"operation raised: {op.kind} {op.key}", file=sys.stderr)
            traceback.print_exc()
        records.append(Record(op.kind, op.key, op.units, dt, traced, ok))
        return dt

    spent, last, r = 0.0, 0.0, 0
    while r < MIN_ROUNDS or spent + last / 2 <= seconds:
        last = sum(run(op) for op in plan_round(ctx, r, traced_reward))
        spent += last
        r += 1
    return records, collections


def collection_summary(collections: list[Collection]) -> dict[str, dict]:
    """Per operation kind: how many collections ran, their total and
    median time, and the median objects, heap and heap freed."""
    def med(values):
        values = [v for v in values if v is not None]
        return statistics.median(values) if values else None

    out = {}
    for kind in sorted({c.kind for c in collections}):
        cs = [c for c in collections if c.kind == kind]
        out[kind] = {"count": len(cs), "seconds_total": sum(c.seconds for c in cs),
                     "seconds_median": med(c.seconds for c in cs),
                     "objects_median": med(c.objects for c in cs),
                     "heap_mb_median": med(c.heap_mb for c in cs),
                     "freed_mb_median": med(c.freed_mb for c in cs)}
    return out


def _per_key(records, kind):
    out: dict[str, list[float]] = {}
    for rec in records:
        if rec.kind == kind and rec.ok:
            out.setdefault(rec.key, []).append(rec.seconds / rec.units)
    return out


def _rate(records, kind):
    """Units per second, with each key weighted equally by its median unit time."""
    per = _per_key(records, kind)
    if not per:
        return None
    return len(per) / sum(statistics.median(v) for v in per.values())


def _captions_ms(records, kind) -> list[float]:
    """Per-caption ms, pooling an equal number of captions per key."""
    per = _per_key(records, kind)
    n = min((len(v) for v in per.values()), default=0)
    return [1000.0 * x for v in per.values() for x in v[:n]]


def _p50_ms(records, kind):
    """Per-caption median ms of each key, averaged over the keys."""
    per = _per_key(records, kind)
    if not per:
        return None
    return 1000.0 * statistics.fmean(statistics.median(v) for v in per.values())


def _p90(values):
    """Only with at least ten samples beyond the 90th percentile."""
    if len(values) < 100:
        return None
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(records: list[Record]) -> dict[str, float | None]:
    """The timing metrics of ``records``; set-up and memory are added by the caller."""
    evaluate = _p50_ms(records, "evaluate")
    return {
        "train_samples_per_s": _rate(records, "train"),
        "scst_samples_per_s": _rate(records, "scst"),
        "greedy_ms_p50": _p50_ms(records, "greedy"),
        "beam5_ms_p50": _p50_ms(records, "beam"),
        "evaluate_ms_per_1k": evaluate * 1000.0 if evaluate is not None else None,
    }


def tails(records: list[Record]) -> dict[str, float | int | None]:
    """p90 latencies, where a run has the 100 captions they need, and their counts."""
    greedy, beam = _captions_ms(records, "greedy"), _captions_ms(records, "beam")
    return {"greedy_ms_p90": _p90(greedy), "greedy_captions": len(greedy),
            "beam5_ms_p90": _p90(beam), "beam5_captions": len(beam)}


def sample_counts(records: list[Record]) -> dict[str, int]:
    return dict(Counter(r.kind for r in records if r.ok))


def op_seconds(records: list[Record]) -> dict[str, list]:
    """Every operation's time, in run order, for the result file."""
    out: dict[str, list] = {}
    for r in records:
        out.setdefault(r.kind, []).append([r.key, r.seconds, r.traced, r.ok])
    return out


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
