"""Spans around capgen's public functions, recorded from outside the package.

Each span wraps a name where its caller looks it up: a module attribute
such as ``capgen.training.backward`` or a class attribute such as
``LstmCell.step``.  The wrappers are installed only while a traced
operation runs and removed right after, so untraced operations execute
the unmodified package.  Spans stay in memory as (name, start, end,
parent) rows and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import defaultdict

import capgen.attention
import capgen.da
import capgen.data
import capgen.decoders
import capgen.layers
import capgen.metrics
import capgen.optim
import capgen.search
import capgen.training

# (owner, attribute, span name).  An attribute imported by name into
# several modules is patched in each module that calls it.
_SPANNED = [
    (capgen.training, "train", "training.train"),
    (capgen.training, "reward_gradient_step", "training.reward_step"),
    (capgen.training, "mle_loss", "training.mle_loss"),
    (capgen.training, "backward", "tensor.backward"),
    (capgen.layers.LstmCell, "step", "layers.lstm_step"),
    (capgen.layers.Embedding, "lookup_one", "layers.embed_lookup"),
    (capgen.layers.Embedding, "lookup", "layers.embed_lookup"),
    (capgen.attention.AdditiveAttention, "attend", "attention.attend"),
    (capgen.decoders, "adaptive_blend", "attention.blend"),
    (capgen.decoders, "parallel_adaptive_blend", "attention.blend"),
    (capgen.decoders.BasicDecoder, "step", "decoders.step"),
    (capgen.decoders.HierarchicalDecoder, "step", "decoders.step"),
    (capgen.decoders.ParallelDecoder, "step", "decoders.step"),
    (capgen.da, "da_step", "da.step"),
    (capgen.decoders.BasicDecoder, "forward_teacher_forced", "decoders.teacher_forced"),
    (capgen.decoders.HierarchicalDecoder, "forward_teacher_forced", "decoders.teacher_forced"),
    (capgen.decoders.ParallelDecoder, "forward_teacher_forced", "decoders.teacher_forced"),
    (capgen.da.DeliberateDecoder, "forward_teacher_forced", "decoders.teacher_forced"),
    (capgen.search, "greedy_decode", "search.greedy"),
    (capgen.training, "greedy_decode", "search.greedy"),
    (capgen.search, "beam_search", "search.beam"),
    (capgen.optim, "clip_gradients", "optim.clip"),
    (capgen.training, "clip_gradients", "optim.clip"),
    (capgen.optim, "adam_update", "optim.update"),
    (capgen.training, "adam_update", "optim.update"),
    (capgen.training, "adadelta_update", "optim.update"),
    (capgen.metrics, "evaluate_corpus", "metrics.evaluate"),
    (capgen.metrics, "bleu", "metrics.bleu"),
    (capgen.metrics, "rouge_l", "metrics.rouge_l"),
    (capgen.metrics, "cider", "metrics.cider"),
    (capgen.data.Dataset, "features", "data.features"),
    (capgen.data.Dataset, "load", "data.dataset_load"),
]

# Spans whose duration counts as a decoder step, one per generated token
# per hypothesis.  DeliberateDecoder.step only forwards to da_step.
_STEP_SPANS = ("decoders.step", "da.step")

# Per-layer metrics: name -> unit.  Times are means per call unless the
# README defines them otherwise; counts repeat exactly for a given code
# version, seed and run length.
PER_LAYER_UNITS = {
    "tensor.backward_ms": "ms",
    "tensor.tape_nodes_per_sample": "count",
    "layers.lstm_step_ms": "ms",
    "layers.lstm_step_calls": "count",
    "layers.embed_lookup_ms": "ms",
    "attention.attend_ms": "ms",
    "attention.attend_calls": "count",
    "attention.blend_ms": "ms",
    "decoders.step_self_ms": "ms",
    "decoders.teacher_forced_ms": "ms",
    "da.step_ms": "ms",
    "search.beam_self_ms": "ms",
    "search.greedy_self_ms": "ms",
    "search.step_calls_per_caption": "count",
    "search.val_decode_ms": "ms",
    "optim.clip_ms": "ms",
    "optim.update_ms": "ms",
    "checkpoint.save_ms": "ms",
    "checkpoint.bytes": "bytes",
    "training.mle_loss_ms": "ms",
    "training.reward_fn_ms": "ms",
    "training.reward_fn_calls": "count",
    "metrics.bleu_ms": "ms",
    "metrics.rouge_l_ms": "ms",
    "metrics.cider_ms": "ms",
    "data.features_ms": "ms",
    "data.dataset_load_ms": "ms",
    "trace.overhead_pct": "%",
}


class Tracer:
    """Span recorder plus the patch set that feeds it.

    ``op(kind, units)`` opens the root span of one benchmark operation;
    everything capgen does inside becomes its descendants.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.op_units: dict[int, int] = {}             # root op span -> units of work
        self.checkpoint_bytes: list[int] = []
        self.tape_nodes: list[tuple[int, int]] = []   # (root op span, node count)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._tape_cls = _counting_tape(self)

    # -- recording -----------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return spanned

    def wrap(self, name: str, fn):
        """Span a callable the benchmark itself builds, such as the reward
        closure, whenever it runs inside a traced operation."""
        spanned = self._wrap(name, fn)

        @functools.wraps(fn)
        def inside_ops(*args, **kwargs):
            return spanned(*args, **kwargs) if self._stack else fn(*args, **kwargs)
        return inside_ops

    # -- patch lifetime ------------------------------------------------
    def install(self) -> None:
        for owner, attr, name in _SPANNED:
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(name, raw.__func__)))
            else:
                setattr(owner, attr, self._wrap(name, raw))
        save = self._wrap("checkpoint.save", capgen.training.save_checkpoint)

        def save_and_count(path, variant, arrays):
            save(path, variant, arrays)
            self.checkpoint_bytes.append(os.path.getsize(path))

        self._saved.append((capgen.training, "save_checkpoint", capgen.training.save_checkpoint))
        capgen.training.save_checkpoint = save_and_count
        self._saved.append((capgen.training, "Tape", capgen.training.Tape))
        capgen.training.Tape = self._tape_cls

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    @contextlib.contextmanager
    def op(self, kind: str, units: int):
        """Root span of one benchmark operation doing ``units`` of work,
        with the wrappers installed for its duration."""
        if self._stack:
            raise RuntimeError("benchmark operations do not nest")
        try:
            self.install()
            idx = self._open(f"op.{kind}")
            self.op_units[idx] = units
            try:
                yield
            finally:
                self._close(idx)
        finally:
            self.uninstall()

    def dump(self, path) -> None:
        rows = [[n, s, e, p] for n, s, e, p in
                zip(self.names, self.starts, self.ends, self.parents)]
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start_s", "end_s", "parent"], "spans": rows}, fh)

    # -- analysis ------------------------------------------------------
    def per_layer(self) -> dict[str, float]:
        """Every per-layer metric, computed from the recorded spans."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child_time = [0.0] * n
        root = [0] * n
        in_tf = [False] * n      # inside a teacher-forced forward pass
        for i in range(n):       # parents precede children
            p = self.parents[i]
            if p >= 0:
                child_time[p] += dur[i]
                root[i] = root[p]
                in_tf[i] = in_tf[p] or self.names[p] == "decoders.teacher_forced"
            else:
                root[i] = i
        op_kind = {i: self.names[i][len("op."):] for i in range(n) if self.parents[i] < 0}

        by_name: dict[str, list[int]] = defaultdict(list)
        for i, name in enumerate(self.names):
            by_name[name].append(i)

        def under(name, kind):
            return [i for i in by_name[name] if op_kind[root[i]] == kind]

        def mean_ms(idx, self_time=False):
            if not idx:
                return 0.0
            total = sum(dur[i] - (child_time[i] if self_time else 0.0) for i in idx)
            return 1000.0 * total / len(idx)

        def per(count, base):
            return count / len(base) if base else 0.0

        tf = by_name["decoders.teacher_forced"]
        lstm_tf = [i for i in by_name["layers.lstm_step"] if in_tf[i]]
        attend_tf = [i for i in by_name["attention.attend"] if in_tf[i]]
        beams = under("op.beam", "beam")
        beam_steps = [i for s in _STEP_SPANS for i in by_name[s]
                      if op_kind[root[i]] == "beam"]
        scst_ops = by_name["op.scst"]
        train_tapes = [c for r, c in self.tape_nodes if op_kind.get(r) == "train"]
        evaluated = sum(self.op_units[i] for i in by_name["op.evaluate"])

        def per_1k_captions(name):
            idx = under(name, "evaluate")
            return 1e6 * sum(dur[i] for i in idx) / evaluated if evaluated else 0.0

        return {
            "tensor.backward_ms": mean_ms(by_name["tensor.backward"]),
            "tensor.tape_nodes_per_sample": per(sum(train_tapes), train_tapes),
            "layers.lstm_step_ms": mean_ms(by_name["layers.lstm_step"]),
            "layers.lstm_step_calls": per(len(lstm_tf), tf),
            "layers.embed_lookup_ms": mean_ms(by_name["layers.embed_lookup"]),
            "attention.attend_ms": mean_ms(by_name["attention.attend"]),
            "attention.attend_calls": per(len(attend_tf), tf),
            "attention.blend_ms": mean_ms(by_name["attention.blend"]),
            "decoders.step_self_ms": mean_ms(by_name["decoders.step"], self_time=True),
            "decoders.teacher_forced_ms": mean_ms(tf),
            "da.step_ms": mean_ms(by_name["da.step"]),
            "search.beam_self_ms": mean_ms(under("search.beam", "beam"), self_time=True),
            "search.greedy_self_ms": mean_ms(under("search.greedy", "greedy"), self_time=True),
            "search.step_calls_per_caption": per(len(beam_steps), beams),
            "search.val_decode_ms": mean_ms(under("search.greedy", "train")),
            "optim.clip_ms": mean_ms(under("optim.clip", "train")),
            "optim.update_ms": mean_ms(under("optim.update", "train")),
            "checkpoint.save_ms": mean_ms(by_name["checkpoint.save"]),
            "checkpoint.bytes": per(sum(self.checkpoint_bytes), self.checkpoint_bytes),
            "training.mle_loss_ms": mean_ms(by_name["training.mle_loss"]),
            "training.reward_fn_ms": mean_ms(by_name["training.reward_fn"]),
            "training.reward_fn_calls": per(len(by_name["training.reward_fn"]), scst_ops),
            "metrics.bleu_ms": per_1k_captions("metrics.bleu"),
            "metrics.rouge_l_ms": per_1k_captions("metrics.rouge_l"),
            "metrics.cider_ms": per_1k_captions("metrics.cider"),
            "data.features_ms": mean_ms(by_name["data.features"]),
            "data.dataset_load_ms": mean_ms(by_name["data.dataset_load"]),
        }


def _counting_tape(tracer: Tracer):
    class CountingTape(capgen.training.Tape):
        """Tape that reports its node count, tagged with the current root op."""

        def __exit__(self, exc_type, exc, tb):
            root = tracer._stack[0] if tracer._stack else -1
            tracer.tape_nodes.append((root, len(self.nodes)))
            return super().__exit__(exc_type, exc, tb)

    return CountingTape
