"""Command-line surface: synth-data, build-vocab, train, generate, evaluate,
gradcheck and trace subcommands."""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import metrics
from .attention import write_trace_csv
from .checkpoint import load_checkpoint
from .data import Dataset, Vocabulary, build_vocab, synth_dataset, tokenize
from .errors import CapgenError, ConfigError, ContractError
from .search import beam_search, greedy_decode, write_generations
from .training import TrainConfig, train, _build_decoder


def _add_synth(sub):
    p = sub.add_parser("synth-data", help="generate a synthetic desk-scale dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--vocab-size", type=int, default=12, help="content words")
    p.add_argument("--length", type=int, default=4, help="frames = caption words")
    p.add_argument("--dim", type=int, default=16, help="feature width")
    p.add_argument("--motion-segments", type=int, default=None)


def _add_vocab(sub):
    p = sub.add_parser("build-vocab", help="build a vocabulary from a refs JSONL file")
    p.add_argument("--refs", required=True, help="JSONL with {id, refs:[...]} lines")
    p.add_argument("--out", required=True)
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--tokenizer", choices=["default", "whitespace"], default="default")


def _add_train(sub):
    p = sub.add_parser("train", help="run the two-stage training driver")
    p.add_argument("--config", default=None,
                   help="key = value file; values there override the flags")
    for key in ("variant", "data-dir", "optimizer", "val-metric",
                "checkpoint", "log-path", "resume"):
        p.add_argument(f"--{key}", default=None)
    for key in ("hidden-dim", "embed-dim", "attn-dim", "epochs", "patience",
                "batch-size", "seed", "max-len", "rl-epochs"):
        p.add_argument(f"--{key}", type=int, default=None)
    for key in ("lr", "dropout", "clip", "rl-lr"):
        p.add_argument(f"--{key}", type=float, default=None)


def _add_generate(sub):
    p = sub.add_parser("generate", help="decode captions for a dataset split")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--out", required=True, help="output JSONL")
    p.add_argument("--beam", type=int, default=5, help="beam width; 1 = greedy")
    p.add_argument("--max-len", type=int, default=30)
    p.add_argument("--trace-dir", default=None,
                   help="also write per-sample attention CSVs here")


def _add_evaluate(sub):
    p = sub.add_parser("evaluate", help="score candidate captions against references")
    p.add_argument("--candidates", required=True, help="JSONL with {id, caption}")
    p.add_argument("--refs", required=True, help="JSONL with {id, refs:[...]}")
    p.add_argument("--tokenizer", choices=["default", "whitespace"], default="default")
    p.add_argument("--out", default=None, help="write the metrics JSON here (default stdout)")


def _add_gradcheck(sub):
    p = sub.add_parser("gradcheck", help="finite-difference check of decoder gradients")
    p.add_argument("--variant", default="all",
                   help="decoder variant or 'all'")
    p.add_argument("--hidden", type=int, default=8)
    p.add_argument("--vocab", type=int, default=12)
    p.add_argument("--frames", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)


def _add_trace(sub):
    p = sub.add_parser("trace", help="emit attention-weight CSVs for a split")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--max-len", type=int, default=30)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="capgen")
    sub = parser.add_subparsers(dest="command", required=True)
    for adder in (_add_synth, _add_vocab, _add_train, _add_generate,
                  _add_evaluate, _add_gradcheck, _add_trace):
        adder(sub)
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except CapgenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command == "synth-data":
        synth_dataset(args.seed, args.samples, args.vocab_size, args.length,
                      args.dim, args.out, args.motion_segments)
        print(f"wrote {args.samples} samples to {args.out}")
        return 0
    if args.command == "build-vocab":
        captions = []
        with open(args.refs) as fh:
            for line in fh:
                if line.strip():
                    captions.extend(json.loads(line)["refs"])
        vocab = build_vocab(captions, args.min_count, args.tokenizer)
        vocab.save(args.out)
        print(f"vocabulary of {len(vocab)} ids written to {args.out}")
        return 0
    if args.command == "train":
        overrides = {k.replace("-", "_"): v for k, v in vars(args).items()
                     if k not in ("command", "config") and v is not None}
        cfg = (TrainConfig.from_file(args.config, overrides) if args.config
               else TrainConfig(overrides))
        result = train(cfg)
        last = result.history[-1] if result.history else {}
        print(f"trained {cfg.variant} for {len(result.history)} epochs; "
              f"best val {result.best_val:.4f}; checkpoint {result.checkpoint_path}")
        if last:
            print(json.dumps(last))
        return 0
    if args.command == "generate":
        return _generate(args)
    if args.command == "evaluate":
        return _evaluate(args)
    if args.command == "gradcheck":
        return _gradcheck(args)
    if args.command == "trace":
        return _trace(args)
    raise ConfigError(f"unknown command {args.command!r}")


def _restore(data_dir, checkpoint, split: str):
    """Dataset, vocabulary, decoder and ``split``'s samples; the decoder is
    sized from the first sample of the split it decodes."""
    dataset = Dataset.load(data_dir)
    vocab = Vocabulary.load(Path(data_dir) / "vocab.json")
    variant, arrays = load_checkpoint(checkpoint)
    samples = dataset.split(split)
    probe = dataset.features(samples[0])
    values = {"variant": variant, "data_dir": str(data_dir), "dropout": 0.0}
    for dim in ("hidden_dim", "embed_dim", "attn_dim"):
        if f"meta/{dim}" in arrays:
            values[dim] = int(arrays[f"meta/{dim}"])
    decoder = _build_decoder(TrainConfig(values), vocab, probe)
    decoder.load_arrays(arrays)
    return dataset, vocab, decoder, samples


def _generate(args) -> int:
    dataset, vocab, decoder, samples = _restore(args.data_dir, args.checkpoint, args.split)
    results = []
    trace_dir = Path(args.trace_dir) if args.trace_dir else None
    if trace_dir:
        trace_dir.mkdir(parents=True, exist_ok=True)
    for sample in samples:
        feats = dataset.features(sample)
        want_trace = trace_dir is not None
        t0 = time.perf_counter()
        if args.beam == 1:
            gen = greedy_decode(decoder, feats, args.max_len, record_trace=want_trace)
        else:
            gen = beam_search(decoder, feats, args.beam, args.max_len,
                              record_trace=want_trace)
        latency_ms = (time.perf_counter() - t0) * 1e3
        words = vocab.decode(gen.tokens)
        entry = {"id": sample.id, "caption": " ".join(words), "logprob": gen.logprob,
                 "latency_ms": latency_ms, "steps": gen.steps,
                 "stopped_early": gen.stopped_early, "finished": gen.finished}
        if want_trace and gen.trace:
            path = trace_dir / f"{sample.id}.csv"
            write_trace_csv(path, words + ["<eos>"], gen.trace)
            entry["trace_path"] = str(path)
        results.append(entry)
    write_generations(args.out, results)
    print(f"wrote {len(results)} captions to {args.out}")
    return 0


def _evaluate(args) -> int:
    cands = {}
    with open(args.candidates) as fh:
        for line in fh:
            if line.strip():
                obj = json.loads(line)
                cands[obj["id"]] = obj["caption"]
    refs = {}
    with open(args.refs) as fh:
        for line in fh:
            if line.strip():
                obj = json.loads(line)
                refs[obj["id"]] = obj["refs"]
    ids = sorted(cands)
    for i in ids:
        if i not in refs:
            raise ContractError(f"candidate id {i!r} has no references in {args.refs}")
    corpus = metrics.TokenizedCorpus(
        [tokenize(cands[i], args.tokenizer) for i in ids],
        [[tokenize(r, args.tokenizer) for r in refs[i]] for i in ids])
    scores = metrics.evaluate_corpus(corpus)
    payload = json.dumps(scores, indent=1, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return 0


def _gradcheck(args) -> int:
    from .testkit import decoder_gradcheck, GRADCHECK_VARIANTS

    variants = GRADCHECK_VARIANTS if args.variant == "all" else (args.variant,)
    failed = False
    for variant in variants:
        err = decoder_gradcheck(variant, hidden=args.hidden, vocab_size=args.vocab,
                                frames=args.frames, seed=args.seed)
        ok = err < 1e-4
        failed |= not ok
        print(f"{variant:18s} max rel err {err:.3e}  {'ok' if ok else 'FAIL'}")
    return 1 if failed else 0


def _trace(args) -> int:
    dataset, vocab, decoder, samples = _restore(args.data_dir, args.checkpoint, args.split)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    n = 0
    for sample in samples:
        feats = dataset.features(sample)
        gen = greedy_decode(decoder, feats, args.max_len, record_trace=True)
        words = vocab.decode(gen.tokens)
        write_trace_csv(out_dir / f"{sample.id}.csv", words + ["<eos>"], gen.trace)
        n += 1
    print(f"wrote {n} trace CSVs to {out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
