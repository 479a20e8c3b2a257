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
from .data import UNK_ID, Dataset, Vocabulary, build_vocab, synth_dataset
from .decoders import VARIANTS
from .errors import CapgenError, ConfigError, ContractError, FormatError
from .search import GREEDY_CHUNK, beam_search, greedy_decode, write_generations
from .testkit import decoder_gradcheck, tiny_widths
from .training import _CONFIG_DEFAULTS, TrainConfig, build_decoder, train


def _add_synth(sub):
    p = sub.add_parser("synth-data", help="generate a synthetic desk-scale dataset")
    p.set_defaults(run=_synth)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--vocab-size", type=int, default=12, help="content words")
    p.add_argument("--length", type=int, default=4, help="frames = caption words")
    p.add_argument("--dim", type=int, default=16, help="feature width")
    p.add_argument("--motion-segments", type=int, default=None)


def _add_vocab(sub):
    p = sub.add_parser("build-vocab", help="build a vocabulary from a refs JSONL file")
    p.set_defaults(run=_build_vocab)
    p.add_argument("--refs", required=True, help="JSONL with {id, refs:[...]} lines")
    p.add_argument("--out", required=True)
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--tokenizer", choices=["default", "whitespace"], default="default")


def _add_train(sub):
    p = sub.add_parser("train", help="run the two-stage training driver")
    p.set_defaults(run=_train)
    p.add_argument("--config", default=None,
                   help="key = value file; values there override the flags")
    for key, default in _CONFIG_DEFAULTS.items():
        p.add_argument("--" + key.replace("_", "-"), type=type(default), default=None,
                       help=f"default {default!r}")


def _add_generate(sub):
    p = sub.add_parser("generate", help="decode captions for a dataset split")
    p.set_defaults(run=_generate)
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
    p.set_defaults(run=_evaluate)
    p.add_argument("--candidates", required=True, help="JSONL with {id, caption}")
    p.add_argument("--refs", required=True, help="JSONL with {id, refs:[...]}")
    p.add_argument("--tokenizer", choices=["default", "whitespace"], default="default")
    p.add_argument("--out", default=None, help="write the metrics JSON here (default stdout)")


def _add_gradcheck(sub):
    p = sub.add_parser("gradcheck", help="finite-difference check of decoder gradients")
    p.set_defaults(run=_gradcheck)
    p.add_argument("--variant", default="all",
                   help="decoder variant or 'all'")
    p.add_argument("--hidden", type=int, default=8)
    p.add_argument("--vocab", type=int, default=12)
    p.add_argument("--frames", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)


def _add_trace(sub):
    p = sub.add_parser("trace", help="emit attention-weight CSVs for a split")
    p.set_defaults(run=_trace)
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
        return args.run(args)
    except CapgenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:     # an output path that cannot be written
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 1


def _synth(args) -> int:
    synth_dataset(args.seed, args.samples, args.vocab_size, args.length,
                  args.dim, args.out, args.motion_segments)
    print(f"wrote {args.samples} samples to {args.out}")
    return 0


def _build_vocab(args) -> int:
    captions = [c for refs in _read_jsonl(args.refs, "refs").values() for c in refs]
    vocab = build_vocab(captions, args.min_count, args.tokenizer)
    vocab.save(args.out)
    print(f"vocabulary of {len(vocab)} ids written to {args.out}")
    return 0


def _train(args) -> int:
    overrides = {k.replace("-", "_"): v for k, v in vars(args).items()
                 if k not in ("command", "run", "config") and v is not None}
    cfg = (TrainConfig.from_file(args.config, overrides) if args.config
           else TrainConfig(overrides))
    result = train(cfg)
    last = result.history[-1] if result.history else {}
    print(f"trained {cfg.variant} for {len(result.history)} epochs; "
          f"best val {result.best_val:.4f}; checkpoint {result.checkpoint_path}")
    if last:
        print(json.dumps(last))
    return 0


def _restore(data_dir, checkpoint, split: str):
    """Dataset, vocabulary, decoder and ``split``'s samples.  The decoder
    comes from ``training.build_decoder``, as ``train`` built it: its dims
    from the checkpoint's ``meta/*`` records (the training defaults where
    the file has none), its feature widths from the first sample of the
    split it decodes."""
    dataset = Dataset.load(data_dir)
    vocab = Vocabulary.load(Path(data_dir) / "vocab.json")
    variant, arrays = load_checkpoint(checkpoint)
    samples = dataset.split(split)
    dims = [int(arrays[f"meta/{d}"]) if f"meta/{d}" in arrays else _CONFIG_DEFAULTS[d]
            for d in ("hidden_dim", "embed_dim", "attn_dim")]
    decoder = build_decoder(variant, len(vocab), dataset.features(samples[0]), *dims)
    decoder.load_arrays(arrays)
    return dataset, vocab, decoder, samples


def _decoded(dataset, decoder, samples, beam: int, max_len: int, record_trace: bool):
    """``(sample, result, ms, clips)`` for each of ``samples``: ``beam``
    1 greedy-decodes ``GREEDY_CHUNK`` clips per ``greedy_decode`` call,
    and a wider beam searches one clip per call.  ``clips`` is the number
    of clips its call decoded, and ``ms`` that call's wall time divided by
    ``clips``."""
    chunk = GREEDY_CHUNK if beam == 1 else 1
    for lo in range(0, len(samples), chunk):
        part = samples[lo:lo + chunk]
        feats = [dataset.features(s) for s in part]
        t0 = time.perf_counter()
        gens = (greedy_decode(decoder, feats, max_len, record_trace) if beam == 1
                else [beam_search(decoder, feats[0], beam, max_len, record_trace)])
        ms = (time.perf_counter() - t0) * 1e3 / len(part)
        for sample, gen in zip(part, gens):
            yield sample, gen, ms, len(part)


def _check_least(*checks) -> None:
    """Raise a ``ConfigError`` naming the first ``(flag, value, least)``
    whose value is below ``least``."""
    for flag, value, least in checks:
        if value < least:
            raise ConfigError(f"{flag} must be at least {least}, got {value}")


def _generate(args) -> int:
    """Decode a split to JSONL (see ``_decoded``).  Each entry's
    ``batch_clips`` is the number of clips decoded together, and its
    ``latency_ms`` the wall time of their decode call divided by
    ``batch_clips``.  A ``--beam`` or ``--max-len`` below 1 fails before
    anything loads or is created."""
    _check_least(("--beam", args.beam, 1), ("--max-len", args.max_len, 1))
    dataset, vocab, decoder, samples = _restore(args.data_dir, args.checkpoint, args.split)
    open(args.out, "a").close()     # an unwritable output fails before any decoding
    results = []
    trace_dir = Path(args.trace_dir) if args.trace_dir else None
    if trace_dir:
        trace_dir.mkdir(parents=True, exist_ok=True)
    for sample, gen, latency_ms, clips in _decoded(dataset, decoder, samples, args.beam,
                                                   args.max_len, bool(trace_dir)):
        words = vocab.decode(gen.tokens)
        entry = {"id": sample.id, "caption": " ".join(words), "logprob": gen.logprob,
                 "latency_ms": latency_ms, "batch_clips": clips, "steps": gen.steps,
                 "stopped_early": gen.stopped_early, "finished": gen.finished}
        if trace_dir and gen.trace:
            path = trace_dir / f"{sample.id}.csv"
            write_trace_csv(path, words + ["<eos>"], gen.trace)
            entry["trace_path"] = str(path)
        results.append(entry)
    write_generations(args.out, results)
    print(f"wrote {len(results)} captions to {args.out}")
    return 0


def _read_jsonl(path, field: str) -> dict:
    """``{id: record[field]}`` over the non-blank lines of a JSONL file, where
    ``field`` is ``caption`` (a string) or ``refs`` (a list of strings)."""
    out = {}
    try:
        fh = open(path)
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror}") from None
    with fh:
        for n, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"{path}:{n}: not JSON: {exc.msg}") from None
            if (not isinstance(record, dict) or field not in record
                    or not isinstance(record.get("id"), (str, int))):
                raise FormatError(f"{path}:{n}: expected an object with a string or "
                                  f"integer 'id' and {field!r}")
            value = record[field]
            ok = (isinstance(value, str) if field == "caption" else
                  isinstance(value, list) and all(isinstance(r, str) for r in value))
            if not ok:
                kind = "a string" if field == "caption" else "a list of strings"
                raise FormatError(f"{path}:{n}: {field!r} must be {kind}")
            out[record["id"]] = value
    return out


def _evaluate(args) -> int:
    cands = _read_jsonl(args.candidates, "caption")
    refs = _read_jsonl(args.refs, "refs")
    ids = sorted(cands, key=lambda i: (isinstance(i, str), i))   # integer ids first
    for i in ids:
        if i not in refs:
            raise ContractError(f"candidate id {i!r} has no references in {args.refs}")
    corpus = metrics.TokenizedCorpus.from_strings(
        [cands[i] for i in ids], [refs[i] for i in ids], args.tokenizer)
    scores = metrics.evaluate_corpus(corpus)
    payload = json.dumps(scores, indent=1, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return 0


def _gradcheck(args) -> int:
    """Gradcheck each variant's tiny decoder.  A size that leaves any of
    them a width below 1, or no word to draw, is a ``ConfigError`` naming
    its flag, raised before the first variant runs."""
    variants = VARIANTS if args.variant == "all" else (args.variant,)
    for variant in variants:
        for name, width in tiny_widths(variant, args.hidden).items():
            if width < 1:
                raise ConfigError(f"--hidden {args.hidden} leaves {variant}'s {name} at "
                                  f"{width}; every width must be at least 1")
    # a tiny caption draws its words from UNK_ID + 1 up
    _check_least(("--vocab", args.vocab, UNK_ID + 2), ("--frames", args.frames, 1))
    failed = False
    for variant in variants:
        err = decoder_gradcheck(variant, hidden=args.hidden, vocab_size=args.vocab,
                                frames=args.frames, seed=args.seed)
        ok = err < 1e-4
        failed |= not ok
        print(f"{variant:18s} max rel err {err:.3e}  {'ok' if ok else 'FAIL'}")
    return 1 if failed else 0


def _trace(args) -> int:
    _check_least(("--max-len", args.max_len, 1))
    dataset, vocab, decoder, samples = _restore(args.data_dir, args.checkpoint, args.split)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for sample, gen, _, _ in _decoded(dataset, decoder, samples, 1, args.max_len, True):
        write_trace_csv(out_dir / f"{sample.id}.csv", vocab.decode(gen.tokens) + ["<eos>"],
                        gen.trace)
    print(f"wrote {len(samples)} trace CSVs to {out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
