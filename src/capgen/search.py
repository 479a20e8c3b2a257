"""Greedy and beam-search caption generation.

Scores are plain cumulative log-probabilities (no length normalization by
default).  Both procedures are deterministic: argmax ties resolve to the
lowest token id, and beam candidates with equal scores order by token
sequence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import BOS_ID, EOS_ID
from .errors import ContractError

__all__ = ["GenerationResult", "greedy_decode", "beam_search", "write_generations"]


@dataclass
class GenerationResult:
    tokens: list[int]        # generated ids, BOS/EOS stripped
    logprob: float           # cumulative log-prob including the EOS step
    trace: Optional[tuple] = None


def greedy_decode(decoder, features, max_len: int = 30,
                  record_trace: bool = False) -> GenerationResult:
    """Argmax decoding until EOS or max_len; ties go to the lowest id."""
    if max_len < 1:
        raise ContractError(f"max_len must be >= 1, got {max_len}")
    state = decoder.init_state(features, record_trace=record_trace)
    tok = BOS_ID
    tokens: list[int] = []
    logprob = 0.0
    for _ in range(max_len):
        p, state = decoder.step(state, tok)
        nxt = int(np.argmax(p.data))
        logprob += float(np.log(p.data[nxt]))
        if nxt == EOS_ID:
            break
        tokens.append(nxt)
        tok = nxt
    return GenerationResult(tokens, logprob, getattr(state, "trace", None))


@dataclass
class _Hyp:
    tokens: tuple
    logprob: float
    state: object


def beam_search(decoder, features, k: int = 5, max_len: int = 30,
                length_normalize: bool = False,
                record_trace: bool = False) -> GenerationResult:
    """Keep the k best partial captions per step; return the best finished one.

    Each step keeps the k best expansions overall; those that emit EOS are
    frozen into a completed pool capped at k.  The search stops early once
    no live hypothesis can still beat the worst pooled one.  Raw scores
    only fall as a caption grows, so a live score is its own bound; a
    length-normalized score can rise, so its bound is logprob / max_len,
    the best any extension can reach.  Hypotheses still alive at max_len
    compete with the pool on score, which is also the fallback when
    nothing finished.  Tokens the model gives zero probability are never
    expanded.
    """
    if k < 1:
        raise ContractError(f"beam width must be >= 1, got {k}")
    if max_len < 1:
        raise ContractError(f"max_len must be >= 1, got {max_len}")

    def rank(hyp: _Hyp) -> float:
        if length_normalize:
            return hyp.logprob / max(1, len(hyp.tokens))
        return hyp.logprob

    def bound(hyp: _Hyp) -> float:
        return hyp.logprob / max_len if length_normalize else hyp.logprob

    live = [_Hyp((), 0.0, decoder.init_state(features, record_trace=record_trace))]
    completed: list[_Hyp] = []
    for _ in range(max_len):
        candidates: list[tuple[float, tuple, int, _Hyp, object]] = []
        for hyp in live:
            prev = hyp.tokens[-1] if hyp.tokens else BOS_ID
            p, state = decoder.step(hyp.state, prev)
            pd = p.data
            for tok in range(pd.shape[0]):
                if pd[tok] <= 0.0:
                    continue
                candidates.append((hyp.logprob + float(np.log(pd[tok])),
                                   hyp.tokens + (tok,), tok, hyp, state))
        candidates.sort(key=lambda c: (-c[0], c[1]))
        # the step keeps the k best candidates overall; EOS ones freeze
        new_live = []
        for score, toks, tok, hyp, state in candidates[:k]:
            if tok == EOS_ID:
                completed.append(_Hyp(toks[:-1], score, state))
            else:
                new_live.append(_Hyp(toks, score, state))
        completed.sort(key=lambda h: (-rank(h), h.tokens))
        del completed[k:]
        live = new_live
        if not live:
            break
        # live is sorted by raw score, so live[0] has the highest bound
        if completed and bound(live[0]) <= rank(completed[-1]):
            break
    best = max(completed + live, key=lambda h: (rank(h), tuple(-t for t in h.tokens)))
    return GenerationResult(list(best.tokens), best.logprob,
                            getattr(best.state, "trace", None))


def write_generations(path, results: list[dict]) -> None:
    """JSONL output, one {id, caption, logprob, trace_path?} object per line."""
    with open(path, "w") as fh:
        for r in results:
            fh.write(json.dumps(r) + "\n")
