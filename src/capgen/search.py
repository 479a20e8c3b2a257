"""Greedy and beam-search caption generation.

Scores are plain cumulative log-probabilities (no length normalization by
default).  Both procedures are deterministic: argmax ties resolve to the
lowest token id, and beam candidates with equal scores order by token
sequence.  Beam search selects each step's k best expansions from the
(k, V) log-prob matrix of its live hypotheses with one partition and one
lexsort, so no per-candidate Python object is built.  The search alone
records traces: with ``record_trace`` it collects each step's
``state.row`` along the returned caption, the EOS step included, into
``GenerationResult.trace``.
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
    tokens: list[int]            # generated ids, BOS/EOS stripped
    logprob: float               # cumulative log-prob including the EOS step
    trace: Optional[tuple] = None  # one TraceRow per step, with record_trace
    steps: int = 0               # decoder steps run per hypothesis
    stopped_early: bool = False  # ended by its own stop rule, not by max_len
    finished: int = 0            # captions that emitted EOS (beam: pool size)


def greedy_decode(decoder, features, max_len: int = 30,
                  record_trace: bool = False) -> GenerationResult:
    """Argmax decoding until EOS or max_len; ties go to the lowest id.

    Fails with ``ContractError`` at a step where no token has positive
    probability, as ``beam_search`` does."""
    if max_len < 1:
        raise ContractError(f"max_len must be >= 1, got {max_len}")
    state = decoder.init_state(features)
    tok = BOS_ID
    tokens: list[int] = []
    rows = []
    logprob = 0.0
    finished = 0
    for steps in range(1, max_len + 1):
        p, state = decoder.step(state, tok)
        if record_trace:
            rows.append(state.row)
        nxt = int(np.argmax(p.data))
        if not p.data[nxt] > 0.0:
            raise ContractError(f"greedy decode: no token had positive probability at step {steps}, "
                                "so no caption can be expanded")
        logprob += float(np.log(p.data[nxt]))
        if nxt == EOS_ID:
            finished = 1
            break
        tokens.append(nxt)
        tok = nxt
    return GenerationResult(tokens, logprob, tuple(rows) if record_trace else None,
                            steps=steps, stopped_early=bool(finished),
                            finished=finished)


@dataclass
class _Hyp:
    tokens: tuple
    logprob: float
    state: object
    rows: Optional[tuple]  # trace rows along this caption; None when not recorded


def _expand(live: list[_Hyp], P: np.ndarray, k: int) -> list[tuple[float, int, int]]:
    """The k best (score, parent index, token) expansions of the live beam.

    ``P`` stacks the live hypotheses' next-token distributions, shape (n, V).
    A candidate scores its parent's log-prob plus log P; tokens with P <= 0
    score -inf or NaN and are never candidates.  Every finite score at or
    above the k-th largest survives the partition, so ties at the cut are
    kept, and one lexsort orders them by descending score, then by the
    parent's token tuple, then by token id.  The live tuples are distinct
    and equally long, so that is the lexicographic order of the candidates'
    token tuples: the same order, and the same float64 sums, as sorting one
    (score, tokens) tuple per candidate.
    """
    logprob = np.array([h.logprob for h in live])
    with np.errstate(divide="ignore", invalid="ignore"):
        flat = (logprob[:, None] + np.log(P)).ravel()
    cand = np.flatnonzero(flat > -np.inf)
    if cand.size > k:
        vals = flat[cand]
        kth = np.partition(vals, cand.size - k)[cand.size - k]
        cand = cand[vals >= kth]
    parent, tok = np.divmod(cand, P.shape[1])
    by_tokens = sorted(range(len(live)), key=lambda i: live[i].tokens)
    parent_rank = np.empty(len(live), dtype=np.intp)
    parent_rank[by_tokens] = np.arange(len(live))
    order = np.lexsort((tok, parent_rank[parent], -flat[cand]))[:k]
    return [(float(flat[cand[j]]), int(parent[j]), int(tok[j])) for j in order]


def beam_search(decoder, features, k: int = 5, max_len: int = 30,
                length_normalize: bool = False,
                record_trace: bool = False) -> GenerationResult:
    """Keep the k best partial captions per step; return the best finished one.

    Each step runs the decoder once per live hypothesis, stacks the
    distributions into one (n, V) matrix, and keeps the k best expansions
    overall (``_expand``): highest score first, equal scores in
    lexicographic token order.  Expansions that emit EOS are frozen into a
    completed pool capped at k.  The search stops early once no live
    hypothesis can still beat the worst pooled one.  Raw scores only fall
    as a caption grows, so a live score is its own bound; a
    length-normalized score can rise, so its bound is logprob / max_len,
    the best any extension can reach.  Hypotheses still alive at max_len
    compete with the pool on score, which is also the fallback when
    nothing finished.  Tokens the model gives zero probability are never
    expanded; if no token can be expanded and nothing finished, the search
    fails with ``ContractError``.  The result records the steps run,
    whether the search stopped before max_len, and the size of the
    completed pool.  Each hypothesis carries its own trace rows, so the
    returned trace follows the returned caption's lineage.
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

    live = [_Hyp((), 0.0, decoder.init_state(features), () if record_trace else None)]
    completed: list[_Hyp] = []
    stopped_early = False
    for steps in range(1, max_len + 1):
        rows, states = [], []
        for hyp in live:
            p, state = decoder.step(hyp.state, hyp.tokens[-1] if hyp.tokens else BOS_ID)
            rows.append(p.data)
            states.append(state)
        # the step keeps the k best candidates overall; EOS ones freeze
        new_live = []
        for score, i, tok in _expand(live, np.stack(rows), k):
            trace = None if live[i].rows is None else live[i].rows + (states[i].row,)
            if tok == EOS_ID:
                completed.append(_Hyp(live[i].tokens, score, states[i], trace))
            else:
                new_live.append(_Hyp(live[i].tokens + (tok,), score, states[i], trace))
        completed.sort(key=lambda h: (-rank(h), h.tokens))
        del completed[k:]
        live = new_live
        # live is sorted by raw score, so live[0] has the highest bound
        if not live or (completed and bound(live[0]) <= rank(completed[-1])):
            stopped_early = True
            break
    if not completed and not live:
        raise ContractError(f"beam search: no token had positive probability at step {steps}, "
                            "so no caption can be expanded")
    best = max(completed + live, key=lambda h: (rank(h), tuple(-t for t in h.tokens)))
    return GenerationResult(list(best.tokens), best.logprob, best.rows, steps=steps,
                            stopped_early=stopped_early, finished=len(completed))


def write_generations(path, results: list[dict]) -> None:
    """JSONL output, one {id, caption, logprob, ...} object per line."""
    with open(path, "w") as fh:
        for r in results:
            fh.write(json.dumps(r) + "\n")
