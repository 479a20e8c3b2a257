"""Greedy and beam-search caption generation.

Scores are plain cumulative log-probabilities, with no length
normalization.  Both procedures are deterministic: argmax ties resolve to
the lowest token id, and beam candidates with equal scores order by token
sequence.  Decoders follow the rows protocol of ``decoders.py``.  Greedy
decoding steps the n-row state of ``init_state(clips)``, one row per
clip, one ``step`` call per search step: one clip is the one-row case,
and a list of clips (validation, ``capgen generate --beam 1`` and
``capgen trace`` pass ``GREEDY_CHUNK`` at a time) decodes them all
together.  Beam search steps all its n <= k live hypotheses of one clip
as the n rows of one state, one ``step`` call per search step, and then
gathers the survivors' rows, each with its copy of the clip's features,
with ``state.take``.

Contract.  A one-row step is bit-identical to stepping with
matrix-vector products, so a one-clip greedy decode keeps its bits.  Row
i of an n-row step agrees with stepping that row alone within rounding
(log-probs move by about 1e-15), since its weight products are GEMMs
(against a paper-size weight, 2 to 8 rows take one GEMM per block of the
weight, whose bits differ from one GEMM's by rounding) and a padded
clip's softmax runs over masked columns.  So row i of a
many-clip greedy decode agrees with clip i decoded alone within
rounding, and at a near-tie it may pick another token; likewise each
beam hypothesis.  Beam search selects each step's k best expansions from
the (n, V) log-prob matrix with one partition and one lexsort, so no
per-candidate Python object is built.  The search alone records traces:
with ``record_trace`` it collects each step's trace row along the
returned caption, the EOS step included, into
``GenerationResult.trace``; a padded clip's row keeps only its real
attention columns (``TraceRow.pick``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import BOS_ID, EOS_ID
from .errors import ContractError

__all__ = ["GREEDY_CHUNK", "GenerationResult", "greedy_decode", "beam_search",
           "write_generations"]

# Clips per many-clip ``greedy_decode`` call when validation and the CLI
# decode a split.
GREEDY_CHUNK = 16


@dataclass
class GenerationResult:
    tokens: list[int]            # generated ids, BOS/EOS stripped
    logprob: float               # cumulative log-prob including the EOS step
    trace: Optional[tuple] = None  # one TraceRow per step, with record_trace
    steps: int = 0               # search steps run, one decoder step call each
    stopped_early: bool = False  # ended by its own stop rule, not by max_len
    finished: int = 0            # captions that emitted EOS (beam: pool size)


def greedy_decode(decoder, features, max_len: int = 30, record_trace: bool = False):
    """Argmax decoding until EOS or max_len; ties go to the lowest id.

    ``features`` is one clip's ``FeatureSet`` (anything that is not a list
    or tuple, None included, counts as one clip), which gives one
    ``GenerationResult``; or a list or tuple of n clips, which gives a
    list of n, row i for clip i (an empty list for no clips).  The n
    clips are the n rows of one ``init_state`` state, and one ``step``
    call per search step advances them all.  A row's result is fixed at
    the step where it emits EOS; the finished rows keep stepping, their
    outputs ignored, until every row has finished or max_len steps have
    run.  Fails with ``ContractError`` at a step where an unfinished row
    has no token of positive probability, as ``beam_search`` does."""
    if max_len < 1:
        raise ContractError(f"max_len must be >= 1, got {max_len}")
    many = isinstance(features, (list, tuple))
    clips = list(features) if many else [features]
    if not clips:
        return []
    state = decoder.init_state(clips)
    fed = [BOS_ID] * len(clips)
    results = [GenerationResult([], 0.0) for _ in clips]
    rows = [[] for _ in clips]
    live = range(len(clips))
    for steps in range(1, max_len + 1):
        p, state = decoder.step(state, fed)
        fed = np.argmax(p.data, axis=1).tolist()
        for i in live:
            gen, nxt = results[i], fed[i]
            prob = p.data[i, nxt]
            if not prob > 0.0:
                raise ContractError(f"greedy decode: no token had positive probability at "
                                    f"step {steps}, so no caption can be expanded")
            gen.logprob += float(np.log(prob))
            gen.steps = steps
            if record_trace:
                rows[i].append(state.row.pick(i))
            if nxt == EOS_ID:
                gen.stopped_early, gen.finished = True, 1
            else:
                gen.tokens.append(nxt)
        live = [i for i in live if not results[i].finished]
        if not live:
            break
    if record_trace:
        for gen, trace in zip(results, rows):
            gen.trace = tuple(trace)
    return results if many else results[0]


@dataclass
class _Hyp:
    tokens: tuple
    logprob: float
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
                record_trace: bool = False) -> GenerationResult:
    """Keep the k best partial captions per step; return the best finished one.

    Each step runs the decoder once on the live hypotheses as the rows of
    one state, which gives one (n, V) matrix of distributions, and keeps
    the k best expansions overall (``_expand``): highest score first,
    equal scores in lexicographic token order.  The next step runs on
    their parents' rows, gathered by ``state.take``.  Expansions that
    emit EOS are frozen into a completed pool capped at k.  A score is the
    caption's raw cumulative log-prob, with no length normalization; it
    only falls as a caption grows, so the search stops early once no live
    score beats the worst pooled one.  Hypotheses still alive at max_len
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

    state = decoder.init_state([features])
    live = [_Hyp((), 0.0, () if record_trace else None)]
    completed: list[_Hyp] = []
    stopped_early = False
    for steps in range(1, max_len + 1):
        p, state = decoder.step(state, [h.tokens[-1] if h.tokens else BOS_ID for h in live])
        # the step keeps the k best candidates overall; EOS ones freeze
        new_live, parents = [], []
        for score, i, tok in _expand(live, p.data, k):
            trace = None if live[i].rows is None else live[i].rows + (state.row.pick(i),)
            if tok == EOS_ID:
                completed.append(_Hyp(live[i].tokens, score, trace))
            else:
                new_live.append(_Hyp(live[i].tokens + (tok,), score, trace))
                parents.append(i)
        completed.sort(key=lambda h: (-h.logprob, h.tokens))
        del completed[k:]
        live = new_live
        # live is sorted by score, so live[0] has the highest bound
        if not live or (completed and live[0].logprob <= completed[-1].logprob):
            stopped_early = True
            break
        state = state.take(parents)
    if not completed and not live:
        raise ContractError(f"beam search: no token had positive probability at step {steps}, "
                            "so no caption can be expanded")
    best = max(completed + live, key=lambda h: (h.logprob, tuple(-t for t in h.tokens)))
    return GenerationResult(list(best.tokens), best.logprob, best.rows, steps=steps,
                            stopped_early=stopped_early, finished=len(completed))


def write_generations(path, results: list[dict]) -> None:
    """JSONL output, one {id, caption, logprob, ...} object per line."""
    with open(path, "w") as fh:
        for r in results:
            fh.write(json.dumps(r) + "\n")
