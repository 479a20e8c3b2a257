"""Greedy and beam-search caption generation, and the self-critical sample.

Scores are plain cumulative log-probabilities, with no length
normalization.  Both searches are deterministic: argmax ties resolve to
the lowest token id, and beam candidates with equal scores order by token
sequence.  Decoders follow the rows protocol of ``decoders.py``.

Two stepping loops cover every caption the package decodes.  ``_rows``
steps the n-row state of ``init_state(clips)``, one row per clip, one
``step`` call per search step, and owns the token-picking rules: the
argmax with its tie rule, the ancestral draw of a sampled row, the EOS
rule, the ``max_len`` stop and the positive-probability contract.
``greedy_decode`` keeps only its results over it: one clip is the
one-row case, and a list of clips (validation, ``capgen generate --beam
1`` and ``capgen trace`` pass ``GREEDY_CHUNK`` at a time) decodes them
all together.  ``sample_with_baseline`` is its two-row case with one
sampled row, the sample and greedy baseline of self-critical training.
Beam search steps all its n <= k live hypotheses of one clip as the n
rows of one state, one ``step`` call per search step, and then gathers
the survivors' rows, each with its copy of the clip's features, with
``state.take``.

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
from .tensor import pick_in_rows

__all__ = ["GREEDY_CHUNK", "GenerationResult", "greedy_decode", "sample_with_baseline",
           "beam_search", "write_generations"]

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


def _rows(decoder, clips, max_len: int, rng=None, sampled: int = 0):
    """Step the n-row state of ``init_state(clips)`` from BOS, one ``step``
    call per search step, and yield ``(steps, p, state, fed, live)`` after
    each: the step count, the (n, V) distributions, the stepped state, the
    n tokens the rows emitted and the rows that were live at that step.

    Every row takes its argmax, ties going to the lowest id; a live row
    below ``sampled`` then draws its token instead, with one
    ``rng.choice`` of its distribution (ancestral sampling at temperature
    1).  A row is live until it has emitted EOS; finished rows keep
    stepping on their argmax, their outputs ignored.  Stepping ends once
    no row is live, or after ``max_len`` steps.  A step where a live row
    has no token of positive probability is a ``ContractError``; greedy
    rows are checked before sampled ones."""
    state = decoder.init_state(clips)
    fed = [BOS_ID] * len(clips)
    live = list(range(len(clips)))
    for steps in range(1, max_len + 1):
        p, state = decoder.step(state, fed)
        fed = np.argmax(p.data, axis=1).tolist()
        for i in reversed(live):    # greedy rows, the higher ids, before sampled ones
            if not p.data[i, fed[i]] > 0.0:
                what = "sampled caption" if i < sampled else "greedy decode"
                raise ContractError(f"{what}: no token had positive probability at "
                                    f"step {steps}, so no caption can be expanded")
        for i in live:
            if i < sampled:
                probs = p.data[i] / p.data[i].sum()
                fed[i] = int(rng.choice(len(probs), p=probs))
        yield steps, p, state, fed, live
        live = [i for i in live if fed[i] != EOS_ID]
        if not live:
            return


def greedy_decode(decoder, features, max_len: int = 30, record_trace: bool = False):
    """Argmax decoding until EOS or max_len; ties go to the lowest id.

    ``features`` is one clip's ``FeatureSet`` (anything that is not a list
    or tuple, None included, counts as one clip), which gives one
    ``GenerationResult``; or a list or tuple of n clips, which gives a
    list of n, row i for clip i (an empty list for no clips).  The n
    clips are the n rows of one ``init_state`` state, and one ``step``
    call per search step advances them all (``_rows``).  A row's result
    is fixed at the step where it emits EOS; the finished rows keep
    stepping, their outputs ignored, until every row has finished or
    max_len steps have run.  Fails with ``ContractError`` at a step where
    an unfinished row has no token of positive probability, as
    ``beam_search`` does."""
    if max_len < 1:
        raise ContractError(f"max_len must be >= 1, got {max_len}")
    many = isinstance(features, (list, tuple))
    clips = list(features) if many else [features]
    if not clips:
        return []
    results = [GenerationResult([], 0.0) for _ in clips]
    rows = [[] for _ in clips]
    for steps, p, state, fed, live in _rows(decoder, clips, max_len):
        for i in live:
            gen, nxt = results[i], fed[i]
            gen.logprob += float(np.log(p.data[i, nxt]))
            gen.steps = steps
            if record_trace:
                rows[i].append(state.row.pick(i))
            if nxt == EOS_ID:
                gen.stopped_early, gen.finished = True, 1
            else:
                gen.tokens.append(nxt)
    if record_trace:
        for gen, trace in zip(results, rows):
            gen.trace = tuple(trace)
    return results if many else results[0]


def sample_with_baseline(decoder, features, rng, max_len: int):
    """Row 0's sampled caption, row 1's greedy caption, and the (2,)
    probabilities of the tokens the rows emitted at each step where row 0
    was live, from the two-row state of ``init_state([features,
    features])`` (``_rows`` with one sampled row).  Row 0 draws each
    token, EOS included, with one ``rng.choice``; row 1 is
    ``greedy_decode``'s caption.  Under a ``Tape`` the probabilities are
    tape nodes, so a loss over them differentiates the decoder."""
    captions: tuple[list[int], list[int]] = ([], [])
    picked = []
    for _, p, _, fed, live in _rows(decoder, [features, features], max_len, rng, sampled=1):
        if 0 in live:
            picked.append(pick_in_rows(p, fed))
        for i in live:
            if fed[i] != EOS_ID:
                captions[i].append(fed[i])
    return captions[0], captions[1], picked


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
