"""Caption quality metrics: BLEU-1..4, ROUGE-L and CIDEr-D.

All three operate on a TokenizedCorpus: one candidate token list per
sample plus one or more reference token lists.  They are pure functions
of the match structure, so consistently relabeling tokens leaves every
score unchanged.

Each metric is one pass with fixed constants: ``bleu`` returns BLEU-1..4
from one count of clipped matches, and a ``CiderD`` scorer counts its
document frequencies once, so the self-critical reward builds one over
the training references and then scores each caption alone.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ContractError, EmptyInputError
from .data import tokenize

__all__ = ["TokenizedCorpus", "bleu", "rouge_l", "CiderD", "cider", "evaluate_corpus"]

MAX_N = 4          # n-gram orders counted by BLEU and CIDEr-D
ROUGE_BETA = 1.2   # ROUGE-L recall weight
CIDER_SIGMA = 6.0  # CIDEr-D Gaussian length-penalty width


@dataclass
class TokenizedCorpus:
    """Aligned candidates and references, already tokenized."""

    candidates: list[list[str]]
    references: list[list[list[str]]]

    def __post_init__(self):
        if len(self.candidates) != len(self.references):
            raise ContractError(
                f"{len(self.candidates)} candidates vs {len(self.references)} reference sets")
        if len(self.candidates) == 0:
            raise EmptyInputError("empty corpus")
        for i, refs in enumerate(self.references):
            if len(refs) == 0:
                raise EmptyInputError(f"sample {i} has no references")

    def __len__(self) -> int:
        return len(self.candidates)

    @classmethod
    def from_strings(cls, candidates: list[str], references: list[list[str]],
                     mode: str = "default") -> "TokenizedCorpus":
        return cls([tokenize(c, mode) for c in candidates],
                   [[tokenize(r, mode) for r in refs] for refs in references])


def _ngrams(tokens: list[str]):
    """Every 1..MAX_N-gram of ``tokens`` as a tuple, lower orders first."""
    return chain.from_iterable(zip(*(tokens[i:] for i in range(n)))
                               for n in range(1, MAX_N + 1))


def bleu(corpus: TokenizedCorpus) -> tuple[float, float, float, float]:
    """Corpus-level BLEU-1..4 from one pass of clipped match counts.

    BLEU-n is the modified n-gram precision with per-reference clipping,
    geometric mean over orders 1..n, and the brevity penalty exp(1 - r/c)
    for c < r using the closest reference length per sample (ties favor
    the shorter reference).  No smoothing: a zero count at any of those
    orders gives 0.0.
    """
    matched = [0] * MAX_N
    total = [0] * MAX_N
    cand_len = 0
    ref_len = 0
    for cand, refs in zip(corpus.candidates, corpus.references):
        max_ref: dict = {}
        for ref in refs:
            for gram, c in Counter(_ngrams(ref)).items():
                if c > max_ref.get(gram, 0):
                    max_ref[gram] = c
        for gram, c in Counter(_ngrams(cand)).items():
            order = len(gram) - 1
            total[order] += c
            matched[order] += min(c, max_ref.get(gram, 0))
        cand_len += len(cand)
        ref_len += min((len(r) for r in refs),
                       key=lambda rl: (abs(rl - len(cand)), rl))
    if cand_len == 0:
        return (0.0,) * MAX_N
    bp = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / cand_len)
    scores = []
    for n in range(1, MAX_N + 1):
        if 0 in total[:n] or 0 in matched[:n]:
            scores.append(0.0)
        else:
            log_prec = sum(math.log(m / t) for m, t in zip(matched[:n], total[:n])) / n
            scores.append(bp * math.exp(log_prec))
    return tuple(scores)


def _lcs_len(a: list[str], b: list[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def rouge_l(corpus: TokenizedCorpus) -> float:
    """Mean LCS F-measure; per sample, precision and recall each take their
    max over the references before combining."""
    scores = []
    for cand, refs in zip(corpus.candidates, corpus.references):
        prec, rec = [], []
        for ref in refs:
            lcs = _lcs_len(ref, cand)
            prec.append(lcs / len(cand) if cand else 0.0)
            rec.append(lcs / len(ref) if ref else 0.0)
        p, r = max(prec), max(rec)
        if p != 0 and r != 0:
            scores.append(((1 + ROUGE_BETA ** 2) * p * r) / (r + ROUGE_BETA ** 2 * p))
        else:
            scores.append(0.0)
    return float(np.mean(scores))


class CiderD:
    """CIDEr-D with document frequencies counted once over ``ref_sets``.

    ``score`` is one sample's TF-IDF n-gram cosine against each reference,
    with candidate count clipping and a Gaussian length penalty, averaged
    over references and orders, scaled by 10.
    """

    def __init__(self, ref_sets: list[list[list[str]]]):
        if len(ref_sets) == 0:
            raise EmptyInputError("CIDEr needs reference sets for document frequencies")
        self.doc_freq: Counter = Counter()
        for refs in ref_sets:
            self.doc_freq.update({gram for ref in refs for gram in _ngrams(ref)})
        self.log_n_docs = math.log(len(ref_sets))

    def _vec(self, tokens: list[str]):
        """TF-IDF weights by gram, the L2 norm per order, and the length."""
        vec = {}
        norm = [0.0] * MAX_N
        for gram, tf in Counter(_ngrams(tokens)).items():
            w = tf * (self.log_n_docs - math.log(max(1.0, self.doc_freq[gram])))
            vec[gram] = w
            norm[len(gram) - 1] += w ** 2
        return vec, [math.sqrt(x) for x in norm], len(tokens)

    def score(self, cand: list[str], refs: list[list[str]]) -> float:
        if len(refs) == 0:
            raise EmptyInputError("CIDEr needs at least one reference")
        c_vec, c_norm, c_len = self._vec(cand)
        acc = np.zeros(MAX_N)
        for ref in refs:
            r_vec, r_norm, r_len = self._vec(ref)
            penalty = math.exp(-(float(c_len - r_len) ** 2) / (2 * CIDER_SIGMA ** 2))
            val = [0.0] * MAX_N
            for gram, w in c_vec.items():
                # count clipping: candidate weight capped by the reference's;
                # a gram the reference lacks would add exactly +0.0
                if gram in r_vec:
                    val[len(gram) - 1] += min(w, r_vec[gram]) * r_vec[gram]
            for order in range(MAX_N):
                if c_norm[order] != 0 and r_norm[order] != 0:
                    val[order] /= c_norm[order] * r_norm[order]
                acc[order] += val[order] * penalty
        return float(np.mean(acc)) / len(refs) * 10.0


def cider(corpus: TokenizedCorpus) -> float:
    """Mean CIDEr-D, with document frequencies from the corpus's references."""
    scorer = CiderD(corpus.references)
    return float(np.mean([scorer.score(cand, refs)
                          for cand, refs in zip(corpus.candidates, corpus.references)]))


def evaluate_corpus(corpus: TokenizedCorpus) -> dict[str, float]:
    """The CLI-facing bundle of every implemented metric."""
    bleu1, bleu2, bleu3, bleu4 = bleu(corpus)
    return {"bleu1": bleu1, "bleu2": bleu2, "bleu3": bleu3, "bleu4": bleu4,
            "rougeL": rouge_l(corpus), "cider": cider(corpus)}
