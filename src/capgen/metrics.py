"""Caption quality metrics: BLEU-1..4, ROUGE-L and CIDEr-D.

All three operate on a TokenizedCorpus: one candidate token list per
sample plus one or more reference token lists.  They are pure functions
of the match structure, so consistently relabeling tokens leaves every
score unchanged.

Encoding.  A scored corpus's references are encoded once, as one list of
sentences.  Every token maps to a word id, and the n-grams of one order
are coded from those of the order below: an n-gram's code is (dense id
of its leading (n-1)-gram) * (number of words) + (id of its last word),
and ``np.unique`` compacts the codes to dense ids before the next order.
Both factors are below the token count, so a vocabulary of any size
stays inside int64.  The same pass counts each gram's document frequency
over the reference sets.  Every candidate is then coded against that
encoding by one coder: a gram the references hold takes their id and
document frequency, and one they lack is numbered past them with
document frequency 0.  ``evaluate_corpus`` hands one encoding to both
``bleu`` and ``cider``; called alone, each encodes its own corpus.  The
encoding's arrays grow with the corpus and live for one call.  BLEU and
CIDEr-D then score ``CHUNK`` samples per array pass: sentences are
contiguous and their grams in text order, so a chunk's candidate and
reference grams are one slice each per order.  One analysis
(``_analysis``) finds each (order, sentence)'s distinct grams and pairs
each reference's grams with its candidate's, for BLEU's and CIDEr-D's
clipping alike.
ROUGE-L's LCS is bit-parallel over Python ints (Allison & Dix 1986;
Hyyrö 2004), with the candidate's match masks built once and reused for
every reference.

BLEU and the LCS are integer counts, exact by construction.  CIDEr-D's
floats keep the bits of the scalar per-gram loop (one dict of weights per
sentence) that this encoding replaced, through three rules:

* Squares: a weight's square is Python's ``w ** 2``, which calls libm
  ``pow`` and differs in the last bit from numpy's ``w * w`` for some
  doubles.  Each distinct (term frequency, document frequency) pair gets
  its weight and square once, as Python scalars.
* Logs and exponentials: ``math.log`` runs once per distinct (term
  frequency, document frequency) pair and ``math.exp`` once per distinct
  length difference; numpy's may round differently.  Arrays look them up.
* Sums: terms are added in the scalar loop's order, per (sentence, order)
  in the order the grams first occur, then reference by reference.  No
  pairwise (numpy) or compensated (``sum``, ``fsum``) sum is used: every
  sum is ``_bin_sums``, whose ``np.bincount`` adds each bin's terms one at
  a time from 0.0 in input order.  The analysis gives its grams in
  (segment, first occurrence) order and its pairs in candidate order, so
  the terms arrive in the scalar loop's order.

A ``CiderD`` scorer encodes its reference sets once and keeps the
encoding, so the self-critical reward builds one over the training
references and then codes only each caption against it, with the coder
and batch builder that score a corpus.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import ContractError, EmptyInputError
from .data import tokenize

__all__ = ["TokenizedCorpus", "bleu", "rouge_l", "CiderD", "cider", "evaluate_corpus"]

MAX_N = 4          # n-gram orders counted by BLEU and CIDEr-D
ROUGE_BETA = 1.2   # ROUGE-L recall weight
CIDER_SIGMA = 6.0  # CIDEr-D Gaussian length-penalty width
CHUNK = 32         # samples per array pass of BLEU and CIDEr-D


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


def _word_ids(sentences: list[list[str]]):
    """The flattened word ids of ``sentences``, their lengths, and the
    word -> id map (ids in order of first occurrence)."""
    flat = list(chain.from_iterable(sentences))
    words = {w: i for i, w in enumerate(dict.fromkeys(flat))}
    ids = np.fromiter(map(words.__getitem__, flat), np.int64, len(flat))
    lens = np.fromiter(map(len, sentences), np.int64, len(sentences))
    return ids, lens, words


def _grams(ids: np.ndarray, lens: np.ndarray, n_words: int):
    """For each order 1..MAX_N: the sentence and the dense gram id of every
    n-gram in text order, and the sorted distinct codes the ids index."""
    pos = np.arange(len(ids))
    sent = np.repeat(np.arange(len(lens)), lens)
    left = np.cumsum(lens)[sent] - pos   # tokens from here to the sentence end
    gid, codes = ids, np.arange(n_words)
    for n in range(1, MAX_N + 1):
        if n > 1:
            codes, gid = np.unique(gid * n_words + ids[pos + n - 1], return_inverse=True)
        yield sent, gid, codes
        keep = left > n
        pos, sent, left, gid = pos[keep], sent[keep], left[keep], gid[keep]


class _Batch(NamedTuple):
    """Samples scored in one array pass: per order, the (sentence, gram id,
    document frequency) of every n-gram of their candidates, then of their
    references, in text order with sentences numbered from 0; the number
    of gram ids per order; every sentence's length; and each sample's
    reference count."""

    grams: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    sizes: list[int]
    lens: np.ndarray
    n_refs: np.ndarray


def _span(grams, lo: int, hi: int, to: int):
    """Per order, each per-gram array of ``grams``, sentence first, cut to
    the grams of sentences lo..hi-1, sentences renumbered from ``to``."""
    out = []
    for sent, *rest in grams:
        a, b = np.searchsorted(sent, [lo, hi]).tolist()
        out.append((sent[a:b] + (to - lo), *(x[a:b] for x in rest)))
    return out


class _Encoding:
    """A corpus's reference sets, encoded once, and its candidates coded
    against them.

    ``grams[k]`` is order k+1's (sentence, gram id) of every reference
    n-gram in text order, ``codes[k]`` the sorted distinct codes the ids
    index, and ``doc_freq[k]`` how many reference sets hold each of them.
    ``cands`` is the corpus's candidates, coded once."""

    def __init__(self, ref_sets: list[list[list[str]]], cands: list[list[str]] = ()):
        self.n_refs = np.fromiter(map(len, ref_sets), np.int64, len(ref_sets))
        # the first sentence of each sample's references, then the end
        self.ref_start = np.cumsum([0] + self.n_refs.tolist()).tolist()
        owner = np.repeat(np.arange(len(ref_sets)), self.n_refs)
        ids, self.lens, self.words = _word_ids([ref for refs in ref_sets for ref in refs])
        self.grams, self.codes, self.doc_freq = [], [], []
        for sent, gid, codes in _grams(ids, self.lens, len(self.words)):
            held = np.sort(owner[sent] * len(codes) + gid)
            held = held[np.diff(held, prepend=-1) != 0] % len(codes)
            self.grams.append((sent, gid))
            self.codes.append(codes)
            self.doc_freq.append(np.bincount(held, minlength=len(codes)))
        self.log_n_docs = math.log(len(ref_sets))
        self.cands = self.code(cands)

    def code(self, sentences: list[list[str]]):
        """Per order, the (sentence, gram id, document frequency) of every
        gram of ``sentences`` in the references' gram ids, with the grams
        they lack numbered past them; the number of gram ids per order;
        and the sentence lengths."""
        ids, lens, words = _word_ids(sentences)
        word_id = np.fromiter((self.words.get(w, -1) for w in words), np.int64, len(words))
        grams, sizes, known = [], [], None
        for order, (sent, gid, codes) in enumerate(_grams(ids, lens, len(words))):
            known = self._known(order, codes, len(words), known, word_id)
            n_own = len(self.codes[order])
            df = np.zeros(len(codes), np.int64)
            df[known >= 0] = self.doc_freq[order][known[known >= 0]]
            ours = np.where(known >= 0, known, n_own + np.arange(len(codes)))
            grams.append((sent, ours[gid], df[gid]))
            sizes.append(n_own + len(codes))
        return grams, sizes, lens

    def _known(self, order: int, codes: np.ndarray, n_words: int,
               below: np.ndarray, word_id: np.ndarray) -> np.ndarray:
        """The references' id of each coded gram of ``order`` (coded
        ``codes`` over ``n_words`` words), or -1 where they lack it."""
        if order == 0:
            return word_id
        table = self.codes[order]
        if len(table) == 0:
            return np.full(len(codes), -1)
        prefix, last = below[codes // n_words], word_id[codes % n_words]
        code = np.where((prefix >= 0) & (last >= 0), prefix * len(self.words) + last, -1)
        at = np.minimum(np.searchsorted(table, code), len(table) - 1)
        return np.where(table[at] == code, at, -1)

    def batch(self, coded, lo: int, hi: int) -> _Batch:
        """``coded`` (``code``'s output for hi - lo candidates) paired with
        reference sets lo..hi-1, as one ``_Batch``."""
        grams, sizes, lens = coded
        a, b = self.ref_start[lo], self.ref_start[hi]
        refs = [(sent, gid, df[gid]) for (sent, gid), df
                in zip(_span(self.grams, a, b, len(lens)), self.doc_freq)]
        return _Batch([tuple(map(np.concatenate, zip(*pair))) for pair in zip(grams, refs)],
                      sizes, np.concatenate([lens, self.lens[a:b]]), self.n_refs[lo:hi])

    def batches(self):
        """The candidates in ``CHUNK``-sample ``_Batch``es."""
        grams, sizes, lens = self.cands
        for lo in range(0, len(lens), CHUNK):
            hi = min(lo + CHUNK, len(lens))
            yield self.batch((_span(grams, lo, hi, 0), sizes, lens[lo:hi]), lo, hi)


def _encoded(corpus) -> _Encoding:
    """``corpus``'s encoding: ``evaluate_corpus`` hands one in, else it is
    encoded here."""
    if isinstance(corpus, _Encoding):
        return corpus
    return _Encoding(corpus.references, corpus.candidates)


def _analysis(batch: _Batch):
    """Each (order, sentence)'s distinct grams, and the grams that a
    sample's candidate shares with each of its references.

    Returns the segment ``order * sentences + sentence``, the count in the
    segment and the document frequency of every distinct gram, segments
    ascending and each segment's grams in the order they first occur;
    then each reference gram that its sample's candidate also holds,
    paired with that candidate gram, as two index arrays into the first
    three, the candidate's first.  The pairs are stably sorted by the
    candidate's index, so each reference's pairs come in the order its
    candidate's grams first occur."""
    n_sent, n_c = len(batch.lens), len(batch.n_refs)
    offsets = np.cumsum([0] + batch.sizes).tolist()
    seg = np.concatenate([order * n_sent + sent
                          for order, (sent, _, _) in enumerate(batch.grams)])
    gram = np.concatenate([gid + off for (_, gid, _), off in zip(batch.grams, offsets)])
    key = seg * offsets[-1] + gram
    order = np.argsort(key)
    head = np.flatnonzero(np.diff(key[order], prepend=-1))
    counts = np.zeros(len(key), np.int64)
    if len(head):   # at the text position of each gram's first occurrence
        counts[np.minimum.reduceat(order, head)] = np.diff(head, append=len(key))
    first = np.flatnonzero(counts)
    s, g = seg[first], gram[first]
    df = np.concatenate([df for _, _, df in batch.grams])[first]
    # pair on (sample, gram id); a reference's sample is its owner
    sent = s % n_sent
    cand = np.flatnonzero(sent < n_c)
    cand_key = sent[cand] * offsets[-1] + g[cand]
    by_key = np.argsort(cand_key)
    cand, cand_key = cand[by_key], cand_key[by_key]
    ref = np.flatnonzero(sent >= n_c)
    owner = np.repeat(np.arange(n_c), batch.n_refs)
    ref_key = owner[sent[ref] - n_c] * offsets[-1] + g[ref]
    at = np.searchsorted(cand_key, ref_key)
    hit = np.append(cand_key, -1)[at] == ref_key   # the -1 past the end matches no key
    c, r = cand[at[hit]], ref[hit]
    by_cand = np.argsort(c, kind="stable")
    return s, counts[first], df, c[by_cand], r[by_cand]


def _bleu_counts(batch: _Batch):
    """Per order, the clipped matches and the candidate n-grams of one
    batch, then its candidate length and closest reference length."""
    lens, n_refs = batch.lens, batch.n_refs
    n_c = len(n_refs)
    s, tf, _, c, r = _analysis(batch)
    order = s // len(lens)
    # per candidate gram: the largest count in any one reference
    most = np.zeros_like(tf)
    np.maximum.at(most, c, tf[r])
    clipped = np.minimum(tf, most)   # 0 for every reference gram
    c_lens, r_lens = lens[:n_c], lens[n_c:]
    matched = [int(clipped[order == n].sum()) for n in range(MAX_N)]
    total = [int(np.maximum(c_lens - n, 0).sum()) for n in range(MAX_N)]
    # closest reference length per sample, ties to the shorter
    span = int(r_lens.max()) + 1
    owner = np.repeat(np.arange(n_c), n_refs)
    closest = np.minimum.reduceat(np.abs(r_lens - c_lens[owner]) * span + r_lens,
                                  np.cumsum(n_refs) - n_refs)
    return matched, total, int(c_lens.sum()), int((closest % span).sum())


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
    for batch in _encoded(corpus).batches():
        m, t, c, r = _bleu_counts(batch)
        matched = [a + b for a, b in zip(matched, m)]
        total = [a + b for a, b in zip(total, t)]
        cand_len += c
        ref_len += r
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


def _match_masks(tokens: list[str]) -> dict[str, int]:
    """Per distinct token, the bit mask of the positions that hold it."""
    masks: dict[str, int] = {}
    for i, tok in enumerate(tokens):
        masks[tok] = masks.get(tok, 0) | (1 << i)
    return masks


def _lcs_len(masks: dict[str, int], length: int, other: list[str]) -> int:
    """LCS length of a ``length``-token sequence with match ``masks`` and
    ``other``.  Bit-parallel (Hyyrö 2004): the zero bits of ``v`` count the
    LCS, and a carry never moves a high bit down, so masking once at the
    end is enough."""
    v = full = (1 << length) - 1
    for tok in other:
        m = masks.get(tok)
        if m:
            u = v & m
            v = (v + u) | (v - u)
    return length - (v & full).bit_count()


def rouge_l(corpus: TokenizedCorpus) -> float:
    """Mean LCS F-measure; per sample, precision and recall each take their
    max over the references before combining."""
    scores = []
    for cand, refs in zip(corpus.candidates, corpus.references):
        masks = _match_masks(cand)
        prec, rec = [], []
        for ref in refs:
            lcs = _lcs_len(masks, len(cand), ref)
            prec.append(lcs / len(cand) if cand else 0.0)
            rec.append(lcs / len(ref) if ref else 0.0)
        p, r = max(prec), max(rec)
        if p != 0 and r != 0:
            scores.append(((1 + ROUGE_BETA ** 2) * p * r) / (r + ROUGE_BETA ** 2 * p))
        else:
            scores.append(0.0)
    return float(np.mean(scores))


def _weights(tf: np.ndarray, df: np.ndarray, log_n_docs: float):
    """TF-IDF weights and their squares, as Python scalars once per
    distinct (term frequency, document frequency) pair."""
    span = int(df.max(initial=0)) + 1
    pairs, inv = np.unique(tf * span + df, return_inverse=True)
    w, sq = [], []
    for tf_k, df_k in zip(*(a.tolist() for a in np.divmod(pairs, span))):
        x = tf_k * (log_n_docs - math.log(max(1.0, df_k)))
        w.append(x)
        sq.append(x ** 2)
    return np.array(w)[inv], np.array(sq)[inv]


def _bin_sums(bins: np.ndarray, terms: np.ndarray, n: int) -> np.ndarray:
    """The float64 sums of ``terms`` into bins 0..n-1, each bin's terms
    added one at a time from 0.0 in input order (``np.bincount``'s loop)."""
    return np.bincount(bins, terms, n).astype(np.float64, copy=False)


def _cider_batch(batch: _Batch, log_n_docs: float) -> list[float]:
    """CIDEr-D of each of ``batch``'s candidates against its references."""
    lens, n_refs = batch.lens, batch.n_refs
    n_c, n_sent = len(n_refs), len(lens)
    owner = np.repeat(np.arange(n_c), n_refs)
    s, tf, df, c, r = _analysis(batch)
    w, sq = _weights(tf, df, log_n_docs)
    norm = np.sqrt(_bin_sums(s, sq, MAX_N * n_sent)).reshape(MAX_N, n_sent)
    order, sent = np.divmod(s, n_sent)
    # count clipping: the candidate's weight capped by the reference's
    val = _bin_sums(order[r] * len(owner) + sent[r] - n_c, np.minimum(w[c], w[r]) * w[r],
                    MAX_N * len(owner)).reshape(MAX_N, len(owner))
    c_norm, r_norm = norm[:, owner], norm[:, n_c:]
    both = (c_norm != 0) & (r_norm != 0)
    val[both] /= c_norm[both] * r_norm[both]
    gaps, gap_at = np.unique(lens[owner] - lens[n_c:], return_inverse=True)
    penalty = np.array([math.exp(-(float(d) ** 2) / (2 * CIDER_SIGMA ** 2))
                        for d in gaps.tolist()])[gap_at]
    # reference by reference, into one sum per (order, sample)
    acc = _bin_sums((np.arange(MAX_N)[:, None] * n_c + owner).ravel(),
                    (val * penalty).ravel(), MAX_N * n_c)
    acc = np.ascontiguousarray(acc.reshape(MAX_N, n_c).T)
    return [float(np.mean(row)) / k * 10.0 for row, k in zip(acc, n_refs.tolist())]


class CiderD:
    """CIDEr-D with document frequencies counted once over ``ref_sets``.

    ``score`` is one sample's TF-IDF n-gram cosine against each reference,
    with candidate count clipping and a Gaussian length penalty, averaged
    over references and orders, scaled by 10.  The scorer keeps the
    encoding of ``ref_sets`` and codes each caption against it, as a
    corpus codes its candidates, so scoring against one of those sets
    codes only the caption.
    """

    def __init__(self, ref_sets: list[list[list[str]]]):
        if len(ref_sets) == 0:
            raise EmptyInputError("CIDEr needs reference sets for document frequencies")
        self.refs = _Encoding(ref_sets)

    def score(self, cand: list[str], refs: list[list[str]] | int) -> float:
        """``cand``'s CIDEr-D against ``refs``: the index (any integer) of
        one of the scorer's reference sets, or a reference set, coded with
        ``cand``.  An index outside the scorer's sets is a
        ``ContractError``."""
        own = self.refs
        if hasattr(refs, "__index__"):
            at = operator.index(refs)
            if not 0 <= at < len(own.n_refs):
                raise ContractError(f"reference set {at} is not one of the scorer's "
                                    f"{len(own.n_refs)}")
            batch = own.batch(own.code([cand]), at, at + 1)
        elif len(refs) == 0:
            raise EmptyInputError("CIDEr needs at least one reference")
        else:
            batch = _Batch(*own.code([cand] + refs), np.array([len(refs)]))
        return _cider_batch(batch, own.log_n_docs)[0]


def cider(corpus: TokenizedCorpus) -> float:
    """Mean CIDEr-D, with document frequencies from the corpus's references."""
    encoding = _encoded(corpus)
    scores = []
    for batch in encoding.batches():
        scores += _cider_batch(batch, encoding.log_n_docs)
    return float(np.mean(scores))


def evaluate_corpus(corpus: TokenizedCorpus) -> dict[str, float]:
    """The CLI-facing bundle of every implemented metric, with ``bleu`` and
    ``cider`` reading one encoding of ``corpus``."""
    encoding = _Encoding(corpus.references, corpus.candidates)
    bleu1, bleu2, bleu3, bleu4 = bleu(encoding)
    return {"bleu1": bleu1, "bleu2": bleu2, "bleu3": bleu3, "bleu4": bleu4,
            "rougeL": rouge_l(corpus), "cider": cider(encoding)}
