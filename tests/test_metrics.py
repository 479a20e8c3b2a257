import copy
import hashlib
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capgen import metrics
from capgen.data import Vocabulary
from capgen.errors import ContractError, EmptyInputError
from capgen.metrics import CiderD, TokenizedCorpus, bleu, cider, evaluate_corpus, rouge_l
from capgen.training import make_cider_reward

from oracle_scorers import my_lcs, oracle_bleu, oracle_cider, oracle_rouge


def corpus_of(cands, refs):
    return TokenizedCorpus([c.split() for c in cands],
                           [[r.split() for r in rs] for rs in refs])


def hand_built_corpus(n=20, seed=2):
    """Mixed-quality corpus: exact matches, partial overlaps, misses."""
    rng = np.random.default_rng(seed)
    words = ["man", "dog", "guitar", "park", "ball", "runs", "plays",
             "the", "a", "with", "in", "red", "big"]
    cands, refs = [], []
    for i in range(n):
        ref1 = [str(w) for w in rng.choice(words, size=rng.integers(3, 8))]
        ref2 = [str(w) for w in rng.choice(words, size=rng.integers(3, 8))]
        style = i % 4
        if style == 0:
            cand = list(ref1)                     # perfect
        elif style == 1:
            cand = ref1[:-1] + [str(rng.choice(words))]  # near miss
        elif style == 2:
            cand = [str(w) for w in rng.choice(words, size=4)]  # random
        else:
            cand = ["zebra", "xylophone"]         # disjoint
        cands.append(cand)
        refs.append([ref1, ref2])
    return cands, refs


class TestBleu:
    def test_perfect_match_is_one(self):
        corpus = corpus_of(["a cat sat down here", "the dog runs fast today"],
                           [["a cat sat down here"], ["the dog runs fast today"]])
        for score in bleu(corpus):
            assert score == pytest.approx(1.0, abs=1e-12)

    def test_clipped_repeat_against_oracle(self):
        corpus = corpus_of(["the the the the"], [["the cat"]])
        got = bleu(corpus)[0]
        want = oracle_bleu([["the"] * 4], [[["the", "cat"]]], n=1)
        # one clipped match over four, with the brevity penalty from c=4, r=2
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(0.25, abs=1e-12)

    def test_no_fourgram_overlap_is_zero(self):
        corpus = corpus_of(["a b c d e"], [["a x c y e"]])
        assert bleu(corpus)[3] == 0.0

    def test_empty_corpus(self):
        with pytest.raises(EmptyInputError):
            TokenizedCorpus([], [])

    def test_brevity_penalty_uses_closest_reference(self):
        # candidate of 3 words; refs of lengths 2 and 5 -> closest is 2 -> no BP
        corpus = corpus_of(["a b c"], [["a b", "a b c d e"]])
        assert bleu(corpus)[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_oracle_on_hand_corpus(self, n):
        cands, refs = hand_built_corpus()
        corpus = TokenizedCorpus(cands, refs)
        assert bleu(corpus)[n - 1] == pytest.approx(
            oracle_bleu(cands, refs, n), abs=1e-6)


class TestRougeL:
    def test_identical_is_one(self):
        corpus = corpus_of(["the cat sat"], [["the cat sat"]])
        assert rouge_l(corpus) == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_subsequence(self):
        # candidate "a c" vs reference "a b c": LCS 2, P = 1, R = 2/3
        corpus = corpus_of(["a c"], [["a b c"]])
        beta = 1.2
        p, r = 1.0, 2.0 / 3.0
        want = (1 + beta ** 2) * p * r / (r + beta ** 2 * p)
        assert rouge_l(corpus) == pytest.approx(want, abs=1e-12)

    def test_disjoint_is_zero(self):
        corpus = corpus_of(["x y"], [["a b c"]])
        assert rouge_l(corpus) == 0.0

    def test_matches_oracle_on_hand_corpus(self):
        cands, refs = hand_built_corpus()
        corpus = TokenizedCorpus(cands, refs)
        assert rouge_l(corpus) == pytest.approx(oracle_rouge(cands, refs), abs=1e-6)


class TestCider:
    def test_single_sample_matches_oracle(self):
        cands = [["a", "cat", "sat"]]
        refs = [[["a", "cat", "sat"]]]
        corpus = TokenizedCorpus(cands, refs)
        assert cider(corpus) == pytest.approx(oracle_cider(cands, refs), abs=1e-9)

    def test_disjoint_ngrams_zero(self):
        cands, refs = hand_built_corpus(8)
        cands[0] = ["qqq", "zzz"]
        per_sample = CiderD(refs).score(cands[0], refs[0])
        assert per_sample == pytest.approx(0.0, abs=1e-12)

    def test_three_sample_toy_matches_oracle(self):
        cands = [["a", "dog", "runs"], ["a", "dog", "runs"], ["the", "cat"]]
        refs = [[["a", "dog", "runs"], ["the", "dog", "runs", "fast"]],
                [["a", "cat", "runs"]],
                [["the", "cat"], ["a", "cat"]]]
        corpus = TokenizedCorpus(cands, refs)
        assert cider(corpus) == pytest.approx(oracle_cider(cands, refs), abs=1e-6)

    def test_matches_oracle_on_hand_corpus(self):
        cands, refs = hand_built_corpus()
        corpus = TokenizedCorpus(cands, refs)
        assert cider(corpus) == pytest.approx(oracle_cider(cands, refs), abs=1e-6)

    def test_exact_copies_score_corpus_maximum(self):
        _, refs = hand_built_corpus(8)
        exact = [rs[0] for rs in refs]
        score_exact = cider(TokenizedCorpus(exact, refs))
        cands, _ = hand_built_corpus(8, seed=99)
        score_other = cider(TokenizedCorpus([c[:4] for c in cands], refs))
        assert score_exact >= score_other


class TestCiderScoreIndex:
    def scorer(self):
        return CiderD([[["a", "dog"], ["the", "dog"]], [["a", "cat"]], [["a", "bird"]]])

    def test_any_integer_names_a_set(self):
        scorer = self.scorer()
        want = scorer.score(["a", "dog"], 0)
        assert scorer.score(["a", "dog"], np.int64(0)) == want
        assert scorer.score(["a", "dog"], np.uint8(0)) == want
        assert scorer.score(["a", "cat"], np.int32(1)) == scorer.score(["a", "cat"], 1)

    @pytest.mark.parametrize("index", [-1, 3, np.int64(3)])
    def test_index_outside_the_sets_is_a_contract_error(self, index):
        with pytest.raises(ContractError, match="reference set"):
            self.scorer().score(["a", "dog"], index)


class TestLcs:
    @given(st.lists(st.sampled_from("abcd"), max_size=90),
           st.lists(st.sampled_from("abcde"), max_size=90))
    @settings(max_examples=200, deadline=None)
    def test_bit_parallel_matches_oracle(self, a, b):
        # up to 90 tokens, so the masks pass 64 bits
        assert metrics._lcs_len(metrics._match_masks(a), len(a), b) == my_lcs(a, b)


class TestLargeVocabulary:
    def test_more_words_than_a_packed_4_gram_code_holds(self):
        # past 55,108 distinct words, (words ** 4) overflows int64
        rng = np.random.default_rng(5)
        refs = [[[f"v{w}" for w in rng.integers(0, 10 ** 7, size=14)]] for _ in range(4200)]
        cands = []
        for (ref,) in refs:
            cand = list(ref)
            cand[int(rng.integers(0, 14))] = f"v{int(rng.integers(0, 10 ** 7))}"
            cands.append(cand[:int(rng.integers(8, 15))])
        assert len({w for (ref,) in refs for w in ref}) > 55_108
        corpus = TokenizedCorpus(cands, refs)
        assert bleu(corpus)[3] == pytest.approx(oracle_bleu(cands, refs, 4), rel=1e-12)
        assert cider(corpus) == pytest.approx(oracle_cider(cands, refs), rel=1e-9)


class TestInvariances:
    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_token_relabeling_invariance(self, seed):
        cands, refs = hand_built_corpus(6, seed=seed % 100)
        mapping = {}

        def relabel(tok):
            return mapping.setdefault(tok, f"t{len(mapping)}")

        cands2 = [[relabel(t) for t in c] for c in cands]
        refs2 = [[[relabel(t) for t in r] for r in rs] for rs in refs]
        a = evaluate_corpus(TokenizedCorpus(cands, refs))
        b = evaluate_corpus(TokenizedCorpus(cands2, refs2))
        for key in a:
            assert a[key] == pytest.approx(b[key], abs=1e-12)

    def test_bounds(self):
        cands, refs = hand_built_corpus()
        scores = evaluate_corpus(TokenizedCorpus(cands, refs))
        for key in ("bleu1", "bleu2", "bleu3", "bleu4", "rougeL"):
            assert 0.0 <= scores[key] <= 1.0
        assert scores["cider"] >= 0.0

    def test_adding_exact_copy_reference_never_hurts(self):
        cands, refs = hand_built_corpus(8)
        base = evaluate_corpus(TokenizedCorpus(cands, refs))
        boosted_refs = [rs + [list(c)] for rs, c in zip(refs, cands)]
        boosted = evaluate_corpus(TokenizedCorpus(cands, boosted_refs))
        for key in ("bleu1", "bleu2", "bleu3", "bleu4", "rougeL"):
            assert boosted[key] >= base[key] - 1e-12

    def test_sample_without_references_rejected(self):
        with pytest.raises(EmptyInputError):
            TokenizedCorpus([["a"]], [[]])

    def test_string_candidate_rejected(self):
        with pytest.raises(ContractError, match="sample 1's candidate is a string"):
            TokenizedCorpus([["a", "man"], "a man runs"], [[["a", "man"]], [["a", "man"]]])

    def test_string_reference_rejected(self):
        with pytest.raises(ContractError, match="sample 0's reference is a string"):
            TokenizedCorpus([["a", "man", "runs"]], [[["a", "man"], "a man runs"]])


class TestTokenization:
    def test_from_strings_default_mode(self):
        corpus = TokenizedCorpus.from_strings(
            ["The CAT, sat!"], [["the cat sat"]])
        assert corpus.candidates[0] == ["the", "cat", "sat"]
        assert bleu(corpus)[0] == pytest.approx(1.0)

    def test_whitespace_mode_keeps_punctuation(self):
        corpus = TokenizedCorpus.from_strings(
            ["the cat,"], [["the cat,"]], mode="whitespace")
        assert corpus.candidates[0] == ["the", "cat,"]


# Repeated n-grams, an empty candidate and one-word references.
EDGE_CANDS = ["the the the the dog dog", "", "a", "a man plays a guitar a man plays", "dog dog"]
EDGE_REFS = [["the dog", "the the dog runs", "dog"], ["a man", "x"], ["a", "b"],
             ["a man plays a guitar", "a man is playing", "man"], ["dog"]]

# float.hex of every value, as scored by the earlier implementation that
# recounted n-grams per BLEU order and document frequencies per CIDEr-D call.
PINNED = {
    "hand0": {"bleu1": "0x1.421d5207798f4p-1", "bleu2": "0x1.2c07bf4e7e249p-1",
              "bleu3": "0x1.2da22994e8da1p-1", "bleu4": "0x1.30c61b333c909p-1",
              "rougeL": "0x1.13da795e4a897p-1", "cider": "0x1.434308b40150ep+1"},
    "hand1": {"bleu1": "0x1.2357a9efd0980p-1", "bleu2": "0x1.0d6e4485d8a85p-1",
              "bleu3": "0x1.0b67cdcb96474p-1", "bleu4": "0x1.09ec463a33939p-1",
              "rougeL": "0x1.0dce53f463a08p-1", "cider": "0x1.371583110e2aap+1"},
    "hand2": {"bleu1": "0x1.3bc301b4a4198p-1", "bleu2": "0x1.20dc19e8cd383p-1",
              "bleu3": "0x1.1bdc89328d35cp-1", "bleu4": "0x1.237777a348eb2p-1",
              "rougeL": "0x1.fe7ab22426e9ep-2", "cider": "0x1.2230953f4077cp+1"},
    "edge": {"bleu1": "0x1.2d2d2d2d2d2d3p-1", "bleu2": "0x1.0ac7145747b3fp-1",
             "bleu3": "0x1.e88c02ec7e03cp-2", "bleu4": "0x1.9fa951cf671edp-2",
             "rougeL": "0x1.49dac66867c76p-1", "cider": "0x1.2b56fcfb12034p+0"},
}
PINNED_REWARDS = ["0x1.4a018042ef3e6p+2", "0x1.00753b7b7831cp+1", "0x1.cc4e89ac26224p-1",
                  "0x0.0p+0", "0x1.6dda3c58ca350p+2", "0x1.23b9c9c452fb4p+2",
                  "0x1.3bac39f2ba61ep-2", "0x0.0p+0", "0x0.0p+0"]


def random_corpus(seed):
    """A seeded corpus over an alphabet of 1-6 words: repeated tokens, empty
    candidates and references, and on every seventh seed sentences of up
    to 150 tokens."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(1 + seed % 6)]
    longest = 150 if seed % 7 == 6 else 12

    def sentence():
        return [str(w) for w in rng.choice(words, size=int(rng.integers(0, longest + 1)))]

    n = int(rng.integers(1, 7))
    cands = [sentence() for _ in range(n)]
    refs = [[sentence() for _ in range(int(rng.integers(1, 5)))] for _ in range(n)]
    return cands, refs, sentence


def random_corpus_values(seed):
    """Every evaluate_corpus value of ``random_corpus(seed)``, then rewards of
    its candidates, of a caption with words absent from the reward's
    corpus, and against references absent from it."""
    cands, refs, sentence = random_corpus(seed)
    values = list(evaluate_corpus(TokenizedCorpus(cands, refs)).values())
    ref_strs = [[" ".join(r) for r in rs] for rs in refs]
    words = sorted({w for rs in refs for r in rs for w in r} | {w for c in cands for w in c})
    vocab = Vocabulary(words + ["unseen"])
    reward = make_cider_reward(vocab, ref_strs)
    for cand, rs in zip(cands, ref_strs):
        values.append(reward(vocab.encode(cand), rs))
    stranger = vocab.encode(["unseen"] + cands[0] + ["unseen"]) + [3]
    values.append(reward(stranger, ref_strs[0]))
    values.append(reward(vocab.encode(cands[-1]), ["unseen " + " ".join(sentence()), ""]))
    return values


# SHA-256 of the float.hex lines of random_corpus_values(0..199), as scored
# by the earlier implementation that counted n-grams in tuple-keyed dicts.
RANDOM_CORPORA = 200
RANDOM_DIGEST = "958f78e14f3a882549b51be5bd7d68334600be10db2a469d9bad3f53c13f1e99"


def multi_chunk_corpus():
    """A seeded corpus of 2 * CHUNK + 5 samples, so BLEU and CIDEr-D score it
    in three chunks.  Each sample has 1-20 references of 1-14 Zipf-drawn
    words; its candidate is one of them with about 30% of the words
    redrawn, some as words no reference holds.  Sample 5's candidate is
    empty."""
    rng = np.random.default_rng(22)
    words = np.array([f"w{i}" for i in range(60)])
    freq = 1.0 / np.arange(1, 61)
    freq /= freq.sum()

    def sentence():
        return rng.choice(words, size=int(rng.integers(1, 15)), p=freq).tolist()

    refs = [[sentence() for _ in range(int(rng.integers(1, 21)))]
            for _ in range(2 * metrics.CHUNK + 5)]
    cands = []
    for rs in refs:
        cand = list(rs[int(rng.integers(len(rs)))])
        for j in np.flatnonzero(rng.random(len(cand)) < 0.3).tolist():
            cand[j] = (f"new{int(rng.integers(4))}" if rng.random() < 0.3
                       else str(rng.choice(words, p=freq)))
        cands.append(cand)
    cands[5] = []
    return cands, refs


# float.hex of evaluate_corpus(multi_chunk_corpus()), as scored by the
# earlier implementation that encoded each chunk, and CIDEr-D's references
# once more, on every call
PINNED_MULTI_CHUNK = {
    "bleu1": "0x1.a1111bf67e0c3p-1", "bleu2": "0x1.509c0c48c265cp-1",
    "bleu3": "0x1.08cde3be1d8ddp-1", "bleu4": "0x1.9e65b7c4438e9p-2",
    "rougeL": "0x1.7e7978991a1afp-1", "cider": "0x1.0b8930723e93cp-1"}


class TestPinnedValues:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_evaluate_corpus_bit_identical(self, name):
        if name == "edge":
            corpus = corpus_of(EDGE_CANDS, EDGE_REFS)
        else:
            corpus = TokenizedCorpus(*hand_built_corpus(seed=int(name[-1])))
        got = evaluate_corpus(corpus)
        assert list(got) == ["bleu1", "bleu2", "bleu3", "bleu4", "rougeL", "cider"]
        assert {k: float.hex(v) for k, v in got.items()} == PINNED[name]

    def test_multi_chunk_corpus_bit_identical(self):
        cands, refs = multi_chunk_corpus()
        assert len({w for c in cands for w in c} - {w for rs in refs for r in rs for w in r})
        assert min(len(s) for s in cands + [r for rs in refs for r in rs]) < 4
        corpus = TokenizedCorpus(cands, refs)
        got = evaluate_corpus(corpus)
        assert {k: float.hex(v) for k, v in got.items()} == PINNED_MULTI_CHUNK
        assert list(got.values()) == [*bleu(corpus), rouge_l(corpus), cider(corpus)]

    def test_no_encoding_outlives_its_call(self):
        """Corpus B shares corpus A's lists but one candidate.  Scoring A, B,
        then A again, and then A with that candidate swapped in place and
        back, gives what fresh copies of the same content score."""
        cands, refs = multi_chunk_corpus()
        changed = ["w1", "new1", "w2"]
        a = TokenizedCorpus(cands, refs)
        b = TokenizedCorpus(cands[:40] + [changed] + cands[41:], refs)

        def scores(corpus):
            return evaluate_corpus(corpus), bleu(corpus), cider(corpus)

        assert scores(a) != scores(b)
        for corpus in (a, b, a):
            assert scores(corpus) == scores(copy.deepcopy(corpus))
        for cand in (changed, cands[40]):
            a.candidates[40] = cand
            assert scores(a) == scores(copy.deepcopy(a))

    def test_cider_reward_bit_identical(self):
        cands, refs = hand_built_corpus(8)
        ref_strs = [[" ".join(r) for r in rs] for rs in refs]
        vocab = Vocabulary(["man", "dog", "guitar", "park", "ball", "runs", "plays",
                            "the", "a", "with", "in", "red", "big"])
        reward = make_cider_reward(vocab, ref_strs)
        got = [reward(vocab.encode(cands[i]), ref_strs[i]) for i in range(7)]
        got += [reward([], ref_strs[0]), reward([3, 3], ref_strs[1])]
        assert [float.hex(x) for x in got] == PINNED_REWARDS

    def test_weight_squares_come_from_pow(self):
        # the weight of "a a a" here is 3 * (log 9 - log 2), whose libm
        # pow(w, 2) and w * w differ in the last bit
        scorer = CiderD([[["a"]], [["a"]]] + [[["z"]]] * 7)
        got = scorer.score(["a", "a", "a", "b", "b"], [["a", "a", "a", "c"]])
        assert float.hex(got) == "0x1.1949a31611039p+2"

    def test_random_corpora_digest(self):
        digest = hashlib.sha256()
        for seed in range(RANDOM_CORPORA):
            for value in random_corpus_values(seed):
                digest.update(float.hex(value).encode() + b"\n")
        assert digest.hexdigest() == RANDOM_DIGEST

    def test_reward_needs_a_reference_corpus(self):
        with pytest.raises(EmptyInputError):
            make_cider_reward(Vocabulary(["a"]), [])


def loop_sums(bins, terms, n: int) -> list[float]:
    """Per bin, its terms added left to right from 0.0 by Python floats."""
    out = [0.0] * n
    for b, t in zip(bins, terms):
        out[b] += t
    return out


class TestBinSums:
    def test_each_bin_adds_its_terms_in_input_order(self):
        # bin 0 reads 1e16, 1.0, -1e16 (0.0 left to right, 1.0 exactly);
        # bin 2 the same terms in an order that keeps the 1.0
        bins = np.array([0, 2, 1, 0, 2, 0, 2, 1])
        terms = np.array([1e16, -1e16, 3.0, 1.0, 1e16, -1e16, 1.0, 0.5])
        got = metrics._bin_sums(bins, terms, 4)
        assert got.dtype == np.float64
        assert [float.hex(x) for x in got.tolist()] == [
            float.hex(x) for x in loop_sums(bins.tolist(), terms.tolist(), 4)]
        assert got.tolist() == [0.0, 3.5, 1.0, 0.0]

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_a_left_to_right_loop_on_interleaved_bins(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        bins = rng.integers(0, n, int(rng.integers(1, 200)))
        terms = rng.standard_normal(len(bins)) * 10.0 ** rng.integers(-8, 17, len(bins))
        got = metrics._bin_sums(bins, terms, n)
        assert [float.hex(x) for x in got.tolist()] == [
            float.hex(x) for x in loop_sums(bins.tolist(), terms.tolist(), n)]

    def test_no_terms_give_float_zeros(self):
        got = metrics._bin_sums(np.array([], np.int64), np.array([]), 3)
        assert got.dtype == np.float64 and got.tolist() == [0.0, 0.0, 0.0]


def paths_agree(cands, refs) -> bool:
    """Whether ``cider`` of the corpus is bit for bit the mean of
    ``CiderD.score`` of each candidate against its own reference set."""
    scorer = CiderD(refs)
    by_reward = float(np.mean([scorer.score(c, i) for i, c in enumerate(cands)]))
    return float.hex(cider(TokenizedCorpus(cands, refs))) == float.hex(by_reward)


def test_corpus_and_reward_paths_agree_across_chunks():
    assert paths_agree(*multi_chunk_corpus())


def test_corpus_and_reward_paths_agree_on_random_corpora():
    assert [seed for seed in range(RANDOM_CORPORA)
            if not paths_agree(*random_corpus(seed)[:2])] == []


def test_evaluate_corpus_reaches_metrics_through_module_globals(monkeypatch):
    calls = []
    for name in ("bleu", "rouge_l", "cider"):
        def spy(corpus, _name=name, _real=getattr(metrics, name)):
            calls.append(_name)
            return _real(corpus)
        monkeypatch.setattr(metrics, name, spy)
    metrics.evaluate_corpus(TokenizedCorpus(*hand_built_corpus(4)))
    assert calls == ["bleu", "rouge_l", "cider"]


class TestOneAnalysisPerChunk:
    """Each scored chunk is analysed once, whichever metrics read it, and
    one chunk's analysis is alive at a time."""

    @pytest.fixture
    def analyses(self, monkeypatch):
        """Per ``metrics._analysis`` call, weak references to the arrays it
        returned; each call first checks that every earlier one is dead."""
        calls, real = [], metrics._analysis

        def spy(batch):
            assert [ref for refs in calls for ref in refs if ref() is not None] == []
            out = real(batch)
            calls.append([weakref.ref(a) for a in out])
            return out

        monkeypatch.setattr(metrics, "_analysis", spy)
        return calls

    @pytest.mark.parametrize("score", [evaluate_corpus, bleu, cider],
                             ids=["evaluate_corpus", "bleu", "cider"])
    def test_one_analysis_per_chunk(self, analyses, score):
        corpus = TokenizedCorpus(*multi_chunk_corpus())
        assert len(corpus) == 69
        score(corpus)
        assert len(analyses) == 3
        assert [ref for refs in analyses for ref in refs if ref() is not None] == []

    def test_alone_each_metric_computes_only_its_own(self, monkeypatch):
        calls = []
        for name in ("_bleu_counts", "_cider_batch"):
            def spy(*args, _name=name, _real=getattr(metrics, name)):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(metrics, name, spy)
        corpus = TokenizedCorpus(*multi_chunk_corpus())
        bleu(corpus)
        assert calls == ["_bleu_counts"] * 3
        calls.clear()
        cider(corpus)
        assert calls == ["_cider_batch"] * 3
        calls.clear()
        evaluate_corpus(corpus)
        assert calls == ["_bleu_counts", "_cider_batch"] * 3
