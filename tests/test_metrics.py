import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capgen.errors import ContractError, EmptyInputError
from capgen.metrics import TokenizedCorpus, bleu, cider, evaluate_corpus, rouge_l

from oracle_scorers import oracle_bleu, oracle_cider, oracle_rouge


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
        for n in range(1, 5):
            assert bleu(corpus, n) == pytest.approx(1.0, abs=1e-12)

    def test_clipped_repeat_against_oracle(self):
        corpus = corpus_of(["the the the the"], [["the cat"]])
        got = bleu(corpus, 1)
        want = oracle_bleu([["the"] * 4], [[["the", "cat"]]], n=1)
        # one clipped match over four, with the brevity penalty from c=4, r=2
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(0.25, abs=1e-12)

    def test_no_fourgram_overlap_is_zero(self):
        corpus = corpus_of(["a b c d e"], [["a x c y e"]])
        assert bleu(corpus, 4) == 0.0

    def test_invalid_order(self):
        corpus = corpus_of(["a"], [["a"]])
        with pytest.raises(ContractError):
            bleu(corpus, 5)

    def test_empty_corpus(self):
        with pytest.raises(EmptyInputError):
            TokenizedCorpus([], [])

    def test_brevity_penalty_uses_closest_reference(self):
        # candidate of 3 words; refs of lengths 2 and 5 -> closest is 2 -> no BP
        corpus = corpus_of(["a b c"], [["a b", "a b c d e"]])
        assert bleu(corpus, 1) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_oracle_on_hand_corpus(self, n):
        cands, refs = hand_built_corpus()
        corpus = TokenizedCorpus(cands, refs)
        assert bleu(corpus, n) == pytest.approx(
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
        corpus = TokenizedCorpus(cands, refs)
        per_sample = cider(TokenizedCorpus([cands[0]], [refs[0]],
                                           df_refs=refs))
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


class TestTokenization:
    def test_from_strings_default_mode(self):
        corpus = TokenizedCorpus.from_strings(
            ["The CAT, sat!"], [["the cat sat"]])
        assert corpus.candidates[0] == ["the", "cat", "sat"]
        assert bleu(corpus, 1) == pytest.approx(1.0)

    def test_whitespace_mode_keeps_punctuation(self):
        corpus = TokenizedCorpus.from_strings(
            ["the cat,"], [["the cat,"]], mode="whitespace")
        assert corpus.candidates[0] == ["the", "cat,"]
