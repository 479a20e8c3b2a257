import itertools

import numpy as np
import pytest

import capgen.search
import oracle_search
from capgen.da import DaConfig, DeliberateDecoder
from capgen.data import BOS_ID, EOS_ID, FeatureSet
from capgen.decoders import DecoderConfig, HierarchicalDecoder
from capgen.errors import ContractError
from capgen.search import beam_search, greedy_decode, write_generations
from capgen.tensor import Tensor
from capgen.testkit import GRADCHECK_VARIANTS, tiny_decoder, tiny_features


class ScriptedDecoder:
    """Test double with a fixed distribution table: step t emits table[t]."""

    def __init__(self, table):
        self.table = np.asarray(table, dtype=np.float64)

    def init_state(self, features):
        return 0

    def step(self, state, token_id, training=False, rng=None):
        return Tensor(self.table[min(state, len(self.table) - 1)]), state + 1


class ContextualDecoder:
    """Distributions that depend on the previously fed token (for replay tests)."""

    def __init__(self, vocab, seed):
        rng = np.random.default_rng(seed)
        self.probs = rng.dirichlet(np.ones(vocab), size=(vocab, 8))

    def init_state(self, features):
        return 0

    def step(self, state, token_id, training=False, rng=None):
        return Tensor(self.probs[token_id][min(state, 7)]), state + 1


def tiny_case(variant):
    """A ``tiny_decoder`` of ``variant`` and matching features; "da_plain"
    is DA without the first-pass head."""
    rng = np.random.default_rng(3)
    if variant == "da_plain":
        dec = DeliberateDecoder(DaConfig(vocab_size=12, hidden_dim=8, embed_dim=8,
                                         attn_dim=7, region_dim=6, global_dim=5))
        dims = {"dim": 8, "motion_dim": 8, "region_dim": 6, "global_dim": 5}
    else:
        dec, dims = tiny_decoder(variant)
    feats = tiny_features(rng, 4, dims["dim"], dims["motion_dim"],
                          dims["region_dim"], dims["global_dim"])
    return dec, feats


def real_decoder(rng, vocab=8, hidden=5):
    cfg = DecoderConfig(vocab_size=vocab, hidden_dim=hidden, embed_dim=hidden,
                        attn_dim=4, feature_dim=hidden, seed=17)
    dec = HierarchicalDecoder(cfg)
    feats = FeatureSet(temporal=rng.standard_normal((3, hidden)))
    return dec, feats


class TestGreedy:
    def test_immediate_eos_gives_empty_caption(self):
        table = [np.zeros(6)]
        table[0][EOS_ID] = 1.0
        gen = greedy_decode(ScriptedDecoder([t / t.sum() for t in table]), None)
        assert gen.tokens == []
        assert gen.logprob == pytest.approx(0.0)

    def test_tie_breaks_to_lowest_id(self):
        row = np.array([0.1, 0.1, 0.1, 0.1, 0.3, 0.3])  # tie between 4 and 5
        stop = np.zeros(6)
        stop[EOS_ID] = 1.0
        gen = greedy_decode(ScriptedDecoder([row / row.sum(), stop]), None)
        assert gen.tokens == [4]

    def test_max_len_caps_generation(self):
        row = np.zeros(6)
        row[4] = 1.0  # never emits EOS
        gen = greedy_decode(ScriptedDecoder([row]), None, max_len=7)
        assert gen.tokens == [4] * 7

    def test_invalid_max_len(self):
        with pytest.raises(ContractError):
            greedy_decode(ScriptedDecoder([np.ones(4) / 4]), None, max_len=0)


def enumerate_best(decoder, length, vocab):
    """Exhaustive argmax over all token sequences of exactly `length`."""
    best_seq, best_score = None, -np.inf
    for seq in itertools.product(range(vocab), repeat=length):
        if any(tok < 4 for tok in seq):  # specials are impossible in the toys
            continue
        state = decoder.init_state(None)
        prev = BOS_ID
        score = 0.0
        for tok in seq:
            p, state = decoder.step(state, prev)
            score += np.log(p.data[tok])
            prev = tok
        if score > best_score or (score == best_score and seq < best_seq):
            best_seq, best_score = seq, score
    return list(best_seq), best_score


class TestBeam:
    def test_full_width_equals_exhaustive_enumeration(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            vocab = 7  # ids 4,5,6 are the three tokens of the toy model
            probs = rng.dirichlet(np.ones(vocab), size=(vocab, 3))
            probs[:, :, :4] = 0.0  # specials are impossible under the model
            probs /= probs.sum(axis=2, keepdims=True)

            class TableDecoder(ContextualDecoder):
                def __init__(self):
                    self.probs = probs

            dec = TableDecoder()
            want, want_score = enumerate_best(dec, 3, vocab)
            got = beam_search(dec, None, k=27, max_len=3)
            assert got.tokens == want
            assert got.logprob == pytest.approx(want_score, abs=1e-9)

    def test_beam_one_equals_greedy(self, rng):
        for seed in range(15):
            dec = ContextualDecoder(vocab=7, seed=seed)
            greedy = greedy_decode(dec, None, max_len=6)
            beam = beam_search(dec, None, k=1, max_len=6)
            assert beam.tokens == greedy.tokens
            assert beam.logprob == pytest.approx(greedy.logprob, abs=1e-12)

    def test_wider_beam_never_scores_worse(self):
        for seed in range(12):
            dec = ContextualDecoder(vocab=7, seed=100 + seed)
            scores = [beam_search(dec, None, k=k, max_len=5).logprob
                      for k in (1, 2, 3, 5, 9)]
            assert all(b >= a - 1e-12 for a, b in zip(scores, scores[1:]))

    def test_beam_at_least_greedy_on_real_decoder(self, rng):
        dec, feats = real_decoder(rng)
        greedy = greedy_decode(dec, feats, max_len=6)
        beam = beam_search(dec, feats, k=5, max_len=6)
        assert beam.logprob >= greedy.logprob - 1e-12

    def test_score_matches_stepwise_replay(self, rng):
        dec, feats = real_decoder(rng)
        gen = beam_search(dec, feats, k=4, max_len=6)
        state = dec.init_state(feats)
        prev = BOS_ID
        total = 0.0
        for tok in gen.tokens:
            p, state = dec.step(state, prev)
            total += np.log(p.data[tok])
            prev = tok
        p, _ = dec.step(state, prev)
        finished_with_eos = gen.logprob == pytest.approx(total + np.log(p.data[EOS_ID]),
                                                         abs=1e-9)
        ran_out = gen.logprob == pytest.approx(total, abs=1e-9)
        assert finished_with_eos or ran_out

    def test_deterministic(self, rng):
        dec, feats = real_decoder(rng)
        a = beam_search(dec, feats, k=3, max_len=5)
        b = beam_search(dec, feats, k=3, max_len=5)
        assert a.tokens == b.tokens and a.logprob == b.logprob

    def test_length_normalized_search_does_not_stop_on_a_rising_score(self):
        # from BOS: EOS 0.6, word 4 0.4; after word 4: word 4 with certainty.
        # The empty caption ranks log(0.6) = -0.511, but [4, 4, 4, 4] ranks
        # log(0.4) / 4 = -0.229 although its raw score falls first.
        probs = np.zeros((5, 8, 5))
        probs[BOS_ID, :, EOS_ID] = 0.6
        probs[BOS_ID, :, 4] = 0.4
        probs[4, :, 4] = 1.0

        class RisingDecoder(ContextualDecoder):
            def __init__(self):
                self.probs = probs

        got = beam_search(RisingDecoder(), None, k=2, max_len=4, length_normalize=True)
        assert got.tokens == [4, 4, 4, 4]
        assert got.logprob == pytest.approx(np.log(0.4), abs=1e-12)
        raw = beam_search(RisingDecoder(), None, k=2, max_len=4)
        assert raw.tokens == [] and raw.logprob == pytest.approx(np.log(0.6), abs=1e-12)

    def test_invalid_width(self):
        with pytest.raises(ContractError):
            beam_search(ScriptedDecoder([np.ones(4) / 4]), None, k=0)

    def test_nothing_expandable_is_contract_error(self):
        # every token has probability 0 at the first step: no hypothesis
        # reaches the pool or the live beam, and greedy has no word to emit
        with pytest.raises(ContractError, match="no token had positive probability"):
            beam_search(ScriptedDecoder([np.zeros(6)]), None, k=3, max_len=4)
        with pytest.raises(ContractError, match="no token had positive probability"):
            greedy_decode(ScriptedDecoder([np.zeros(6)]), None, max_len=3)


class QuantisedDecoder(ContextualDecoder):
    """Distributions from a few integer levels, many of them zero, so that
    equal scores, ties at the k-th place and rows with fewer than k
    positive tokens are common."""

    def __init__(self, vocab, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(1, 4, size=(vocab, 8, vocab)).astype(np.float64)
        counts[rng.random(counts.shape) < 0.45] = 0.0
        counts[..., EOS_ID] += counts.sum(axis=2) == 0  # no row without a token
        self.probs = counts / counts.sum(axis=2, keepdims=True)


class TestMatchesOracle:
    """Captions and log-probs equal the candidate-list search exactly."""

    def test_tie_heavy_toys(self, monkeypatch):
        seen = {"tie_at_cut": 0, "fewer_than_k": 0, "zeros": 0}
        expand = capgen.search._expand

        def counting_expand(live, P, k):
            with np.errstate(divide="ignore"):
                scores = np.array([h.logprob for h in live])[:, None] + np.log(P)
            finite = np.sort(scores[P > 0])[::-1]
            seen["zeros"] += int((P <= 0).any())
            seen["fewer_than_k"] += int(finite.size < k)
            seen["tie_at_cut"] += int(finite.size > k and finite[k - 1] == finite[k])
            return expand(live, P, k)

        monkeypatch.setattr(capgen.search, "_expand", counting_expand)
        for seed in range(150):
            dec = QuantisedDecoder(vocab=5 + seed % 8, seed=seed)
            for k in (1, 2, 3, 5, 8):
                for norm in (False, True):
                    want = oracle_search.beam_search(dec, None, k, 7, norm)
                    got = beam_search(dec, None, k=k, max_len=7, length_normalize=norm)
                    assert (got.tokens, got.logprob) == want, (seed, k, norm)
        assert min(seen.values()) > 0, seen

    @pytest.mark.parametrize("variant", GRADCHECK_VARIANTS + ("da_plain",))
    def test_tiny_decoders(self, variant):
        dec, feats = tiny_case(variant)
        for k in (2, 5):
            for norm in (False, True):
                want = oracle_search.beam_search(dec, feats, k, 6, norm)
                got = beam_search(dec, feats, k=k, max_len=6, length_normalize=norm)
                assert (got.tokens, got.logprob) == want, (k, norm)


class TestTraceRows:
    """With record_trace, the search returns the row of every step along
    the returned caption, equal to the rows of replaying that caption."""

    MAX_LEN = 6

    @pytest.mark.parametrize("variant", GRADCHECK_VARIANTS + ("da_plain",))
    def test_rows_follow_the_returned_caption(self, variant):
        dec, feats = tiny_case(variant)
        finished = set()
        for search in ("greedy", "beam"):
            for eos_bias in (-40.0, 0.0, 2.0):
                _bias_eos(dec, eos_bias)
                if search == "greedy":
                    gen = greedy_decode(dec, feats, self.MAX_LEN, record_trace=True)
                else:
                    gen = beam_search(dec, feats, k=3, max_len=self.MAX_LEN,
                                      record_trace=True)
                # a finished caption spent one more step, on EOS
                done = len(gen.tokens) < self.MAX_LEN
                finished.add(done)
                want, logprob = _replay(dec, feats, gen.tokens, done)
                assert gen.logprob == logprob, (search, eos_bias)
                assert len(gen.trace) == len(gen.tokens) + done
                for got, row in zip(gen.trace, want):
                    assert np.array_equal(got.alpha, row.alpha)
                    assert np.array_equal(got.beta, row.beta)
        assert finished == {True, False}  # both row counts were checked

    def test_no_trace_unless_recorded(self):
        dec, feats = tiny_case("hlstmat_temporal")
        assert greedy_decode(dec, feats, 4).trace is None
        assert beam_search(dec, feats, k=3, max_len=4).trace is None


def _bias_eos(dec, bias):
    """Set the EOS logit bias of every word head of ``dec``."""
    heads = [getattr(d, name) for d in getattr(dec, "streams", (dec,))
             for name in ("out_vocab", "out", "first_head") if getattr(d, name, None)]
    for head in heads:
        head.b.data[EOS_ID] = bias


def _replay(dec, feats, tokens, finished):
    """Step ``dec`` along BOS + tokens; return each step's row and the
    caption's log-prob, with the EOS step when ``finished``."""
    fed = [BOS_ID] + tokens if finished else [BOS_ID] + tokens[:-1]
    targets = tokens + [EOS_ID] if finished else tokens
    state = dec.init_state(feats)
    rows, logprob = [], 0.0
    for tok, nxt in zip(fed, targets):
        p, state = dec.step(state, tok)
        rows.append(state.row)
        logprob += float(np.log(p.data[nxt]))
    return rows, logprob


class TestStatistics:
    def test_finished_pool_and_early_stop(self):
        eos = np.zeros(6)
        eos[EOS_ID] = 1.0
        gen = beam_search(ScriptedDecoder([eos]), None, k=3, max_len=5)
        assert (gen.steps, gen.stopped_early, gen.finished) == (1, True, 1)

    def test_max_len_cap(self):
        row = np.zeros(6)
        row[4] = row[5] = 0.5  # never emits EOS
        gen = beam_search(ScriptedDecoder([row]), None, k=2, max_len=4)
        assert (gen.steps, gen.stopped_early, gen.finished) == (4, False, 0)

    def test_greedy(self):
        row = np.zeros(6)
        row[4] = 1.0
        eos = np.zeros(6)
        eos[EOS_ID] = 1.0
        gen = greedy_decode(ScriptedDecoder([row, row, eos]), None, max_len=5)
        assert (gen.steps, gen.stopped_early, gen.finished) == (3, True, 1)
        capped = greedy_decode(ScriptedDecoder([row]), None, max_len=5)
        assert (capped.steps, capped.stopped_early, capped.finished) == (5, False, 0)


class TestOutput:
    def test_jsonl_round_trip(self, tmp_path):
        import json
        path = tmp_path / "gen.jsonl"
        rows = [{"id": "a", "caption": "a cat", "logprob": -1.5},
                {"id": "b", "caption": "", "logprob": -0.25, "trace_path": "b.csv"}]
        write_generations(path, rows)
        back = [json.loads(l) for l in path.read_text().splitlines()]
        assert back == rows
