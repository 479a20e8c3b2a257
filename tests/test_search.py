import dataclasses
import itertools

import numpy as np
import pytest

import capgen.search
import oracle_search
from capgen.data import BOS_ID, EOS_ID, FeatureSet
from capgen.decoders import VARIANTS, DecoderConfig, HierarchicalDecoder
from capgen.errors import ContractError
from capgen.search import beam_search, greedy_decode, write_generations
from capgen.tensor import Tensor
from capgen.testkit import tiny_decoder, tiny_features


class Steps:
    """Rows state of the test doubles: each row's step count."""

    def __init__(self, counts):
        self.counts = np.asarray(counts)

    def take(self, idx):
        return Steps(self.counts[idx])


class ScriptedDecoder:
    """Test double with a fixed distribution table: step t emits table[t]."""

    def __init__(self, table):
        self.table = np.asarray(table, dtype=np.float64)

    def init_state(self, features):
        return Steps([0])

    def step(self, state, token_ids, training=False, rng=None):
        return (Tensor(self.table[np.minimum(state.counts, len(self.table) - 1)]),
                Steps(state.counts + 1))


class ContextualDecoder:
    """Distributions that depend on the previously fed token (for replay tests)."""

    def __init__(self, vocab, seed):
        rng = np.random.default_rng(seed)
        self.probs = rng.dirichlet(np.ones(vocab), size=(vocab, 8))

    def init_state(self, features):
        return Steps([0])

    def step(self, state, token_ids, training=False, rng=None):
        return (Tensor(self.probs[np.asarray(token_ids), np.minimum(state.counts, 7)]),
                Steps(state.counts + 1))


def tiny_case(variant):
    """A ``tiny_decoder`` of ``variant`` and matching features."""
    rng = np.random.default_rng(3)
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
        state = decoder.init_state([None])
        prev = BOS_ID
        score = 0.0
        for tok in seq:
            p, state = decoder.step(state, [prev])
            score += np.log(p.data[0, tok])
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
        state = dec.init_state([feats])
        prev = BOS_ID
        total = 0.0
        for tok in gen.tokens:
            p, state = dec.step(state, [prev])
            total += np.log(p.data[0, tok])
            prev = tok
        p, _ = dec.step(state, [prev])
        finished_with_eos = gen.logprob == pytest.approx(total + np.log(p.data[0, EOS_ID]),
                                                         abs=1e-9)
        ran_out = gen.logprob == pytest.approx(total, abs=1e-9)
        assert finished_with_eos or ran_out

    def test_deterministic(self, rng):
        dec, feats = real_decoder(rng)
        a = beam_search(dec, feats, k=3, max_len=5)
        b = beam_search(dec, feats, k=3, max_len=5)
        assert a.tokens == b.tokens and a.logprob == b.logprob

    def test_stops_once_no_live_score_beats_the_pool(self):
        # from BOS: EOS 0.6, word 4 0.4; after word 4: word 4 with certainty.
        # The empty caption scores log(0.6) = -0.511 and [4] scores
        # log(0.4) = -0.916; a raw score never rises, so step 1 ends it.
        probs = np.zeros((5, 8, 5))
        probs[BOS_ID, :, EOS_ID] = 0.6
        probs[BOS_ID, :, 4] = 0.4
        probs[4, :, 4] = 1.0

        class FixedDecoder(ContextualDecoder):
            def __init__(self):
                self.probs = probs

        raw = beam_search(FixedDecoder(), None, k=2, max_len=4)
        assert raw.tokens == [] and raw.logprob == pytest.approx(np.log(0.6), abs=1e-12)
        assert raw.steps == 1 and raw.stopped_early

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
                want = oracle_search.beam_search(dec, None, k, 7)
                got = beam_search(dec, None, k=k, max_len=7)
                assert (got.tokens, got.logprob) == want, (seed, k)
        assert min(seen.values()) > 0, seen

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_tiny_decoders(self, variant):
        dec, feats = tiny_case(variant)
        for k in (2, 5):
            want = oracle_search.beam_search(dec, feats, k, 6)
            got = beam_search(dec, feats, k=k, max_len=6)
            assert (got.tokens, got.logprob) == want, k


class TestTraceRows:
    """With record_trace, the search returns the row of every step along
    the returned caption, equal to the rows of replaying that caption one
    row at a time: bit for bit for greedy decoding, which steps one row,
    and within rounding for beam search, which steps its hypotheses as
    the rows of one state."""

    MAX_LEN = 6

    def check(self, variant, search):
        dec, feats = tiny_case(variant)
        finished = set()
        for eos_bias in (-40.0, 0.0, 2.0):
            _bias_eos(dec, eos_bias)
            if search == "greedy":
                gen = greedy_decode(dec, feats, self.MAX_LEN, record_trace=True)
            else:
                gen = beam_search(dec, feats, k=3, max_len=self.MAX_LEN, record_trace=True)
            # a finished caption spent one more step, on EOS
            done = len(gen.tokens) < self.MAX_LEN
            finished.add(done)
            want, logprob = _replay(dec, feats, gen.tokens, done)
            assert len(gen.trace) == len(gen.tokens) + done
            if search == "greedy":
                assert gen.logprob == logprob, eos_bias
                for got, row in zip(gen.trace, want):
                    assert np.array_equal(got.alpha, row.alpha)
                    assert np.array_equal(got.beta, row.beta)
            else:
                assert gen.logprob == pytest.approx(logprob, rel=0, abs=1e-12), eos_bias
                for got, row in zip(gen.trace, want):
                    np.testing.assert_allclose(got.alpha, row.alpha, rtol=0, atol=1e-12)
                    np.testing.assert_allclose(got.beta, row.beta, rtol=0, atol=1e-12)
        assert finished == {True, False}  # both row counts were checked

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_rows_follow_the_returned_caption(self, variant):
        self.check(variant, "greedy")

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_beam_rows_follow_the_returned_caption(self, variant):
        self.check(variant, "beam")

    def test_no_trace_unless_recorded(self):
        dec, feats = tiny_case("hlstmat_temporal")
        assert greedy_decode(dec, feats, 4).trace is None
        assert beam_search(dec, feats, k=3, max_len=4).trace is None


def state_arrays(state):
    """The per-row arrays of a decoder state: every tensor field, and a
    two-stream state's two streams."""
    if hasattr(state, "s1"):
        return state_arrays(state.s1) + state_arrays(state.s2)
    values = [getattr(state, f.name) for f in dataclasses.fields(state)]
    return [v.data for v in values if isinstance(v, Tensor)]


def state_feats(state):
    """The entries of a decoder state's ``feats``, a two-stream state's
    two streams' alike."""
    if hasattr(state, "s1"):
        return state_feats(state.s1) + state_feats(state.s2)
    return state.feats


def many_clips(variant, frames=(3, 7, 5, 4, 6)):
    """Feature sets for ``tiny_case(variant)``'s decoder, one per entry of
    ``frames``, with 2 to 4 motion segments."""
    rng = np.random.default_rng(8)
    _, dims = tiny_decoder(variant)
    return [tiny_features(rng, n, dims["dim"], dims["motion_dim"], dims["region_dim"],
                          dims["global_dim"], segments=2 + i % 3)
            for i, n in enumerate(frames)]


class TestRowsStep:
    """One ``step`` over n rows against n one-row steps, equal within
    rounding; a state over many clips against decoding each clip alone;
    and one ``step`` call per beam search step."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_rows_agree_with_one_row_steps(self, variant):
        dec, feats = tiny_case(variant)
        _bias_eos(dec, 0.0)
        _, state = dec.step(dec.init_state([feats]), [BOS_ID])
        _, state = dec.step(state.take([0, 0, 0]), [4, 5, 6])
        state = state.take([2, 0, 1])            # three distinct rows
        tokens = [7, 4, 9]
        p, stepped = dec.step(state, tokens)
        assert p.shape == (3, 12)
        def close(got, want):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

        for i, tok in enumerate(tokens):
            p_i, alone = dec.step(state.take([i]), [tok])
            close(p.data[i], p_i.data[0])
            close(stepped.row.pick(i).alpha, alone.row.pick(0).alpha)
            close(stepped.row.pick(i).beta, alone.row.pick(0).beta)
            for rows, row in zip(state_arrays(stepped), state_arrays(alone), strict=True):
                close(rows[i], row[0])

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_state_over_many_clips(self, variant):
        """A state over 5 clips of 3 to 7 frames, padded and masked: each
        row decodes its own clip, and ``take`` carries each row's features."""
        dec, _ = tiny_case(variant)
        _bias_eos(dec, 0.0)
        clips = many_clips(variant)
        state = dec.init_state(clips)
        assert all(f is not None for f in state_feats(state))   # the masks too
        alone = [greedy_decode(dec, clip, max_len=8) for clip in clips]
        many = greedy_decode(dec, clips, max_len=8)
        tokens = [gen.tokens for gen in many]
        assert len({tuple(t) for t in tokens}) > 1   # the clips give different captions
        for i, gen in enumerate(alone):
            assert tokens[i] == gen.tokens, i
            assert abs(many[i].logprob - gen.logprob) <= 1e-13, i

        fed = [t[0] if t else EOS_ID for t in tokens]
        _, state = dec.step(state, [BOS_ID] * len(clips))
        p, stepped = dec.step(state, fed)
        reverse = [4, 3, 2, 1, 0]
        taken = state.take(reverse)
        p_rev, stepped_rev = dec.step(taken, [fed[i] for i in reverse])
        np.testing.assert_allclose(p_rev.data, p.data[reverse], rtol=0, atol=1e-13)
        for rows, rev in zip(state_arrays(stepped), state_arrays(stepped_rev), strict=True):
            np.testing.assert_allclose(rev, rows[reverse], rtol=0, atol=1e-13)
        for idx in (reverse, [1, 1, 3]):
            for f in state_feats(state.take(idx)):
                assert len(f if isinstance(f, np.ndarray) else f.data) == len(idx)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_beam_steps_the_decoder_once_per_search_step(self, variant, monkeypatch):
        dec, feats = tiny_case(variant)
        _bias_eos(dec, -40.0)
        rows = []
        step = dec.step

        def counting(state, token_ids, *args, **kwargs):
            rows.append(len(token_ids))
            return step(state, token_ids, *args, **kwargs)

        monkeypatch.setattr(dec, "step", counting)
        gen = beam_search(dec, feats, k=5, max_len=6)
        assert len(rows) == gen.steps == 6
        assert rows[0] == 1 and rows[1:] == [5] * 5


def _bias_eos(dec, bias):
    """Set the EOS logit bias of every word head of ``dec``."""
    heads = [getattr(d, name) for d in getattr(dec, "streams", (dec,))
             for name in ("out_vocab", "out") if getattr(d, name, None)]
    for head in heads:
        head.b.data[EOS_ID] = bias


def _replay(dec, feats, tokens, finished):
    """Step ``dec`` along BOS + tokens; return each step's row and the
    caption's log-prob, with the EOS step when ``finished``."""
    fed = [BOS_ID] + tokens if finished else [BOS_ID] + tokens[:-1]
    targets = tokens + [EOS_ID] if finished else tokens
    state = dec.init_state([feats])
    rows, logprob = [], 0.0
    for tok, nxt in zip(fed, targets):
        p, state = dec.step(state, [tok])
        rows.append(state.row.pick(0))
        logprob += float(np.log(p.data[0, nxt]))
    return rows, logprob


# (decoder seed, EOS bias) per variant at which the rows of
# ``many_clips(variant)`` emit EOS at different steps and some never do
MIXED_ENDINGS = {"basic": (5, 0.1), "hlstmat_temporal": (5, 0.3), "hlstmat_spatial": (5, 0.3),
                 "conf": (3, 0.2), "para": (4, 0.2), "two_stream": (2, 0.2), "da": (4, 0.2)}


class TestManyClips:
    """``greedy_decode`` over a list of clips: row i against clip i decoded
    alone, and the one-clip form as the one-row case."""

    def case(self, variant):
        seed, bias = MIXED_ENDINGS[variant]
        dec, _ = tiny_decoder(variant, seed=seed)
        _bias_eos(dec, bias)
        return dec, many_clips(variant)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_rows_match_clips_decoded_alone(self, variant):
        dec, clips = self.case(variant)
        many = greedy_decode(dec, clips, max_len=8, record_trace=True)
        assert len(many) == len(clips)
        ended = {gen.steps for gen in many if gen.finished}
        assert len(ended) > 1 and not all(gen.finished for gen in many), ended
        for i, (gen, clip) in enumerate(zip(many, clips)):
            alone = greedy_decode(dec, clip, max_len=8, record_trace=True)
            assert gen.tokens == alone.tokens, i
            assert (gen.steps, gen.stopped_early, gen.finished) == (
                alone.steps, alone.stopped_early, alone.finished), i
            assert abs(gen.logprob - alone.logprob) <= 1e-13, i
            assert len(gen.trace) == len(alone.trace) == gen.steps
            for got, want in zip(gen.trace, alone.trace):
                np.testing.assert_allclose(got.alpha, want.alpha, rtol=0, atol=1e-13)
                np.testing.assert_allclose(got.beta, want.beta, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_one_clip_is_the_one_row_case(self, variant):
        dec, clips = self.case(variant)
        for clip in clips:
            one = greedy_decode(dec, clip, max_len=8, record_trace=True)
            (row,) = greedy_decode(dec, [clip], max_len=8, record_trace=True)
            assert (one.tokens, one.logprob, one.steps, one.stopped_early, one.finished) == (
                row.tokens, row.logprob, row.steps, row.stopped_early, row.finished)
            assert one.logprob.hex() == row.logprob.hex()
            for a, b in zip(one.trace, row.trace, strict=True):
                assert np.array_equal(a.alpha, b.alpha) and np.array_equal(a.beta, b.beta)
        assert isinstance(greedy_decode(dec, tuple(clips[:2]), max_len=2), list)
        assert greedy_decode(dec, [], max_len=2) == []

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_contract_errors(self, variant, monkeypatch):
        dec, clips = self.case(variant)
        with pytest.raises(ContractError, match="max_len"):
            greedy_decode(dec, clips, max_len=0)
        want = greedy_decode(dec, clips, max_len=8)
        first = min(gen.steps for gen in want if gen.finished)
        done = next(i for i, gen in enumerate(want) if gen.finished and gen.steps == first)
        live = next(i for i, gen in enumerate(want) if not gen.finished)
        step = dec.step

        def zeroed_after_first(row):
            """``dec.step`` with ``row``'s distribution all 0 after step ``first``."""
            calls = []

            def stepped(state, token_ids, *args, **kwargs):
                p, state = step(state, token_ids, *args, **kwargs)
                calls.append(None)
                if len(calls) <= first:
                    return p, state
                data = p.data.copy()
                data[row] = 0.0
                return Tensor(data), state
            return stepped

        # a finished row's outputs are ignored; an unfinished row's are not
        monkeypatch.setattr(dec, "step", zeroed_after_first(done))
        got = greedy_decode(dec, clips, max_len=8)
        assert [(g.tokens, g.logprob) for g in got] == [(g.tokens, g.logprob) for g in want]
        monkeypatch.setattr(dec, "step", zeroed_after_first(live))
        with pytest.raises(ContractError,
                           match=f"no token had positive probability at step {first + 1}"):
            greedy_decode(dec, clips, max_len=8)


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
