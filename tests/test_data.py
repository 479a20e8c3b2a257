import numpy as np
import pytest

from capgen.data import (
    BOS_ID, EOS_ID, PAD_ID, UNK_ID, CaptionBatch, Dataset, Vocabulary,
    build_vocab, load_features, read_feature_file, synth_dataset,
    tokenize, write_feature_file,
)
from capgen.errors import ContractError, EmptyInputError, FormatError, VocabularyError


class TestTokenize:
    def test_default_lowercases_and_strips_punctuation(self):
        assert tokenize("The CAT, sat!  ") == ["the", "cat", "sat"]

    def test_whitespace_mode(self):
        assert tokenize("Pre-tokenized , text", mode="whitespace") == \
            ["Pre-tokenized", ",", "text"]

    def test_unknown_mode(self):
        with pytest.raises(ContractError):
            tokenize("x", mode="fancy")


class TestVocabulary:
    def test_reserved_ids(self):
        vocab = build_vocab(["a cat", "a dog"])
        assert (PAD_ID, BOS_ID, EOS_ID, UNK_ID) == (0, 1, 2, 3)
        assert len(vocab) == 7  # 4 reserved + a, cat, dog

    def test_frequency_then_lexicographic_order(self):
        vocab = build_vocab(["b b c a a a", "c"])
        # a:3, b:2, c:2 -> a first, then b before c
        assert vocab.decode([4, 5, 6]) == ["a", "b", "c"]

    def test_min_count_maps_rare_words_to_unk(self):
        vocab = build_vocab(["a cat", "a dog"], min_count=2)
        assert len(vocab) == 5
        assert vocab.encode(["a", "cat", "dog"]) == [4, UNK_ID, UNK_ID]

    def test_deterministic_serialization(self, tmp_path):
        paths = []
        for run in range(2):
            vocab = build_vocab(["the dog runs", "a dog barks loudly"])
            p = tmp_path / f"v{run}.json"
            vocab.save(p)
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_round_trip(self, tmp_path):
        vocab = build_vocab(["green eggs and ham"], min_count=1)
        p = tmp_path / "vocab.json"
        vocab.save(p)
        loaded = Vocabulary.load(p)
        assert loaded.id_to_word == vocab.id_to_word
        assert loaded.min_count == vocab.min_count

    def test_empty_corpus(self):
        with pytest.raises(EmptyInputError):
            build_vocab([])

    def test_wrap_and_decode(self):
        vocab = build_vocab(["a cat"])
        ids = vocab.wrap(["a", "cat"])
        assert ids[0] == BOS_ID and ids[-1] == EOS_ID
        assert vocab.decode(ids[1:-1]) == ["a", "cat"]

    def test_decode_out_of_range(self):
        vocab = build_vocab(["a"])
        with pytest.raises(VocabularyError):
            vocab.decode([99])


class TestCaptionBatch:
    def test_padding_and_lengths(self):
        batch = CaptionBatch.from_id_seqs([[BOS_ID, 5, EOS_ID],
                                           [BOS_ID, 6, 7, 8, EOS_ID]])
        assert batch.tokens.shape == (2, 5)
        assert batch.tokens[0, 3] == PAD_ID
        assert list(batch.lengths) == [3, 5]


class TestFeatureFiles:
    def test_round_trip_bit_identical_payload(self, tmp_path, rng):
        arr = rng.standard_normal((28, 16)).astype(np.float32)
        path = tmp_path / "t.feat"
        write_feature_file(path, "temporal", arr)
        kind, back = read_feature_file(path)
        assert kind == "temporal"
        np.testing.assert_array_equal(back, arr.astype(np.float64))

    def test_declared_shape_loads(self, tmp_path, rng):
        path = tmp_path / "big.feat"
        write_feature_file(path, "temporal", rng.standard_normal((28, 2048)))
        _, arr = read_feature_file(path)
        assert arr.shape == (28, 2048)
        assert arr.dtype == np.float64

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.feat"
        path.write_bytes(b"WRONGMAG" + b"\x00" * 32)
        with pytest.raises(FormatError, match="magic"):
            read_feature_file(path)

    def test_truncation_reports_byte_counts(self, tmp_path, rng):
        path = tmp_path / "cut.feat"
        write_feature_file(path, "motion", rng.standard_normal((4, 8)))
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(FormatError, match="expected 128 bytes, got 118"):
            read_feature_file(path)

    def test_trailing_garbage_rejected(self, tmp_path, rng):
        path = tmp_path / "fat.feat"
        write_feature_file(path, "global", rng.standard_normal(6))
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(FormatError, match="trailing"):
            read_feature_file(path)

    def test_load_features_mapping(self, tmp_path, rng):
        g = rng.standard_normal(5)
        t = rng.standard_normal((3, 4))
        write_feature_file(tmp_path / "g.feat", "global", g)
        write_feature_file(tmp_path / "t.feat", "temporal", t)
        fs = load_features({"global": tmp_path / "g.feat",
                            "temporal": tmp_path / "t.feat"})
        assert fs.temporal.shape == (3, 4) and fs.global_vec.shape == (5,)
        np.testing.assert_allclose(fs.global_vec, g, atol=1e-6)

    def test_kind_mismatch_against_manifest(self, tmp_path, rng):
        write_feature_file(tmp_path / "x.feat", "motion", rng.standard_normal((2, 3)))
        with pytest.raises(FormatError, match="manifest"):
            load_features({"temporal": tmp_path / "x.feat"})


class TestSynthDataset:
    def test_seeded_generation_is_byte_reproducible(self, tmp_path):
        digests = []
        for run in range(2):
            root = tmp_path / f"run{run}"
            synth_dataset(seed=3, n_samples=4, vocab_size=5, length=3, dim=6,
                          out_dir=root)
            blob = b""
            for p in sorted(root.rglob("*")):
                if p.is_file():
                    blob += p.name.encode() + p.read_bytes()
            digests.append(blob)
        assert digests[0] == digests[1]

    def test_sample_count_and_manifest(self, tmp_path):
        ds = synth_dataset(seed=0, n_samples=10, vocab_size=6, length=4, dim=8,
                           out_dir=tmp_path / "d")
        assert len(ds.splits["train"]) == 10
        assert len(list((tmp_path / "d" / "features").glob("*_temporal.feat"))) == 10
        reloaded = Dataset.load(tmp_path / "d")
        assert [s.id for s in reloaded.splits["train"]] == \
            [s.id for s in ds.splits["train"]]

    def test_captions_recoverable_from_features(self, tmp_path):
        """Frame l carries exactly the prototype of caption word l: the
        mapping from features to words is deterministic, so perfect
        reproduction is attainable."""
        root = tmp_path / "d"
        ds = synth_dataset(seed=11, n_samples=6, vocab_size=7, length=4, dim=9,
                           out_dir=root)
        protos = {}
        for s in ds.splits["train"]:
            feats = ds.features(s)
            words = s.refs[0].split()
            for l, w in enumerate(words):
                key = tuple(np.round(feats.temporal[l], 5))
                assert protos.setdefault(key, w) == w

    @pytest.mark.parametrize("segments", [0, -2])
    def test_no_motion_segment_is_rejected(self, tmp_path, segments):
        root = tmp_path / "d"
        with pytest.raises(ContractError, match="sizes must be >= 1"):
            synth_dataset(seed=0, n_samples=2, vocab_size=4, length=2, dim=4,
                          out_dir=root, motion_segments=segments)
        assert not root.exists()

    def test_missing_file_detected_at_load(self, tmp_path):
        root = tmp_path / "d"
        synth_dataset(seed=0, n_samples=2, vocab_size=4, length=2, dim=4,
                      out_dir=root)
        next(iter((root / "features").glob("*.feat"))).unlink()
        with pytest.raises(FormatError, match="missing feature file"):
            Dataset.load(root)
