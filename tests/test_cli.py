import csv
import json
import shutil

import pytest

from capgen.checkpoint import load_checkpoint, save_checkpoint
from capgen.cli import main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth-data -> train -> generate pipeline shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["synth-data", "--out", str(data), "--seed", "4",
                 "--samples", "3", "--vocab-size", "5", "--length", "3",
                 "--dim", "8"]) == 0
    ckpt = root / "model.ckpt"
    assert main(["train", "--data-dir", str(data), "--hidden-dim", "8",
                 "--embed-dim", "8", "--attn-dim", "6", "--epochs", "2",
                 "--patience", "0", "--optimizer", "adam", "--lr", "0.003",
                 "--dropout", "0.0", "--val-metric", "loss", "--max-len", "6",
                 "--checkpoint", str(ckpt), "--seed", "1",
                 "--batch-size", "2"]) == 0
    return root, data, ckpt


def edited_copy(data, dest, name, edit):
    """Copy the dataset directory to ``dest``, pass the JSON file ``name``
    through ``edit`` in place, and return the edited payload."""
    shutil.copytree(data, dest)
    payload = json.loads((dest / name).read_text())
    edit(payload)
    (dest / name).write_text(json.dumps(payload))
    return payload


class TestPipeline:
    def test_generate_writes_jsonl(self, workspace):
        root, data, ckpt = workspace
        out = root / "gen.jsonl"
        assert main(["generate", "--data-dir", str(data), "--checkpoint", str(ckpt),
                     "--split", "test", "--out", str(out), "--beam", "2",
                     "--max-len", "6"]) == 0
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(rows) == 3
        assert all({"id", "caption", "logprob"} <= set(r) for r in rows)
        for r in rows:  # per-caption latency and beam statistics
            assert r["latency_ms"] > 0
            assert 1 <= r["steps"] <= 6 and isinstance(r["stopped_early"], bool)
            assert 0 <= r["finished"] <= 2
            assert r["stopped_early"] or r["steps"] == 6

    def test_generate_with_traces(self, workspace):
        root, data, ckpt = workspace
        out = root / "gen2.jsonl"
        traces = root / "traces"
        assert main(["generate", "--data-dir", str(data), "--checkpoint", str(ckpt),
                     "--out", str(out), "--beam", "1", "--max-len", "6",
                     "--trace-dir", str(traces)]) == 0
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert all("trace_path" in r for r in rows)
        with open(rows[0]["trace_path"]) as fh:
            header = next(csv.reader(fh))
        assert header[:2] == ["step", "token"]
        assert "beta" in header[-1]

    def test_evaluate_against_refs(self, workspace, tmp_path):
        root, data, ckpt = workspace
        gen = root / "gen_eval.jsonl"
        main(["generate", "--data-dir", str(data), "--checkpoint", str(ckpt),
              "--out", str(gen), "--beam", "1", "--max-len", "6"])
        out = tmp_path / "scores.json"
        assert main(["evaluate", "--candidates", str(gen),
                     "--refs", str(data / "refs.jsonl"), "--out", str(out)]) == 0
        scores = json.loads(out.read_text())
        assert set(scores) == {"bleu1", "bleu2", "bleu3", "bleu4", "rougeL", "cider"}

    def test_trace_subcommand(self, workspace):
        root, data, ckpt = workspace
        out_dir = root / "trace_csvs"
        assert main(["trace", "--data-dir", str(data), "--checkpoint", str(ckpt),
                     "--split", "val", "--out-dir", str(out_dir),
                     "--max-len", "6"]) == 0
        assert len(list(out_dir.glob("*.csv"))) == 3

    def test_config_file_overrides_flags(self, workspace, tmp_path):
        root, data, _ = workspace
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data_dir = {data}\nepochs = 1\nhidden_dim = 8\n"
                       "embed_dim = 8\nattn_dim = 6\noptimizer = adam\n"
                       "dropout = 0.0\nval_metric = loss\npatience = 0\n"
                       f"checkpoint = {tmp_path / 'cfg.ckpt'}\n")
        assert main(["train", "--config", str(cfg), "--epochs", "9999"]) == 0
        assert (tmp_path / "cfg.ckpt").exists()


class TestVocabCommand:
    def test_build_vocab_from_refs(self, tmp_path):
        refs = tmp_path / "refs.jsonl"
        refs.write_text('{"id": "a", "refs": ["a red ball", "a blue ball"]}\n')
        out = tmp_path / "vocab.json"
        assert main(["build-vocab", "--refs", str(refs), "--out", str(out)]) == 0
        words = json.loads(out.read_text())["words"]
        assert words[0] == "a" and "ball" in words


class TestGradcheckCommand:
    def test_single_variant(self, capsys):
        assert main(["gradcheck", "--variant", "basic", "--hidden", "6",
                     "--vocab", "8", "--frames", "3"]) == 0
        out = capsys.readouterr().out
        assert "basic" in out and "ok" in out


class TestErrors:
    def test_missing_data_dir_fails_cleanly(self, tmp_path, capsys):
        assert main(["train", "--data-dir", str(tmp_path / "nowhere"),
                     "--epochs", "1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_generate_missing_split_fails_cleanly(self, workspace, capsys):
        root, data, ckpt = workspace
        assert main(["generate", "--data-dir", str(data), "--checkpoint", str(ckpt),
                     "--split", "nosuch", "--out", str(root / "none.jsonl")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'nosuch'" in err
        assert not (root / "none.jsonl").exists()

    def test_trace_missing_split_fails_cleanly(self, workspace, capsys):
        root, data, ckpt = workspace
        assert main(["trace", "--data-dir", str(data), "--checkpoint", str(ckpt),
                     "--split", "nosuch", "--out-dir", str(root / "none")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'nosuch'" in err
        assert not (root / "none").exists()

    def test_generate_with_another_vocabulary_fails_cleanly(self, workspace, tmp_path,
                                                            capsys):
        _, data, ckpt = workspace
        other = tmp_path / "data"
        edited_copy(data, other, "vocab.json",
                    lambda vocab: vocab["words"].extend(["extraone", "extratwo"]))
        assert main(["generate", "--data-dir", str(other), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "gen.jsonl"), "--beam", "1"]) == 1
        err = capsys.readouterr().err
        rows, dim = load_checkpoint(ckpt)[1]["embed.E"].shape
        assert err.startswith("error:") and "'embed.E'" in err
        assert str((rows, dim)) in err and str((rows + 2, dim)) in err

    def test_generate_checkpoint_without_a_record_fails_cleanly(self, workspace, tmp_path,
                                                               capsys):
        _, data, ckpt = workspace
        variant, arrays = load_checkpoint(ckpt)
        del arrays["attn.w"]
        partial = tmp_path / "partial.ckpt"
        save_checkpoint(partial, variant, arrays)
        assert main(["generate", "--data-dir", str(data), "--checkpoint", str(partial),
                     "--out", str(tmp_path / "gen.jsonl"), "--beam", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'attn.w'" in err

    def test_generate_without_train_split(self, workspace, tmp_path):
        _, data, ckpt = workspace
        other = tmp_path / "data"
        manifest = edited_copy(data, other, "manifest.json",
                               lambda m: m["splits"].pop("train"))
        out = tmp_path / "gen.jsonl"
        assert main(["generate", "--data-dir", str(other), "--checkpoint", str(ckpt),
                     "--split", "test", "--out", str(out), "--max-len", "6"]) == 0
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert [r["id"] for r in rows] == [e["id"] for e in manifest["splits"]["test"]]

    def test_trace_empty_split_fails_cleanly(self, workspace, tmp_path, capsys):
        _, data, ckpt = workspace
        other = tmp_path / "data"
        edited_copy(data, other, "manifest.json", lambda m: m["splits"]["test"].clear())
        assert main(["trace", "--data-dir", str(other), "--checkpoint", str(ckpt),
                     "--out-dir", str(tmp_path / "none")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "split 'test' has no samples" in err

    @pytest.mark.parametrize("edit", ["missing", "empty"])
    def test_train_without_train_samples_fails_cleanly(self, workspace, tmp_path, capsys,
                                                       edit):
        _, data, _ = workspace
        other = tmp_path / "data"
        edited_copy(data, other, "manifest.json",
                    lambda m: m["splits"].pop("train") if edit == "missing"
                    else m["splits"]["train"].clear())
        assert main(["train", "--data-dir", str(other), "--epochs", "1",
                     "--checkpoint", str(tmp_path / "model.ckpt")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'train'" in err
        assert not (tmp_path / "model.ckpt").exists()

    def test_evaluate_candidate_without_refs_fails_cleanly(self, tmp_path, capsys):
        cands = tmp_path / "cands.jsonl"
        cands.write_text('{"id": "a", "caption": "a dog"}\n'
                         '{"id": "b", "caption": "a cat"}\n')
        refs = tmp_path / "refs.jsonl"
        refs.write_text('{"id": "a", "refs": ["a dog runs"]}\n')
        assert main(["evaluate", "--candidates", str(cands), "--refs", str(refs)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'b'" in err
