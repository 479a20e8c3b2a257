import csv
import json
import re
import shutil
import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import capgen.cli
import capgen.training
from capgen.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from capgen.cli import main
from capgen.data import Dataset, read_feature_file, write_feature_file
from capgen.training import _CONFIG_DEFAULTS


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth-data -> train -> generate pipeline shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["synth-data", "--out", str(data), "--seed", "4",
                 "--samples", "3", "--vocab-size", "5", "--length", "3",
                 "--dim", "8"]) == 0
    ckpt = root / "model.ckpt"
    assert main(train_argv(data, ckpt, epochs=2)) == 0
    return root, data, ckpt


def train_argv(data, ckpt, epochs, *extra):
    """The workspace's ``capgen train`` command line."""
    return ["train", "--data-dir", str(data), "--hidden-dim", "8",
            "--embed-dim", "8", "--attn-dim", "6", "--epochs", str(epochs),
            "--patience", "0", "--optimizer", "adam", "--lr", "0.003",
            "--dropout", "0.0", "--val-metric", "loss", "--max-len", "6",
            "--checkpoint", str(ckpt), "--seed", "1", "--batch-size", "2", *extra]


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
            assert r["latency_ms"] > 0 and r["batch_clips"] == 1
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
        # the 3 test clips decode in one greedy call, whose time they share
        assert [r["batch_clips"] for r in rows] == [3] * 3
        assert len({r["latency_ms"] for r in rows}) == 1 and rows[0]["latency_ms"] > 0
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


class TestResume:
    @pytest.mark.parametrize("case", ["no-epoch-left", "no-epoch-improves"])
    def test_reports_the_file_that_holds_the_weights(self, workspace, tmp_path, capsys,
                                                     case):
        """A resumed run that writes no checkpoint names the resumed file,
        which restores for ``generate``."""
        _, data, ckpt = workspace
        variant, arrays = load_checkpoint(ckpt)
        resumed, epochs = ckpt, 1        # the workspace's run trained epochs 0 and 1
        if case == "no-epoch-improves":
            arrays["meta/best_val"] = np.asarray(1e300)
            resumed, epochs = tmp_path / "unbeatable.ckpt", 3
            save_checkpoint(resumed, variant, arrays)
        capsys.readouterr()
        unwritten = tmp_path / "never.ckpt"
        assert main(train_argv(data, unwritten, epochs, "--resume", str(resumed))) == 0
        first = capsys.readouterr().out.splitlines()[0]
        runs = max(0, epochs - int(arrays["meta/epoch"]) - 1)
        assert runs == (case == "no-epoch-improves")
        assert first.startswith(f"trained hlstmat_temporal for {runs} epochs")
        assert first.endswith(f"checkpoint {resumed}")
        assert not unwritten.exists()
        assert main(["generate", "--data-dir", str(data), "--checkpoint", str(resumed),
                     "--out", str(tmp_path / "gen.jsonl"), "--beam", "1",
                     "--max-len", "6"]) == 0


def keep_regions_only(manifest):
    for samples in manifest["splits"].values():
        for sample in samples:
            sample["features"] = {"spatial": sample["features"]["spatial"]}


UNKNOWN_VARIANT = ("unknown decoder variant {!r}; expected one of basic, hlstmat_temporal, "
                   "hlstmat_spatial, conf, para, two_stream, da")


class TestSpatialAttentionOverRegions:
    """``hlstmat_spatial`` attends over the regions, so it is sized from
    them: it trains, generates and traces on data without frames, and
    where its regions are wider than its frames."""

    @pytest.mark.parametrize("layout", ["regions-only", "wider-regions"])
    def test_trains_generates_and_traces(self, workspace, tmp_path, layout):
        _, data, _ = workspace
        other = tmp_path / "data"
        width = 8   # the workspace's feature width
        if layout == "regions-only":
            edited_copy(data, other, "manifest.json", keep_regions_only)
        else:
            shutil.copytree(data, other)
            for path in (other / "features").glob("*_spatial.feat"):
                _, regions = read_feature_file(path)
                write_feature_file(path, "spatial",
                                   np.concatenate([regions, regions[:, :4]], axis=1))
            width += 4
        ckpt = tmp_path / "spatial.ckpt"
        # the gate blends the attended regions with the hidden state, so
        # hidden_dim is the region width (the later flag wins)
        assert main(train_argv(other, ckpt, 1, "--variant", "hlstmat_spatial",
                               "--hidden-dim", str(width))) == 0
        variant, arrays = load_checkpoint(ckpt)
        assert variant == "hlstmat_spatial" and arrays["attn.U_a"].shape == (6, width)
        out = tmp_path / "gen.jsonl"
        assert main(["generate", "--data-dir", str(other), "--checkpoint", str(ckpt),
                     "--out", str(out), "--beam", "1", "--max-len", "6"]) == 0
        assert len(out.read_text().splitlines()) == 3
        traces = tmp_path / "traces"
        assert main(["trace", "--data-dir", str(other), "--checkpoint", str(ckpt),
                     "--out-dir", str(traces), "--max-len", "6"]) == 0
        assert len(list(traces.glob("*.csv"))) == 3


LEGACY_DA = Path(__file__).parent / "data" / "da_legacy.ckpt"
LEGACY_DA_EXPECTED = Path(__file__).parent / "data" / "da_legacy_expected.json"


@pytest.fixture(scope="module")
def legacy_da_data(tmp_path_factory):
    """The dataset that ``data/da_legacy.ckpt`` was trained on.

    That file was written by ``capgen train`` while DA still named its
    scorers' records ``attn{1,2}.W_v``, ``attn{1,2}.W_h``, ``W_s``,
    ``W_h3`` and ``w_a``: ``train --data-dir <this set> --variant da
    --hidden-dim 4 --embed-dim 4 --attn-dim 3 --epochs 1 --batch-size 2
    --dropout 0.5 --seed 1 --val-metric loss --max-len 8`` with the
    default adadelta.  ``data/da_legacy_expected.json`` holds what that
    code gave: its greedy ``generate`` of the test split at ``--max-len
    8``, and the loss of one epoch resumed from the file."""
    data = tmp_path_factory.mktemp("legacy_da") / "data"
    assert main(["synth-data", "--out", str(data), "--seed", "3", "--samples", "3",
                 "--vocab-size", "5", "--length", "3", "--dim", "5"]) == 0
    return data


class TestLegacyDaCheckpoint:
    def test_file_holds_the_older_record_names(self):
        raw = LEGACY_DA.read_bytes()
        for name in (b"attn1.W_v", b"attn2.W_h", b"W_h3", b"w_a", b"opt/W_s/Eg"):
            assert name in raw
        assert b"sentinel.w" not in raw and b"sentinel.U_a" not in raw

    def test_generate_reproduces_its_greedy_captions(self, legacy_da_data, tmp_path):
        out = tmp_path / "gen.jsonl"
        assert main(["generate", "--data-dir", str(legacy_da_data), "--checkpoint",
                     str(LEGACY_DA), "--split", "test", "--out", str(out), "--beam", "1",
                     "--max-len", "8"]) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        expected = json.loads(LEGACY_DA_EXPECTED.read_text())["greedy"]
        assert [(r["id"], r["caption"], r["steps"]) for r in rows] == [
            (e["id"], e["caption"], e["steps"]) for e in expected]
        for r, e in zip(rows, expected):
            assert r["logprob"] == pytest.approx(float.fromhex(e["logprob"]), rel=0, abs=1e-14)

    def test_trace_runs(self, legacy_da_data, tmp_path):
        assert main(["trace", "--data-dir", str(legacy_da_data), "--checkpoint",
                     str(LEGACY_DA), "--out-dir", str(tmp_path / "traces"),
                     "--max-len", "8"]) == 0
        assert len(list((tmp_path / "traces").glob("*.csv"))) == 3

    def test_resume_picks_up_the_renamed_adadelta_slots(self, legacy_da_data, tmp_path,
                                                        monkeypatch, capsys):
        real = capgen.training.adadelta_update
        first = []

        def spy(params, state, rho, eps):
            if not first:
                first.append({k: {slot: a.copy() for slot, a in v.items()}
                              for k, v in state.items()})
            return real(params, state, rho, eps)

        monkeypatch.setattr(capgen.training, "adadelta_update", spy)
        argv = ["train", "--data-dir", str(legacy_da_data), "--variant", "da",
                "--hidden-dim", "4", "--embed-dim", "4", "--attn-dim", "3", "--epochs", "2",
                "--batch-size", "2", "--dropout", "0.5", "--seed", "1", "--val-metric",
                "loss", "--max-len", "8", "--resume", str(LEGACY_DA),
                "--checkpoint", str(tmp_path / "resumed.ckpt")]
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("trained da for 1 epochs")
        _, arrays = load_checkpoint(LEGACY_DA)
        names = [k for k in arrays if not k.startswith(("opt/", "meta/"))]
        assert "sentinel.w" in names and "w_a" not in names
        # the update of the resumed epoch's first batch starts from the file's state
        assert sorted(first[0]) == sorted(names)
        for name in names:
            for slot in ("Eg", "Ex"):
                saved = arrays[f"opt/{name}/{slot}"]
                assert np.array_equal(first[0][name][slot], saved), (name, slot)
                assert saved.any()
        loss = json.loads(out[1])["loss"]
        expected = float.fromhex(json.loads(LEGACY_DA_EXPECTED.read_text())["resumed_epoch_loss"])
        assert loss == pytest.approx(expected, rel=1e-14)


class TestTrainFlags:
    def test_every_config_key_has_a_flag_of_its_type(self, capsys, monkeypatch):
        with pytest.raises(SystemExit):
            main(["train", "--help"])
        usage = capsys.readouterr().out
        argv, want = ["train"], {}
        for key, default in _CONFIG_DEFAULTS.items():
            flag = "--" + key.replace("_", "-")
            assert re.search(rf"^\s+{flag}\s", usage, re.M), flag
            want[key] = f"x_{key}" if isinstance(default, str) else default + 1
            argv += [flag, str(want[key])]
        seen = []

        def fake_train(cfg):
            seen.append(cfg)
            return SimpleNamespace(history=[], best_val=0.0, checkpoint_path="")

        monkeypatch.setattr(capgen.cli, "train", fake_train)
        assert main(argv) == 0
        for key, default in _CONFIG_DEFAULTS.items():
            got = seen[0].values[key]
            assert type(got) is type(default) and got == want[key], key


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


class TestGradcheckSizes:
    @pytest.mark.parametrize("argv, message", [
        (["--variant", "da", "--hidden", "2"], "--hidden 2 leaves da's region_dim at 0"),
        (["--variant", "da", "--hidden", "3"], "--hidden 3 leaves da's global_dim at 0"),
        (["--variant", "hlstmat_temporal", "--hidden", "1"],
         "--hidden 1 leaves hlstmat_temporal's attn_dim at 0"),
        (["--hidden", "3"], "--hidden 3 leaves da's global_dim at 0"),
        (["--vocab", "4"], "--vocab must be at least 5"),
        (["--frames", "0"], "--frames must be at least 1"),
    ])
    def test_size_without_a_decoder_fails_before_any_variant_runs(self, capsys, monkeypatch,
                                                                  argv, message):
        ran = []
        monkeypatch.setattr(capgen.cli, "decoder_gradcheck", lambda *a, **kw: ran.append(a))
        assert main(["gradcheck", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1 and captured.out == "" and ran == []


class TestErrors:
    def test_missing_data_dir_fails_cleanly(self, tmp_path, capsys):
        assert main(["train", "--data-dir", str(tmp_path / "nowhere"),
                     "--epochs", "1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_train_missing_config_file_fails_cleanly(self, tmp_path, capsys):
        cfg = tmp_path / "none.cfg"
        assert main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}") and "No such file" in err

    def test_train_config_value_of_the_wrong_type_fails_cleanly(self, workspace, tmp_path,
                                                               capsys):
        _, data, _ = workspace
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data_dir = {data}\nepochs = ten\n")
        assert main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}") and "'epochs' takes int values" in err
        assert "'ten'" in err

    @pytest.mark.parametrize("command", ["generate", "trace", "train"])
    def test_missing_checkpoint_fails_cleanly(self, workspace, tmp_path, capsys, command):
        _, data, _ = workspace
        missing = tmp_path / "none.ckpt"
        argv = {"generate": ["generate", "--checkpoint", str(missing),
                             "--out", str(tmp_path / "gen.jsonl")],
                "trace": ["trace", "--checkpoint", str(missing),
                          "--out-dir", str(tmp_path / "traces")],
                "train": ["train", "--resume", str(missing), "--hidden-dim", "8",
                          "--embed-dim", "8", "--attn-dim", "6", "--epochs", "1",
                          "--checkpoint", str(tmp_path / "model.ckpt")]}[command]
        assert main(argv + ["--data-dir", str(data)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(missing) in err and "No such file" in err
        assert not (tmp_path / "model.ckpt").exists()

    @pytest.mark.parametrize("command", ["generate", "trace", "train"])
    def test_checkpoint_dims_past_its_end_fail_cleanly(self, workspace, tmp_path, capsys,
                                                       command):
        _, data, _ = workspace
        bad = tmp_path / "huge.ckpt"   # one record of 0xFFFFFFFF x 0xFFFFFFFF and no payload
        tag, name = b"hlstmat_temporal", b"embed.E"
        bad.write_bytes(MAGIC + struct.pack("<I", len(tag)) + tag + struct.pack("<I", 1)
                        + struct.pack("<I", len(name)) + name
                        + struct.pack("<3I", 2, 0xFFFFFFFF, 0xFFFFFFFF))
        argv = {"generate": ["generate", "--checkpoint", str(bad),
                             "--out", str(tmp_path / "gen.jsonl")],
                "trace": ["trace", "--checkpoint", str(bad),
                          "--out-dir", str(tmp_path / "traces")],
                "train": train_argv(data, tmp_path / "model.ckpt", 1, "--resume", str(bad))
                }[command]
        assert main(argv + ["--data-dir", str(data)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: truncated checkpoint") and "'embed.E'" in err
        assert not (tmp_path / "model.ckpt").exists()

    @pytest.mark.parametrize("where", ["tag", "name"])
    @pytest.mark.parametrize("command", ["generate", "trace", "train"])
    def test_checkpoint_name_not_utf8_fails_cleanly(self, workspace, tmp_path, capsys,
                                                    command, where):
        _, data, _ = workspace
        bad = tmp_path / "bad.ckpt"
        tag = b"\xff" if where == "tag" else b"hlstmat_temporal"
        name = b"\xff" if where == "name" else b"embed.E"
        bad.write_bytes(MAGIC + struct.pack("<I", len(tag)) + tag + struct.pack("<I", 1)
                        + struct.pack("<I", len(name)) + name
                        + struct.pack("<2I", 1, 1) + struct.pack("<d", 0.0))
        argv = {"generate": ["generate", "--checkpoint", str(bad),
                             "--out", str(tmp_path / "gen.jsonl")],
                "trace": ["trace", "--checkpoint", str(bad),
                          "--out-dir", str(tmp_path / "traces")],
                "train": train_argv(data, tmp_path / "model.ckpt", 1, "--resume", str(bad))
                }[command]
        assert main(argv + ["--data-dir", str(data)]) == 1
        err = capsys.readouterr().err
        offset = 12 if where == "tag" else 12 + len(tag) + 8
        assert err.startswith("error:") and "not UTF-8" in err
        assert f"byte offset {offset}" in err
        assert not (tmp_path / "model.ckpt").exists()

    @pytest.mark.parametrize("command", ["generate", "trace", "train"])
    def test_dataset_without_vocabulary_fails_cleanly(self, workspace, tmp_path, capsys,
                                                      command):
        _, data, ckpt = workspace
        other = tmp_path / "data"
        shutil.copytree(data, other)
        (other / "vocab.json").unlink()
        argv = {"generate": ["generate", "--checkpoint", str(ckpt),
                             "--out", str(tmp_path / "gen.jsonl")],
                "trace": ["trace", "--checkpoint", str(ckpt),
                          "--out-dir", str(tmp_path / "traces")],
                "train": ["train", "--epochs", "1",
                          "--checkpoint", str(tmp_path / "model.ckpt")]}[command]
        assert main(argv + ["--data-dir", str(other)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(other / "vocab.json") in err
        assert "No such file" in err

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

    @pytest.mark.parametrize("beam", [1, 2])
    def test_generate_clip_of_another_width_fails_cleanly(self, workspace, tmp_path, capsys,
                                                          beam):
        _, data, ckpt = workspace
        other = tmp_path / "data"

        def narrow(m):
            entry = m["splits"]["test"][1]
            entry["features"]["temporal"] = "features/narrow_temporal.feat"
            _, frames = read_feature_file(data / "features" / f"{entry['id']}_temporal.feat")
            write_feature_file(other / entry["features"]["temporal"], "temporal", frames[:, :6])

        edited_copy(data, other, "manifest.json", narrow)
        assert main(["generate", "--data-dir", str(other), "--checkpoint", str(ckpt),
                     "--split", "test", "--out", str(tmp_path / "gen.jsonl"),
                     "--beam", str(beam), "--max-len", "6"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "has features 6 wide, the decoder reads 8" in err

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

    @pytest.mark.parametrize("split,emptied,metric", [("train", "all", "loss"),
                                                      ("val", "all", "loss"),
                                                      ("val", "one", "cider")])
    def test_train_with_a_sample_without_references_fails_cleanly(
            self, workspace, tmp_path, capsys, split, emptied, metric):
        _, data, _ = workspace
        other = tmp_path / "data"

        def edit(m):
            for entry in m["splits"][split][-1 if emptied == "one" else 0:]:
                entry["refs"] = []

        manifest = edited_copy(data, other, "manifest.json", edit)
        ckpt = tmp_path / "model.ckpt"
        assert main(train_argv(other, ckpt, 1, "--val-metric", metric)) == 1
        err = capsys.readouterr().err
        first = [e["id"] for e in manifest["splits"][split] if not e["refs"]][0]
        assert err.startswith("error:") and f"'{split}'" in err and f"'{first}'" in err
        assert not ckpt.exists()

    @pytest.mark.parametrize("text,message", [('{"splits": ', "not JSON"),
                                              ("{}", "expected an object with 'splits'"),
                                              ('{"splits": {"train": [{"id": "a"}]}}',
                                               "not an object with 'id', 'features' and 'refs'")])
    def test_malformed_manifest_fails_cleanly(self, workspace, tmp_path, capsys, text,
                                              message):
        _, data, _ = workspace
        other = tmp_path / "data"
        shutil.copytree(data, other)
        (other / "manifest.json").write_text(text)
        assert main(["train", "--data-dir", str(other), "--epochs", "1",
                     "--checkpoint", str(tmp_path / "model.ckpt")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(other / "manifest.json") in err
        assert message in err

    @pytest.mark.parametrize("name,edit,entry", [
        ("manifest.json", lambda m: m["splits"]["train"][0].update(refs=[1, 2]), "'refs'"),
        ("manifest.json", lambda m: m["splits"]["train"][0].update(refs="a cat"), "'refs'"),
        ("vocab.json", lambda v: v.update(words=5), "'words'"),
        ("manifest.json", lambda m: m["splits"]["train"][0]["features"].update(temporal=5),
         "'features'"),
    ], ids=["refs_of_numbers", "refs_string", "words_number", "feature_path_number"])
    def test_refs_and_words_not_lists_of_strings_fail_cleanly(self, workspace, tmp_path,
                                                              capsys, name, edit, entry):
        _, data, _ = workspace
        other = tmp_path / "data"
        payload = edited_copy(data, other, name, edit)
        assert main(["train", "--data-dir", str(other), "--epochs", "1",
                     "--checkpoint", str(tmp_path / "model.ckpt")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(other / name) in err and entry in err
        if name == "manifest.json":     # the entry is named by its id, and its split
            assert repr(payload["splits"]["train"][0]["id"]) in err and "'train'" in err
        assert not (tmp_path / "model.ckpt").exists()

    def test_resume_from_a_reward_stage_checkpoint_fails_cleanly(self, workspace, tmp_path,
                                                                 capsys, monkeypatch):
        _, data, _ = workspace
        ckpt = tmp_path / "model.ckpt"
        assert main(train_argv(data, ckpt, 1, "--rl-epochs", "1")) == 0
        rl = tmp_path / "model.ckpt.rl"
        assert "meta/reward_stage" in load_checkpoint(rl)[1]
        capsys.readouterr()
        ran = []
        monkeypatch.setattr(capgen.training, "_epoch_rng",
                            lambda *a: ran.append(a) or np.random.default_rng(0))
        resumed = tmp_path / "resumed.ckpt"
        assert main(train_argv(data, resumed, 4, "--resume", str(rl))) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: checkpoint {rl} was written by the reward stage")
        assert ran == [] and not resumed.exists()

    def test_resume_with_another_optimizers_state_fails_cleanly(self, workspace, tmp_path,
                                                                capsys, monkeypatch):
        _, data, ckpt = workspace      # trained with adam
        ran = []
        monkeypatch.setattr(capgen.training, "_epoch_rng",
                            lambda *a: ran.append(a) or np.random.default_rng(0))
        argv = train_argv(data, tmp_path / "model.ckpt", 4, "--resume", str(ckpt))
        argv[argv.index("adam")] = "adadelta"
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(ckpt) in err and "'adadelta'" in err
        assert ran == [] and not (tmp_path / "model.ckpt").exists()

    @pytest.mark.parametrize("flag,key", [("--val-metric", "val_metric"),
                                          ("--optimizer", "optimizer")])
    def test_unknown_setting_fails_before_loading_features(self, workspace, tmp_path, capsys,
                                                           monkeypatch, flag, key):
        _, data, _ = workspace
        loaded = []
        monkeypatch.setattr(Dataset, "features", lambda self, sample: loaded.append(sample))
        log, ckpt = tmp_path / "train.jsonl", tmp_path / "model.ckpt"
        assert main(["train", "--data-dir", str(data), "--hidden-dim", "8", "--embed-dim", "8",
                     "--attn-dim", "6", "--epochs", "1", flag, "nosuch",
                     "--log-path", str(log), "--checkpoint", str(ckpt)]) == 1
        assert capsys.readouterr().err == f"error: unknown {key} 'nosuch'\n"
        assert loaded == [] and not log.exists() and not ckpt.exists()

    @pytest.mark.parametrize("flag, value", [("--batch-size", "0"), ("--batch-size", "-3"),
                                             ("--epochs", "0"), ("--lr-decay-every", "0"),
                                             ("--hidden-dim", "-3"), ("--embed-dim", "0"),
                                             ("--attn-dim", "0"), ("--max-len", "0")])
    def test_non_positive_setting_fails_before_loading_features(self, workspace, tmp_path,
                                                                capsys, monkeypatch, flag,
                                                                value):
        _, data, _ = workspace
        loaded = []
        monkeypatch.setattr(Dataset, "features", lambda self, sample: loaded.append(sample))
        ckpt = tmp_path / "model.ckpt"
        argv = ["train", "--data-dir", str(data), "--hidden-dim", "8", "--embed-dim", "8",
                "--attn-dim", "6", "--epochs", "1", "--checkpoint", str(ckpt), flag, value]
        assert main(argv) == 1
        key = flag[2:].replace("-", "_")
        assert capsys.readouterr().err == f"error: {key} must be at least 1, got {value}\n"
        assert loaded == [] and not ckpt.exists()

    @pytest.mark.parametrize("flag, value, rule", [
        ("--clip", "0", "above 0"), ("--eps", "0", "above 0"), ("--eps", "-1", "above 0"),
        ("--dropout", "1.0", "in [0, 1)"), ("--dropout", "-0.1", "in [0, 1)"),
        ("--rho", "1.5", "in [0, 1)"), ("--rho", "-1", "in [0, 1)"),
        ("--lr", "0", "above 0"), ("--lr", "-1", "above 0"), ("--rl-lr", "0", "above 0"),
        ("--lr-decay", "0", "in (0, 1]"), ("--lr-decay", "-0.5", "in (0, 1]"),
        ("--lr-decay", "1.5", "in (0, 1]")])
    def test_out_of_range_setting_fails_before_loading_features(self, workspace, tmp_path,
                                                                capsys, monkeypatch, flag,
                                                                value, rule):
        _, data, _ = workspace
        loaded = []
        monkeypatch.setattr(Dataset, "features", lambda self, sample: loaded.append(sample))
        ckpt = tmp_path / "model.ckpt"
        argv = ["train", "--data-dir", str(data), "--hidden-dim", "8", "--embed-dim", "8",
                "--attn-dim", "6", "--epochs", "1", "--checkpoint", str(ckpt), flag, value]
        assert main(argv) == 1
        key = flag[2:].replace("-", "_")
        assert capsys.readouterr().err == f"error: {key} must be {rule}, got {float(value)}\n"
        assert loaded == [] and not ckpt.exists()

    def test_unit_lr_decay_keeps_the_rate(self, workspace, tmp_path):
        _, data, _ = workspace
        log = tmp_path / "train.jsonl"
        assert main(train_argv(data, tmp_path / "model.ckpt", 2, "--lr-decay", "1",
                               "--lr-decay-every", "1", "--log-path", str(log))) == 0
        assert [json.loads(line)["lr"] for line in log.read_text().splitlines()] == [0.003] * 2

    @pytest.mark.parametrize("variant", ["hlstmat_spatail", "bogus"])
    def test_unknown_variant_fails_before_loading_features(self, workspace, tmp_path, capsys,
                                                           monkeypatch, variant):
        _, data, _ = workspace
        other = tmp_path / "data"
        edited_copy(data, other, "manifest.json", keep_regions_only)
        loaded, features = [], Dataset.features
        monkeypatch.setattr(Dataset, "features",
                            lambda self, sample: loaded.append(sample) or features(self, sample))
        ckpt = tmp_path / "model.ckpt"
        assert main(train_argv(other, ckpt, 1, "--variant", variant)) == 1
        assert capsys.readouterr().err == f"error: {UNKNOWN_VARIANT.format(variant)}\n"
        assert loaded == [] and not ckpt.exists()

    def test_generate_checkpoint_of_an_unknown_variant_fails_cleanly(self, workspace,
                                                                     tmp_path, capsys):
        _, data, ckpt = workspace
        bogus = tmp_path / "bogus.ckpt"
        save_checkpoint(bogus, "bogus", load_checkpoint(ckpt)[1])
        assert main(["generate", "--data-dir", str(data), "--checkpoint", str(bogus),
                     "--out", str(tmp_path / "gen.jsonl"), "--beam", "1"]) == 1
        assert capsys.readouterr().err == f"error: {UNKNOWN_VARIANT.format('bogus')}\n"

    @pytest.mark.parametrize("case", ["generate --out", "generate --trace-dir",
                                      "trace --out-dir", "train --checkpoint",
                                      "train --log-path", "synth-data --out"])
    def test_unwritable_output_path_fails_cleanly(self, workspace, tmp_path, capsys,
                                                  monkeypatch, case):
        _, data, ckpt = workspace
        a_file = tmp_path / "o.jsonl"
        a_file.write_text("")
        missing = tmp_path / "nonexistent"
        decode = ["--data-dir", str(data), "--checkpoint", str(ckpt)]
        train = ["train", "--data-dir", str(data), "--hidden-dim", "8", "--embed-dim", "8",
                 "--attn-dim", "6", "--epochs", "1"]
        argv, path, reason = {
            "generate --out": (["generate", *decode, "--out", str(missing / "o.jsonl")],
                               missing / "o.jsonl", "No such file or directory"),
            "generate --trace-dir": (["generate", *decode, "--out", str(tmp_path / "g.jsonl"),
                                      "--trace-dir", str(a_file)], a_file, "File exists"),
            "trace --out-dir": (["trace", *decode, "--out-dir", str(a_file / "sub")],
                                a_file / "sub", "Not a directory"),
            "train --checkpoint": (train + ["--checkpoint", str(missing / "c.ckpt")],
                                   missing, "No such file or directory"),
            "train --log-path": (train + ["--checkpoint", str(tmp_path / "c.ckpt"),
                                          "--log-path", str(missing / "log.jsonl")],
                                 missing, "No such file or directory"),
            "synth-data --out": (["synth-data", "--out", str(a_file / "sub")],
                                 a_file / "sub" / "features", "Not a directory"),
        }[case]
        work = []
        for search in ("beam_search", "greedy_decode"):
            monkeypatch.setattr(capgen.cli, search, lambda *a, **k: work.append(a))
        if case.startswith("train"):
            monkeypatch.setattr(Dataset, "features", lambda self, sample: work.append(sample))
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {path}: {reason}\n"
        assert work == []    # failed before decoding, or before training loaded features

    @pytest.mark.parametrize("command, flag, value", [
        ("generate", "--beam", "0"), ("generate", "--beam", "-2"),
        ("generate", "--max-len", "0"), ("trace", "--max-len", "0"),
        ("trace", "--max-len", "-1")])
    def test_search_size_below_one_fails_before_anything_is_made(self, workspace, tmp_path,
                                                                 capsys, monkeypatch,
                                                                 command, flag, value):
        _, data, ckpt = workspace
        loaded = []
        monkeypatch.setattr(Dataset, "load", lambda *a: loaded.append(a))
        monkeypatch.setattr(capgen.cli, "load_checkpoint", lambda *a: loaded.append(a))
        out, traces = tmp_path / "gen.jsonl", tmp_path / "traces"
        argv = [command, "--data-dir", str(data), "--checkpoint", str(ckpt), flag, value]
        argv += (["--out", str(out), "--trace-dir", str(traces)] if command == "generate"
                 else ["--out-dir", str(traces)])
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {flag} must be at least 1, got {value}\n"
        assert loaded == [] and list(tmp_path.iterdir()) == []

    def test_evaluate_candidate_without_refs_fails_cleanly(self, tmp_path, capsys):
        cands = tmp_path / "cands.jsonl"
        cands.write_text('{"id": "a", "caption": "a dog"}\n'
                         '{"id": "b", "caption": "a cat"}\n')
        refs = tmp_path / "refs.jsonl"
        refs.write_text('{"id": "a", "refs": ["a dog runs"]}\n')
        assert main(["evaluate", "--candidates", str(cands), "--refs", str(refs)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'b'" in err

    def test_evaluate_takes_string_and_integer_ids(self, tmp_path):
        cands = tmp_path / "cands.jsonl"
        cands.write_text('{"id": "a", "caption": "a dog"}\n{"id": 1, "caption": "a cat"}\n')
        refs = tmp_path / "refs.jsonl"
        refs.write_text('{"id": 1, "refs": ["a cat"]}\n{"id": "a", "refs": ["a dog"]}\n')
        out = tmp_path / "scores.json"
        assert main(["evaluate", "--candidates", str(cands), "--refs", str(refs),
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["bleu1"] == 1.0

    @pytest.mark.parametrize("command", ["evaluate", "build-vocab"])
    @pytest.mark.parametrize("refs_text,message", [
        (None, "No such file"),
        ('{"id": "a", "refs": ["a dog"]}\n{"id": "b", "refs": [\n', ":2: not JSON"),
        ('{"id": "a", "captions": ["a dog"]}\n', ":1: expected an object"),
        ('["a dog"]\n', ":1: expected an object"),
        ('{"id": "a", "refs": "a dog"}\n', ":1: 'refs' must be a list of strings"),
        ('\n{"id": "a", "refs": ["a dog", 3]}\n', ":2: 'refs' must be a list of strings"),
    ], ids=["missing", "not-json", "no-refs", "not-object", "refs-string", "refs-number"])
    def test_bad_refs_file_fails_cleanly(self, tmp_path, capsys, command, refs_text, message):
        refs = tmp_path / "refs.jsonl"
        if refs_text is not None:
            refs.write_text(refs_text)
        cands = tmp_path / "cands.jsonl"
        cands.write_text('{"id": "a", "caption": "a dog"}\n')
        argv = (["evaluate", "--candidates", str(cands), "--refs", str(refs)]
                if command == "evaluate" else
                ["build-vocab", "--refs", str(refs), "--out", str(tmp_path / "v.json")])
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {refs}") and message in err
        assert not (tmp_path / "v.json").exists()

    @pytest.mark.parametrize("cands_text,message", [
        ('{"id": "a", "text": "a dog"}\n', ":1: expected an object"),
        ('{"caption": "a dog"}\n', ":1: expected an object"),
        ('{"id": "a", "caption": ["a", "dog"]}\n', ":1: 'caption' must be a string"),
        ("a dog\n", ":1: not JSON"),
    ], ids=["no-caption", "no-id", "caption-list", "not-json"])
    def test_bad_candidates_file_fails_cleanly(self, tmp_path, capsys, cands_text, message):
        cands = tmp_path / "cands.jsonl"
        cands.write_text(cands_text)
        refs = tmp_path / "refs.jsonl"
        refs.write_text('{"id": "a", "refs": ["a dog runs"]}\n')
        assert main(["evaluate", "--candidates", str(cands), "--refs", str(refs)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cands}") and message in err
