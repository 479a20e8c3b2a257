import struct

import numpy as np
import pytest

from capgen.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from capgen.decoders import VARIANTS
from capgen.errors import ContractError, FormatError, ShapeError, VocabularyError
from capgen.gradcheck import check_gradients
from capgen.layers import Embedding, Linear, LstmCell, Module, dropout_mask, glorot
from capgen.tensor import Tape, Tensor, backward, sum_all, zeros
from capgen.testkit import tiny_decoder


def lstm_cells(module, prefix=""):
    """The parameter-name prefixes of every ``LstmCell`` inside ``module``."""
    for name, value in vars(module).items():
        if isinstance(value, LstmCell):
            yield prefix + name
        elif isinstance(value, Module):
            yield from lstm_cells(value, f"{prefix}{name}.")


def zeroed_cell(input_dim=1, hidden=1):
    cell = LstmCell(input_dim, hidden, np.random.default_rng(0))
    for p in cell.parameters().values():
        p.data[:] = 0.0
    return cell


class TestLstmCell:
    def test_all_zero_weights(self):
        cell = zeroed_cell()
        out = cell.step(cell.input_products(Tensor([[0.3]])), zeros(1, 1), zeros(1, 1))
        # i = f = o = 0.5, g = 0 so both outputs vanish
        np.testing.assert_array_equal(out.h.data, [[0.0]])
        np.testing.assert_array_equal(out.m.data, [[0.0]])

    def test_saturated_forget_gate_preserves_memory(self):
        cell = zeroed_cell()
        cell.b.data[1:2] = 50.0     # the forget slice b[H:2H]
        out = cell.step(cell.input_products(Tensor([[0.0]])), zeros(1, 1), Tensor([[1.0]]))
        np.testing.assert_allclose(out.m.data, [[1.0]], atol=1e-3)

    def test_forget_bias_initialized_to_one(self, rng):
        cell = LstmCell(3, 4, rng)
        np.testing.assert_array_equal(cell.b.data[4:8], np.ones(4))
        np.testing.assert_array_equal(cell.b.data[:4], np.zeros(4))

    def test_init_stacks_the_gate_blocks_in_draw_order(self):
        """Each gate's W and U blocks are drawn in ``GATES`` order, W before
        U, and stacked, so a seeded cell holds the per-gate weights."""
        cell = LstmCell(3, 4, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        blocks = [(glorot(rng, 4, 3).data, glorot(rng, 4, 4).data) for _ in LstmCell.GATES]
        assert np.array_equal(cell.W.data, np.concatenate([w for w, _ in blocks]))
        assert np.array_equal(cell.U.data, np.concatenate([u for _, u in blocks]))
        assert (cell.W.shape, cell.U.shape, cell.b.shape) == ((16, 3), (16, 4), (16,))

    def test_dimension_error_names_gate_block(self):
        cell = LstmCell(3, 4, np.random.default_rng(0))
        with pytest.raises(ShapeError, match="weight W"):
            cell.input_products(Tensor([[1.0, 2.0]]))
        products = cell.input_products(Tensor([[1.0, 2.0, 3.0]]))
        with pytest.raises(ShapeError, match="weight U"):
            cell.step(products, zeros(1, 3), zeros(1, 4))
        with pytest.raises(ShapeError, match="input products"):
            cell.step(Tensor([[1.0, 2.0, 3.0]]), zeros(1, 4), zeros(1, 4))

    def test_input_products_of_a_sequence_batch_match_each_step(self, rng):
        cell = LstmCell(3, 4, rng)
        ys = Tensor(rng.standard_normal((5, 2, 3)))
        seq = cell.input_products(ys)
        for t in range(5):
            step = cell.input_products(Tensor(ys.data[t]))
            np.testing.assert_allclose(seq.data[t], step.data, rtol=1e-14, atol=1e-15)
        with pytest.raises(ShapeError, match="weight W"):
            cell.input_products(Tensor(rng.standard_normal(3)))

    def test_input_products_of_a_sequence_batch_record_one_node(self, rng):
        cell = LstmCell(3, 4, rng)
        ys = Tensor(rng.standard_normal((5, 2, 3)), requires_grad=True)
        with Tape() as tape:
            products = cell.input_products(ys)
            assert len(tape.nodes) == 1
        assert products.shape == (5, 2, 16)

    def test_hidden_output_strictly_inside_unit_interval(self, rng):
        cell = LstmCell(5, 7, rng)
        for _ in range(20):
            out = cell.step(cell.input_products(Tensor(rng.standard_normal((2, 5)) * 3)),
                            Tensor(rng.standard_normal((2, 7))),
                            Tensor(rng.standard_normal((2, 7))))
            assert np.all(np.abs(out.h.data) < 1.0)

    def test_gradcheck_all_three_weights(self, rng):
        cell = LstmCell(4, 4, rng)
        y = Tensor(rng.standard_normal((2, 4)))
        h0 = Tensor(rng.standard_normal((2, 4)))
        m0 = Tensor(rng.standard_normal((2, 4)))
        params = cell.parameters()
        assert list(params) == ["W", "U", "b"]

        def loss():
            out = cell.step(cell.input_products(y), h0, m0)
            return sum_all(out.h)

        assert check_gradients(loss, params) < 1e-4


class TestEmbedding:
    def test_identity_rows(self, rng):
        emb = Embedding(3, 3, rng)
        emb.E.data[:] = np.eye(3)
        np.testing.assert_array_equal(emb.lookup([2]).data, [[0.0, 0.0, 1.0]])

    def test_repeated_ids_accumulate_gradient(self, rng):
        emb = Embedding(3, 2, rng)
        with Tape():
            backward(sum_all(emb.lookup([0, 0])))
        np.testing.assert_array_equal(emb.E.grad[0], [2.0, 2.0])
        np.testing.assert_array_equal(emb.E.grad[1:], np.zeros((2, 2)))

    def test_out_of_range_id(self, rng):
        emb = Embedding(5, 2, rng)
        with pytest.raises(VocabularyError, match="7"):
            emb.lookup([1, 7])

    def test_gather_gradcheck(self, rng):
        emb = Embedding(6, 3, rng)
        assert check_gradients(lambda: sum_all(emb.lookup([4, 1, 4]) * emb.lookup([0, 2, 5])),
                               emb.parameters()) < 1e-4


class TestDropout:
    def test_inference_identity_bitwise(self):
        assert dropout_mask((100,), 0.9, None) is None

    def test_rate_zero_identity(self, rng):
        assert dropout_mask((10,), 0.0, rng) is None

    def test_invalid_rate(self):
        with pytest.raises(ContractError):
            dropout_mask((1,), 1.0, np.random.default_rng(0))

    def test_inverted_scaling_keeps_mean(self):
        mask = dropout_mask((10_000,), 0.5, np.random.default_rng(7))
        assert 0.95 <= mask.mean() <= 1.05
        survivors = mask[mask != 0.0]
        np.testing.assert_allclose(survivors, 2.0)


class TestCheckpoint:
    def test_round_trip(self, tmp_path, rng):
        arrays = {"layer.W": rng.standard_normal((3, 4)),
                  "layer.b": rng.standard_normal(4),
                  "scalar": np.asarray(2.5)}
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, "hlstmat_temporal", arrays)
        variant, loaded = load_checkpoint(path)
        assert variant == "hlstmat_temporal"
        assert set(loaded) == set(arrays)
        for k in arrays:
            np.testing.assert_array_equal(loaded[k], arrays[k])

    def test_magic_bytes(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, "da", {"w": np.zeros(2)})
        assert path.read_bytes()[:8] == MAGIC

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, "basic", {"w": np.ones(8)})
        data = path.read_bytes()
        path.write_bytes(data[:-12])
        with pytest.raises(FormatError, match="expected"):
            load_checkpoint(path)

    def test_dims_past_the_end_fail_before_allocating(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(MAGIC + struct.pack("<I", 5) + b"basic" + struct.pack("<I", 1)
                         + struct.pack("<I", 1) + b"w" + struct.pack("<3I", 2, 2**20, 2**20)
                         + struct.pack("<d", 1.0))   # 2**40 items claimed, 1 present
        with pytest.raises(FormatError, match=f"expected {8 * 2**40} bytes, got 8 "):
            load_checkpoint(path)

    def test_loaded_arrays_own_the_saved_bytes(self, tmp_path, rng):
        """Every record loads as a new writable, C-contiguous ``<f8``
        array holding the saved bytes: rank 0, 1 and 2, empty records,
        renamed DA records and stacked per-gate records alike."""
        arrays = {"meta/epoch": np.asarray(3.0), "b": rng.standard_normal(5),
                  "W": rng.standard_normal((3, 4)), "none": np.zeros(0),
                  "no_rows": np.zeros((0, 4)), "W_s": rng.standard_normal((2, 3))}
        quartet = {f"lstm.U_{g}": rng.standard_normal((2, 2)) for g in LstmCell.GATES}
        save_checkpoint(tmp_path / "model.ckpt", "da", {**arrays, **quartet})
        _, loaded = load_checkpoint(tmp_path / "model.ckpt")
        want = {"sentinel.U_a" if name == "W_s" else name: arr for name, arr in arrays.items()}
        want["lstm.U"] = np.concatenate(list(quartet.values()))
        assert set(loaded) == set(want)
        for name, arr in loaded.items():
            assert arr.flags.owndata and arr.flags.writeable and arr.flags.c_contiguous, name
            assert arr.dtype == np.dtype("<f8") and arr.shape == want[name].shape, name
            assert arr.tobytes() == want[name].tobytes(), name

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, "basic", {"w": np.ones(8)})
        size = len(path.read_bytes())
        with open(path, "ab") as fh:
            fh.write(b"trailing junk")
        with pytest.raises(FormatError, match=f"trailing bytes .* byte offset {size}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("tag,name,offset", [(b"\xff", b"w", 12),
                                                  (b"basic", b"w\xff", 25)])
    def test_name_not_utf8_rejected(self, tmp_path, tag, name, offset):
        path = tmp_path / "model.ckpt"
        path.write_bytes(MAGIC + struct.pack("<I", len(tag)) + tag + struct.pack("<I", 1)
                         + struct.pack("<I", len(name)) + name + struct.pack("<I", 0)
                         + struct.pack("<d", 1.0))
        what = "variant tag" if tag == b"\xff" else "name"
        with pytest.raises(FormatError, match=f"{what} is not UTF-8 .at byte offset {offset}."):
            load_checkpoint(path)

    def test_older_da_record_names_are_renamed(self, tmp_path):
        renames = {"attn1.W_v": "attn1.U_a", "attn1.W_h": "attn1.W_a",
                   "attn2.W_v": "attn2.U_a", "attn2.W_h": "attn2.W_a",
                   "W_s": "sentinel.U_a", "W_h3": "sentinel.W_a", "w_a": "sentinel.w"}
        kept = ["W_h", "attn1.w", "opt/W_h/Eg", "opt/t", "meta/epoch"]
        old = list(renames) + [f"opt/{k}/Ex" for k in renames] + kept
        new = list(renames.values()) + [f"opt/{v}/Ex" for v in renames.values()] + kept
        arrays = {name: np.full(2, float(i)) for i, name in enumerate(old)}
        for variant, names in (("da", new), ("basic", old)):  # only DA's are renamed
            save_checkpoint(tmp_path / "model.ckpt", variant, arrays)
            _, loaded = load_checkpoint(tmp_path / "model.ckpt")
            assert list(loaded) == names
            for name, want in zip(names, arrays.values()):
                assert np.array_equal(loaded[name], want), name

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_per_gate_lstm_records_are_stacked(self, tmp_path, rng, variant):
        """A file written when each LSTM held one record per gate and
        weight, ``<cell>.W_i`` ... ``<cell>.b_g``, with adadelta state
        ``opt/<cell>.W_i/Eg`` ..., loads as the stacked records, bit for
        bit; a lone gate record stays as it is."""
        dec, _ = tiny_decoder(variant)
        arrays = {name: p.data for name, p in dec.parameters().items()}
        for name, p in dec.parameters().items():
            for slot in ("Eg", "Ex"):
                arrays[f"opt/{name}/{slot}"] = rng.random(p.shape)
        arrays["meta/epoch"] = np.asarray(3.0)
        arrays["extra.W_i"] = rng.standard_normal(3)
        stacked = {f"{cell}.{leaf}" for cell in lstm_cells(dec) for leaf in ("W", "U", "b")}
        assert len(stacked) == 3 * {"basic": 1, "two_stream": 4}.get(variant, 2)
        legacy = {}
        for name, arr in arrays.items():
            param = name.split("/")[1] if name.startswith("opt/") else name
            if param not in stacked:
                legacy[name] = arr
                continue
            for k, block in enumerate(np.split(arr, 4)):
                legacy[name.replace(param, f"{param}_{'ifog'[k]}")] = block
        save_checkpoint(tmp_path / "old.ckpt", variant, legacy)
        loaded_variant, loaded = load_checkpoint(tmp_path / "old.ckpt")
        assert loaded_variant == variant
        assert loaded.keys() == arrays.keys()
        for name, arr in arrays.items():
            assert np.array_equal(loaded[name], arr), name
        dec.load_arrays(loaded)

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, rng):
        path = tmp_path / "model.ckpt"
        good = {"w": rng.standard_normal((2, 3))}
        save_checkpoint(path, "basic", good)
        # the first array is written before the second fails to convert
        bad = {"w": np.zeros((2, 3)), "v": np.array(["not a number"], dtype=object)}
        with pytest.raises(ValueError):
            save_checkpoint(path, "basic", bad)
        variant, loaded = load_checkpoint(path)
        assert variant == "basic"
        np.testing.assert_array_equal(loaded["w"], good["w"])
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def struct_encoding(variant: str, arrays: dict) -> bytes:
    """The checkpoint layout encoded field by field with ``struct`` and
    ``astype("<f8").tobytes()``."""
    tag = variant.encode()
    out = [MAGIC, struct.pack("<I", len(tag)), tag, struct.pack("<I", len(arrays))]
    for name, arr in arrays.items():
        arr = np.asarray(arr, dtype=np.float64)
        nb = name.encode()
        out += [struct.pack("<I", len(nb)), nb, struct.pack("<I", arr.ndim)]
        out += [struct.pack("<I", d) for d in arr.shape]
        out.append(arr.astype("<f8").tobytes())
    return b"".join(out)


def test_checkpoint_bytes_match_the_struct_encoding(tmp_path, rng):
    wide = rng.standard_normal((4, 6))
    arrays = {"f64": rng.standard_normal((3, 4)),
              "f32": rng.standard_normal(5).astype(np.float32),
              "strided": wide[:, ::2],
              "transposed": wide.T,
              "big_endian": rng.standard_normal((2, 3)).astype(">f8"),
              "scalar": np.asarray(2.5),
              "empty": np.zeros((0, 3))}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, "para", arrays)
    assert path.read_bytes() == struct_encoding("para", arrays)


def test_module_parameters_walk_attributes_in_assignment_order():
    class Inner(Module):
        def __init__(self):
            self.W = Tensor(np.ones(2), requires_grad=True)
            self.fixed = Tensor(np.ones(2))

    class Outer(Module):
        def __init__(self):
            self.z = Tensor(np.zeros(1), requires_grad=True)
            self.inner = Inner()
            self.absent = None
            self.width = 3
            self.proj = Linear(2, 3, np.random.default_rng(0), bias=False)
            self.a = Tensor(np.zeros(1), requires_grad=True)

    outer = Outer()
    params = outer.parameters()
    assert list(params) == ["z", "inner.W", "proj.W", "a"]
    assert params["inner.W"] is outer.inner.W
