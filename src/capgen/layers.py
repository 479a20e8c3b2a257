"""Neural building blocks: LSTM cell, word embedding, affine maps, dropout masks."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ContractError, FormatError, ShapeError, VocabularyError
from .tensor import Tensor, lstm_cell, matmul_t, narrow, take_rows

__all__ = ["Module", "LstmCell", "LstmOut", "Embedding", "Linear", "dropout_mask", "glorot"]


def glorot(rng: np.random.Generator, rows: int, cols: int) -> Tensor:
    """Uniform(-a, a) init with a = sqrt(6 / (fan_in + fan_out))."""
    a = np.sqrt(6.0 / (rows + cols))
    return Tensor(rng.uniform(-a, a, size=(rows, cols)), requires_grad=True)


class Module:
    """Anything that owns trainable tensors.

    ``parameters()`` walks ``vars(self)`` in assignment order.  A
    ``Tensor`` with ``requires_grad`` is a parameter named by its
    attribute; a ``Module`` attribute is walked in turn and its names get
    the prefix ``"<attribute>."``; any other value, ``None`` included, is
    skipped.  Checkpoint records are stored under these names, so renaming
    or reordering attributes changes which checkpoints load.
    """

    def parameters(self) -> dict[str, Tensor]:
        out = {}
        for name, value in vars(self).items():
            if isinstance(value, Tensor) and value.requires_grad:
                out[name] = value
            elif isinstance(value, Module):
                for sub, p in value.parameters().items():
                    out[f"{name}.{sub}"] = p
        return out

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Copy each parameter's record from ``arrays``, ignoring extra ones.
        A missing record or a shape mismatch raises ``FormatError`` naming
        the record, before any parameter is written."""
        params = self.parameters()
        for name, p in params.items():
            if name not in arrays:
                raise FormatError(f"checkpoint has no record {name!r}")
            if arrays[name].shape != p.data.shape:
                raise FormatError(f"checkpoint record {name!r} has shape {arrays[name].shape}, "
                                  f"the model expects {p.data.shape}")
        for name, p in params.items():
            p.data[...] = arrays[name]


class LstmOut(NamedTuple):
    """One LSTM step's hidden output and memory."""
    h: Tensor
    m: Tensor


class LstmCell(Module):
    """Single LSTM cell whose four gates share one weight per input.

    i/f/o are sigmoid gates, g the tanh candidate; the memory update is
    m_t = f*m_prev + i*g and the output h_t = o*tanh(m_t).  ``W`` (4H,
    input_dim), ``U`` (4H, H) and ``b`` (4H) stack the gates' blocks in
    ``GATES`` order, so rows [k*H, (k+1)*H) belong to gate ``GATES[k]``.
    The forget slice of ``b`` starts at 1.0 to keep early training stable.

    ``step`` runs n states as (n, H) matrices on the step's (n, 4H) input
    products W y (``input_products``).  They do not depend on the
    recurrence, so when a batch's input sequences are known up front, one
    tape node gives them for all T steps at once; where the input feeds
    back (decoding, DA's first LSTM), ``input_products`` of one step's
    (n, input_dim) rows gives that step's products.
    """

    GATES = ("i", "f", "o", "g")

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        # drawn gate by gate, W then U, as the per-gate layout drew them: a seed keeps its weights
        blocks = [(glorot(rng, hidden_dim, input_dim), glorot(rng, hidden_dim, hidden_dim))
                  for _ in self.GATES]
        self.W = Tensor(np.concatenate([w.data for w, _ in blocks]), requires_grad=True)
        self.U = Tensor(np.concatenate([u.data for _, u in blocks]), requires_grad=True)
        self.b = Tensor(np.zeros(4 * hidden_dim), requires_grad=True)
        self.b.data[hidden_dim:2 * hidden_dim] = 1.0

    def input_products(self, ys: Tensor) -> Tensor:
        """``ys @ W.T``, one ``matmul_t`` for all four gates: a (T, B,
        input_dim) batch of input sequences -> (T, B, 4H), one step's (B,
        input_dim) inputs -> (B, 4H)."""
        if ys.data.ndim not in (2, 3) or ys.shape[-1] != self.W.shape[1]:
            raise ShapeError(f"input weight W expects (T, B, {self.W.shape[1]}) or "
                             f"(B, {self.W.shape[1]}) inputs, got {ys.shape}")
        return matmul_t(ys, self.W)

    def step(self, x: Tensor, h_prev: Tensor, m_prev: Tensor) -> LstmOut:
        """One step of (n, H) states from the step's (n, 4H) input products
        ``x``, in four tape nodes: the pre-activations (U h_prev + W y) + b
        of all four gates are one ``matmul_t`` with the two addends folded
        in, ``tensor.lstm_cell`` runs the gates and the memory update on
        them as one node, and two ``narrow``s split its [h | m]."""
        H = self.U.shape[1]
        if h_prev.data.ndim != 2 or h_prev.shape[1] != H:
            raise ShapeError(f"recurrent weight U expects (n, {H}) hidden rows, got {h_prev.shape}")
        if m_prev.shape != h_prev.shape:
            raise ShapeError(f"memory block expects shape {h_prev.shape}, got {m_prev.shape}")
        if x.shape != (h_prev.shape[0], 4 * H):
            raise ShapeError(f"a step takes (n, 4H) input products, got {x.shape}")
        hm = lstm_cell(matmul_t(h_prev, self.U, x, self.b), m_prev)
        return LstmOut(narrow(hm, 0, H), narrow(hm, H, H))


class Embedding(Module):
    """Row-lookup word embedding E of shape (vocab_size, dim)."""

    def __init__(self, vocab_size: int, dim: int, rng: np.random.Generator):
        self.vocab_size = vocab_size
        self.E = glorot(rng, vocab_size, dim)

    def lookup(self, ids) -> Tensor:
        """Gather rows for an array of ids: (len,) ids -> (len, dim), and
        (T, B) ids -> (T, B, dim)."""
        ids = np.asarray(ids, dtype=np.intp)
        bad = ids[(ids < 0) | (ids >= self.vocab_size)]
        if bad.size:
            raise VocabularyError(
                f"token id {int(bad[0])} outside vocabulary of size {self.vocab_size}")
        return take_rows(self.E, ids)

    def lookup_one(self, ids) -> Tensor:
        """One decoding step's rows: a sequence of n token ids -> (n, dim)."""
        for idx in ids:
            if not 0 <= idx < self.vocab_size:
                raise VocabularyError(
                    f"token id {idx} outside vocabulary of size {self.vocab_size}")
        return take_rows(self.E, ids)


class Linear(Module):
    """Affine map y = W x (+ b), applied to each row of an (n, in_dim)
    matrix."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 bias: bool = True):
        self.W = glorot(rng, out_dim, in_dim)
        self.b = Tensor(np.zeros(out_dim), requires_grad=True) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        """The map of (n, in_dim) rows: one ``matmul_t`` with the bias."""
        return matmul_t(x, self.W, *(() if self.b is None else (self.b,)))


def dropout_mask(shape, rate: float, rng: np.random.Generator | None) -> np.ndarray | None:
    """Inverted-dropout mask of ``shape`` drawn from ``rng``: 0 with prob
    ``rate``, else 1/(1-rate).  None when dropout is off: no ``rng``
    (decoding, validation), or rate 0, which draws nothing."""
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout rate must lie in [0, 1), got {rate}")
    if rng is None or rate == 0.0:
        return None
    return (rng.random(shape) >= rate) / (1.0 - rate)
