"""Dense float64 tensors with reverse-mode automatic differentiation.

A ``Tape`` records one forward computation.  Ops executed while a tape is
active append nodes in topological order; ``backward()`` on a scalar
result then walks the recorded nodes once, in reverse, and accumulates
gradients into every ``requires_grad`` leaf.  Ops executed with no active
tape are plain forward arithmetic, which keeps inference and
finite-difference probing cheap.

Leaf gradients from rank-1 products and row gathers are deferred.  A
``matmul`` with a vector on one side hands back the two factors of its
outer-product weight gradient, and ``take_row``/``take_rows`` hand back
the gathered row ids with their gradient rows.  When the input is a
recorded node the factors are expanded into a dense array on the spot,
so every other op sees plain ndarrays.  When the input is a leaf,
``backward()`` collects the factors during the reverse sweep and adds
them once at the end: one ``(m, T) @ (T, n)`` product per weight and one
``np.add.at`` scatter per gathered matrix, instead of a dense ``(m, n)``
array per time step.  ``.grad`` is a dense ndarray once ``backward()``
returns, and repeated calls keep accumulating into it.

Conventions:
  * float64 everywhere; at desk scale precision is worth more than speed.
  * no implicit broadcasting.  Binary ops demand identical shapes; the
    only sanctioned mixed forms are tensor-with-python-number and
    tensor-with-scalar-tensor (size 1).  Everything else raises
    ``ShapeError`` so that a mis-shaped equation fails loudly.
  * a tape and its tensors belong to one thread; independent tapes may
    run concurrently on other threads.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DomainError, ShapeError

__all__ = [
    "Tensor", "Tape", "backward", "zeros",
    "add", "sub", "mul", "neg", "matmul", "transpose",
    "sigmoid", "tanh", "log", "softmax",
    "concat", "sum_all", "mean_rows", "add_rowvec",
    "take_rows", "take_row", "at", "narrow", "pick_per_row",
    "stack_rows", "reshape",
]

_STATE = threading.local()


def _active_tape():
    return getattr(_STATE, "tape", None)


class Tensor:
    """A dense multi-dimensional float64 value, optionally on a tape."""

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        if type(data) is np.ndarray and data.dtype == np.float64:
            self.data = data
        else:
            self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self.node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    # operator sugar; scalars are the one allowed mixed form
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("inputs", "grad_fn", "out", "tape", "index")

    def __init__(self, inputs, grad_fn, out, tape, index):
        self.inputs = inputs
        self.grad_fn = grad_fn
        self.out = out
        self.tape = tape
        self.index = index


class Tape:
    """Append-only record of one forward computation.

    Use as a context manager; ops run inside record nodes whose inputs
    always precede them, so a single reverse sweep is a valid backward
    pass.  Only one tape may be active per thread.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self.active = False

    def __enter__(self) -> "Tape":
        if _active_tape() is not None:
            raise ContractError("a tape is already active on this thread")
        _STATE.tape = self
        self.active = True
        return self

    def __exit__(self, exc_type, exc, tb):
        _STATE.tape = None
        self.active = False
        return False


def _record(out: Tensor, inputs: tuple, grad_fn: Callable) -> Tensor:
    tape = getattr(_STATE, "tape", None)
    if tape is not None:
        for t in inputs:
            if t.requires_grad:
                out.requires_grad = True
                node = _Node(inputs, grad_fn, out, tape, len(tape.nodes))
                out.node = node
                tape.nodes.append(node)
                break
    return out


class _Factor:
    """A leaf gradient kept in factored form until the end of ``backward``."""

    __slots__ = ()


class _Outer(_Factor):
    """``np.outer(u, v)``: the gradient of the matrix in a matrix-vector product."""

    __slots__ = ("u", "v")

    def __init__(self, u: np.ndarray, v: np.ndarray):
        self.u = u
        self.v = v

    def dense(self, shape) -> np.ndarray:
        return np.outer(self.u, self.v)


class _Rows(_Factor):
    """Zero except for rows ``idx`` of the source, which receive ``g``."""

    __slots__ = ("idx", "g")

    def __init__(self, idx, g: np.ndarray):
        self.idx = idx
        self.g = g

    def dense(self, shape) -> np.ndarray:
        out = np.zeros(shape, dtype=np.float64)
        np.add.at(out, self.idx, self.g)
        return out


def _add_factors(t: Tensor, factors: list) -> None:
    """Sum one leaf's factors into its grad: one GEMM and one scatter."""
    outers = [f for f in factors if type(f) is _Outer]
    rows = [f for f in factors if type(f) is _Rows]
    if outers:
        ww = np.stack([f.u for f in outers], axis=1) @ np.stack([f.v for f in outers])
        if t.grad is None:
            t.grad = ww
        else:
            t.grad += ww
    if rows:
        if t.grad is None:
            t.grad = np.zeros_like(t.data)
        tail = t.data.shape[1:]
        np.add.at(t.grad, np.concatenate([np.reshape(f.idx, -1) for f in rows]),
                  np.concatenate([np.reshape(f.g, (-1,) + tail) for f in rows]))


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every requires_grad leaf.

    Deferred leaf factors (see the module docstring) are summed once per
    leaf after the sweep.  Repeated calls keep accumulating until the
    leaves' grads are zeroed.
    """
    if loss.data.shape != ():
        raise ContractError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    node = loss.node
    if node is None:
        raise ContractError("loss tensor is not recorded on a tape")
    pending = {id(loss): np.ones((), dtype=np.float64)}
    deferred: dict[int, tuple[Tensor, list]] = {}
    for n in reversed(node.tape.nodes[: node.index + 1]):
        g = pending.pop(id(n.out), None)
        if g is None:
            continue
        for t, gt in zip(n.inputs, n.grad_fn(g)):
            if gt is None:
                continue
            if t.node is not None:
                if isinstance(gt, _Factor):
                    gt = gt.dense(t.data.shape)
                k = id(t)
                if k in pending:
                    pending[k] = pending[k] + gt
                else:
                    pending[k] = gt
            elif t.requires_grad:
                if isinstance(gt, _Factor):
                    deferred.setdefault(id(t), (t, []))[1].append(gt)
                    continue
                if t.grad is None:
                    t.grad = np.zeros_like(t.data)
                t.grad += gt
    for t, factors in deferred.values():
        _add_factors(t, factors)


def zeros(*shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float64), requires_grad=requires_grad)


def _is_scalar_tensor(t: Tensor) -> bool:
    return t.data.size == 1


def _reduce_to(g: np.ndarray, shape) -> np.ndarray:
    # collapse a full-shape gradient back onto a size-1 operand
    return np.sum(g).reshape(shape)


def _binary_shapes(name: str, a: Tensor, b: Tensor) -> None:
    if a.data.shape != b.data.shape and not (_is_scalar_tensor(a) or _is_scalar_tensor(b)):
        raise ShapeError(f"{name}: shapes {a.data.shape} and {b.data.shape} differ")


def add(a, b) -> Tensor:
    if isinstance(b, (int, float)) and isinstance(a, Tensor):
        out = Tensor(a.data + b)
        return _record(out, (a,), lambda g: (g,))
    if isinstance(a, (int, float)):
        return add(b, a)
    _binary_shapes("add", a, b)
    out = Tensor(a.data + b.data)

    def grad_fn(g):
        ga = gb = None
        if a.requires_grad:
            ga = g if a.data.shape == g.shape else _reduce_to(g, a.data.shape)
        if b.requires_grad:
            gb = g if b.data.shape == g.shape else _reduce_to(g, b.data.shape)
        return ga, gb

    return _record(out, (a, b), grad_fn)


def sub(a, b) -> Tensor:
    if isinstance(b, (int, float)) and isinstance(a, Tensor):
        out = Tensor(a.data - b)
        return _record(out, (a,), lambda g: (g,))
    if isinstance(a, (int, float)):
        out = Tensor(a - b.data)
        return _record(out, (b,), lambda g: (-g,))
    _binary_shapes("sub", a, b)
    out = Tensor(a.data - b.data)

    def grad_fn(g):
        ga = gb = None
        if a.requires_grad:
            ga = g if a.data.shape == g.shape else _reduce_to(g, a.data.shape)
        if b.requires_grad:
            gb = -g if b.data.shape == g.shape else -_reduce_to(g, b.data.shape)
        return ga, gb

    return _record(out, (a, b), grad_fn)


def mul(a, b) -> Tensor:
    if isinstance(b, (int, float)) and isinstance(a, Tensor):
        out = Tensor(a.data * b)
        return _record(out, (a,), lambda g: (g * b,))
    if isinstance(a, (int, float)):
        return mul(b, a)
    _binary_shapes("mul", a, b)
    out = Tensor(a.data * b.data)

    def grad_fn(g):
        ga = gb = None
        if a.requires_grad:
            ga = g * b.data
            if a.data.shape != out.data.shape:
                ga = _reduce_to(ga, a.data.shape)
        if b.requires_grad:
            gb = g * a.data
            if b.data.shape != out.data.shape:
                gb = _reduce_to(gb, b.data.shape)
        return ga, gb

    return _record(out, (a, b), grad_fn)


def neg(a: Tensor) -> Tensor:
    out = Tensor(-a.data)
    return _record(out, (a,), lambda g: (-g,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if ad.ndim not in (1, 2) or bd.ndim not in (1, 2):
        raise ShapeError(f"matmul supports rank 1 or 2 operands, got {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != bd.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree: {ad.shape} @ {bd.shape}")
    out = Tensor(ad @ bd)

    def grad_fn(g):
        ga = gb = None
        if a.requires_grad:
            if bd.ndim == 2:
                ga = g @ bd.T
            elif ad.ndim == 2:          # (m,k) @ (k,) -> (m,)
                ga = _Outer(g, bd)
            else:                       # (k,) @ (k,) -> ()
                ga = g * bd
        if b.requires_grad:
            if ad.ndim == 2:
                gb = ad.T @ g
            elif bd.ndim == 2:          # (k,) @ (k,n) -> (n,)
                gb = _Outer(ad, g)
            else:
                gb = g * ad
        return ga, gb

    return _record(out, (a, b), grad_fn)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {a.data.shape}")
    out = Tensor(a.data.T)
    return _record(out, (a,), lambda g: (g.T,))


def sigmoid(a: Tensor) -> Tensor:
    # exp(-log(1+exp(-x))) is stable on both tails
    y = np.exp(-np.logaddexp(0.0, -a.data))
    out = Tensor(y)
    return _record(out, (a,), lambda g: (g * y * (1.0 - y),))


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    out = Tensor(y)
    return _record(out, (a,), lambda g: (g * (1.0 - y * y),))


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        bad = float(a.data[a.data <= 0.0].flat[0])
        raise DomainError(f"log of non-positive entry {bad}")
    out = Tensor(np.log(a.data))
    return _record(out, (a,), lambda g: (g / a.data,))


def softmax(a: Tensor) -> Tensor:
    """Stable softmax of a 1-D tensor; output sums to 1 within 1e-12."""
    x = a.data
    if x.ndim != 1:
        raise ShapeError(f"softmax expects a 1-D tensor, got shape {x.shape}")
    if x.size == 0:
        raise ShapeError("softmax of empty input")
    if not np.all(np.isfinite(x)):
        raise DomainError("softmax input contains non-finite entries")
    z = np.exp(x - x.max())
    y = z / z.sum()
    out = Tensor(y)

    def grad_fn(g):
        return (y * (g - float(np.dot(g, y))),)

    return _record(out, (a,), grad_fn)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat of zero tensors")
    ndim = tensors[0].data.ndim
    for t in tensors[1:]:
        if t.data.ndim != ndim:
            raise ShapeError(f"concat: ranks differ ({ndim} vs {t.data.ndim})")
        for ax in range(ndim):
            if ax != axis and t.data.shape[ax] != tensors[0].data.shape[ax]:
                raise ShapeError(
                    f"concat: non-axis dimension {ax} differs: "
                    f"{tensors[0].data.shape} vs {t.data.shape}"
                )
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def grad_fn(g):
        pieces = np.split(g, splits, axis=axis)
        return tuple(p if t.requires_grad else None for p, t in zip(pieces, tensors))

    return _record(out, tuple(tensors), grad_fn)


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(np.asarray(a.data.sum()))
    shape = a.data.shape
    return _record(out, (a,), lambda g: (np.broadcast_to(g, shape),))


def mean_rows(a: Tensor) -> Tensor:
    """Arithmetic mean over the rows of an (n, d) matrix -> (d,)."""
    if a.data.ndim != 2:
        raise ShapeError(f"mean_rows expects a matrix, got shape {a.data.shape}")
    n = a.data.shape[0]
    if n == 0:
        raise ShapeError("mean_rows of empty matrix")
    out = Tensor(a.data.mean(axis=0))
    return _record(out, (a,), lambda g: (np.broadcast_to(g / n, a.data.shape),))


def add_rowvec(m: Tensor, v: Tensor) -> Tensor:
    """Explicitly broadcast: add a (d,) vector to every row of an (n, d) matrix."""
    if m.data.ndim != 2 or v.data.ndim != 1 or m.data.shape[1] != v.data.shape[0]:
        raise ShapeError(f"add_rowvec: incompatible shapes {m.data.shape} and {v.data.shape}")
    out = Tensor(m.data + v.data)

    def grad_fn(g):
        return (g if m.requires_grad else None,
                g.sum(axis=0) if v.requires_grad else None)

    return _record(out, (m, v), grad_fn)


def take_rows(a: Tensor, ids) -> Tensor:
    """Gather rows of a matrix; backward scatter-adds into the source."""
    idx = np.asarray(ids, dtype=np.intp)
    out = Tensor(a.data[idx])
    return _record(out, (a,), lambda g: (_Rows(idx, g),))


def take_row(a: Tensor, i: int) -> Tensor:
    """Single row of a matrix as a (d,) vector."""
    out = Tensor(a.data[i])
    return _record(out, (a,), lambda g: (_Rows(i, g),))


def at(a: Tensor, i: int) -> Tensor:
    """Single entry of a 1-D tensor as a scalar tensor."""
    if a.data.ndim != 1:
        raise ShapeError(f"at expects a 1-D tensor, got shape {a.data.shape}")
    out = Tensor(np.asarray(a.data[i]))

    def grad_fn(g):
        ga = np.zeros_like(a.data)
        ga[i] = g
        return (ga,)

    return _record(out, (a,), grad_fn)


def narrow(a: Tensor, start: int, length: int) -> Tensor:
    """Contiguous 1-D slice [start, start+length)."""
    if a.data.ndim != 1:
        raise ShapeError(f"narrow expects a 1-D tensor, got shape {a.data.shape}")
    out = Tensor(a.data[start:start + length])

    def grad_fn(g):
        ga = np.zeros_like(a.data)
        ga[start:start + length] = g
        return (ga,)

    return _record(out, (a,), grad_fn)


def pick_per_row(a: Tensor, cols) -> Tensor:
    """out[t] = a[t, cols[t]] for a (T, n) matrix -> (T,)."""
    idx = np.asarray(cols, dtype=np.intp)
    if a.data.ndim != 2 or idx.shape != (a.data.shape[0],):
        raise ShapeError(f"pick_per_row: matrix {a.data.shape} vs {idx.shape} indices")
    rows = np.arange(a.data.shape[0])
    out = Tensor(a.data[rows, idx])

    def grad_fn(g):
        ga = np.zeros_like(a.data)
        ga[rows, idx] = g
        return (ga,)

    return _record(out, (a,), grad_fn)


def stack_rows(rows: Sequence[Tensor]) -> Tensor:
    """Stack equal-length 1-D tensors into a (T, n) matrix."""
    rows = list(rows)
    if not rows:
        raise ShapeError("stack_rows of zero rows")
    n = rows[0].data.shape
    for r in rows[1:]:
        if r.data.shape != n:
            raise ShapeError(f"stack_rows: row shapes differ ({n} vs {r.data.shape})")
    out = Tensor(np.stack([r.data for r in rows]))

    def grad_fn(g):
        return tuple(g[i] if r.requires_grad else None for i, r in enumerate(rows))

    return _record(out, tuple(rows), grad_fn)


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    orig = a.data.shape
    return _record(out, (a,), lambda g: (g.reshape(orig),))
