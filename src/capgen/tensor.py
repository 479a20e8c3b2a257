"""Dense float64 tensors with reverse-mode automatic differentiation.

A ``Tape`` records one forward computation.  Ops executed while a tape is
active append nodes in topological order; ``backward()`` on a scalar
result then walks the recorded nodes once, in reverse, and accumulates
gradients into every ``requires_grad`` leaf.  Ops executed with no active
tape are plain forward arithmetic, which keeps inference and
finite-difference probing cheap.

Leaf gradients of weight products and row gathers are deferred.  A
``matmul_t`` of a batch of B rows against a weight hands back the two
factors ``u @ v`` of its rank-B weight gradient, and ``take_rows``
hands back the gathered row ids with their gradient rows.
When the input is a recorded node the factors are expanded into a dense
array on the spot, so every other op sees plain ndarrays; row gradients
of one node are added in place into one array.
When the input is a leaf, ``backward()`` collects the factors during the
reverse sweep and adds them once at the end: one ``(m, K) @ (K, n)``
product per weight, K summed over every step and row, and one
``np.add.at`` scatter per gathered matrix, instead of a dense ``(m, n)``
array per time step.  ``.grad`` is a dense ndarray once ``backward()``
returns, and repeated calls keep accumulating into it.

A tape's graph lives until its ``with`` block ends.  ``backward`` may run
any number of times inside the block; on exit the tape unlinks every
recorded tensor from its node, so the graph is freed by reference
counting, without waiting for the cycle collector, and a tensor computed
in the block is then a plain constant.

Conventions:
  * float64 everywhere; at desk scale precision is worth more than speed.
  * no implicit broadcasting.  Binary ops demand identical shapes; the
    only sanctioned mixed forms are tensor × number and number − tensor,
    and no other form is defined.  Unequal shapes raise ``ShapeError``
    so that a mis-shaped equation fails loudly.  A leading batch axis
    goes through named ops that say how it is combined:
    ``matmul_t`` (rows, under any leading axes, against a weight, then
    added terms, a bias among them), ``additive_scores`` (each
    query row against its own keys), ``scale_rows`` (one scale per row),
    ``softmax`` with a row mask, and ``weighted_sum`` (one weighted row
    sum per batch entry).  Attention is always over a batch: n query rows,
    each over its own (L, ·) rows of an (n, L, ·) tensor.
  * 2 to 8 rows against a large weight (more than 2**19 / n elements)
    take their product and its input gradient in cache-sized weight
    blocks (``matmul_t``); every other product is one BLAS call.
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
    "add", "sub", "mul", "matmul_t", "additive_scores", "transpose",
    "sigmoid", "tanh", "lstm_cell", "log", "softmax", "log_softmax",
    "concat", "sum_all", "scale_rows", "weighted_sum",
    "take_rows", "narrow", "pick_in_rows",
    "stack_rows", "reshape",
]

_STATE = threading.local()


class Tensor:
    """A dense multi-dimensional float64 value, optionally on a tape."""

    __slots__ = ("data", "requires_grad", "grad", "node", "__weakref__")

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

    # operator sugar: tensor + tensor, tensor * (tensor or number), number - tensor
    def __add__(self, other):
        return add(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

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
    pass.  Only one tape may be active per thread.  Leaving the block
    unlinks every recorded tensor from its node and drops the nodes, so
    call ``backward`` inside the block.
    """

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        if getattr(_STATE, "tape", None) is not None:
            raise ContractError("a tape is already active on this thread")
        _STATE.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _STATE.tape = None
        for node in self.nodes:     # break Tensor.node <-> _Node.out cycles
            node.out.node = None
        self.nodes.clear()
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
    """``u @ v``, the gradient of the weight in a product of rows against
    it: a rank-r sum for an (m, r) ``u`` and an (r, n) ``v``."""

    __slots__ = ("u", "v")

    def __init__(self, u: np.ndarray, v: np.ndarray):
        self.u = u
        self.v = v

    def dense(self, shape) -> np.ndarray:
        return self.u @ self.v


class _Rows(_Factor):
    """Zero except for rows ``idx`` of the source, which receive ``g``."""

    __slots__ = ("idx", "g")

    def __init__(self, idx, g: np.ndarray):
        self.idx = idx
        self.g = g

    def dense(self, shape) -> np.ndarray:
        out = np.zeros(shape, dtype=np.float64)
        self.add_into(out)
        return out

    def add_into(self, out: np.ndarray) -> None:
        np.add.at(out, self.idx, self.g)


def _add_factors(t: Tensor, factors: list) -> None:
    """Sum one leaf's factors into its grad: one GEMM and one scatter."""
    outers = [f for f in factors if type(f) is _Outer]
    rows = [f for f in factors if type(f) is _Rows]
    if outers:
        ww = (np.concatenate([f.u for f in outers], axis=1)
              @ np.concatenate([f.v for f in outers]))
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
    owned: set[int] = set()   # pending arrays that nothing else references
    deferred: dict[int, tuple[Tensor, list]] = {}
    for n in reversed(node.tape.nodes[: node.index + 1]):
        g = pending.pop(id(n.out), None)
        if g is None:
            continue
        for t, gt in zip(n.inputs, n.grad_fn(g)):
            if gt is None:
                continue
            if t.node is not None:
                k = id(t)
                cur = pending.get(k)
                if cur is None:
                    if isinstance(gt, _Factor):
                        gt = gt.dense(t.data.shape)
                        owned.add(k)
                    pending[k] = gt
                    continue
                if k not in owned:
                    cur = pending[k] = np.array(cur)
                    owned.add(k)
                if type(gt) is _Rows:
                    gt.add_into(cur)
                else:
                    cur += gt.dense(t.data.shape) if isinstance(gt, _Factor) else gt
            elif t.requires_grad:
                if isinstance(gt, _Factor):
                    deferred.setdefault(id(t), (t, []))[1].append(gt)
                    continue
                if t.grad is None:
                    t.grad = np.array(gt, order="C")  # a copy: grad_fns may share gt
                else:
                    t.grad += gt
    for t, factors in deferred.values():
        _add_factors(t, factors)


def zeros(*shape) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float64))


def _binary_shapes(name: str, a: Tensor, b: Tensor) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{name}: shapes {a.data.shape} and {b.data.shape} differ")


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes("add", a, b)
    return _record(Tensor(a.data + b.data), (a, b), lambda g: (g, g))


def sub(a: float, b: Tensor) -> Tensor:
    """``a - b`` for a python number ``a``, as in ``1.0 - beta``."""
    return _record(Tensor(a - b.data), (b,), lambda g: (-g,))


def mul(a: Tensor, b) -> Tensor:
    """``a * b`` for a tensor ``b`` of ``a``'s shape or a python number."""
    if isinstance(b, (int, float)):
        return _record(Tensor(a.data * b), (a,), lambda g: (g * b,))
    _binary_shapes("mul", a, b)
    out = Tensor(a.data * b.data)

    def grad_fn(g):
        return (g * b.data if a.requires_grad else None,
                g * a.data if b.requires_grad else None)

    return _record(out, (a, b), grad_fn)


# 2 to _FEW_ROWS rows against a weight of more than _BLOCK_ELEMS / n
# elements take one GEMM per block of the weight's output rows, sized so
# that n * block * k <= _BLOCK_ELEMS, and so does their input gradient,
# whose GEMMs sum over the same blocks.  On OpenBLAS 0.3.31 (Haswell kernels,
# one thread) one GEMM of 2-8 rows against a paper-size weight costs 2-2.5x
# a one-row GEMV, because its packing copy streams the whole weight; blocks
# that stay in cache cost 1.0-1.8x.  A sweep of n in {2, 3, 5, 8} against
# the (2048, 512), (5000, 512), (512, 1024) and (2048, 1024) weights found
# 2**19 the fastest limit of 2**16..2**20 at every point, and 2**20 no
# faster than one GEMM.
_FEW_ROWS = 8
_BLOCK_ELEMS = 2 ** 19


def _block_rows(n: int, wd: np.ndarray) -> int:
    """Weight rows per block for n rows against the (m, k) weight ``wd``
    (see ``_BLOCK_ELEMS``), or 0 when the product is one BLAS call."""
    block = _BLOCK_ELEMS // (n * wd.shape[1])
    return block if 2 <= n <= _FEW_ROWS and 0 < block < len(wd) else 0


def _product(rows: np.ndarray, wd: np.ndarray) -> np.ndarray:
    """``rows @ wd.T`` for (n, k) rows: one GEMM per block of the weight's
    output rows, joined in order, or one BLAS call (``_block_rows``)."""
    block = _block_rows(len(rows), wd)
    if block:
        return np.concatenate([np.dot(rows, wd[lo:lo + block].T)
                               for lo in range(0, len(wd), block)], axis=1)
    return np.dot(rows, wd.T)      # the BLAS call of ``@``, with less overhead per call


def _product_back(flat: np.ndarray, wd: np.ndarray) -> np.ndarray:
    """``flat @ wd``, the input gradient of ``_product`` for its (n, m)
    output gradient: one GEMM per block of the summed axis, the blocks of
    ``_product`` added in order, or one BLAS call."""
    block = _block_rows(len(flat), wd)
    if not block:
        return flat @ wd
    out = flat[:, :block] @ wd[:block]
    for lo in range(block, len(wd), block):
        out += flat[:, lo:lo + block] @ wd[lo:lo + block]
    return out


def matmul_t(a: Tensor, w: Tensor, *terms: Tensor) -> Tensor:
    """``a @ w.T`` for an (n, k) matrix of rows and an (m, k) weight -> (n, m),
    then each of ``terms`` added in order: a tensor of the output's shape,
    or an (m,) bias added to every row.  Rows with more leading axes, such
    as (B, L, k), give (B, L, m) from one GEMM over all of them.

    Decoding and teacher forcing take every weight product here, with its
    addends folded in, which saves an op per addend.  A GEMM of one row is
    the GEMV ``w @ a[0]`` bit for bit, so a one-row decoding step has the
    bits of matrix-vector products.  Each row of a product over n > 1 rows
    agrees with its own one-row product within rounding (about 1e-15
    relative; the tests bound it at 1e-12), not bit for bit.  Such a
    product is one GEMM, except that 2 to 8 rows against a weight of more
    than ``2**19 / n`` elements (a paper-size beam step or few-clip decode)
    take one GEMM per block of the weight's output rows: faster there, and
    within the same rounding of one GEMM, but not its bits.  Their input
    gradient ``g @ w`` sums over those rows, so it runs as one GEMM per
    block too, the blocks added in order: within rounding of one GEMM
    (the tests bound it at 1e-12 relative).  Teacher forcing's T·B rows
    and every desk-size product stay one GEMM with unchanged bits, forward
    and backward.

    The weight's gradient ``g.T @ a`` is deferred as a rank-n factor, so
    when ``w`` is a leaf every product of a recurrence, each step and
    each row, adds up in one GEMM at the end of ``backward``."""
    ad, wd = a.data, w.data
    if ad.ndim < 2 or wd.ndim != 2 or ad.shape[-1] != wd.shape[1]:
        raise ShapeError(f"matmul_t: rows {ad.shape} do not match weight {wd.shape}")
    rows = ad if ad.ndim == 2 else ad.reshape(-1, wd.shape[1])
    y = _product(rows, wd)
    if ad.ndim > 2:
        y = y.reshape(ad.shape[:-1] + wd.shape[:1])
    for t in terms:
        if t.data.shape not in (y.shape, y.shape[-1:]):
            raise ShapeError(f"matmul_t: term {t.data.shape} does not match {y.shape}")
        y += t.data

    def grad_fn(g):
        flat = g.reshape(-1, wd.shape[0])
        return (_product_back(flat, wd).reshape(ad.shape) if a.requires_grad else None,
                _Outer(flat.T, rows) if w.requires_grad else None,
                *(None if not t.requires_grad else g if t.data.ndim == g.ndim
                  else flat.sum(axis=0) for t in terms))

    return _record(Tensor(y), (a, w) + terms, grad_fn)


def additive_scores(keys: Tensor, q: Tensor, w: Tensor) -> Tensor:
    """``tanh(keys[i] + q[i]) @ w`` for each row of an (n, A) ``q`` against
    its own (L, A) keys of an (n, L, A) ``keys`` -> (n, L)
    additive-attention scores.

    One op for the key add, the ``tanh`` and the score product, and one
    GEMV per row for the product: row i's scores equal
    ``tanh(keys[i] + q[i]) @ w`` bit for bit, whatever n is."""
    kd, qd, wd = keys.data, q.data, w.data
    if (kd.ndim != 3 or qd.ndim != 2 or not wd.shape == kd.shape[-1:] == qd.shape[1:]
            or len(kd) != len(qd)):
        raise ShapeError(f"additive_scores: keys {kd.shape}, queries {qd.shape} "
                         f"and weights {wd.shape} do not match")
    e = np.tanh(kd + qd[:, None, :])                      # (n, L, A)
    out = Tensor(np.matmul(e, wd))

    def grad_fn(g):
        gk = gq = None
        if keys.requires_grad or q.requires_grad:
            pre = g[:, :, None] * wd * (1.0 - e * e)         # (n, L, A)
            gk = pre if keys.requires_grad else None
            gq = pre.sum(axis=1) if q.requires_grad else None
        return gk, gq, (g.reshape(-1) @ e.reshape(-1, wd.shape[0]) if w.requires_grad else None)

    return _record(out, (keys, q, w), grad_fn)


def transpose(a: Tensor, axes) -> Tensor:
    """The permutation ``axes`` of a tensor's axes."""
    out = Tensor(np.transpose(a.data, axes))
    back = np.argsort(axes)
    return _record(out, (a,), lambda g: (np.transpose(g, back),))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-log(1+exp(-x))) is stable on both tails
    return np.exp(-np.logaddexp(0.0, -x))


def sigmoid(a: Tensor) -> Tensor:
    y = _sigmoid(a.data)
    out = Tensor(y)
    return _record(out, (a,), lambda g: (g * y * (1.0 - y),))


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    out = Tensor(y)
    return _record(out, (a,), lambda g: (g * (1.0 - y * y),))


def lstm_cell(z: Tensor, m_prev: Tensor) -> Tensor:
    """One LSTM step's gate arithmetic as one node: the (n, 4H)
    pre-activations ``z`` of the i, f, o and g gates, in that order, and
    the (n, H) memory ``m_prev`` -> (n, 2H) ``[h | m]``, where
    m = f*m_prev + i*g and h = o*tanh(m), i, f and o sigmoids and g a tanh.

    Value and gradients repeat, operation for operation, what ``narrow``,
    ``sigmoid``, ``tanh``, ``mul`` and ``add`` compute for the same
    equations, so they are those ops' bits in one node instead of
    thirteen."""
    zd, md = z.data, m_prev.data
    if md.ndim != 2 or zd.shape != (len(md), 4 * md.shape[1]):
        raise ShapeError(f"lstm_cell: pre-activations {zd.shape} do not fit memory {md.shape}")
    H = md.shape[1]
    i, f, o = (_sigmoid(zd[:, k * H:(k + 1) * H]) for k in range(3))
    g = np.tanh(zd[:, 3 * H:])
    m = f * md + i * g
    tm = np.tanh(m)
    out = Tensor(np.concatenate([o * tm, m], axis=1))

    def grad_fn(gout):
        gh = gout[:, :H]
        gm = gout[:, H:] + gh * o * (1.0 - tm * tm)
        gz = None
        if z.requires_grad:
            gz = np.empty_like(zd)
            gz[:, :H] = gm * g * i * (1.0 - i)
            gz[:, H:2 * H] = gm * md * f * (1.0 - f)
            gz[:, 2 * H:3 * H] = gh * tm * o * (1.0 - o)
            gz[:, 3 * H:] = gm * i * (1.0 - g * g)
        return gz, (gm * f if m_prev.requires_grad else None)

    return _record(out, (z, m_prev), grad_fn)


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        bad = float(a.data[a.data <= 0.0].flat[0])
        raise DomainError(f"log of non-positive entry {bad}")
    out = Tensor(np.log(a.data))
    return _record(out, (a,), lambda g: (g / a.data,))


def softmax(a: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Stable softmax of each row of a (B, n) matrix; each row sums to 1
    within 1e-12.

    ``mask``, a (B, n) boolean array, marks the entries that take part:
    the others get weight exactly 0 and no gradient.  Every row needs at
    least one.
    """
    x = a.data
    if x.ndim != 2 or (mask is not None and mask.shape != x.shape):
        raise ShapeError(f"softmax expects a matrix with a mask of its shape, "
                         f"got {x.shape}" + ("" if mask is None else f" and mask {mask.shape}"))
    if x.size == 0:
        raise ShapeError("softmax of empty input")
    if not np.isfinite(x).all():
        raise DomainError("softmax input contains non-finite entries")
    if mask is not None:
        if not mask.any(axis=1).all():
            raise ShapeError("softmax: a row has no unmasked entry")
        x = np.where(mask, x, -np.inf)
    z = np.exp(x - x.max(axis=1, keepdims=True))
    y = z / z.sum(axis=1, keepdims=True)
    return _record(Tensor(y), (a,),
                   lambda g: (y * (g - (g * y).sum(axis=1, keepdims=True)),))


def log_softmax(a: Tensor) -> Tensor:
    """Row-wise log-softmax of an (n, V) matrix.

    Computed as ``x - max - log(sum(exp(x - max)))``, so an entry whose
    probability underflows to 0 still gets its finite log.  Non-finite
    input raises ``DomainError``, as in ``softmax``.
    """
    x = a.data
    if x.ndim != 2:
        raise ShapeError(f"log_softmax expects a matrix, got shape {x.shape}")
    if x.size == 0:
        raise ShapeError("log_softmax of empty input")
    if not np.isfinite(x).all():
        raise DomainError("log_softmax input contains non-finite entries")
    z = x - x.max(axis=-1, keepdims=True)
    y = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    out = Tensor(y)

    def grad_fn(g):
        return (g - np.exp(y) * g.sum(axis=-1, keepdims=True),)

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


def scale_rows(x: Tensor, s: Tensor, j: int) -> Tensor:
    """Row b of a (B, d) ``x`` times ``s[b, j]`` of a (B, k) ``s``."""
    xd, sd = x.data, s.data
    if xd.ndim != 2 or sd.ndim != 2 or len(sd) != len(xd):
        raise ShapeError(f"scale_rows: incompatible shapes {xd.shape} and {sd.shape}")
    col = sd[..., j:j + 1]
    out = Tensor(xd * col)

    def grad_fn(g):
        gs = None
        if s.requires_grad:
            gs = np.zeros_like(sd)
            gs[..., j] = (g * xd).sum(axis=-1)
        return (g * col if x.requires_grad else None), gs

    return _record(out, (x, s), grad_fn)


def weighted_sum(alpha: Tensor, v: Tensor) -> Tensor:
    """``out[b] = sum_l alpha[b, l] * v[b, l]`` for (B, L) weights over a
    (B, L, d) batch of row sets -> (B, d)."""
    ad, vd = alpha.data, v.data
    if ad.ndim != 2 or vd.ndim != 3 or vd.shape[:2] != ad.shape:
        raise ShapeError(f"weighted_sum: weights {ad.shape} do not match rows {vd.shape}")
    out = Tensor((ad[:, None, :] @ vd)[:, 0, :])

    def grad_fn(g):
        return ((vd @ g[:, :, None])[:, :, 0] if alpha.requires_grad else None,
                ad[:, :, None] * g[:, None, :] if v.requires_grad else None)

    return _record(out, (alpha, v), grad_fn)


def take_rows(a: Tensor, ids) -> Tensor:
    """Gather rows (entries of the first axis) of a tensor: an array of
    ids keeps its axes, an int drops one, as ``a[t]`` of a (T, B, H)
    tensor is step t's (B, H) matrix.  Backward scatter-adds into ``a``."""
    idx = np.asarray(ids, dtype=np.intp)
    out = Tensor(a.data[idx])
    return _record(out, (a,), lambda g: (_Rows(idx, g),))


def narrow(a: Tensor, start: int, length: int) -> Tensor:
    """Columns [start, start+length) of every row of a matrix."""
    if a.data.ndim != 2:
        raise ShapeError(f"narrow expects a matrix, got shape {a.data.shape}")
    out = Tensor(a.data[..., start:start + length])

    def grad_fn(g):
        ga = np.zeros_like(a.data)
        ga[..., start:start + length] = g
        return (ga,)

    return _record(out, (a,), grad_fn)


def pick_in_rows(a: Tensor, cols) -> Tensor:
    """out[t] = a[t, cols[t]] for a (T, n) matrix -> (T,)."""
    idx = np.asarray(cols, dtype=np.intp)
    if a.data.ndim != 2 or idx.shape != (a.data.shape[0],):
        raise ShapeError(f"pick_in_rows: matrix {a.data.shape} vs {idx.shape} indices")
    rows = np.arange(a.data.shape[0])
    out = Tensor(a.data[rows, idx])

    def grad_fn(g):
        ga = np.zeros_like(a.data)
        ga[rows, idx] = g
        return (ga,)

    return _record(out, (a,), grad_fn)


def stack_rows(rows: Sequence[Tensor]) -> Tensor:
    """Stack T equal-shape tensors along a new leading axis: (n,) rows
    into a (T, n) matrix, (B, n) matrices into a (T, B, n) one."""
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
