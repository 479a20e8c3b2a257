"""Parameter updates: adadelta, adam with a step schedule, gradient clipping."""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ShapeError
from .tensor import Tensor

__all__ = ["adadelta_update", "adam_update", "adam_lr", "clip_gradients",
           "zero_grads", "opt_state_arrays", "opt_state_from_arrays"]

BLOCK = 1 << 15   # elements per pass of an in-place update


def zero_grads(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.grad = None


def clip_gradients(params: dict[str, Tensor], threshold: float = 10.0) -> int:
    """Clamp every gradient entry to [-threshold, threshold], in place, and
    return how many entries were clamped."""
    if threshold <= 0:
        raise ContractError(f"clip threshold must be positive, got {threshold}")
    clamped = 0
    for p in params.values():
        g = p.grad
        if g is not None and (g.max() > threshold or g.min() < -threshold):
            clamped += int(np.count_nonzero(g > threshold) + np.count_nonzero(g < -threshold))
            np.clip(g, -threshold, threshold, out=g)
    return clamped


def _check_grad(name: str, p: Tensor) -> np.ndarray | None:
    if p.grad is None:
        return None
    if p.grad.shape != p.data.shape:
        raise ShapeError(f"gradient shape {p.grad.shape} != parameter shape "
                         f"{p.data.shape} for {name!r}")
    return p.grad


def _blocks(g: np.ndarray, *written: np.ndarray):
    """Flat ``BLOCK``-element slices of the gradient and of the arrays an
    update writes; those must be C-contiguous, so their flat views write
    through."""
    for a in written:
        if not a.flags.c_contiguous:
            raise ContractError(f"optimizer arrays must be C-contiguous, got strides {a.strides}")
    flats = [g.reshape(-1)] + [a.reshape(-1) for a in written]
    for lo in range(0, g.size, BLOCK):
        yield [f[lo:lo + BLOCK] for f in flats]


def _scratch(params: dict[str, Tensor]) -> np.ndarray:
    """Two block-length rows, reused by every parameter of one update."""
    return np.empty((2, min(BLOCK, max((p.data.size for p in params.values()), default=0))))


def adadelta_update(params: dict[str, Tensor], state: dict, rho: float = 0.95,
                    eps: float = 1e-6) -> None:
    """Adaptive-learning-rate update with squared-grad and squared-step EMAs.

    Computed in place, ``BLOCK`` elements at a time with one scratch buffer
    per call, keeping the operands and order of
    ``Eg = rho*Eg + (1-rho)*g*g``, ``dx = -sqrt(Ex+eps) / sqrt(Eg+eps) * g``,
    ``Ex = rho*Ex + (1-rho)*dx*dx`` and ``p += dx``, so the result has the
    same bits as those expressions.
    """
    scratch = _scratch(params)
    for name, p in params.items():
        grad = _check_grad(name, p)
        if grad is None:
            continue
        st = state.get(name)
        if st is None:
            st = state[name] = {"Eg": np.zeros_like(p.data), "Ex": np.zeros_like(p.data)}
        for g, data, Eg, Ex in _blocks(grad, p.data, st["Eg"], st["Ex"]):
            dx, tmp = scratch[0, :len(g)], scratch[1, :len(g)]
            Eg *= rho
            np.multiply(g, 1.0 - rho, out=tmp)
            tmp *= g
            Eg += tmp
            np.add(Ex, eps, out=dx)
            np.sqrt(dx, out=dx)
            np.negative(dx, out=dx)
            np.add(Eg, eps, out=tmp)
            np.sqrt(tmp, out=tmp)
            dx /= tmp
            dx *= g
            Ex *= rho
            np.multiply(dx, 1.0 - rho, out=tmp)
            tmp *= dx
            Ex += tmp
            data += dx


def adam_lr(base_lr: float, epoch: int, factor: float = 0.8, every: int = 15) -> float:
    """Stepped decay: multiply the rate by ``factor`` once per ``every`` epochs."""
    return base_lr * factor ** (epoch // every)


def adam_update(params: dict[str, Tensor], state: dict, lr: float) -> None:
    """Bias-corrected Adam with b1 = 0.9, b2 = 0.999 and eps = 1e-8,
    computed in place and blockwise like ``adadelta_update``, from
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g`` and
    ``p -= lr * (m / (1-b1**t)) / (sqrt(v / (1-b2**t)) + eps)``."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    state["step"] = t = state.get("step", 0) + 1
    scratch = _scratch(params)
    for name, p in params.items():
        grad = _check_grad(name, p)
        if grad is None:
            continue
        st = state.get(name)
        if st is None:
            st = state[name] = {"m": np.zeros_like(p.data), "v": np.zeros_like(p.data)}
        for g, data, m, v in _blocks(grad, p.data, st["m"], st["v"]):
            step, tmp = scratch[0, :len(g)], scratch[1, :len(g)]
            m *= beta1
            np.multiply(g, 1.0 - beta1, out=tmp)
            m += tmp
            v *= beta2
            np.multiply(g, 1.0 - beta2, out=tmp)
            tmp *= g
            v += tmp
            np.divide(m, 1.0 - beta1 ** t, out=step)
            step *= lr
            np.divide(v, 1.0 - beta2 ** t, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += eps
            step /= tmp
            data -= step


def opt_state_arrays(state: dict) -> dict[str, np.ndarray]:
    """Flatten optimizer state into named arrays for checkpointing."""
    out: dict[str, np.ndarray] = {}
    for key, val in state.items():
        if isinstance(val, dict):
            for slot, arr in val.items():
                out[f"{key}/{slot}"] = arr
        else:
            out[key] = np.asarray(float(val))
    return out


def opt_state_from_arrays(arrays: dict[str, np.ndarray]) -> dict:
    """The optimizer state that ``opt_state_arrays`` flattened.

    It takes ownership of the ``<name>/<slot>`` arrays it is given: the
    state holds those very arrays, not copies, and every update writes
    into them in place.  So a caller hands over arrays that nothing else
    uses, writable and C-contiguous, as ``load_checkpoint`` returns them.
    """
    state: dict = {}
    for key, arr in arrays.items():
        if "/" in key:
            name, slot = key.rsplit("/", 1)
            state.setdefault(name, {})[slot] = arr
        else:
            state[key] = int(arr) if float(arr).is_integer() else float(arr)
    return state
