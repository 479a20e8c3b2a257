"""Finite-difference gradient verification.

The probe re-runs the loss as a plain (tape-free) forward pass twice per
parameter entry, so it stays independent of the backward implementation
it checks.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .tensor import Tensor

__all__ = ["check_gradients"]

EPS = 1e-5   # central-difference step


def fd_gradients(loss_fn: Callable[[], float], params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Central differences, step ``EPS``, of loss_fn w.r.t. every entry of
    every parameter."""
    grads = {}
    for name, p in params.items():
        flat = p.data.reshape(-1)
        g = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + EPS
            f_plus = loss_fn()
            flat[i] = orig - EPS
            f_minus = loss_fn()
            flat[i] = orig
            g[i] = (f_plus - f_minus) / (2.0 * EPS)
        grads[name] = g.reshape(p.data.shape)
    return grads


def max_relative_error(analytic: dict[str, np.ndarray],
                       numeric: dict[str, np.ndarray],
                       floor: float = 1e-5) -> float:
    """max |a - f| / max(|a|, |f|, floor) over all entries of all params.

    The floor matches the probe's own noise: central differences at
    ``EPS`` = 1e-5 carry ~1e-10 of roundoff, so comparing gradients smaller
    than 1e-5 by pure ratio would only measure that noise.
    """
    worst = 0.0
    for name, fd in numeric.items():
        a = analytic.get(name)
        if a is None:
            a = np.zeros_like(fd)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(fd)), floor)
        worst = max(worst, float(np.max(np.abs(a - fd) / denom)))
    return worst


def check_gradients(loss_builder, params: dict[str, Tensor]) -> float:
    """Run one taped backward and compare against finite differences.

    ``loss_builder()`` must rebuild the loss tensor from the current
    parameter values; it is called once under a tape and 2N more times
    bare.  Returns the max relative error.
    """
    from .tensor import Tape, backward

    for p in params.values():
        p.grad = None
    with Tape():
        backward(loss_builder())
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for name, p in params.items()}
    numeric = fd_gradients(lambda: float(loss_builder().data), params)
    return max_relative_error(analytic, numeric)
