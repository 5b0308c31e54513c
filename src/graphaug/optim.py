"""Adam with bias correction and masked (per-gradient-map) updates."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidShapeError
from .tensor import ParameterSet


@dataclass
class AdamState:
    """Moment buffers for one parameter group; step counts calls."""
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: ParameterSet, grads: dict[str, np.ndarray],
              state: AdamState, lr: float) -> None:
    """One Adam update over the parameters named in ``grads``.

    Parameters absent from ``grads`` keep their value and moments untouched;
    the step counter advances once per call.
    """
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    for name, g in grads.items():
        if name not in params:
            raise KeyError(f"gradient for unknown parameter {name!r}")
        p = params[name]
        if g.shape != p.data.shape:
            raise InvalidShapeError(
                f"gradient shape {g.shape} != parameter shape {p.data.shape} "
                f"for {name!r}")
        m = state.m.get(name)
        v = state.v.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        state.m[name] = m
        state.v[name] = v
        m_hat = m / bc1
        v_hat = v / bc2
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + state.eps)


def clip_by_global_norm(grads: dict, max_norm: float) -> float:
    """Scale the gradient arrays in place if their joint norm exceeds
    ``max_norm``. Returns the pre-clip global norm.
    """
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    norm = total ** 0.5
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm
