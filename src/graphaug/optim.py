"""Adam with bias correction, updating the parameters that hold a gradient."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidShapeError
from .tensor import ParameterSet

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Moment buffers for one parameter group; step counts calls."""
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: ParameterSet, state: AdamState, lr: float) -> None:
    """One Adam update of each parameter whose ``grad`` is set.

    Parameters without a gradient keep their value and moments untouched;
    the step counter advances once per call. The moments are updated in
    place; each parameter gets a new array, as tensor data is never
    written in place.
    """
    state.step += 1
    bc1 = 1.0 - BETA1 ** state.step
    bc2 = 1.0 - BETA2 ** state.step
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        if g.shape != p.data.shape:
            raise InvalidShapeError(
                f"gradient shape {g.shape} != parameter shape {p.data.shape} "
                f"for {name!r}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m, v = state.m[name], state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + EPS)


def clip_by_global_norm(grads: list, max_norm: float) -> float:
    """Scale the gradient arrays in place if their joint norm exceeds
    ``max_norm``. Returns the pre-clip global norm, which is not finite
    only when a gradient is not (or the norm exceeds the float range);
    such gradients are left as they are.
    """
    total = 0.0
    with np.errstate(over="ignore"):      # the squares of a huge gradient
        for g in grads:
            total += float((g * g).sum())
    norm = total ** 0.5
    if not math.isfinite(norm) and all(np.isfinite(g).all() for g in grads):
        big = max(float(np.abs(g).max(initial=0.0)) for g in grads)
        norm = big * sum(float(((g / big) ** 2).sum()) for g in grads) ** 0.5
    if norm > max_norm and 0.0 < norm < math.inf:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return norm
