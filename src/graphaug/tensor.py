"""Dense float64 tensors with a dynamic reverse-mode tape.

The tape is rebuilt on every forward pass (closures captured per op), which is
what the sampled-augmentation training loop needs: the computation graph is
different on every step. A closure gets its output node as an argument rather
than capturing it, so a tape holds no reference cycle and is freed by
reference counting as soon as the loss is dropped. Gradients accumulate
additively into a leaf's ``grad``; zeroing between steps is the caller's job.
An interior node's ``grad`` is dropped once it has been passed to its
parents, so a backward sweep holds only the gradients still in flight.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidShapeError, TrainingDivergedError


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A float64 array plus tape bookkeeping.

    ``requires_grad`` marks leaves to optimize; any result touching such a
    tensor records its parents and a backward closure. Data arrays are never
    mutated in place by ops.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backprop")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple = ()
        self._backprop: Callable[[Tensor], None] | None = None

    # -- construction helpers ----------------------------------------------

    @staticmethod
    def _lift(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    @staticmethod
    def _result(data, parents: Sequence["Tensor"], backprop=None) -> "Tensor":
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backprop = backprop
        return out

    def _accum(self, g: np.ndarray) -> None:
        if self.requires_grad:
            if self.grad is None:
                self.grad = np.zeros(self.data.shape)
            self.grad += g

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        a, b = self, Tensor._lift(other)
        out = Tensor._result(a.data + b.data, (a, b), None)
        if out.requires_grad:
            def backprop(o):
                a._accum(_unbroadcast(o.grad, a.data.shape))
                b._accum(_unbroadcast(o.grad, b.data.shape))
            out._backprop = backprop
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        a = self
        out = Tensor._result(-a.data, (a,), None)
        if out.requires_grad:
            out._backprop = lambda o: a._accum(-o.grad)
        return out

    def __sub__(self, other) -> "Tensor":
        return self + (-Tensor._lift(other))

    def __rsub__(self, other) -> "Tensor":
        return Tensor._lift(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        a, b = self, Tensor._lift(other)
        out = Tensor._result(a.data * b.data, (a, b), None)
        if out.requires_grad:
            def backprop(o):
                a._accum(_unbroadcast(o.grad * b.data, a.data.shape))
                b._accum(_unbroadcast(o.grad * a.data, b.data.shape))
            out._backprop = backprop
        return out

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        a, b = self, Tensor._lift(other)
        out = Tensor._result(a.data / b.data, (a, b), None)
        if out.requires_grad:
            def backprop(o):
                a._accum(_unbroadcast(o.grad / b.data, a.data.shape))
                b._accum(_unbroadcast(-o.grad * a.data / (b.data * b.data),
                                      b.data.shape))
            out._backprop = backprop
        return out

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor._lift(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        a, c = self, float(exponent)
        out = Tensor._result(a.data ** c, (a,), None)
        if out.requires_grad:
            out._backprop = lambda o: a._accum(o.grad * c * a.data ** (c - 1.0))
        return out

    def __matmul__(self, other) -> "Tensor":
        a, b = self, Tensor._lift(other)
        if a.ndim != 2 or b.ndim != 2:
            raise InvalidShapeError("matmul expects 2-D operands")
        out = Tensor._result(a.data @ b.data, (a, b), None)
        if out.requires_grad:
            def backprop(o):
                a._accum(o.grad @ b.data.T)
                b._accum(a.data.T @ o.grad)
            out._backprop = backprop
        return out

    # -- reductions -------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        out = Tensor._result(a.data.sum(axis=axis, keepdims=keepdims), (a,), None)
        if out.requires_grad:
            def backprop(o):
                g = o.grad
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis)
                a._accum(np.broadcast_to(g, a.data.shape).copy())
            out._backprop = backprop
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- elementwise nonlinearities ----------------------------------------------

    def relu(self) -> "Tensor":
        a = self
        out = Tensor._result(np.maximum(a.data, 0.0), (a,), None)
        if out.requires_grad:
            out._backprop = lambda o: a._accum(o.grad * (a.data > 0.0))
        return out

    def sigmoid(self) -> "Tensor":
        a = self
        s = 1.0 / (1.0 + np.exp(-a.data))
        out = Tensor._result(s, (a,), None)
        if out.requires_grad:
            out._backprop = lambda o: a._accum(o.grad * s * (1.0 - s))
        return out

    def tanh(self) -> "Tensor":
        a = self
        t = np.tanh(a.data)
        out = Tensor._result(t, (a,), None)
        if out.requires_grad:
            out._backprop = lambda o: a._accum(o.grad * (1.0 - t * t))
        return out

    def softplus(self) -> "Tensor":
        a = self
        out = Tensor._result(np.logaddexp(0.0, a.data), (a,), None)
        if out.requires_grad:
            sig = 1.0 / (1.0 + np.exp(-a.data))
            out._backprop = lambda o: a._accum(o.grad * sig)
        return out

    def exp(self) -> "Tensor":
        a = self
        e = np.exp(a.data)
        out = Tensor._result(e, (a,), None)
        if out.requires_grad:
            out._backprop = lambda o: a._accum(o.grad * e)
        return out

    def log(self) -> "Tensor":
        a = self
        out = Tensor._result(np.log(a.data), (a,), None)
        if out.requires_grad:
            out._backprop = lambda o: a._accum(o.grad / a.data)
        return out

    def sqrt(self) -> "Tensor":
        a = self
        r = np.sqrt(a.data)
        out = Tensor._result(r, (a,), None)
        if out.requires_grad:
            out._backprop = lambda o: a._accum(o.grad * 0.5 / r)
        return out

    def clip_min(self, lo: float) -> "Tensor":
        """max(x, lo); gradient passes only where x > lo."""
        a = self
        out = Tensor._result(np.maximum(a.data, lo), (a,), None)
        if out.requires_grad:
            out._backprop = lambda o: a._accum(o.grad * (a.data > lo))
        return out

    # -- shape ops -----------------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        out = Tensor._result(a.data.reshape(shape), (a,), None)
        if out.requires_grad:
            out._backprop = lambda o: a._accum(o.grad.reshape(a.data.shape))
        return out

    def transpose(self) -> "Tensor":
        if self.ndim != 2:
            raise InvalidShapeError("transpose expects a 2-D tensor")
        a = self
        out = Tensor._result(a.data.T.copy(), (a,), None)
        if out.requires_grad:
            out._backprop = lambda o: a._accum(o.grad.T)
        return out

    def gather_rows(self, idx) -> "Tensor":
        """Select rows (axis 0) by integer index; repeats allowed."""
        a = self
        idx = np.asarray(idx, dtype=np.int64)
        out = Tensor._result(a.data[idx], (a,), None)
        if out.requires_grad:
            def backprop(o):
                g = np.zeros(a.data.shape)
                np.add.at(g, idx, o.grad)
                a._accum(g)
            out._backprop = backprop
        return out

    def slice_axis(self, axis: int, start: int, stop: int) -> "Tensor":
        a = self
        sl = [slice(None)] * a.ndim
        sl[axis] = slice(start, stop)
        sl = tuple(sl)
        out = Tensor._result(a.data[sl].copy(), (a,), None)
        if out.requires_grad:
            def backprop(o):
                g = np.zeros(a.data.shape)
                g[sl] = o.grad
                a._accum(g)
            out._backprop = backprop
        return out

    # -- composites ----------------------------------------------------------------

    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self - Tensor(self.data.max(axis=axis, keepdims=True))
        e = shifted.exp()
        return e / e.sum(axis=axis, keepdims=True)

    def logsumexp(self, axis: int = -1, keepdims: bool = False) -> "Tensor":
        m = self.data.max(axis=axis, keepdims=True)
        out = (self - Tensor(m)).exp().sum(axis=axis, keepdims=True).log() + Tensor(m)
        if not keepdims:
            squeezed = list(out.shape)
            squeezed.pop(axis if axis >= 0 else len(squeezed) + axis)
            out = out.reshape(tuple(squeezed))
        return out

    def norm(self) -> "Tensor":
        """Euclidean norm of the whole tensor."""
        return (self * self).sum().sqrt()

    # -- backward pass ----------------------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode sweep from this scalar; gradients accumulate."""
        if self.data.size != 1:
            raise InvalidShapeError("backward() expects a scalar loss")
        if not np.isfinite(self.data).all():
            raise TrainingDivergedError("loss is not finite")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited and p.requires_grad:
                    stack.append((p, False))
        self._accum(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backprop is not None and node.grad is not None:
                node._backprop(node)
                node.grad = None


# -- free functions ---------------------------------------------------------------


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along ``axis``; backward splits the gradient."""
    tensors = [Tensor._lift(t) for t in tensors]
    if not tensors:
        raise InvalidShapeError("concat of an empty list")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    out = Tensor._result(data, tensors, None)
    if out.requires_grad:
        sizes = [t.data.shape[axis] for t in tensors]
        bounds = np.cumsum(sizes)[:-1]

        def backprop(o):
            for t, piece in zip(tensors, np.split(o.grad, bounds, axis=axis)):
                t._accum(piece)
        out._backprop = backprop
    return out


def segment_sum(t: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Sum rows of ``t`` into ``num_segments`` buckets given per-row ids.

    Rows are accumulated in ascending row order (np.add.at), so results are
    reproducible bit-for-bit.
    """
    t = Tensor._lift(t)
    seg = np.asarray(segment_ids, dtype=np.int64)
    out_shape = (num_segments,) + t.data.shape[1:]
    data = np.zeros(out_shape)
    np.add.at(data, seg, t.data)
    out = Tensor._result(data, (t,), None)
    if out.requires_grad:
        out._backprop = lambda o: t._accum(o.grad[seg])
    return out


def segment_softmax(x: Tensor, offsets) -> Tensor:
    """Softmax of a 1-D tensor within contiguous segments.

    Segment ``k`` runs from ``offsets[k]`` to the next offset (the last to the
    end); offsets start at 0 and every segment is non-empty, which is how a
    batch lays out its graphs' nodes. One tape node with the fused backward
    ``p * (g - segsum(g * p))``.
    """
    x = Tensor._lift(x)
    starts = np.asarray(offsets, dtype=np.int64)
    counts = np.diff(np.append(starts, x.data.size))
    if x.ndim != 1 or not starts.size or starts[0] != 0 or (counts < 1).any():
        raise InvalidShapeError("segment_softmax needs a 1-D tensor and "
                                "ascending offsets from 0 to non-empty segments")
    shifted = x.data - np.repeat(np.maximum.reduceat(x.data, starts), counts)
    e = np.exp(shifted)
    p = e / np.repeat(np.add.reduceat(e, starts), counts)
    out = Tensor._result(p, (x,), None)
    if out.requires_grad:
        def backprop(o):
            gp = o.grad * p
            x._accum(gp - p * np.repeat(np.add.reduceat(gp, starts), counts))
        out._backprop = backprop
    return out


def xavier_init(shape: Sequence[int], seed: int) -> Tensor:
    """Glorot-uniform parameter tensor, deterministic in ``seed``."""
    from .rng import RngStream

    shape = tuple(int(s) for s in shape)
    if len(shape) < 1 or any(s <= 0 for s in shape):
        raise InvalidShapeError(f"xavier_init got invalid shape {shape}")
    if len(shape) == 1:
        fan_in = fan_out = shape[0]
    else:
        fan_in = int(np.prod(shape[:-1]))
        fan_out = shape[-1]
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    u = RngStream(seed, name="xavier").uniform(shape)
    return Tensor((2.0 * u - 1.0) * bound, requires_grad=True)


def zeros_param(shape: Sequence[int]) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def finite_diff_grad(f: Callable[[Tensor], Tensor], x: Tensor,
                     eps: float = 1e-5) -> Tensor:
    """Central-difference gradient of scalar ``f`` at ``x``.

    The independent oracle for backward(): ``f`` must be deterministic for
    fixed seeds (re-create any rng streams inside it).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    base = x.data.copy()
    g = np.zeros_like(base)
    flat = g.reshape(-1)
    for k in range(base.size):
        bump = np.zeros_like(base).reshape(-1)
        bump[k] = eps
        bump = bump.reshape(base.shape)
        hi = f(Tensor(base + bump))
        lo = f(Tensor(base - bump))
        hi = hi.item() if isinstance(hi, Tensor) else float(hi)
        lo = lo.item() if isinstance(lo, Tensor) else float(lo)
        flat[k] = (hi - lo) / (2.0 * eps)
    return Tensor(g)


class ParameterSet:
    """Named map of trainable tensors; names are unique and ordered."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        tensor.requires_grad = True
        self._params[name] = tensor
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def tensors(self) -> list[Tensor]:
        return list(self._params.values())

    def zero_grads(self) -> None:
        for t in self._params.values():
            t.grad = None

    def data_snapshot(self) -> dict[str, np.ndarray]:
        return {k: v.data.copy() for k, v in self._params.items()}

    def num_values(self) -> int:
        return sum(t.size for t in self._params.values())
