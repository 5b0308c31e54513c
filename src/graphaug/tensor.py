"""Dense float64 tensors with a dynamic reverse-mode tape.

The tape is rebuilt on every forward pass (closures captured per op), which is
what the sampled-augmentation training loop needs: the computation graph is
different on every step. Every op computes its result, builds its backward
closure and hands both to ``Tensor._result``, the one place that decides to
record: only a result with a parent that needs a gradient keeps them. A
closure gets its output node as an argument rather than capturing it, so a
tape holds no reference cycle and is freed by reference counting as soon as
the loss is dropped. Gradients accumulate additively into a leaf's ``grad``;
zeroing between steps is the caller's job. An interior node's ``grad`` is
dropped once it has been passed to its parents, so a backward sweep holds
only the gradients still in flight.
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
    def _result(data, parents: Sequence["Tensor"],
                backprop: Callable[["Tensor"], None]) -> "Tensor":
        """The one place an op is recorded: ``out`` keeps its parents and
        ``backprop`` only when a parent needs a gradient."""
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backprop = backprop
        return out

    def _accum(self, g: np.ndarray) -> None:
        if self.requires_grad:
            if self.grad is None:
                # one C-ordered allocation, whatever the layout of ``g``
                self.grad = np.add(g, 0.0, out=np.empty(self.data.shape))
            else:
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

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        a, b = self, Tensor._lift(other)

        def backprop(o):
            a._accum(_unbroadcast(o.grad, a.data.shape))
            b._accum(_unbroadcast(o.grad, b.data.shape))
        return Tensor._result(a.data + b.data, (a, b), backprop)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        a = self
        return Tensor._result(-a.data, (a,), lambda o: a._accum(-o.grad))

    def __sub__(self, other) -> "Tensor":
        return self + (-Tensor._lift(other))

    def __rsub__(self, other) -> "Tensor":
        return Tensor._lift(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        a, b = self, Tensor._lift(other)

        def backprop(o):
            a._accum(_unbroadcast(o.grad * b.data, a.data.shape))
            b._accum(_unbroadcast(o.grad * a.data, b.data.shape))
        return Tensor._result(a.data * b.data, (a, b), backprop)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        a, b = self, Tensor._lift(other)

        def backprop(o):
            a._accum(_unbroadcast(o.grad / b.data, a.data.shape))
            b._accum(_unbroadcast(-o.grad * a.data / (b.data * b.data),
                                  b.data.shape))
        return Tensor._result(a.data / b.data, (a, b), backprop)

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor._lift(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        a, c = self, float(exponent)
        return Tensor._result(
            a.data ** c, (a,),
            lambda o: a._accum(o.grad * c * a.data ** (c - 1.0)))

    def __matmul__(self, other) -> "Tensor":
        a, b = self, Tensor._lift(other)
        if a.ndim != 2 or b.ndim != 2:
            raise InvalidShapeError("matmul expects 2-D operands")

        def backprop(o):
            a._accum(o.grad @ b.data.T)
            b._accum(a.data.T @ o.grad)
        return Tensor._result(a.data @ b.data, (a, b), backprop)

    # -- reductions -------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self

        def backprop(o):
            g = o.grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            # ``_accum`` copies a first gradient and ``+=`` reads a view
            a._accum(np.broadcast_to(g, a.data.shape))
        return Tensor._result(a.data.sum(axis=axis, keepdims=keepdims), (a,),
                              backprop)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- elementwise nonlinearities ----------------------------------------------

    def relu(self) -> "Tensor":
        a = self
        return Tensor._result(np.maximum(a.data, 0.0), (a,),
                              lambda o: a._accum(o.grad * (a.data > 0.0)))

    def sigmoid(self) -> "Tensor":
        a = self
        with np.errstate(over="ignore"):     # exp(-x) = inf gives s = 0
            s = 1.0 / (1.0 + np.exp(-a.data))
        return Tensor._result(s, (a,),
                              lambda o: a._accum(o.grad * s * (1.0 - s)))

    def softplus(self) -> "Tensor":
        a = self

        def backprop(o):
            with np.errstate(over="ignore"):
                sig = 1.0 / (1.0 + np.exp(-a.data))
            a._accum(o.grad * sig)
        return Tensor._result(np.logaddexp(0.0, a.data), (a,), backprop)

    def exp(self) -> "Tensor":
        a = self
        e = np.exp(a.data)
        return Tensor._result(e, (a,), lambda o: a._accum(o.grad * e))

    def log(self) -> "Tensor":
        a = self
        return Tensor._result(np.log(a.data), (a,),
                              lambda o: a._accum(o.grad / a.data))

    def sqrt(self) -> "Tensor":
        a = self
        r = np.sqrt(a.data)
        return Tensor._result(r, (a,), lambda o: a._accum(o.grad * 0.5 / r))

    def clip_min(self, lo: float) -> "Tensor":
        """max(x, lo); gradient passes only where x > lo."""
        a = self
        return Tensor._result(np.maximum(a.data, lo), (a,),
                              lambda o: a._accum(o.grad * (a.data > lo)))

    # -- shape ops -----------------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        return Tensor._result(a.data.reshape(shape), (a,),
                              lambda o: a._accum(o.grad.reshape(a.data.shape)))

    def transpose(self) -> "Tensor":
        if self.ndim != 2:
            raise InvalidShapeError("transpose expects a 2-D tensor")
        a = self
        return Tensor._result(a.data.T.copy(), (a,),
                              lambda o: a._accum(o.grad.T))

    def gather_rows(self, idx) -> "Tensor":
        """Select rows (axis 0) by non-negative integer index; repeats
        allowed."""
        a = self
        idx = np.asarray(idx, dtype=np.int64)
        return Tensor._result(
            a.data[idx], (a,),
            lambda o: a._accum(_scatter_rows(idx, o.grad, a.data.shape[0])))

    def slice_axis(self, axis: int, start: int, stop: int) -> "Tensor":
        a = self
        sl = [slice(None)] * a.ndim
        sl[axis] = slice(start, stop)
        sl = tuple(sl)

        def backprop(o):
            g = np.zeros(a.data.shape)
            g[sl] = o.grad
            a._accum(g)
        return Tensor._result(a.data[sl].copy(), (a,), backprop)

    # -- composites ----------------------------------------------------------------

    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self - Tensor(self.data.max(axis=axis, keepdims=True))
        e = shifted.exp()
        return e / e.sum(axis=axis, keepdims=True)

    def logsumexp(self, axis: int = -1) -> "Tensor":
        m = self.data.max(axis=axis, keepdims=True)
        out = (self - Tensor(m)).exp().sum(axis=axis, keepdims=True).log() + Tensor(m)
        squeezed = list(out.shape)
        squeezed.pop(axis if axis >= 0 else len(squeezed) + axis)
        return out.reshape(tuple(squeezed))

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

    def backprop(o):
        sizes = [t.data.shape[axis] for t in tensors]
        bounds = np.cumsum(sizes)[:-1]
        for t, piece in zip(tensors, np.split(o.grad, bounds, axis=axis)):
            t._accum(piece)
    return Tensor._result(data, tensors, backprop)


def _scatter_rows(idx: np.ndarray, values: np.ndarray, rows: int) -> np.ndarray:
    """``out[idx[k]] += values[k]`` into ``rows`` zero rows, as ``np.add.at``.

    One ``np.bincount`` over the flat keys ``idx * inner + arange(inner)``,
    where ``inner`` is the size of one row. Each output element receives its
    rows in ascending order, as ``np.add.at`` adds them, so the two agree bit
    for bit; ``idx`` must be non-negative and below ``rows``.
    """
    inner = math.prod(values.shape[1:])
    keys = (idx[:, None] * inner + np.arange(inner)).reshape(-1)
    flat = np.bincount(keys, weights=values.reshape(-1),
                       minlength=rows * inner)
    # bincount of no keys is int64
    return flat.astype(np.float64, copy=False).reshape(
        (rows,) + values.shape[1:])


def segment_sum(t: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Sum rows of ``t`` into ``num_segments`` buckets given per-row ids.

    Rows are accumulated in ascending row order (one ``np.bincount``, see
    ``_scatter_rows``), so results are reproducible bit-for-bit.
    """
    t = Tensor._lift(t)
    seg = np.asarray(segment_ids, dtype=np.int64)
    return Tensor._result(_scatter_rows(seg, t.data, num_segments), (t,),
                          lambda o: t._accum(o.grad[seg]))


def linear(x: Tensor, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """The dense layer ``x @ w + b``, then ``relu`` if asked, as one tape node.

    The bias add and the ReLU run in place on the fresh product, so the
    node holds only its output, whose sign is the ReLU mask. The backward
    is what the matmul, add and relu nodes compute, for the inputs that
    need a gradient.
    """
    x, w, b = (Tensor._lift(t) for t in (x, w, b))
    if (x.ndim != 2 or w.ndim != 2 or w.data.shape[0] != x.data.shape[1]
            or b.data.shape != (w.data.shape[1],)):
        raise InvalidShapeError(
            f"linear got x {x.shape}, w {w.shape} and b {b.shape}; "
            f"wants (n, d_in), (d_in, d_out), (d_out,)")
    out = x.data @ w.data
    out += b.data
    if relu:
        np.maximum(out, 0.0, out=out)

    def backprop(o):
        g = o.grad * (o.data > 0.0) if relu else o.grad
        if x.requires_grad:
            x._accum(g @ w.data.T)
        if w.requires_grad:
            w._accum(x.data.T @ g)
        if b.requires_grad:
            b._accum(g.sum(axis=0))
    return Tensor._result(out, (x, w, b), backprop)


def propagate(h: Tensor, src, dst, w: Tensor) -> Tensor:
    """Message pass ``out[v] = sum over edges k into v of w[k] h[src[k]]``.

    One tape node for ``segment_sum(h.gather_rows(src) * w.reshape(-1, 1),
    dst, len(h))``, with its bits. It keeps no per-edge message: the
    backward gathers the rows of ``h`` again, and only when ``w`` needs a
    gradient.
    """
    h, w = Tensor._lift(h), Tensor._lift(w)
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if (h.ndim != 2 or src.ndim != 1 or dst.shape != src.shape
            or w.data.shape != src.shape
            or src.size and (min(src.min(), dst.min()) < 0
                             or max(src.max(), dst.max()) >= len(h.data))):
        raise InvalidShapeError(
            f"propagate got h {h.shape}, src {src.shape}, dst {dst.shape} and "
            f"w {w.shape}; wants h (n, d) and src, dst, w (E,) with indices "
            f"in [0, n)")
    rows, weight = len(h.data), w.data.reshape(-1, 1)
    out = _scatter_rows(dst, h.data[src] * weight, rows)

    def backprop(o):
        g = o.grad[dst]
        if h.requires_grad:
            h._accum(_scatter_rows(src, g * weight, rows))
        if w.requires_grad:
            w._accum((g * h.data[src]).sum(axis=1))
    return Tensor._result(out, (h, w), backprop)


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

    def backprop(o):
        gp = o.grad * p
        x._accum(gp - p * np.repeat(np.add.reduceat(gp, starts), counts))
    return Tensor._result(p, (x,), backprop)


def gru_sequence(x: Tensor, wx: Tensor, wh: Tensor, b: Tensor) -> Tensor:
    """Last hidden state, shape (1, d), of a single-layer GRU run over the rows
    of ``x`` from a zero state, as one tape node.

    The gates of Cho et al. (2014), in column blocks ``[z | r | n]`` of
    ``wx`` (d_in, 3d), ``wh`` (d, 3d) and ``b`` (3d,)::

        z = sigmoid(x_t wx_z + h wh_z + b_z)     r likewise
        n = tanh(x_t wx_n + r * (h wh_n) + b_n)
        h = (1 - z) * n + z * h

    The backward is backprop through time over the gates kept from the
    forward. Each row is its own matmul in both directions, and the
    expressions follow the order of the same GRU written with one tape op
    per step: one GEMM over all rows rounds differently, and this way the
    result and the gradients keep every bit of the unrolled form.
    """
    x, wx, wh, b = (Tensor._lift(t) for t in (x, wx, wh, b))
    d = wh.data.shape[0]
    if (x.ndim != 2 or wx.data.shape != (x.data.shape[1], 3 * d)
            or wh.data.shape != (d, 3 * d) or b.data.shape != (3 * d,)):
        raise InvalidShapeError(
            f"gru_sequence got x {x.shape}, wx {wx.shape}, wh {wh.shape} "
            f"and b {b.shape}; wants (n, d_in), (d_in, 3d), (d, 3d), (3d,)")
    xd, wxd, whd = x.data, wx.data, wh.data
    b_z, b_r, b_n = b.data[:d], b.data[d:2 * d], b.data[2 * d:]
    h = np.zeros((1, d))
    saved = []                              # per step: z, r, n, gh_n, h_{t-1}
    with np.errstate(over="ignore"):        # a saturated gate is exactly 0
        for t in range(xd.shape[0]):
            gx = xd[[t]] @ wxd
            gh = h @ whd
            z = 1.0 / (1.0 + np.exp(-((gx[:, :d] + gh[:, :d]) + b_z)))
            r = 1.0 / (1.0 + np.exp(-((gx[:, d:2 * d] + gh[:, d:2 * d]) + b_r)))
            gh_n = gh[:, 2 * d:]
            n = np.tanh((gx[:, 2 * d:] + r * gh_n) + b_n)
            saved.append((z, r, n, gh_n, h))
            h = (1.0 - z) * n + z * h

    def backprop(o):
        dx, dwx = np.zeros(xd.shape), np.zeros(wxd.shape)
        dwh, db = np.zeros(whd.shape), np.zeros(b.data.shape)
        dh = o.grad
        for t in range(len(saved) - 1, -1, -1):
            z, r, n, gh_n, h_prev = saved[t]
            daz = (dh * h_prev - dh * n) * z * (1.0 - z)
            dan = dh * (1.0 - z) * (1.0 - n * n)
            dar = dan * gh_n * r * (1.0 - r)
            dgx = np.concatenate([daz, dar, dan], axis=1)
            dgh = np.concatenate([daz, dar, dan * r], axis=1)
            dx[t] = (dgx @ wxd.T)[0]
            dwx += xd[[t]].T @ dgx
            dwh += h_prev.T @ dgh
            db += dgx[0]
            dh = dh * z + dgh @ whd.T
        x._accum(dx)
        wx._accum(dwx)
        wh._accum(dwh)
        b._accum(db)
    return Tensor._result(h, (x, wx, wh, b), backprop)


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

    def under(self, prefix: str) -> list[Tensor]:
        """The tensors named ``prefix/...``, in the order they were added."""
        head = prefix + "/"
        return [t for name, t in self._params.items() if name.startswith(head)]

    def detached(self) -> "ParameterSet":
        """The same arrays under the same names, recording no tape."""
        out = ParameterSet()
        out._params = {k: t.detach() for k, t in self._params.items()}
        return out

    def zero_grads(self) -> None:
        for t in self._params.values():
            t.grad = None
