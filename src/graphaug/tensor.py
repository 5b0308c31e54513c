"""Dense float64 tensors with a dynamic reverse-mode tape.

The tape is rebuilt on every forward pass (closures captured per op), which is
what the sampled-augmentation training loop needs: the computation graph is
different on every step. Every op computes its result, builds its backward
closure and hands both to ``Tensor._result``, the one place that decides to
record: only a result with a parent that needs a gradient gets a tape node.

The tape is kept apart from the arrays. A node (``_Node``) holds its
result's shape, its gradient while the sweep carries one, its parents' tape
entries and the closure, but not the result's array: the ``Tensor`` the
caller holds owns that, so an intermediate's array is freed as soon as the
caller drops it, unless a backward reads it. A parent's entry is its node,
a leaf that needs a gradient itself (its ``grad`` is where the sweep adds),
or ``_CONSTANT``. A closure captures only the arrays, shapes, indices and
flags its backward reads: an add nothing, ``gather_rows`` its indices and
row count, a shape op its input's shape, a product one operand only when
the other needs a gradient. It gets its output node as an argument and
captures no tensor or node, so a tape holds no reference cycle and is freed
by reference counting.

Message passing (``propagate``) builds no per-edge array of more than
``PROPAGATE_BLOCK_VALUES`` (2^16) values in its forward: a larger graph is
summed in consecutive destination ranges, each over its own edges in
ascending edge order, so every output value receives the same additions in
the same order and keeps the one-block sum's bits. Picking each range's
edges is one pass over all edges, fine at a few blocks; a PubMed-sized
graph would want one stable sort by destination instead.

A closure returns one gradient per parent, in ``_parents`` order, each
shaped like its parent or like a broadcast of it; ``None`` skips a parent
that needs no gradient. ``Tensor.backward`` is the one place that sums a
gradient down to its parent's shape and adds it into the parent's ``grad``,
parent by parent in that order. Gradients accumulate additively into a
leaf's ``grad``; zeroing between steps is the caller's job. ``backward``
consumes the tape: once a node's closure has run, the node drops its
gradient, its parents and its closure, so the sweep frees each node as soon
as nothing else holds it and keeps only the gradients still in flight.
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


class _Node:
    """A recorded result's place on the tape, without its array: its shape,
    its gradient while the sweep carries one, its parents' tape entries and
    its backward closure."""

    __slots__ = ("shape", "requires_grad", "grad", "_parents", "_backprop")

    def __init__(self, shape: tuple, parents: tuple, backprop):
        self.shape = shape
        self.requires_grad = True
        self.grad: np.ndarray | None = None
        self._parents = parents
        self._backprop = backprop


# the tape entry of a parent that needs no gradient
_CONSTANT = _Node((), (), None)
_CONSTANT.requires_grad = False


def _accum(entry, g: np.ndarray) -> None:
    """Add ``g`` into a tape entry's (a node's or a leaf's) ``grad``."""
    if entry.grad is None:
        # a copy, since ``g`` may be shared or a view, and one C-ordered
        # allocation whatever its layout
        entry.grad = np.add(g, 0.0, out=np.empty(entry.shape))
    else:
        entry.grad += g


class Tensor:
    """A float64 array, and its tape node when it is a recorded result.

    ``requires_grad`` marks leaves to optimize; any result touching such a
    tensor gets a tape node (``_node``) with its parents' entries and a
    backward closure. Data arrays are never mutated in place by ops.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._node: _Node | None = None

    # -- construction helpers ----------------------------------------------

    @staticmethod
    def _lift(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    @staticmethod
    def _result(data, parents: Sequence["Tensor"],
                backprop: Callable[[_Node], tuple]) -> "Tensor":
        """The one place an op is recorded: ``out`` gets a tape node with its
        parents' entries and ``backprop`` only when a parent needs a
        gradient.

        ``backprop(node)`` returns one gradient per parent, in ``parents``
        order, or ``None`` for a parent it skips; ``backward`` unbroadcasts
        each to its parent's shape and accumulates it."""
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._node = _Node(out.data.shape,
                              tuple(p._entry() for p in parents), backprop)
        return out

    def _entry(self):
        """What a tape node keeps for this parent: never its array."""
        if self._node is not None:
            return self._node
        return self if self.requires_grad else _CONSTANT

    @property
    def _parents(self) -> tuple:
        return () if self._node is None else self._node._parents

    @property
    def _backprop(self):
        return None if self._node is None else self._node._backprop

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
        return float(self.data.item())      # raises unless one element

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        a, b = self, Tensor._lift(other)
        return Tensor._result(a.data + b.data, (a, b),
                              lambda o: (o.grad, o.grad))

    def __neg__(self) -> "Tensor":
        a = self
        return Tensor._result(-a.data, (a,), lambda o: (-o.grad,))

    def __sub__(self, other) -> "Tensor":
        return self + (-Tensor._lift(other))

    def __mul__(self, other) -> "Tensor":
        a, b = self, Tensor._lift(other)
        # each operand only for the other's gradient
        ad = a.data if b.requires_grad else None
        bd = b.data if a.requires_grad else None
        return Tensor._result(
            a.data * b.data, (a, b),
            lambda o: (None if bd is None else o.grad * bd,
                       None if ad is None else o.grad * ad))

    def __truediv__(self, other) -> "Tensor":
        a, b = self, Tensor._lift(other)
        need_a, bd = a.requires_grad, b.data
        ad = a.data if b.requires_grad else None
        return Tensor._result(
            a.data / bd, (a, b),
            lambda o: (o.grad / bd if need_a else None,
                       None if ad is None else -o.grad * ad / (bd * bd)))

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        ad, c = self.data, float(exponent)
        return Tensor._result(
            ad ** c, (self,),
            lambda o: (o.grad * c * ad ** (c - 1.0),))

    def __matmul__(self, other) -> "Tensor":
        a, b = self, Tensor._lift(other)
        if a.ndim != 2 or b.ndim != 2:
            raise InvalidShapeError("matmul expects 2-D operands")
        ad = a.data if b.requires_grad else None
        bd = b.data if a.requires_grad else None
        return Tensor._result(
            a.data @ b.data, (a, b),
            lambda o: (None if bd is None else o.grad @ bd.T,
                       None if ad is None else ad.T @ o.grad))

    # -- reductions -------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        shape = self.data.shape

        def backprop(o):
            g = o.grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            # ``_accum`` copies a first gradient and ``+=`` reads a view
            return (np.broadcast_to(g, shape),)
        return Tensor._result(self.data.sum(axis=axis, keepdims=keepdims),
                              (self,), backprop)

    def mean(self) -> "Tensor":
        return self.sum() * (1.0 / self.data.size)

    # -- elementwise nonlinearities ----------------------------------------------

    def sigmoid(self) -> "Tensor":
        a = self
        with np.errstate(over="ignore"):     # exp(-x) = inf gives s = 0
            s = 1.0 / (1.0 + np.exp(-a.data))
        return Tensor._result(s, (a,),
                              lambda o: (o.grad * s * (1.0 - s),))

    def softplus(self) -> "Tensor":
        ad = self.data

        def backprop(o):
            with np.errstate(over="ignore"):
                sig = 1.0 / (1.0 + np.exp(-ad))
            return (o.grad * sig,)
        return Tensor._result(np.logaddexp(0.0, ad), (self,), backprop)

    def exp(self) -> "Tensor":
        a = self
        e = np.exp(a.data)
        return Tensor._result(e, (a,), lambda o: (o.grad * e,))

    def log(self) -> "Tensor":
        ad = self.data
        return Tensor._result(np.log(ad), (self,), lambda o: (o.grad / ad,))

    def sqrt(self) -> "Tensor":
        a = self
        r = np.sqrt(a.data)
        return Tensor._result(r, (a,), lambda o: (o.grad * 0.5 / r,))

    def clip_min(self, lo: float) -> "Tensor":
        """max(x, lo); gradient passes only where x > lo."""
        ad = self.data
        return Tensor._result(np.maximum(ad, lo), (self,),
                              lambda o: (o.grad * (ad > lo),))

    # -- shape ops -----------------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.data.shape
        return Tensor._result(self.data.reshape(shape), (self,),
                              lambda o: (o.grad.reshape(old),))

    def transpose(self) -> "Tensor":
        if self.ndim != 2:
            raise InvalidShapeError("transpose expects a 2-D tensor")
        a = self
        return Tensor._result(a.data.T.copy(), (a,), lambda o: (o.grad.T,))

    def gather_rows(self, idx) -> "Tensor":
        """Select rows (axis 0) by non-negative integer index; repeats
        allowed."""
        idx = np.asarray(idx, dtype=np.int64)
        rows = self.data.shape[0]
        return Tensor._result(self.data[idx], (self,),
                              lambda o: (_scatter_rows(idx, o.grad, rows),))

    def slice_axis(self, axis: int, start: int, stop: int) -> "Tensor":
        shape = self.data.shape
        sl = [slice(None)] * self.ndim
        sl[axis] = slice(start, stop)
        sl = tuple(sl)

        def backprop(o):
            g = np.zeros(shape)
            g[sl] = o.grad
            return (g,)
        return Tensor._result(self.data[sl].copy(), (self,), backprop)

    # -- composites ----------------------------------------------------------------

    def softmax(self) -> "Tensor":
        shifted = self - Tensor(self.data.max(axis=-1, keepdims=True))
        e = shifted.exp()
        return e / e.sum(axis=-1, keepdims=True)

    def logsumexp(self, axis: int = -1) -> "Tensor":
        m = self.data.max(axis=axis, keepdims=True)
        out = (self - Tensor(m)).exp().sum(axis=axis, keepdims=True).log() + Tensor(m)
        squeezed = list(out.shape)
        squeezed.pop(axis if axis >= 0 else len(squeezed) + axis)
        return out.reshape(tuple(squeezed))

    # -- backward pass ----------------------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode sweep from this scalar; gradients accumulate.

        The sweep consumes the tape: each node drops its parents and closure
        once its closure has run, so a second backward through it raises."""
        if self.data.size != 1:
            raise InvalidShapeError("backward() expects a scalar loss")
        if not np.isfinite(self.data).all():
            raise TrainingDivergedError("loss is not finite")
        root = self._entry()
        topo: list = []
        visited: set[int] = set()
        stack: list[tuple] = [(root, False)]
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
        if root.requires_grad:
            _accum(root, np.ones(root.shape))
        while topo:                 # popped: the list holds no swept node
            node = topo.pop()
            if node._backprop is not None and node.grad is not None:
                for p, g in zip(node._parents, node._backprop(node),
                                strict=True):
                    if g is not None and p.requires_grad:
                        _accum(p, _unbroadcast(g, p.shape))
                node.grad = None
                node._parents = ()
                node._backprop = _spent


def _spent(o: _Node) -> tuple:
    """The closure of a node whose backward has already run."""
    raise RuntimeError(f"backward reached a tape node of shape {o.shape} "
                       f"that an earlier backward consumed")


# -- free functions ---------------------------------------------------------------


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along ``axis``; backward splits the gradient."""
    tensors = [Tensor._lift(t) for t in tensors]
    if not tensors:
        raise InvalidShapeError("concat of an empty list")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def backprop(o):
        return np.split(o.grad, np.cumsum(sizes)[:-1], axis=axis)
    return Tensor._result(data, tensors, backprop)


# The most message values (edges times width) a ``propagate`` forward builds
# at once, so each per-edge array it makes, messages or their int64 keys,
# stays at 512 KiB; a training step on MUTAG or a node-task subgraph batch
# stays below it and sums in one block.
PROPAGATE_BLOCK_VALUES = 1 << 16


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
                          lambda o: (o.grad[seg],))


def linear(x: Tensor, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """The dense layer ``x @ w + b``, then ``relu`` if asked, as one tape node.

    The bias add and the ReLU run in place on the fresh product, so with
    ``relu`` the node keeps its output, whose sign is the ReLU mask, and
    without it no array of its own. The backward is what the matmul, add
    and ``clip_min(0.0)`` nodes compute, for the inputs that need a
    gradient: it keeps ``w`` only for ``x``'s gradient and ``x`` only for
    ``w``'s.
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

    act = out if relu else None
    wd = w.data if x.requires_grad else None
    xd = x.data if w.requires_grad else None
    need_b = b.requires_grad

    def backprop(o):
        g = o.grad if act is None else o.grad * (act > 0.0)
        return (None if wd is None else g @ wd.T,
                None if xd is None else xd.T @ g,
                g.sum(axis=0) if need_b else None)
    return Tensor._result(out, (x, w, b), backprop)


def _propagate_blocks(dst: np.ndarray, rows: int, edges_per_block: int):
    """Consecutive destination ranges ``(lo, hi)`` that cover ``rows``, each
    taking as many rows as fit ``edges_per_block`` in-edges; a destination
    with more in-edges than that takes a range of its own."""
    # ends[v] is the number of edges into destinations below v
    ends = np.concatenate(([0], np.cumsum(np.bincount(dst, minlength=rows))))
    lo = 0
    while lo < rows:
        hi = int(np.searchsorted(ends, ends[lo] + edges_per_block,
                                 side="right")) - 1
        hi = max(hi, lo + 1)
        yield lo, hi
        lo = hi


def _propagate_sum(hd: np.ndarray, src: np.ndarray, dst: np.ndarray,
                   wd: np.ndarray) -> np.ndarray:
    """``propagate``'s forward on checked arrays: one ``_scatter_rows``
    over every edge, or above ``PROPAGATE_BLOCK_VALUES`` one per range of
    ``_propagate_blocks``, over that range's edges in ascending edge order
    into its rows."""
    rows, inner = hd.shape
    if len(src) * inner <= PROPAGATE_BLOCK_VALUES:
        return _scatter_rows(dst, hd[src] * wd.reshape(-1, 1), rows)
    out = np.empty(hd.shape)
    for lo, hi in _propagate_blocks(dst, rows,
                                    PROPAGATE_BLOCK_VALUES // inner):
        k = np.flatnonzero((dst >= lo) & (dst < hi))
        out[lo:hi] = _scatter_rows(dst[k] - lo,
                                   hd[src[k]] * wd[k].reshape(-1, 1), hi - lo)
    return out


def propagate(h: Tensor, src, dst, w: Tensor) -> Tensor:
    """Message pass ``out[v] = sum over edges k into v of w[k] h[src[k]]``.

    One tape node for ``segment_sum(h.gather_rows(src) * w.reshape(-1, 1),
    dst, len(h))``, with its bits. It keeps neither its output nor a
    per-edge message: the backward gathers the rows of ``h`` again, so it
    keeps ``h`` only when ``w`` needs a gradient, and ``w`` only when ``h``
    does.

    Above ``PROPAGATE_BLOCK_VALUES`` message values (2^16) the forward
    sums consecutive destination ranges one at a time, each with in-edges
    that fit the limit (a destination with more takes a range alone), so it
    builds no per-edge array of all edges at once. Each range takes its
    edges in ascending edge order, so every output value gets the same
    additions in the same order from 0 as the one-block sum, and keeps its
    bits. Picking a range's edges costs one pass over all edges, cheap at a
    few blocks (6 on a 2,708-node, 10,500-edge graph at width 32); a
    PubMed-sized graph would want one stable sort by destination instead.
    The backward stays one block, since training steps stay below the limit.
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
    rows = len(h.data)
    out = _propagate_sum(h.data, src, dst, w.data)
    weight = w.data.reshape(-1, 1) if h.requires_grad else None
    hd = h.data if w.requires_grad else None

    def backprop(o):
        g = o.grad[dst]
        return (None if weight is None else _scatter_rows(src, g * weight,
                                                          rows),
                None if hd is None else (g * hd[src]).sum(axis=1))
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
    counts = np.concatenate((starts[1:], [x.data.size])) - starts
    if x.ndim != 1 or not starts.size or starts[0] != 0 or (counts < 1).any():
        raise InvalidShapeError("segment_softmax needs a 1-D tensor and "
                                "ascending offsets from 0 to non-empty segments")
    shifted = x.data - np.repeat(np.maximum.reduceat(x.data, starts), counts)
    e = np.exp(shifted)
    p = e / np.repeat(np.add.reduceat(e, starts), counts)

    def backprop(o):
        gp = o.grad * p
        return (gp - p * np.repeat(np.add.reduceat(gp, starts), counts),)
    return Tensor._result(p, (x,), backprop)


def gru_sequence(x: Tensor, wx: Tensor, wh: Tensor, b: Tensor) -> Tensor:
    """Last hidden state, shape (1, d), of a single-layer GRU run over the rows
    of ``x`` from a zero state, as one tape node.

    The gates of Cho et al. (2014), in column blocks ``[z | r | n]`` of
    ``wx`` (d_in, 3d), ``wh`` (d, 3d) and ``b`` (3d,)::

        z = sigmoid(x_t wx_z + h wh_z + b_z)     r likewise
        n = tanh(x_t wx_n + r * (h wh_n) + b_n)
        h = (1 - z) * n + z * h

    The input product ``x wx + b`` of every row is one GEMM before the
    recurrence, which then makes one ``h wh`` per row. The backward runs the
    recurrence for the state gradient only, one product with ``wh`` per row,
    and then takes the gradients of ``x``, ``wx``, ``wh`` and ``b`` from the
    stacked gate gradients, one GEMM or sum each, for the inputs that need
    one. This rounds differently from the GRU written with one tape op per
    step, by about 1e-15 of each result's scale.
    """
    x, wx, wh, b = (Tensor._lift(t) for t in (x, wx, wh, b))
    d = wh.data.shape[0]
    if (x.ndim != 2 or wx.data.shape != (x.data.shape[1], 3 * d)
            or wh.data.shape != (d, 3 * d) or b.data.shape != (3 * d,)):
        raise InvalidShapeError(
            f"gru_sequence got x {x.shape}, wx {wx.shape}, wh {wh.shape} "
            f"and b {b.shape}; wants (n, d_in), (d_in, 3d), (d, 3d), (3d,)")
    xd, whd = x.data, wh.data
    steps = xd.shape[0]
    gx = xd @ wx.data
    gx += b.data
    gx_zr, gx_n = gx[:, :2 * d], gx[:, 2 * d:]
    zr = np.empty((steps, 2 * d))
    z, r = zr[:, :d], zr[:, d:]
    gh_n = np.empty((steps, d))             # h_{t-1} wh_n
    n = np.empty((steps, d))
    hs = np.zeros((steps + 1, d))           # hs[t] is h_{t-1}
    with np.errstate(over="ignore"):        # a saturated gate is exactly 0
        for t in range(steps):
            gh = hs[t] @ whd
            zr[t] = 1.0 / (1.0 + np.exp(-(gx_zr[t] + gh[:2 * d])))
            gh_n[t] = gh[2 * d:]
            n[t] = np.tanh(gx_n[t] + r[t] * gh_n[t])
            hs[t + 1] = n[t] + z[t] * (hs[t] - n[t])

    # x only for wx's gradient and wx only for x's
    xd = xd if wx.requires_grad else None
    wxd = wx.data if x.requires_grad else None
    need_wh, need_b = wh.requires_grad, b.requires_grad

    def backprop(o):
        h_prev = hs[:-1]
        dn = (1.0 - z) * (1.0 - n * n)      # dh_t / d(n's pre-activation)
        # each row's gate gradients on the wh side are dh_t times these
        coef = np.stack([(h_prev - n) * z * (1.0 - z),
                         dn * gh_n * r * (1.0 - r), dn * r], axis=1)
        dgh3 = np.empty((steps, 3, d))
        dgh = dgh3.reshape(steps, 3 * d)    # the same memory, a row per step
        dh_rows = np.empty((steps, d))      # the gradient of each row's h_t
        wh_t = whd.T
        dh = o.grad[0]
        for t in range(steps - 1, -1, -1):
            dh_rows[t] = dh
            np.multiply(coef[t], dh, out=dgh3[t])
            dh = dh * z[t] + dgh[t] @ wh_t
        dgx = dgh.copy()                    # the same, but n's is not times r
        dgx[:, 2 * d:] = dh_rows * dn
        return (None if wxd is None else dgx @ wxd.T,
                None if xd is None else xd.T @ dgx,
                h_prev.T @ dgh if need_wh else None,
                dgx.sum(axis=0) if need_b else None)
    return Tensor._result(hs[-1:], (x, wx, wh, b), backprop)


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
