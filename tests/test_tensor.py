import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphaug.errors import InvalidShapeError, TrainingDivergedError
from graphaug.rng import RngStream
from graphaug.tensor import (
    ParameterSet, Tensor, concat, finite_diff_grad, segment_softmax,
    segment_sum, xavier_init,
)

from conftest import check_grad, rel_err


def test_product_rule():
    x = Tensor(3.0, requires_grad=True)
    y = Tensor(4.0, requires_grad=True)
    (x * y).backward()
    assert x.grad == 4.0
    assert y.grad == 3.0


def test_sum_gradient_all_ones():
    x = Tensor(np.random.default_rng(0).normal(size=(3, 5)), requires_grad=True)
    x.sum().backward()
    assert np.array_equal(x.grad, np.ones((3, 5)))


def test_softplus_grad_at_zero():
    x = Tensor(0.0, requires_grad=True)
    x.softplus().backward()
    assert abs(x.grad - 0.5) < 1e-12


def test_backward_rejects_nonscalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(InvalidShapeError):
        (x * 2.0).backward()


def test_backward_rejects_nan_loss():
    x = Tensor(np.nan, requires_grad=True)
    with pytest.raises(TrainingDivergedError):
        (x * 1.0).backward()


def test_grad_accumulates_across_uses():
    x = Tensor(2.0, requires_grad=True)
    (x * x + x).backward()   # d/dx = 2x + 1 = 5
    assert x.grad == 5.0
    # a second backward pass accumulates further (zeroing is the caller's job)
    (x * 3.0).backward()
    assert x.grad == 8.0


# -- per-op gradient oracle ------------------------------------------------

STREAM = RngStream(20240811, "tensor-tests")


def _rand(shape, lo=-2.0, hi=2.0, label="x"):
    return lo + (hi - lo) * STREAM.split(label + str(shape)).uniform(shape)


OPS = [
    ("add", lambda t: (t + Tensor(_rand(t.shape, label="add"))).sum(), False),
    ("sub", lambda t: (Tensor(_rand(t.shape, label="sub")) - t).sum(), False),
    ("mul", lambda t: (t * Tensor(_rand(t.shape, label="mul"))).sum(), False),
    ("div", lambda t: (Tensor(_rand(t.shape, label="div")) / (t.clip_min(0.0) + 1.5)).sum(), False),
    ("pow", lambda t: (t ** 3.0).sum(), False),
    ("matmul", lambda t: (t @ Tensor(_rand((4, 2), label="mm"))).sum(), False),
    ("relu", lambda t: t.relu().sum(), False),
    ("sigmoid", lambda t: t.sigmoid().sum(), False),
    ("tanh", lambda t: t.tanh().sum(), False),
    ("softplus", lambda t: t.softplus().sum(), False),
    ("exp", lambda t: t.exp().sum(), False),
    ("log", lambda t: t.log().sum(), True),
    ("sqrt", lambda t: t.sqrt().sum(), True),
    ("mean", lambda t: t.mean(axis=1).sum(), False),
    ("sum_axis", lambda t: (t.sum(axis=0) ** 2.0).sum(), False),
    ("softmax", lambda t: (t.softmax(axis=1) * Tensor(_rand(t.shape, label="sm"))).sum(), False),
    ("logsumexp", lambda t: t.logsumexp(axis=1).sum(), False),
    ("reshape", lambda t: (t.reshape(12) * Tensor(_rand((12,), label="rs"))).sum(), False),
    ("transpose", lambda t: (t.transpose() @ Tensor(_rand((3, 2), label="tr"))).sum(), False),
    ("gather", lambda t: (t.gather_rows([0, 2, 2, 1]) ** 2.0).sum(), False),
    ("slice", lambda t: (t.slice_axis(1, 1, 3) ** 2.0).sum(), False),
    ("norm", lambda t: t.norm(), False),
    ("clip_min", lambda t: t.clip_min(0.25).sum(), False),
    ("segment_softmax", lambda t: (segment_softmax(t.reshape(12), [0, 1, 5, 6])
                                   * Tensor(_rand((12,), label="ssm"))).sum(),
     False),
]


@pytest.mark.parametrize("name,f,positive", OPS)
def test_op_gradients_match_finite_differences(name, f, positive):
    lo, hi = (0.5, 2.0) if positive else (-2.0, 2.0)
    x = _rand((3, 4), lo, hi, label=name)
    check_grad(f, x)


def _tape_nodes(root):
    """Every node of the tape below ``root`` that has a backward closure."""
    nodes, stack, seen = [], [root], set()
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t._backprop is not None:
            nodes.append(t)
        stack.extend(t._parents)
    return nodes


@pytest.mark.parametrize("name,f,positive", OPS)
def test_tape_freed_by_refcount_after_backward(name, f, positive):
    """Dropping the loss frees the whole tape without the cyclic collector.

    ``Tensor`` has ``__slots__`` and no weakref slot, so the test watches each
    node's backward closure, which only that node holds: the closure dies
    exactly when its node does.
    """
    lo, hi = (0.5, 2.0) if positive else (-2.0, 2.0)
    x = Tensor(_rand((3, 4), lo, hi, label=name), requires_grad=True)
    gc.disable()
    try:
        loss = f(x)
        loss.backward()
        refs = [weakref.ref(t._backprop) for t in _tape_nodes(loss)]
        assert len(refs) >= 2                  # the loss and an intermediate
        del loss
        assert all(r() is None for r in refs)
    finally:
        gc.enable()


def test_backward_frees_interior_grads_and_keeps_leaf_grads():
    x = Tensor(_rand((5, 4), label="free_x"))
    b = Tensor(_rand((3,), label="free_b"), requires_grad=True)

    def f(w, bias=b):
        return ((x @ w + bias).tanh() ** 2.0).sum()

    w0 = _rand((4, 3), label="free_w")
    w = Tensor(w0, requires_grad=True)
    loss = f(w)
    loss.backward()
    interior = _tape_nodes(loss)
    assert len(interior) >= 5
    assert all(t.grad is None for t in interior)
    assert rel_err(w.grad, finite_diff_grad(f, Tensor(w0)).data) <= 1e-6
    fd_b = finite_diff_grad(lambda t: f(Tensor(w0), t), Tensor(b.data)).data
    assert rel_err(b.grad, fd_b) <= 1e-6


RAGGED = [0, 1, 4, 5, 11, 12]           # segments of 1, 3, 1, 6, 1 and 2


def test_segment_softmax_matches_softmax_per_segment():
    x = _rand((14,), -3.0, 3.0, label="ssm_ragged")
    p = segment_softmax(Tensor(x), RAGGED).data
    bounds = RAGGED + [len(x)]
    for a, b in zip(bounds[:-1], bounds[1:]):
        assert np.max(np.abs(p[a:b] - Tensor(x[a:b]).softmax().data)) <= 1e-14
    assert p[0] == p[4] == p[11] == 1.0


def test_segment_softmax_gradient_on_ragged_segments():
    x = _rand((14,), -3.0, 3.0, label="ssm_grad")
    w = _rand((14,), label="ssm_weights")

    def f(t):
        return (segment_softmax(t, RAGGED) * Tensor(w)).sum()

    check_grad(f, x)
    # and the composite per-segment softmax's gradient, to rounding
    xt = Tensor(x, requires_grad=True)
    f(xt).backward()
    bounds = RAGGED + [len(x)]
    xr = Tensor(x, requires_grad=True)
    parts = [xr.slice_axis(0, a, b).softmax()
             for a, b in zip(bounds[:-1], bounds[1:])]
    (concat(parts) * Tensor(w)).sum().backward()
    assert np.max(np.abs(xt.grad - xr.grad)) <= 1e-14


@pytest.mark.parametrize("x,offsets", [
    (np.zeros((2, 3)), [0]),          # not 1-D
    (np.zeros(4), [1, 2]),            # does not start at 0
    (np.zeros(4), [0, 2, 2]),         # empty segment
    (np.zeros(4), [0, 4]),            # empty last segment
    (np.zeros(4), []),                # no segment
])
def test_segment_softmax_rejects_bad_segments(x, offsets):
    with pytest.raises(InvalidShapeError):
        segment_softmax(Tensor(x), offsets)


def test_concat_gradient():
    a = _rand((2, 3), label="cat_a")
    b = _rand((4, 3), label="cat_b")

    def f(t):
        return (concat([t, Tensor(b)], axis=0) ** 2.0).sum()
    check_grad(f, a)


def test_segment_sum_gradient_and_values():
    x = _rand((5, 2), label="seg")
    seg = np.array([0, 1, 0, 2, 1])
    out = segment_sum(Tensor(x), seg, 3)
    expected = np.zeros((3, 2))
    for i, s in enumerate(seg):
        expected[s] += x[i]
    assert np.allclose(out.data, expected)
    check_grad(lambda t: (segment_sum(t, seg, 3) ** 2.0).sum(), x)


def test_broadcasting_gradients():
    w = _rand((1, 4), label="brd")

    def f(t):
        return (Tensor(_rand((3, 4), label="brd_m")) * t).sum()
    check_grad(f, w)


# -- xavier init -----------------------------------------------------------

def test_xavier_bounds_2x2():
    t = xavier_init((2, 2), seed=7)
    assert np.all(np.abs(t.data) <= math.sqrt(6.0 / 4.0))


def test_xavier_bounds_1x1():
    t = xavier_init((1, 1), seed=123)
    assert np.all(np.abs(t.data) <= math.sqrt(6.0 / 2.0))


def test_xavier_deterministic():
    a = xavier_init((5, 3), seed=42)
    b = xavier_init((5, 3), seed=42)
    assert np.array_equal(a.data, b.data)
    c = xavier_init((5, 3), seed=43)
    assert not np.array_equal(a.data, c.data)


def test_xavier_rejects_zero_dim():
    with pytest.raises(InvalidShapeError):
        xavier_init((0, 3), seed=1)


# -- finite_diff oracle self-checks ----------------------------------------

def test_finite_diff_square():
    g = finite_diff_grad(lambda t: (t * t).sum(), Tensor(2.0), eps=1e-5)
    assert abs(g.item() - 4.0) < 1e-6


def test_finite_diff_sum_all_ones():
    g = finite_diff_grad(lambda t: t.sum(), Tensor(np.ones((2, 3))), eps=1e-5)
    assert np.allclose(g.data, 1.0, atol=1e-9)


# -- properties -------------------------------------------------------------

@given(st.lists(st.floats(-2, 2), min_size=2, max_size=8))
@settings(max_examples=50, deadline=None)
def test_softmax_sums_to_one(vals):
    s = Tensor(np.array(vals)).softmax()
    assert abs(s.data.sum() - 1.0) < 1e-9


def test_fixed_seed_bit_identical_forward():
    def run():
        w = xavier_init((6, 6), seed=99)
        x = Tensor(RngStream(3, "fw").uniform((4, 6)))
        return ((x @ w).relu().softmax(axis=1)).data
    assert np.array_equal(run(), run())


def test_parameter_set_contracts():
    ps = ParameterSet()
    ps.add("w", Tensor(np.ones((2, 2))))
    with pytest.raises(ValueError):
        ps.add("w", Tensor(np.zeros(2)))
    assert ps["w"].requires_grad
    ps["w"].grad = np.ones((2, 2))
    ps.zero_grads()
    assert ps["w"].grad is None
