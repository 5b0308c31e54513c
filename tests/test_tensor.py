import gc
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphaug.errors import InvalidShapeError, TrainingDivergedError
from graphaug.rng import RngStream
from graphaug import tensor
from graphaug.tensor import (
    ParameterSet, Tensor, concat, finite_diff_grad, gru_sequence, linear,
    propagate, segment_softmax, segment_sum, xavier_init,
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


def test_item_needs_exactly_one_element():
    assert Tensor(np.array([[2.5]])).item() == 2.5
    for data in (np.zeros(0), np.array([1.0, 2.0])):
        with pytest.raises(ValueError, match="size 1"):
            Tensor(data).item()


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


PROP_SRC = [0, 2, 2, 1, 0, 1, 1, 2, 0, 0, 2, 1]     # repeats and self-loops
PROP_DST = [1, 1, 0, 2, 2, 1, 0, 2, 0, 1, 1, 1]

OPS = [
    ("add", lambda t: (t + Tensor(_rand(t.shape, label="add"))).sum(), False),
    ("sub", lambda t: (Tensor(_rand(t.shape, label="sub")) - t).sum(), False),
    ("mul", lambda t: (t * Tensor(_rand(t.shape, label="mul"))).sum(), False),
    ("div", lambda t: (Tensor(_rand(t.shape, label="div")) / (t.clip_min(0.0) + 1.5)).sum(), False),
    ("pow", lambda t: (t ** 3.0).sum(), False),
    ("matmul", lambda t: (t @ Tensor(_rand((4, 2), label="mm"))).sum(), False),
    ("sigmoid", lambda t: t.sigmoid().sum(), False),
    ("softplus", lambda t: t.softplus().sum(), False),
    ("exp", lambda t: t.exp().sum(), False),
    ("log", lambda t: t.log().sum(), True),
    ("sqrt", lambda t: t.sqrt().sum(), True),
    ("mean", lambda t: t.mean(), False),
    ("sum_axis", lambda t: (t.sum(axis=0) ** 2.0).sum(), False),
    ("softmax", lambda t: (t.softmax() * Tensor(_rand(t.shape, label="sm"))).sum(), False),
    ("logsumexp", lambda t: t.logsumexp(axis=1).sum(), False),
    ("reshape", lambda t: (t.reshape(12) * Tensor(_rand((12,), label="rs"))).sum(), False),
    ("transpose", lambda t: (t.transpose() @ Tensor(_rand((3, 2), label="tr"))).sum(), False),
    ("gather", lambda t: (t.gather_rows([0, 2, 2, 1]) ** 2.0).sum(), False),
    ("slice", lambda t: (t.slice_axis(1, 1, 3) ** 2.0).sum(), False),
    ("clip_min", lambda t: t.clip_min(0.25).sum(), False),
    ("segment_softmax", lambda t: (segment_softmax(t.reshape(12), [0, 1, 5, 6])
                                   * Tensor(_rand((12,), label="ssm"))).sum(),
     False),
    ("gru_sequence", lambda t: (gru_sequence(
        t, Tensor(_rand((4, 6), label="gru_wx")),
        Tensor(_rand((2, 6), label="gru_wh")),
        Tensor(_rand((6,), label="gru_b"))) * Tensor(_rand((1, 2), label="gru_w"))
    ).sum(), False),
    # a constant input sequence: the weights need a gradient, x does not
    ("gru_sequence_const_x", lambda t: (gru_sequence(
        Tensor(_rand((5, 2), label="gruc_x")), t.reshape(2, 6),
        Tensor(_rand((2, 6), label="gruc_wh")),
        Tensor(_rand((6,), label="gruc_b"))) * Tensor(_rand((1, 2), label="gruc_w"))
    ).sum(), False),
    ("concat", lambda t: (concat([Tensor(_rand((3, 2), label="cat")), t],
                                 axis=1) * Tensor(_rand((3, 6), label="cat_w"))
                          ).sum(), False),
    ("segment_sum", lambda t: (segment_sum(t, [2, 0, 2], 4) ** 2.0).sum(),
     False),
    ("linear", lambda t: (linear(t, Tensor(_rand((4, 2), label="lin_w")),
                                 Tensor(_rand((2,), label="lin_b")))
                          ** 2.0).sum(), False),
    ("linear_relu", lambda t: (linear(Tensor(_rand((5, 3), label="linr_x")), t,
                                      Tensor(_rand((4,), label="linr_b")),
                                      relu=True)
                               * Tensor(_rand((5, 4), label="linr_o"))).sum(),
     False),
    ("propagate", lambda t: (propagate(t, PROP_SRC[:5], PROP_DST[:5],
                                       Tensor(_rand((5,), label="prop_w")))
                             ** 2.0).sum(), False),
    # the edge weights need a gradient too: 12 edges weighted by t's entries
    ("propagate_w", lambda t: (propagate(t, PROP_SRC, PROP_DST, t.reshape(12))
                               ** 2.0).sum(), False),
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
    """``backward`` consumes the tape: every closure is gone when it returns,
    with the loss still held and without the cyclic collector.

    ``Tensor`` has ``__slots__`` and no weakref slot, so the test watches each
    node's backward closure, which only that node holds: the closure dies
    exactly when its node lets go of it.
    """
    lo, hi = (0.5, 2.0) if positive else (-2.0, 2.0)
    x = Tensor(_rand((3, 4), lo, hi, label=name), requires_grad=True)
    gc.disable()
    try:
        loss = f(x)
        refs = [weakref.ref(t._backprop) for t in _tape_nodes(loss)]
        assert len(refs) >= 2                  # the loss and an intermediate
        loss.backward()
        assert all(r() is None for r in refs)
        assert loss._parents == ()
    finally:
        gc.enable()


def test_second_backward_through_a_spent_node_raises():
    x = Tensor(_rand((3, 4), label="spent"), requires_grad=True)
    y = x.sigmoid()
    loss = (y * 2.0).sum()
    loss.backward()
    first = x.grad.copy()
    with pytest.raises(RuntimeError, match="earlier backward consumed"):
        loss.backward()
    with pytest.raises(RuntimeError, match="earlier backward consumed"):
        (y * 3.0).sum().backward()
    assert np.array_equal(x.grad, first)        # nothing reached the leaf


@pytest.mark.parametrize("grads", [lambda o: (o.grad,),
                                   lambda o: (o.grad, o.grad, o.grad)],
                         ids=["too_few", "too_many"])
def test_a_closure_returns_one_gradient_per_parent(grads):
    """``backward`` pairs a closure's gradients with the node's parents
    strictly: a gradient missing or left over raises instead of being
    dropped. ``None`` skips a parent."""
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError, match="zip"):
        Tensor._result(a.data + b.data, (a, b), grads).sum().backward()
    skip = Tensor(np.ones(3), requires_grad=True)
    Tensor._result(a.data + skip.data, (a, skip),
                   lambda o: (o.grad, None)).sum().backward()
    assert skip.grad is None


def _reachable(root):
    """Every node reachable from ``root`` through ``_parents``."""
    nodes, stack, seen = [], [root], set()
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            nodes.append(t)
            stack.extend(t._parents)
    return nodes


@pytest.mark.parametrize("name,f,positive", OPS)
def test_only_a_result_that_needs_a_gradient_is_recorded(name, f, positive):
    lo, hi = (0.5, 2.0) if positive else (-2.0, 2.0)
    x = _rand((3, 4), lo, hi, label=name)
    for t in _reachable(f(Tensor(x))):
        assert t._parents == () and t._backprop is None
        assert not t.requires_grad
    loss = f(Tensor(x, requires_grad=True))
    assert loss.requires_grad and loss._parents and loss._backprop is not None
    for t in _reachable(loss):
        assert bool(t._parents) == (t._backprop is not None)


def _needs_grad(shape, label):
    return Tensor(_rand(shape, 0.5, 2.0, label=label), requires_grad=True)


# Each ``OPS`` entry's op alone, on inputs that all need a gradient, and
# whether its own backward reads its result's array.
RESULTS = {
    "add": (lambda t: t + _needs_grad((3, 4), "free_add"), False),
    "sub": (lambda t: _needs_grad((3, 4), "free_sub") - t, False),
    "mul": (lambda t: t * _needs_grad((3, 4), "free_mul"), False),
    "div": (lambda t: _needs_grad((3, 4), "free_div") / t, False),
    "pow": (lambda t: t ** 3.0, False),
    "matmul": (lambda t: t @ _needs_grad((4, 2), "free_mm"), False),
    "sigmoid": (lambda t: t.sigmoid(), True),
    "softplus": (lambda t: t.softplus(), False),
    "exp": (lambda t: t.exp(), True),
    "log": (lambda t: t.log(), False),
    "sqrt": (lambda t: t.sqrt(), True),
    "mean": (lambda t: t.mean(), False),
    "sum_axis": (lambda t: t.sum(axis=0), False),
    "softmax": (lambda t: t.softmax(), False),
    "logsumexp": (lambda t: t.logsumexp(axis=1), False),
    "reshape": (lambda t: t.reshape(12), False),
    "transpose": (lambda t: t.transpose(), False),
    "gather": (lambda t: t.gather_rows([0, 2, 2, 1]), False),
    "slice": (lambda t: t.slice_axis(1, 1, 3), False),
    "clip_min": (lambda t: t.clip_min(1.0), False),
    "segment_softmax": (lambda t: segment_softmax(t.reshape(12), [0, 1, 5, 6]),
                        True),
    # the backward reads the states before the last one; the result is a
    # view of the last
    "gru_sequence": (lambda t: gru_sequence(
        t, _needs_grad((4, 6), "free_gru_wx"), _needs_grad((2, 6), "free_gru_wh"),
        _needs_grad((6,), "free_gru_b")), False),
    "gru_sequence_const_x": (lambda t: gru_sequence(
        _needs_grad((5, 2), "free_gruc_x"), t.reshape(2, 6),
        _needs_grad((2, 6), "free_gruc_wh"), _needs_grad((6,), "free_gruc_b")),
        False),
    "concat": (lambda t: concat([_needs_grad((3, 2), "free_cat"), t], axis=1),
               False),
    "segment_sum": (lambda t: segment_sum(t, [2, 0, 2], 4), False),
    "linear": (lambda t: linear(t, _needs_grad((4, 2), "free_lin_w"),
                                _needs_grad((2,), "free_lin_b")), False),
    # the output's sign is the ReLU mask
    "linear_relu": (lambda t: linear(_needs_grad((5, 3), "free_linr_x"), t,
                                     _needs_grad((4,), "free_linr_b"),
                                     relu=True), True),
    "propagate": (lambda t: propagate(t, PROP_SRC[:5], PROP_DST[:5],
                                      _needs_grad((5,), "free_prop_w")), False),
    "propagate_w": (lambda t: propagate(t, PROP_SRC, PROP_DST, t.reshape(12)),
                    False),
}


def test_every_op_has_a_freeing_case():
    assert set(RESULTS) == {name for name, _, _ in OPS}


def _loss_and_result_ref(name, t):
    """The loss ``sum(op(t) * w)`` for a constant ``w``, which keeps nothing
    of the op's result, and a weak reference to that result's array; the
    caller holds no reference to the result itself."""
    y = RESULTS[name][0](t)
    loss = (y * Tensor(_rand(y.shape, label="free_w"))).sum()
    return loss, weakref.ref(y.data)


@pytest.mark.parametrize("name", sorted(RESULTS))
def test_a_result_array_lives_only_while_a_backward_reads_it(name):
    """Once the caller drops an op's result, its array is freed while the
    loss and its tape are alive, unless the op's own backward reads it: the
    tape keeps nodes, not arrays."""
    x = _rand((3, 4), 0.5, 2.0, label="free_" + name)
    t = Tensor(x, requires_grad=True)
    gc.disable()
    try:
        loss, ref = _loss_and_result_ref(name, t)
        assert (ref() is not None) == RESULTS[name][1]
        loss.backward()
    finally:
        gc.enable()
    numeric = finite_diff_grad(lambda u: _loss_and_result_ref(name, u)[0],
                               Tensor(x))
    assert rel_err(t.grad, numeric.data) <= 1e-3


# (name, product of an operand ``a`` and a partner of ``shape``)
PRODUCTS = [
    ("mul", lambda a, b: a * b, (3, 4)),
    ("div", lambda a, b: a / b, (3, 4)),
    ("matmul", lambda a, b: a @ b, (4, 2)),
    ("linear", lambda a, b: linear(a, b, Tensor(np.zeros(2))), (4, 2)),
    ("propagate", lambda a, b: propagate(a, PROP_SRC, PROP_DST, b), (12,)),
    ("gru_sequence", lambda a, b: gru_sequence(
        a, b, Tensor(_rand((2, 6), label="keep_gru_wh")),
        Tensor(_rand((6,), label="keep_gru_b"))), (4, 6)),
]


@pytest.mark.parametrize("partner_needs_grad", [False, True])
@pytest.mark.parametrize("name,product,shape", PRODUCTS,
                         ids=[p[0] for p in PRODUCTS])
def test_a_product_keeps_an_operand_only_for_its_partners_gradient(
        name, product, shape, partner_needs_grad):
    """An operand that needs a gradient is kept only when its partner needs
    one too, since only the partner's gradient reads it."""
    x = Tensor(_rand((3, 4), label="keep_" + name), requires_grad=True)
    b = Tensor(_rand(shape, 0.5, 2.0, label="keep_b_" + name),
               requires_grad=partner_needs_grad)
    a = x * 2.0                     # an array only the product could keep
    ref = weakref.ref(a.data)
    out = product(a, b)
    del a
    assert out.requires_grad
    assert (ref() is not None) == partner_needs_grad


def test_first_gradient_is_c_contiguous():
    """A leaf's first gradient is a fresh C-ordered array, even when the
    piece handed to it is a transposed or strided view."""
    x = Tensor(_rand((3, 4), label="layout_x"), requires_grad=True)
    (x.transpose() @ Tensor(_rand((3, 2), label="layout_w"))).sum().backward()
    a = Tensor(_rand((2, 3), label="layout_a"), requires_grad=True)
    b = Tensor(_rand((1, 3), label="layout_b"), requires_grad=True)
    (concat([a, b], axis=0).transpose()
     @ Tensor(_rand((3, 2), label="layout_v"))).sum().backward()
    for t in (x, a, b):
        assert t.grad.flags.c_contiguous


def test_gate_exponentials_do_not_warn():
    """Saturated sigmoids, softplus slopes and GRU gates are exactly 0 or 1,
    without an overflow warning, and the GRU's gradients stay finite."""
    big = np.array([[-1e3, 1e3, -800.0, 800.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = Tensor(big, requires_grad=True)
        s = x.sigmoid()
        (s.sum() + x.softplus().sum()).backward()
        assert np.array_equal(s.data, [[0.0, 1.0, 0.0, 1.0]])
        assert np.array_equal(x.grad, [[0.0, 1.0, 0.0, 1.0]])
        inputs = _gru_inputs(3, d_in=4)
        args = [Tensor(np.repeat(big, 3, axis=0), requires_grad=True)]
        args += [Tensor(inputs[k] * 1e3, requires_grad=True)
                 for k in GRU_ARGS[1:]]
        h = gru_sequence(*args)
        h.sum().backward()
    assert np.isfinite(h.data).all()
    assert all(np.isfinite(t.grad).all() for t in args)


def test_backward_frees_interior_grads_and_keeps_leaf_grads():
    x = Tensor(_rand((5, 4), label="free_x"))
    b = Tensor(_rand((3,), label="free_b"), requires_grad=True)

    def f(w, bias=b):
        return ((x @ w + bias).sigmoid() ** 2.0).sum()

    w0 = _rand((4, 3), label="free_w")
    w = Tensor(w0, requires_grad=True)
    loss = f(w)
    interior = _tape_nodes(loss)
    loss.backward()
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


GRU_ARGS = ("x", "wx", "wh", "b")


def _gru_inputs(n, d_in=3, d=4):
    shapes = {"x": (n, d_in), "wx": (d_in, 3 * d), "wh": (d, 3 * d),
              "b": (3 * d,)}
    return {k: _rand(shape, -1.0, 1.0, label=f"gru_{k}_")
            for k, shape in shapes.items()}


@pytest.mark.parametrize("n", [1, 2, 7, 33])
@pytest.mark.parametrize("arg", GRU_ARGS)
def test_gru_sequence_gradient_matches_finite_differences(arg, n):
    inputs = _gru_inputs(n)
    w = Tensor(_rand((1, 4), label="gru_out"))

    def f(t):
        args = [t if k == arg else Tensor(inputs[k]) for k in GRU_ARGS]
        return (gru_sequence(*args) * w).sum()
    check_grad(f, inputs[arg])


def test_gru_sequence_of_no_rows_is_the_zero_state():
    inputs = _gru_inputs(0)
    h = gru_sequence(*(Tensor(inputs[k], requires_grad=True) for k in GRU_ARGS))
    assert np.array_equal(h.data, np.zeros((1, 4)))


@pytest.mark.parametrize("shapes", [
    dict(x=(2, 3, 1)), dict(wx=(4, 12)), dict(wh=(4, 8)), dict(b=(1, 12)),
])
def test_gru_sequence_rejects_bad_shapes(shapes):
    inputs = {k: np.zeros(shapes.get(k, v.shape))
              for k, v in _gru_inputs(2).items()}
    with pytest.raises(InvalidShapeError, match="gru_sequence"):
        gru_sequence(*(Tensor(inputs[k]) for k in GRU_ARGS))


def _linear_inputs(x=(3, 4), w=(4, 2), b=(2,)):
    return Tensor(np.zeros(x)), Tensor(np.zeros(w)), Tensor(np.zeros(b))


def _propagate_inputs(h=(3, 2), src=(0, 2, 1), dst=(1, 1, 0), w=(3,)):
    return Tensor(np.zeros(h)), src, dst, Tensor(np.zeros(w))


@pytest.mark.parametrize("op,args", [
    (linear, _linear_inputs(x=(4,))),                  # x not 2-D
    (linear, _linear_inputs(w=(3, 2))),                # inner dims differ
    (linear, _linear_inputs(w=(4,), b=())),            # w not 2-D
    (linear, _linear_inputs(b=(3,))),                  # bias length
    (linear, _linear_inputs(b=(1, 2))),                # bias not 1-D
    (propagate, _propagate_inputs(h=(3,))),            # h not 2-D
    (propagate, _propagate_inputs(dst=(1, 1))),        # src/dst lengths
    (propagate, _propagate_inputs(w=(2,))),            # one weight per edge
    (propagate, _propagate_inputs(w=(3, 1))),          # weights not 1-D
    (propagate, _propagate_inputs(src=(0, 3, 1))),     # src out of range
    (propagate, _propagate_inputs(dst=(1, -1, 0))),    # negative dst
])
def test_linear_and_propagate_reject_bad_shapes(op, args):
    with pytest.raises(InvalidShapeError, match=op.__name__):
        op(*args)


def _add_at(idx, values, rows):
    out = np.zeros((rows,) + values.shape[1:])
    np.add.at(out, idx, values)
    return out


def _scatter_cases():
    stream = RngStream(31, "scatter")
    for k in range(40):
        s = stream.split(f"case{k}")
        # odd cases: magnitudes from 1e-300 to 1e300; even cases: many rows
        # of one magnitude per bucket, where the summation order shows
        wide = k % 2
        rows = int(s.integers(1, 12 if wide else 4))
        m = int(s.integers(0, 30 if wide else 200))
        inner = [(), (1,), (3,), (2, 3)][k // 2 % 4]
        idx = s.integers(0, rows, size=m).astype(np.int64)
        values = s.uniform((m,) + inner) - 0.5
        if wide:
            values *= 10.0 ** s.integers(-300, 301, size=(m,) + inner)
        # exact zeros of both signs
        values[s.uniform((m,) + inner) < 0.1] = -0.0
        values[s.uniform((m,) + inner) < 0.05] = 0.0
        yield idx, values, rows
    for inner in [(), (3,)]:                 # no index: bincount gives int64
        yield np.zeros(0, dtype=np.int64), np.zeros((0,) + inner), 4


def test_scatter_rows_matches_add_at_bit_for_bit():
    cases = list(_scatter_cases())
    assert any(len(np.unique(idx)) < len(idx) for idx, _, _ in cases)
    assert any(v.ndim == 1 and v.size for _, v, _ in cases)
    assert any(np.signbit(v[v == 0.0]).any() for _, v, _ in cases)
    assert any(not idx.size for idx, _, _ in cases)
    for idx, values, rows in cases:
        got = tensor._scatter_rows(idx, values, rows)
        want = _add_at(idx, values, rows)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (idx, values)


def _load_node_synth(seed=5):
    """The node-synth workload's seeded Cora-shaped graph."""
    import importlib.util
    from pathlib import Path
    path = Path(__file__).resolve().parent.parent / "perfbench" / "synth.py"
    spec = importlib.util.spec_from_file_location("perfbench_synth", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.generate(seed)


def test_scatters_of_real_training_steps_match_add_at(mutag_dir, monkeypatch):
    """Every scatter of a MUTAG GRU step and a node-synth GCN step (the
    ``segment_sum`` forwards and the ``gather_rows`` backwards) gives the
    bits ``np.add.at`` gives on the same arrays."""
    from graphaug.graphs import Graph, batch_graphs, make_node_task_batch
    from graphaug.trainer import TrainConfig, init_state, train_step
    from graphaug.tudataset import parse_tudataset

    calls = [0]
    scatter = tensor._scatter_rows

    def checked(idx, values, rows):
        got = scatter(idx, values, rows)
        assert got.tobytes() == _add_at(idx, values, rows).tobytes()
        calls[0] += 1
        return got

    monkeypatch.setattr(tensor, "_scatter_rows", checked)
    ds = parse_tudataset(mutag_dir)
    config = TrainConfig(seed=5)
    train_step(batch_graphs(ds.graphs[:32]),
               init_state(config, ds.feature_dim), config)
    mutag_calls = calls[0]
    assert mutag_calls >= 20

    a = _load_node_synth()
    g = Graph(len(a.labels), a.edges, a.features, np.ones(len(a.edges)))
    config = TrainConfig(task="node", policy_kind="random", seed=5)
    state = init_state(config, a.features.shape[1])
    for k in range(2):
        batch = make_node_task_batch(g, config.node_batch_subgraphs,
                                     config.hops,
                                     state.sample_root.split(f"nodebatch{k}"))
        train_step(batch, state, config)
    assert calls[0] - mutag_calls >= 20


def _unfused(op, args, relu=False):
    """The tape expression a fused op stands for."""
    if op is linear:
        x, w, b = args
        y = x @ w + b
        return y.clip_min(0.0) if relu else y
    h, src, dst, w = args
    return segment_sum(h.gather_rows(src) * w.reshape(-1, 1), dst, len(h.data))


def _check_fused_against_unfused(op, args, upstream, relu=False):
    """Value and every input gradient of ``op`` on fresh leaves holding
    ``args`` equal, bit for bit, those of the unfused expression; a leaf
    needs a gradient where its input in ``args`` does."""
    def leaves():
        return [Tensor(a.data, requires_grad=a.requires_grad)
                if isinstance(a, Tensor) else a for a in args]

    fused_in, unfused_in = leaves(), leaves()
    fused = op(*fused_in, **({"relu": relu} if op is linear else {}))
    unfused = _unfused(op, unfused_in, relu)
    assert fused.data.tobytes() == unfused.data.tobytes()
    if not fused.requires_grad:
        return
    (fused * Tensor(upstream)).sum().backward()
    (unfused * Tensor(upstream)).sum().backward()
    for a, b in zip(fused_in, unfused_in):
        if isinstance(a, Tensor) and a.requires_grad:
            assert a.grad.tobytes() == b.grad.tobytes()


def _fused_cases():
    stream = RngStream(37, "fused")
    for k in range(24):
        s = stream.split(f"case{k}")
        rows = [0, 1, 2, 7][k % 4] if k < 8 else int(s.integers(1, 9))
        d_in, d_out = int(s.integers(1, 5)), int(s.integers(1, 5))
        needs = s.uniform(3) < 0.5
        x = Tensor(s.uniform((rows, d_in)) - 0.5, requires_grad=needs[0])
        w = Tensor(s.uniform((d_in, d_out)) - 0.5, requires_grad=True)
        b = Tensor(s.uniform((d_out,)) - 0.5, requires_grad=needs[1])
        yield linear, (x, w, b), bool(k % 2), s.uniform((rows, d_out)) - 0.5
        # edges: none, self-loops only, or repeated pairs; zero weights
        nodes = max(rows, 1)
        edges = [0, nodes, int(s.integers(1, 30))][k % 3]
        src = s.integers(0, nodes, size=edges).astype(np.int64)
        dst = src.copy() if k % 3 == 1 else \
            s.integers(0, nodes, size=edges).astype(np.int64)
        weights = s.uniform(edges) - 0.5
        weights[s.uniform(edges) < 0.2] = 0.0
        h = Tensor(s.uniform((nodes, d_in)) - 0.5, requires_grad=needs[2])
        ew = Tensor(weights, requires_grad=bool(k % 2) or not needs[2])
        yield propagate, (h, src, dst, ew), False, s.uniform((nodes, d_in)) - 0.5


def test_fused_ops_match_the_unfused_tape_bit_for_bit():
    cases = list(_fused_cases())
    props = [args for op, args, _, _ in cases if op is propagate]
    assert any(not len(src) for _, src, _, _ in props)
    assert any(len(src) and (src == dst).all() for _, src, dst, _ in props)
    assert any(len(np.unique(dst)) < len(dst) for _, _, dst, _ in props)
    assert any((w.data == 0.0).any() for *_, w in props)
    assert {(h.requires_grad, w.requires_grad) for h, *_, w in props} == \
        {(True, True), (True, False), (False, True)}
    assert any(len(x.data) == 1 for op, (x, *_), _, _ in cases if op is linear)
    for op, args, relu, upstream in cases:
        _check_fused_against_unfused(op, args, upstream, relu)


def _blocked_propagate_cases():
    """Seeded graphs in four shapes: no edges; unsorted random edges with
    repeats and one destination left isolated; self-loops among random
    edges; and a hub that takes half the edges. Odd cases spread ``h``
    over magnitudes from 1e-150 to 1e150, where the summation order shows."""
    stream = RngStream(43, "blocked")
    for k in range(32):
        s = stream.split(f"case{k}")
        nodes, d = int(s.integers(2, 12)), int(s.integers(1, 4))
        edges = 0 if k % 4 == 0 else int(s.integers(8, 60))
        src = s.integers(0, nodes, size=edges).astype(np.int64)
        dst = s.integers(0, nodes, size=edges).astype(np.int64)
        if k % 4 == 1:
            isolated = int(s.integers(0, nodes))
            dst[dst == isolated] = (isolated + 1) % nodes
        elif k % 4 == 2:
            dst[::3] = src[::3]
        elif k % 4 == 3:
            dst[::2] = int(s.integers(0, nodes))
        h = s.uniform((nodes, d)) - 0.5
        if k % 2:
            h *= 10.0 ** s.integers(-150, 151, size=(nodes, d))
        w = s.uniform(edges) - 0.5
        w[s.uniform(edges) < 0.2] = 0.0
        yield h, src, dst, w


def test_blocked_propagate_matches_the_one_block_sum_bit_for_bit(monkeypatch):
    """With the limit lowered to 8 values, ``propagate`` sums consecutive
    destination ranges, each at most 8 values of in-edges unless one
    destination alone has more; its value, and its gradients against the
    unfused tape, keep the bits of the one-block sum."""
    cases = list(_blocked_propagate_cases())
    one_block = [propagate(Tensor(h), src, dst, Tensor(w)).data
                 for h, src, dst, w in cases]
    monkeypatch.setattr(tensor, "PROPAGATE_BLOCK_VALUES", 8)
    seen = set()
    for (h, src, dst, w), want in zip(cases, one_block):
        rows, d = h.shape
        counts = np.bincount(dst, minlength=rows)
        blocks = list(tensor._propagate_blocks(dst, rows, 8 // d))
        assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]]
        assert blocks[-1][1] == rows
        for lo, hi in blocks:
            assert counts[lo:hi].sum() * d <= 8 or hi == lo + 1
        got = propagate(Tensor(h), src, dst, Tensor(w)).data
        assert got.tobytes() == want.tobytes()
        seen.update({"empty": not len(src),
                     "blocks": len(blocks) > 1,
                     "hub": (counts * d > 8).any(),
                     "isolated": len(src) and (counts == 0).any(),
                     "self-loop": (src == dst).any(),
                     "repeat": len(np.unique(src * rows + dst)) < len(src),
                     "unsorted": (np.diff(dst) < 0).any()}.items())
        upstream = RngStream(47, "blocked").uniform(h.shape) - 0.5
        _check_fused_against_unfused(
            propagate, (Tensor(h, requires_grad=True), src, dst,
                        Tensor(w, requires_grad=True)), upstream)
    assert {name for name, shown in seen if shown} == {
        "empty", "blocks", "hub", "isolated", "self-loop", "repeat",
        "unsorted"}


@pytest.mark.parametrize("name,f,positive",
                         [op for op in OPS if op[0].startswith("propagate")])
def test_a_recorded_blocked_propagate_backprops_and_frees(
        name, f, positive, monkeypatch):
    """The ``OPS`` propagate cases (20 and 48 message values) with the limit
    lowered to 8 values sum in blocks, and their gradients, tape freeing,
    recording and result freeing are what the one-block tests check."""
    blocks = []
    split = tensor._propagate_blocks

    def counted(*args):
        ranges = list(split(*args))
        blocks.append(len(ranges))
        return ranges

    monkeypatch.setattr(tensor, "PROPAGATE_BLOCK_VALUES", 8)
    monkeypatch.setattr(tensor, "_propagate_blocks", counted)
    test_op_gradients_match_finite_differences(name, f, positive)
    test_tape_freed_by_refcount_after_backward(name, f, positive)
    test_only_a_result_that_needs_a_gradient_is_recorded(name, f, positive)
    test_a_result_array_lives_only_while_a_backward_reads_it(name)
    assert blocks and min(blocks) > 1


def test_fused_ops_of_real_training_steps_match_the_unfused_tape(
        mutag_dir, monkeypatch):
    """Every ``linear`` and ``propagate`` call of a MUTAG GRU step and a
    node-synth GCN step gives the value and gradients of the unfused tape
    expression, bit for bit, on the call's own arrays."""
    from graphaug import encoders
    from graphaug.graphs import Graph, batch_graphs, make_node_task_batch
    from graphaug.trainer import TrainConfig, init_state, train_step
    from graphaug.tudataset import parse_tudataset

    calls = {linear: 0, propagate: 0}
    stream = RngStream(41, "upstream")

    def checked(op):
        def call(*args, **kwargs):
            out = op(*args, **kwargs)
            upstream = stream.split(str(sum(calls.values()))).uniform(
                out.shape) - 0.5
            _check_fused_against_unfused(op, args, upstream, **kwargs)
            calls[op] += 1
            return out
        return call

    monkeypatch.setattr(encoders, "linear", checked(linear))
    monkeypatch.setattr(encoders, "propagate", checked(propagate))
    ds = parse_tudataset(mutag_dir)
    config = TrainConfig(seed=5)
    train_step(batch_graphs(ds.graphs[:32]),
               init_state(config, ds.feature_dim), config)
    assert calls[linear] >= 20 and calls[propagate] >= 6, calls
    graph_calls = dict(calls)

    a = _load_node_synth()
    g = Graph(len(a.labels), a.edges, a.features, np.ones(len(a.edges)))
    config = TrainConfig(task="node", policy_kind="random", seed=5)
    state = init_state(config, a.features.shape[1])
    batch = make_node_task_batch(g, config.node_batch_subgraphs, config.hops,
                                 state.sample_root.split("nodebatch0"))
    train_step(batch, state, config)
    assert calls[propagate] - graph_calls[propagate] >= 6, calls


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
        return ((x @ w).clip_min(0.0).softmax()).data
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


def test_parameter_set_under_is_the_prefix_in_insertion_order():
    ps = ParameterSet()
    for name in ("layer1/w", "layer10/w", "mlp/w0", "layer1/b", "mlp/b0",
                 "layer1"):
        ps.add(name, Tensor(np.zeros(1)))
    assert ps.under("layer1") == [ps["layer1/w"], ps["layer1/b"]]
    assert ps.under("mlp") == [ps["mlp/w0"], ps["mlp/b0"]]
    assert ps.under("lay") == []
