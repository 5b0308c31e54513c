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
    ParameterSet, Tensor, concat, finite_diff_grad, gru_sequence,
    segment_softmax, segment_sum, xavier_init,
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
    ("clip_min", lambda t: t.clip_min(0.25).sum(), False),
    ("segment_softmax", lambda t: (segment_softmax(t.reshape(12), [0, 1, 5, 6])
                                   * Tensor(_rand((12,), label="ssm"))).sum(),
     False),
    ("gru_sequence", lambda t: (gru_sequence(
        t, Tensor(_rand((4, 6), label="gru_wx")),
        Tensor(_rand((2, 6), label="gru_wh")),
        Tensor(_rand((6,), label="gru_b"))) * Tensor(_rand((1, 2), label="gru_w"))
    ).sum(), False),
    ("concat", lambda t: (concat([Tensor(_rand((3, 2), label="cat")), t],
                                 axis=1) * Tensor(_rand((3, 6), label="cat_w"))
                          ).sum(), False),
    ("segment_sum", lambda t: (segment_sum(t, [2, 0, 2], 4) ** 2.0).sum(),
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
    without an overflow warning."""
    big = np.array([[-1e3, 1e3, -800.0, 800.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = Tensor(big, requires_grad=True)
        s = x.sigmoid()
        (s.sum() + x.softplus().sum()).backward()
        assert np.array_equal(s.data, [[0.0, 1.0, 0.0, 1.0]])
        assert np.array_equal(x.grad, [[0.0, 1.0, 0.0, 1.0]])
        inputs = _gru_inputs(3, d_in=4)
        h = gru_sequence(Tensor(np.repeat(big, 3, axis=0)),
                         *(Tensor(inputs[k] * 1e3, requires_grad=True)
                           for k in GRU_ARGS[1:]))
        h.sum().backward()
    assert np.isfinite(h.data).all()


def test_backward_frees_interior_grads_and_keeps_leaf_grads():
    x = Tensor(_rand((5, 4), label="free_x"))
    b = Tensor(_rand((3,), label="free_b"), requires_grad=True)

    def f(w, bias=b):
        return ((x @ w + bias).sigmoid() ** 2.0).sum()

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


def _load_node_synth():
    """The node-synth workload's seeded Cora-shaped graph."""
    import importlib.util
    from pathlib import Path
    path = Path(__file__).resolve().parent.parent / "perfbench" / "synth.py"
    spec = importlib.util.spec_from_file_location("perfbench_synth", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.generate(5)


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


def test_parameter_set_under_is_the_prefix_in_insertion_order():
    ps = ParameterSet()
    for name in ("layer1/w", "layer10/w", "mlp/w0", "layer1/b", "mlp/b0",
                 "layer1"):
        ps.add(name, Tensor(np.zeros(1)))
    assert ps.under("layer1") == [ps["layer1/w"], ps["layer1/b"]]
    assert ps.under("mlp") == [ps["mlp/w0"], ps["mlp/b0"]]
    assert ps.under("lay") == []
