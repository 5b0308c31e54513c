import numpy as np
import pytest

from graphaug.container import read_container, write_container
from graphaug.errors import CheckpointError, InvalidShapeError
from graphaug.optim import AdamState, adam_step, clip_by_global_norm
from graphaug.rng import RngStream
from graphaug.tensor import ParameterSet, Tensor


def _params(**kwargs):
    ps = ParameterSet()
    for k, v in kwargs.items():
        ps.add(k, Tensor(np.asarray(v, dtype=float)))
    return ps


def _step(ps, state, lr, **grads):
    """One ``adam_step`` with ``grads`` set on the named parameters."""
    for name, g in grads.items():
        ps[name].grad = np.asarray(g, dtype=float)
    adam_step(ps, state, lr)


def test_adam_first_step_equals_lr():
    ps = _params(w=[1.0])
    state = AdamState()
    _step(ps, state, 0.1, w=[1.0])
    assert abs(ps["w"].data[0] - 0.9) < 1e-6   # bias-corrected first step = -lr*sign(g)
    assert state.step == 1


def test_adam_zero_grad_leaves_params():
    ps = _params(w=[2.0, -1.0])
    state = AdamState()
    _step(ps, state, 0.1, w=np.zeros(2))
    assert np.array_equal(ps["w"].data, [2.0, -1.0])
    assert state.step == 1


def test_adam_masked_update():
    ps = _params(a=[1.0], b=[1.0])
    state = AdamState()
    _step(ps, state, 0.1, a=[0.5])
    assert ps["b"].data[0] == 1.0
    assert "b" not in state.m and "b" not in state.v
    assert ps["a"].data[0] != 1.0


def test_adam_shape_mismatch():
    ps = _params(w=[1.0, 2.0])
    with pytest.raises(InvalidShapeError):
        _step(ps, AdamState(), 0.1, w=np.zeros(3))


def test_clip_by_global_norm():
    grads = [np.array([3.0, 0.0]), np.array([0.0, 4.0])]
    norm = clip_by_global_norm(grads, 1.0)
    assert abs(norm - 5.0) < 1e-12
    total = sum(float((g * g).sum()) for g in grads) ** 0.5
    assert abs(total - 1.0) < 1e-12
    small = [np.array([0.1])]
    clip_by_global_norm(small, 1.0)
    assert small[0][0] == 0.1



def test_clip_by_global_norm_of_gradients_whose_squares_overflow():
    """Squares that overflow do not zero the gradients: the norm is taken
    relative to the largest entry, and the clip still scales to max_norm."""
    grads = [np.full(4, 1e200), np.array([3.0])]
    norm = clip_by_global_norm(grads, 5.0)
    assert norm == pytest.approx(2e200, rel=1e-12)
    assert np.all(grads[0] == pytest.approx(2.5, rel=1e-12))
    scaled = sum(float((g * g).sum()) for g in grads) ** 0.5
    assert scaled == pytest.approx(5.0, rel=1e-12)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_clip_by_global_norm_leaves_non_finite_gradients(bad):
    grads = [np.array([bad, 1.0]), np.array([2.0])]
    norm = clip_by_global_norm(grads, 1.0)
    assert not np.isfinite(norm)
    assert np.array_equal(grads[0], [bad, 1.0], equal_nan=True)
    assert grads[1][0] == 2.0

# -- rng streams -------------------------------------------------------------

def test_stream_determinism_and_split_independence():
    a = RngStream(7).split("x")
    b = RngStream(7).split("x")
    c = RngStream(7).split("y")
    va, vb, vc = a.uniform(8), b.uniform(8), c.uniform(8)
    assert np.array_equal(va, vb)
    assert not np.array_equal(va, vc)


def test_stream_state_roundtrip_mid_sequence():
    s = RngStream(11)
    s.uniform(5)
    saved = s.get_state()
    expect = s.uniform(10)
    resumed = RngStream.from_state(saved)
    assert np.array_equal(resumed.uniform(10), expect)


def test_a_stream_that_only_splits_builds_no_generator():
    root = RngStream(5, "step")
    children = [root.split(f"g{k}") for k in range(4)]
    grandchild = children[0].split("center")
    assert all(s._gen is None for s in [root, grandchild, *children])
    children[1].uniform(3)
    assert children[1]._gen is not None and root._gen is None


def test_lazy_streams_draw_as_an_eager_philox():
    root = RngStream(13, "lazy")
    for k in range(50):
        stream = root.split(f"label-{k}")
        eager = np.random.Generator(
            np.random.Philox(key=int.from_bytes(stream._key, "little")))
        if k % 2:                        # the state of an undrawn stream too
            assert stream.get_state()["counter"] == [
                int(c) for c in eager.bit_generator.state["state"]["counter"]]
        assert np.array_equal(stream.uniform(7), eager.random(7))
        assert np.array_equal(stream.permutation(9), eager.permutation(9))
        state = stream.get_state()
        want = eager.bit_generator.state
        assert state["counter"] == [int(c) for c in want["state"]["counter"]]
        assert state["buffer"] == [int(c) for c in want["buffer"]]
        assert (state["buffer_pos"], state["has_uint32"], state["uinteger"]) \
            == (want["buffer_pos"], want["has_uint32"], want["uinteger"])
        assert np.array_equal(RngStream.from_state(state).uniform(5),
                              eager.random(5))


def test_gumbel_and_logistic_are_finite():
    s = RngStream(3)
    g = s.gumbel(10000)
    l = s.logistic(10000)
    assert np.isfinite(g).all() and np.isfinite(l).all()


# -- container ----------------------------------------------------------------

def test_container_roundtrip_bit_exact(tmp_path):
    path = tmp_path / "c.bin"
    tensors = {
        "w": RngStream(0).uniform((3, 4)),
        "scalar": np.array(3.25),
    }
    meta = {"kind": "test", "nested": {"seed": 9}}
    write_container(path, meta, tensors)
    meta2, loaded = read_container(path)
    assert meta2 == meta
    for k in tensors:
        assert np.array_equal(loaded[k], tensors[k])
        assert loaded[k].dtype == np.float64


def test_container_rejects_an_integer_array(tmp_path):
    """Checkpoints hold float64 alone, so the container stores nothing
    else."""
    path = tmp_path / "c.bin"
    with pytest.raises(CheckpointError,
                       match="unsupported dtype int64 for 'idx'"):
        write_container(path, {}, {"idx": np.arange(5, dtype=np.int64)})
    assert not path.exists()


def test_container_write_failure_keeps_previous_file(tmp_path, monkeypatch):
    import builtins
    from graphaug import container
    path = tmp_path / "c.bin"
    write_container(path, {"v": 1}, {"w": np.ones((4, 4))})
    before = path.read_bytes()

    class FailingFile:
        """Real file whose third write raises, after bytes have gone out."""

        def __init__(self, *args):
            self.f = builtins.open(*args)
            self.writes = 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, data):
            self.writes += 1
            if self.writes == 3:
                raise OSError("disk full")
            return self.f.write(data)

    monkeypatch.setattr(container, "open", FailingFile, raising=False)
    with pytest.raises(OSError, match="disk full"):
        write_container(path, {"v": 2}, {"w": np.zeros((8, 8))})
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.bin"]


def test_container_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(CheckpointError):
        read_container(path)


def test_container_rejects_truncation(tmp_path):
    path = tmp_path / "c.bin"
    write_container(path, {}, {"w": np.ones((4, 4))})
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(CheckpointError):
        read_container(path)


def header_only_container(path, header) -> None:
    import json
    import struct
    raw = json.dumps(header).encode()
    path.write_bytes(b"GAPC" + struct.pack("<I", 1)
                     + struct.pack("<Q", len(raw)) + raw + b"\x00" * 16)


@pytest.mark.parametrize("shape", [[2 ** 32, 2 ** 32], [2 ** 62, 4]])
def test_container_rejects_a_shape_whose_size_overflows_int64(tmp_path,
                                                              shape):
    # either product wraps to 0 in int64, which once passed the size check
    path = tmp_path / "c.bin"
    header_only_container(path, {"meta": {}, "tensors": [
        {"name": "w", "shape": shape, "dtype": "f8"}]})
    with pytest.raises(CheckpointError, match="truncated \\(payload 'w'\\)"):
        read_container(path)


def test_container_rejects_wrong_version(tmp_path):
    path = tmp_path / "c.bin"
    write_container(path, {}, {"w": np.ones(2)})
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        read_container(path)


@pytest.mark.parametrize("header", [
    {"meta": {}},                                           # no tensor list
    {"meta": {}, "tensors": [{"name": "w", "shape": [2],
                              "dtype": "f4"}]},             # unknown dtype
    [{"meta": {}}],                                         # not an object
    {"meta": {}, "tensors": [{"name": "w", "shape": [-2],
                              "dtype": "f8"}]},             # negative size
    {"meta": {}, "tensors": [{"name": "w", "shape": [2],
                              "dtype": "i8"}]},             # int64: float64 only
])
def test_container_rejects_malformed_header(tmp_path, header):
    path = tmp_path / "c.bin"
    header_only_container(path, header)
    with pytest.raises(CheckpointError, match="malformed"):
        read_container(path)
