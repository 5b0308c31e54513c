import numpy as np
import pytest

from graphaug.heads import init_head_params
from graphaug.policy import AugmentationKind
from graphaug.tensor import ParameterSet, Tensor, finite_diff_grad


def rel_err(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-6) -> float:
    """Componentwise relative error with clamped denominators."""
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    denom = np.maximum(np.abs(numeric), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_grad(f, x: np.ndarray, tol: float = 1e-3, eps: float = 1e-5) -> float:
    """Assert backward() on f matches central differences at x."""
    xt = Tensor(np.asarray(x, dtype=float), requires_grad=True)
    loss = f(xt)
    loss.backward()
    analytic = xt.grad.copy()
    numeric = finite_diff_grad(f, Tensor(np.asarray(x, dtype=float)), eps=eps).data
    err = rel_err(analytic, numeric)
    assert err <= tol, f"gradient mismatch: rel err {err:.3e}"
    return err


def one_graph(head, *args, **kwargs):
    """Call a batched head (or ``apply_augmentation``) on a single graph.

    A graph is already a batch of one; a 1-D graph encoding goes in as a
    (1, d) row. The view comes back as the head made it, a one-graph
    ``GraphBatch`` that carries its provenance (``orig_ids``, each node's id
    in the input), with the head's soft parameters.
    """
    def wrap(a):
        if isinstance(a, Tensor) and a.ndim == 1:
            return a.reshape(1, -1)
        return a

    return head(*map(wrap, args), **{k: wrap(v) for k, v in kwargs.items()})


def head_set(d_h, d_x, seed, kinds=tuple(AugmentationKind)) -> ParameterSet:
    """The parameters of every head in ``kinds`` in one set, as a training
    state holds them: each head's as ``{kind}/...``."""
    params = ParameterSet()
    for kind in kinds:
        init_head_params(params, kind, d_h, d_x, seed)
    return params


def head_names(params, kind) -> list:
    """The names in ``params`` of head ``kind``'s parameters."""
    return [n for n in params.names() if n.startswith(f"{kind.value}/")]


@pytest.fixture
def made_tensors(monkeypatch):
    """Every ``Tensor`` constructed while the test runs, in order."""
    made = []
    init = Tensor.__init__

    def counting_init(tensor, *args, **kwargs):
        made.append(tensor)
        init(tensor, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    return made


@pytest.fixture(scope="session")
def mutag_dir():
    from pathlib import Path
    path = Path(__file__).resolve().parent.parent / "data" / "MUTAG"
    if not (path / "MUTAG_A.txt").exists():
        pytest.skip("MUTAG dataset files not present under data/MUTAG")
    return path
