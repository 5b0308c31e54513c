"""graphaug benchmark: one workload per invocation.

    python3 perfbench/run.py --workload mutag-train --seed 1 --seconds 20 --trace 0

Run from the repository root. With ``--trace 0`` the last stdout line is a
JSON object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced pass, and the spans go to
``perfbench/out/trace-<workload>-<seed>.jsonl``. The line before the result
carries the figures behind it, every check that failed and the environment.
See ``perfbench/README.md`` for the workloads and metrics.
"""
from __future__ import annotations

import os

# One BLAS thread: the program's matrices are small, a second thread buys
# nothing on 2 cores and makes every call wait for the slower core. Set
# before numpy loads; an explicit setting in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import ctypes
import gc
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
SETUP_REPEATS = 5           # per block of extra set-ups, at least
SETUP_SECONDS = 0.5         # per block of extra set-ups, at least
NAMES = ("mutag-train", "mutag-probe", "node-synth")
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"))
# End-to-end figures that are not measured on every workload, or not
# steadily: mutag-probe does not train, the other two do not probe, a MUTAG
# embed takes ~10 ms, and failed_frac is 0 on a healthy run. They are
# reported with the per-layer metrics.
PARTIAL_END_TO_END = (("embed_s", "s"), ("step_ms_p50", "ms"),
                      ("step_ms_p90", "ms"), ("train_graphs_per_s", "graphs/s"),
                      ("final_loss", "nats"), ("probe_s", "s"),
                      ("probe_acc", "fraction"), ("failed_frac", "fraction"))


def missing_inputs(workload: str) -> str | None:
    if not (ROOT / "src" / "graphaug" / "__init__.py").is_file():
        return f"program sources not found under {ROOT / 'src'}"
    if workload.startswith("mutag") and \
            not (ROOT / "data" / "MUTAG" / "MUTAG_A.txt").is_file():
        return f"dataset not found: {ROOT / 'data' / 'MUTAG'}"
    return None


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f
                    if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, fn, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads(), "machine": platform.machine()}


def percentile(values: list, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def figures(passes: list) -> dict:
    """The end-to-end figures of a list of passes of one workload."""
    steps = [s for p in passes for s in p.step_s]
    embeds = [s for p in passes for s in p.embed_s]
    trained = sum(p.trained_graphs for p in passes)
    train_s = sum(p.train_s for p in passes)
    first = passes[0]
    return {
        "run_s": statistics.median(p.run_s for p in passes),
        "embed_s": statistics.median(embeds) if embeds else 0.0,
        "step_ms_p50": 1e3 * percentile(steps, 50),
        "step_ms_p90": 1e3 * percentile(steps, 90),
        "step_samples": len(steps),
        "train_graphs_per_s": trained / train_s if train_s else 0.0,
        "final_loss": first.final_loss or 0.0,
        "probe_s": first.probe_s or 0.0,
        "probe_acc": first.probe_acc or 0.0,
    }


def check_repeats(workload, passes: list, ledger) -> None:
    """The same seed must give the same quality figure on every pass."""
    values = [getattr(p, workload.quality) for p in passes]
    if len(set(values)) > 1:
        ledger.fail(f"{workload.quality} differs between passes of one "
                    f"seed: {values}")


def timed_setup(workload):
    t0 = time.perf_counter()
    ctx = workload.setup()
    return ctx, time.perf_counter() - t0


def extra_setups(workload, setups: list) -> None:
    """Set up again for ``SETUP_SECONDS``, ``SETUP_REPEATS`` times at least."""
    t_end = time.perf_counter() + SETUP_SECONDS
    for _ in range(SETUP_REPEATS):
        setups.append(timed_setup(workload)[1])
    while time.perf_counter() < t_end:
        setups.append(timed_setup(workload)[1])


def measure(workload, seconds: float, ledger):
    """Passes on fresh set-ups until the next one would end after
    ``seconds``; at least one. Extra set-ups before and after the passes
    sample the machine's speed at both ends of the run for ``setup_s``."""
    setups, passes = [], []
    extra_setups(workload, setups)
    t_start = time.perf_counter()
    while True:
        ctx, dt = timed_setup(workload)
        setups.append(dt)
        gc.collect()            # no garbage of earlier passes in this one
        passes.append(workload.run(ctx, ledger))
        if time.perf_counter() - t_start + passes[-1].run_s > seconds:
            break
    extra_setups(workload, setups)
    return setups, passes


def traced_pass(workload, seed: int, ledger):
    """An untraced pass, then a traced one on the same seed."""
    from spans import Tracer
    ctx, _ = timed_setup(workload)
    plain = workload.run(ctx, ledger)
    with Tracer() as tracer:
        ctx, _ = timed_setup(workload)
        traced = workload.run(ctx, ledger)
    check_repeats(workload, [plain, traced], ledger)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"trace-{workload.name}-{seed}.jsonl")
    layers = tracer.layer_metrics()
    layers["trace.overhead_s"] = (traced.run_s - plain.run_s, "s")
    return plain, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = missing_inputs(args.workload)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import graphaug
    if Path(graphaug.__file__).resolve().parent != ROOT / "src" / "graphaug":
        print(f"error: imported graphaug from {graphaug.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, OUT_DIR)
    ledger = workloads.Ledger()
    if args.trace:
        plain, layers = traced_pass(workload, args.seed, ledger)
        figs = figures([plain])
        passes = 1
    else:
        setups, runs = measure(workload, args.seconds, ledger)
        check_repeats(workload, runs, ledger)
        figs = figures(runs)
        figs["setup_s"] = statistics.median(setups)
        passes = len(runs)
    figs["failed_frac"] = ledger.failed / max(1, ledger.attempted)
    figs["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in sorted(layers.items())}
        metrics.update({name: {"value": figs[name], "unit": unit}
                        for name, unit in PARTIAL_END_TO_END})
    else:
        metrics = {name: {"value": figs[name], "unit": unit}
                   for name, unit in END_TO_END}
    for why in ledger.problems:
        print(f"check failed: {why}", file=sys.stderr)
    print(json.dumps({"detail": {
        "workload": args.workload, "seed": args.seed, "passes": passes,
        "figures": figs, "problems": ledger.problems,
        "environment": environment()}}))
    correct = not ledger.problems
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
