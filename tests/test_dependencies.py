import ast
import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "graphaug"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "graphaug"}


def imported_roots(path: Path) -> set:
    """Top-level names of the absolute imports in one module."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            roots |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_runtime_imports_only_stdlib_and_numpy(path):
    assert imported_roots(path) <= ALLOWED, imported_roots(path) - ALLOWED


def test_guard_sees_a_third_party_import(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("import os\nfrom scipy import sparse\nfrom . import x\n")
    assert imported_roots(module) - ALLOWED == {"scipy"}


# Functions defined in src/ that no code in src/ calls, each with the reason
# it stays. Anything else that only tests reach belongs in tests/. The CLI
# commands need no entry: build_parser wires them up and main() runs them.
UNCALLED_BY_DESIGN = {
    "finite_diff_grad": "the independent gradient oracle the tests check "
                        "backward() against; exported by the package",
}


def defined_functions(paths) -> dict:
    """Top-level functions and methods (dunders skipped) -> defining file."""
    defined = {}
    for path in paths:
        for node in ast.parse(path.read_text(), str(path)).body:
            body = node.body if isinstance(node, ast.ClassDef) else [node]
            for fn in body:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not (fn.name.startswith("__")
                                 and fn.name.endswith("__")):
                    defined.setdefault(fn.name, path.name)
    return defined


def referenced_names(paths) -> set:
    """Every identifier that code loads, as a bare name or an attribute.

    Def names, imports, strings and comments are not references, so a
    function only re-exported or only mentioned in a docstring counts as
    uncalled.
    """
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def uncalled_functions(paths) -> dict:
    used = referenced_names(paths)
    return {name: where for name, where in defined_functions(paths).items()
            if name not in used}


def test_src_defines_no_function_only_tests_call():
    uncalled = uncalled_functions(sorted(SRC.glob("*.py")))
    assert set(UNCALLED_BY_DESIGN) <= set(uncalled), \
        "exception no longer needed: " \
        f"{sorted(set(UNCALLED_BY_DESIGN) - set(uncalled))}"
    extra = {n: f for n, f in uncalled.items() if n not in UNCALLED_BY_DESIGN}
    assert not extra, f"defined in src/ but never called there: {extra}"


def test_guard_flags_a_function_only_a_docstring_names(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from .other import helper\n\n"
        "def used():\n    return 1\n\n"
        "def unused():\n    \"\"\"Not used() by anything.\"\"\"\n\n"
        "class Box:\n"
        "    def __init__(self):\n        self.v = used()\n\n"
        "    def size(self):\n        return self.v\n\n"
        "    def orphan(self):\n        return Box().size()\n")
    assert uncalled_functions([module]) == {"unused": "mod.py",
                                            "orphan": "mod.py"}


# Defaulted parameters of functions in src/ that no call in src/ or
# perfbench/ passes, as "file:qualified.name.parameter", each with the reason
# it stays. A parameter only tests set is a setting the program never turns.
UNSET_BY_DESIGN = {
    "cli.py:main.argv": "the tests run the CLI in process with their own "
                        "arguments; the console script reads sys.argv",
    "trainer.py:train.state": "resumes a run from a loaded state; "
                              "perfbench's mutag-train passes it through "
                              "Ledger.call, which the guard cannot follow",
}


def defaulted_parameters(paths, skip=()) -> dict:
    """"file:qualified.name.parameter" -> (callee, index, name) for every
    parameter with a default of a def (at any depth) not named in ``skip``.
    A call of ``callee`` by name sets it: a class call for its
    ``__init__``. ``index`` is its place among a call's positional
    arguments (a method's first parameter, its receiver, is none of them),
    None for a keyword-only one."""
    found = {}

    def visit(node, scope, name, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, scope + (child.name,), name, True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = scope + (child.name,)
                visit(child, qual, name, False)
                if child.name in skip:
                    continue
                callee = (scope[-1] if in_class and child.name == "__init__"
                          else child.name)
                a = child.args
                positional = a.posonlyargs + a.args
                first = len(positional) - len(a.defaults)
                for i, p in enumerate(positional[first:], first):
                    found[f"{name}:{'.'.join(qual)}.{p.arg}"] = (
                        callee, i - in_class, p.arg)
                for p, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        found[f"{name}:{'.'.join(qual)}.{p.arg}"] = (
                            callee, None, p.arg)

    for path in paths:
        visit(ast.parse(path.read_text(), str(path)), (), path.name, False)
    return found


def _sets(call: ast.Call, index, name) -> bool:
    """Whether ``call`` may pass the parameter: a positional argument at
    its place or a ``*args`` anywhere, its keyword or a ``**kwargs``."""
    if index is not None and (
            index < len(call.args)
            or any(isinstance(arg, ast.Starred) for arg in call.args)):
        return True
    return any(k.arg in (None, name) for k in call.keywords)


def unset_parameters(defining, calling, skip=()) -> set:
    """The defaulted parameters of the defs in ``defining`` that no call in
    ``calling`` passes. Calls match by name (``f(...)`` and ``x.f(...)``
    both call every def named f), so the check is a lower bound: numpy's
    ``x.mean(axis=1)`` sets every ``mean``'s ``axis``."""
    calls = {}
    for path in calling:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id",
                                 getattr(node.func, "attr", None))
                calls.setdefault(callee, []).append(node)
    return {param for param, (callee, index, name)
            in defaulted_parameters(defining, skip).items()
            if not any(_sets(call, index, name)
                       for call in calls.get(callee, ()))}


def test_src_parameters_have_a_caller_that_sets_them():
    src = sorted(SRC.glob("*.py"))
    unset = unset_parameters(src, src + sorted((ROOT / "perfbench")
                                               .glob("*.py")),
                             skip=UNCALLED_BY_DESIGN)
    stale = sorted(set(UNSET_BY_DESIGN) - unset)
    assert not stale, f"exception no longer needed: {stale}"
    extra = sorted(unset - set(UNSET_BY_DESIGN))
    assert not extra, f"defaulted parameters no caller sets: {extra}"


def test_guard_flags_a_parameter_only_a_test_sets(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "def f(a, b=1, c=2, *, d=3, e=4):\n    return a + b + c + d + e\n\n"
        "def g(x, /, y=0):\n    return x + y\n\n"
        "class Box:\n"
        "    def __init__(self, size=1, unit='m'):\n"
        "        self.size = size\n\n"
        "    def scaled(self, by=2.0, tag=None):\n"
        "        return self.size * by\n\n"
        "    def spread(self, *args, **kw):\n"
        "        return (f(*args), g(1), Box(3).scaled(2.0))\n\n"
        "def h(n=0, m=0):\n"
        "    return f(0, 1, e=5, **{'d': n}), Box(unit='s'), h(m=1)\n")
    test = tmp_path / "test_mod.py"
    test.write_text("from mod import Box, g, h\n\n"
                    "def test_box():\n"
                    "    assert g(1, y=2) == 3 and Box().scaled(tag='t')\n"
                    "    assert h(n=1)\n")
    only_tests = {"mod.py:g.y", "mod.py:Box.scaled.tag", "mod.py:h.n"}
    assert unset_parameters([module], [module]) == only_tests
    assert unset_parameters([module], [module, test]) == set()
    assert unset_parameters([module], [module], skip={"h"}) == \
        only_tests - {"mod.py:h.n"}


# Parameters of functions in src/ that the function never reads, as
# "file:function.parameter", each with the reason it stays. A parameter no
# body reads is a setting that changes no result.
UNREAD_BY_DESIGN = {}


def unread_parameters(paths) -> set:
    """Every parameter (of a def, method or lambda, at any depth) that its
    function's body, nested functions included, never loads."""
    unread = set()
    for path in paths:
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
                continue
            a = fn.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                      + [a.vararg, a.kwarg] if p is not None]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            loaded = {node.id for stmt in body for node in ast.walk(stmt)
                      if isinstance(node, ast.Name)}
            name = getattr(fn, "name", "<lambda>")
            unread |= {f"{path.name}:{name}.{p}" for p in params
                       if p not in loaded}
    return unread


def test_src_functions_read_every_parameter():
    unread = unread_parameters(sorted(SRC.glob("*.py")))
    assert set(UNREAD_BY_DESIGN) <= unread, \
        f"exception no longer needed: {sorted(set(UNREAD_BY_DESIGN) - unread)}"
    extra = sorted(unread - set(UNREAD_BY_DESIGN))
    assert not extra, f"parameters their function never reads: {extra}"


def test_guard_flags_an_unread_parameter(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "def f(a, b, *args, c=1, **kw):\n"
        "    def inner():\n        return a\n"
        "    return inner() + c + len(args)\n\n"
        "class Box:\n"
        "    def size(self, unit):\n        return self.n\n\n"
        "g = lambda x, y: x\n")
    assert unread_parameters([module]) == {
        "mod.py:f.b", "mod.py:f.kw", "mod.py:size.unit", "mod.py:<lambda>.y"}


# Dataclass fields in src/ that no code in src/ reads, as "Class.field", each
# with the reason it stays. A field no code reads is state nothing uses. The
# check goes by name, so it is a lower bound: a field passes when any
# attribute of its name is read anywhere in src/. It would not have flagged
# GraphBatch.labels, because EmbeddingTable.labels is read.
UNREAD_FIELDS_BY_DESIGN = {}


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _declared_fields(cls: ast.ClassDef) -> list:
    return [stmt.target.id for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)]


def unread_fields(paths) -> dict:
    """"Class.field" -> defining file, for every dataclass field whose name
    src/ never loads as an attribute and never holds as a string constant
    (the validators read fields through ``getattr(self, name)``)."""
    fields, read = {}, set()
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields.update({f"{node.name}.{name}": path.name
                               for name in _declared_fields(node)})
            elif isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return {name: where for name, where in fields.items()
            if name.split(".", 1)[1] not in read}


def test_src_dataclasses_have_no_unread_field():
    unread = unread_fields(sorted(SRC.glob("*.py")))
    stale = sorted(set(UNREAD_FIELDS_BY_DESIGN) - set(unread))
    assert not stale, f"exception no longer needed: {stale}"
    extra = {n: f for n, f in unread.items()
             if n not in UNREAD_FIELDS_BY_DESIGN}
    assert not extra, f"dataclass fields src/ never reads: {extra}"


def test_guard_flags_a_field_only_written(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "import dataclasses\n"
        "from dataclasses import dataclass, field\n\n"
        "@dataclass\nclass Box:\n"
        "    size: int\n    written: int = 0\n    named: int = 0\n"
        "    derived: int = field(init=False)\n\n"
        "    def __post_init__(self):\n        self.derived = self.size\n\n"
        "@dataclasses.dataclass(frozen=True)\nclass Pair:\n"
        "    left: int\n    right: int\n\n"
        "class Plain:\n    ignored: int\n\n"
        "def f(box, pair):\n"
        "    box.written = Box(size=1, written=2)\n"
        "    return pair.left + getattr(box, 'named')\n")
    assert unread_fields([module]) == {"Box.written": "mod.py",
                                       "Box.derived": "mod.py",
                                       "Pair.right": "mod.py"}


# Dataclasses in src/ other than TrainConfig that declare two or more of its
# field names, each with the reason. TrainConfig is the one schema of a
# run's settings; a class that repeats its fields is a second one to keep in
# step with it.
SECOND_SCHEMAS_BY_DESIGN = {}


def second_schemas(paths, schema="TrainConfig") -> dict:
    """Dataclass -> the field names, sorted, that it shares with ``schema``,
    for every other dataclass that shares two or more."""
    fields = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields[node.name] = set(_declared_fields(node))
    own = fields[schema]
    return {name: sorted(own & f) for name, f in fields.items()
            if name != schema and len(own & f) >= 2}


def test_train_config_is_the_one_settings_schema():
    shared = second_schemas(sorted(SRC.glob("*.py")))
    stale = sorted(set(SECOND_SCHEMAS_BY_DESIGN) - set(shared))
    assert not stale, f"exception no longer needed: {stale}"
    extra = {n: f for n, f in shared.items()
             if n not in SECOND_SCHEMAS_BY_DESIGN}
    assert not extra, f"dataclasses that repeat TrainConfig fields: {extra}"


def test_guard_flags_a_second_schema(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from dataclasses import dataclass\n\n"
        "@dataclass\nclass TrainConfig:\n"
        "    seed: int = 0\n    lr: float = 0.1\n    epochs: int = 1\n\n"
        "@dataclass\nclass Copy:\n    lr: float\n    seed: int\n\n"
        "@dataclass\nclass Report:\n    seed: int\n    acc: float\n\n"
        "class Plain:\n    lr: float\n    seed: int\n")
    assert second_schemas([module]) == {"Copy": ["lr", "seed"]}


def trace_sites() -> list:
    """``SITES`` of perfbench/spans.py, read from its source: the
    ``(module, attribute, span)`` triples that ``--trace 1`` patches."""
    path = ROOT / "perfbench" / "spans.py"
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.Assign) and \
                any(getattr(t, "id", None) == "SITES" for t in node.targets):
            return list(ast.literal_eval(node.value))
    raise AssertionError(f"no SITES assignment in {path}")


# Trace sites that no code calls through, each with the reason it stays. A
# dead site records 0 calls and leaves its time in the caller's self time.
DEAD_SITES_BY_DESIGN = {
    ("graphaug.graphs", "batch_graphs"):
        "graphs.py builds node-task batches with khop_bfs; the trainer and "
        "evaluation sites time every batch_graphs call, and dropping this "
        "site is benchmark upkeep (ROADMAP item 9)",
    ("graphaug.evaluation", "khop_bfs"):
        "the node-task embed is one encode of the whole graph and cuts no "
        "ego-nets; dropping this site is benchmark upkeep (ROADMAP item 9)",
    ("graphaug.evaluation", "adam_step"):
        "the probe fits by Newton's method and takes no Adam step; dropping "
        "this site is benchmark upkeep (ROADMAP item 9)",
}


def site_callers(modules, others=()) -> set:
    """``(module, attribute)`` pairs that code looks up when it runs: a bare
    name loaded in a file of ``modules`` (``graphaug.<stem>``), or
    ``<module>.attribute`` loaded in any file. Those are the lookups a
    patched site intercepts; an import alone is none."""
    found = set()
    for path in list(modules) + list(others):
        module = f"graphaug.{path.stem}" if path in modules else None
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if module and isinstance(node, ast.Name):
                found.add((module, node.id))
            elif isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name):
                found.add((f"graphaug.{node.value.id}", node.attr))
    return found


def test_benchmark_trace_sites_resolve():
    """A name deleted or moved in src/ would make the traced benchmark run
    fail on entry, when the tracer looks each site up. A site that nothing
    calls through would record 0 calls and misattribute the time."""
    sites = trace_sites()
    assert sites
    missing = [(module, attr) for module, attr, _ in sites
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing, f"perfbench/spans.py wraps names src/ lacks: {missing}"
    called = site_callers(sorted(SRC.glob("*.py")),
                          sorted((ROOT / "perfbench").glob("*.py")))
    dead = {(module, attr) for module, attr, _ in sites
            if (module, attr) not in called}
    stale = sorted(set(DEAD_SITES_BY_DESIGN) - dead)
    assert not stale, f"exception no longer needed: {stale}"
    extra = sorted(dead - set(DEAD_SITES_BY_DESIGN))
    assert not extra, f"perfbench/spans.py wraps sites nothing calls: {extra}"


@pytest.mark.parametrize("workload", ["mutag-train", "mutag-probe",
                                      "node-synth"])
def test_benchmark_traced_pass_runs(workload):
    """One traced pass of each benchmark workload, as its per-layer figures
    are taken: it exits 0 with every check correct and no operation failed.
    The workloads read more of the program than the trace sites (the
    Dataset constructor, HeadOutput, AdamState, a patched train_step)."""
    if workload.startswith("mutag") and \
            not (ROOT / "data" / "MUTAG" / "MUTAG_A.txt").is_file():
        pytest.skip("MUTAG dataset files not present under data/MUTAG")
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result


def test_benchmark_untraced_pass_runs():
    """The untraced run, whose end-to-end figures the benchmark compares: on
    node-synth it exits 0 with every check correct and no operation failed,
    and reports set-up time, pass time and peak RSS as finite positive
    numbers."""
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "node-synth",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    for name in ("setup_s", "run_s", "peak_rss_mb"):
        value = result["metrics"][name]["value"]
        assert math.isfinite(value) and value > 0, (name, result)


def test_guard_sees_only_lookups_a_site_intercepts(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from .graphs import batch_graphs, khop_bfs\n"
        "from . import container\n\n"
        "def f(g):\n"
        "    container.write_container(g)\n"
        "    return khop_bfs(g, [0], 1)\n")
    found = site_callers([module])
    assert ("graphaug.mod", "khop_bfs") in found
    assert ("graphaug.container", "write_container") in found
    assert ("graphaug.mod", "batch_graphs") not in found


# Where src/ multiplies matrices, as "file:function" or a whole "file", each
# with the reason. Every dense layer runs through encoders.mlp, which calls
# the fused tensor.linear op, so no model module multiplies a weight itself.
MATMUL_BY_DESIGN = {
    "objective.py:pairwise_scores": "the discriminators' score tables, "
                                    "among them the bilinear x @ W @ g.T",
    "tensor.py": "numpy products inside the tape's own ops: the matmul "
                 "backward, the fused dense layer linear and the fused GRU",
    "evaluation.py": "the linear probe, numpy arrays with no tape",
}
MATMUL_CALLS = {"matmul", "dot", "einsum", "tensordot"}


def matmul_sites(paths) -> set:
    """"file:function" for every matrix product: ``@``, ``@=``, or a call
    named in ``MATMUL_CALLS``. The function is the innermost enclosing def,
    ``<module>`` outside any."""
    sites = set()

    def visit(node, fn, name):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and \
                isinstance(node.op, ast.MatMult) or \
                isinstance(node, ast.Call) and getattr(
                    node.func, "attr", getattr(node.func, "id", None)) \
                in MATMUL_CALLS:
            sites.add(f"{name}:{fn}")
        for child in ast.iter_child_nodes(node):
            visit(child, fn, name)

    for path in paths:
        visit(ast.parse(path.read_text(), str(path)), "<module>", path.name)
    return sites


def unplanned(sites, allowed) -> list:
    return sorted(s for s in sites
                  if s not in allowed and s.split(":")[0] not in allowed)


def test_matrix_products_stay_in_mlp_and_the_scores():
    sites = matmul_sites(sorted(SRC.glob("*.py")))
    stale = sorted(k for k in MATMUL_BY_DESIGN
                   if not any(s == k or s.startswith(k + ":") for s in sites))
    assert not stale, f"exception no longer needed: {stale}"
    extra = unplanned(sites, MATMUL_BY_DESIGN)
    assert not extra, f"unlisted matrix products: {extra}"


def test_guard_sees_every_matrix_product(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "import numpy as np\n\n"
        "def layer(x, w):\n    return x @ w + 1\n\n"
        "class Box:\n"
        "    def f(self, a):\n        a @= a\n        return a.dot(a)\n\n"
        "def g(a):\n"
        "    def inner():\n        return np.matmul(a, a)\n"
        "    return inner() * a\n\n"
        "def h(a):\n    return a * a\n\n"
        "EYE = np.einsum('ii->i', np.eye(2))\n")
    sites = matmul_sites([module])
    assert sites == {"mod.py:layer", "mod.py:f", "mod.py:inner",
                     "mod.py:<module>"}
    assert unplanned(sites, {"mod.py:layer", "mod.py:f"}) == \
        ["mod.py:<module>", "mod.py:inner"]
    assert unplanned(sites, {"mod.py"}) == []


# Lookups of the tape's accumulation helpers outside ``Tensor.backward``, as
# "file:Class.function", each with the reason. A backward closure returns its
# parents' gradients; only ``Tensor.backward`` sums each down to its parent's
# shape and adds it into the parent's ``grad``.
ACCUMULATION_BY_DESIGN = {}
ACCUMULATORS = {"_accum", "_unbroadcast"}
BACKWARD = "tensor.py:Tensor.backward"


def accumulation_sites(paths) -> set:
    """"file:qualified.name" of the innermost class or def around every
    lookup of a name in ``ACCUMULATORS``, as a bare name or an attribute; a
    lambda counts as its enclosing def, ``<module>`` outside any."""
    sites = set()

    def visit(node, scope, name):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if getattr(node, "id", getattr(node, "attr", None)) in ACCUMULATORS \
                and isinstance(node, (ast.Name, ast.Attribute)):
            sites.add(f"{name}:{'.'.join(scope) or '<module>'}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope, name)

    for path in paths:
        visit(ast.parse(path.read_text(), str(path)), (), path.name)
    return sites


def test_only_backward_accumulates_gradients():
    sites = accumulation_sites(sorted(SRC.glob("*.py"))
                               + sorted((ROOT / "tests").glob("*.py")))
    assert BACKWARD in sites
    stale = sorted(set(ACCUMULATION_BY_DESIGN) - sites)
    assert not stale, f"exception no longer needed: {stale}"
    extra = sorted(sites - set(ACCUMULATION_BY_DESIGN) - {BACKWARD})
    assert not extra, f"{sorted(ACCUMULATORS)} outside {BACKWARD}: {extra}"


def test_guard_flags_accumulation_outside_backward(tmp_path):
    module = tmp_path / "tensor.py"
    module.write_text(
        "class Tensor:\n"
        "    def _accum(self, g):\n        self.grad = g\n\n"
        "    def backward(self):\n"
        "        self._accum(_unbroadcast(self.grad, ()))\n\n"
        "    def __add__(self, other):\n"
        "        def backprop(o):\n            self._accum(o.grad)\n"
        "        return lambda o: other._accum(o.grad)\n\n"
        "def concat(ts):\n    add = _unbroadcast\n    return add(ts, ())\n\n"
        "class Other:\n    def backward(self):\n        self._accum(1)\n\n"
        "def _unbroadcast(g, shape):\n    return g\n")
    assert accumulation_sites([module]) == {
        BACKWARD, "tensor.py:Tensor.__add__.backprop",
        "tensor.py:Tensor.__add__", "tensor.py:concat",
        "tensor.py:Other.backward"}


def held_objects(fn) -> list:
    """The objects in a closure's cells, and in the tuples, lists, sets,
    dicts and closures among them."""
    found, stack = [], [c.cell_contents for c in fn.__closure__ or ()]
    while stack:
        obj = stack.pop()
        found.append(obj)
        if isinstance(obj, (tuple, list, set, frozenset)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif getattr(obj, "__closure__", None):
            stack.extend(c.cell_contents for c in obj.__closure__)
    return found


def captured_tape_objects(loss) -> list:
    """"closure: type" for every tensor or tape node that a backward closure
    on the tape below ``loss`` holds, however deep in its cells."""
    from graphaug.tensor import Tensor, _Node

    found, seen, stack = [], set(), [loss._entry()]
    while stack:
        entry = stack.pop()
        if id(entry) in seen:
            continue
        seen.add(id(entry))
        stack.extend(entry._parents)
        if entry._backprop is not None:
            found += [f"{entry._backprop.__qualname__}: {type(obj).__name__}"
                      for obj in held_objects(entry._backprop)
                      if isinstance(obj, (Tensor, _Node))]
    return found


def test_tape_closures_capture_no_tensor_or_node(mutag_dir, monkeypatch):
    """A backward closure gets its output node as an argument and captures
    only arrays and plain values, so no op keeps a whole parent, and with it
    the parent's array, alive until backward: every ``OPS`` entry of
    ``test_tensor`` and four GRU-policy steps on 32 MUTAG graphs."""
    from graphaug.graphs import batch_graphs
    from graphaug.tensor import Tensor
    from graphaug.trainer import TrainConfig, init_state, train_step
    from graphaug.tudataset import parse_tudataset
    from test_tensor import OPS, _rand

    for name, f, positive in OPS:
        lo, hi = (0.5, 2.0) if positive else (-2.0, 2.0)
        loss = f(Tensor(_rand((3, 4), lo, hi, label=name), requires_grad=True))
        assert not captured_tape_objects(loss), name
    losses, found = [], []
    backward = Tensor.backward

    def checked_backward(tensor):
        losses.append(tensor)
        found.extend(captured_tape_objects(tensor))
        backward(tensor)

    monkeypatch.setattr(Tensor, "backward", checked_backward)
    ds = parse_tudataset(mutag_dir)
    config = TrainConfig(batch_size=32, seed=5)
    state = init_state(config, ds.feature_dim)
    batch = batch_graphs(ds.graphs[:32])
    for _ in range(4):
        train_step(batch, state, config)
    assert len(losses) == 4 and not found, sorted(set(found))


def test_guard_sees_a_captured_tensor_or_node():
    from graphaug.tensor import Tensor

    a = Tensor([1.0, 2.0], requires_grad=True)
    b = a * 2.0
    clean = Tensor._result(b.data.copy(), (b,), lambda o: (o.grad,))
    assert captured_tape_objects(clean.sum()) == []
    boxed = {"parents": [b._entry()]}

    def nested(o):
        return (o.grad * b.data,)

    kept = [Tensor._result(b.data, (b,), lambda o: (o.grad * a.data,)),
            Tensor._result(b.data, (b,), lambda o: (o.grad, boxed)[:1]),
            Tensor._result(b.data, (b,), lambda o: nested(o))]
    where = "test_guard_sees_a_captured_tensor_or_node.<locals>.<lambda>"
    assert [captured_tape_objects(t) for t in kept] == [
        [f"{where}: Tensor"], [f"{where}: _Node"], [f"{where}: Tensor"]]


# Parameter tensors that get no gradient under some configurations, as
# "group/name" -> ((estimator, discriminator) pairs, why), on either task.
# Every other tensor of every group must learn under every configuration.
NO_GRADIENT_BY_DESIGN = {
    "theta/proj_node/b2": (
        {(e, d) for e in ("nce", "nt_xent") for d in ("dot", "bilinear")},
        "the node projection's last bias adds b.g (or bWg) to every score of "
        "graph vector g's row, and nce and nt_xent are a softmax over that "
        "row"),
    "theta/disc/b1": (
        {(e, "mlp") for e in ("nce", "nt_xent", "dv")},
        "the MLP discriminator's last bias shifts every score alike, and "
        "nce, nt_xent and dv ignore a shift of all scores"),
}
GRADIENT_FLOOR = 1e-12


def guard_configs() -> list:
    """Every estimator x discriminator x task; cosine runs the uniform
    policy, the one it accepts. At width 16 (seed 1) ω's large graph vectors
    fix the node-drop head's ReLU pattern within each graph, so its ``b0``
    reads 0 as a per-graph shift; width 32 does not."""
    from graphaug.objective import DISCRIMINATORS, ESTIMATORS
    from graphaug.trainer import TrainConfig

    return [TrainConfig(estimator=e, discriminator=d, task=task,
                        hidden_dim=32, seed=1,
                        policy_kind="random" if d == "cosine" else "gru")
            for e in ESTIMATORS for d in DISCRIMINATORS
            for task in ("graph", "node")]


def guard_batch(dataset, config):
    from graphaug.graphs import batch_graphs, make_node_task_batch
    from graphaug.rng import RngStream

    if config.task == "graph":
        return batch_graphs(dataset.graphs[:8])
    return make_node_task_batch(dataset.graphs[0], 4, config.hops,
                                RngStream(config.seed, "guard-batch"))


def unreached_tensors(state, config, batch) -> set:
    """"group/name" of every tensor of ``state`` whose |grad| stays at or
    below ``GRADIENT_FLOOR`` in each of a few forwards of ``step_loss``,
    with every group on the tape. The forwards force their kind pairs, so
    each kind is drawn by construction, and keep the policy's real ``p_i``
    and ``p_j``."""
    from graphaug import trainer
    from graphaug.policy import PolicyDecision, active_kinds, \
        policy_distribution
    from graphaug.rng import RngStream

    kinds = active_kinds(config.task)
    pairs = [(kinds[k], kinds[(k + 1) % len(kinds)])
             for k in range(0, len(kinds), 2)]
    dead = {f"{g}/{name}" for g in trainer.GROUPS
            for name in state.group(g).names()}
    for step, pair in enumerate(pairs):
        def forced(reps, stream, params, kinds):
            dist = policy_distribution(reps, params, len(kinds))
            return PolicyDecision(dist, *pair, *(
                dist.gather_rows([kinds.index(k)]).reshape(()) for k in pair))

        for g in trainer.GROUPS:
            state.group(g).zero_grads()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trainer, "decide", forced)
            loss, _, _ = trainer.step_loss(batch, state, config,
                                           RngStream(step, "guard"))
        loss.backward()
        dead -= {f"{g}/{name}" for g in trainer.GROUPS
                 for name, t in state.group(g).items() if t.grad is not None
                 and np.abs(t.grad).max() > GRADIENT_FLOOR}
    return dead


def test_every_parameter_gets_a_gradient(mutag_dir):
    """Under every estimator x discriminator x task, each tensor of every
    group gets a gradient but the registry's, and each entry still names a
    tensor that gets none. One seed, 8 MUTAG graphs or 4 node-task
    neighborhoods of MUTAG's first graph."""
    from graphaug.trainer import init_state
    from graphaug.tudataset import parse_tudataset

    datasets = {task: parse_tudataset(mutag_dir, task)
                for task in ("graph", "node")}
    unexpected, stale = [], []
    for config in guard_configs():
        ds = datasets[config.task]
        dead = unreached_tensors(init_state(config, ds.feature_dim), config,
                                 guard_batch(ds, config))
        allowed = {name for name, (where, _) in NO_GRADIENT_BY_DESIGN.items()
                   if (config.estimator, config.discriminator) in where}
        label = f"{config.task}/{config.estimator}/{config.discriminator}"
        unexpected += [f"{label}: {name}" for name in sorted(dead - allowed)]
        stale += [f"{label}: {name}" for name in sorted(allowed - dead)]
    assert not unexpected, f"no gradient reaches: {unexpected}"
    assert not stale, f"exception no longer needed: {stale}"


def test_guard_flags_a_parameter_nothing_reads(mutag_dir):
    from graphaug.tensor import zeros_param
    from graphaug.trainer import init_state
    from graphaug.tudataset import parse_tudataset

    config = guard_configs()[0]
    ds = parse_tudataset(mutag_dir)
    state = init_state(config, ds.feature_dim)
    state.heads.add("node_drop/unread", zeros_param((3,)))
    assert unreached_tensors(state, config, guard_batch(ds, config)) == \
        {"heads/node_drop/unread"}
