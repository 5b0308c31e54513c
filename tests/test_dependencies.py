import ast
import importlib
import sys
from pathlib import Path

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
SECOND_SCHEMAS_BY_DESIGN = {
    "EncoderConfig": "one encoder's settings: TrainConfig.aug_encoder and "
                     "base_encoder build one per role, and the node task's "
                     "GCN is fixed at 2 layers",
}


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
