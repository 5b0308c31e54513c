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
    "names": "the benchmark harness compares checkpoints' parameter sets "
             "by it (perfbench/workloads.py)",
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


def trace_sites() -> list:
    """``SITES`` of perfbench/spans.py, read from its source: the
    ``(module, attribute, span)`` triples that ``--trace 1`` patches."""
    path = ROOT / "perfbench" / "spans.py"
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.Assign) and \
                any(getattr(t, "id", None) == "SITES" for t in node.targets):
            return list(ast.literal_eval(node.value))
    raise AssertionError(f"no SITES assignment in {path}")


def test_benchmark_trace_sites_resolve():
    """A name deleted or moved in src/ would make the traced benchmark run
    fail on entry, when the tracer looks each site up."""
    sites = trace_sites()
    assert sites
    missing = [(module, attr) for module, attr, _ in sites
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing, f"perfbench/spans.py wraps names src/ lacks: {missing}"
