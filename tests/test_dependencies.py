import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "graphaug"
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
