"""Static checks on the package's imports, with the standard-library `ast`."""

import ast
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parent.parent / "src" / "ualgebra").glob("*.py"))


def _top_level_imports(tree: ast.Module):
    """(bound name, imported name) for each top-level import statement."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, alias.name


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)
    assert [bound for bound, _ in _top_level_imports(tree) if bound not in used] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_helper_imported_from_another_module(path):
    tree = ast.parse(path.read_text())
    assert [name for _, name in _top_level_imports(tree) if name.startswith("_")] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_algebras_defines_packers(path):
    # the row-major layout of tables and fiber products lives in `algebras`
    tree = ast.parse(path.read_text())
    packers = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and "pack" in node.name
    ]
    assert path.name == "algebras.py" or packers == []
