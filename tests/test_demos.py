"""The demos are not run by the test suite; this checks, without running
them, that every name they import from couettelab exists and that every
keyword they pass to an imported callable is one it accepts."""

import ast
import importlib
import inspect
import pathlib

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("couettelab"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                imported[alias.asname or alias.name] = getattr(module, alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in imported and callable(imported[node.func.id])):
            params = inspect.signature(imported[node.func.id]).parameters
            if any(p.kind is p.VAR_KEYWORD for p in params.values()):
                continue
            for kw in node.keywords:
                assert kw.arg is None or kw.arg in params, \
                    f"{path.name}:{node.lineno}: {node.func.id}({kw.arg}=...)"
