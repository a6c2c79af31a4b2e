"""The benchmark scripts find every library name they read."""

import ast
import importlib
import importlib.util
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("script", ["traced.py", "run.py"])
def test_bench_script_imports(script, monkeypatch):
    """Loading the script runs its module-level imports from the library."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py puts bench/ first
    spec = importlib.util.spec_from_file_location(f"bench_{script[:-3]}", BENCH / script)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))


@pytest.mark.parametrize("path", sorted(BENCH.glob("*.py")), ids=lambda p: p.name)
def test_bench_reads_only_library_names_that_exist(path):
    """Each name a bench file imports from the library, also inside a function, and each
    attribute it reads off an imported library module, exists."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and str(node.module).startswith("uncertain_spatial"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                bound[alias.asname or alias.name] = getattr(module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("uncertain_spatial"):
                    importlib.import_module(alias.name)
                    # ``import a.b as c`` binds a.b to c; ``import a.b`` binds a
                    name = alias.name if alias.asname else alias.name.split(".")[0]
                    bound[alias.asname or name] = sys.modules[name]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = bound.get(node.value.id)
            if isinstance(module, types.ModuleType):
                assert hasattr(module, node.attr), f"{module.__name__}.{node.attr}"
