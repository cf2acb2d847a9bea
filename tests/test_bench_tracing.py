"""The benchmark tracer's targets still name functions of the program."""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path


def _tracing_module():
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracing_target_resolves():
    # the traced benchmark run wraps each binding in place (install() patches
    # modules globally, so it is not called here); a binding a refactor drops,
    # such as a grid function no longer imported by name, makes that run fail
    targets = _tracing_module().TARGETS
    assert targets
    for module, attr, _ in targets:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(owner, part), (module, attr)
            owner = getattr(owner, part)
        assert callable(owner), (module, attr)


def test_every_unread_import_is_a_tracing_target():
    # a name a module imports but never reads is dead, unless the tracer wraps
    # that binding; then removing it would break the traced benchmark run
    targets: dict[str, set[str]] = {}
    for module, attr, _ in _tracing_module().TARGETS:
        targets.setdefault(module.rpartition(".")[2], set()).add(attr)
    src = Path(__file__).resolve().parent.parent / "src" / "mapperbound"
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).partition(".")[0]
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__" for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        assert imported - read <= targets.get(path.stem, set()), path.name
