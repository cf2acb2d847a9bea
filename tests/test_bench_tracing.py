"""The benchmark tracer's targets still name functions of the program."""

from __future__ import annotations

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
