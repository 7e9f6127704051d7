"""The benchmark's per-layer tracing wraps library functions by name; a
removed or renamed target would break a traced run, so each one must exist."""

import importlib
import importlib.util
import inspect
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_every_traced_span_target_resolves():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SPAN_TARGETS
    for module, name in tracing.SPAN_TARGETS:
        target = getattr(importlib.import_module(f"tuhyper.{module}"), name, None)
        assert callable(target), f"{module}.{name}"
    # traced as generators: each resumption is one span
    for name in tracing.GENERATORS:
        module, _, fname = name.partition(".")
        target = getattr(importlib.import_module(f"tuhyper.{module}"), fname)
        assert inspect.isgeneratorfunction(target), name
