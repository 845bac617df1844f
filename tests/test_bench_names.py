"""The bench tracer (perfbench/spans.py) wraps rcwb functions by module and
name from outside the package; every name it lists must still resolve, or
a traced pass stops at install time.  spans.py is read, not imported, so
nothing is written next to it."""

import importlib
import pathlib
import runpy

import pytest

SPANS = runpy.run_path(str(pathlib.Path(__file__).resolve().parents[1]
                           / "perfbench" / "spans.py"))


@pytest.mark.parametrize("module,name",
                         sorted(set(SPANS["TIMED"]) | set(SPANS["HOOKS"])))
def test_traced_name_resolves(module, name):
    fn = getattr(importlib.import_module("rcwb." + module), name, None)
    assert callable(fn), f"rcwb.{module}.{name}"
