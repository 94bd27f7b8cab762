"""Every name the benchmark tracer patches exists in the package.

perfbench/tracing.py wraps functions and PathModel methods by name; a
rename in the package would otherwise surface only at the next benchmark
run.  The module is loaded by file path so the package on PYTHONPATH is
all this needs.
"""

import importlib
import importlib.util

import pytest

from conftest import ROOT
from cmospath.path import PathModel

spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)


@pytest.mark.parametrize("module, function, span", tracing.FUNCTIONS)
def test_traced_function_exists(module, function, span):
    mod = importlib.import_module(f"cmospath.{module}")
    assert callable(getattr(mod, function, None)), \
        f"cmospath.{module}.{function}"


@pytest.mark.parametrize("method, span", tracing.METHODS)
def test_traced_method_exists(method, span):
    assert callable(getattr(PathModel, method, None)), f"PathModel.{method}"
