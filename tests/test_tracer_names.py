"""The names the benchmark's tracer wraps still resolve on ``lsi_lab``.

``perfbench/tracing.py`` rebinds each traced function, by module and name,
at every ``lsi_lab`` attribute that holds it.  A renamed or moved function
would drop out of ``--trace 1`` without failing anything here, so this
loads the tracer by path and checks its names against the package.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("module,name", [(module, name) for module, name, _ in tracing.TRACED]
                         + [tuple(tracing.QUAD.split("."))])
def test_each_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"lsi_lab.{module}"), name))


# a function re-imported by name, and the module that defines it: the tracer
# sees the re-import only because it holds the very same object
@pytest.mark.parametrize("module,name,home", [
    ("bg", "tail_mass", "mollify"),
    ("bg", "log_density", "mollify"),
    ("bg", "median", "mollify"),
    ("bg", "reciprocal_integral", "mollify"),
    ("bg", "log_adaptive_quad", "quadrature"),
    ("mollify", "log_adaptive_quad", "quadrature"),
    ("rmt", "spectrum", "rmt"),
])
def test_reimported_names_are_the_traced_functions(module, name, home):
    traced = {tuple(t[:2]) for t in tracing.TRACED} | {tuple(tracing.QUAD.split("."))}
    assert (home, name) in traced
    held = getattr(importlib.import_module(f"lsi_lab.{module}"), name)
    assert held is getattr(importlib.import_module(f"lsi_lab.{home}"), name)
