"""The benchmark's tracer binds package functions by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    traced = load_tracing().TRACED
    assert traced
    for modname, fname in traced:
        module = importlib.import_module(f"toric_linsys.{modname}")
        assert callable(getattr(module, fname, None)), f"{modname}.{fname}"
    # install() also wraps this method on the class
    lattice = importlib.import_module("toric_linsys.lattice")
    assert callable(getattr(lattice.LatticePolytope, "bounding_box", None))
