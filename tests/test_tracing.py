"""The benchmark's tracer binds package functions by name; each must exist.
The exact simplex `lp_solve` is bound only by `linalg` and called by none of
the fan commands."""

import importlib
import importlib.util
from pathlib import Path

from toric_linsys import (
    demazure_roots,
    validate_fan,
    vertex_capsule,
)
from toric_linsys.catalog import example_fan, example_polytope

from lp_oracles import no_lp, package_modules

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


# every fan and polytope the catalog names (`--example` specs)
FAN_SPECS = ("pn:1", "pn:2", "pn:3", "pn:4", "p1n:1", "p1n:2", "p1n:3",
             "p1n:4", "hirzebruch:0", "hirzebruch:1", "hirzebruch:2",
             "hirzebruch:3", "bl3p2",
             "box:2x1", "box:1x2x3", "simplex:3:2", "trapezoid:2:1")
POLYTOPE_SPECS = ("box:2x1", "box:1x2x3", "simplex:2:3", "simplex:3:2",
                  "trapezoid:2:1", "trapezoid:3:1", "bl3p2", "square")


def test_only_linalg_binds_lp_solve():
    binders = [m.__name__ for m in package_modules() if "lp_solve" in vars(m)]
    assert binders == ["toric_linsys.linalg"]


def test_fan_commands_make_no_lp_call():
    with no_lp():
        for spec in FAN_SPECS:
            fan = example_fan(spec)
            assert validate_fan(fan).valid, spec
            demazure_roots(fan)
        for spec in POLYTOPE_SPECS:
            poly = example_polytope(spec)
            for v in poly.vertices:
                try:
                    vertex_capsule(poly, v)
                except ValueError:
                    pass  # not a smooth vertex
