"""Metamorphic tests on the benchmark's seeded variants, whose verdicts are
known in advance: a fan under a unimodular change of basis and a relabelling
of its rays keeps its validation report and its transitive-cone, root,
symmetry and class-rank counts; a system under a permutation of its
coordinates, rows and points, or on a changed fan with an equivalent
divisor, keeps its counts and dimensions; a polytope under a unimodular map
keeps its capsule verdict; and a certify search whose variant keeps the
axes keeps its outcome. The generators are loaded from
perfbench/workloads.py, not copied."""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from toric_linsys import (
    PolytopeSystem,
    RankConfig,
    analyze_polytope_system,
    build_presentation,
    certify,
    demazure_roots,
    fan_from_json,
    fan_symmetries,
    irrelevant_generators,
    polytope_from_json,
    transitive_cones,
    validate_fan,
    vertex_capsule,
)
from toric_linsys.cli import system_from_obj
from toric_linsys.linsys import toric_counts

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while they are built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()
FAN_SPECS = sorted({case.fan for case in workloads.FAN if case.fan})


def fan_invariants(fan):
    """What a change of basis and a ray relabelling leave unchanged; the
    cone order is kept, so the validation report is too."""
    verdict = transitive_cones(fan)
    try:
        cp = build_presentation(verdict)
        cox = cp.class_rank, sorted(map(len, irrelevant_generators(cp.fan)))
    except ValueError as exc:  # not quasi-transitive
        cox = str(exc)
    return {"validate": validate_fan(fan),
            "transitive": len(verdict.transitive_cone_indices),
            "roots": len(demazure_roots(fan)),
            "symmetries": len(fan_symmetries(fan)),
            "cox": cox}


def test_the_fan_workload_names_fans():
    assert len(FAN_SPECS) > 10


@pytest.mark.parametrize("spec", FAN_SPECS)
def test_fan_variants_keep_the_fan_invariants(spec):
    base = fan_from_json(workloads.fan_of(spec))
    expected = fan_invariants(base)
    assert expected["validate"].valid
    for seed in range(5):
        variant, _ = workloads.fan_variant(workloads.fan_of(spec),
                                           random.Random(seed))
        assert fan_invariants(fan_from_json(variant)) == expected, seed


def system_cases():
    """Each distinct system of the dim, sweep and certify cases, by name;
    the two largest interp matrices (231 and 165 columns) are left out for
    time."""
    found = {}
    for case in workloads.INTERP + workloads.EXACT + workloads.DEGEN:
        for task in case.tasks or (case,):
            found.setdefault(task.name, task)
    del found["simplex2-20-4x20"], found["simplex3-8-2x30"]
    return found


SYSTEMS = system_cases()


def base_system(case):
    """The (polytope, mults) of a case as the benchmark writes it unvaried."""
    obj = {"multiplicities": list(case.mults)}
    if case.poly is not None:
        obj["polytope"] = case.poly
    else:
        obj.update(fan=workloads.fan_of(case.fan),
                   divisor={"standard": list(case.cls)})
    return system_from_obj(obj)[:2]


def system_invariants(poly, mults):
    h0, truncs, tvdim = toric_counts(poly, mults)
    report = analyze_polytope_system(poly, mults, RankConfig(trials=2))
    return {"h0": h0, "tvdim": tvdim,
            "truncations": sorted(zip(mults, truncs)),
            "dims": (report.dim, report.edim, report.tedim)}


def test_the_system_slice_names_every_workload_with_systems():
    assert {c.name for c in workloads.DEGEN} <= set(SYSTEMS)
    assert len(SYSTEMS) > 50


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_system_variants_keep_the_counts_and_dims(name):
    case = SYSTEMS[name]
    expected = system_invariants(*base_system(case))
    for seed in range(3):
        variant = workloads.system_variant(case, random.Random(seed))
        poly, mults, _ = system_from_obj(variant)
        assert system_invariants(poly, mults) == expected, seed


CAPSULES = [case for case in workloads.FAN if case.cmd == "capsule"]


@pytest.mark.parametrize("case", CAPSULES, ids=lambda case: case.name)
def test_unimodular_images_keep_the_capsule_verdict(case):
    def verdict(poly, vertex):
        result = vertex_capsule(polytope_from_json(poly), tuple(vertex))
        return (result.contains_polytope, result.certified,
                len(result.capsule_vertices))

    expected = verdict(case.poly, case.vertex)
    for seed in range(5):
        poly, vertex = workloads.unimodular_polytope(
            case.poly, case.vertex, random.Random(seed))
        assert verdict(poly, vertex) == expected, seed


def certify_outcome(poly, mults, case):
    cert = certify(PolytopeSystem(poly, mults), cfg=RankConfig(seed=1),
                   max_depth=8 if case.max_depth is None else case.max_depth)
    h0, _, tvdim = toric_counts(poly, mults)
    return cert is not None, h0, tvdim


@pytest.mark.parametrize("case", workloads.DEGEN, ids=lambda case: case.name)
def test_certify_variants_keep_the_outcome(case):
    # certify variants keep the axes (a staircase stays in standard form);
    # the rows, the points and, on a fan, its basis and ray labels change
    expected = certify_outcome(*base_system(case), case)
    for seed in range(2):
        variant = workloads.system_variant(case, random.Random(seed))
        assert certify_outcome(*system_from_obj(variant)[:2], case) == \
            expected, seed
