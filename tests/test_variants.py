"""Metamorphic tests on the benchmark's seeded variants, whose verdicts are
known in advance: a fan under a unimodular change of basis and a relabelling
of its rays keeps its validation report and its transitive-cone, root,
symmetry and class-rank counts. The generators are loaded from
perfbench/workloads.py, not copied."""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from toric_linsys import (
    build_presentation,
    demazure_roots,
    fan_from_json,
    fan_symmetries,
    irrelevant_generators,
    transitive_cones,
    validate_fan,
)

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
