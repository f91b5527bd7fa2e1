"""Exact toolkit for complete simplicial toric varieties: transitivity of
invariant points, Demazure roots and fan symmetries, Cox presentations,
dimensions of point-multiplicity linear systems, and degeneration
certificates of toric non-speciality."""

from .lattice import (
    Fan,
    LatticePolytope,
    ValidationReport,
    fan_from_json,
    fan_to_json,
    lattice_points,
    normal_fan,
    polytope_from_json,
    polytope_to_json,
    primitivize,
    validate_fan,
)
from .fan_analysis import (
    CapsuleResult,
    DemazureRoot,
    P1PowerResult,
    TransitivityVerdict,
    demazure_roots,
    detect_p1_power,
    fan_symmetries,
    ray_index_partition,
    roots_outside_sigma_check,
    transitive_cones,
    vertex_capsule,
)
from .cox import (
    CoxAutomorphismStep,
    CoxPresentation,
    SectionPolytope,
    apply_root_step,
    build_presentation,
    divisor_class,
    irrelevant_generators,
    move_torus_point_to_invariant,
    section_polytope,
    to_standard_form,
)
from .linsys import (
    GenericityError,
    InterpolationMatrix,
    LinearSystem,
    SpecialityReport,
    analyze,
    analyze_polytope_system,
    derivative_orders,
    generic_rank,
)
from .rank import RankConfig, TrialEvidence, is_prime
from .degeneration import (
    CertificateNode,
    HypothesisTranscript,
    PolytopeSystem,
    SplitPieces,
    SplitSpec,
    certificate_from_json,
    certificate_to_json,
    certify,
    check_hypotheses,
    delta_c_mu,
    ensure_standard_form,
    split_polytope,
    verify_certificate,
)

__version__ = "0.1.0"
