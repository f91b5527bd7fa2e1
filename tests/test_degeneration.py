import json
import random

import pytest

from toric_linsys import (
    LatticePolytope,
    PolytopeSystem,
    RankConfig,
    SplitSpec,
    analyze_polytope_system,
    certificate_from_json,
    certificate_to_json,
    certify,
    check_hypotheses,
    delta_c_mu,
    ensure_standard_form,
    lattice_points,
    split_polytope,
    verify_certificate,
)
from toric_linsys.catalog import (
    box_polytope,
    hexagon_polytope,
    simplex_polytope,
    trapezoid_polytope,
)


CFG = RankConfig(seed=40)


def test_split_box():
    box = box_polytope((2, 1))
    pieces = split_polytope(box, 0, 1)
    assert len(lattice_points(pieces.minus_prev)) == 2   # {0} x [0,1]
    assert len(lattice_points(pieces.plus)) == 4         # [1,2] x [0,1]
    assert pieces.plus_anchor == (1, 0)


def test_split_trapezoid():
    trap = trapezoid_polytope(3, 1)
    pieces = split_polytope(trap, 0, 2)
    assert len(lattice_points(pieces.minus_prev)) == 4
    assert sorted(lattice_points(pieces.plus)) == [(2, 0), (2, 1), (3, 0)]


def test_split_at_full_width():
    box = box_polytope((2, 1))
    pieces = split_polytope(box, 0, 2)
    # plus piece is the right edge, minus piece is everything
    assert sorted(lattice_points(pieces.plus)) == [(2, 0), (2, 1)]
    assert len(lattice_points(pieces.minus)) == 6


def test_split_level_bounds():
    box = box_polytope((2, 1))
    with pytest.raises(ValueError):
        split_polytope(box, 0, 0)
    with pytest.raises(ValueError):
        split_polytope(box, 0, 3)


def test_slab_bookkeeping_identity():
    # |P-_{c-1}| + |P+_{c-1}| counts the slab {m_i = c-1} once more than |P|
    rng = random.Random(2)
    polys = [box_polytope((3, 2)), trapezoid_polytope(4, 2),
             simplex_polytope(2, 4), box_polytope((2, 2, 2))]
    for p in polys:
        n = p.dim
        for axis in range(n):
            width = max(int(v[axis]) for v in p.vertices)
            for c in range(1, width + 1):
                pieces = split_polytope(p, axis, c)
                total = len(lattice_points(p))
                minus = len(lattice_points(pieces.minus_prev))
                plus = len(lattice_points(pieces.plus_prev))
                slab = sum(1 for m in lattice_points(p) if m[axis] == c - 1)
                assert minus + plus == total + slab


def test_delta_c_mu():
    assert delta_c_mu(2, 0, 1, 1) == ((1, 0),)
    assert set(delta_c_mu(2, 0, 0, 2)) == {(0, 0), (1, 0), (0, 1)}
    assert set(delta_c_mu(2, 0, 2, 2)) == {(2, 0), (3, 0), (2, 1)}


def test_delta_c_mu_is_translate():
    for n in (2, 3):
        for axis in range(n):
            for mu in (1, 2, 3):
                for c in (1, 2, 5):
                    base = delta_c_mu(n, axis, 0, mu)
                    shifted = delta_c_mu(n, axis, c, mu)
                    off = tuple(c if j == axis else 0 for j in range(n))
                    assert set(shifted) == {
                        tuple(u[j] + off[j] for j in range(n)) for u in base}


def test_check_hypotheses_box_pass():
    box = box_polytope((2, 1))
    spec = SplitSpec(axis=0, level=1, point_split=1)
    pieces = split_polytope(box, 0, 1)
    rep_minus = analyze_polytope_system(pieces.minus_prev, (1,), CFG)
    shift = tuple(-x for x in pieces.plus_anchor)
    rep_plus = analyze_polytope_system(pieces.plus.translate(shift), (1,), CFG)
    tr = check_hypotheses(box, spec, (1, 1), rep_minus, rep_plus)
    assert tr.passed
    assert (tr.tvdim_minus, tr.tvdim_plus) == (0, 2)
    assert tr.shifted_delta_in_plus_ok and tr.base_delta_in_minus_ok
    assert tr.witness is None


def test_check_hypotheses_containment_failure():
    box = box_polytope((2, 1))
    # level 2 leaves no room for the shifted simplex of a double point
    spec = SplitSpec(axis=0, level=2, point_split=1)
    pieces = split_polytope(box, 0, 2)
    rep_minus = analyze_polytope_system(pieces.minus_prev, (2,), CFG)
    shift = tuple(-x for x in pieces.plus_anchor)
    rep_plus = analyze_polytope_system(pieces.plus.translate(shift), (), CFG)
    tr = check_hypotheses(box, spec, (2,), rep_minus, rep_plus)
    assert not tr.passed
    assert not tr.shifted_delta_in_plus_ok
    assert tr.witness[0] == "shifted_delta_in_plus"


def test_check_hypotheses_product_failure():
    class Fake:
        def __init__(self, tvdim, toric_special=False):
            self.tvdim = tvdim
            self.toric_special = toric_special

    box = box_polytope((2, 1))
    spec = SplitSpec(axis=0, level=1, point_split=1)
    tr = check_hypotheses(box, spec, (1, 1), Fake(-3), Fake(1))
    assert not tr.product_ok and not tr.passed
    tr = check_hypotheses(box, spec, (1, 1), Fake(0, toric_special=True), Fake(1))
    assert not tr.children_toric_nonspecial and not tr.passed


def test_certify_no_points_leaf():
    cert = certify(PolytopeSystem(box_polytope((2, 1)), ()), cfg=CFG)
    assert cert.kind == "leaf"
    assert cert.report.dim == cert.report.h0 - 1 == 5


def test_certify_box_split():
    cert = certify(PolytopeSystem(box_polytope((2, 1)), (1, 1)), cfg=CFG)
    assert cert.kind == "split"
    assert cert.split == SplitSpec(axis=0, level=1, point_split=1)
    assert cert.transcript.passed
    # conclusion matches direct analysis
    rep = analyze_polytope_system(box_polytope((2, 1)), (1, 1), CFG)
    assert rep.dim == rep.tedim == 3


def test_certify_trapezoid_leaf():
    cert = certify(PolytopeSystem(trapezoid_polytope(2, 1), (2,)), cfg=CFG)
    assert cert.kind == "leaf"
    assert cert.report.dim == 1 == cert.report.tedim


def test_certify_requires_standard_form():
    shifted = box_polytope((2, 1)).translate((1, 0))
    with pytest.raises(ValueError, match="origin is not a vertex"):
        certify(PolytopeSystem(shifted, (1,)), cfg=CFG)
    hexa = hexagon_polytope()
    with pytest.raises(ValueError, match="origin is not a vertex"):
        certify(PolytopeSystem(hexa, (1,)), cfg=CFG)


def test_ensure_standard_form_rejects_nontransitive_origin():
    # conv{(0,0),(1,0),(2,1),(0,1)}: the origin has axis edges and is smooth
    # but the slant facet has outer normal (1,-1), so it is not transitive
    slant = LatticePolytope(((-1, 0), (0, -1), (0, 1), (1, -1)), (0, 0, 1, 1))
    with pytest.raises(ValueError, match="transitive"):
        ensure_standard_form(slant)


def test_ensure_standard_form_rejects_slanted_origin_edges():
    # conv{(0,0),(1,0),(1,1)}: the origin cone <(0,-1),(-1,1)> is smooth and
    # the third ray (1,0) lies in its negative, but the edge to (1,1) is not
    # along an axis
    triangle = LatticePolytope(((0, -1), (1, 0), (-1, 1)), (0, 1, 0))
    with pytest.raises(ValueError, match="not along the axes"):
        ensure_standard_form(triangle)


def test_certificate_roundtrip_and_verify():
    cert = certify(PolytopeSystem(box_polytope((3, 2)), (2, 1)), cfg=CFG)
    assert cert is not None
    assert verify_certificate(cert, RankConfig(seed=99))
    doc = json.loads(json.dumps(certificate_to_json(cert)))
    cert2 = certificate_from_json(doc)
    assert verify_certificate(cert2, RankConfig(seed=98))


def test_verify_rejects_tampering():
    cert = certify(PolytopeSystem(box_polytope((3, 2)), (2, 1)), cfg=CFG)
    doc = certificate_to_json(cert)

    def mutate(fn):
        bad = json.loads(json.dumps(doc))
        fn(bad)
        return verify_certificate(certificate_from_json(bad), RankConfig(seed=7))

    assert mutate(lambda d: None) is True
    assert mutate(lambda d: d.update(tvdim=d["tvdim"] + 1)) is False
    assert mutate(lambda d: d.update(h0=d["h0"] + 1)) is False
    if doc["kind"] == "split":
        assert mutate(lambda d: d["split"].update(level=d["split"]["level"] + 5)) is False
        assert mutate(lambda d: d["children"][0].update(
            tvdim=d["children"][0]["tvdim"] - 1)) is False


def test_verify_rejects_false_leaf_claim():
    # a leaf whose report says dim == tedim but whose recomputation disagrees
    cert = certify(PolytopeSystem(trapezoid_polytope(2, 1), (2,)), cfg=CFG)
    doc = certificate_to_json(cert)
    bad = json.loads(json.dumps(doc))
    bad["report"]["dim"] = bad["report"]["tedim"] = bad["tvdim"] = 7
    bad["h0"] = 9
    assert verify_certificate(certificate_from_json(bad), RankConfig(seed=7)) is False


def test_certificates_stable_under_mult_reordering():
    # equal multiplicity profiles in any input order give the same tree
    box = box_polytope((3, 2))
    certs = [certify(PolytopeSystem(box, order), cfg=CFG)
             for order in ((2, 1, 1), (1, 2, 1), (1, 1, 2))]
    docs = [json.dumps(certificate_to_json(c), sort_keys=True) for c in certs]
    assert docs[0] == docs[1] == docs[2]


def test_certificate_soundness_sweep():
    # wherever a certificate is found, the direct analysis agrees
    rng = random.Random(555)
    systems = []
    for a in (2, 3):
        for b in (1, 2):
            systems.append((box_polytope((a, b)), (1, 1)))
            systems.append((box_polytope((a, b)), (2,)))
    systems.append((simplex_polytope(2, 3), (2, 1)))
    systems.append((trapezoid_polytope(4, 1), (2, 2)))
    found = 0
    for poly, mults in systems:
        cert = certify(PolytopeSystem(poly, mults), max_depth=4,
                       cfg=RankConfig(seed=rng.randint(0, 10**6)))
        if cert is None:
            continue
        found += 1
        rep = analyze_polytope_system(poly, mults, RankConfig(seed=1))
        assert rep.dim == rep.tedim
        assert verify_certificate(cert, RankConfig(seed=2))
    assert found >= 6
