import itertools
import json
import random
from dataclasses import replace
from math import floor
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

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
    normal_fan,
    split_polytope,
    verify_certificate,
)
from toric_linsys.catalog import (
    box_polytope,
    hexagon_polytope,
    simplex_polytope,
    trapezoid_polytope,
)
from toric_linsys import degeneration
from toric_linsys.degeneration import (
    _certify,
    _containment_witness,
    _leaf,
    _middle_out,
    CertificateNode,
    axis_widths,
)
from toric_linsys.cli import main as cli_main
from toric_linsys.lattice import polytope_to_json
from toric_linsys.linsys import GenericityError, toric_counts


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


def test_axis_widths_match_vertex_maxima():
    # widths come from the bounding box; the vertex maxima are the oracle,
    # zeros for the empty polytope
    box = box_polytope((3, 1, 2))
    empty = box.with_inequality((1, 1, 1), -1)
    polys = [box, trapezoid_polytope(3, 1), simplex_polytope(3, 2),
             hexagon_polytope(), empty]
    for axis, level in ((0, 2), (2, 1)):
        pieces = split_polytope(box, axis, level)
        shift = tuple(-x for x in pieces.plus_anchor)
        polys += [pieces.minus_prev, pieces.plus,
                  pieces.plus.translate(shift)]
    for p in polys:
        expected = tuple(floor(max(v[i] for v in p.vertices)) if p.vertices
                         else 0 for i in range(p.dim))
        assert axis_widths(p) == expected


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


# one polytope {m : <m, normal_i> <= offset_i} per standard-form failure: the
# third's check runs first; the second also fails the later "origin is not a
# vertex" check; the fourth, conv{0, (2, 0), (2, 1), (1, 2)}, has an origin
# that is neither smooth nor on axis edges, and the edge check runs before
# the sign check of the other facets; the last has a transitive origin with
# slanted edges
STANDARD_FORM_FAILURES = [
    (((-1, 0), (0, -1), (1, 0), (0, 1)), (0, 0, 0, 1), "not full-dimensional"),
    (((-1, 0), (0, -1), (1, 1)), (1, 0, 2),
     "polytope leaves the first orthant"),
    (((-1, 0), (0, -1), (0, 1), (-1, 1)), (0, 0, 2, 1), "unbounded polyhedron"),
    (((0, -1), (-2, 1), (1, 0), (1, 1)), (0, 0, 2, 3),
     "edges at the origin are not along the axes"),
    (((-1, 0), (0, -1), (-1, 1), (1, 1)), (0, 0, 1, 3),
     "origin is not a transitive vertex"),
    (((-1, 0), (1, -1), (0, 1)), (0, 0, 2),
     "edges at the origin are not along the axes"),
]
STANDARD_FORM_MESSAGES = {"origin is not a vertex",
                          *(message for *_, message in STANDARD_FORM_FAILURES)}

# {x, y, z >= 0, x + z <= 1, y + z <= 1}: the apex (0, 0, 1) lies on four
# facets, so the pyramid has no normal fan, yet it is an orthant down-set
PYRAMID = (((-1, 0, 0), (0, -1, 0), (0, 0, -1), (1, 0, 1), (0, 1, 1)),
           (0, 0, 0, 1, 1))


@pytest.mark.parametrize("normals, offsets, message", STANDARD_FORM_FAILURES)
def test_ensure_standard_form_messages(normals, offsets, message):
    with pytest.raises(ValueError) as exc:
        ensure_standard_form(LatticePolytope(normals, offsets))
    assert str(exc.value) == message


def test_non_simple_pyramid_certifies_and_verifies(tmp_path):
    pyramid = LatticePolytope(*PYRAMID)
    with pytest.raises(ValueError) as exc:
        normal_fan(pyramid)
    assert str(exc.value) == "vertex is not simple"
    ensure_standard_form(pyramid)
    system = tmp_path / "pyramid.json"
    system.write_text(json.dumps({"polytope": polytope_to_json(pyramid),
                                  "multiplicities": [1, 1]}))
    cert = tmp_path / "cert.json"
    assert cli_main(["certify", "--system", str(system), "--out",
                     str(cert)]) == 0
    assert json.loads(cert.read_text())["certificate"]["kind"] == "split"
    assert cli_main(["verify", "--certificate", str(cert)]) == 0


# {x, y >= 0, x + y <= 4, -x + 2y <= 2, 2x - y <= 2}: a smooth origin on axis
# edges, but two facet normals have a negative entry
KITE = (((-1, 0), (0, -1), (1, 1), (-1, 2), (2, -1)), (0, 0, 4, 2, 2))


def test_verify_checks_that_the_root_is_in_standard_form(tmp_path,
                                                          monkeypatch):
    kite = LatticePolytope(*KITE)
    with pytest.raises(ValueError, match="origin is not a transitive vertex"):
        ensure_standard_form(kite)
    # the kite's points are no down-set, so its leaf is built with the
    # analysis gate switched off: a leaf with dim == tedim whose every other
    # check passes
    with monkeypatch.context() as patch:
        patch.setattr(LatticePolytope, "require_down_set", lambda self: None)
        leaf = _leaf(kite, (2, 1), CFG, {})
        assert leaf is not None and degeneration._verify_node(leaf, CFG, {})
        assert verify_certificate(leaf, CFG) is False
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"status": "certified",
                                "certificate": certificate_to_json(leaf)}))
    assert cli_main(["verify", "--certificate", str(cert)]) == 4


# two standard-form roots that are no staircase: {x, y >= 0, x + y <= 4,
# -x + y <= 6} has a redundant row, {-2x <= 0, -y <= 0, x + y <= 4} a
# non-primitive one; with mults 2,2,1 their level-1 leaves are segments
REDUNDANT_ROW_ROOT = (((-1, 0), (0, -1), (1, 1), (-1, 1)), (0, 0, 4, 6))
DOUBLED_AXIS_ROOT = (((-2, 0), (0, -1), (1, 1)), (0, 0, 4))


@pytest.mark.parametrize("rows", [REDUNDANT_ROW_ROOT, DOUBLED_AXIS_ROOT])
def test_non_staircase_roots_certify_as_without_the_staircase_reader(
        rows, tmp_path, monkeypatch):
    system = tmp_path / "system.json"
    system.write_text(json.dumps({
        "polytope": polytope_to_json(LatticePolytope(*rows)),
        "multiplicities": [2, 2, 1]}))
    cert, by_facets = tmp_path / "cert.json", tmp_path / "by-facets.json"
    assert cli_main(["certify", "--system", str(system), "--out",
                     str(cert)]) == 0
    assert cli_main(["verify", "--certificate", str(cert)]) == 0
    # every staircase decision taken by the facet and lattice-point paths
    with monkeypatch.context() as patch:
        patch.setattr(LatticePolytope, "_staircase", lambda self: None)
        assert cli_main(["certify", "--system", str(system), "--out",
                         str(by_facets)]) == 0
    assert cert.read_bytes() == by_facets.read_bytes()


# the pyramid's split certificate with mults 1,1, tampered below the root:
# each edit fails one check of `_verify_node` before the children are walked
# (the right child's row y + z <= 1 becomes y + z <= 2)
@pytest.mark.parametrize("tamper", [
    lambda d: d["split"].update(point_split=3),
    lambda d: d["children"][0].update(mults=[2]),
    lambda d: d["children"][1].update(mults=[2]),
    lambda d: d["children"][1]["polytope"].update(offsets=[1, 0, 0, 0, 2, 0]),
    lambda d: d.update(children=d["children"][:1]),
    lambda d: d.update(children=d["children"] + d["children"][:1]),
], ids=["point-split", "left-mults", "right-mults", "right-points",
        "one-child", "three-children"])
def test_verify_rejects_a_tampered_split(tamper, tmp_path, capsys):
    cert = certify(PolytopeSystem(LatticePolytope(*PYRAMID), (1, 1)), cfg=CFG)
    doc = certificate_to_json(cert)
    assert doc["kind"] == "split"
    assert doc["children"][1]["polytope"]["offsets"] == [1, 0, 0, 0, 1, 0]
    tamper(doc)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({"status": "certified", "certificate": doc}))
    assert cli_main(["verify", "--certificate", str(path)]) == 4
    assert json.loads(capsys.readouterr().out) == {"verified": False}


def test_verify_rejects_a_node_that_is_neither_leaf_nor_split():
    cert = certify(PolytopeSystem(LatticePolytope(*PYRAMID), (1, 1)), cfg=CFG)
    assert verify_certificate(cert, CFG)
    for bad in (replace(cert, kind="fork"), replace(cert, split=None),
                replace(cert, children=None)):
        assert verify_certificate(bad, CFG) is False


@st.composite
def staircase_rows(draw):
    """A polytope in dimension 1-3 from staircase rows with offsets in -1..3
    (often 0 on the -e_i rows and > 0 on the others, the fast paths): one or
    two -e_i rows per axis, the all-ones row and up to two rows >= 0 (zero
    rows too), and up to two rows with entries in -2..2 that are often no
    staircase, in any order. Some are empty, some lower-dimensional; all lie
    in the box [-3, 3n]^n."""
    n = draw(st.integers(1, 3))
    offset = st.integers(-1, 3)
    rows = [(tuple(-(j == i) for j in range(n)), draw(st.just(0) | offset))
            for i in range(n) for _ in range(draw(st.integers(1, 2)))]
    rows.append(((1,) * n, draw(st.integers(1, 3) | offset)))
    for entries in [st.integers(0, 2)] * draw(st.integers(0, 2)) + \
            [st.integers(-2, 2)] * draw(st.integers(0, 2)):
        normal = tuple(draw(st.lists(entries, min_size=n, max_size=n)))
        rows.append((normal, draw(st.integers(1, 3) | offset)))
    return LatticePolytope(*zip(*draw(st.permutations(rows))))


def _down_set_failure(p):
    """The message `require_down_set` must raise on p, or None, by brute
    force: the points of the box [-3, 3n]^n that p contains, in
    lexicographic order, must be >= 0 and hold m - e_i whenever m_i > 0."""
    n = p.dim
    points = [m for m in itertools.product(range(-3, 3 * n + 1), repeat=n)
              if p.contains(m)]
    if any(x < 0 for m in points for x in m):
        return ("negative exponent in the monomial support; the polytope is "
                "not in the first orthant")
    for m in points:
        for i in range(n):
            below = tuple(x - (j == i) for j, x in enumerate(m))
            if m[i] > 0 and below not in points:
                return ("the support is not an orthant down-set: it holds "
                        f"{m} but not {below}")
    return None


@settings(max_examples=300, deadline=None)
@given(staircase_rows())
def test_require_down_set_is_the_closure_of_the_points(p):
    try:
        p.require_down_set()
        failure = None
    except ValueError as exc:
        failure = str(exc)
    assert failure == _down_set_failure(p)


def _standard_form_failure(p):
    try:
        ensure_standard_form(LatticePolytope(p.normals, p.offsets))
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(staircase_rows())
# a zero row 0 <= -1 empties the segment [0, 2]: no fast path
@example(LatticePolytope(((-1,), (1,), (0,)), (0, 2, -1)))
def test_standard_form_of_a_staircase_is_that_of_its_facets(p):
    failure = _standard_form_failure(p)
    with mock.patch.object(LatticePolytope, "_staircase", lambda self: None):
        assert _standard_form_failure(p) == failure


def _is_down_set_by_vertices(p):
    """Standard form as the vertices see it, sharing no code with
    `LatticePolytope.facets`: bounded, full-dimensional, every vertex v >= 0
    and every projection v - v_i e_i in the polytope. The projections of
    the vertices give those of every point, so the polytope is a down-set."""
    try:
        p.require_full_dimensional()
    except ValueError:
        return False
    return all(min(v) >= 0 and all(p.contains(v[:i] + (0,) + v[i + 1:])
                                   for i in range(p.dim))
               for v in p.vertices)


@st.composite
def moved_standard_polytopes(draw):
    """A catalog standard-form polytope (a box, a simplex, a trapezoid or
    the pyramid) with its rows permuted, maybe translated, and extended by
    up to two rows, each redundant (tight at a vertex or off the polytope)
    or cutting (its offset at least the row's minimum and below its
    maximum, often kept >= 0 so that the origin stays in)."""
    base = draw(st.sampled_from([
        box_polytope((2, 1)), box_polytope((1, 2, 1)), simplex_polytope(2, 3),
        simplex_polytope(3, 2), trapezoid_polytope(3, 1),
        trapezoid_polytope(2, 2), LatticePolytope(*PYRAMID)]))
    n = base.dim
    rows = list(zip(base.normals, base.offsets))
    for _ in range(draw(st.integers(0, 2))):
        normal = tuple(draw(st.lists(st.integers(-2, 2), min_size=n,
                                     max_size=n)))
        values = [sum(a * x for a, x in zip(normal, v)) for v in base.vertices]
        lo, hi = int(min(values)), int(max(values))
        if draw(st.booleans()):
            offset = hi + draw(st.integers(0, 1))  # redundant
        else:  # cutting, through the origin or not
            offset = draw(st.integers(lo, max(lo, hi - 1)) | st.integers(
                min(max(lo, 0), hi - 1), max(lo, hi - 1)))
        rows.append((normal, offset))
    rows = draw(st.permutations(rows))
    p = LatticePolytope(*zip(*rows))
    if draw(st.integers(0, 2)) == 0:
        p = p.translate(draw(st.lists(st.integers(-1, 1), min_size=n,
                                      max_size=n)))
    return p


@settings(max_examples=250, deadline=None)
@given(moved_standard_polytopes())
def test_standard_form_is_the_down_set_the_vertices_see(p):
    try:
        ensure_standard_form(p)
        accepted = True
    except ValueError as exc:
        assert str(exc) in STANDARD_FORM_MESSAGES
        accepted = False
    assert accepted == _is_down_set_by_vertices(
        LatticePolytope(p.normals, p.offsets))


# conv{0, e1, e2} + cone{(1, 1, 1), (1, 1, -1)}: full-dimensional and
# unbounded, but its three vertices span only the plane z = 0
WEDGE = (((-1, 0, -1), (-1, 0, 1), (-1, 1, 0), (0, -1, -1), (0, -1, 1),
          (1, -1, 0)), (0, 0, 1, 0, 0, 1))

# (normals, offsets, the message of normal_fan, that of ensure_standard_form)
# on lower-dimensional and unbounded inputs: two empty ones, a segment, the
# strip 0 <= x <= 1, the ray {y = 0, x >= 0}, the quadrant, the wedge, the
# corner {x + 2y >= 2, 2x + y >= 2} in the quadrant and a half-strip. Both
# test boundedness first, so every unbounded one is "unbounded polyhedron",
# even when its vertices span less than the space or the origin is no vertex
BOUNDEDNESS_BEFORE_DIMENSION = [
    (((1,), (-1,)), (-1, 0), "not full-dimensional", "not full-dimensional"),
    (((1, 0), (-1, 0), (0, 1), (0, -1)), (-1, 0, 1, 0),
     "not full-dimensional", "not full-dimensional"),
    (((1, 0), (-1, 0), (0, 1), (0, -1)), (0, 0, 2, 0),
     "not full-dimensional", "not full-dimensional"),
    (((1, 0), (-1, 0)), (1, 0), "unbounded polyhedron", "unbounded polyhedron"),
    (((0, 1), (0, -1), (-1, 0)), (0, 0, 0),
     "unbounded polyhedron", "unbounded polyhedron"),
    (((-1, 0), (0, -1)), (0, 0), "unbounded polyhedron", "unbounded polyhedron"),
    (*WEDGE, "unbounded polyhedron", "unbounded polyhedron"),
    (((-1, 0), (0, -1), (-1, -2), (-2, -1)), (0, 0, -2, -2),
     "unbounded polyhedron", "unbounded polyhedron"),
    (((-1, 0), (0, -1), (0, 1), (-1, 1)), (0, 0, 2, 1),
     "unbounded polyhedron", "unbounded polyhedron"),
]


@pytest.mark.parametrize("normals, offsets, fan_message, form_message",
                         BOUNDEDNESS_BEFORE_DIMENSION)
def test_dimension_and_boundedness_messages(normals, offsets, fan_message,
                                            form_message):
    p = LatticePolytope(normals, offsets)
    for fn, message in ((normal_fan, fan_message),
                        (ensure_standard_form, form_message)):
        with pytest.raises(ValueError) as exc:
            fn(p)
        assert str(exc.value) == message


def test_wedge_vertices_share_no_tight_row():
    """On a bounded polytope, "not full-dimensional" means no vertex or a
    nonzero row tight at every vertex. The wedge is full-dimensional and has
    no such row, yet its three vertices span only a plane: the rule holds
    only when bounded, so `require_full_dimensional` tests boundedness first
    and the wedge is "unbounded polyhedron"."""
    p = LatticePolytope(*WEDGE)
    assert len(p.vertices) == 3
    assert frozenset.intersection(*p.incidence.values()) == frozenset()
    for check in (p.bounding_box, p.require_full_dimensional):
        with pytest.raises(ValueError, match="unbounded polyhedron"):
            check()


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
        for axis in (-1, 2):
            assert mutate(lambda d: d["split"].update(axis=axis)) is False
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


@pytest.mark.parametrize("sides, mults, witness", [
    # the shifted simplex of the first double point leaves the plus piece;
    # the base check is not reached, so its flag stays True although the
    # second double point would fail it too
    ((1, 1), (2, 2), ("shifted_delta_in_plus", 0, (2, 0))),
    # the shifted simplex of the single point fits the plus piece, but the
    # base simplex of the double point leaves the column m_0 = 0
    ((2, 1), (1, 2), ("base_delta_in_minus", 1, (1, 0))),
])
def test_check_hypotheses_containment_flags(sides, mults, witness):
    box = box_polytope(sides)
    spec = SplitSpec(axis=0, level=1, point_split=1)
    pieces = split_polytope(box, 0, 1)
    rep_minus = analyze_polytope_system(pieces.minus_prev, mults[:1], CFG)
    shift = tuple(-x for x in pieces.plus_anchor)
    rep_plus = analyze_polytope_system(pieces.plus.translate(shift),
                                       mults[1:], CFG)
    tr = check_hypotheses(box, spec, mults, rep_minus, rep_plus)
    assert not tr.passed
    assert tr.witness == witness
    assert tr.shifted_delta_in_plus_ok == (witness[0] != "shifted_delta_in_plus")
    assert tr.base_delta_in_minus_ok == (witness[0] != "base_delta_in_minus")


# certificate_to_json output pinned byte for byte (RankConfig(seed=40,
# trials=1)); the samples are [prime, seed, rank] lists
GOLDEN_SPLIT = (
    '{"children": [{"h0": 2, "kind": "leaf", "mults": [1], "polytope": '
    '{"normals": [[-1, 0], [0, -1], [1, 0], [0, 1], [1, 0]], "offsets": '
    '[0, 0, 2, 1, 0]}, "report": {"dim": 0, "edim": 0, "h0": 2, "mode": '
    '"modular", "rank": 1, "samples": [[1556418119127567203, '
    '5344830224790405066, 1]], "seed": 40, "special": false, "tedim": 0, '
    '"toric_special": false, "tvdim": 0, "vdim": 0}, "truncations": [1], '
    '"tvdim": 0}, {"h0": 4, "kind": "leaf", "mults": [1], "polytope": '
    '{"normals": [[-1, 0], [0, -1], [1, 0], [0, 1], [-1, 0]], "offsets": '
    '[1, 0, 1, 1, 0]}, "report": {"dim": 2, "edim": 2, "h0": 4, "mode": '
    '"modular", "rank": 1, "samples": [[1556418119127567203, '
    '5344830224790405066, 1]], "seed": 40, "special": false, "tedim": 2, '
    '"toric_special": false, "tvdim": 2, "vdim": 2}, "truncations": [1], '
    '"tvdim": 2}], "h0": 6, "kind": "split", "mults": [1, 1], "polytope": '
    '{"normals": [[-1, 0], [0, -1], [1, 0], [0, 1]], "offsets": [0, 0, 2, '
    '1]}, "split": {"axis": 0, "level": 1, "point_split": 1}, "transcript": '
    '{"base_delta_in_minus_ok": true, "children_toric_nonspecial": true, '
    '"passed": true, "product_ok": true, "shifted_delta_in_plus_ok": true, '
    '"tvdim_minus": 0, "tvdim_plus": 2, "witness": null}, "truncations": '
    '[1, 1], "tvdim": 3}')
GOLDEN_LEAF = (
    '{"h0": 5, "kind": "leaf", "mults": [2], "polytope": {"normals": '
    '[[-1, 0], [0, -1], [1, 1], [0, 1]], "offsets": [0, 0, 2, 1]}, '
    '"report": {"dim": 1, "edim": 1, "h0": 5, "mode": "modular", "rank": 3, '
    '"samples": [[1556418119127567203, 5344830224790405066, 3]], "seed": 40, '
    '"special": false, "tedim": 1, "toric_special": false, "tvdim": 1, '
    '"vdim": 1}, "truncations": [3], "tvdim": 1}')


@pytest.mark.parametrize("system, golden", [
    (PolytopeSystem(box_polytope((2, 1)), (1, 1)), GOLDEN_SPLIT),
    (PolytopeSystem(trapezoid_polytope(2, 1), (2,)), GOLDEN_LEAF),
])
def test_certificate_json_golden(system, golden):
    cert = certify(system, cfg=RankConfig(seed=40, trials=1))
    assert json.dumps(certificate_to_json(cert), sort_keys=True) == golden
    assert certificate_from_json(json.loads(golden)) == cert


def test_verify_rejects_negative_multiplicity():
    # a leaf claiming an extra point of multiplicity -1 with consistent
    # combinatorics: only the multiplicity rule can reject it
    cert = certify(PolytopeSystem(trapezoid_polytope(2, 1), (2,)), cfg=CFG)
    bad = json.loads(json.dumps(certificate_to_json(cert)))
    bad["mults"] = [2, -1]
    bad["truncations"] = [3, 0]
    assert verify_certificate(certificate_from_json(bad), RankConfig(seed=7)) is False


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.builds(box_polytope, st.lists(st.integers(1, 3), min_size=2, max_size=3)),
    st.builds(simplex_polytope, st.integers(2, 3), st.integers(1, 4))),
    st.lists(st.integers(1, 3), min_size=1, max_size=3),
    st.integers(0, 10**6))
def test_certificate_json_round_trip(poly, mults, seed):
    cert = certify(PolytopeSystem(poly, mults), max_depth=3,
                   cfg=RankConfig(seed=seed, trials=2))
    if cert is None:
        return
    back = certificate_from_json(json.loads(json.dumps(certificate_to_json(cert))))
    assert back == cert
    assert verify_certificate(back, RankConfig(seed=seed + 1, trials=2))


def _node_docs(doc):
    """Every node of a certificate document, root first."""
    yield doc
    for child in doc.get("children", ()):
        yield from _node_docs(child)


def _edit(obj, key):
    """Flip a boolean, add one to an integer or give a null witness a value."""
    value = obj[key]
    obj[key] = (not value if isinstance(value, bool) else
                value + 1 if isinstance(value, int) else
                ["base_delta_in_minus", 0, [0]])


TRANSCRIPT_FIELDS = ("passed", "children_toric_nonspecial", "tvdim_minus",
                     "tvdim_plus", "product_ok", "shifted_delta_in_plus_ok",
                     "base_delta_in_minus_ok", "witness")
# every report field but samples, seed and mode, which verify puts in
REPORT_FIELDS = ("h0", "rank", "dim", "vdim", "edim", "tvdim", "tedim",
                 "special", "toric_special")


@settings(max_examples=40, deadline=None)
@given(st.one_of(
    st.builds(box_polytope, st.lists(st.integers(1, 3), min_size=1,
                                     max_size=3)),
    st.builds(simplex_polytope, st.integers(1, 3), st.integers(1, 4))),
    st.lists(st.integers(0, 2), min_size=3, max_size=3), st.integers(1, 6),
    # two points or more: about a quarter of the roots split
    st.lists(st.integers(1, 3), min_size=2, max_size=4),
    st.integers(0, 10**6), st.integers(0, 71))
# box 3x3 with four double points: three splits over four leaves
@example(box_polytope((3, 3)), [0, 0, 0], 1, [2, 2, 2, 2], 1, 0)
def test_every_single_field_edit_fails_verify(poly, cut, offset, mults, seed,
                                             pick):
    """Random down-sets (a box or simplex cut by a row >= 0): each
    certificate verifies, and one edit of h0, a truncation, tvdim, a
    transcript field or a leaf report field of any node makes it fail."""
    poly = poly.with_inequality(tuple(cut[:poly.dim]), offset)
    cert = certify(PolytopeSystem(poly, mults), max_depth=2,
                   cfg=RankConfig(seed=seed, trials=1))
    if cert is None:
        return
    doc = certificate_to_json(cert)
    cfg = RankConfig(seed=seed + 1, trials=1)
    assert verify_certificate(certificate_from_json(doc), cfg)
    for i, node in enumerate(_node_docs(doc)):
        k = pick + i  # which truncation, transcript or report field
        paths = [("h0",), ("tvdim",), ("truncations", k % len(node["mults"]))]
        if node["kind"] == "split":
            paths.append(("transcript",
                          TRANSCRIPT_FIELDS[k % len(TRANSCRIPT_FIELDS)]))
        else:
            paths.append(("report", REPORT_FIELDS[k % len(REPORT_FIELDS)]))
        for *keys, key in paths:
            bad = json.loads(json.dumps(doc))
            target = list(_node_docs(bad))[i]
            for step in keys:
                target = target[step]
            _edit(target, key)
            assert not verify_certificate(certificate_from_json(bad), cfg), \
                (i, keys, key)


def _certify_unpruned(polytope, mults, depth, cfg):
    """The search before the tvdim-product prune, kept as an oracle: both
    children are searched before `check_hypotheses` sees their tvdims."""
    k = len(mults)
    if k >= 2 and depth > 0:
        widths = axis_widths(polytope)
        n = polytope.dim
        axes = sorted(range(n), key=lambda i: (-widths[i], i))
        for axis in axes:
            if widths[axis] < 1:
                continue
            for level in _middle_out(widths[axis] + 1):
                pieces = split_polytope(polytope, axis, level)
                for s in _middle_out(k):
                    spec = SplitSpec(axis, level, s)
                    if _containment_witness(pieces, spec, mults):
                        continue
                    left = _certify_unpruned(pieces.minus_prev, mults[:s],
                                             depth - 1, cfg)
                    if left is None:
                        continue
                    shift = tuple(-x for x in pieces.plus_anchor)
                    right = _certify_unpruned(pieces.plus.translate(shift),
                                              mults[s:], depth - 1, cfg)
                    if right is None:
                        continue
                    transcript = check_hypotheses(polytope, spec, mults,
                                                  left, right)
                    if not transcript.passed:
                        continue
                    h0, truncs, tvdim = toric_counts(polytope, mults)
                    return CertificateNode(
                        "split", polytope, tuple(mults), h0, truncs, tvdim,
                        split=spec, transcript=transcript,
                        children=(left, right))
    return _leaf(polytope, mults, cfg, {})


def _certificate_bytes(cert):
    return None if cert is None else \
        json.dumps(certificate_to_json(cert), sort_keys=True)


@settings(max_examples=80, deadline=None)
@given(st.one_of(
    st.builds(simplex_polytope, st.integers(2, 3), st.integers(1, 5)),
    st.integers(2, 6).flatmap(lambda a: st.builds(
        trapezoid_polytope, st.just(a), st.integers(1, a - 1))),
    st.builds(box_polytope, st.lists(st.integers(1, 4), min_size=2, max_size=3))),
    st.lists(st.integers(1, 3), min_size=1, max_size=4),
    st.sampled_from((1, 8)),
    st.integers(0, 10**6))
def test_pruned_search_finds_the_unpruned_certificate(poly, mults, depth, seed):
    cfg = RankConfig(seed=seed, trials=2)
    try:
        expected = _certify_unpruned(poly, tuple(sorted(mults, reverse=True)),
                                     depth, cfg)
    except GenericityError:
        return  # may have come from a subtree the prune skips
    got = certify(PolytopeSystem(poly, mults), max_depth=depth, cfg=cfg)
    assert _certificate_bytes(got) == _certificate_bytes(expected)


def test_prune_skips_rank_trials_of_rejected_splits(monkeypatch):
    # simplex 2:4 with five double points at depth 1 is inconclusive; the
    # unpruned search runs 31 leaf analyses to find that out, the pruned 6
    # (one per distinct leaf)
    calls = []
    original = degeneration.analyze_polytope_system

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(degeneration, "analyze_polytope_system", counted)
    poly, mults = simplex_polytope(2, 4), (2,) * 5
    expected = _certify_unpruned(poly, mults, 1, CFG)
    unpruned = len(calls)
    calls.clear()
    got = certify(PolytopeSystem(poly, mults), max_depth=1, cfg=CFG)
    assert _certificate_bytes(got) == _certificate_bytes(expected)
    assert len(calls) < unpruned


def test_ensure_standard_form_bounds_the_polytope_once(monkeypatch):
    # a staircase box is read off its rows and bounds nothing; on other rows
    # the full-dimension check runs once, and the facet test bounds nothing
    calls = []
    original = LatticePolytope.bounding_box

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(LatticePolytope, "bounding_box", counted)
    ensure_standard_form(box_polytope((1, 1, 1)))
    assert len(calls) == 0
    ensure_standard_form(LatticePolytope(*REDUNDANT_ROW_ROOT))
    assert len(calls) == 1


def _containment_witness_by_scan(n, pieces, split, mults):
    """`_containment_witness` before the vertex test, kept as an oracle: every
    order of every simplex is tested, in order."""
    for i, mu in enumerate(mults):
        if i < split.point_split:
            name, piece, level = "shifted_delta_in_plus", pieces.plus, split.level
        else:
            name, piece, level = "base_delta_in_minus", pieces.minus_prev, 0
        for u in delta_c_mu(n, split.axis, level, mu):
            if not piece.contains(u):
                return name, i, u
    return None


@st.composite
def down_sets(draw):
    """A bounded orthant down-set in dimension 1-4: a box with sides 1-3 cut
    by up to two rows with entries 0-2."""
    n = draw(st.integers(1, 4))
    box = box_polytope(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    cuts = draw(st.lists(st.tuples(
        st.lists(st.integers(0, 2), min_size=n, max_size=n),
        st.integers(0, 6)), max_size=2))
    for normal, offset in cuts:
        box = box.with_inequality(tuple(normal), offset)
    return box


def _witnesses_match_the_scan(poly, mults):
    """Check `_containment_witness`, alone and with one `first_out` per slice
    as in certify, against the scan on every valid (axis, level, s); return
    the hypothesis names of the witnesses met (None for no witness)."""
    n = poly.dim
    kinds = set()
    for axis, width in enumerate(axis_widths(poly)):
        for level in range(1, width + 1):
            pieces = split_polytope(poly, axis, level)
            first_out = {}
            for s in range(len(mults) + 1):
                spec = SplitSpec(axis, level, s)
                expected = _containment_witness_by_scan(n, pieces, spec, mults)
                assert _containment_witness(pieces, spec, mults) == expected
                assert _containment_witness(pieces, spec, mults,
                                            first_out) == expected
                kinds.add(expected and expected[0])
    return kinds


@settings(max_examples=300, deadline=None)
@given(down_sets(), st.lists(st.integers(1, 4), min_size=1, max_size=4))
def test_containment_by_vertices_matches_the_full_scan(poly, mults):
    _witnesses_match_the_scan(poly, mults)


def test_containment_sweep_reaches_both_failing_pieces():
    # seeded draws like the oracle test's, which must meet a witness from
    # each piece
    rng = random.Random(21)
    kinds = set()
    for _ in range(60):
        n = rng.randint(1, 4)
        poly = box_polytope([rng.randint(1, 3) for _ in range(n)])
        if rng.random() < 0.5:
            poly = poly.with_inequality(
                tuple(rng.randint(0, 2) for _ in range(n)), rng.randint(1, 6))
        mults = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
        kinds |= _witnesses_match_the_scan(poly, mults)
    assert kinds == {None, "shifted_delta_in_plus", "base_delta_in_minus"}


def test_each_distinct_leaf_is_analysed_once_per_call(monkeypatch):
    # the four leaves of box 3x3 with four double points at depth 2 are all
    # the unit square with one double point: one analysis per certify and
    # one per verify (four each before the memo), and none is kept between
    # calls
    calls = []
    original = degeneration.analyze_polytope_system

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(degeneration, "analyze_polytope_system", counted)
    system = PolytopeSystem(box_polytope((3, 3)), (2, 2, 2, 2))
    cert = certify(system, max_depth=2, cfg=RankConfig(seed=1))
    assert len(list(cert.leaves())) == 4
    assert len(calls) == 1
    assert verify_certificate(cert, RankConfig(seed=2))
    assert len(calls) == 2
    assert _certificate_bytes(certify(system, max_depth=2,
                                      cfg=RankConfig(seed=1))) \
        == _certificate_bytes(cert)
    assert len(calls) == 3


def test_each_split_is_built_once(monkeypatch):
    # box 3x3 with four double points at depth 2 is certified by three
    # splits, each the first tried at its node: certify and verify build
    # each split's pieces once and check the hypotheses on those pieces (six
    # builds each when check_hypotheses split the polytope again)
    calls = []
    original = degeneration.split_polytope

    def counted(*args):
        calls.append(args[1:])
        return original(*args)

    monkeypatch.setattr(degeneration, "split_polytope", counted)
    system = PolytopeSystem(box_polytope((3, 3)), (2, 2, 2, 2))
    cert = certify(system, max_depth=2, cfg=RankConfig(seed=1))
    splits = [(node.split.axis, node.split.level) for node in (
        cert, *cert.children) if node.kind == "split"]
    assert calls == splits == [(0, 2), (1, 2), (1, 2)]
    calls.clear()
    assert verify_certificate(cert, RankConfig(seed=2))
    assert calls == splits
    # the public checker still splits for itself
    calls.clear()
    transcript = check_hypotheses(cert.polytope, cert.split, cert.mults,
                                  *cert.children)
    assert transcript == cert.transcript and calls == [(0, 2)]


def test_verify_compares_every_repeated_leaf_on_its_own(tmp_path):
    system = tmp_path / "box33.json"
    system.write_text(json.dumps({
        "polytope": {"normals": [[-1, 0], [0, -1], [1, 0], [0, 1]],
                     "offsets": [0, 0, 3, 3]},
        "multiplicities": [2, 2, 2, 2]}))
    cert = tmp_path / "cert.json"
    assert cli_main(["certify", "--system", str(system), "--max-depth", "2",
                     "--seed", "1", "--out", str(cert)]) == 0
    assert cli_main(["verify", "--certificate", str(cert), "--seed", "2"]) == 0
    doc = json.loads(cert.read_text())
    # the last leaf repeats the first one's system; only its report changes
    leaf = doc["certificate"]["children"][1]["children"][1]
    assert leaf["kind"] == "leaf"
    leaf["report"]["special"] = not leaf["report"]["special"]
    cert.write_text(json.dumps(doc))
    assert cli_main(["verify", "--certificate", str(cert), "--seed", "2"]) == 4


# ROADMAP item 1: the plane quintics through two triple and three double
# points are special (the line through the triple points plus twice the
# conic through all five is one, so dim = 0 > tedim = -1), yet the search
# certifies them. The stored certificate is what `certify --example pn:2
# --class 5 --mults 3,3,2,2,2 --seed 1` prints while item 1 is open.
SPECIAL_QUINTIC = certificate_from_json(json.loads(
    (Path(__file__).resolve().parent /
     "special_quintic_certificate.json").read_text())["certificate"])


def test_the_special_quintic_root_is_toric_special():
    report = analyze_polytope_system(SPECIAL_QUINTIC.polytope,
                                     SPECIAL_QUINTIC.mults, RankConfig(seed=1))
    assert (report.dim, report.tedim) == (0, -1)
    assert report.toric_special


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_the_search_does_not_certify_the_special_quintic():
    assert _certify(SPECIAL_QUINTIC.polytope, SPECIAL_QUINTIC.mults, 8,
                    RankConfig(seed=1), {}) is None


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_verify_refuses_the_special_quintic_certificate():
    assert not verify_certificate(SPECIAL_QUINTIC, RankConfig(seed=77))
