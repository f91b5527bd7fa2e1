import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from toric_linsys import (
    Cone,
    Fan,
    LatticePolytope,
    cone_contains,
    cone_is_smooth,
    fan_from_json,
    fan_to_json,
    gl_change_of_basis,
    lattice_points,
    normal_fan,
    polytope_from_json,
    polytope_to_json,
    primitivize,
    validate_fan,
)
from toric_linsys.catalog import (
    bl3p2_fan,
    box_polytope,
    hexagon_polytope,
    hirzebruch_fan,
    p1_power_fan,
    projective_space_fan,
    trapezoid_polytope,
)
from toric_linsys.fan_analysis import demazure_roots, root_region
from toric_linsys.linalg import det, dot, lp_solve, mat_vec


def brute_force_points(poly, box):
    """Independent lattice point oracle: scan an explicit box."""
    lo, hi = box
    ranges = [range(a, b + 1) for a, b in zip(lo, hi)]
    return [m for m in itertools.product(*ranges)
            if all(dot(nv, m) <= off
                   for nv, off in zip(poly.normals, poly.offsets))]


def test_primitivize():
    assert primitivize((2, 4)) == (1, 2)
    assert primitivize((-1, 0)) == (-1, 0)
    assert primitivize((6, -9, 3)) == (2, -3, 1)
    with pytest.raises(ValueError, match="zero ray"):
        primitivize((0, 0))


def test_primitivize_idempotent():
    rng = random.Random(1)
    for _ in range(100):
        v = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 4)))
        if all(x == 0 for x in v):
            continue
        p = primitivize(v)
        assert primitivize(p) == p


def test_cone_is_smooth():
    e1, e2 = (1, 0), (0, 1)
    assert cone_is_smooth(Cone((e1, e2), 2)) is True
    assert cone_is_smooth(Cone((e1, (1, 2)), 2)) is False
    # 2x2 determinant oracle
    rays = ((0, -1), (1, 1))
    assert det([[0, 1], [-1, 1]]) == 1
    assert cone_is_smooth(Cone(rays, 2)) is True
    with pytest.raises(ValueError, match="not full-dimensional"):
        cone_is_smooth(Cone(((1, 0),), 2))


def lp_cone_contains(cone, v):
    """Exact LP feasibility oracle: v = sum lambda_i ray_i with lambda >= 0."""
    from toric_linsys.linalg import lp_solve, OPTIMAL
    k = len(cone.rays)
    eqs = [(tuple(r[i] for r in cone.rays), v[i])
           for i in range(cone.ambient_rank)]
    return lp_solve(k, None, eqs=eqs, nonneg=True).status == OPTIMAL


def test_cone_contains():
    sigma = Cone(((-1, 0), (0, -1)), 2)
    assert cone_contains(sigma.negated(), (1, 1))
    # -sigma for sigma = cone((0,-1),(1,1)) contains (-1,0) = (0,1) + (-1,-1)
    sigma = Cone(((0, -1), (1, 1)), 2)
    assert cone_contains(sigma.negated(), (-1, 0))
    assert not cone_contains(sigma, (-1, 0))
    # -sigma for sigma = cone((0,1),(-1,0)) does not contain (1,1)
    sigma = Cone(((0, 1), (-1, 0)), 2)
    assert not cone_contains(sigma.negated(), (1, 1))
    # membership on a lower-dimensional cone
    ray = Cone(((1, 2),), 2)
    assert cone_contains(ray, (2, 4))
    assert not cone_contains(ray, (-1, -2))
    assert not cone_contains(ray, (1, 1))


def test_cone_contains_matches_lp_oracle():
    rng = random.Random(42)
    cones = [Cone(((-1, 0), (0, -1)), 2), Cone(((0, -1), (1, 1)), 2),
             Cone(((0, 1), (-1, 0)), 2), Cone(((1, 2),), 2)]
    for cone in cones:
        for _ in range(25):
            v = tuple(rng.randint(-4, 4) for _ in range(2))
            assert cone_contains(cone, v) == lp_cone_contains(cone, v)


def test_cone_constructor_invariants():
    with pytest.raises(ValueError):
        Cone(((2, 4),), 2)  # not primitive
    with pytest.raises(ValueError):
        Cone(((1, 0), (-1, 0)), 2)  # dependent
    with pytest.raises(ValueError):
        Cone(((0, 0),), 2)


def test_validate_p2():
    rep = validate_fan(projective_space_fan(2))
    assert rep.valid and rep.complete and rep.smooth and rep.simplicial


def test_validate_p2_with_cone_removed():
    f = projective_space_fan(2)
    broken = Fan(2, f.rays, f.max_cones[:-1])
    rep = validate_fan(broken)
    assert not rep.complete
    assert not rep.valid
    assert any("facet" in msg for msg in rep.failures)


def test_validate_f1():
    fan = hirzebruch_fan(1)
    assert fan.rays == ((-1, 0), (0, -1), (1, 1), (0, 1))
    rep = validate_fan(fan)
    assert rep.valid and rep.complete and rep.smooth


def test_validate_overlapping_cones():
    fan = Fan(2, ((1, 0), (0, 1), (1, 1)), ((0, 1), (0, 2)))
    rep = validate_fan(fan)
    assert not rep.valid
    assert any("overlap" in msg for msg in rep.failures)


def test_validate_nonprimitive_ray():
    fan = Fan(2, ((2, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2)))
    rep = validate_fan(fan)
    assert not rep.valid
    assert "primitive" in rep.first_failure


def test_validate_nonsmooth_but_valid():
    # weighted projective-like fan: simplicial, complete, not smooth
    fan = Fan(2, ((1, 0), (0, 1), (-1, -2)), ((0, 1), (1, 2), (0, 2)))
    rep = validate_fan(fan)
    assert rep.valid and rep.complete and rep.simplicial
    assert not rep.smooth
    # determinant oracle: [(1,0),(0,1)] -> 1, [(0,1),(-1,-2)] -> 1,
    # [(1,0),(-1,-2)] -> -2
    assert rep.cone_smooth == (True, True, False)


def test_lattice_points_unit_simplex():
    p = LatticePolytope(((-1, 0), (0, -1), (1, 1)), (0, 0, 1))
    assert lattice_points(p) == [(0, 0), (0, 1), (1, 0)]


def test_lattice_points_trapezoid_matches_brute_force():
    p = trapezoid_polytope(2, 1)
    pts = lattice_points(p)
    assert len(pts) == 5
    assert pts == brute_force_points(p, ((0, 0), (2, 2)))


def test_lattice_points_box_128():
    p = box_polytope((1,) * 7)
    assert len(lattice_points(p)) == 128


def test_lattice_points_unbounded():
    p = LatticePolytope(((-1, 0), (0, -1)), (0, 0))
    with pytest.raises(ValueError, match="unbounded polyhedron"):
        lattice_points(p)


def test_lattice_points_empty():
    p = LatticePolytope(((1, 0), (-1, 0), (0, 1), (0, -1)), (-1, 0, 1, 0))
    assert lattice_points(p) == []


def test_lattice_points_dilates_match_brute_force():
    base = trapezoid_polytope(2, 1)
    for t in (1, 2, 3):
        dil = LatticePolytope(base.normals,
                              tuple(t * o for o in base.offsets))
        pts = lattice_points(dil)
        assert pts == brute_force_points(dil, ((0, 0), (3 * t, 3 * t)))


def test_gl_change_of_basis():
    c = Cone(((-1, 0), (0, -1)), 2)
    assert gl_change_of_basis(c) == ((1, 0), (0, 1))
    c = Cone(((1, 0), (0, 1)), 2)
    assert gl_change_of_basis(c) == ((-1, 0), (0, -1))
    c = Cone(((0, -1), (1, 1)), 2)
    a = gl_change_of_basis(c)
    assert mat_vec(a, (0, -1)) == (-1, 0)
    assert mat_vec(a, (1, 1)) == (0, -1)
    assert abs(det(a)) == 1
    with pytest.raises(ValueError, match="no unimodular"):
        gl_change_of_basis(Cone(((1, 0), (1, 2)), 2))


def test_unimodular_invariance_of_validation():
    for fan in (projective_space_fan(2), hirzebruch_fan(1), bl3p2_fan()):
        maps = [((2, 1), (1, 1)),
                gl_change_of_basis(Cone(tuple(fan.rays[i]
                                              for i in fan.max_cones[0]), 2))]
        rep0 = validate_fan(fan)
        for a in maps:
            moved = Fan(2, tuple(tuple(mat_vec(a, r)) for r in fan.rays),
                        fan.max_cones)
            rep1 = validate_fan(moved)
            assert rep0.valid == rep1.valid
            assert rep0.complete == rep1.complete
            assert rep0.smooth == rep1.smooth


def test_point_location_property():
    # 1000 random rational directions each lie in exactly one maximal cone
    for fan in (projective_space_fan(2), projective_space_fan(3),
                hirzebruch_fan(2), bl3p2_fan(), p1_power_fan(3)):
        rep = validate_fan(fan, samples=1000, seed=2024)
        assert rep.valid, rep.failures


def test_polytope_vertices_and_box():
    p = trapezoid_polytope(2, 1)
    assert p.vertices == ((0, 0), (0, 1), (1, 1), (2, 0))
    assert p.bounding_box() == ((0, 0), (2, 1))
    assert p.translate((3, 4)).vertices == ((3, 4), (3, 5), (4, 5), (5, 4))


@st.composite
def downsets(draw):
    """Orthant down-sets of dimension 1-4: per axis one or two -e_i rows
    (positive offsets give the redundant rows of translated pieces) and a
    row positive on that axis, plus random nonnegative rows, some of them
    zero; negative offsets on nonnegative rows make some of them empty."""
    d = draw(st.integers(1, 4))
    coeff = st.lists(st.integers(0, 2), min_size=d, max_size=d)
    rows = []
    for i in range(d):
        for off in draw(st.lists(st.integers(-3, 3), min_size=1, max_size=2)):
            rows.append((tuple(-1 if j == i else 0 for j in range(d)), off))
        v = draw(coeff)
        v[i] = draw(st.integers(1, 3))
        rows.append((tuple(v), draw(st.integers(-2, 8))))
    for v in draw(st.lists(coeff, max_size=3)):
        rows.append((tuple(v), draw(st.integers(-2, 8))))
    if draw(st.booleans()):
        rows.append(((0,) * d, draw(st.integers(-1, 1))))
    rows = draw(st.permutations(rows))
    return LatticePolytope(tuple(nv for nv, _ in rows),
                           tuple(off for _, off in rows))


def _scan_box(box, d):
    """A box generously containing every point: the LP box widened by 2,
    or [-3, 3]^d (every -e_i offset is at most 3) around an empty one."""
    if box is None:
        return (-3,) * d, (3,) * d
    lo, hi = box
    return tuple(a - 2 for a in lo), tuple(b + 2 for b in hi)


@settings(max_examples=150, deadline=None)
@given(downsets())
def test_downset_box_matches_lp(p):
    with mock.patch("toric_linsys.lattice.lp_solve",
                    side_effect=AssertionError("LP on a down-set")):
        box = p.bounding_box()
        pts = lattice_points(p)
    lp_box = p._lp_bounding_box()
    assert box == lp_box
    assert pts == brute_force_points(p, _scan_box(lp_box, p.dim))


def _assert_lp_fallback(p):
    with mock.patch("toric_linsys.lattice.lp_solve", wraps=lp_solve) as lp:
        box = p.bounding_box()
    assert lp.called
    assert box == p._lp_bounding_box()
    assert lattice_points(p) == brute_force_points(p, _scan_box(box, p.dim))


def test_hexagon_box_uses_lp():
    _assert_lp_fallback(hexagon_polytope())
    assert hexagon_polytope().bounding_box() == ((0, 0), (2, 2))


def test_transformed_root_region_box_uses_lp():
    fan = hirzebruch_fan(1)
    a = ((2, 1), (1, 1))
    moved = Fan(2, tuple(tuple(mat_vec(a, r)) for r in fan.rays),
                fan.max_cones)
    for i in range(len(moved.rays)):
        _assert_lp_fallback(root_region(moved, i))
    assert len(demazure_roots(moved)) == len(demazure_roots(fan)) == 4


def test_box_without_lower_rows_is_unbounded_on_both_paths():
    p = LatticePolytope(((1, 0), (1, 1)), (2, 3))
    for box in (p.bounding_box, p._lp_bounding_box):
        with pytest.raises(ValueError, match="unbounded polyhedron"):
            box()


def test_normal_fan_of_trapezoid_is_hirzebruch():
    fan, verts = normal_fan(trapezoid_polytope(2, 1))
    assert set(fan.rays) == {(-1, 0), (0, -1), (1, 1), (0, 1)}
    assert validate_fan(fan).valid
    assert len(fan.max_cones) == len(verts) == 4


def test_normal_fan_needs_full_dimension():
    segment = LatticePolytope(((1, 0), (-1, 0), (0, 1), (0, -1)), (0, 0, 2, 0))
    with pytest.raises(ValueError, match="full-dimensional"):
        normal_fan(segment)


def test_fan_json_round_trip():
    for fan in (projective_space_fan(3), hirzebruch_fan(1)):
        assert fan_from_json(fan_to_json(fan)) == fan
    with pytest.raises(ValueError, match="malformed fan"):
        fan_from_json({"rank": 2})


def test_polytope_json_round_trip():
    p = trapezoid_polytope(3, 1)
    assert polytope_from_json(polytope_to_json(p)) == p
    with pytest.raises(ValueError, match="malformed polytope"):
        polytope_from_json({"normals": [[1, 0]]})


def test_validate_degenerate_cone():
    fan = Fan(2, ((1, 0), (-1, 0), (0, 1), (0, -1)),
              ((0, 1), (0, 2), (1, 2), (1, 3), (0, 3)))
    rep = validate_fan(fan)
    assert rep.failures == ("maximal cone 0 is degenerate",)
    assert rep.cone_smooth == (False, True, True, True, True)
    assert not rep.valid and not rep.simplicial and not rep.complete
