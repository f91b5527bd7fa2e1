import collections
import itertools
import random
from fractions import Fraction
from math import ceil, floor
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from toric_linsys import (
    Fan,
    LatticePolytope,
    fan_from_json,
    fan_to_json,
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
    example_fan,
    hexagon_polytope,
    hirzebruch_fan,
    projective_space_fan,
    simplex_polytope,
    trapezoid_polytope,
)
from toric_linsys import lattice as lattice_module
from toric_linsys.fan_analysis import demazure_roots
from toric_linsys.linalg import (
    _echelon,
    det,
    dot,
    mat_vec,
    pivot_columns,
    solve_in_span,
    solve_unique,
    vec_neg,
)

from lp_oracles import lp_box, lp_interiors_meet, no_lp
from references import affine_rank, cone_rays, root_region


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


def test_validate_p2():
    rep = validate_fan(projective_space_fan(2))
    assert rep.valid and rep.complete and rep.smooth and rep.simplicial


def test_validate_p2_with_cone_removed():
    f = projective_space_fan(2)
    broken = Fan(2, f.rays, f.max_cones[:-1])
    rep = validate_fan(broken)
    assert not rep.complete
    assert not rep.valid
    assert rep.failures == ("facet (1,) shared by 1 cones",)


def test_validate_f1():
    fan = hirzebruch_fan(1)
    assert fan.rays == ((-1, 0), (0, -1), (1, 1), (0, 1))
    rep = validate_fan(fan)
    assert rep.valid and rep.complete and rep.smooth


def test_validate_overlapping_cones():
    fan = Fan(2, ((1, 0), (0, 1), (1, 1)), ((0, 1), (0, 2)))
    rep = validate_fan(fan)
    assert not rep.valid
    assert rep.failures == ("maximal cones 0 and 1 overlap",)


# winds twice around the origin: every ray lies in exactly two cones, on
# opposite sides, so only the interior point of cone 0 shows the overlap
DOUBLE_COVER = Fan(2, ((1, 0), (-1, 1), (0, -1), (1, 1), (-2, -1)),
                   ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))


def test_validate_double_cover():
    counts = [sum(i in c for c in DOUBLE_COVER.max_cones) for i in range(5)]
    assert counts == [2] * 5
    rep = validate_fan(DOUBLE_COVER)
    assert rep.failures == ("maximal cones 0 and 3 overlap",)
    assert not rep.valid and not rep.complete and rep.smooth
    assert lp_interiors_meet(*(cone_rays(DOUBLE_COVER, c) for c in (0, 3)))


def test_validate_three_cones_at_one_facet():
    # the facet (1,) = ray (0, 1) lies in cones 0, 1 and 3, and cones 1 and
    # 3 lie on its negative side; at the facet (2,) cones 1 and 4 lie on one
    # side too, and the smaller pair is reported
    fan = Fan(2, ((1, 0), (0, 1), (-1, -1), (-1, 0)),
              ((0, 1), (1, 2), (0, 2), (1, 3), (2, 3)))
    rep = validate_fan(fan)
    assert rep.failures == ("maximal cones 1 and 3 overlap",)
    assert not rep.valid and not rep.complete


def test_validate_reads_only_cone_inverses():
    # completeness comes from sign tests on the cached cone inverses: no
    # polytope is built and no vertex or full-dimension check is computed
    fans = [DOUBLE_COVER, projective_space_fan(3), hirzebruch_fan(2),
            Fan(2, ((1, 0), (0, 1), (1, 1)), ((0, 1), (0, 2)))]
    fail = AssertionError("polytope layer")
    with mock.patch.object(LatticePolytope, "__post_init__", side_effect=fail), \
            mock.patch.object(LatticePolytope, "incidence",
                              new=property(mock.Mock(side_effect=fail))), \
            mock.patch.object(LatticePolytope, "require_full_dimensional",
                              side_effect=fail) as spy:
        reports = [validate_fan(f) for f in fans]
    assert not spy.called
    assert [r.valid for r in reports] == [False, True, True, False]


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


def test_lattice_points_returns_a_fresh_list():
    p = trapezoid_polytope(2, 1)
    pts = lattice_points(p)
    expected = list(pts)
    pts.append((9, 9))
    pts[0] = (7, 7)
    pts.reverse()
    assert lattice_points(p) == expected
    assert lattice_points(p) is not lattice_points(p)
    assert p.points == tuple(expected)


def test_point_budget_bounds_the_scanned_box(monkeypatch):
    monkeypatch.setattr(lattice_module, "POINT_BUDGET", 12)
    # the box [0, 2] x [0, 3] has 12 cells, [0, 3] x [0, 3] has 16
    assert len(lattice_points(box_polytope((2, 3)))) == 12
    with pytest.raises(ValueError, match="exceeds the enumeration budget"):
        lattice_points(box_polytope((3, 3)))
    # the budget counts box cells, not points: 16 cells, 10 points
    with pytest.raises(ValueError, match="16 lattice cells"):
        lattice_points(LatticePolytope(((-1, 0), (0, -1), (1, 1)), (0, 0, 3)))


def test_unimodular_invariance_of_validation():
    for fan in (projective_space_fan(2), hirzebruch_fan(1), bl3p2_fan()):
        # the map sending cone 0's rays to -e_i, read off its facets as
        # transitive_cones reads basis_change; cone 0 of bl3p2 is smooth
        # but not transitive, so transitive_cones gives it no basis_change
        d, m = fan.cone_facets(0)
        assert abs(d) == 1
        maps = [((2, 1), (1, 1)), tuple(map(vec_neg, m))]
        rep0 = validate_fan(fan)
        for a in maps:
            moved = Fan(2, tuple(tuple(mat_vec(a, r)) for r in fan.rays),
                        fan.max_cones)
            rep1 = validate_fan(moved)
            assert rep0.valid == rep1.valid
            assert rep0.complete == rep1.complete
            assert rep0.smooth == rep1.smooth


CATALOG_FAN_SPECS = ("pn:1", "pn:2", "pn:3", "pn:4", "p1n:1", "p1n:2",
                     "p1n:3", "p1n:4", "hirzebruch:0", "hirzebruch:1",
                     "hirzebruch:2", "hirzebruch:3", "bl3p2", "box:2x1",
                     "box:1x2x3", "simplex:3:2", "trapezoid:2:1")


def located_counts(fan, samples, seed):
    """Point-location oracle: for each seeded random integer direction off
    every facet hyperplane, the number of maximal cones holding it in their
    interior, read from its coordinates in each cone's rays."""
    rng = random.Random(seed)
    counts = []
    for _ in range(samples):
        v = tuple(rng.randint(-10**6, 10**6) for _ in range(fan.rank))
        coords = [solve_in_span(tuple(fan.rays[i] for i in c), v)
                  for c in fan.max_cones]
        if any(0 in lam for lam in coords):
            continue  # on a boundary
        counts.append(sum(all(x > 0 for x in lam) for lam in coords))
    return counts


def test_point_location_property():
    # every random direction lies in exactly one maximal cone, and the
    # exact report agrees
    for spec in CATALOG_FAN_SPECS:
        fan = example_fan(spec)
        counts = located_counts(fan, 200, 2024)
        assert len(counts) > 150, spec
        assert set(counts) == {1}, spec
        assert validate_fan(fan).complete, spec


@pytest.mark.parametrize("spec", CATALOG_FAN_SPECS)
def test_point_location_catches_a_dropped_cone(spec):
    # negative control: without one maximal cone, some direction lies in
    # no cone, and the exact report says incomplete
    fan = example_fan(spec)
    broken = Fan(fan.rank, fan.rays, fan.max_cones[1:])
    assert 0 in located_counts(broken, 200, 2024)
    assert not validate_fan(broken).complete


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


def box_or_error(box):
    try:
        return box()
    except ValueError as exc:
        return str(exc)


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
    with no_lp():
        box = p.bounding_box()
        pts = lattice_points(p)
    reference = lp_box(p)
    assert box == reference
    assert pts == brute_force_points(p, _scan_box(reference, p.dim))


def _assert_vertex_box(p):
    with no_lp():
        box = p.bounding_box()
    assert box == lp_box(p)
    assert lattice_points(p) == brute_force_points(p, _scan_box(box, p.dim))


def test_hexagon_box_uses_lp():
    # the LP is the reference; the vertex box itself makes no LP call
    _assert_vertex_box(hexagon_polytope())
    assert hexagon_polytope().bounding_box() == ((0, 0), (2, 2))


def test_transformed_root_region_box_uses_lp():
    fan = hirzebruch_fan(1)
    a = ((2, 1), (1, 1))
    moved = Fan(2, tuple(tuple(mat_vec(a, r)) for r in fan.rays),
                fan.max_cones)
    for i in range(len(moved.rays)):
        _assert_vertex_box(root_region(moved, i))
    assert len(demazure_roots(moved)) == len(demazure_roots(fan)) == 4


def test_box_without_lower_rows_is_unbounded_on_both_paths():
    p = LatticePolytope(((1, 0), (1, 1)), (2, 3))
    with no_lp(), pytest.raises(ValueError, match="unbounded polyhedron"):
        p.bounding_box()
    with pytest.raises(ValueError, match="unbounded polyhedron"):
        lp_box(p)


def test_recession_check_keeps_kernel_lines_exact():
    # pointed cones whose kernel lines need pivots other than +-1: a line
    # rounded to integers would miss an extreme ray and report a box
    for normals, offsets in ((((-3, 2), (2, -1)), (3, 3)),
                             (((-2, 1), (3, -2)), (1, 0)),
                             (((3, 1, 2), (-3, -3, -1), (0, -1, 0)),
                              (4, 0, 2))):
        p = LatticePolytope(normals, offsets)
        with no_lp():
            box = box_or_error(p.bounding_box)
        assert box == box_or_error(lambda: lp_box(p)) == "unbounded polyhedron"


@st.composite
def general_polytopes(draw):
    """Polytopes of dimension 1-3 with random small integer normals. Some
    repeat a column (rank-deficient normals), and random offsets make many
    empty, unbounded or lower-dimensional."""
    d = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d),
                         min_size=1, max_size=6))
    if d > 1 and draw(st.booleans()):
        for v in rows:
            v[-1] = v[0]
    offsets = draw(st.lists(st.integers(-3, 4), min_size=len(rows),
                            max_size=len(rows)))
    return LatticePolytope(tuple(map(tuple, rows)), tuple(offsets))


@settings(max_examples=400, deadline=None)
@given(general_polytopes())
def test_vertex_box_matches_lp(p):
    with no_lp():
        box = box_or_error(p.bounding_box)
    assert box == box_or_error(lambda: lp_box(p))
    if box is None or isinstance(box, tuple):
        assert lattice_points(p) == brute_force_points(p, _scan_box(box,
                                                                    p.dim))


def rescanned_incidence(p):
    """The vertex search as it was before the incidence map, kept as an
    oracle: keep each solution of n rows that satisfies every row, then
    rescan every row for the ones tight at each vertex."""
    found = {}
    rows = list(zip(p.normals, p.offsets))
    for combo in itertools.combinations(range(len(rows)), p.dim):
        x = solve_unique([rows[i][0] for i in combo],
                         [rows[i][1] for i in combo])
        if x is not None and p.contains(x):
            found[x] = None
    return [(v, frozenset(i for i, (nv, off) in enumerate(rows)
                          if dot(nv, v) == off))
            for v in sorted(found)]


@settings(max_examples=300, deadline=None)
@given(st.one_of(downsets(), general_polytopes()))
def test_incidence_matches_a_rescan_of_the_rows(p):
    expected = rescanned_incidence(p)
    assert list(p.incidence.items()) == expected
    assert p.vertices == tuple(v for v, _ in expected)
    assert all(type(x) is Fraction for v in p.vertices for x in v)
    assert list(p.incidence.values()) == [t for _, t in expected]


@st.composite
def moved_catalog_polytopes(draw, dims=(5, 6)):
    """Catalog boxes and simplices of dimension 5-6 (or `dims`) under a
    unimodular map and a translation, with duplicated, parallel, zero and
    dependent rows mixed in. Parallel and dependent rows may cut, giving
    rational and non-simple vertices; a negative zero row empties the
    polytope. Some repeat a column, so their normals are rank-deficient."""
    n = draw(st.integers(*dims))
    if draw(st.booleans()):
        p = box_polytope(draw(st.lists(st.integers(1, 2), min_size=n,
                                       max_size=n)))
    else:
        p = simplex_polytope(n, draw(st.integers(1, 3)))
    cols = tuple(zip(*draw(unimodular(n))))
    t = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    rows = []
    for nv, off in zip(p.normals, p.offsets):
        nv = [dot(nv, c) for c in cols]
        rows.append((nv, off + dot(nv, t)))
    row = st.sampled_from(rows)
    delta = st.integers(-1, 1)
    for kind in draw(st.lists(st.sampled_from(
            ("duplicate", "parallel", "zero", "dependent")), max_size=3)):
        (nv, off), d = draw(row), draw(delta)
        if kind == "duplicate":
            rows.append((list(nv), off))
        elif kind == "parallel":
            # a half or third step in or out: in, it cuts at rational points
            k, step = draw(st.integers(2, 3)), draw(st.sampled_from((-1, 1)))
            rows.append(([k * x for x in nv], k * off + step))
        elif kind == "zero":
            rows.append(([0] * n, d))
        else:
            nv2, off2 = draw(row)
            rows.append(([x + y for x, y in zip(nv, nv2)], off + off2 + d))
    if draw(st.integers(0, 4)) == 0:
        for nv, _ in rows:
            nv[-1] = nv[0]
    rows = draw(st.permutations(rows))
    return LatticePolytope(tuple(tuple(nv) for nv, _ in rows),
                           tuple(off for _, off in rows))


@settings(max_examples=60, deadline=None)
@given(moved_catalog_polytopes())
def test_incidence_matches_a_rescan_in_dimensions_5_and_6(p):
    items = list(p.incidence.items())
    assert items == rescanned_incidence(p)
    assert all(type(x) is Fraction for v, _ in items for x in v)


@st.composite
def unimodular(draw, n):
    """A random product of integer row operations: adding a multiple of one
    row to another, and negating a row."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            a[i] = [-x for x in a[i]]
        else:
            k = draw(st.integers(-2, 2))
            a[i] = [x + k * y for x, y in zip(a[i], a[j])]
    return tuple(map(tuple, a))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CATALOG_FAN_SPECS), st.data())
def test_vertex_box_of_moved_root_regions_matches_lp(spec, data):
    fan = example_fan(spec)
    a = data.draw(unimodular(fan.rank))
    moved = Fan(fan.rank, tuple(tuple(mat_vec(a, r)) for r in fan.rays),
                fan.max_cones)
    p = root_region(moved, data.draw(st.integers(0, len(fan.rays) - 1)))
    with no_lp():
        box = p.bounding_box()
    assert box == lp_box(p)


def roots_by_region(fan):
    """`demazure_roots` grouped by ray, each ray's roots in their order."""
    return [[root.m for root in demazure_roots(fan) if root.ray_index == i]
            for i in range(len(fan.rays))]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(CATALOG_FAN_SPECS), st.data())
def test_roots_on_the_hyperplane_match_the_full_region(spec, data):
    fan = example_fan(spec)
    a = data.draw(unimodular(fan.rank))
    order = data.draw(st.permutations(range(len(fan.rays))))
    label = {old: new for new, old in enumerate(order)}
    moved = Fan(fan.rank, tuple(tuple(mat_vec(a, fan.rays[old]))
                                for old in order),
                tuple(tuple(label[i] for i in c) for c in fan.max_cones))
    assert roots_by_region(moved) == [lattice_points(root_region(moved, i))
                                      for i in range(len(moved.rays))]


@pytest.mark.parametrize("fan, roots", [
    # n = 1: each region is a point of the 0-dimensional projection
    (example_fan("pn:1"), [[(-1,)], [(1,)]]),
    # P(1, 2, 3): ray 2 has no +-1 entry, and a = -2 divides no numerator
    (Fan(2, ((1, 0), (0, 1), (-2, -3)), ((0, 1), (1, 2), (0, 2))),
     [[(-1, 0)], [(0, -1), (1, -1)], []]),
])
def test_roots_on_the_hyperplane_hand_cases(fan, roots):
    assert roots_by_region(fan) == roots
    assert roots == [lattice_points(root_region(fan, i))
                     for i in range(len(fan.rays))]


def test_point_budget_counts_the_projected_root_region(monkeypatch):
    # P^2 with ray (-1, -1) first: its region is the segment from (1, 0) to
    # (0, 1), a 4-cell box in 2 coordinates and a 2-cell box in 1
    fan = Fan(2, ((-1, -1), (1, 0), (0, 1)), ((0, 1), (1, 2), (0, 2)))
    monkeypatch.setattr(lattice_module, "POINT_BUDGET", 3)
    with pytest.raises(ValueError, match="4 lattice cells"):
        lattice_points(root_region(fan, 0))
    assert roots_by_region(fan) == [[(0, 1), (1, 0)], [(-1, 0), (-1, 1)],
                                    [(0, -1), (1, -1)]]
    monkeypatch.setattr(lattice_module, "POINT_BUDGET", 1)
    with pytest.raises(ValueError, match="bounding box of 2 lattice cells"):
        demazure_roots(fan)


def vertex_box_by_subsets(self):
    """LatticePolytope._vertex_box as it was before the recession walk, kept
    as an oracle: one Bareiss elimination per (n - 1)-subset of normals."""
    n = self.dim
    basis = pivot_columns(self.normals)
    p = self if len(basis) == n else LatticePolytope(
        tuple(tuple(nv[j] for j in basis) for nv in self.normals),
        self.offsets)
    if not p.vertices:
        return None
    if p is not self:
        raise ValueError("unbounded polyhedron")
    for rows in itertools.combinations(self.normals, n - 1):
        a, pivots, last, _ = _echelon(rows)
        if len(pivots) < n - 1:
            continue
        # the kernel line: free column = pivot minor, integral by Cramer
        d = [0] * n
        d[min(set(range(n)).difference(pivots))] = last
        for row, j in zip(reversed(a), reversed(pivots)):
            d[j] = -dot(row, d) // row[j]
        values = [dot(nv, d) for nv in self.normals]
        if max(values) <= 0 or min(values) >= 0:
            raise ValueError("unbounded polyhedron")
    cols = tuple(zip(*self.vertices))
    return (tuple(ceil(min(c)) for c in cols),
            tuple(floor(max(c)) for c in cols))


def walked_and_oracle_boxes(p):
    """The box or error of the recession walk and of the subset oracle, each
    on a fresh copy of p so that neither reads the other's cached vertices."""
    fresh = LatticePolytope(p.normals, p.offsets)
    return (box_or_error(p._vertex_box),
            box_or_error(lambda: vertex_box_by_subsets(fresh)))


@st.composite
def recession_polytopes(draw):
    """Polytopes of dimension 1-5 for the recession check. The normals are
    random, or those of a pointed cone whose kernel lines need pivots other
    than +-1 (|det| > 1), sometimes closed by a box. Zero, duplicate and
    parallel rows are mixed in, and some repeat a column."""
    n = draw(st.integers(1, 5))
    vec = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    kind = draw(st.sampled_from(("random", "cone", "boxed cone")))
    if kind == "random":
        rows = draw(st.lists(vec, min_size=1, max_size=n + 3))
    else:
        rows = draw(st.lists(vec, min_size=n, max_size=n))
        assume(abs(det(rows)) > 1)
        if kind == "boxed cone":
            rows += [[s * int(i == j) for j in range(n)]
                     for i in range(n) for s in (1, -1)]
    for extra in draw(st.lists(st.sampled_from(
            ("zero", "duplicate", "parallel")), max_size=3)):
        nv = draw(st.sampled_from(rows))
        if extra == "zero":
            rows.append([0] * n)
        elif extra == "duplicate":
            rows.append(list(nv))
        else:
            k = draw(st.sampled_from((-2, 2, 3)))
            rows.append([k * x for x in nv])
    if n > 1 and draw(st.integers(0, 3)) == 0:
        for nv in rows:
            nv[-1] = nv[0]
    rows = draw(st.permutations(rows))
    offsets = draw(st.lists(st.integers(-2, 4), min_size=len(rows),
                            max_size=len(rows)))
    return LatticePolytope(tuple(map(tuple, rows)), tuple(offsets))


def test_recession_walk_matches_the_subset_oracle():
    outcomes = set()

    @settings(max_examples=300, deadline=None)
    @given(recession_polytopes())
    def check(p):
        got, expected = walked_and_oracle_boxes(p)
        assert got == expected
        outcomes.add(got if got is None or isinstance(got, str) else "box")

    check()
    assert outcomes == {None, "box", "unbounded polyhedron"}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("pn:5", "p1n:5")), st.data())
def test_recession_walk_on_moved_root_regions_in_dimension_5(spec, data):
    fan = example_fan(spec)
    a = data.draw(unimodular(fan.rank))
    moved = Fan(fan.rank, tuple(tuple(mat_vec(a, r)) for r in fan.rays),
                fan.max_cones)
    p = root_region(moved, data.draw(st.integers(0, len(fan.rays) - 1)))
    got, expected = walked_and_oracle_boxes(p)
    assert got == expected and isinstance(got, tuple)


def reported_overlaps(rep):
    """(a, b) of every "maximal cones a and b overlap" failure."""
    return [tuple(int(w) for w in msg.split()[2:5:2]) for msg in rep.failures
            if msg.endswith("overlap")]


@st.composite
def facet_pairs(draw):
    """Two full-dimensional simplicial cones of rank 2-4 sharing n - 1 rays,
    as a two-cone fan: its only test is the side of the shared facet."""
    n = draw(st.integers(2, 4))
    ray = st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any)
    rays = list(dict.fromkeys(primitivize(tuple(r)) for r in
                              draw(st.lists(ray, min_size=n + 1,
                                            max_size=n + 1))))
    assume(len(rays) == n + 1)
    cones = (tuple(range(n)), tuple(range(n - 1)) + (n,))
    assume(all(det([rays[i] for i in c]) != 0 for c in cones))
    return Fan(n, tuple(rays), cones)


def test_cone_overlap_matches_lp():
    outcomes = set()

    @settings(max_examples=200, deadline=None)
    @given(facet_pairs())
    def check(fan):
        with no_lp():
            rep = validate_fan(fan)
        overlap = reported_overlaps(rep) == [(0, 1)]
        assert overlap == lp_interiors_meet(cone_rays(fan, 0),
                                            cone_rays(fan, 1))
        outcomes.add(overlap)

    check()
    assert outcomes == {False, True}


SMALL_FAN_SPECS = ("pn:2", "pn:3", "p1n:2", "p1n:3", "hirzebruch:0",
                   "hirzebruch:1", "hirzebruch:2", "hirzebruch:3", "bl3p2",
                   "box:2x1", "box:1x2x3", "simplex:3:2", "trapezoid:2:1")


@st.composite
def small_fans(draw):
    """Fans of rank 2-3 with at most 8 cones, all rays used and no cone
    degenerate: a catalog fan or the double cover under a unimodular map,
    with cones dropped, duplicated, added or replaced and rays moved."""
    base = draw(st.sampled_from(SMALL_FAN_SPECS + ("double cover",)))
    fan = DOUBLE_COVER if base == "double cover" else example_fan(base)
    n = fan.rank
    a = draw(unimodular(n))
    rays = [tuple(mat_vec(a, r)) for r in fan.rays]
    cones = list(fan.max_cones)
    index = st.integers(0, len(rays) - 1)
    some_cone = st.lists(index, min_size=n, max_size=n, unique=True)
    for kind in draw(st.lists(st.sampled_from(
            ("drop", "duplicate", "add", "replace", "move")), max_size=2)):
        i = draw(st.integers(0, len(cones) - 1))
        if kind == "drop" and len(cones) > 1:
            del cones[i]
        elif kind == "duplicate":
            cones.append(cones[i])
        elif kind == "add":
            cones.append(draw(some_cone))
        elif kind == "replace":
            cones[i] = draw(some_cone)
        elif kind == "move":
            r = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
            assume(any(r) and primitivize(tuple(r)) not in rays)
            rays[draw(index)] = primitivize(tuple(r))
    assume(len(cones) <= 8)
    assume(set(range(len(rays))) <= {i for c in cones for i in c})
    assume(all(det([rays[i] for i in c]) != 0 for c in cones))
    return Fan(n, tuple(rays), tuple(draw(st.permutations(cones))))


def test_validate_matches_pairwise_lp():
    """valid iff every pair of maximal cones has disjoint interiors by LP
    and every facet lies in exactly two cones; each reported overlap is one
    the LP confirms."""
    verdicts = set()

    @settings(max_examples=150, deadline=None)
    @given(small_fans())
    def check(fan):
        with no_lp():
            rep = validate_fan(fan)
        gens = [cone_rays(fan, c) for c in range(len(fan.max_cones))]
        for a, b in reported_overlaps(rep):
            assert lp_interiors_meet(gens[a], gens[b])
        facets = collections.Counter(
            f for c in fan.max_cones
            for f in itertools.combinations(c, fan.rank - 1))
        expected = (set(facets.values()) == {2} and not any(
            lp_interiors_meet(ga, gb)
            for ga, gb in itertools.combinations(gens, 2)))
        assert rep.valid == expected
        verdicts.add(rep.valid)

    check()
    assert verdicts == {False, True}


def test_normal_fan_of_trapezoid_is_hirzebruch():
    fan, verts = normal_fan(trapezoid_polytope(2, 1))
    assert set(fan.rays) == {(-1, 0), (0, -1), (1, 1), (0, 1)}
    assert validate_fan(fan).valid
    assert len(fan.max_cones) == len(verts) == 4


def normal_fan_by_affine_rank(p):
    """normal_fan as it was before the tight-set test, kept as an oracle: a
    row is a facet iff the vertices tight on it have affine rank n - 1. It
    tests boundedness first, then the affine rank of all vertices."""
    n = p.dim
    p.bounding_box()
    if affine_rank(p.vertices) != n:
        raise ValueError("not full-dimensional")
    facets = [i for i in range(len(p.normals)) if affine_rank(
        [v for v, t in p.incidence.items() if i in t]) == n - 1]
    rays = list(dict.fromkeys(primitivize(p.normals[i]) for i in facets))
    cones = []
    for t in p.incidence.values():
        cone = {rays.index(primitivize(p.normals[i])) for i in t & set(facets)}
        if len(cone) != n:
            raise ValueError("vertex is not simple")
        cones.append(tuple(sorted(cone)))
    return Fan(n, tuple(rays), tuple(cones)), p.vertices


def result_or_error(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(st.one_of(general_polytopes(), moved_catalog_polytopes((2, 4))))
def test_normal_fan_facets_match_affine_rank(p):
    check = LatticePolytope.require_full_dimensional
    with mock.patch.object(LatticePolytope, "require_full_dimensional",
                           autospec=True, side_effect=check) as spy:
        got = result_or_error(normal_fan, p)
    assert spy.call_count == 1  # the one full-dimension check
    assert got == result_or_error(normal_fan_by_affine_rank, p)


def full_dimension_by_affine_rank(p):
    """The full-dimension check of normal_fan and ensure_standard_form as it
    was before `require_full_dimensional`, kept as an oracle: the affine rank
    of all vertices, then the bounding box."""
    if affine_rank(p.vertices) != p.dim:
        raise ValueError("not full-dimensional")
    p.bounding_box()


def test_full_dimension_from_tight_sets_matches_affine_rank():
    """On a bounded or empty polytope, no vertex or a nonzero row tight at
    every vertex is the same verdict as the affine rank of the vertices. An
    unbounded one is "unbounded polyhedron" exactly when its box says so."""
    outcomes = set()

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(general_polytopes(), recession_polytopes()))
    def check(p):
        got = result_or_error(p.require_full_dimensional)
        fresh = LatticePolytope(p.normals, p.offsets)
        if box_or_error(fresh.bounding_box) == "unbounded polyhedron":
            assert got == "unbounded polyhedron"
        else:
            assert got == result_or_error(full_dimension_by_affine_rank, fresh)
        # a zero row with offset 0 is tight everywhere and cuts nothing
        padded = p.with_inequality((0,) * p.dim, 0)
        assert result_or_error(padded.require_full_dimensional) == got
        outcomes.add(got)

    check()
    assert outcomes == {None, "not full-dimensional", "unbounded polyhedron"}


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


def test_polytope_rejects_non_integral_offsets():
    normals = ((-1, 0), (0, -1), (1, 1))
    with pytest.raises(ValueError, match="integer"):
        LatticePolytope(normals, (0, 0, 2.7))
    tri = LatticePolytope(normals[:2], (0, 0))
    with pytest.raises(ValueError, match="integer"):
        tri.with_inequality((1, 1), 2.5)
    assert tri.with_inequality((1, 1), 2.0).offsets == (0, 0, 2)


def test_validate_degenerate_cone():
    fan = Fan(2, ((1, 0), (-1, 0), (0, 1), (0, -1)),
              ((0, 1), (0, 2), (1, 2), (1, 3), (0, 3)))
    rep = validate_fan(fan)
    assert rep.failures == ("maximal cone 0 is degenerate",)
    assert rep.cone_smooth == (False, True, True, True, True)
    assert not rep.valid and not rep.simplicial and not rep.complete
