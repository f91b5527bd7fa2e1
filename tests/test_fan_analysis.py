import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from toric_linsys import (
    Fan,
    LatticePolytope,
    build_presentation,
    demazure_roots,
    detect_p1_power,
    fan_symmetries,
    normal_fan,
    ray_index_partition,
    roots_outside_sigma_check,
    transitive_cones,
    validate_fan,
    vertex_capsule,
)
from toric_linsys.catalog import (
    bl3p2_fan,
    example_fan,
    hexagon_polytope,
    hirzebruch_fan,
    p1_power_fan,
    projective_space_fan,
    trapezoid_polytope,
    unit_square_polytope,
)
from toric_linsys import lattice
from toric_linsys.fan_analysis import _require_valid
from toric_linsys.linalg import (adjugate, columns_matrix, det, dot, mat_mul,
                                 mat_vec, solve_in_span, vec_neg)

from lp_oracles import lp_in_hull, no_lp
from references import (affine_rank, cone_rays, polygon_is_smooth,
                        random_smooth_polygon)


# the spec example polytope conv{(0,0),(1,0),(2,1),(0,1)}
SLANT_TRAPEZOID = LatticePolytope(((-1, 0), (0, -1), (0, 1), (1, -1)),
                                  (0, 0, 1, 1))


def brute_force_symmetries(fan, bound=3):
    """Independent oracle: all unimodular 2x2 integer matrices with small
    entries permuting the rays and the maximal cones."""
    assert fan.rank == 2
    ray_of = {r: i for i, r in enumerate(fan.rays)}
    cones = set(fan.max_cones)
    found = []
    rng = range(-bound, bound + 1)
    for a, b, c, d in itertools.product(rng, repeat=4):
        m = ((a, b), (c, d))
        if abs(a * d - b * c) != 1:
            continue
        images = []
        ok = True
        for r in fan.rays:
            img = tuple(mat_vec(m, r))
            if img not in ray_of:
                ok = False
                break
            images.append(ray_of[img])
        if not ok or len(set(images)) != len(images):
            continue
        if all(tuple(sorted(images[i] for i in cone)) in cones
               for cone in fan.max_cones):
            found.append(m)
    return found


def test_transitive_cones_p2():
    v = transitive_cones(projective_space_fan(2))
    assert v.transitive_cone_indices == (0, 1, 2)
    assert v.normalized_fan.rays[:2] == ((-1, 0), (0, -1))


def test_transitive_cones_bl3p2_empty():
    v = transitive_cones(bl3p2_fan())
    assert v.transitive_cone_indices == ()
    assert not v
    assert v.normalized_fan is None


def test_transitive_cones_f1():
    fan = hirzebruch_fan(1)
    v = transitive_cones(fan)
    assert len(v.transitive_cone_indices) == 2
    # exactly the two cones containing ray 1 = (0, -1)
    for ci in v.transitive_cone_indices:
        assert 1 in fan.max_cones[ci]
    assert v.transitive_cone_indices == (0, 1)


def test_transitive_cones_rejects_invalid_fan():
    broken = Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2)))
    with pytest.raises(ValueError, match="invalid fan"):
        transitive_cones(broken)


def test_normalized_rays_nonnegative():
    # Theorem-A forward direction, checked literally on quasi-transitive fans
    for fan in (projective_space_fan(2), projective_space_fan(4),
                hirzebruch_fan(1), hirzebruch_fan(2), p1_power_fan(3)):
        v = transitive_cones(fan)
        n = fan.rank
        assert v
        for ray in v.normalized_fan.rays[n:]:
            assert all(x >= 0 for x in ray)


def test_capsule_hexagon_all_false():
    hexa = hexagon_polytope()
    for vert in hexa.vertices:
        res = vertex_capsule(hexa, tuple(int(x) for x in vert))
        assert res.contains_polytope is False
        assert res.certified is True


def test_capsule_slant_trapezoid_top_vertex():
    res = vertex_capsule(SLANT_TRAPEZOID, (0, 1))
    assert res.contains_polytope is True
    assert set(res.capsule_vertices) == {(0, 1), (0, 0), (2, 1), (2, 0)}


def test_capsule_slant_trapezoid_bottom_vertex():
    res = vertex_capsule(SLANT_TRAPEZOID, (0, 0))
    assert res.contains_polytope is False
    assert set(res.capsule_vertices) == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_capsule_errors():
    with pytest.raises(ValueError, match="not a vertex"):
        vertex_capsule(SLANT_TRAPEZOID, (5, 5))
    # (0,1) is a non-smooth corner of {x>=0, y>=0, x+2y<=2}: edge
    # directions (0,-1) and (2,-1) have determinant 2
    tri = LatticePolytope(((-1, 0), (0, -1), (1, 2)), (0, 0, 2))
    with pytest.raises(ValueError, match="non-smooth"):
        vertex_capsule(tri, (0, 1))


# {y >= 0, x >= 0, x + y >= 1, x - y <= 2}: unbounded, with a smooth vertex
# (1, 0) whose capsule would hold every vertex; "not a vertex" is tested first
UNBOUNDED_POLYGON = LatticePolytope(((0, -1), (-1, 0), (-1, -1), (1, -1)),
                                    (0, 0, -1, 2))


def test_capsule_rejects_unbounded_polygon():
    with pytest.raises(ValueError) as exc:
        vertex_capsule(UNBOUNDED_POLYGON, (1, 0))
    assert str(exc.value) == "unbounded polyhedron"
    with pytest.raises(ValueError, match="not a vertex"):
        vertex_capsule(UNBOUNDED_POLYGON, (0, 0))


def test_lp_hull_oracle():
    square = [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert lp_in_hull(square, (Fraction(1, 2), Fraction(1, 2)))
    assert lp_in_hull(square, (1, 1))
    assert not lp_in_hull(square, (2, 0))
    assert not lp_in_hull(square, (Fraction(-1, 10), 0))
    # hull of fewer points than the dimension
    assert lp_in_hull([(0, 0), (2, 2)], (1, 1))
    assert not lp_in_hull([(0, 0), (2, 2)], (1, 0))


@st.composite
def cut_boxes(draw):
    """A box [0, a]^n, n = 2 or 3, cut by up to three random half-spaces
    through its interior; many vertices are smooth, some are rational."""
    n = draw(st.integers(2, 3))
    sides = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    normals = [tuple(-int(i == j) for j in range(n)) for i in range(n)]
    normals += [tuple(int(i == j) for j in range(n)) for i in range(n)]
    offsets = [0] * n + sides
    for _ in range(draw(st.integers(0, 3))):
        nv = tuple(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
        if any(nv):
            normals.append(nv)
            offsets.append(dot(nv, sides) // 2 + draw(st.integers(0, 2)))
    return LatticePolytope(tuple(normals), tuple(offsets))


def test_capsule_matches_lp_hull():
    outcomes = []

    @settings(max_examples=150, deadline=None)
    @given(cut_boxes())
    def check(p):
        if affine_rank(p.vertices) != p.dim:
            return
        for v in p.vertices:
            try:
                with no_lp():
                    result = vertex_capsule(p, v)
            except ValueError:
                continue  # not a smooth vertex
            expected = all(lp_in_hull(result.capsule_vertices, w)
                           for w in p.vertices)
            assert result.contains_polytope == expected, (p, v)
            outcomes.append(expected)

    check()
    assert outcomes.count(True) >= 10 and outcomes.count(False) >= 10


def test_demazure_roots_p2():
    roots = demazure_roots(projective_space_fan(2))
    assert len(roots) == 6
    per_ray = {}
    for r in roots:
        per_ray.setdefault(r.ray_index, []).append(r.m)
    assert all(len(v) == 2 for v in per_ray.values())
    # normalized fan: ray (-1,0) carries roots (1,0) and (1,-1)
    v = transitive_cones(projective_space_fan(2))
    nroots = demazure_roots(v.normalized_fan)
    of_ray0 = sorted(r.m for r in nroots if r.ray_index == 0)
    assert of_ray0 == [(1, -1), (1, 0)]
    # dim Aut(P2) = n + #roots = 8
    assert 2 + len(roots) == 8


def test_demazure_roots_f1():
    roots = demazure_roots(hirzebruch_fan(1))
    per_ray = {i: [] for i in range(4)}
    for r in roots:
        per_ray[r.ray_index].append(r.m)
    assert sorted(per_ray[0]) == [(1, 0)]
    assert sorted(per_ray[1]) == [(-1, 1), (0, 1)]
    assert sorted(per_ray[2]) == [(-1, 0)]
    assert per_ray[3] == []
    assert 2 + len(roots) == 6


def test_demazure_roots_p1n2():
    roots = demazure_roots(p1_power_fan(2))
    assert len(roots) == 4
    # each ray eps*e_i has the single root -eps*e_i
    fan = p1_power_fan(2)
    for r in roots:
        ray = fan.rays[r.ray_index]
        assert r.m == tuple(-x for x in ray)
    assert 2 + len(roots) == 6


def test_roots_satisfy_defining_inequalities():
    # re-verified post hoc on every enumerated root
    for fan in (projective_space_fan(2), projective_space_fan(3),
                hirzebruch_fan(1), hirzebruch_fan(2), bl3p2_fan(),
                p1_power_fan(2), p1_power_fan(3)):
        for root in demazure_roots(fan):
            pairings = [dot(root.m, ray) for ray in fan.rays]
            assert pairings[root.ray_index] == -1
            assert all(p >= 0 for j, p in enumerate(pairings)
                       if j != root.ray_index)


def test_root_counts_match_classical_aut_dimensions():
    # dim Aut = n + #roots: n^2 + 2n on projective space, a + 5 on the
    # Hirzebruch surface with a >= 1 (6 for the product of two lines)
    for n in (1, 2, 3, 4):
        fan = projective_space_fan(n)
        assert n + len(demazure_roots(fan)) == n * n + 2 * n
    for a in (0, 1, 2, 3, 4):
        fan = hirzebruch_fan(a)
        expected = 6 if a == 0 else a + 5
        assert 2 + len(demazure_roots(fan)) == expected


def test_roots_require_complete_fan():
    half = Fan(2, ((1, 0), (0, 1)), ((0, 1),))
    with pytest.raises(ValueError):
        demazure_roots(half)


def test_roots_outside_sigma():
    for fan in (hirzebruch_fan(1), projective_space_fan(2), p1_power_fan(2)):
        v = transitive_cones(fan)
        roots = demazure_roots(v.normalized_fan)
        assert roots_outside_sigma_check(v, roots) is True
    # F1 normalized: the root set of ray (1,1) is exactly {-e1}
    v = transitive_cones(hirzebruch_fan(1))
    roots = demazure_roots(v.normalized_fan)
    idx = v.normalized_fan.rays.index((1, 1))
    assert [r.m for r in roots if r.ray_index == idx] == [(-1, 0)]


def test_remark_root_family():
    # i in I with entry (i, j+n) of the ray matrix >= 1 forces the roots
    # e_i - e_k for k in I_j among the first n indices
    for fan in (hirzebruch_fan(1), hirzebruch_fan(2), p1_power_fan(2),
                projective_space_fan(3)):
        v = transitive_cones(fan)
        cp = build_presentation(v)
        n = cp.rank
        i_sets, leftover = ray_index_partition(cp)
        roots = demazure_roots(cp.fan)
        root_set = {(r.ray_index, r.m) for r in roots}
        for i in leftover:
            for j, i_j in enumerate(i_sets):
                ks = [k for k in i_j if k < n]
                if not ks or cp.ray_matrix[i][n + j] < 1:
                    continue
                for k in ks:
                    m = tuple((1 if l == i else 0) - (1 if l == k else 0)
                              for l in range(n))
                    assert (i, m) in root_set


def test_ray_index_partition_f1():
    cp = build_presentation(transitive_cones(hirzebruch_fan(1)))
    i_sets, leftover = ray_index_partition(cp)
    assert [sorted(s) for s in i_sets] == [[0, 2], [3]]
    assert sorted(leftover) == [1]
    # every index in exactly one set
    all_sets = list(i_sets) + [leftover]
    for i in range(4):
        assert sum(i in s for s in all_sets) == 1


def test_ray_index_partition_pn():
    for n in (2, 3):
        cp = build_presentation(transitive_cones(projective_space_fan(n)))
        i_sets, leftover = ray_index_partition(cp)
        assert [sorted(s) for s in i_sets] == [list(range(n + 1))]
        assert leftover == frozenset()


def test_ray_index_partition_p1n2():
    cp = build_presentation(transitive_cones(p1_power_fan(2)))
    i_sets, leftover = ray_index_partition(cp)
    assert [sorted(s) for s in i_sets] == [[0, 2], [1, 3]]
    assert leftover == frozenset()


def test_fan_symmetries_counts():
    assert len(fan_symmetries(projective_space_fan(2))) == 6
    assert len(fan_symmetries(p1_power_fan(2))) == 8
    syms = fan_symmetries(hirzebruch_fan(1))
    assert len(syms) == 2  # identity and the fiber swap (0,-1),(0,1) fixed


def test_fan_symmetries_match_brute_force():
    for fan in (projective_space_fan(2), p1_power_fan(2), hirzebruch_fan(1),
                hirzebruch_fan(2), bl3p2_fan()):
        expected = sorted(brute_force_symmetries(fan))
        assert sorted(fan_symmetries(fan)) == expected


def test_fan_symmetries_group_closure():
    for fan in (projective_space_fan(2), p1_power_fan(2), bl3p2_fan()):
        syms = set(fan_symmetries(fan))
        for a in syms:
            for b in syms:
                assert tuple(tuple(r) for r in mat_mul(a, b)) in syms
        # inverses: finite group closed under products contains inverses,
        # checked directly via the identity
        ident = tuple(tuple(1 if i == j else 0 for j in range(fan.rank))
                      for i in range(fan.rank))
        for a in syms:
            assert any(mat_mul(a, b) == ident for b in syms)


def test_detect_p1_power():
    res = detect_p1_power(p1_power_fan(3))
    assert res is not None and res.n == 3
    assert res.pairing == ((0, 3), (1, 4), (2, 5))
    assert detect_p1_power(projective_space_fan(2)) is None
    assert detect_p1_power(hirzebruch_fan(1)) is None


def test_capsule_fan_agreement_fixed_polytopes():
    for poly in (hexagon_polytope(), trapezoid_polytope(2, 1),
                 unit_square_polytope(), SLANT_TRAPEZOID):
        _assert_capsule_fan_agreement(poly)


def test_capsule_fan_agreement_random_polygons():
    rng = random.Random(20240)
    for _ in range(20):
        poly = random_smooth_polygon(rng)
        assert polygon_is_smooth(poly)
        _assert_capsule_fan_agreement(poly)


def _assert_capsule_fan_agreement(poly):
    fan, verts = normal_fan(poly)
    verdict = transitive_cones(fan)
    for j, vert in enumerate(verts):
        capsule = vertex_capsule(poly, tuple(int(x) for x in vert))
        fan_says = j in verdict.transitive_cone_indices
        assert capsule.contains_polytope == fan_says, (poly, vert)


def fan_symmetries_with_det(f: Fan):
    """The search as it was before the determinant test was dropped, kept
    verbatim as an oracle: every candidate also needs |det| = 1."""
    _require_valid(f)
    ray_of = {r: i for i, r in enumerate(f.rays)}
    cone_set = {c for c in f.max_cones}
    base = f.max_cones[0]
    d, base_adj = adjugate(columns_matrix(tuple(f.rays[i] for i in base)))
    out = {}
    for target in f.max_cones:
        for perm in itertools.permutations(target):
            # the candidate t . base^-1 = t . adj / d is integral iff d
            # divides every entry of t . adj
            t_adj = mat_mul(columns_matrix(tuple(f.rays[i] for i in perm)),
                            base_adj)
            if any(x % d for row in t_adj for x in row):
                continue
            a = tuple(tuple(x // d for x in row) for row in t_adj)
            if abs(det(a)) != 1:
                continue
            images = []
            ok = True
            for r in f.rays:
                img = tuple(mat_vec(a, r))
                if img not in ray_of:
                    ok = False
                    break
                images.append(ray_of[img])
            if not ok or len(set(images)) != len(images):
                continue
            if all(tuple(sorted(images[i] for i in c)) in cone_set
                   for c in f.max_cones):
                out[a] = None
    return tuple(sorted(out))


# rays (+-1, +-1) span an index-2 sublattice: simplicial and complete but
# not smooth
DIAGONAL_FAN = Fan(2, ((1, 1), (-1, 1), (-1, -1), (1, -1)),
                   ((0, 1), (1, 2), (2, 3), (0, 3)))
# cone 0 has d = 9; the rational map that swaps rays 0 and 1 and fixes ray 2
# permutes the rays and the cones but is not integral
SWAP_FAN = Fan(2, ((-3, -2), (3, -1), (0, 1)), ((0, 1), (1, 2), (0, 2)))
# P(1, 2, 3): its cones have determinants 1, 2 and -3
P123_FAN = Fan(2, ((1, 0), (0, 1), (-2, -3)), ((0, 1), (1, 2), (0, 2)))


def p2_bundle_fan(a):
    """P(O + O(a)) over the projective plane."""
    return Fan(3, ((-1, 0, 0), (0, -1, 0), (0, 0, -1), (1, 1, a), (0, 0, 1)),
               tuple((i, j, w) for i, j in ((0, 1), (1, 3), (0, 3))
                     for w in (2, 4)))


def p1xp1_bundle_fan(a, b):
    """A P^1-bundle over P^1 x P^1 twisted by (a, b)."""
    return Fan(3, ((-1, 0, 0), (0, -1, 0), (0, 0, -1), (1, 0, a), (0, 1, b),
                   (0, 0, 1)),
               tuple((x, y, z) for x in (0, 3) for y in (1, 4) for z in (2, 5)))


# the face fan of the cube [-1, 1]^3, each square cut by a diagonal: all 48
# signed permutations permute the rays, but only 4 of them the cones
CUBE_FAN = Fan(3, tuple(itertools.product((-1, 1), repeat=3)),
               ((0, 2, 3), (0, 1, 3), (4, 6, 7), (4, 5, 7), (0, 4, 5),
                (0, 1, 5), (3, 6, 7), (2, 3, 6), (0, 4, 6), (0, 2, 6),
                (3, 5, 7), (1, 3, 5)))
# fans whose symmetries move cone 0 onto only some of the cones
PARTIAL_ORBIT_FANS = (p2_bundle_fan(1), p2_bundle_fan(2),
                      p1xp1_bundle_fan(1, 1), p1xp1_bundle_fan(1, 2), CUBE_FAN)
SYMMETRY_FANS = (projective_space_fan(2), projective_space_fan(3),
                 p1_power_fan(2), p1_power_fan(3), hirzebruch_fan(1),
                 hirzebruch_fan(2), hirzebruch_fan(3), bl3p2_fan(),
                 DIAGONAL_FAN, SWAP_FAN, P123_FAN) + PARTIAL_ORBIT_FANS


def unimodular_matrix(n, rng, steps=6):
    """A seeded product of elementary matrices and sign flips."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            c = rng.randint(-2, 2)
            a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        if rng.random() < 0.3:
            a[i] = [-x for x in a[i]]
    return tuple(map(tuple, a))


def relabelled(fan, rng):
    """The same fan with its rays and its maximal cones in a random order."""
    order = list(range(len(fan.rays)))
    rng.shuffle(order)
    position = {old: new for new, old in enumerate(order)}
    cones = [tuple(position[i] for i in c) for c in fan.max_cones]
    rng.shuffle(cones)
    return Fan(fan.rank, tuple(fan.rays[old] for old in order), tuple(cones))


def cone_zero_images(fan, syms):
    """The maximal cone that each symmetry sends cone 0 onto."""
    ray_of = {r: i for i, r in enumerate(fan.rays)}
    return [tuple(sorted(ray_of[mat_vec(a, fan.rays[i])]
                         for i in fan.max_cones[0])) for a in syms]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(SYMMETRY_FANS), st.integers(0, 2**32 - 1),
       st.booleans(), st.booleans())
def test_fan_symmetries_match_the_determinant_oracle(fan, seed, moved,
                                                     relabel):
    rng = random.Random(seed)
    original = fan
    if moved:
        g = unimodular_matrix(fan.rank, rng)
        assert abs(det(g)) == 1
        fan = Fan(fan.rank, tuple(tuple(mat_vec(g, r)) for r in fan.rays),
                  fan.max_cones)
    if relabel:
        # the symmetries are maps, so no labelling changes them
        fan = relabelled(fan, rng)
        if not moved:
            assert fan_symmetries(fan) == fan_symmetries(original)
    assert fan.validation.valid
    assert fan_symmetries(fan) == fan_symmetries_with_det(fan)


@pytest.mark.parametrize("fan", [projective_space_fan(4), p1_power_fan(4),
                                 projective_space_fan(5), p1_power_fan(5)])
def test_fan_symmetries_match_the_determinant_oracle_in_rank_4(fan):
    # and in rank 5, where cone 0 has 120 orderings
    assert fan_symmetries(fan) == fan_symmetries_with_det(fan)


def test_a_non_integral_candidate_is_refused():
    d, m = SWAP_FAN.cone_facets(0)
    assert d == 9
    # the map rays 0, 1 -> rays 1, 0 as a rational matrix: it fixes ray 2
    # and so permutes the rays and the cones, but is not integral
    t = columns_matrix((SWAP_FAN.rays[1], SWAP_FAN.rays[0]))
    swap = tuple(tuple(Fraction(x, d) for x in row) for row in mat_mul(t, m))
    assert mat_vec(swap, SWAP_FAN.rays[2]) == SWAP_FAN.rays[2]
    assert any(x.denominator != 1 for row in swap for x in row)
    assert fan_symmetries(SWAP_FAN) == (((1, 0), (0, 1)),)
    assert fan_symmetries_with_det(SWAP_FAN) == (((1, 0), (0, 1)),)


@pytest.mark.parametrize("spec, cones", [("pn:12", 13), ("p1n:9", 512)])
def test_symmetry_search_over_the_budget(spec, cones):
    # refused before the fan is validated: 13 * 12! and 512 * 9! candidates
    with mock.patch.object(lattice, "validate_fan",
                           side_effect=AssertionError("validated")):
        with pytest.raises(ValueError, match="exceed the enumeration budget"):
            fan_symmetries(example_fan(spec))


def test_symmetry_budget_counts_cones_times_orderings(monkeypatch):
    # P^3: 4 cones of 3! orderings each, 24 candidates; 24 symmetries of
    # 3 x 3 entries each, 216 entries returned
    monkeypatch.setattr(lattice, "POINT_BUDGET", 216)
    assert len(fan_symmetries(projective_space_fan(3))) == 24
    monkeypatch.setattr(lattice, "POINT_BUDGET", 215)
    with pytest.raises(ValueError, match="^216 symmetry matrix entries "
                                         "exceed the enumeration budget "
                                         "of 215$"):
        fan_symmetries(projective_space_fan(3))
    monkeypatch.setattr(lattice, "POINT_BUDGET", 23)
    with mock.patch.object(lattice, "validate_fan",
                           side_effect=AssertionError("validated")):
        with pytest.raises(ValueError, match="^24 candidate maps exceed the "
                                             "enumeration budget of 23$"):
            fan_symmetries(projective_space_fan(3))


def test_cone_zero_orbit_misses_cones():
    # these targets have no coset; every other coset has the same size
    assert len(fan_symmetries(CUBE_FAN)) == 4
    for fan in PARTIAL_ORBIT_FANS:
        for f in (fan, relabelled(fan, random.Random(7))):
            images = cone_zero_images(f, fan_symmetries(f))
            orbit = set(images)
            assert 1 < len(orbit) < len(f.max_cones)
            assert all(images.count(t) == images.count(f.max_cones[0])
                       for t in orbit)


def test_diagonal_fan_symmetries():
    # the dihedral group of the square, though no cone is smooth
    assert not DIAGONAL_FAN.validation.smooth
    assert len(fan_symmetries(DIAGONAL_FAN)) == 8


def cone_oracle_is_transitive(f, ci):
    """The transitivity test from the definition: the cone's ray matrix has
    determinant +-1, and every ray outside the cone is a nonnegative
    combination of its negated rays."""
    negated = tuple(map(vec_neg, cone_rays(f, ci)))
    return abs(det(negated)) == 1 and all(
        min(solve_in_span(negated, r)) >= 0
        for i, r in enumerate(f.rays) if i not in f.max_cones[ci])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SYMMETRY_FANS), st.integers(0, 2**32 - 1),
       st.booleans())
def test_transitivity_matches_the_cone_oracle(fan, seed, moved):
    if moved:
        g = unimodular_matrix(fan.rank, random.Random(seed))
        fan = Fan(fan.rank, tuple(tuple(mat_vec(g, r)) for r in fan.rays),
                  fan.max_cones)
    found = [ci for ci in range(len(fan.max_cones))
             if cone_oracle_is_transitive(fan, ci)]
    assert [ci for ci in range(len(fan.max_cones))
            if fan.is_transitive(ci)] == found
    verdict = transitive_cones(fan)
    assert list(verdict.transitive_cone_indices) == found
    if found:
        n = fan.rank
        assert [mat_vec(verdict.basis_change, r)
                for r in cone_rays(fan, found[0])] == [
            tuple(-int(j == i) for j in range(n)) for i in range(n)]
    else:
        assert verdict.basis_change is None


# --- cone inverses: `validate_fan` walks them across shared facets


def cone_facets_by_adjugate(fan, ci):
    """`Fan.cone_facets` as it was before the walk: the cone's own adjugate,
    negated when d < 0."""
    d, adj = adjugate(columns_matrix(tuple(fan.rays[i]
                                           for i in fan.max_cones[ci])))
    return d, adj if d >= 0 else tuple(map(vec_neg, adj))


def validate_per_cone(fan):
    """`validate_fan` with every cone inverse from its own adjugate."""
    with mock.patch.object(lattice, "_walk_cone_facets"):
        return validate_fan(Fan(fan.rank, fan.rays, fan.max_cones))


# a duplicated cone; a degenerate cone (rays 0 and 1 are opposite) that the
# walk reaches from cone 0; a cone (2, 3) that only a degenerate neighbour
# touches
DUPLICATED_CONE_FAN = Fan(2, P123_FAN.rays,
                          P123_FAN.max_cones + P123_FAN.max_cones[1:2])
DEGENERATE_CONE_FAN = Fan(2, ((1, 0), (-1, 0), (0, 1), (0, -1)),
                          ((0, 2), (0, 1), (1, 2), (1, 3), (0, 3)))
BEHIND_DEGENERATE_FAN = Fan(2, ((1, 0), (0, 1), (0, -1), (-1, 0)),
                            ((0, 1), (1, 2), (2, 3)))
# P(1, 1, 2) x P^1: from cone 0 to the cone with ray 2 in place of ray 0,
# y = (-2, -1, 0), so row 2 is only rescaled, by |y_0| / |d| = 2
WEIGHTED_PRODUCT_FAN = Fan(3, ((1, 0, 0), (0, 1, 0), (-2, -1, 0), (0, 0, 1),
                               (0, 0, -1)),
                           tuple((i, j, w) for i, j in ((0, 1), (1, 2), (0, 2))
                                 for w in (3, 4)))
CONE_INVERSE_FANS = SYMMETRY_FANS + (
    DUPLICATED_CONE_FAN, DEGENERATE_CONE_FAN,
    BEHIND_DEGENERATE_FAN, WEIGHTED_PRODUCT_FAN) + tuple(map(example_fan, (
        "pn:1", "pn:4", "p1n:1", "p1n:4", "box:1x2x3", "simplex:3:2",
        "trapezoid:2:1")))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(CONE_INVERSE_FANS), st.integers(0, 2**32 - 1),
       st.booleans(), st.booleans())
def test_walked_cone_inverses_match_the_adjugates(fan, seed, moved, relabel):
    rng = random.Random(seed)
    if moved:
        g = unimodular_matrix(fan.rank, rng)
        fan = Fan(fan.rank, tuple(tuple(mat_vec(g, r)) for r in fan.rays),
                  fan.max_cones)
    if relabel:
        fan = relabelled(fan, rng)
    report = validate_fan(fan)
    assert report == validate_per_cone(fan)
    # every cone is known once validate_fan returns, as exact integers
    known = dict(fan._cone_facets)
    assert known == {ci: cone_facets_by_adjugate(fan, ci)
                     for ci in range(len(fan.max_cones))}
    assert all(type(x) is int for d, m in known.values()
               for x in (d, *itertools.chain.from_iterable(m or ())))


def test_the_walk_needs_one_adjugate_per_unreached_cone():
    def adjugates(fan):
        with mock.patch.object(lattice, "adjugate", wraps=adjugate) as spy:
            validate_fan(Fan(fan.rank, fan.rays, fan.max_cones))
        return spy.call_count

    # cone 0 only, on a complete fan and past a duplicated cone
    assert adjugates(p1_power_fan(5)) == 1
    assert adjugates(DUPLICATED_CONE_FAN) == 1
    # the walk stops at the degenerate cone (1, 2): cone (2, 3) falls back
    assert adjugates(BEHIND_DEGENERATE_FAN) == 2
    assert [BEHIND_DEGENERATE_FAN.cone_facets(ci)[0] for ci in range(3)] == [
        1, 0, -1]
    assert validate_fan(DEGENERATE_CONE_FAN).failures == (
        "maximal cone 1 is degenerate",)
