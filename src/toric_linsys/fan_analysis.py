"""Transitive invariant points, convex capsules, Demazure roots, symmetries.

A maximal cone sigma of a complete simplicial fan is called transitive when
it is smooth and every global ray outside sigma lies in -sigma; the
corresponding invariant point can then be moved into the dense torus by
automorphisms. Normalization maps a chosen transitive cone to
<-e_1, ..., -e_n>, after which all remaining rays have nonnegative entries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .lattice import (
    Fan,
    LatticePolytope,
    cone_contains,
    gl_change_of_basis,
    lattice_points,
    primitivize,
    vertex_neighbors,
)
from .linalg import (
    adjugate,
    affine_rank,
    columns_matrix,
    det,
    mat_mul,
    mat_vec,
    point_in_hull,
    vec_neg,
    vec_sub,
)


@dataclass(frozen=True)
class TransitivityVerdict:
    """Which maximal cones are transitive, plus the normalization data.

    ray_order maps positions in the normalized fan back to the input fan
    (normalized ray i is basis_change applied to input ray ray_order[i]).
    """

    transitive_cone_indices: tuple
    normalized_fan: Fan | None
    basis_change: tuple | None
    ray_order: tuple | None

    def __bool__(self):
        return bool(self.transitive_cone_indices)


def _require_valid(f: Fan):
    rep = f.validation
    if not rep.valid:
        raise ValueError(f"invalid fan: {rep.first_failure}")
    return rep


def transitive_cones(f: Fan) -> TransitivityVerdict:
    """Every maximal cone that is smooth with all other rays inside its negative.

    An empty index list means the fan is not quasi-transitive. When nonempty,
    the fan is normalized at the first listed cone.
    """
    rep = _require_valid(f)
    found = []
    for ci, idx in enumerate(f.max_cones):
        if not rep.cone_smooth[ci]:
            continue
        neg = f.cone(ci).negated()
        outside = [f.rays[i] for i in range(len(f.rays)) if i not in idx]
        if all(cone_contains(neg, r) for r in outside):
            found.append(ci)
    if not found:
        return TransitivityVerdict((), None, None, None)

    sigma = f.max_cones[found[0]]
    basis_change = gl_change_of_basis(f.cone(found[0]))
    order = tuple(sigma) + tuple(i for i in range(len(f.rays)) if i not in sigma)
    position = {old: new for new, old in enumerate(order)}
    new_rays = tuple(tuple(mat_vec(basis_change, f.rays[old])) for old in order)
    new_cones = tuple(tuple(sorted(position[i] for i in c)) for c in f.max_cones)
    normalized = Fan(f.rank, new_rays, new_cones)
    n = f.rank
    assert all(all(x >= 0 for x in r) for r in new_rays[n:]), \
        "normalized rays outside the transitive cone must be nonnegative"
    return TransitivityVerdict(tuple(found), normalized, basis_change, order)


@dataclass(frozen=True)
class CapsuleResult:
    vertex: tuple
    capsule_vertices: tuple
    contains_polytope: bool
    certified: bool


def vertex_capsule(p: LatticePolytope, vertex) -> CapsuleResult:
    """Capsule test at a smooth vertex: conv of the vertex, its edge
    neighbors p_1..p_n and the reflection point sum(p_i) - (n-1) vertex.

    contains_polytope reports whether the polytope lies inside that hull
    (exact LP). Certified only for n = 2; in higher rank the fan criterion
    stays authoritative.
    """
    n = p.dim
    verts = p.vertices
    v = tuple(Fraction(x) for x in vertex)
    if v not in verts:
        raise ValueError("not a vertex of the polytope")
    if affine_rank(verts) != n:
        raise ValueError("polytope is not full-dimensional")
    neighbors = vertex_neighbors(p)[v]
    if len(neighbors) != n:
        raise ValueError("capsule undefined at non-smooth vertex")
    dirs = []
    for w in neighbors:
        diff = vec_sub(w, v)
        denom = lcm(*(x.denominator for x in diff)) if diff else 1
        dirs.append(primitivize(tuple(int(x * denom) for x in diff)))
    if abs(det(columns_matrix(dirs))) != 1:
        raise ValueError("capsule undefined at non-smooth vertex")
    reflection = tuple(sum(w[i] for w in neighbors) - (n - 1) * v[i]
                       for i in range(n))
    capsule = (v,) + tuple(neighbors) + (reflection,)
    contains = all(point_in_hull(capsule, w) for w in verts)
    return CapsuleResult(v, capsule, contains, certified=(n == 2))


@dataclass(frozen=True)
class DemazureRoot:
    """Lattice functional m with <m, ray_i> = -1 and <m, ray_j> >= 0 else."""

    m: tuple
    ray_index: int


def root_region(f: Fan, ray_index: int) -> LatticePolytope:
    """The polytope of candidate roots of one ray (equality as two bounds)."""
    normals = [f.rays[ray_index], vec_neg(f.rays[ray_index])]
    offsets = [-1, 1]
    for j, r in enumerate(f.rays):
        if j != ray_index:
            normals.append(vec_neg(r))
            offsets.append(0)
    return LatticePolytope(tuple(normals), tuple(offsets))


def demazure_roots(f: Fan):
    """All Demazure roots of a complete fan, grouped by ray, lex order."""
    rep = f.validation
    if not rep.complete:
        raise ValueError("root polytope may be unbounded")
    if not rep.valid:
        raise ValueError(f"invalid fan: {rep.first_failure}")
    roots = []
    for i in range(len(f.rays)):
        for m in lattice_points(root_region(f, i)):
            roots.append(DemazureRoot(tuple(m), i))
    return tuple(roots)


def roots_outside_sigma_check(verdict: TransitivityVerdict, roots) -> bool:
    """On the normalized fan: every root of a ray outside the transitive cone
    must be -e_i for some i < n."""
    if not verdict:
        raise ValueError("verdict is empty")
    n = verdict.normalized_fan.rank
    allowed = {tuple(-1 if j == i else 0 for j in range(n)) for i in range(n)}
    return all(root.m in allowed for root in roots if root.ray_index >= n)


def ray_index_partition(cp):
    """Partition of ray indices by the columns of the grading matrix.

    I_sets[j] collects the indices whose column equals the j-th standard
    basis vector; I collects the first-block indices matching no basis
    vector. Every index lands in exactly one set.
    """
    q = cp.grading_matrix
    n = cp.fan.rank
    r = len(cp.fan.rays)
    k = r - n
    i_sets = [set() for _ in range(k)]
    leftover = set()
    for i in range(r):
        col = tuple(q[j][i] for j in range(k))
        j = _basis_index(col)
        if j is not None:
            i_sets[j].add(i)
        else:
            assert i < n, "identity block columns always match a basis vector"
            leftover.add(i)
    return tuple(frozenset(s) for s in i_sets), frozenset(leftover)


def _basis_index(col):
    j = None
    for idx, x in enumerate(col):
        if x == 1 and j is None:
            j = idx
        elif x != 0:
            return None
    return j


def fan_symmetries(f: Fan):
    """All unimodular maps permuting the rays and the maximal cones.

    Anchored search: the image of the first maximal cone determines the
    candidate map, the rest is filtering.
    """
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


@dataclass(frozen=True)
class P1PowerResult:
    n: int
    pairing: tuple
    cone_indices: tuple


def detect_p1_power(f: Fan):
    """Two transitive cones with disjoint rays identify the fan with the
    n-fold product of lines; returns the pairing of antipodal rays or None."""
    verdict = transitive_cones(f)
    for a, b in itertools.combinations(verdict.transitive_cone_indices, 2):
        ca, cb = f.max_cones[a], f.max_cones[b]
        if set(ca) & set(cb):
            continue
        rays_a = {f.rays[i]: i for i in ca}
        rays_b = {f.rays[i]: i for i in cb}
        assert len(f.rays) == 2 * f.rank, "disjoint transitive cones force 2n rays"
        assert all(vec_neg(r) in rays_b for r in rays_a), \
            "disjoint transitive cones must be antipodal"
        pairing = tuple(sorted((i, rays_b[vec_neg(f.rays[i])]) for i in ca))
        return P1PowerResult(f.rank, pairing, (a, b))
    return None
