"""Test-only references that no command or export of the package reaches.

`root_region` is the Demazure root region of one ray in all n coordinates,
the reference for `demazure_roots`' enumeration on the root hyperplane;
`affine_rank` is the reference for `LatticePolytope.require_full_dimensional`;
`all_vertex_neighbors` is the all-pairs reference for `vertex_neighbors`;
`random_smooth_polygon` draws seeded smooth polygons for the capsule and
acceptance tests; `cone_rays` lists a maximal cone's rays.
"""

import itertools
import random
from math import gcd

from toric_linsys.catalog import box_polytope, simplex_polytope
from toric_linsys.lattice import (
    Fan,
    LatticePolytope,
    is_smooth_vertex,
    primitivize,
    vertex_neighbors,
)
from toric_linsys.linalg import rank, vec_neg, vec_sub


def cone_rays(f: Fan, ci: int) -> tuple:
    """The rays of maximal cone ci, in the cone's order."""
    return tuple(f.rays[i] for i in f.max_cones[ci])


def root_region(f: Fan, ray_index: int) -> LatticePolytope:
    """The polytope of candidate roots of one ray (equality as two bounds)."""
    normals = [f.rays[ray_index], vec_neg(f.rays[ray_index])]
    offsets = [-1, 1]
    for j, r in enumerate(f.rays):
        if j != ray_index:
            normals.append(vec_neg(r))
            offsets.append(0)
    return LatticePolytope(tuple(normals), tuple(offsets))


def affine_rank(points):
    """Dimension of the affine hull of the given rational points."""
    if not points:
        return -1
    base = points[0]
    diffs = [vec_sub(p, base) for p in points[1:]]
    return rank(diffs) if diffs else 0


def all_vertex_neighbors(p: LatticePolytope):
    """Adjacency among all vertices at once: w is a neighbor of v when the
    smallest face containing both holds no other vertex, which on a bounded
    polytope makes it one-dimensional."""
    verts = p.vertices
    tight = list(p.incidence.values())
    nbrs = {v: [] for v in verts}
    for a, b in itertools.combinations(range(len(verts)), 2):
        common = tight[a] & tight[b]
        members = [i for i, t in enumerate(tight) if common <= t]
        if members == sorted([a, b]):
            nbrs[verts[a]].append(verts[b])
            nbrs[verts[b]].append(verts[a])
    return nbrs


# ---------------------------------------------------------------------------
# random smooth polygons: start from a box or a dilated triangle and make
# random smooth corner chops (each chop is a toric blow-up on the dual side).


def polygon_is_smooth(p: LatticePolytope) -> bool:
    """Every vertex is smooth and its edge vectors are integral."""
    def smooth_at(v, ws):
        return is_smooth_vertex(v, ws) and all(
            x.denominator == 1 for w in ws for x in vec_sub(w, v))

    return all(smooth_at(v, vertex_neighbors(p, v)) for v in p.vertices)


def _edge_length(v, w):
    dx = int(w[0] - v[0])
    dy = int(w[1] - v[1])
    return gcd(abs(dx), abs(dy))


def random_smooth_polygon(rng: random.Random) -> LatticePolytope:
    """Seeded random smooth lattice polygon (all vertices unimodular)."""
    if rng.random() < 0.5:
        poly = box_polytope((rng.randint(2, 5), rng.randint(2, 5)))
    else:
        poly = simplex_polytope(2, rng.randint(3, 6))
    for _ in range(rng.randint(0, 4)):
        chopped = _chop_random_corner(poly, rng)
        if chopped is not None:
            poly = chopped
    assert polygon_is_smooth(poly)
    return poly


def _chop_random_corner(p: LatticePolytope, rng: random.Random):
    verts = p.vertices
    candidates = []
    for vi, v in enumerate(verts):
        ws = vertex_neighbors(p, v)
        if len(ws) != 2:
            return None
        maxk = min(_edge_length(v, w) for w in ws) - 1
        if maxk >= 1:
            candidates.append((vi, maxk))
    if not candidates:
        return None
    vi, maxk = candidates[rng.randrange(len(candidates))]
    v = verts[vi]
    k = rng.randint(1, min(maxk, 2))
    nus = [primitivize(p.normals[i]) for i in sorted(p.incidence[v])]
    if len(nus) != 2:
        return None
    new_normal = tuple(a + b for a, b in zip(nus[0], nus[1]))
    vint = tuple(int(x) for x in v)
    offset = sum(a * b for a, b in zip(new_normal, vint)) - k
    return p.with_inequality(new_normal, offset)
