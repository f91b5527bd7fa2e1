"""Exact lattice geometry: cones, fans and lattice polytopes.

Conventions: vectors are tuples of ints (Fractions only where a result is
genuinely rational, e.g. polytope vertices). A polytope is stored by its
H-representation, one inequality <m, normal> <= offset per row. Ray order in
a fan is the canonical input order and every downstream index convention
follows it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from functools import cached_property
from math import ceil, floor

from .linalg import (
    OPTIMAL,
    UNBOUNDED,
    adjugate,
    affine_rank,
    columns_matrix,
    det,
    dot,
    lp_solve,
    mat_vec,
    rank as matrix_rank,
    solve_in_span,
    solve_unique,
    vec_gcd,
    vec_neg,
)


def primitivize(v):
    """Divide an integer vector by the gcd of its entries."""
    g = vec_gcd(v)
    if g == 0:
        raise ValueError("zero ray")
    return tuple(x // g for x in v)


def _as_int_vector(v):
    out = []
    for x in v:
        f = Fraction(x)
        if f.denominator != 1:
            raise ValueError("integer vector expected")
        out.append(f.numerator)
    return tuple(out)


@dataclass(frozen=True)
class Cone:
    """Pointed simplicial cone spanned by primitive, independent rays."""

    rays: tuple
    ambient_rank: int

    def __post_init__(self):
        rays = tuple(tuple(r) for r in self.rays)
        object.__setattr__(self, "rays", rays)
        if not rays:
            raise ValueError("cone needs at least one ray")
        for r in rays:
            if len(r) != self.ambient_rank:
                raise ValueError("ray length does not match ambient rank")
            if vec_gcd(r) == 0:
                raise ValueError("zero ray")
            if primitivize(r) != r:
                raise ValueError("non-primitive ray")
        if matrix_rank(rays) != len(rays):
            raise ValueError("rays are linearly dependent")

    def negated(self):
        return Cone(tuple(vec_neg(r) for r in self.rays), self.ambient_rank)


def cone_is_smooth(c: Cone) -> bool:
    """True iff the ray matrix is unimodular (determinant +-1)."""
    if len(c.rays) != c.ambient_rank:
        raise ValueError("not full-dimensional")
    return abs(det(columns_matrix(c.rays))) == 1


def cone_contains(c: Cone, v) -> bool:
    """Exact membership: v is a nonnegative rational combination of rays."""
    coeffs = solve_in_span(c.rays, v)
    return coeffs is not None and all(x >= 0 for x in coeffs)


def gl_change_of_basis(src: Cone):
    """Unimodular A with A . ray_i = -e_i for the cone's ray order."""
    if len(src.rays) != src.ambient_rank:
        raise ValueError("not full-dimensional")
    d, adj = adjugate(columns_matrix(src.rays))
    if abs(d) != 1:
        raise ValueError("no unimodular normalization")
    # the inverse is adj / d = d * adj
    return tuple(tuple(-d * x for x in row) for row in adj)


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    simplicial: bool
    complete: bool
    smooth: bool
    cone_smooth: tuple
    failures: tuple

    @property
    def first_failure(self):
        return self.failures[0] if self.failures else None


@dataclass(frozen=True)
class Fan:
    """Pure simplicial fan: global primitive rays plus maximal cone index sets."""

    rank: int
    rays: tuple
    max_cones: tuple

    def __post_init__(self):
        rays = tuple(tuple(int(x) for x in r) for r in self.rays)
        cones = tuple(tuple(sorted(int(i) for i in c)) for c in self.max_cones)
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "max_cones", cones)
        if self.rank < 1:
            raise ValueError("rank must be positive")
        for r in rays:
            if len(r) != self.rank:
                raise ValueError("ray length does not match rank")
        for c in cones:
            if len(c) != self.rank:
                raise ValueError("maximal cone must have exactly rank rays")
            if len(set(c)) != len(c):
                raise ValueError("repeated ray in maximal cone")
            if any(i < 0 or i >= len(rays) for i in c):
                raise ValueError("ray index out of range")
        if not cones:
            raise ValueError("fan needs at least one maximal cone")

    def cone(self, ci: int) -> Cone:
        return Cone(tuple(self.rays[i] for i in self.max_cones[ci]), self.rank)

    @cached_property
    def validation(self) -> ValidationReport:
        return validate_fan(self)


def _cone_location_data(fan, adjugates):
    """Per maximal cone: (M, gens) with x interior to the cone <=> M x > 0,
    from the (det, adjugate) pair of each cone's ray matrix."""
    data = []
    for c, (d, adj) in zip(fan.max_cones, adjugates):
        gens = tuple(fan.rays[i] for i in c)
        if d < 0:
            adj = tuple(tuple(-x for x in row) for row in adj)
        data.append((adj, gens))
    return data


def _interiors_disjoint(a, b, n):
    """Exact: do two full-dimensional simplicial cones have disjoint interiors?"""
    loc1, gens1 = a
    loc2, gens2 = b
    # cheap pass: a facet hyperplane of one cone separating the other.
    for ma, gb in ((loc1, gens2), (loc2, gens1)):
        for row in ma:
            # cone a lies in row.x >= 0; separated if cone b is in row.x <= 0.
            if all(dot(row, g) <= 0 for g in gb):
                return True
    # cheap pass: the barycenter of one cone interior to the other.
    for ga, mb in ((gens1, loc2), (gens2, loc1)):
        bary = tuple(sum(col) for col in zip(*ga))
        if all(x > 0 for x in mat_vec(mb, bary)):
            return False
    # exact LP fallback: x = sum lam_j gens1_j with lam >= 1 and loc2 x >= 1;
    # substituting lam = 1 + z, z >= 0 gives -B z <= B.1 - 1.
    bmat = [[dot(row, g) for g in gens1] for row in loc2]
    ineqs = [(tuple(-x for x in row), sum(row) - 1) for row in bmat]
    res = lp_solve(n, None, ineqs, nonneg=True)
    return res.status != OPTIMAL


def validate_fan(f: Fan, samples: int = 128, seed: int = 0) -> ValidationReport:
    """Check the fan invariants; the report carries failures instead of raising.

    Completeness is decided by facet pairing (every codimension-one face of a
    maximal cone shared by exactly two) plus a seeded random point-location
    sanity check; interiors of distinct maximal cones must be disjoint.
    """
    failures = []
    n = f.rank
    seen = {}
    for i, r in enumerate(f.rays):
        if vec_gcd(r) == 0:
            failures.append(f"ray {i} is zero")
        elif primitivize(r) != r:
            failures.append(f"ray {i} is not primitive")
        elif r in seen:
            failures.append(f"ray {i} duplicates ray {seen[r]}")
        else:
            seen[r] = i
    used = set(itertools.chain.from_iterable(f.max_cones))
    for i in range(len(f.rays)):
        if i not in used:
            failures.append(f"ray {i} not used by any maximal cone")

    cone_smooth = []
    simplicial = True
    if not failures:
        adjugates = [adjugate(columns_matrix(tuple(f.rays[i] for i in c)))
                     for c in f.max_cones]
        for ci, (d, _adj) in enumerate(adjugates):
            if d == 0:
                failures.append(f"maximal cone {ci} is degenerate")
                simplicial = False
                cone_smooth.append(False)
            else:
                cone_smooth.append(abs(d) == 1)

    complete = False
    if not failures:
        loc = _cone_location_data(f, adjugates)
        for a, b in itertools.combinations(range(len(f.max_cones)), 2):
            if not _interiors_disjoint(loc[a], loc[b], n):
                failures.append(f"maximal cones {a} and {b} overlap")
                break
        if not failures:
            facets = {}
            for c in f.max_cones:
                for facet in itertools.combinations(c, n - 1):
                    facets[facet] = facets.get(facet, 0) + 1
            bad = [fc for fc, cnt in facets.items() if cnt != 2]
            if bad:
                failures.append(f"facet {bad[0]} shared by {facets[bad[0]]} cones")
            else:
                complete = True
        if complete and samples > 0:
            rng = random.Random(seed)
            for _ in range(samples):
                hit = None
                for _retry in range(64):
                    v = tuple(rng.randint(-10**6, 10**6) for _ in range(n))
                    if all(x == 0 for x in v):
                        continue
                    counts = 0
                    boundary = False
                    for m, _gens in loc:
                        w = mat_vec(m, v)
                        if any(x == 0 for x in w):
                            boundary = True
                            break
                        if all(x > 0 for x in w):
                            counts += 1
                    if boundary:
                        continue
                    hit = counts
                    break
                if hit != 1:
                    failures.append(
                        f"point location found {hit} containing cones")
                    complete = False
                    break

    smooth = bool(cone_smooth) and all(cone_smooth)
    return ValidationReport(
        valid=not failures,
        simplicial=simplicial and not failures,
        complete=complete,
        smooth=smooth,
        cone_smooth=tuple(cone_smooth),
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# Lattice polytopes


@dataclass(frozen=True)
class LatticePolytope:
    """Rational polytope {m : <m, normal_i> <= offset_i} with integer data."""

    normals: tuple
    offsets: tuple

    def __post_init__(self):
        normals = tuple(_as_int_vector(nv) for nv in self.normals)
        offsets = tuple(int(o) for o in self.offsets)
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "offsets", offsets)
        if not normals:
            raise ValueError("polytope needs at least one inequality")
        if len(normals) != len(offsets):
            raise ValueError("normals and offsets differ in length")
        d = len(normals[0])
        if any(len(nv) != d for nv in normals):
            raise ValueError("inconsistent normal lengths")

    @property
    def dim(self) -> int:
        return len(self.normals[0])

    def contains(self, m) -> bool:
        return all(dot(nv, m) <= off
                   for nv, off in zip(self.normals, self.offsets))

    @cached_property
    def vertices(self):
        """All vertices, exact rational coordinates, lexicographically sorted."""
        n = self.dim
        out = {}
        rows = list(zip(self.normals, self.offsets))
        for combo in itertools.combinations(range(len(rows)), n):
            sub = [rows[i][0] for i in combo]
            rhs = [rows[i][1] for i in combo]
            x = solve_unique(sub, rhs)
            if x is None:
                continue
            if self.contains(x):
                out[x] = None
        return tuple(sorted(out))

    def bounding_box(self):
        """Exact integer bounding box (lo, hi), or None when empty.

        Orthant down-sets get a closed form: every normal is -e_i (any
        offset) or entrywise nonnegative, and every axis has a -e_i row and
        a row with a positive entry on it. Then lo_i is the largest -offset
        over the -e_i rows, the polytope is empty iff lo violates a
        nonnegative row, and hi_i = lo_i + min floor((offset - normal.lo) /
        normal_i) over the rows with normal_i > 0. This is the LP optimum:
        raising any other coordinate above lo only tightens the nonnegative
        rows. Every other polytope goes through the exact simplex.

        Raises ValueError("unbounded polyhedron") when some direction is
        unbounded.
        """
        n = self.dim
        lo = [None] * n
        upper = []
        for nv, off in zip(self.normals, self.offsets):
            if min(nv, default=0) >= 0:
                upper.append((nv, off))
            elif sorted(nv) == [-1] + [0] * (n - 1):
                i = nv.index(-1)
                lo[i] = -off if lo[i] is None else max(lo[i], -off)
            else:
                return self._lp_bounding_box()
        if None in lo or not all(any(nv[i] for nv, _ in upper)
                                 for i in range(n)):
            return self._lp_bounding_box()
        lo = tuple(lo)
        slack = [off - dot(nv, lo) for nv, off in upper]
        if min(slack) < 0:
            return None
        hi = tuple(lo[i] + min(s // nv[i] for (nv, _), s in zip(upper, slack)
                               if nv[i] > 0)
                   for i in range(n))
        return lo, hi

    def _lp_bounding_box(self):
        """Bounding box by 2 * dim exact simplex LPs, for any polytope."""
        n = self.dim
        ineqs = list(zip(self.normals, self.offsets))
        lo, hi = [], []
        for i in range(n):
            c = tuple(1 if j == i else 0 for j in range(n))
            top = lp_solve(n, c, ineqs, maximize=True)
            if top.status == UNBOUNDED:
                raise ValueError("unbounded polyhedron")
            if top.status != OPTIMAL:
                return None
            bot = lp_solve(n, c, ineqs, maximize=False)
            if bot.status == UNBOUNDED:
                raise ValueError("unbounded polyhedron")
            hi.append(floor(top.value))
            lo.append(ceil(bot.value))
        return tuple(lo), tuple(hi)

    def translate(self, t):
        """The polytope {m + t : m in self} for an integer vector t."""
        t = _as_int_vector(t)
        return LatticePolytope(
            self.normals,
            tuple(off + dot(nv, t) for nv, off in zip(self.normals, self.offsets)),
        )

    def with_inequality(self, normal, offset):
        return LatticePolytope(self.normals + (tuple(normal),),
                               self.offsets + (int(offset),))


def lattice_points(p: LatticePolytope):
    """All integer points of a bounded polytope, lexicographic order."""
    box = p.bounding_box()
    if box is None:
        return []
    lo, hi = box
    ranges = [range(a, b + 1) for a, b in zip(lo, hi)]
    return [m for m in itertools.product(*ranges) if p.contains(m)]


def polytope_vertex_tight_sets(p: LatticePolytope):
    """For each vertex, the set of inequality indices tight at it."""
    out = []
    for v in p.vertices:
        tight = frozenset(
            i for i, (nv, off) in enumerate(zip(p.normals, p.offsets))
            if dot(nv, v) == off)
        out.append(tight)
    return out


def vertex_neighbors(p: LatticePolytope):
    """Adjacency among vertices: w is a neighbor of v when the smallest face
    containing both is one-dimensional."""
    verts = p.vertices
    tight = polytope_vertex_tight_sets(p)
    nbrs = {v: [] for v in verts}
    for a, b in itertools.combinations(range(len(verts)), 2):
        common = tight[a] & tight[b]
        members = [i for i, t in enumerate(tight) if common <= t]
        if members == sorted([a, b]):
            nbrs[verts[a]].append(verts[b])
            nbrs[verts[b]].append(verts[a])
    return nbrs


def normal_fan(p: LatticePolytope):
    """Outer-normal fan of a full-dimensional simple polytope.

    Returns (fan, vertices): maximal cone j is spanned by the primitive outer
    facet normals at vertices[j].
    """
    verts = p.vertices
    n = p.dim
    if affine_rank(verts) != n:
        raise ValueError("not full-dimensional")
    p.bounding_box()  # raises when unbounded
    tight = polytope_vertex_tight_sets(p)
    ray_index = {}
    rays = []
    facet_ray = {}
    for i, nv in enumerate(p.normals):
        touching = [vi for vi, t in enumerate(tight) if i in t]
        if not touching:
            continue
        if affine_rank([verts[vi] for vi in touching]) != n - 1:
            continue  # lower-dimensional or redundant contact
        prim = primitivize(nv)
        if prim not in ray_index:
            ray_index[prim] = len(rays)
            rays.append(prim)
        facet_ray[i] = ray_index[prim]
    cones = []
    for vi, t in enumerate(tight):
        cone = sorted({facet_ray[i] for i in t if i in facet_ray})
        if len(cone) != n:
            raise ValueError("vertex is not simple")
        cones.append(tuple(cone))
    return Fan(n, tuple(rays), tuple(cones)), verts


# ---------------------------------------------------------------------------
# JSON wire formats


def jsonable(x):
    """Recursively convert reports to plain JSON values; Fractions become
    'p/q' strings, exact integers stay integers."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, (int, str)) or x is None:
        return x
    if isinstance(x, LatticePolytope):
        return polytope_to_json(x)
    if isinstance(x, Fan):
        return fan_to_json(x)
    if is_dataclass(x) and not isinstance(x, type):
        return {f.name: jsonable(getattr(x, f.name)) for f in fields(x)}
    if isinstance(x, (frozenset, set)):
        return sorted(jsonable(v) for v in x)
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    raise TypeError(f"cannot serialize {type(x)!r}")


def fan_to_json(f: Fan) -> dict:
    return {"rank": f.rank,
            "rays": [list(r) for r in f.rays],
            "max_cones": [list(c) for c in f.max_cones]}


def fan_from_json(obj) -> Fan:
    try:
        return Fan(int(obj["rank"]),
                   tuple(tuple(r) for r in obj["rays"]),
                   tuple(tuple(c) for c in obj["max_cones"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed fan object: {exc}") from exc


def polytope_to_json(p: LatticePolytope) -> dict:
    return {"normals": [list(nv) for nv in p.normals],
            "offsets": list(p.offsets)}


def polytope_from_json(obj) -> LatticePolytope:
    try:
        return LatticePolytope(tuple(tuple(nv) for nv in obj["normals"]),
                               tuple(obj["offsets"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed polytope object: {exc}") from exc
