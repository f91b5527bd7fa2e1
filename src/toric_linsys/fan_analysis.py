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
from math import factorial
from operator import itemgetter

from . import lattice
from .lattice import (
    Fan,
    LatticePolytope,
    is_smooth_vertex,
    lattice_points,
    vertex_neighbors,
)
from .linalg import (
    mat_mul,
    mat_vec,
    solve_in_span,
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


def transitive_cones(f: Fan) -> TransitivityVerdict:
    """Every maximal cone that is smooth with all other rays inside its negative.

    An empty index list means the fan is not quasi-transitive. When nonempty,
    the fan is normalized at the first listed cone.
    """
    _require_valid(f)
    found = [ci for ci in range(len(f.max_cones)) if f.is_transitive(ci)]
    if not found:
        return TransitivityVerdict((), None, None, None)

    sigma = f.max_cones[found[0]]
    # |d| = 1, so -m is minus the inverse of sigma's ray matrix: ray_i -> -e_i
    basis_change = tuple(map(vec_neg, f.cone_facets(found[0])[1]))
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

    contains_polytope reports exactly whether the polytope lies in that hull:
    in the basis of the edges p_i - vertex it is conv(0, e_1, ..., e_n, 1),
    which holds y iff min(y) >= 0 and sum(y) - (n-1) min(y) <= 1. Certified
    only for n = 2; in higher rank the fan criterion stays authoritative.
    """
    n = p.dim
    v = tuple(Fraction(x) for x in vertex)
    if v not in p.incidence:
        raise ValueError("not a vertex of the polytope")
    p.require_full_dimensional()
    neighbors = vertex_neighbors(p, v)
    if not is_smooth_vertex(v, neighbors):
        raise ValueError("capsule undefined at non-smooth vertex")
    edges = [vec_sub(w, v) for w in neighbors]
    reflection = tuple(sum(w[i] for w in neighbors) - (n - 1) * v[i]
                       for i in range(n))
    capsule = (v,) + tuple(neighbors) + (reflection,)
    ys = (solve_in_span(edges, vec_sub(w, v)) for w in p.vertices)
    contains = all(min(y) >= 0 and sum(y) - (n - 1) * min(y) <= 1 for y in ys)
    return CapsuleResult(v, capsule, contains, certified=(n == 2))


@dataclass(frozen=True)
class DemazureRoot:
    """Lattice functional m with <m, ray_i> = -1 and <m, ray_j> >= 0 else."""

    m: tuple
    ray_index: int


def demazure_roots(f: Fan):
    """All Demazure roots of a valid (hence complete) fan, grouped by ray,
    each ray's roots in lex order: the lattice points of its root region
    {m : <m, rho> = -1, <m, r> >= 0 for every other ray r}.

    Each region lies on the hyperplane <m, rho> = -1 of its ray rho, so it
    is enumerated in n - 1 coordinates. Take k with the smallest nonzero
    |rho_k| (lowest index on ties) and a = rho_k; then m_k = (-1 - sum_{j !=
    k} rho_j m_j) / a, and each row <m, r> >= 0 of another ray r, times |a|
    to stay integral, becomes sign(a) sum_{j != k} (r_k rho_j - a r_j) m_j
    <= -sign(a) r_k. A lattice point t of that (n - 1)-dimensional polytope
    is a root iff a divides its numerator -1 - sum rho_j t_j (always when
    |a| = 1). The rays of a complete fan positively span R^n, so no nonzero
    direction has <d, r> >= 0 for every ray: the region and its projection
    are bounded. Putting m_k back breaks the lex order of t, so each ray's
    roots are sorted again.
    """
    _require_valid(f)
    n = f.rank
    roots = []
    for i, rho in enumerate(f.rays):
        k = min((j for j in range(n) if rho[j]), key=lambda j: abs(rho[j]))
        a = rho[k]
        s = 1 if a > 0 else -1
        rest = [j for j in range(n) if j != k]
        others = f.rays[:i] + f.rays[i + 1:]
        projected = LatticePolytope(
            tuple(tuple(s * (r[k] * rho[j] - a * r[j]) for j in rest)
                  for r in others),
            tuple(-s * r[k] for r in others))
        found = []
        for t in lattice_points(projected):
            mk, rem = divmod(-1 - sum(rho[j] * x for j, x in zip(rest, t)), a)
            if not rem:
                found.append((*t[:k], mk, *t[k:]))
        roots.extend(DemazureRoot(m, i) for m in sorted(found))
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
    units = {tuple(int(t == j) for t in range(k)): j for j in range(k)}
    for i in range(r):
        j = units.get(tuple(row[i] for row in q))
        if j is not None:
            i_sets[j].add(i)
        else:
            assert i < n, "identity block columns always match a basis vector"
            leftover.add(i)
    return tuple(frozenset(s) for s in i_sets), frozenset(leftover)


def fan_symmetries(f: Fan):
    """All unimodular maps permuting the rays and the maximal cones.

    A symmetry is fixed by where it sends the rays of cone 0 (the first
    maximal cone), in order, so each candidate is an ordering sigma of a
    maximal cone T: position j of cone 0 goes to position sigma[j] of T. It
    is checked in T's own coordinates, with (d_T, m_T) = `Fan.cone_facets`:
    its inverse sends ray s to the point whose cone-0 coordinates m_0 r are
    m_T s permuted by sigma, times |d_0| / |d_T|. A unimodular map keeps
    |d|, so T is skipped when |d_T| != |d_0|; otherwise the ray and cone
    checks are lookups, and the inverse permutes the rays and the cones iff
    the candidate does. Only an accepted candidate gets its matrix, which
    must be integral; an integral map that permutes rays spanning R^n maps
    their lattice onto itself, so it is unimodular.

    All orderings of cone 0 are checked: the accepted maps form its
    stabiliser H. Every other T is checked until one map g_T is accepted (T
    is skipped if none is), and the symmetries sending cone 0 onto T are
    the coset g_T H, built as products with no check. ValueError is raised
    before the fan is validated when |max cones| * n! candidates exceed
    POINT_BUDGET, and before any product is built when the |H| * (1 +
    |cosets|) maps returned hold more than POINT_BUDGET entries.
    """
    n = f.rank
    candidates = len(f.max_cones) * factorial(n)
    if candidates > lattice.POINT_BUDGET:
        raise ValueError(f"{candidates} candidate maps exceed the "
                         f"enumeration budget of {lattice.POINT_BUDGET}")
    _require_valid(f)
    cone_sets = set(map(frozenset, f.max_cones))
    d, m = f.cone_facets(0)
    d = abs(d)
    ray_at = {mat_vec(m, r): i for i, r in enumerate(f.rays)}
    # outer[k][r]: ray r times row k of m, row-major; the map sending ray j
    # of cone 0 to ray perm[j] is the sum of outer[k][perm[k]] over k, / |d|
    outer = [[tuple(x * y for x in r for y in row) for r in f.rays]
             for row in m]

    def matrix(perm):
        # the map sending ray j of cone 0 to ray perm[j], or None when it is
        # not integral
        flat = tuple(map(sum, zip(*map(list.__getitem__, outer, perm))))
        if d > 1:
            if any(x % d for x in flat):
                return None
            flat = tuple(x // d for x in flat)
        return tuple(flat[i:i + n] for i in range(0, n * n, n))

    def accepted(ci):
        # every symmetry sending cone 0 onto cone ci, in the order of the
        # orderings of ci
        d_t, m_t = f.cone_facets(ci)
        if abs(d_t) != d:
            return
        cone = f.max_cones[ci]
        coords = [mat_vec(m_t, s) for s in f.rays]
        for sigma in itertools.permutations(range(n)):
            # itemgetter of one index is no tuple
            take = itemgetter(*sigma) if n > 1 else tuple
            images = list(map(ray_at.get, map(take, coords)))
            if None in images or not all(
                    frozenset(map(images.__getitem__, c)) in cone_sets
                    for c in f.max_cones):
                continue
            a = matrix([cone[j] for j in sigma])
            if a is not None:
                yield a

    stabiliser = list(accepted(0))
    firsts = (next(accepted(ci), None) for ci in range(1, len(f.max_cones)))
    cosets = [g for g in firsts if g is not None]
    entries = len(stabiliser) * (1 + len(cosets)) * n * n
    if entries > lattice.POINT_BUDGET:
        raise ValueError(f"{entries} symmetry matrix entries exceed the "
                         f"enumeration budget of {lattice.POINT_BUDGET}")
    # g_T h row by row: the g_T share few distinct rows, so each row . h is
    # computed once per h
    rows = tuple({row for g in cosets for row in g})
    out = list(stabiliser)
    for h in stabiliser:
        times_h = dict(zip(rows, mat_mul(rows, h)))
        out.extend(tuple(map(times_h.__getitem__, g)) for g in cosets)
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
