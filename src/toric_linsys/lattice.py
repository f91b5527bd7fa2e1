"""Exact lattice geometry: fans and lattice polytopes.

Conventions: vectors are tuples of ints (Fractions only where a result is
genuinely rational, e.g. polytope vertices). A polytope is stored by its
H-representation, one inequality <m, normal> <= offset per row. Ray order in
a fan is the canonical input order and every downstream index convention
follows it.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from functools import cached_property
from math import ceil, floor, gcd, lcm, prod

from .linalg import (
    adjugate,
    columns_matrix,
    det,
    dot,
    pivot_columns,
    vec_gcd,
    vec_neg,
    vec_sub,
)


# the largest enumeration: the cells of a bounding box that
# `LatticePolytope.points` scans, the derivative orders of one multiplicity
# or the candidate maps of `fan_symmetries`; a larger one is an input error
POINT_BUDGET = 10**7

NEGATIVE_EXPONENT = ("negative exponent in the monomial support; "
                     "the polytope is not in the first orthant")


def primitivize(v):
    """Divide an integer vector by the gcd of its entries."""
    g = vec_gcd(v)
    if g == 0:
        raise ValueError("zero ray")
    return tuple(x // g for x in v)


def _as_int_vector(v):
    out = []
    for x in v:
        if type(x) is not int:
            f = Fraction(x)
            if f.denominator != 1:
                raise ValueError("integer vector expected")
            x = f.numerator
        out.append(x)
    return tuple(out)


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
        rays = tuple(map(_as_int_vector, self.rays))
        cones = tuple(tuple(sorted(_as_int_vector(c))) for c in self.max_cones)
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "max_cones", cones)
        object.__setattr__(self, "_cone_facets", {})  # filled by cone_facets
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

    def cone_facets(self, ci: int):
        """(d, m) of maximal cone ci: d the determinant of its ray matrix and
        m its adjugate times sign(d), so the cone is {x : m x >= 0} and m /
        |d| is the inverse of the ray matrix. m is None when d == 0.
        `validate_fan` fills every cone it reaches from cone 0 by rank-one
        updates (`_neighbour_facets`); any other cone gets its `adjugate` on
        first use. Both routes give the same integers."""
        if ci not in self._cone_facets:
            d, adj = adjugate(columns_matrix(
                tuple(self.rays[i] for i in self.max_cones[ci])))
            self._cone_facets[ci] = d, adj if d >= 0 else tuple(map(vec_neg, adj))
        return self._cone_facets[ci]

    def is_transitive(self, ci: int) -> bool:
        """Maximal cone ci is smooth and every ray outside it lies in its
        negative: |d| = 1 and m r <= 0 for every such ray r."""
        d, m = self.cone_facets(ci)
        cone = self.max_cones[ci]
        return abs(d) == 1 and all(
            dot(row, r) <= 0 for i, r in enumerate(self.rays) if i not in cone
            for row in m)

    @cached_property
    def validation(self) -> ValidationReport:
        return validate_fan(self)


def validate_fan(f: Fan) -> ValidationReport:
    """Check the fan invariants; the report carries failures instead of raising.

    The cone inverses m of `Fan.cone_facets` come from one `adjugate`, of
    cone 0, and a walk across shared facets that gives each cone it reaches
    its inverse from a neighbour's by a rank-one update, with no further
    elimination. Completeness is decided exactly by sign tests with them:
    (1) the cones at a facet (n - 1 rays) lie on opposite sides of it, as
    the row of m vanishing on it tells; (2) every facet lies in exactly two
    maximal cones; (3) no later cone holds x, the sum of cone 0's rays. Let
    mu(y) count the cones whose interior holds y. Under (1)-(2) crossing a
    facet leaves mu unchanged, so mu is constant off the faces of dimension
    n - 2, a connected set for n >= 2; (3) makes mu = 1 near x, so mu = 1
    everywhere: the interiors are disjoint and cover R^n. Every overlap
    reported is a true one. For n = 1, (1)-(2) suffice: the only
    facet is the empty one and its two rays are +1 and -1.
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
        # facet -> [(cone, position k of its other ray)], in the order of
        # combinations(c, n - 1); row k of m vanishes on the facet
        facets = {}
        for ci, c in enumerate(f.max_cones):
            for k in reversed(range(n)):
                facets.setdefault(c[:k] + c[k + 1:], []).append((ci, k))
        _walk_cone_facets(f, facets)
        for ci in range(len(f.max_cones)):
            d = f.cone_facets(ci)[0]
            if d == 0:
                failures.append(f"maximal cone {ci} is degenerate")
                simplicial = False
            cone_smooth.append(abs(d) == 1)

    complete = False
    if not failures:
        overlaps = [(a, b) for at in facets.values()
                    for (a, ka), (b, kb) in itertools.combinations(at, 2)
                    if dot(f.cone_facets(a)[1][ka],
                           f.rays[f.max_cones[b][kb]]) > 0]
        bad = [fc for fc, at in facets.items() if len(at) != 2]
        if not overlaps and not bad:
            x = tuple(map(sum, zip(*(f.rays[i] for i in f.max_cones[0]))))
            overlaps = [(0, c) for c in range(1, len(f.max_cones)) if all(
                dot(row, x) >= 0 for row in f.cone_facets(c)[1])]
        if overlaps:
            failures.append("maximal cones %d and %d overlap" % min(overlaps))
        elif bad:
            failures.append(f"facet {bad[0]} shared by {len(facets[bad[0]])} cones")
        complete = not failures

    smooth = bool(cone_smooth) and all(cone_smooth)
    return ValidationReport(
        valid=not failures,
        simplicial=simplicial and not failures,
        complete=complete,
        smooth=smooth,
        cone_smooth=tuple(cone_smooth),
        failures=tuple(failures),
    )


def _neighbour_facets(d, m, k, ray, kj):
    """`Fan.cone_facets` of the cone that puts `ray` in place of position k
    of a cone with (d, m), d != 0, and holds it at position kj of its sorted
    rays: a rank-one update of the inverse (Sherman and Morrison, Ann. Math.
    Statist. 21, 1950). With y = m ray, d' = sign(d) y_k; row k of m' is
    sign(y_k) m_k and row i is (|y_k| m_i - sign(y_k) y_i m_k) / |d|, an
    exact division, as m' is an integer adjugate. Moving the new row from k
    to kj multiplies d' by (-1)^(k - kj). y_k = 0 means a degenerate cone."""
    y = [dot(row, ray) for row in m]
    yk = y[k]
    if not yk:
        return 0, None
    mk = m[k] if yk > 0 else vec_neg(m[k])
    a, ad = abs(yk), abs(d)
    # a row with y_i = 0 only scales by |y_k| / |d|, often 1
    rows = [mi if not yi and a == ad else
            tuple((a * x - yi * z) // ad for x, z in zip(mi, mk))
            for i, (mi, yi) in enumerate(zip(m, y)) if i != k]
    rows.insert(kj, mk)
    # sign(d), times -1 for an odd move of the new row
    s = (1 if d > 0 else -1) * (-1 if (k - kj) % 2 else 1)
    return s * yk, tuple(rows)


def _walk_cone_facets(f, facets):
    """Fill `Fan.cone_facets` outwards from cone 0, which gets its
    `adjugate`: each cone not yet known gets (d, m) from a known
    non-degenerate neighbour across a shared facet of `facets` (as built by
    `validate_fan`). A cone the walk does not reach is left to `adjugate`."""
    known = f._cone_facets
    f.cone_facets(0)
    todo = [0]
    for ci in todo:  # breadth first: todo grows as the loop runs
        d, m = known[ci]
        if m is None:
            continue
        c = f.max_cones[ci]
        for k in range(len(c)):
            for cj, kj in facets[c[:k] + c[k + 1:]]:
                if cj not in known:
                    known[cj] = _neighbour_facets(
                        d, m, k, f.rays[f.max_cones[cj][kj]], kj)
                    todo.append(cj)


# ---------------------------------------------------------------------------
# Lattice polytopes


def _echelon_walk(rows, n, size, leaf):
    """Call leaf(line) on each subset of `size` rows, of size + 1 columns,
    whose first n columns are independent: line spans the subset's kernel,
    with 1 in the column no pivot takes and the rest by integer back
    substitution. One depth-first walk in index order: each step reduces a
    row against its prefix's integer echelon of (pivot column, row) and
    divides out its gcd. A row whose first n entries reduce to zero ends
    its branch, as every superset is dependent."""
    def walk(start, echelon):
        if len(echelon) == size:
            line = [0] * (size + 1)
            line[size * (size + 1) // 2 - sum(col for col, _ in echelon)] = 1
            for col, row in reversed(echelon):
                line, line[col] = [x * row[col] for x in line], -dot(row, line)
            return leaf(line)
        # room for the size - len(echelon) rows still to come
        for i in range(start, len(rows) - size + len(echelon) + 1):
            row = rows[i]
            for col, piv in echelon:
                if f := row[col]:
                    row = [piv[col] * x - f * y for x, y in zip(row, piv)]
            col = next((j for j in range(n) if row[j]), None)
            if col is not None:
                g = gcd(*row)
                walk(i + 1, echelon + [(col, [x // g for x in row])])

    walk(0, [])


@dataclass(frozen=True)
class LatticePolytope:
    """Rational polytope {m : <m, normal_i> <= offset_i} with integer data."""

    normals: tuple
    offsets: tuple

    def __post_init__(self):
        normals = tuple(_as_int_vector(nv) for nv in self.normals)
        offsets = _as_int_vector(self.offsets)
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
    def incidence(self):
        """Vertex-facet incidence: each vertex, in exact rational coordinates
        and lexicographic order, mapped to the frozenset of the indices of
        the inequalities tight at it.

        Rows are stored as (normal, -offset), so the kernel line that
        `_echelon_walk` gives an independent n-subset is (num, den), the
        vertex num / den. Reduced by its gcd with den > 0 it is a key, so a
        vertex found twice is scanned once, and rows are tested as N.num <=
        offset * den: only accepted vertices become Fractions."""
        n = self.dim
        rows = [(*nv, -off) for nv, off in zip(self.normals, self.offsets)]
        seen = set()
        found = []

        def scan(line):
            g = gcd(*line) * (1 if line[n] > 0 else -1)
            key = tuple(x // g for x in line)
            if key in seen:
                return
            seen.add(key)
            slack = [-dot(row, key) for row in rows]
            if min(slack) >= 0:
                tight = frozenset(i for i, gap in enumerate(slack) if not gap)
                *num, den = key
                found.append((tuple(Fraction(x, den) for x in num), tight))

        _echelon_walk(rows, n, n, scan)
        # distinct keys give distinct vertices, so no tight sets are compared
        return dict(sorted(found))

    @cached_property
    def vertices(self):
        """All vertices, exact rational coordinates, lexicographically sorted."""
        return tuple(self.incidence)

    @cached_property
    def facets(self):
        """Facet rows, in row order, mapped to their primitive outer normals:
        on a bounded full-dimensional polytope, the nonzero rows whose tight
        vertex set is nonempty and strictly inside no other row's."""
        tight = self.incidence.values()
        faces = {i: frozenset(vi for vi, t in enumerate(tight) if i in t)
                 for i, nv in enumerate(self.normals) if any(nv)}
        return {i: primitivize(self.normals[i]) for i, face in faces.items()
                if face and not any(face < other for other in faces.values())}

    def _staircase(self):
        """(lo, rows >= 0) if each normal is -e_i or >= 0 and each axis has a
        -e_i row (lo_i: largest -offset) and a positive entry in a row >= 0."""
        n = self.dim
        lo, upper = {}, []
        for nv, off in zip(self.normals, self.offsets):
            if min(nv, default=0) >= 0:
                upper.append((nv, off))
            elif sorted(nv) == [-1] + [0] * (n - 1):
                i = nv.index(-1)
                lo[i] = max(lo.get(i, -off), -off)
            else:
                return None
        if len(lo) == n and all(any(nv[i] for nv, _ in upper) for i in range(n)):
            return tuple(lo[i] for i in range(n)), upper

    def bounding_box(self):
        """Exact integer bounding box (lo, hi), or None when empty.

        A staircase (`_staircase`) is empty iff lo violates a row >= 0, else
        hi_i = lo_i + min floor((offset - normal.lo) / normal_i) over the rows
        with normal_i > 0: other coordinates above lo only tighten them.

        Any other polytope gets the box of its vertices. With normals N of
        rank n it is empty iff it has no vertex, and unbounded iff N d <= 0
        for a d != 0 spanning the kernel of n - 1 rows (an extreme ray of the
        recession cone; Schrijver, Theory of Linear and Integer Programming,
        1986, ch. 8). Below rank n it is unbounded unless empty, and empty iff
        its slice on a column basis of N has no vertex. Unbounded, it raises
        ValueError("unbounded polyhedron")."""
        if not (stair := self._staircase()):
            return self._vertex_box()
        lo, upper = stair
        slack = [off - dot(nv, lo) for nv, off in upper]
        if min(slack) < 0:
            return None
        hi = tuple(lo[i] + min(s // nv[i] for (nv, _), s in zip(upper, slack)
                               if nv[i] > 0)
                   for i in range(self.dim))
        return lo, hi

    def _vertex_box(self):
        n = self.dim
        if not self.vertices:  # a vertex needs normals of rank n
            basis = pivot_columns(self.normals)
            if len(basis) == n or not LatticePolytope(
                    tuple(tuple(nv[j] for j in basis) for nv in self.normals),
                    self.offsets).vertices:
                return None
            raise ValueError("unbounded polyhedron")

        def recession(d):
            # d spans the kernel of n - 1 independent normals
            pos = neg = False
            for nv in self.normals:
                v = dot(nv, d)
                pos, neg = pos or v > 0, neg or v < 0
                if pos and neg:
                    return
            raise ValueError("unbounded polyhedron")

        _echelon_walk(self.normals, n, n - 1, recession)
        cols = tuple(zip(*self.vertices))
        return (tuple(ceil(min(c)) for c in cols),
                tuple(floor(max(c)) for c in cols))

    def require_full_dimensional(self):
        """Raise ValueError("unbounded polyhedron") if the polytope is
        unbounded, else ValueError("not full-dimensional") if it has no
        vertex or a nonzero row is tight at every vertex. A bounded polytope
        is the hull of its vertices, so the rows tight at every vertex are
        its implicit equalities, and its dimension is n minus their rank
        (Schrijver, Theory of Linear and Integer Programming, 1986, ch. 8).
        Unbounded, the vertices may span less: the wedge conv{0, e1, e2} +
        cone{(1, 1, 1), (1, 1, -1)} is full-dimensional."""
        self.bounding_box()
        tight = self.incidence.values()
        if not tight or any(any(self.normals[i])
                            for i in frozenset.intersection(*tight)):
            raise ValueError("not full-dimensional")

    def require_down_set(self):
        """Raise ValueError unless the lattice points are an orthant down-set
        (none negative, m - e_i one if m_i > 0), as a staircase at lo = 0 is."""
        if (stair := self._staircase()) and not any(stair[0]):
            return
        points = set(self.points)
        if any(x < 0 for m in points for x in m):
            raise ValueError(NEGATIVE_EXPONENT)
        for m in self.points:
            for i, x in enumerate(m):
                below = m[:i] + (x - 1,) + m[i + 1:]
                if x and below not in points:
                    raise ValueError("the support is not an orthant down-set: "
                                     f"it holds {m} but not {below}")

    @cached_property
    def points(self):
        """All integer points, lexicographically sorted, enumerated once per
        polytope over its bounding box. A box of more than POINT_BUDGET
        cells raises ValueError before any cell is scanned."""
        box = self.bounding_box()
        if box is None:
            return ()
        # counted before any range is built: len(range) overflows above
        # sys.maxsize
        cells = prod(b - a + 1 for a, b in zip(*box))
        if cells > POINT_BUDGET:
            raise ValueError(f"bounding box of {cells} lattice cells exceeds "
                             f"the enumeration budget of {POINT_BUDGET}")
        ranges = [range(a, b + 1) for a, b in zip(*box)]
        return tuple(m for m in itertools.product(*ranges) if self.contains(m))

    def translate(self, t):
        """The polytope {m + t : m in self} for an integer vector t."""
        t = _as_int_vector(t)
        return LatticePolytope(
            self.normals,
            tuple(off + dot(nv, t) for nv, off in zip(self.normals, self.offsets)),
        )

    def with_inequality(self, normal, offset):
        return LatticePolytope(self.normals + (tuple(normal),),
                               self.offsets + (offset,))


def lattice_points(p: LatticePolytope):
    """All integer points of a bounded polytope, lexicographic order: a
    fresh list copied from the polytope's cached `points`."""
    return list(p.points)


def vertex_neighbors(p: LatticePolytope):
    """Adjacency among vertices: w is a neighbor of v when the smallest face
    containing both is one-dimensional."""
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


def is_smooth_vertex(v, neighbors) -> bool:
    """True iff the primitive directions of the edges from v to its
    (rational) neighbors are n vectors of determinant +-1."""
    dirs = []
    for w in neighbors:
        diff = vec_sub(w, v)
        denom = lcm(*(x.denominator for x in diff))
        dirs.append(primitivize(tuple(int(x * denom) for x in diff)))
    return len(dirs) == len(v) and abs(det(dirs)) == 1


def normal_fan(p: LatticePolytope):
    """(fan, vertices) of a full-dimensional simple polytope: the rays are
    the distinct `LatticePolytope.facets` normals in row order, maximal cone
    j is spanned by those at vertices[j], and a vertex on more than n facets
    raises ValueError("vertex is not simple")."""
    p.require_full_dimensional()
    facets = p.facets
    ray_index = {r: i for i, r in enumerate(dict.fromkeys(facets.values()))}
    cones = []
    for t in p.incidence.values():
        cone = sorted({ray_index[facets[i]] for i in t if i in facets})
        if len(cone) != p.dim:
            raise ValueError("vertex is not simple")
        cones.append(tuple(cone))
    return Fan(p.dim, tuple(ray_index), tuple(cones)), p.vertices


# ---------------------------------------------------------------------------
# JSON wire formats: `jsonable` encodes every document and `dumps` writes it;
# `json_typed` and `json_ints` read every JSON integer, converting nothing (an
# integer slot takes no bool, float or string).


_ROW_TYPES = {tuple, list}
_INT_TYPE = {int}


def jsonable(x):
    """Recursively convert reports to plain JSON values; Fractions become
    'p/q' strings, exact integers stay integers, dataclasses become objects
    with one key per field and JSON values pass through."""
    # plain types first: the Fraction test goes through ABCMeta
    if isinstance(x, (int, float, str)) or x is None:
        return x
    if isinstance(x, (list, tuple)):
        # plain ints, or rows of them (a matrix, a fan's rays): copied with
        # every type test at C level, not one call per entry
        types = {*map(type, x)}
        if types <= _INT_TYPE:
            return list(x)
        if types <= _ROW_TYPES and _INT_TYPE.issuperset(
                map(type, itertools.chain.from_iterable(x))):
            return list(map(list, x))
        return [jsonable(v) for v in x]
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return f"{x.numerator}/{x.denominator}"
    if is_dataclass(x) and not isinstance(x, type):
        return {f.name: jsonable(getattr(x, f.name)) for f in fields(x)}
    if isinstance(x, (frozenset, set)):
        return sorted(jsonable(v) for v in x)
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    raise TypeError(f"cannot serialize {type(x)!r}")


def dumps(doc) -> str:
    """The one-line JSON text of a document, keys sorted."""
    return json.dumps(jsonable(doc), sort_keys=True)


# JSON types per field annotation
_JSON_TYPES = {"int": ((int,), "an integer"), "bool": ((bool,), "true or false"),
               "str": ((str,), "a string"),
               "tuple | None": ((list, type(None)), "null or a list")}


def json_typed(value, name, annotation="int"):
    """value itself when its JSON type is one that a field annotated
    `annotation` allows, else ValueError naming the field. An annotation
    without a JSON type (a field with its own decoder) allows anything."""
    if annotation in _JSON_TYPES:
        types, what = _JSON_TYPES[annotation]
        if type(value) not in types:
            raise ValueError(f"'{name}' must be {what}")
    return value


def json_ints(values, name=None) -> tuple:
    """A JSON list of integers as a tuple. The error names the field, or says
    "integer vector expected" for an unnamed row of a fan or polytope."""
    if not isinstance(values, list) or any(type(v) is not int for v in values):
        raise ValueError(f"'{name}' must be a list of integers" if name
                         else "integer vector expected")
    return tuple(values)


def fan_to_json(f: Fan) -> dict:
    return jsonable(f)


def fan_from_json(obj) -> Fan:
    try:
        return Fan(json_typed(obj["rank"], "rank"),
                   tuple(map(json_ints, obj["rays"])),
                   tuple(map(json_ints, obj["max_cones"])))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed fan object: {exc}") from exc


def polytope_to_json(p: LatticePolytope) -> dict:
    return jsonable(p)


def polytope_from_json(obj) -> LatticePolytope:
    try:
        normals = tuple(map(json_ints, obj["normals"]))
        if () in normals:  # only `_vertex_box` builds 0-coordinate rows
            raise ValueError("normal vector needs at least one entry")
        return LatticePolytope(normals, json_ints(obj["offsets"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed polytope object: {exc}") from exc
