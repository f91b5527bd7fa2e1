"""Cox presentation of a normalized quasi-transitive fan.

The ray matrix has block form [-Id_n | B] with B the nonnegative matrix of
the rays beyond the transitive cone; the grading matrix [B^t | Id_{r-n}]
records the divisor class of each coordinate in the free basis given by the
classes of the last r - n invariant divisors. Section polytopes follow the
convention that puts them in the first orthant: for a standard-form divisor
with coefficients d_{n+1}..d_r the polytope is
{m >= 0, <m, ray_j> <= d_j for j > n} and the monomial attached to a lattice
point m is x_1^{m_1} ... x_n^{m_n}.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .fan_analysis import DemazureRoot, TransitivityVerdict
from .lattice import POINT_BUDGET, Fan, LatticePolytope, lattice_points
from .linalg import dot, transpose


@dataclass(frozen=True)
class CoxPresentation:
    fan: Fan                 # normalized: first n rays are -e_1..-e_n
    ray_matrix: tuple        # n x r, columns are the rays
    grading_matrix: tuple    # (r-n) x r, degrees of the Cox coordinates
    class_rank: int

    @property
    def rank(self):
        return self.fan.rank

    @property
    def num_rays(self):
        return len(self.fan.rays)


def build_presentation(verdict: TransitivityVerdict) -> CoxPresentation:
    """Assemble the ray and grading matrices from a normalization verdict."""
    if not verdict:
        raise ValueError("fan is not quasi-transitive")
    fan = verdict.normalized_fan
    n = fan.rank
    r = len(fan.rays)
    for i in range(n):
        expected = tuple(-1 if j == i else 0 for j in range(n))
        if fan.rays[i] != expected:
            raise ValueError("fan is not normalized")
    if any(x < 0 for ray in fan.rays[n:] for x in ray):
        raise ValueError("normalized fan has a negative ray entry")
    grading = tuple(ray + tuple(1 if l == j else 0 for l in range(r - n))
                    for j, ray in enumerate(fan.rays[n:]))
    return CoxPresentation(fan, transpose(fan.rays), grading, r - n)


def divisor_class(cp: CoxPresentation, coeffs):
    """Class of an invariant divisor in the free basis of the last r-n rays."""
    if len(coeffs) != cp.num_rays:
        raise ValueError("divisor length must equal the number of rays")
    return tuple(dot(row, coeffs) for row in cp.grading_matrix)


def to_standard_form(cp: CoxPresentation, coeffs):
    """Linearly equivalent representative supported on the rays beyond n.

    Subtracts the principal divisor of the character e = (d_1..d_n), which
    zeroes the first n coefficients and leaves the class unchanged.
    """
    n = cp.rank
    if len(coeffs) != cp.num_rays:
        raise ValueError("divisor length must equal the number of rays")
    e = coeffs[:n]
    return tuple(d + dot(e, ray) for d, ray in zip(coeffs[n:], cp.fan.rays[n:]))


@dataclass(frozen=True)
class SectionPolytope:
    polytope: LatticePolytope
    points: tuple
    h0: int


def section_polytope(cp: CoxPresentation, standard) -> SectionPolytope:
    """Section polytope of a standard-form divisor, inside the first orthant.

    Empty polytopes are fine and give h0 = 0.
    """
    n = cp.rank
    r = cp.num_rays
    if len(standard) != r - n:
        raise ValueError("standard form needs r - n coefficients")
    # the first n rays are -e_1..-e_n, as build_presentation checks
    poly = LatticePolytope(cp.fan.rays, (0,) * n + tuple(standard))
    pts = tuple(lattice_points(poly))
    return SectionPolytope(poly, pts, len(pts))


def irrelevant_generators(f: Fan):
    """Minimal index sets whose rays span no cone of the fan (primitive
    collections); each set corresponds to a squarefree monomial generator.
    More than POINT_BUDGET nonempty ray subsets raise ValueError first."""
    r = len(f.rays)
    if (1 << r) - 1 > POINT_BUDGET:
        raise ValueError(f"{(1 << r) - 1} ray subsets exceed the enumeration "
                         f"budget of {POINT_BUDGET}")
    cone_sets = [frozenset(c) for c in f.max_cones]
    gens = []
    for size in range(1, r + 1):
        for sub in itertools.combinations(range(r), size):
            fs = frozenset(sub)
            if any(g <= fs for g in gens):
                continue
            if not any(fs <= cs for cs in cone_sets):
                gens.append(fs)
    return tuple(sorted(gens, key=lambda s: (len(s), sorted(s))))


@dataclass(frozen=True)
class CoxAutomorphismStep:
    root: DemazureRoot
    t: Fraction


def root_pairings(cp: CoxPresentation, root: DemazureRoot):
    pairings = tuple(dot(root.m, ray) for ray in cp.fan.rays)
    if pairings[root.ray_index] != -1:
        raise ValueError("invalid root: pairing with its ray is not -1")
    if any(p < 0 for j, p in enumerate(pairings) if j != root.ray_index):
        raise ValueError("invalid root: negative pairing with another ray")
    return pairings


def apply_root_step(cp: CoxPresentation, point, step: CoxAutomorphismStep):
    """One-parameter root automorphism on Cox coordinates:
    x_i -> x_i + t * prod_{j != i} x_j^{<m, ray_j>}, all other coordinates fixed."""
    pairings = root_pairings(cp, step.root)
    i = step.root.ray_index
    prod = Fraction(1)
    for j, x in enumerate(point):
        if j != i and pairings[j] != 0:
            prod *= Fraction(x) ** pairings[j]
    out = list(point)
    out[i] = Fraction(point[i]) + Fraction(step.t) * prod
    return tuple(out)


def move_torus_point_to_invariant(cp: CoxPresentation, point):
    """Compose the n axis root automorphisms that zero the first n Cox
    coordinates of a torus point, exposing the distinguished invariant point."""
    n = cp.rank
    r = cp.num_rays
    if len(point) != r:
        raise ValueError("point length must equal the number of rays")
    pt = tuple(Fraction(x) for x in point)
    if any(x == 0 for x in pt):
        raise ValueError("not a torus point")
    steps = []
    cur = pt
    for i in range(n):
        m = tuple(1 if j == i else 0 for j in range(n))
        denom = Fraction(1)
        for j in range(n, r):
            exp = cp.fan.rays[j][i]
            if exp:
                denom *= cur[j] ** exp
        t = -cur[i] / denom
        step = CoxAutomorphismStep(DemazureRoot(m, i), t)
        cur = apply_root_step(cp, cur, step)
        steps.append(step)
    assert all(cur[i] == 0 for i in range(n))
    assert cur[n:] == pt[n:]
    return tuple(steps), cur
