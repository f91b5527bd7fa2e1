"""Dimensions of point-multiplicity linear systems via interpolation ranks.

The matrix of a system has one column per lattice point m of the section
polytope (the monomial x^m) and, per point with multiplicity mu, one row per
derivative order u with |u| <= mu - 1. The entry at (u, m) is the u-th
partial derivative of x^m evaluated at the point:
prod_j falling(m_j, u_j) * prod_j p_j^(m_j - u_j), zero when some u_j > m_j.

dim = h0 - rank - 1. The virtual dimension subtracts the full count of
derivative conditions; the toric virtual dimension only subtracts orders
that lie inside the section polytope (rows outside it vanish identically
because the polytope is a down-set in the first orthant).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .cox import CoxPresentation, SectionPolytope, section_polytope
from .lattice import LatticePolytope, lattice_points
from .rank import RankConfig, TrialEvidence, random_prime, rank_exact, rank_mod_p


class GenericityError(RuntimeError):
    """Sampled ranks violated the dimension inequality chain."""


def normalize_mults(mults) -> tuple:
    """Multiplicities as ints with zeros dropped; a negative one is a
    ValueError."""
    mults = tuple(int(m) for m in mults if int(m) != 0)
    if any(m < 0 for m in mults):
        raise ValueError("multiplicities must be nonnegative")
    return mults


@dataclass(frozen=True)
class LinearSystem:
    """A standard-form divisor class plus a multiplicity profile.

    Zero multiplicities are dropped at construction."""

    presentation: CoxPresentation
    divisor: tuple
    multiplicities: tuple

    def __post_init__(self):
        object.__setattr__(self, "multiplicities",
                           normalize_mults(self.multiplicities))
        object.__setattr__(self, "divisor", tuple(int(d) for d in self.divisor))

    def section(self) -> SectionPolytope:
        return section_polytope(self.presentation, self.divisor)


def derivative_orders(n: int, mu: int):
    """All u >= 0 with |u| <= mu - 1, lexicographic; count C(n+mu-1, n)."""
    out = []

    def rec(prefix, remaining, budget):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for v in range(budget + 1):
            rec(prefix + [v], remaining - 1, budget - v)

    rec([], n, mu - 1)
    out.sort()
    assert len(out) == comb(n + mu - 1, n)
    return tuple(out)


def falling(m: int, u: int) -> int:
    """Falling factorial m (m-1) ... (m-u+1); zero when u > m."""
    if u > m:
        return 0
    out = 1
    for t in range(u):
        out *= m - t
    return out


def _entry_exact(m, u, point):
    coeff = 1
    for mj, uj in zip(m, u):
        coeff *= falling(mj, uj)
        if coeff == 0:
            return 0
    for mj, uj, pj in zip(m, u, point):
        coeff *= pj ** (mj - uj)
    return coeff


def _entry_mod(m, u, point, p):
    coeff = 1
    for mj, uj in zip(m, u):
        coeff *= falling(mj, uj)
        if coeff == 0:
            return 0
    val = coeff % p
    for mj, uj, pj in zip(m, u, point):
        val = val * pow(pj, mj - uj, p) % p
    return val


@dataclass(frozen=True)
class InterpolationMatrix:
    rows: tuple
    columns: tuple
    row_labels: tuple   # (point index, derivative order)
    prime: int | None


def build_point_matrix(columns, mults, points, prime=None) -> InterpolationMatrix:
    """Stacked derivative-condition blocks over the given monomial support."""
    n = len(columns[0]) if columns else (len(points[0]) if points else 0)
    rows = []
    labels = []
    for pi, (mu, pt) in enumerate(zip(mults, points)):
        for u in derivative_orders(n, mu):
            if prime is None:
                rows.append(tuple(_entry_exact(m, u, pt) for m in columns))
            else:
                rows.append(tuple(_entry_mod(m, u, pt, prime) for m in columns))
            labels.append((pi, u))
    return InterpolationMatrix(tuple(rows), tuple(columns), tuple(labels), prime)


def build_matrix(system: LinearSystem, points, prime=None) -> InterpolationMatrix:
    """Interpolation matrix of the system at explicit torus points."""
    if len(points) != len(system.multiplicities):
        raise ValueError("one point per multiplicity required")
    # ints stay ints, so integer points give an integer matrix
    points = [tuple(x if isinstance(x, int) else Fraction(x) for x in pt)
              for pt in points]
    if any(0 in pt for pt in points):
        raise ValueError("points must have nonzero coordinates")
    return build_point_matrix(system.section().points,
                              system.multiplicities, points, prime)


def generic_rank_for_support(columns, n, mults, cfg: RankConfig):
    """Max rank over seeded random trials plus the per-trial evidence."""
    k = len(mults)
    if k == 0 or not columns:
        return 0, ()
    master = random.Random(cfg.seed)
    best = 0
    evidence = []
    for _ in range(cfg.trials):
        tseed = master.getrandbits(63)
        trng = random.Random(tseed)
        if cfg.exact:
            pts = [tuple(trng.randint(1, 1 << 16) for _ in range(n))
                   for _ in range(k)]
            mat = build_point_matrix(columns, mults, pts)
            rk = rank_exact(mat.rows)
            evidence.append(TrialEvidence(None, tseed, rk))
        else:
            p = random_prime(cfg.prime_bits, trng)
            pts = [tuple(trng.randint(1, p - 1) for _ in range(n))
                   for _ in range(k)]
            mat = build_point_matrix(columns, mults, pts, prime=p)
            rk = rank_mod_p(mat.rows, p)
            evidence.append(TrialEvidence(p, tseed, rk))
        best = max(best, rk)
    return best, tuple(evidence)


def generic_rank(system: LinearSystem, cfg: RankConfig = RankConfig()):
    sec = system.section()
    n = system.presentation.rank
    return generic_rank_for_support(sec.points, n, system.multiplicities, cfg)


def truncated_condition_counts(polytope: LatticePolytope, n, mults):
    """Per multiplicity, how many derivative orders lie inside the polytope."""
    return tuple(
        sum(1 for u in derivative_orders(n, mu) if polytope.contains(u))
        for mu in mults)


def toric_truncation(system: LinearSystem):
    sec = system.section()
    return truncated_condition_counts(sec.polytope, system.presentation.rank,
                                      system.multiplicities)


@dataclass(frozen=True)
class SpecialityReport:
    h0: int
    rank: int
    dim: int
    vdim: int
    edim: int
    tvdim: int
    tedim: int
    special: bool
    toric_special: bool
    samples: tuple
    seed: int
    mode: str


def analyze_support(points, polytope, n, mults, cfg: RankConfig) -> SpecialityReport:
    mults = normalize_mults(mults)
    h0 = len(points)
    rk, evidence = generic_rank_for_support(points, n, mults, cfg)
    dim = h0 - rk - 1
    vdim = h0 - sum(comb(n + mu - 1, n) for mu in mults) - 1
    truncs = truncated_condition_counts(polytope, n, mults)
    tvdim = h0 - sum(truncs) - 1
    edim = max(vdim, -1)
    tedim = max(tvdim, -1)
    if not dim >= tedim >= edim:
        raise GenericityError(
            "sampling produced sub-generic rank; increase trials")
    return SpecialityReport(
        h0=h0, rank=rk, dim=dim, vdim=vdim, edim=edim,
        tvdim=tvdim, tedim=tedim,
        special=dim > edim, toric_special=dim > tedim,
        samples=evidence, seed=cfg.seed,
        mode="exact" if cfg.exact else "modular")


def analyze(system: LinearSystem, cfg: RankConfig = RankConfig()) -> SpecialityReport:
    """Full speciality report for a divisor-class system."""
    sec = system.section()
    return analyze_support(sec.points, sec.polytope,
                           system.presentation.rank,
                           system.multiplicities, cfg)


def analyze_polytope_system(polytope: LatticePolytope, mults,
                            cfg: RankConfig = RankConfig()) -> SpecialityReport:
    """Speciality report for the ample system of a polytope in standard
    position (monomial support = its lattice points)."""
    pts = tuple(lattice_points(polytope))
    return analyze_support(pts, polytope, polytope.dim, mults, cfg)
