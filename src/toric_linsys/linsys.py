"""Dimensions of point-multiplicity linear systems via interpolation ranks.

The matrix of a system has one column per lattice point m of the section
polytope (the monomial x^m) and, per point with multiplicity mu, one row per
derivative order u with |u| <= mu - 1. The entry at (u, m) is the u-th
partial derivative of x^m evaluated at the point: prod_j perm(m_j, u_j) *
prod_j p_j^(m_j - u_j), with the falling factorial perm(m, u) = 0 when u > m.

`build_point_matrix` builds this matrix entry by entry; it is the public
matrix and the reference for the trials. A modular trial packs the rank
kernel's vectors straight from two factor tables instead (`_trial_rank`):
it multiplies row (i, u) by x_i^u, a unit mod p because every coordinate is
drawn from [1, p - 1], which turns the entry into F_u[m] X_i[m] with
F_u[m] = prod_j perm(m_j, u_j) mod p and X_i[m] = x_i^m mod p. Scaling
rows by units keeps the rank, and the scaled row is zero exactly when the
row is, so every trial rank, and every TrialEvidence, is that of
rank_mod_p on build_point_matrix at the same prime and points.

An exact trial draws its coordinates from [1, 2^16], units mod 2^61 - 1,
and screens with the same kernel mod that prime: its rank is a lower bound
on the rank over Q, which is at most min(nonzero rows, columns). The kernel
returns that count too: every exponent indexes a factor table, so it is far
below 2^61 - 1, and F_u[m] is nonzero mod that prime exactly when m >= u,
when the integer entry is. A screen that reaches the count is the rank over
Q; only one that falls short builds the integer matrix and ranks it by
Bareiss elimination. Both ways give rank_exact of build_point_matrix.

dim = h0 - rank - 1. The virtual dimension subtracts the full count of
derivative conditions; the toric virtual dimension only subtracts orders
inside the section polytope (rows outside it vanish identically when the
support is an orthant down-set, which `analyze_polytope_system` requires).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, repeat
from math import comb, perm
from operator import mul

from .cox import CoxPresentation, SectionPolytope, section_polytope
from .lattice import (NEGATIVE_EXPONENT, POINT_BUDGET, LatticePolytope, _as_int_vector,
                      lattice_points)
from .linalg import rank as matrix_rank
from .rank import (_SCREEN_PRIME, RankConfig, TrialEvidence, _eliminate, _slot_bytes,
                   trial_prime)


class GenericityError(RuntimeError):
    """Sampled ranks violated the dimension inequality chain."""


def normalize_mults(mults) -> tuple:
    """Multiplicities as ints with zeros dropped; a non-integral or negative
    one is a ValueError."""
    mults = tuple(m for m in _as_int_vector(mults) if m != 0)
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
        object.__setattr__(self, "divisor", tuple(self.divisor))

    def section(self) -> SectionPolytope:
        return section_polytope(self.presentation, self.divisor)


@lru_cache(maxsize=256)
def derivative_orders(n: int, mu: int):
    """All u >= 0 with |u| <= mu - 1, lexicographic; count C(n+mu-1, n). A
    count above POINT_BUDGET raises ValueError before any is built. Stars
    and bars: u_j is the gap before bar j of n bars in n + mu - 1 slots, and
    lexicographic bars give lexicographic u."""
    count = comb(n + mu - 1, n)
    if count > POINT_BUDGET:
        raise ValueError(f"{count} derivative orders exceed the enumeration "
                         f"budget of {POINT_BUDGET}")
    return tuple(tuple(b - a - 1 for a, b in zip((-1, *bars), bars))
                 for bars in combinations(range(n + mu - 1), n))


@dataclass(frozen=True)
class InterpolationMatrix:
    rows: tuple
    columns: tuple
    row_labels: tuple   # (point index, derivative order)
    prime: int | None


def _order_vectors(coords, x, mu, prime):
    """Per order v < mu, the column vector of d^v/dx^v x^m at x for the
    exponents m in coords: perm(m, v) * x^(m - v), zero when v > m."""
    powers = [x ** 0]
    for _ in range(max(coords, default=0)):
        powers.append(powers[-1] * x if prime is None
                      else powers[-1] * x % prime)
    out = []
    for v in range(mu):
        # entry per exponent value d, then looked up per column
        by_value = [perm(d, v) * powers[d - v] if d >= v else 0
                    for d in range(len(powers))]
        out.append(list(map(by_value.__getitem__, coords)))
    return out


def _exponents_and_orders(columns, n, mults):
    """The support's exponents by coordinate, and the derivative orders per
    multiplicity: the checks every interpolation matrix needs, run before
    any table is built."""
    coords = list(zip(*columns)) if columns else [()] * n
    # the tables read each exponent as a list index
    if any(min(cj, default=0) < 0 for cj in coords):
        raise ValueError(NEGATIVE_EXPONENT)
    return coords, {mu: derivative_orders(n, mu) for mu in set(mults)}


def build_point_matrix(columns, mults, points, prime=None) -> InterpolationMatrix:
    """Stacked derivative-condition blocks over the given monomial support.

    The row of order u at a point is the elementwise product over the
    coordinates j of the order-u_j vectors; modular rows are reduced once."""
    n = len(columns[0]) if columns else (len(points[0]) if points else 0)
    coords, orders = _exponents_and_orders(columns, n, mults)
    rows = []
    labels = []
    for pi, (mu, pt) in enumerate(zip(mults, points)):
        vecs = [_order_vectors(cj, x, mu, prime) for cj, x in zip(coords, pt)]
        for u in orders[mu]:
            row = vecs[0][u[0]] if n else [1] * len(columns)
            for vj, uj in zip(vecs[1:], u[1:]):
                row = list(map(mul, row, vj[uj]))
            if prime is not None:
                row = [x % prime for x in row]
            rows.append(tuple(row))
            labels.append((pi, u))
    return InterpolationMatrix(tuple(rows), tuple(columns), tuple(labels), prime)


def _column_products(tables, coords, ncols, p):
    """Per column m, prod_j tables[j][m_j] mod p."""
    out = [1] * ncols
    for table, cj in zip(tables, coords):
        out = map(mul, out, map(table.__getitem__, cj))
    return list(map(p.__rmod__, out))


def _trial_rank(coords, orders, mults, points, p):
    """(rank mod p, s) of the trial's matrix, packed column by column from
    two factor tables; s = min(nonzero rows, columns) bounds the rank. Row
    (i, u) times the unit x_i^u has the entries F_u[m] X_i[m], with F_u[m] =
    prod_j perm(m_j, u_j) and X_i[m] = x_i^m mod p; the orders u with
    F_u = 0 mod p give the zero rows, left out."""
    ncols = len(coords[0]) if coords else 1
    falls = [[1] * (max(map(max, coords), default=0) + 1)]
    for v in range(1, max(mults)):  # falls[v][d] = perm(d, v) mod p
        falls.append([f * (d - v + 1) % p for d, f in enumerate(falls[-1])])
    by_order = {u: _column_products([falls[uj] for uj in u], coords, ncols, p)
                for u in orders[max(mults)]}
    kept = {mu: [by_order[u] for u in us if any(by_order[u])]
            for mu, us in orders.items()}
    nrows = sum(len(kept[mu]) for mu in mults)
    s = min(nrows, ncols)
    nbytes = _slot_bytes(p, s)
    # phis[mu][m]: column m of the F_u over the kept orders u, packed
    phis = {mu: list(map(int.from_bytes, map(b"".join, zip(*[
        map(int.to_bytes, f, repeat(nbytes), repeat("little")) for f in fs])),
        repeat("little"))) for mu, fs in kept.items()}
    blocks = []
    for mu, pt in zip(mults, points):
        if kept[mu]:
            powers = []  # powers[j][d] = x_j^d mod p
            for x, cj in zip(pt, coords):
                powers.append([1])
                for _ in range(max(cj)):
                    powers[-1].append(powers[-1][-1] * x % p)
            xs = _column_products(powers, coords, ncols, p)
            blocks.append(map(int.to_bytes, map(mul, xs, phis[mu]),
                              repeat(len(kept[mu]) * nbytes), repeat("little")))
    vectors = map(int.from_bytes, map(b"".join, zip(*blocks)), repeat("little"))
    return _eliminate(vectors, nrows, s, p, nbytes), s


def generic_rank_for_support(columns, n, mults, cfg: RankConfig):
    """Max rank over seeded random trials plus the per-trial evidence.

    The support and multiplicities are checked once, before any trial. A
    modular trial's rank is `_trial_rank` at its prime and points, equal to
    rank_mod_p of build_point_matrix there. An exact trial's is
    `_trial_rank` mod 2^61 - 1 when that reaches the bound s it returns,
    else Bareiss on build_point_matrix: either way rank_exact of
    build_point_matrix. s is min(nonzero rows, columns) over Q too: every
    exponent is far below 2^61 - 1, so F_u[m] != 0 mod 2^61 - 1 exactly
    when m >= u. Every leaf of a certify search has the same seed, so
    `trial_prime` runs each trial's prime search once and replays its draws
    on the trial rng: the points, ranks and evidence are those of a fresh
    search."""
    k = len(mults)
    if k == 0 or not columns:
        return 0, ()
    coords, orders = _exponents_and_orders(columns, n, mults)
    master = random.Random(cfg.seed)
    best = 0
    evidence = []
    for _ in range(cfg.trials):
        tseed = master.getrandbits(63)
        p, trng = ((None, random.Random(tseed)) if cfg.exact
                   else trial_prime(tseed, cfg.prime_bits))
        top = 1 << 16 if p is None else p - 1
        pts = [tuple(trng.randint(1, top) for _ in range(n))
               for _ in range(k)]
        rk, full = _trial_rank(coords, orders, mults, pts,
                               _SCREEN_PRIME if p is None else p)
        if p is None and rk < full:
            rk = matrix_rank(build_point_matrix(columns, mults, pts).rows)
        evidence.append(TrialEvidence(p, tseed, rk))
        best = max(best, rk)
    return best, tuple(evidence)


def generic_rank(system: LinearSystem, cfg: RankConfig = RankConfig()):
    sec = system.section()
    n = system.presentation.rank
    return generic_rank_for_support(sec.points, n, system.multiplicities, cfg)


def toric_counts(polytope: LatticePolytope, mults):
    """(h0, truncations, tvdim) of the ample system of a bounded polytope in
    standard position. truncations[i] counts the orders u >= 0, |u| < mults[i]
    inside the polytope, its points m >= 0 with |m| < mults[i], read off the
    sorted |m|; tvdim = h0 - sum(truncations) - 1."""
    points = lattice_points(polytope)
    degrees = sorted(sum(m) for m in points if min(m) >= 0)
    truncs = tuple(bisect_left(degrees, mu) for mu in mults)
    return len(points), truncs, len(points) - sum(truncs) - 1


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


def analyze(system: LinearSystem, cfg: RankConfig = RankConfig()) -> SpecialityReport:
    """Full speciality report for a divisor-class system."""
    return analyze_polytope_system(system.section().polytope,
                                   system.multiplicities, cfg)


def analyze_polytope_system(polytope: LatticePolytope, mults,
                            cfg: RankConfig = RankConfig()) -> SpecialityReport:
    """Speciality report for the ample system of a polytope in standard
    position (monomial support = its lattice points); `toric_counts` needs
    an orthant down-set, so `require_down_set` refuses any other support."""
    mults = normalize_mults(mults)
    polytope.require_down_set()
    # toric_counts enumerates via lattice_points; the trials read the cache
    h0, _, tvdim = toric_counts(polytope, mults)
    n = polytope.dim
    rk, evidence = generic_rank_for_support(polytope.points, n, mults, cfg)
    dim = h0 - rk - 1
    vdim = h0 - sum(comb(n + mu - 1, n) for mu in mults) - 1
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
