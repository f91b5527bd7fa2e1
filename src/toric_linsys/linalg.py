"""Exact integer / rational linear algebra and a small simplex LP solver.

Everything works over Python ints and fractions.Fraction; no floats ever.
Vectors are tuples, matrices are sequences of row sequences. Determinants,
ranks, adjugates and solves all come from one fraction-free (Bareiss)
elimination over the integers: `det` and `adjugate` take integer matrices,
while `rank` and the solves first clear each Fraction row's denominators.
A fan's cone inverses use it once per fan: `lattice.validate_fan` derives
the other cones' adjugates from cone 0's by rank-one updates.

No other module calls the simplex; it stays as the tests' reference for the
vertex-based polytope code and because the benchmark's tracer binds it.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import lcm
from operator import mul


def dot(a, b):
    # map stops at the shorter operand, as zip does
    return sum(map(mul, a, b))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vec_neg(a):
    return tuple(-x for x in a)


def transpose(m):
    return tuple(zip(*m))


def mat_vec(m, v):
    return tuple(dot(row, v) for row in m)


def mat_mul(a, b):
    cols = transpose(b)
    return tuple(tuple(dot(row, col) for col in cols) for row in a)


def _integer_rows(rows):
    """Each row times the lcm of its denominators: integer lists, same rank.
    A row of plain ints (no bool, no Fraction) is copied as it is."""
    a = []
    for row in rows:
        if all(type(x) is int for x in row):
            a.append(list(row))
        else:
            den = lcm(*(x.denominator for x in row))
            a.append([x.numerator * (den // x.denominator) for x in row])
    return a


def _echelon(rows):
    """Fraction-free (Bareiss) forward elimination over the integers.

    Each row is first scaled by the lcm of its denominators. Returns
    (rows, pivots, last, sign): the echelon rows, their pivot columns, the
    last pivot and the sign of the row permutation. After k pivots every row
    below holds minors of order k + 1 of the permuted input, so each division
    is exact (Sylvester's identity) and `last` is the minor on the pivot rows
    and columns: for a square input of full rank, sign * last is the
    determinant of the row-scaled input.
    """
    a = _integer_rows(rows)
    m = len(a)
    ncols = len(a[0]) if a else 0
    pivots = []
    last = 1
    sign = 1
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, m) if a[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        prow = a[r]
        p = prow[col]
        for i in range(r + 1, m):
            ai = a[i]
            f = ai[col]
            a[i] = [(x * p - f * y) // last for x, y in zip(ai, prow)]
        last = p
        pivots.append(col)
        if r + 1 == m:
            break
    return a, pivots, last, sign


def _back_substitute(a, k, last, col):
    """Integer numerators over `last` of the solution of the first k echelon
    rows, whose pivots are columns 0..k-1, with right-hand side column col.

    By Cramer's rule last * x is integral, so each division is exact.
    """
    x = [0] * k
    for i in range(k - 1, -1, -1):
        row = a[i]
        s = last * row[col] - sum(row[j] * x[j] for j in range(i + 1, k))
        x[i] = s // row[i]
    return x


def _require_ints(m, name):
    """TypeError unless every entry of the matrix m is an int (bool too)."""
    if not all(issubclass(t, int) for t in {type(x) for row in m for x in row}):
        raise TypeError(f"{name} needs integer entries")


def det(m):
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    _require_ints(m, "det")
    _, pivots, last, sign = _echelon(m)
    if len(pivots) < len(m):
        return 0
    return sign * last


def adjugate(m):
    """(det m, adj m) of a square integer matrix, so that m . adj == det * I;
    the adjugate is None when m is singular."""
    _require_ints(m, "adjugate")
    n = len(m)
    a, pivots, last, sign = _echelon(
        [(*row, *(int(i == j) for j in range(n))) for i, row in enumerate(m)])
    if pivots[:n] != list(range(n)):
        return 0, None
    cols = [_back_substitute(a, n, last, n + j) for j in range(n)]
    return sign * last, transpose([sign * x for x in c] for c in cols)


def solve_unique(m, b):
    """Solve the square system m x = b exactly; None if m is singular."""
    try:
        return solve_in_span(transpose(m), b)
    except ValueError:
        return None


def solve_in_span(vectors, target):
    """Express target as a combination of linearly independent vectors.

    Returns the coefficient tuple, or None when target is outside the span.
    Raises ValueError if the vectors are linearly dependent.
    """
    k = len(vectors)
    a, pivots, last, _ = _echelon(
        [(*(v[i] for v in vectors), t) for i, t in enumerate(target)])
    if pivots[:k] != list(range(k)):
        raise ValueError("linearly dependent vectors")
    if len(pivots) > k:
        return None
    return tuple(Fraction(x, last) for x in _back_substitute(a, k, last, k))


def pivot_columns(rows):
    """Indices of the leftmost columns that form a basis of the column space."""
    return _echelon(rows)[1]


def rank(rows):
    """Exact rank over the rationals."""
    return len(pivot_columns(rows))


# ---------------------------------------------------------------------------
# Simplex LP, exact over Fractions.  Small problems only; Bland's rule keeps
# pivoting finite.

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


LPResult = namedtuple("LPResult", "status value x", defaults=(None, None))


def lp_solve(n_vars, objective=None, ineqs=(), eqs=(), maximize=True,
             nonneg=False):
    """Solve max/min objective . x subject to a.x <= b and c.x == d.

    ineqs and eqs are sequences of (coeffs, rhs) pairs. Variables are free
    unless nonneg=True. objective None means pure feasibility. Exact
    two-phase tableau simplex with Bland's rule.
    """
    split = not nonneg
    width = 2 * n_vars if split else n_vars

    def expand(coeffs):
        if split:
            return [Fraction(c) for c in coeffs] + [Fraction(-c) for c in coeffs]
        return [Fraction(c) for c in coeffs]

    rows = []
    for coeffs, rhs in ineqs:
        rows.append((expand(coeffs), Fraction(rhs), True))
    for coeffs, rhs in eqs:
        rows.append((expand(coeffs), Fraction(rhs), False))

    m = len(rows)
    nslack = sum(1 for _, _, s in rows if s)
    ncols = width + nslack + m  # structural + slack + artificial
    tableau = []
    sidx = 0
    for r, (coeffs, rhs, has_slack) in enumerate(rows):
        row = coeffs + [Fraction(0)] * (nslack + m) + [rhs]
        if has_slack:
            row[width + sidx] = Fraction(1)
            sidx += 1
        if rhs < 0:
            row = [-x for x in row[:-1]] + [-rhs]
        row[width + nslack + r] = Fraction(1)
        tableau.append(row)
    basis = [width + nslack + r for r in range(m)]

    def pivot(ri, ci):
        prow = tableau[ri]
        inv = 1 / prow[ci]
        tableau[ri] = [x * inv for x in prow]
        prow = tableau[ri]
        for i in range(len(tableau)):
            if i != ri and tableau[i][ci] != 0:
                f = tableau[i][ci]
                tableau[i] = [x - f * y for x, y in zip(tableau[i], prow)]
        basis[ri] = ci

    def run(costs, restrict):
        # maximize costs . vars; returns False on unboundedness
        while True:
            zrow = [Fraction(c) for c in costs] + [Fraction(0)]
            for ri, bi in enumerate(basis):
                cb = costs[bi]
                if cb != 0:
                    zrow = [z - cb * t for z, t in zip(zrow, tableau[ri])]
            enter = None
            for j in range(restrict):
                if zrow[j] > 0:
                    enter = j
                    break
            if enter is None:
                return True
            leave = None
            best = None
            for i in range(m):
                a = tableau[i][enter]
                if a > 0:
                    ratio = tableau[i][-1] / a
                    if best is None or ratio < best or (
                            ratio == best and basis[i] < basis[leave]):
                        best = ratio
                        leave = i
            if leave is None:
                return False
            pivot(leave, enter)

    # phase 1: drive artificials to zero
    costs1 = [Fraction(0)] * ncols
    for j in range(width + nslack, ncols):
        costs1[j] = Fraction(-1)
    run(costs1, ncols)
    total = sum(tableau[i][-1] for i in range(m)
                if basis[i] >= width + nslack)
    if total != 0:
        return LPResult(INFEASIBLE)
    # pivot out artificials still basic at zero
    for i in range(m):
        if basis[i] >= width + nslack:
            c = next((j for j in range(width + nslack)
                      if tableau[i][j] != 0), None)
            if c is not None:
                pivot(i, c)
    live = [i for i in range(m) if basis[i] < width + nslack]
    if len(live) < m:
        tableau[:] = [tableau[i] for i in live]
        basis[:] = [basis[i] for i in live]
        m = len(live)

    def extract():
        full = [Fraction(0)] * ncols
        for ri, bi in enumerate(basis):
            full[bi] = tableau[ri][-1]
        if split:
            return tuple(full[i] - full[n_vars + i] for i in range(n_vars))
        return tuple(full[:n_vars])

    if objective is None:
        return LPResult(OPTIMAL, Fraction(0), extract())

    obj = list(objective) if maximize else [-c for c in objective]
    costs2 = [Fraction(0)] * ncols
    for i in range(n_vars):
        costs2[i] = Fraction(obj[i])
        if split:
            costs2[n_vars + i] = Fraction(-obj[i])
    if not run(costs2, width + nslack):
        return LPResult(UNBOUNDED)
    x = extract()
    value = dot(objective, x)
    return LPResult(OPTIMAL, value, x)
