"""Exact simplex references for the vertex-based polytope code.

The package decides every polytope question from vertices; these helpers
answer the same questions with `linalg.lp_solve`, and `no_lp` makes any
simplex call from the package fail.
"""

import contextlib
import importlib
import pkgutil
from math import ceil, floor
from unittest import mock

from toric_linsys.linalg import OPTIMAL, UNBOUNDED, lp_solve


def package_modules():
    package = importlib.import_module("toric_linsys")
    return [importlib.import_module(f"toric_linsys.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)]


@contextlib.contextmanager
def no_lp():
    """Make lp_solve fail in every package module that binds it. The
    references here keep their own binding, so they still run inside."""
    with contextlib.ExitStack() as stack:
        for module in package_modules():
            if "lp_solve" in vars(module):
                stack.enter_context(mock.patch.object(
                    module, "lp_solve", side_effect=AssertionError("LP call")))
        yield


def lp_box(p):
    """Bounding box by 2 * dim exact simplex LPs, for any polytope: None
    when infeasible, ValueError when some coordinate is unbounded."""
    n = p.dim
    ineqs = list(zip(p.normals, p.offsets))
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


def lp_in_hull(points, x):
    """x = sum lam_i points_i with lam >= 0 and sum lam = 1."""
    k = len(points)
    eqs = [(tuple(p[i] for p in points), x[i]) for i in range(len(x))]
    eqs.append(((1,) * k, 1))
    return lp_solve(k, None, eqs=eqs, nonneg=True).status == OPTIMAL


def lp_interiors_meet(gens_a, gens_b):
    """Some x = sum lam_j a_j = sum mu_k b_k with lam, mu >= 1: a point
    interior to both cones (after scaling)."""
    n = len(gens_a)
    eqs = [(tuple(g[i] for g in gens_a) + tuple(-g[i] for g in gens_b), 0)
           for i in range(n)]
    ineqs = [(tuple(-int(j == k) for j in range(2 * n)), -1)
             for k in range(2 * n)]
    return lp_solve(2 * n, None, ineqs, eqs, nonneg=True).status == OPTIMAL
