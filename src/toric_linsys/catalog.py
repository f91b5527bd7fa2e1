"""Built-in fans and polytopes so every report is runnable without input files.

The --example mini-language: pn:<n>, p1n:<n>, hirzebruch:<a>, bl3p2,
box:<a1>x<a2>x..., plus the polytope extras simplex:<n>:<d> and
trapezoid:<n>:<m>.
"""

from __future__ import annotations

import itertools

from .lattice import POINT_BUDGET, Fan, LatticePolytope, normal_fan


def projective_space_fan(n: int) -> Fan:
    """Rays e_1..e_n and -(e_1+...+e_n); maximal cones drop one ray each."""
    if n < 1:
        raise ValueError("need n >= 1")
    rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    rays.append(tuple(-1 for _ in range(n)))
    cones = [tuple(sorted(set(range(n + 1)) - {i})) for i in range(n + 1)]
    return Fan(n, tuple(rays), tuple(cones))


def p1_power_fan(n: int) -> Fan:
    """Rays +-e_i; maximal cones are the 2^n orthants."""
    if n < 1:
        raise ValueError("need n >= 1")
    rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    rays += [tuple(-1 if j == i else 0 for j in range(n)) for i in range(n)]
    cones = []
    for signs in itertools.product((0, 1), repeat=n):
        cones.append(tuple(sorted(i + n * s for i, s in enumerate(signs))))
    return Fan(n, tuple(rays), tuple(cones))


def hirzebruch_fan(a: int) -> Fan:
    """Rays (-1,0), (0,-1), (1,a), (0,1) with the four adjacent cones."""
    if a < 0:
        raise ValueError("need a >= 0")
    rays = ((-1, 0), (0, -1), (1, a), (0, 1))
    cones = ((0, 1), (1, 2), (2, 3), (0, 3))
    return Fan(2, rays, cones)


def bl3p2_fan() -> Fan:
    """The hexagonal fan with rays +-e_1, +-e_2, +-(e_1+e_2)."""
    rays = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))
    cones = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5))
    return Fan(2, rays, cones)


def box_polytope(sides) -> LatticePolytope:
    """Product of intervals [0, a_i]."""
    sides = tuple(int(a) for a in sides)
    if not sides or any(a < 1 for a in sides):
        raise ValueError("box sides must be positive")
    n = len(sides)
    normals = [tuple(-1 if j == i else 0 for j in range(n)) for i in range(n)]
    normals += [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    offsets = [0] * n + list(sides)
    return LatticePolytope(tuple(normals), tuple(offsets))


def simplex_polytope(n: int, d: int) -> LatticePolytope:
    """{m >= 0, m_1 + ... + m_n <= d}."""
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    normals = [tuple(-1 if j == i else 0 for j in range(n)) for i in range(n)]
    normals.append(tuple(1 for _ in range(n)))
    offsets = [0] * n + [d]
    return LatticePolytope(tuple(normals), tuple(offsets))


def trapezoid_polytope(n: int, m: int) -> LatticePolytope:
    """{m >= 0, m_1 + m_2 <= n, m_2 <= m}: the section polytope of the
    standard-form class (n, m) on the first Hirzebruch surface."""
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    return LatticePolytope(((-1, 0), (0, -1), (1, 1), (0, 1)),
                           (0, 0, n, m))


def hexagon_polytope() -> LatticePolytope:
    """Chopped triangle {m >= 0, 1 <= m_1 + m_2 <= 3, m_i <= 2}: the
    hexagon whose outer-normal fan is the bl3p2 fan."""
    return LatticePolytope(
        ((-1, 0), (0, -1), (1, 1), (-1, -1), (1, 0), (0, 1)),
        (0, 0, 3, -1, 2, 2))


def unit_square_polytope() -> LatticePolytope:
    return box_polytope((1, 1))


# ---------------------------------------------------------------------------
# mini-language


# spec name -> (argument count, builder from the argument strings)
_FAN_SPECS = {
    "pn": (1, lambda n: projective_space_fan(int(n))),
    "p1n": (1, lambda n: p1_power_fan(int(n))),
    "hirzebruch": (1, lambda a: hirzebruch_fan(int(a))),
    "bl3p2": (0, bl3p2_fan),
}
_POLYTOPE_SPECS = {
    "box": (1, lambda sides: box_polytope(
        tuple(int(a) for a in sides.split("x")))),
    "simplex": (2, lambda n, d: simplex_polytope(int(n), int(d))),
    "trapezoid": (2, lambda n, m: trapezoid_polytope(int(n), int(m))),
    "bl3p2": (0, hexagon_polytope),
    "square": (0, unit_square_polytope),
}
# spec name -> entries built, for the specs whose size grows with an
# argument: rank x (rays + cones) of a fan, rows x rank of a polytope, plus a
# k x k `cone_facets` matrix per cone of p1n:k or of a k-box's fan (2^k of
# them); an argument below 1 counts none and is left to the builder to refuse
_ENTRIES = {
    "pn": lambda n: 2 * max(int(n), 0) * (int(n) + 1),
    "p1n": lambda n: (k := max(int(n), 0)) * (2 * k + ((k + 1) << min(k, 64))),
    "box": lambda sides: (k := sides.count("x") + 1) ** 2 * (2 + (1 << min(k, 64))),
    "simplex": lambda n, d: max(int(n), 0) * (int(n) + 1),
}


def _from_spec(spec: str, specs, kind):
    """Build 'name:arg:...'; an unknown name, a wrong number of arguments
    or more than POINT_BUDGET entries is a ValueError naming the spec."""
    name, *args = spec.split(":")
    if name not in specs:
        raise ValueError(f"unknown {kind} example '{spec}'")
    arity, build = specs[name]
    if len(args) != arity:
        raise ValueError(f"example '{spec}' takes {arity} argument(s), "
                         f"got {len(args)}")
    if name in _ENTRIES and _ENTRIES[name](*args) > POINT_BUDGET:
        raise ValueError(f"example '{spec}' exceeds the enumeration budget "
                         f"of {POINT_BUDGET} entries")
    return build(*args)


def example_fan(spec: str) -> Fan:
    if spec.split(":")[0] in ("box", "simplex", "trapezoid"):
        return normal_fan(example_polytope(spec))[0]
    return _from_spec(spec, _FAN_SPECS, "fan")


def example_polytope(spec: str) -> LatticePolytope:
    return _from_spec(spec, _POLYTOPE_SPECS, "polytope")
