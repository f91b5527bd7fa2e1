"""Workload definitions and the seeded input generator.

A workload is a fixed list of base cases. One round of a workload runs
every base case once (or `weight` times), in a seeded order, each time on a fresh *variant*: an
input file that presents the same mathematical object differently, so the
verdict is known in advance but the argv and the file are new.

* Polytope systems get a seeded permutation of the inequality rows and of
  the multiplicities, and for dim and sweep also of the coordinates. The
  polytope stays in standard position, so h0, rank, dim, tedim and the
  certify status are unchanged.
* Fans get a seeded unimodular change of basis and a seeded relabelling of
  the rays; the order of the maximal cones is kept, so the program normalises
  at the same geometric transitive cone. Classes on such a fan are written in
  input ray order with a seeded principal divisor added, which leaves the
  class, hence the section polytope up to a coordinate permutation, unchanged.
* certify breaks ties between split axes by coordinate index, so a coordinate
  permutation would change which certificate it finds, and with it the cost
  of the search and of verify. Its variants therefore keep the coordinate
  order: rows are permuted, and on fans the rays of the normalising cone keep
  their relative order.
* Capsule polytopes get a seeded affine unimodular map, under which the
  capsule test is equivariant.

Every operation also gets its own rank-engine --seed drawn from the workload
seed, so no argv repeats within a run. Base cases within a round are chosen so
that every round costs about the same: the seed changes which variants run,
not how much work a round is.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace

# ---------------------------------------------------------------------------
# base geometry, written here so the program sees only generated files


def _unit(n, i, s=1):
    return [s if j == i else 0 for j in range(n)]


def orthant(n):
    return [_unit(n, i, -1) for i in range(n)], [0] * n


def simplex(n, d):
    normals, offsets = orthant(n)
    return {"normals": normals + [[1] * n], "offsets": offsets + [d]}


def trapezoid(n, m):
    return {"normals": [[-1, 0], [0, -1], [1, 1], [0, 1]],
            "offsets": [0, 0, n, m]}


def box(*sides):
    n = len(sides)
    normals, offsets = orthant(n)
    return {"normals": normals + [_unit(n, i) for i in range(n)],
            "offsets": offsets + list(sides)}


def hexagon():
    return {"normals": [[-1, 0], [0, -1], [1, 1], [-1, -1], [1, 0], [0, 1]],
            "offsets": [0, 0, 3, -1, 2, 2]}


# Fans in normalised position: maximal cone 0 is spanned by -e_1..-e_n and
# every other ray is nonnegative, so cone 0 is the first transitive cone.

def pn_fan(n):
    rays = [_unit(n, i, -1) for i in range(n)] + [[1] * n]
    cones = [[j for j in range(n + 1) if j != i] for i in range(n, -1, -1)]
    return {"rank": n, "rays": rays, "max_cones": cones}


def p1n_fan(n):
    rays = [_unit(n, i, -1) for i in range(n)] + [_unit(n, i) for i in range(n)]
    cones = []
    for mask in range(1 << n):
        cones.append([i + n * ((mask >> i) & 1) for i in range(n)])
    return {"rank": n, "rays": rays, "max_cones": cones}


def hirzebruch_fan(a):
    return {"rank": 2, "rays": [[-1, 0], [0, -1], [1, a], [0, 1]],
            "max_cones": [[0, 1], [1, 2], [2, 3], [0, 3]]}


def bl3p2_fan():
    return {"rank": 2,
            "rays": [[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]],
            "max_cones": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5]]}


def box_fan(n):
    """Outer-normal fan of an n-dimensional box, cones listed per vertex in
    lexicographic vertex order (the P1^n fan in another labelling)."""
    rays = [_unit(n, i, -1) for i in range(n)] + [_unit(n, i) for i in range(n)]
    cones = []
    for mask in range(1 << n):
        bits = [(mask >> (n - 1 - i)) & 1 for i in range(n)]
        cones.append([i + n * bits[i] for i in range(n)])
    return {"rank": n, "rays": rays, "max_cones": cones}


def p2bundle_fan(a):
    """P(O + O(a)) over the projective plane: few symmetries among the
    |max cones| x 3! candidate maps."""
    rays = [[-1, 0, 0], [0, -1, 0], [0, 0, -1], [1, 1, a], [0, 0, 1]]
    cones = [sorted((i, j, w)) for i, j in ((0, 1), (1, 3), (0, 3)) for w in (2, 4)]
    return {"rank": 3, "rays": rays, "max_cones": cones}


def p1xp1bundle_fan(a, b):
    """A P1-bundle over P1 x P1 twisted by (a, b)."""
    rays = [[-1, 0, 0], [0, -1, 0], [0, 0, -1], [1, 0, a], [0, 1, b], [0, 0, 1]]
    cones = [[x, y, z] for x in (0, 3) for y in (1, 4) for z in (2, 5)]
    return {"rank": 3, "rays": rays, "max_cones": cones}


FANS = {"pn": pn_fan, "p1n": p1n_fan, "hirzebruch": hirzebruch_fan,
        "bl3p2": bl3p2_fan, "box": box_fan, "p2bundle": p2bundle_fan,
        "p1xp1bundle": p1xp1bundle_fan}


def fan_of(spec):
    name, *args = spec.split(":")
    return FANS[name](*(int(a) for a in args))


# ---------------------------------------------------------------------------
# base cases


@dataclass(frozen=True)
class Case:
    """One base case. `cmd` is the CLI subcommand; the payload depends on it:
    `poly` + `mults` (a polytope system), `fan` + `cls` + `mults` (a class
    on a normalised fan; `cls` are the standard coefficients), `fan` alone
    (fan commands), `poly` + `vertex` (capsule) or `tasks` (sweep, a tuple
    of system cases)."""

    name: str
    cmd: str
    poly: dict | None = None
    fan: str | None = None
    cls: tuple = ()
    mults: tuple = ()
    vertex: tuple = ()
    tasks: tuple = ()
    trials: int | None = None
    exact: bool = False
    max_depth: int | None = None
    weight: int = 1         # variants per round
    small: bool = False     # kept in the reduced self-check size


def S(name, poly, mults, **kw):
    return Case(name, kw.pop("cmd", "dim"), poly=poly, mults=tuple(mults), **kw)


def C(name, fan, cls, mults, **kw):
    return Case(name, kw.pop("cmd", "dim"), fan=fan, cls=tuple(cls),
                mults=tuple(mults), **kw)


def F(cmd, fan, **kw):
    return Case(f"{cmd}-{fan}", cmd, fan=fan, **kw)


# interp: modular rank trials on matrices from tens of entries up to 200x231;
# rank_mod_p and build_point_matrix carry most of the time. The 120x165 case
# runs three times per round, so the 90th percentile falls in the middle of
# its cluster.
INTERP = (
    S("simplex2-20-4x20", simplex(2, 20), [4] * 20, trials=2),
    S("simplex3-8-2x30", simplex(3, 8), [2] * 30, trials=2, weight=3),
    S("simplex2-12-3x10", simplex(2, 12), [3] * 10),
    S("simplex2-14-3x12", simplex(2, 14), [3] * 12, trials=3),
    S("simplex4-4-2x10", simplex(4, 4), [2] * 10),
    S("simplex3-6-2x16", simplex(3, 6), [2] * 16, trials=3),
    S("simplex2-4-2x5", simplex(2, 4), [2] * 5, small=True),
    S("simplex2-9-3x7", simplex(2, 9), [3] * 7),
    S("trapezoid10-5-3x8", trapezoid(10, 5), [3] * 8),
    S("trapezoid12-6-3x12", trapezoid(12, 6), [3] * 12, trials=3),
    S("trapezoid6-3-2x6", trapezoid(6, 3), [2] * 6, small=True),
    S("box4x4-3x4", box(4, 4), [3] * 4),
    S("box6x5-4x5", box(6, 5), [4] * 4 + [3] * 2, trials=3),
    S("box3x3x3-3x3", box(3, 3, 3), [3, 3, 3]),
    S("box2x2x2-2x5", box(2, 2, 2), [2] * 5, small=True),
    S("box3x2x2-3x2-2x2", box(3, 2, 2), [3, 3, 2, 2]),
    C("hirzebruch1-9-5-2x12", "hirzebruch:1", (9, 5), [2] * 12),
    C("hirzebruch2-12-4-3x8", "hirzebruch:2", (12, 4), [3] * 8),
    C("hirzebruch1-6-3-2x5", "hirzebruch:1", (6, 3), [2] * 5, small=True),
    C("pn2-10-3x8", "pn:2", (10,), [3] * 8),
    C("pn3-5-2x10", "pn:3", (5,), [2] * 10),
    C("p1n3-3-3-3-3x4", "p1n:3", (3, 3, 3), [3] * 4),
    Case("sweep-small", "sweep", tasks=(
        S("t-simplex2-6-2x4", simplex(2, 6), [2] * 4),
        S("t-trapezoid7-3-2x6", trapezoid(7, 3), [2] * 6),
        S("t-box3x3-2x4", box(3, 3), [2] * 4),
        C("t-hirzebruch1-5-2-2x4", "hirzebruch:1", (5, 2), [2] * 4),
    ), small=True),
    Case("sweep-mid", "sweep", tasks=(
        S("t-simplex2-10-3x6", simplex(2, 10), [3] * 6),
        S("t-box5x5-3x5", box(5, 5), [3] * 5),
        S("t-simplex3-5-2x10", simplex(3, 5), [2] * 10),
        C("t-hirzebruch1-8-4-3x5", "hirzebruch:1", (8, 4), [3] * 5),
    ), trials=3),
)

# exact: the same kind of dim commands with --exact on smaller systems, the
# only place the Fraction entries and rank_exact run.
EXACT = tuple(
    replace(c, trials=2, exact=True)
    for c in (
        S("simplex2-8-3x6", simplex(2, 8), [3] * 6),
        S("simplex2-7-3x5", simplex(2, 7), [3] * 5),
        S("simplex2-6-2x8", simplex(2, 6), [2] * 8),
        S("simplex2-4-2x5", simplex(2, 4), [2] * 5, small=True),
        S("simplex3-4-2x6", simplex(3, 4), [2] * 6),
        S("simplex3-3-2x4", simplex(3, 3), [2] * 4, small=True),
        S("trapezoid7-4-2x8", trapezoid(7, 4), [2] * 8),
        S("trapezoid8-4-3x4", trapezoid(8, 4), [3] * 4),
        S("trapezoid5-2-2x4", trapezoid(5, 2), [2] * 4, small=True),
        S("box3x3-3x2-2x3", box(3, 3), [3, 3, 2, 2, 2]),
        S("box4x3-3x3", box(4, 3), [3] * 3),
        S("box2x2x2-2x5", box(2, 2, 2), [2] * 5),
        S("box2x2x1-2x3", box(2, 2, 1), [2] * 3, small=True),
        C("hirzebruch1-7-4-3x3", "hirzebruch:1", (7, 4), [3] * 3),
        C("hirzebruch2-8-3-2x6", "hirzebruch:2", (8, 3), [2] * 6),
        C("hirzebruch1-4-2-2x3", "hirzebruch:1", (4, 2), [2] * 3, small=True),
        C("pn2-7-2x9", "pn:2", (7,), [2] * 9),
        C("p1n3-2-2-2-2x4", "p1n:3", (2, 2, 2), [2] * 4),
    ))

# degen: certify on standard-form polytopes and classes, then verify every
# certificate produced. Six searches per round end inconclusive (exit 3)
# after exhausting their split trees; they are the heaviest operations, and
# the three of about equal cost hold the 90th percentile, so that it is
# estimated from a dense cluster. Two cheap inconclusive searches sit in the
# body of the distribution.
DEGEN = tuple(
    replace(c, cmd="certify")
    for c in (
        S("simplex2-4-2x5-depth1", simplex(2, 4), [2] * 5, max_depth=1),
        S("simplex2-6-3x4-2-depth1", simplex(2, 6), [3] * 4 + [2], max_depth=1,
          weight=3),
        S("box1x6-3x3", box(*[1] * 6), [3, 3, 3]),
        C("p1n6-1x6-3x3-depth1", "p1n:6", (1,) * 6, [3, 3, 3], max_depth=1),
        S("simplex2-2-2x2", simplex(2, 2), [2] * 2, small=True),
        S("simplex3-4-3x3", simplex(3, 4), [3] * 3),
        S("simplex2-6-3x4", simplex(2, 6), [3] * 4),
        S("simplex2-5-3x3", simplex(2, 5), [3] * 3),
        S("trapezoid4-2-2x6", trapezoid(4, 2), [2] * 6),
        S("trapezoid6-3-2x4", trapezoid(6, 3), [2] * 4),
        S("trapezoid5-3-2x7", trapezoid(5, 3), [2] * 7),
        S("trapezoid4-2-2x5", trapezoid(4, 2), [2] * 5, small=True),
        S("box2x2x2-2x5", box(2, 2, 2), [2] * 5),
        S("box1x4-3x3", box(1, 1, 1, 1), [3, 3, 3]),
        S("box3x3-2x4", box(3, 3), [2] * 4),
        S("box2x2-3x2", box(2, 2), [3, 3], small=True),
        S("box2x2x1-3x2", box(2, 2, 1), [3, 3]),
        C("hirzebruch1-6-4-2x5", "hirzebruch:1", (6, 4), [2] * 5),
        C("hirzebruch1-4-2-2x5", "hirzebruch:1", (4, 2), [2] * 5),
        C("hirzebruch1-5-3-3x3", "hirzebruch:1", (5, 3), [3] * 3),
        C("hirzebruch2-6-3-2x7", "hirzebruch:2", (6, 3), [2] * 7),
    ))

# fan: fan analysis commands on seeded fans. Demazure root regions are
# general polytopes (not staircases), so the LP here is not the staircase LP.
# The symmetric fans (pn, p1n, box, bl3p2) accept every candidate map of
# fan_symmetries; the bundles and Hirzebruch surfaces reject most of them.
FAN = (
    F("validate", "pn:4"), F("validate", "p1n:5"), F("validate", "bl3p2", small=True),
    F("validate", "hirzebruch:3"), F("validate", "box:4"),
    F("validate", "p2bundle:2"),
    F("transitive", "pn:5"), F("transitive", "p1n:4"), F("transitive", "bl3p2"),
    F("transitive", "hirzebruch:2", small=True), F("transitive", "box:3"),
    F("transitive", "p2bundle:1"),
    F("roots", "p1n:4"), F("roots", "p1n:3"), F("roots", "pn:3"), F("roots", "pn:4"),
    F("roots", "hirzebruch:1", small=True), F("roots", "hirzebruch:3"),
    F("roots", "bl3p2"), F("roots", "box:3"), F("roots", "p2bundle:2"),
    F("roots", "p1xp1bundle:1:1"),
    F("symmetries", "pn:4"), F("symmetries", "pn:5"), F("symmetries", "p1n:4"),
    F("symmetries", "p1n:3"), F("symmetries", "bl3p2", small=True),
    F("symmetries", "hirzebruch:0"), F("symmetries", "box:3"),
    F("symmetries", "hirzebruch:1", small=True), F("symmetries", "p2bundle:1"),
    F("symmetries", "p1xp1bundle:1:2"),
    F("cox", "pn:4"), F("cox", "p1n:4"), F("cox", "hirzebruch:2", small=True),
    F("cox", "box:3"), F("cox", "p1xp1bundle:1:2"),
    Case("capsule-hexagon", "capsule", poly=hexagon(), vertex=(0, 1), small=True),
    Case("capsule-trapezoid6-3", "capsule", poly=trapezoid(6, 3), vertex=(0, 0)),
    Case("capsule-simplex2-5", "capsule", poly=simplex(2, 5), vertex=(0, 5)),
    Case("capsule-box3x2x2", "capsule", poly=box(3, 2, 2), vertex=(0, 0, 0)),
)

WORKLOADS = {"interp": INTERP, "exact": EXACT, "degen": DEGEN, "fan": FAN}

# Warm-up operation of the set-up phase, one per workload, never in the
# timed list.
WARMUP = {
    "interp": S("warm-simplex2-5-2x4", simplex(2, 5), [2] * 4),
    "exact": S("warm-simplex2-5-2x4", simplex(2, 5), [2] * 4, trials=2, exact=True),
    "degen": S("warm-trapezoid3-1-2x2", trapezoid(3, 1), [2] * 2, cmd="certify"),
    "fan": F("roots", "hirzebruch:2"),
}


def cases(workload, reduced=False):
    out = WORKLOADS[workload]
    return tuple(c for c in out if c.small) if reduced else out


def all_cases():
    """Every base case whose verdict the reference file records."""
    seen = {}
    for wl, cs in WORKLOADS.items():
        for c in cs + (WARMUP[wl],):
            seen[f"{wl}/{c.name}"] = c
    return seen


# ---------------------------------------------------------------------------
# seeded variants


def _matvec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def random_unimodular(n, rng):
    """(A, A^-1) for a seeded signed permutation times one shear."""
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    p = [[signs[i] if j == perm[i] else 0 for j in range(n)] for i in range(n)]
    p_inv = [[p[j][i] for j in range(n)] for i in range(n)]
    shear = [[int(i == j) for j in range(n)] for i in range(n)]
    shear_inv = [row[:] for row in shear]
    if n > 1:
        i, j = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        shear[i][j] = s
        shear_inv[i][j] = -s
    a = [[sum(shear[i][k] * p[k][j] for k in range(n)) for j in range(n)]
         for i in range(n)]
    a_inv = [[sum(p_inv[i][k] * shear_inv[k][j] for k in range(n))
              for j in range(n)] for i in range(n)]
    return a, a_inv


def permuted_polytope(poly, rng, keep_axes=False):
    n = len(poly["normals"][0])
    perm = list(range(n))
    if not keep_axes:
        rng.shuffle(perm)
    rows = list(zip(poly["normals"], poly["offsets"]))
    rng.shuffle(rows)
    return {"normals": [[nv[perm[j]] for j in range(n)] for nv, _ in rows],
            "offsets": [off for _, off in rows]}


def unimodular_polytope(poly, vertex, rng):
    """Image of the polytope and a vertex under m -> A m + t."""
    n = len(vertex)
    a, a_inv = random_unimodular(n, rng)
    t = [rng.randint(-2, 2) for _ in range(n)]
    normals, offsets = [], []
    for nv, off in zip(poly["normals"], poly["offsets"]):
        # <nv, m> <= off  <=>  <nv A^-1, m' - t> <= off
        row = [sum(nv[k] * a_inv[k][j] for k in range(n)) for j in range(n)]
        normals.append(row)
        offsets.append(off + sum(x * y for x, y in zip(row, t)))
    img = [x + y for x, y in zip(_matvec(a, vertex), t)]
    return {"normals": normals, "offsets": offsets}, img


def fan_variant(fan, rng, keep_axes=False):
    """Relabelled, base-changed fan plus the map old ray index -> new.

    With keep_axes the first n rays (cone 0) keep their relative order."""
    n = fan["rank"]
    r = len(fan["rays"])
    a, _ = random_unimodular(n, rng)
    label = list(range(r))
    rng.shuffle(label)
    if keep_axes:
        label[:n] = sorted(label[:n])
    rays = [None] * r
    for i, ray in enumerate(fan["rays"]):
        rays[label[i]] = _matvec(a, ray)
    cones = [sorted(label[i] for i in c) for c in fan["max_cones"]]
    return {"rank": n, "rays": rays, "max_cones": cones}, label


def system_variant(case, rng):
    """A system object for a dim/certify/sweep case."""
    keep_axes = case.cmd == "certify"
    mults = list(case.mults)
    rng.shuffle(mults)
    if case.poly is not None:
        return {"polytope": permuted_polytope(case.poly, rng, keep_axes),
                "multiplicities": mults}
    base = fan_of(case.fan)
    n = base["rank"]
    fan, label = fan_variant(base, rng, keep_axes)
    coeffs = [0] * len(base["rays"])
    e = [rng.randint(-2, 2) for _ in range(n)]
    for i in range(len(base["rays"])):
        d = case.cls[i - n] if i >= n else 0
        coeffs[label[i]] = d + sum(x * y for x, y in zip(e, fan["rays"][label[i]]))
    return {"fan": fan, "divisor": {"coeffs": coeffs}, "multiplicities": mults}


# ---------------------------------------------------------------------------
# operations


@dataclass
class Op:
    """One CLI invocation: argv plus what the oracle needs to check it."""

    key: str                  # reference key "<workload>/<case name>"
    case: Case
    argv: list
    out: str | None = None    # file the program writes (--out)
    follow: "Op | None" = None  # verify op run after a successful certify


def _write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


def make_op(workload, case, rng, rundir, tag):
    """Write the variant input of one case and return its operation."""
    key = f"{workload}/{case.name}"
    seed = str(rng.getrandbits(40))
    rank_flags = []
    if case.trials is not None:
        rank_flags += ["--trials", str(case.trials)]
    if case.exact:
        rank_flags.append("--exact")
    if case.max_depth is not None:
        rank_flags += ["--max-depth", str(case.max_depth)]
    stem = rundir / f"{tag}-{case.name}"
    if case.cmd in ("dim", "certify"):
        path = _write(f"{stem}.system.json", system_variant(case, rng))
        argv = [case.cmd, "--system", path, "--seed", seed] + rank_flags
        op = Op(key, case, argv)
        if case.cmd == "certify":
            op.out = f"{stem}.cert.json"
            op.argv += ["--out", op.out]
            vseed = str(rng.getrandbits(40))
            op.follow = Op(f"{workload}/verify", case,
                           ["verify", "--certificate", op.out, "--seed", vseed])
        return op
    if case.cmd == "sweep":
        tasks = [{"label": t.name, "system": system_variant(t, rng)}
                 for t in case.tasks]
        job = {"tasks": tasks}
        if case.trials is not None:
            job["cfg"] = {"trials": case.trials}
        path = _write(f"{stem}.job.json", job)
        out = f"{stem}.records.jsonl"
        argv = ["sweep", "--job", path, "--seed", seed, "--out", out]
        return Op(key, case, argv, out=out)
    if case.cmd == "capsule":
        poly, vertex = unimodular_polytope(case.poly, case.vertex, rng)
        path = _write(f"{stem}.polytope.json", poly)
        # "=" form: a vertex like "-1,2" would otherwise parse as an option
        argv = ["capsule", "--polytope", path,
                "--vertex=" + ",".join(str(x) for x in vertex), "--seed", seed]
        return Op(key, case, argv)
    fan, _ = fan_variant(fan_of(case.fan), rng)
    path = _write(f"{stem}.fan.json", fan)
    return Op(key, case, [case.cmd, "--fan", path, "--seed", seed])


def make_round(workload, seed, index, rundir, reduced=False):
    """The operations of round `index`: every base case `weight` times, in
    a seeded order.

    Each round draws from its own generator, so round k is the same whether
    or not earlier rounds ran in this process.
    """
    rng = random.Random(f"{workload}:{seed}:{index}")
    order = [c for c in cases(workload, reduced) for _ in range(c.weight)]
    rng.shuffle(order)
    return [make_op(workload, c, rng, rundir, f"r{index:03d}-{i:02d}")
            for i, c in enumerate(order)]


def make_warmup(workload, seed, rep, rundir):
    rng = random.Random(f"{workload}:{seed}:warmup:{rep}")
    return make_op(workload, WARMUP[workload], rng, rundir, f"w{rep}")
