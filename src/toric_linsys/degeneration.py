"""Polytope splits and recursive certificates of toric non-speciality.

A split slices a standard-form polytope along a lattice hyperplane m_i = c
and distributes the points between the two sides; when the recorded
hypotheses hold, non-speciality of the two degenerate systems forces
non-speciality of the original. A certificate is a tree whose internal
nodes are such splits and whose leaves carry a direct rank report with
dim = tedim. Failure to find a certificate proves nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from math import floor

from .lattice import (
    LatticePolytope,
    cone_contains,
    cone_is_smooth,
    jsonable,
    lattice_points,
    normal_fan,
    polytope_from_json,
    polytope_to_json,
)
from .linalg import affine_rank
from .linsys import (
    SpecialityReport,
    analyze_polytope_system,
    derivative_orders,
    normalize_mults,
    truncated_condition_counts,
)
from .rank import RankConfig, TrialEvidence


@dataclass(frozen=True)
class PolytopeSystem:
    polytope: LatticePolytope
    multiplicities: tuple

    def __post_init__(self):
        object.__setattr__(self, "multiplicities",
                           normalize_mults(self.multiplicities))


def ensure_standard_form(p: LatticePolytope):
    """Standard form: full-dimensional, in the first orthant, the origin a
    smooth transitive vertex whose edges run along the coordinate axes."""
    n = p.dim
    verts = p.vertices
    if affine_rank(verts) != n:
        raise ValueError("not full-dimensional")
    origin = tuple(Fraction(0) for _ in range(n))
    if any(x < 0 for v in verts for x in v):
        raise ValueError("polytope leaves the first orthant")
    if origin not in verts:
        raise ValueError("origin is not a vertex")
    fan, fan_verts = normal_fan(p)  # raises when a vertex is not simple
    ci = fan_verts.index(origin)
    cone = fan.cone(ci)
    negated = cone.negated()
    if not (cone_is_smooth(cone)
            and all(cone_contains(negated, r) for i, r in enumerate(fan.rays)
                    if i not in fan.max_cones[ci])):
        raise ValueError("origin is not a transitive vertex")
    # the cone at the origin must be spanned by the negative axes
    axes = {tuple(-1 if j == i else 0 for j in range(n)) for i in range(n)}
    if set(cone.rays) != axes:
        raise ValueError("edges at the origin are not along the axes")


def axis_widths(p: LatticePolytope):
    """Integer width of the polytope along each coordinate axis."""
    if not p.vertices:
        return tuple(0 for _ in range(p.dim))
    return tuple(floor(max(v[i] for v in p.vertices)) for i in range(p.dim))


@dataclass(frozen=True)
class SplitSpec:
    axis: int      # 0-based coordinate axis
    level: int     # slice at m_axis = level, 1 <= level <= width
    point_split: int  # first point_split points go to the minus side


@dataclass(frozen=True)
class SplitPieces:
    minus_prev: LatticePolytope   # m_axis <= level - 1, origin stays transitive
    minus: LatticePolytope        # m_axis <= level
    plus_prev: LatticePolytope    # m_axis >= level - 1
    plus: LatticePolytope         # m_axis >= level, level * e_axis transitive
    axis: int
    level: int

    @property
    def plus_anchor(self):
        return tuple(self.level if j == self.axis else 0
                     for j in range(self.plus.dim))


def split_polytope(p: LatticePolytope, axis: int, level: int) -> SplitPieces:
    """The four slab polytopes of a split; no translation is applied."""
    n = p.dim
    width = axis_widths(p)[axis]
    if not 1 <= level <= width:
        raise ValueError("level must satisfy 1 <= level <= width")
    up = tuple(1 if j == axis else 0 for j in range(n))
    down = tuple(-1 if j == axis else 0 for j in range(n))
    return SplitPieces(
        minus_prev=p.with_inequality(up, level - 1),
        minus=p.with_inequality(up, level),
        plus_prev=p.with_inequality(down, -(level - 1)),
        plus=p.with_inequality(down, -level),
        axis=axis,
        level=level,
    )


def delta_c_mu(n: int, axis: int, c: int, mu: int):
    """Order-(mu-1) simplex of derivative indices re-anchored at c e_axis:
    {m >= 0 off-axis, m_axis >= c, sum_{j != axis} m_j + (m_axis - c) <= mu - 1}."""
    shift = tuple(c if j == axis else 0 for j in range(n))
    return tuple(tuple(u[j] + shift[j] for j in range(n))
                 for u in derivative_orders(n, mu))


@dataclass(frozen=True)
class HypothesisTranscript:
    passed: bool
    children_toric_nonspecial: bool
    tvdim_minus: int
    tvdim_plus: int
    product_ok: bool
    shifted_delta_in_plus_ok: bool
    base_delta_in_minus_ok: bool
    witness: tuple | None    # (hypothesis name, point index, order) of first failure


def _containment_witness(n, pieces: SplitPieces, split: SplitSpec, mults):
    """First (hypothesis name, point index, order) whose simplex leaves its
    piece, or None. The shifted simplices of the first point_split points
    must lie in the plus piece, the base simplices of the rest in the
    minus_prev piece."""
    for i, mu in enumerate(mults):
        if i < split.point_split:
            name, piece, level = "shifted_delta_in_plus", pieces.plus, split.level
        else:
            name, piece, level = "base_delta_in_minus", pieces.minus_prev, 0
        for u in delta_c_mu(n, split.axis, level, mu):
            if not piece.contains(u):
                return name, i, u
    return None


def check_hypotheses(p: LatticePolytope, split: SplitSpec, mults,
                     report_minus, report_plus) -> HypothesisTranscript:
    """Literal hypothesis check for one split.

    report_minus / report_plus only need tvdim and toric_special attributes
    (a SpecialityReport or a certificate node both qualify); the minus report
    covers the first point_split multiplicities on the minus-(level-1) piece,
    the plus report the rest on the plus-level piece.
    """
    pieces = split_polytope(p, split.axis, split.level)
    witness = _containment_witness(p.dim, pieces, split, mults)
    name = witness[0] if witness else None
    shifted_ok = name != "shifted_delta_in_plus"
    base_ok = name != "base_delta_in_minus"
    nonspecial = not report_minus.toric_special and not report_plus.toric_special
    product = (report_minus.tvdim + 1) * (report_plus.tvdim + 1)
    product_ok = product >= 0
    return HypothesisTranscript(
        passed=nonspecial and product_ok and shifted_ok and base_ok,
        children_toric_nonspecial=nonspecial,
        tvdim_minus=report_minus.tvdim,
        tvdim_plus=report_plus.tvdim,
        product_ok=product_ok,
        shifted_delta_in_plus_ok=shifted_ok,
        base_delta_in_minus_ok=base_ok,
        witness=witness,
    )


@dataclass(frozen=True)
class CertificateNode:
    """One node of a degeneration certificate.

    The polytope is stored in its own standard position (plus pieces are
    translated back to the origin when they become children). toric_special
    is always False on a valid node; the attribute exists so nodes can stand
    in for reports inside check_hypotheses.
    """

    kind: str                 # "leaf" or "split"
    polytope: LatticePolytope
    mults: tuple
    h0: int
    truncations: tuple
    tvdim: int
    report: SpecialityReport | None = None
    split: SplitSpec | None = None
    transcript: HypothesisTranscript | None = None
    children: tuple | None = None

    @property
    def toric_special(self):
        return False

    def leaves(self):
        if self.kind == "leaf":
            yield self
        else:
            for child in self.children:
                yield from child.leaves()


def _node_stats(polytope, mults):
    pts = lattice_points(polytope)
    h0 = len(pts)
    truncs = truncated_condition_counts(polytope, polytope.dim, mults)
    tvdim = h0 - sum(truncs) - 1
    return h0, truncs, tvdim


def _leaf(polytope, mults, cfg):
    report = analyze_polytope_system(polytope, mults, cfg)
    if report.dim != report.tedim:
        return None
    h0, truncs, tvdim = _node_stats(polytope, mults)
    return CertificateNode("leaf", polytope, tuple(mults), h0, truncs, tvdim,
                           report=report)


def _level_order(width):
    mid = Fraction(width + 1, 2)
    return sorted(range(1, width + 1), key=lambda c: (abs(c - mid), c))


def _split_order(k):
    mid = Fraction(k, 2)
    return sorted(range(1, k), key=lambda s: (abs(s - mid), s))


def _certify(polytope, mults, depth, cfg):
    k = len(mults)
    if k >= 2 and depth > 0:
        widths = axis_widths(polytope)
        n = polytope.dim
        axes = sorted(range(n), key=lambda i: (-widths[i], i))
        for axis in axes:
            if widths[axis] < 1:
                continue
            for level in _level_order(widths[axis]):
                pieces = split_polytope(polytope, axis, level)
                for s in _split_order(k):
                    spec = SplitSpec(axis, level, s)
                    if _containment_witness(n, pieces, spec, mults):
                        continue
                    left = _certify(pieces.minus_prev, mults[:s], depth - 1, cfg)
                    if left is None:
                        continue
                    shift = tuple(-x for x in pieces.plus_anchor)
                    right = _certify(pieces.plus.translate(shift), mults[s:],
                                     depth - 1, cfg)
                    if right is None:
                        continue
                    transcript = check_hypotheses(polytope, spec, mults,
                                                  left, right)
                    if not transcript.passed:
                        continue
                    h0, truncs, tvdim = _node_stats(polytope, mults)
                    return CertificateNode(
                        "split", polytope, tuple(mults), h0, truncs, tvdim,
                        split=spec, transcript=transcript,
                        children=(left, right))
    return _leaf(polytope, mults, cfg)


def certify(system: PolytopeSystem, max_depth: int = 8,
            cfg: RankConfig = RankConfig()):
    """Depth-first search for a degeneration certificate.

    Multiplicities are sorted descending; splits assign the first s of them
    to the minus side. Returns None when inconclusive, which is never a
    proof of speciality.
    """
    ensure_standard_form(system.polytope)
    mults = tuple(sorted(system.multiplicities, reverse=True))
    return _certify(system.polytope, mults, max_depth, cfg)


def verify_certificate(cert: CertificateNode, cfg: RankConfig = RankConfig()) -> bool:
    """Independent re-check: recompute the combinatorics of every node, re-run
    every hypothesis check, and re-run every leaf rank with the given config."""
    try:
        return _verify_node(cert, cfg)
    except (ValueError, KeyError):
        return False


def _verify_node(node: CertificateNode, cfg) -> bool:
    h0, truncs, tvdim = _node_stats(node.polytope, node.mults)
    if (h0, tuple(truncs), tvdim) != (node.h0, tuple(node.truncations), node.tvdim):
        return False
    if node.kind == "leaf":
        if node.report is None or node.report.dim != node.report.tedim:
            return False
        fresh = analyze_polytope_system(node.polytope, node.mults, cfg)
        return fresh.dim == fresh.tedim and fresh.dim == node.report.dim
    if node.kind != "split" or node.split is None or node.children is None:
        return False
    spec = node.split
    widths = axis_widths(node.polytope)
    if not (0 <= spec.axis < node.polytope.dim
            and 1 <= spec.level <= widths[spec.axis]
            and 0 <= spec.point_split <= len(node.mults)):
        return False
    pieces = split_polytope(node.polytope, spec.axis, spec.level)
    left, right = node.children
    if left.mults != node.mults[:spec.point_split]:
        return False
    if right.mults != node.mults[spec.point_split:]:
        return False
    shift = tuple(-x for x in pieces.plus_anchor)
    if sorted(lattice_points(left.polytope)) != sorted(lattice_points(pieces.minus_prev)):
        return False
    if sorted(lattice_points(right.polytope)) != \
            sorted(lattice_points(pieces.plus.translate(shift))):
        return False
    transcript = check_hypotheses(node.polytope, spec, node.mults, left, right)
    if not transcript.passed:
        return False
    return _verify_node(left, cfg) and _verify_node(right, cfg)


# ---------------------------------------------------------------------------
# certificate wire format


def certificate_to_json(node: CertificateNode) -> dict:
    out = {
        "kind": node.kind,
        "polytope": polytope_to_json(node.polytope),
        "mults": list(node.mults),
        "h0": node.h0,
        "truncations": list(node.truncations),
        "tvdim": node.tvdim,
    }
    if node.kind == "leaf":
        # certificates keep samples as [prime, seed, rank] lists, not the
        # dicts that jsonable gives the dim report
        out["report"] = {**jsonable(node.report),
                         "samples": [[ev.prime, ev.seed, ev.rank]
                                     for ev in node.report.samples]}
    else:
        out["split"] = jsonable(node.split)
        out["transcript"] = jsonable(node.transcript)
        out["children"] = [certificate_to_json(c) for c in node.children]
    return out


def _from_fields(cls, obj, **decode):
    """cls from a JSON object with one key per dataclass field; decode maps
    a field name to the function that decodes its value."""
    values = {f.name: obj[f.name] for f in fields(cls)}
    for name, fn in decode.items():
        values[name] = fn(values[name])
    return cls(**values)


def certificate_from_json(obj) -> CertificateNode:
    poly = polytope_from_json(obj["polytope"])
    common = dict(
        kind=obj["kind"],
        polytope=poly,
        mults=tuple(obj["mults"]),
        h0=int(obj["h0"]),
        truncations=tuple(obj["truncations"]),
        tvdim=int(obj["tvdim"]),
    )
    if obj["kind"] == "leaf":
        report = _from_fields(
            SpecialityReport, obj["report"],
            samples=lambda ss: tuple(TrialEvidence(*s[:3]) for s in ss))
        return CertificateNode(report=report, **common)
    transcript = _from_fields(
        HypothesisTranscript, obj["transcript"],
        witness=lambda w: tuple(w) if w else None)
    children = tuple(certificate_from_json(c) for c in obj["children"])
    return CertificateNode(split=_from_fields(SplitSpec, obj["split"]),
                           transcript=transcript, children=children, **common)
