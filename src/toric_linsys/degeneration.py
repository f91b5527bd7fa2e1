"""Polytope splits and recursive certificates of toric non-speciality.

A split slices a standard-form polytope along a lattice hyperplane m_i = c
and distributes the points between the two sides; when the recorded
hypotheses hold, non-speciality of the two degenerate systems forces
non-speciality of the original. A certificate is a tree whose internal
nodes are such splits and whose leaves carry a direct rank report with
dim = tedim. Failure to find a certificate proves nothing.

A split sends each point to one piece and needs its simplex of orders to
fit there, so a split that passes loses no condition. Hence `certify` ranks
the root first: when the root's own trials fall short, no certificate can
exist, and none is searched for. `verify` re-proves a leaf with its first
trial alone when that trial reaches full rank.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields, replace
from functools import cached_property

from .lattice import (
    LatticePolytope,
    json_ints,
    json_typed,
    jsonable,
    lattice_points,
    polytope_from_json,
)
from .linsys import (
    SpecialityReport,
    analyze_polytope_system,
    derivative_orders,
    normalize_mults,
    toric_counts,
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
    """Raise ValueError unless the polytope is a bounded, full-dimensional
    orthant down-set: a `_staircase` at lo = 0 with offsets >= any(normal)
    (> 0 on nonzero rows), or else, by `LatticePolytope.facets`, normals -e_i
    at the origin and >= 0 elsewhere. A vertex may lie on more than n facets."""
    stair = p._staircase()
    if stair and not any(stair[0]) and all(off >= any(nv) for nv, off in stair[1]):
        return
    n = p.dim
    p.require_full_dimensional()
    if any(x < 0 for v in p.vertices for x in v):
        raise ValueError("polytope leaves the first orthant")
    at_origin = p.incidence.get((0,) * n)
    if at_origin is None:
        raise ValueError("origin is not a vertex")
    axes = {tuple(-(j == i) for j in range(n)) for i in range(n)}
    if {p.facets[i] for i in at_origin if i in p.facets} != axes:
        raise ValueError("edges at the origin are not along the axes")
    if any(min(nv) < 0 for i, nv in p.facets.items() if i not in at_origin):
        raise ValueError("origin is not a transitive vertex")


def axis_widths(p: LatticePolytope):
    """Integer width of the polytope along each coordinate axis: the top of
    its bounding box, zeros when it is empty."""
    box = p.bounding_box()
    return box[1] if box else (0,) * p.dim


@dataclass(frozen=True)
class SplitSpec:
    axis: int      # 0-based coordinate axis
    level: int     # slice at m_axis = level, 1 <= level <= width
    point_split: int  # mults[:point_split] go to minus_prev, the rest to plus


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

    @cached_property
    def plus_child(self):
        """The plus piece translated to put its anchor at the origin, built
        once per split so its points are enumerated once."""
        return self.plus.translate(tuple(-x for x in self.plus_anchor))


def split_polytope(p: LatticePolytope, axis: int, level: int) -> SplitPieces:
    """The four slab polytopes of a split; no translation is applied."""
    n = p.dim
    if not 0 <= axis < n:
        raise ValueError(f"axis must satisfy 0 <= axis < {n}")
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


def _child_systems(pieces: SplitPieces, split: SplitSpec, mults):
    """(polytope, mults) of the minus and plus children; `_containment_witness`
    tests each point's simplex in the piece this assigns it to."""
    s = split.point_split
    return (pieces.minus_prev, mults[:s]), (pieces.plus_child, mults[s:])


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


def _simplex_fits(piece: LatticePolytope, axis: int, c: int, mu: int) -> bool:
    """Whether delta_c_mu(n, axis, c, mu) lies in the convex piece: iff its
    vertices do, the corner c e_axis (j = -1) and the corner + (mu - 1) e_j."""
    return all(piece.contains(tuple(c * (i == axis) + (mu - 1) * (i == j)
                                    for i in range(piece.dim)))
               for j in range(-1, piece.dim if mu > 1 else 0))


def _containment_witness(pieces: SplitPieces, split: SplitSpec, mults,
                         first_out=None):
    """First (hypothesis name, point index, order) whose simplex leaves its
    piece, or None: base simplices of the first point_split points in
    minus_prev, shifted ones of the rest in plus, as `_child_systems` assigns
    them; first_out holds it per (name, mu)."""
    first_out = {} if first_out is None else first_out
    for i, mu in enumerate(mults):
        if i < split.point_split:
            name, piece, level = "base_delta_in_minus", pieces.minus_prev, 0
        else:
            name, piece, level = "shifted_delta_in_plus", pieces.plus, split.level
        if (name, mu) not in first_out:
            first_out[name, mu] = None if _simplex_fits(
                piece, split.axis, level, mu) else next(
                u for u in delta_c_mu(piece.dim, split.axis, level, mu)
                if not piece.contains(u))
        if first_out[name, mu] is not None:
            return name, i, first_out[name, mu]
    return None


def check_hypotheses(p: LatticePolytope, split: SplitSpec, mults,
                     report_minus, report_plus) -> HypothesisTranscript:
    """Literal hypothesis check for one split.

    report_minus / report_plus only need tvdim and toric_special attributes
    (a SpecialityReport or a certificate node both qualify); they describe
    the two systems of `_child_systems`, in that order.

    A point imposes its conditions on the piece it is assigned to: the
    first point_split points on minus_prev, at the origin, the rest on plus,
    at level * e_axis. They count there in full, as in the whole polytope,
    only if the point's simplex of orders |u| < mu fits that piece (the base
    simplex in minus_prev, the shifted one in plus); a simplex that sticks
    out loses the orders outside, and the children would then undercount
    the original conditions. So both containments are hypotheses, and with
    them the children's truncations add up to the polytope's.
    """
    return _check_split(split_polytope(p, split.axis, split.level), split,
                        mults, report_minus, report_plus)


def _check_split(pieces: SplitPieces, split: SplitSpec, mults, report_minus,
                 report_plus) -> HypothesisTranscript:
    """check_hypotheses on pieces that split_polytope has already built."""
    witness = _containment_witness(pieces, split, mults)
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


def _analyze(polytope, mults, cfg, memo):
    """analyze_polytope_system once per (cfg, dim, points, mults), all it
    reads; the points come through lattice_points, as traced runs expect."""
    key = (cfg, polytope.dim, tuple(lattice_points(polytope)), tuple(mults))
    if key not in memo:
        memo[key] = analyze_polytope_system(polytope, mults, cfg)
    return memo[key]


def _leaf(polytope, mults, cfg, memo):
    report = _analyze(polytope, mults, cfg, memo)
    if report.dim != report.tedim:
        return None
    return CertificateNode("leaf", polytope, tuple(mults),
                           *toric_counts(polytope, mults), report=report)


def _split_node(polytope, mults, pieces, spec, children):
    """The split node over two children, or None if its hypotheses fail."""
    transcript = _check_split(pieces, spec, mults, *children)
    if not transcript.passed:
        return None
    return CertificateNode("split", polytope, tuple(mults),
                           *toric_counts(polytope, mults), split=spec,
                           transcript=transcript, children=children)


def _middle_out(k):
    """1 .. k - 1 from the middle out, the lower first on a tie."""
    return sorted(range(1, k), key=lambda s: (abs(2 * s - k), s))


def _certify(polytope, mults, depth, cfg, memo):
    """Certificate within depth splits, or None. A split is skipped before
    its children are searched when a simplex leaves its piece or when
    (tvdim_minus + 1)(tvdim_plus + 1) < 0: the children's nodes would carry
    those tvdims and fail product_ok, so splits are tried in the same order
    and the first that passes, hence every certificate, stays the same."""
    k = len(mults)
    if k >= 2 and depth > 0:
        widths = axis_widths(polytope)
        axes = sorted(range(polytope.dim), key=lambda i: (-widths[i], i))
        for axis in axes:  # no level of a width-0 axis
            for level in _middle_out(widths[axis] + 1):
                pieces = split_polytope(polytope, axis, level)
                first_out = {}  # per (side, mu): the same for every s here
                for s in _middle_out(k):
                    spec = SplitSpec(axis, level, s)
                    if _containment_witness(pieces, spec, mults, first_out):
                        continue
                    minus, plus = _child_systems(pieces, spec, mults)
                    if (toric_counts(*minus)[2] + 1) * \
                            (toric_counts(*plus)[2] + 1) < 0:
                        continue
                    left = _certify(*minus, depth - 1, cfg, memo)
                    if left is None:
                        continue
                    right = _certify(*plus, depth - 1, cfg, memo)
                    if right is not None:  # passes: both prunes held
                        return _split_node(polytope, mults, pieces, spec,
                                           (left, right))
    return _leaf(polytope, mults, cfg, memo)


def certify(system: PolytopeSystem, max_depth: int = 8,
            cfg: RankConfig = RankConfig()):
    """Depth-first search for a degeneration certificate.

    The polytope must pass `ensure_standard_form`. Multiplicities are sorted
    descending; splits assign the first s of them to the minus side. A split
    whose tvdim product is negative is skipped before its children are
    searched; see `_certify`. Returns None when inconclusive, which is never
    a proof of speciality.

    The root is screened first: its first trial alone, then, if that falls
    short, its full analysis, the one the search would end with. When that
    says dim > tedim, no split is built: a split conserves conditions
    (`check_hypotheses`), so a certificate would prove what the root's own
    trials refute, short of a trial failure. Otherwise the search runs as
    it would unscreened and returns the same certificate; the screen costs
    it one root trial.
    """
    ensure_standard_form(system.polytope)
    polytope = system.polytope
    mults = tuple(sorted(system.multiplicities, reverse=True))
    memo = {}
    if all(_analyze(polytope, mults, c, memo).toric_special
           for c in (replace(cfg, trials=1), cfg)):
        return None
    return _certify(polytope, mults, max_depth, cfg, memo)


def verify_certificate(cert: CertificateNode, cfg: RankConfig = RankConfig()) -> bool:
    """Independent re-check with the given config. The root must pass
    `ensure_standard_form`, and every node must equal its rebuild
    (`_verify_node`):
    - every split conserves conditions: its children's truncations, in
      mults order, are its own;
    - every split's transcript equals the recomputed one;
    - every leaf is re-proved by its first sufficient trial: the first trial
      alone when it reaches rank h0 - tedim - 1, else all cfg.trials.
    No trial rank exceeds h0 - tedim - 1 on a down-set, so a first trial
    that reaches it fixes every compared field, and the leaves accepted are
    those that all cfg.trials would accept."""
    try:
        ensure_standard_form(cert.polytope)
        return _verify_node(cert, cfg, {})
    except (ValueError, KeyError):
        return False


def _verify_node(node: CertificateNode, cfg, memo) -> bool:
    """The node equals its rebuild by `_leaf` (samples, seed and mode aside)
    or `_split_node`, and its children hold `_child_systems`, conserve its
    truncations and pass."""
    if node.kind == "leaf":
        fresh = _leaf(node.polytope, node.mults, replace(cfg, trials=1),
                      memo) or _leaf(node.polytope, node.mults, cfg, memo)
        stored = node.report
        return fresh is not None and stored is not None and node == replace(
            fresh, report=replace(fresh.report, samples=stored.samples,
                                  seed=stored.seed, mode=stored.mode))
    spec = node.split
    if node.kind != "split" or spec is None or node.children is None:
        return False
    left, right = node.children  # not two children: ValueError
    if not 0 <= spec.point_split <= len(node.mults):
        return False
    # an axis or level out of range raises ValueError: not verified
    pieces = split_polytope(node.polytope, spec.axis, spec.level)
    systems = _child_systems(pieces, spec, node.mults)
    # point lists are sorted, so equal sets give equal lists
    if [(c.mults, lattice_points(c.polytope)) for c in (left, right)] != \
            [(m, lattice_points(q)) for q, m in systems] or \
            left.truncations + right.truncations != node.truncations:
        return False
    return node == _split_node(node.polytope, node.mults, pieces, spec,
                               node.children) and \
        _verify_node(left, cfg, memo) and _verify_node(right, cfg, memo)


# ---------------------------------------------------------------------------
# certificate wire format


def certificate_to_json(node: CertificateNode) -> dict:
    return jsonable(_certificate_doc(node))


def _certificate_doc(node: CertificateNode) -> dict:
    """The certificate tree as values for one `jsonable` pass."""
    out = {"kind": node.kind, "polytope": node.polytope, "mults": node.mults,
           "h0": node.h0, "truncations": node.truncations,
           "tvdim": node.tvdim}
    if node.kind == "leaf":
        # certificates keep samples as [prime, seed, rank] lists, not the
        # dicts that jsonable gives the dim report
        out["report"] = replace(node.report, samples=tuple(
            astuple(ev) for ev in node.report.samples))
    else:
        out["split"] = node.split
        out["transcript"] = node.transcript
        out["children"] = [_certificate_doc(c) for c in node.children]
    return out


def _json_samples(ss) -> tuple:
    if not isinstance(ss, list) or any(not isinstance(s, list) or list(
            map(type, s)) not in ([int] * 3, [type(None), int, int]) for s in ss):
        raise ValueError("'samples' must be [prime or null, seed, rank] lists")
    return tuple(TrialEvidence(*s) for s in ss)


def _from_fields(cls, obj, **decode):
    """cls from a JSON object with one key per dataclass field, each of a JSON
    type its annotation allows; decode maps field names to value decoders."""
    values = {f.name: obj[f.name] for f in fields(cls)}
    for f in fields(cls):
        json_typed(values[f.name], f.name, f.type)
    values.update((name, fn(values[name])) for name, fn in decode.items())
    return cls(**values)


def certificate_from_json(obj) -> CertificateNode:
    if obj["kind"] not in ("leaf", "split"):
        raise ValueError("'kind' must be \"leaf\" or \"split\"")
    common = dict(
        kind=obj["kind"],
        polytope=polytope_from_json(obj["polytope"]),
        mults=json_ints(obj["mults"], "mults"),
        h0=json_typed(obj["h0"], "h0"),
        truncations=json_ints(obj["truncations"], "truncations"),
        tvdim=json_typed(obj["tvdim"], "tvdim"),
    )
    if obj["kind"] == "leaf":
        report = _from_fields(SpecialityReport, obj["report"],
                              samples=_json_samples)
        return CertificateNode(report=report, **common)
    transcript = _from_fields(
        HypothesisTranscript, obj["transcript"],
        witness=lambda w: tuple(w) if w else None)
    children = tuple(certificate_from_json(c) for c in obj["children"])
    split = _from_fields(SplitSpec, obj["split"])
    return CertificateNode(split=split, transcript=transcript,
                           children=children, **common)
