"""Span tracing of the program's layers from outside the package.

`Tracer.install` replaces each traced function with a wrapper in every
`toric_linsys` module that binds it (modules import by name, e.g.
`from .rank import rank_mod_p`), and `LatticePolytope.bounding_box` on the
class. A span records (name, start, end, parent span, operation id); spans
stay in memory until the run ends. Self time is a span's duration minus the
durations of its direct children. Counters are taken at the same boundaries
from the arguments and results of the traced calls.
"""

from __future__ import annotations

import gzip
import math
import sys
from collections import defaultdict
from time import perf_counter

# (module, function) pairs; the span name is "<module>.<function>", except
# the CLI entry point, whose span is "cli".
TRACED = (
    ("linalg", "lp_solve"), ("linalg", "solve_unique"),
    ("lattice", "lattice_points"), ("lattice", "validate_fan"),
    ("lattice", "normal_fan"),
    ("fan_analysis", "transitive_cones"), ("fan_analysis", "demazure_roots"),
    ("fan_analysis", "fan_symmetries"), ("fan_analysis", "vertex_capsule"),
    ("cox", "build_presentation"), ("cox", "section_polytope"),
    ("linsys", "build_point_matrix"), ("linsys", "analyze_polytope_system"),
    ("rank", "rank_mod_p"), ("rank", "rank_exact"),
    ("degeneration", "certify"), ("degeneration", "verify_certificate"),
    ("degeneration", "ensure_standard_form"), ("degeneration", "split_polytope"),
    ("degeneration", "check_hypotheses"),
    ("cli", "main"),
)

SEARCHES = ("degeneration.certify", "degeneration.verify_certificate")


def is_staircase(poly):
    """Every normal is -e_i with offset 0, or nonnegative."""
    for nv, off in zip(poly.normals, poly.offsets):
        if all(x >= 0 for x in nv):
            continue
        if off == 0 and sorted(nv) == [-1] + [0] * (len(nv) - 1):
            continue
        return False
    return True


class Tracer:
    def __init__(self):
        self.spans = []           # [name, start, end, parent, op]
        self.stack = []
        self.op = None
        self.op_factor = {}       # op id -> speed factor of its round
        self.count = defaultdict(int)
        self.maxima = defaultdict(int)
        self.seen_polytopes = set()

    # -- recording -------------------------------------------------------

    def wrap(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result, parent)
            return result

        return traced

    def install(self):
        """Wrap every traced function in every module that binds it."""
        pkg = "toric_linsys"
        mods = [m for k, m in sys.modules.items()
                if k == pkg or k.startswith(pkg + ".")]
        for modname, fname in TRACED:
            module = sys.modules[f"{pkg}.{modname}"]
            original = getattr(module, fname)
            span = "cli" if modname == "cli" else f"{modname}.{fname}"
            wrapped = self.wrap(span, original, getattr(self, f"_after_{fname}", None))
            for m in mods:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)
        poly_cls = sys.modules[f"{pkg}.lattice"].LatticePolytope
        poly_cls.bounding_box = self.wrap("lattice.bounding_box",
                                          poly_cls.bounding_box,
                                          self._after_bounding_box)

    def _parent_name(self, parent):
        return self.spans[parent][0] if parent >= 0 else None

    def _after_lattice_points(self, args, result, parent):
        poly = args[0]
        self.count["points_returned"] += len(result)
        self.count["staircase"] += is_staircase(poly)
        if poly in self.seen_polytopes:
            self.count["repeat"] += 1
        else:
            self.seen_polytopes.add(poly)

    def _after_bounding_box(self, args, result, parent):
        # only the boxes lattice_points scans; normal_fan also asks for one
        if result is not None and \
                self._parent_name(parent) == "lattice.lattice_points":
            lo, hi = result
            self.count["box_cells"] += math.prod(b - a + 1 for a, b in zip(lo, hi))

    def _after_demazure_roots(self, args, result, parent):
        self.count["roots_found"] += len(result)

    def _after_fan_symmetries(self, args, result, parent):
        fan = args[0]
        self.count["symmetry_candidates"] += \
            len(fan.max_cones) * math.factorial(fan.rank)
        self.count["symmetries_found"] += len(result)

    def _after_build_point_matrix(self, args, result, parent):
        rows = len(result.rows)
        cols = len(result.columns)
        self.count["matrix_entries"] += rows * cols
        self.maxima["rows"] = max(self.maxima["rows"], rows)
        self.maxima["cols"] = max(self.maxima["cols"], cols)

    def _after_rank(self, args, result, parent):
        rows = args[0]
        self.count["elim_ops"] += len(rows) * (len(rows[0]) if rows else 0) * result

    _after_rank_mod_p = _after_rank
    _after_rank_exact = _after_rank

    def _after_analyze_polytope_system(self, args, result, parent):
        if self._parent_name(parent) in SEARCHES:
            self.count["leaf_rank_calls"] += 1
            self.count["leaf_success"] += result.dim == result.tedim

    # -- results ---------------------------------------------------------

    def self_times(self):
        """Per span name: (calls, self time in reference seconds)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for i, (name, start, end, _, op) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start - child[i]) * self.op_factor[op]
        return calls, self_s

    def metrics(self):
        """Per-layer metrics of everything traced so far, name -> (value, unit)."""
        calls, self_s = self.self_times()
        c = self.count

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for span in ("linalg.lp_solve", "linalg.solve_unique",
                     "lattice.bounding_box", "lattice.lattice_points",
                     "fan_analysis.transitive_cones", "linsys.build_point_matrix",
                     "linsys.analyze_polytope_system", "rank.rank_mod_p",
                     "rank.rank_exact", "degeneration.split_polytope",
                     "degeneration.check_hypotheses"):
            out[f"{span}.calls"] = (calls[span], "count")
        for modname, fname in TRACED:
            span = "cli" if modname == "cli" else f"{modname}.{fname}"
            out[f"{span}.self_s"] = (self_s[span], "s")
        out["lattice.bounding_box.self_s"] = (self_s["lattice.bounding_box"], "s")
        lp_calls = calls["lattice.lattice_points"]
        out["lattice.points_returned"] = (c["points_returned"], "count")
        out["lattice.box_cells_scanned"] = (c["box_cells"], "count")
        out["lattice.point_hit_ratio"] = (ratio(c["points_returned"], c["box_cells"]), "ratio")
        out["lattice.lattice_points.repeat_ratio"] = (ratio(c["repeat"], lp_calls), "ratio")
        out["lattice.staircase_share"] = (ratio(c["staircase"], lp_calls), "ratio")
        out["fan_analysis.roots_found"] = (c["roots_found"], "count")
        out["fan_analysis.symmetry_candidates"] = (c["symmetry_candidates"], "count")
        out["fan_analysis.symmetry_hit_ratio"] = (
            ratio(c["symmetries_found"], c["symmetry_candidates"]), "ratio")
        out["linsys.matrix_entries"] = (c["matrix_entries"], "count")
        out["linsys.matrix_rows_max"] = (self.maxima["rows"], "count")
        out["linsys.matrix_cols_max"] = (self.maxima["cols"], "count")
        out["rank.elim_ops_computed"] = (c["elim_ops"], "count")
        out["degeneration.leaf_rank_calls"] = (c["leaf_rank_calls"], "count")
        out["degeneration.leaf_success_ratio"] = (
            ratio(c["leaf_success"], c["leaf_rank_calls"]), "ratio")
        out["trace.spans"] = (len(self.spans), "count")
        return out

    def dump(self, path):
        """Write the spans as gzipped lines: id name start end parent op."""
        with gzip.open(path, "wt") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i} {name} {start:.9f} {end:.9f} {parent} {op}\n")
