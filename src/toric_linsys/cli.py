"""Single command-line entry point, JSON in / JSON out.

Every subcommand prints exactly one JSON document on stdout and a short
human summary on stderr. Exit codes: 0 ok, 1 input error, 2 genericity
violation, 3 inconclusive, 4 verification failure. All randomness flows
from one seed (flag --seed, env TORIC_LINSYS_SEED, default 0), echoed in
every report so runs are reproducible bit for bit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import catalog
from .cox import (
    build_presentation,
    divisor_class,
    irrelevant_generators,
    section_polytope,
    to_standard_form,
)
from .degeneration import (
    PolytopeSystem,
    certificate_from_json,
    certificate_to_json,
    certify,
    split_polytope,
    verify_certificate,
)
from .fan_analysis import (
    demazure_roots,
    fan_symmetries,
    transitive_cones,
    vertex_capsule,
)
from .lattice import (
    Fan,
    LatticePolytope,
    fan_from_json,
    fan_to_json,
    jsonable,
    lattice_points,
    polytope_from_json,
    polytope_to_json,
    validate_fan,
)
from .linsys import GenericityError, analyze_polytope_system
from .rank import RankConfig

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_GENERICITY = 2
EXIT_INCONCLUSIVE = 3
EXIT_VERIFICATION = 4


class InputError(ValueError):
    def __init__(self, message, path=None):
        super().__init__(message)
        self.path = path


def emit(doc, args, summary=None):
    text = json.dumps(jsonable(doc), sort_keys=True)
    print(text)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    if summary:
        print(summary, file=sys.stderr)


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read input: {exc}", path)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON: {exc}", path)


def load_fan(args) -> Fan:
    if getattr(args, "example", None):
        try:
            return catalog.example_fan(args.example)
        except ValueError as exc:
            raise InputError(str(exc))
    if getattr(args, "fan", None):
        try:
            return fan_from_json(_load_json(args.fan))
        except ValueError as exc:
            raise InputError(str(exc), args.fan)
    raise InputError("need --fan FILE or --example SPEC")


def load_polytope(args) -> LatticePolytope:
    if getattr(args, "example", None):
        try:
            return catalog.example_polytope(args.example)
        except ValueError as exc:
            raise InputError(str(exc))
    if getattr(args, "polytope", None):
        try:
            return polytope_from_json(_load_json(args.polytope))
        except ValueError as exc:
            raise InputError(str(exc), args.polytope)
    raise InputError("need --polytope FILE or --example SPEC")


def presentation_for(fan) -> tuple:
    verdict = transitive_cones(fan)
    if not verdict:
        raise InputError("fan is not quasi-transitive")
    return verdict, build_presentation(verdict)


def parse_int_list(text):
    try:
        return tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError as exc:
        raise InputError(f"malformed integer list '{text}': {exc}")


def standard_coeffs_from(args, verdict, cp) -> tuple:
    if getattr(args, "divisor", None):
        obj = _load_json(args.divisor)
        return _standard_from_obj(obj, verdict, cp, args.divisor)
    if getattr(args, "cls", None):
        coeffs = parse_int_list(args.cls)
        if len(coeffs) != cp.class_rank:
            raise InputError(
                f"--class needs {cp.class_rank} coefficients, got {len(coeffs)}")
        return coeffs
    raise InputError("need --divisor FILE or --class LIST")


def _int_tuple(value, what, path=None):
    """A JSON list of integers as a tuple; anything else is an input error."""
    if not isinstance(value, list) or any(type(x) is not int for x in value):
        raise InputError(f"{what} must be a list of integers", path)
    return tuple(value)


def _standard_from_obj(obj, verdict, cp, path=None):
    if not isinstance(obj, dict):
        raise InputError("divisor must be a JSON object", path)
    if "standard" in obj:
        coeffs = _int_tuple(obj["standard"], "'standard'", path)
        if len(coeffs) != cp.class_rank:
            raise InputError(
                f"standard divisor needs {cp.class_rank} coefficients", path)
        return coeffs
    if "coeffs" in obj:
        coeffs = _int_tuple(obj["coeffs"], "'coeffs'", path)
        if len(coeffs) != cp.num_rays:
            raise InputError(
                f"divisor needs {cp.num_rays} coefficients", path)
        permuted = tuple(coeffs[old] for old in verdict.ray_order)
        return to_standard_form(cp, permuted)
    raise InputError("divisor object needs 'coeffs' or 'standard'", path)


def rank_config(args, seed_offset=0, overrides=None) -> RankConfig:
    """The rank flags, with entries of a sweep job's "cfg" object taking
    precedence over them. Counts and the seed must be integers and exact a
    boolean; nothing is converted."""
    cfg = {"trials": args.trials, "prime_bits": args.prime_bits,
           "seed": args.seed, "exact": args.exact, **(overrides or {})}
    for key in ("trials", "prime_bits", "seed"):
        if type(cfg[key]) is not int:
            raise InputError(f"'{key}' must be an integer")
    if type(cfg["exact"]) is not bool:
        raise InputError("'exact' must be true or false")
    return RankConfig(trials=cfg["trials"], prime_bits=cfg["prime_bits"],
                      seed=cfg["seed"] + seed_offset, exact=cfg["exact"])


def load_system(args):
    """Resolve a linear system into (polytope, mults, description)."""
    if getattr(args, "system", None):
        obj = _load_json(args.system)
        return system_from_obj(obj, args.system)
    if getattr(args, "example", None):
        fan = load_fan(args)
        verdict, cp = presentation_for(fan)
        coeffs = standard_coeffs_from(args, verdict, cp)
        if getattr(args, "mults", None) is None:
            raise InputError("need --mults LIST")
        mults = parse_int_list(args.mults)
        sec = section_polytope(cp, coeffs)
        desc = {"divisor_standard": list(coeffs), "example": args.example}
        return sec.polytope, mults, desc
    raise InputError("need --system FILE or --example plus --class/--mults")


def system_from_obj(obj, path=None):
    if not isinstance(obj, dict):
        raise InputError("system must be a JSON object", path)
    mults = _int_tuple(obj.get("multiplicities", []), "'multiplicities'", path)
    if "polytope" in obj:
        try:
            poly = polytope_from_json(obj["polytope"])
        except ValueError as exc:
            raise InputError(str(exc), path)
        return poly, mults, {"polytope": obj["polytope"]}
    if "fan" in obj:
        try:
            fan = fan_from_json(obj["fan"])
        except ValueError as exc:
            raise InputError(str(exc), path)
        verdict = transitive_cones(fan)
        if not verdict:
            raise InputError("fan is not quasi-transitive", path)
        cp = build_presentation(verdict)
        div = obj.get("divisor")
        if div is None:
            raise InputError("system object needs a divisor", path)
        coeffs = _standard_from_obj(div, verdict, cp, path)
        sec = section_polytope(cp, coeffs)
        return sec.polytope, mults, {"divisor_standard": list(coeffs)}
    raise InputError("system object needs 'fan' or 'polytope'", path)


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args):
    fan = load_fan(args)
    report = validate_fan(fan, samples=args.samples, seed=args.seed)
    emit(report, args,
         f"valid={report.valid} complete={report.complete} smooth={report.smooth}")
    return EXIT_OK


def cmd_transitive(args):
    fan = load_fan(args)
    verdict = transitive_cones(fan)
    doc = {
        "transitive_cone_indices": list(verdict.transitive_cone_indices),
        "quasi_transitive": bool(verdict),
        "normalized_fan": fan_to_json(verdict.normalized_fan) if verdict else None,
        "basis_change": [list(r) for r in verdict.basis_change] if verdict else None,
        "ray_order": list(verdict.ray_order) if verdict else None,
    }
    emit(doc, args, f"{len(verdict.transitive_cone_indices)} transitive cone(s)")
    return EXIT_OK


def cmd_roots(args):
    fan = load_fan(args)
    roots = demazure_roots(fan)
    per_ray = {}
    for root in roots:
        per_ray.setdefault(root.ray_index, []).append(list(root.m))
    doc = {
        "count": len(roots),
        "per_ray": {str(i): per_ray.get(i, []) for i in range(len(fan.rays))},
        "aut_dimension": fan.rank + len(roots),
    }
    emit(doc, args, f"{len(roots)} Demazure roots")
    return EXIT_OK


def cmd_symmetries(args):
    fan = load_fan(args)
    syms = fan_symmetries(fan)
    doc = {"count": len(syms),
           "matrices": [[list(row) for row in a] for a in syms]}
    emit(doc, args, f"{len(syms)} fan symmetries")
    return EXIT_OK


def cmd_capsule(args):
    poly = load_polytope(args)
    if args.vertex is None:
        raise InputError("need --vertex LIST")
    vertex = parse_int_list(args.vertex)
    result = vertex_capsule(poly, vertex)
    emit(result, args,
         f"contains_polytope={result.contains_polytope} certified={result.certified}")
    return EXIT_OK


def cmd_cox(args):
    fan = load_fan(args)
    verdict, cp = presentation_for(fan)
    doc = {
        "ray_matrix": [list(r) for r in cp.ray_matrix],
        "grading_matrix": [list(r) for r in cp.grading_matrix],
        "class_rank": cp.class_rank,
        "ray_order": list(verdict.ray_order),
        "irrelevant_generators": [sorted(g) for g in
                                  irrelevant_generators(cp.fan)],
    }
    emit(doc, args, f"class rank {cp.class_rank}")
    return EXIT_OK


def cmd_h0(args):
    fan = load_fan(args)
    verdict, cp = presentation_for(fan)
    coeffs = standard_coeffs_from(args, verdict, cp)
    sec = section_polytope(cp, coeffs)
    doc = {"h0": sec.h0,
           "divisor_standard": list(coeffs),
           "class": list(divisor_class(cp, (0,) * cp.rank + coeffs))}
    if args.points:
        doc["lattice_points"] = [list(m) for m in sec.points]
    emit(doc, args, f"h0 = {sec.h0}")
    return EXIT_OK


def cmd_dim(args):
    poly, mults, desc = load_system(args)
    cfg = rank_config(args)
    report = analyze_polytope_system(poly, mults, cfg)
    doc = jsonable(report)
    doc.update(desc)
    emit(doc, args,
         f"dim={report.dim} edim={report.edim} tedim={report.tedim} "
         f"special={report.special} toric_special={report.toric_special}")
    return EXIT_OK


def cmd_split(args):
    poly = load_polytope(args)
    pieces = split_polytope(poly, args.axis, args.level)
    def piece_doc(p):
        return {"polytope": polytope_to_json(p),
                "lattice_point_count": len(lattice_points(p))}
    doc = {
        "axis": pieces.axis,
        "level": pieces.level,
        "minus_prev": piece_doc(pieces.minus_prev),
        "minus": piece_doc(pieces.minus),
        "plus_prev": piece_doc(pieces.plus_prev),
        "plus": piece_doc(pieces.plus),
        "plus_anchor": list(pieces.plus_anchor),
    }
    emit(doc, args, f"split axis {pieces.axis} at level {pieces.level}")
    return EXIT_OK


def cmd_certify(args):
    poly, mults, desc = load_system(args)
    cfg = rank_config(args)
    try:
        cert = certify(PolytopeSystem(poly, mults), max_depth=args.max_depth,
                       cfg=cfg)
    except ValueError as exc:
        raise InputError(str(exc))
    if cert is None:
        emit({"status": "inconclusive", "certificate": None}, args,
             "no certificate found (not a proof of speciality)")
        return EXIT_INCONCLUSIVE
    doc = {"status": "certified", "certificate": certificate_to_json(cert)}
    emit(doc, args, "toric non-speciality certified")
    return EXIT_OK


def cmd_verify(args):
    if not args.certificate:
        raise InputError("need --certificate FILE")
    obj = _load_json(args.certificate)
    if isinstance(obj, dict) and "certificate" in obj:
        obj = obj["certificate"]
    try:
        cert = certificate_from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed certificate: {exc}", args.certificate)
    cfg = rank_config(args)
    ok = verify_certificate(cert, cfg)
    emit({"verified": ok}, args, f"verified={ok}")
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_sweep(args):
    if not args.job:
        raise InputError("need --job FILE")
    job = _load_json(args.job)
    if not isinstance(job, dict):
        raise InputError("job must be a JSON object", args.job)
    tasks = job.get("tasks", [])
    if not isinstance(tasks, list):
        raise InputError("'tasks' must be a list", args.job)
    if not tasks:
        raise InputError("empty task list", args.job)
    base_cfg = job.get("cfg", {})
    if not isinstance(base_cfg, dict):
        raise InputError("'cfg' must be an object", args.job)
    lines = []
    counts = {"total": 0, "ok": 0, "failed": 0, "special": 0,
              "toric_special": 0}
    for idx, task in enumerate(tasks):
        counts["total"] += 1
        label = f"task-{idx}"
        if isinstance(task, dict):
            label = task.get("label", label)
        record = {"label": label}
        try:
            if not isinstance(task, dict):
                raise InputError("task must be a JSON object")
            poly, mults, desc = system_from_obj(task.get("system", task))
            cfg = rank_config(args, idx, base_cfg)
            report = analyze_polytope_system(poly, mults, cfg)
            record["report"] = jsonable(report)
            counts["ok"] += 1
            if report.special:
                counts["special"] += 1
            if report.toric_special:
                counts["toric_special"] += 1
        except (InputError, GenericityError, ValueError) as exc:
            record["error"] = str(exc)
            counts["failed"] += 1
        lines.append(record)
    if args.out:
        with open(args.out, "w") as fh:
            for record in lines:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(counts, sort_keys=True))
    for record in lines if not args.out else []:
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
    print(f"{counts['ok']}/{counts['total']} systems analyzed, "
          f"{counts['special']} special, {counts['toric_special']} toric special",
          file=sys.stderr)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="toric-linsys",
        description="Exact toolkit for symmetries and point-multiplicity "
                    "linear systems on complete simplicial toric varieties.")
    sub = parser.add_subparsers(dest="command", required=True)

    env_seed = os.environ.get("TORIC_LINSYS_SEED", "0")
    try:
        default_seed = int(env_seed)
    except ValueError:
        raise ValueError(
            f"TORIC_LINSYS_SEED must be an integer, got {env_seed!r}") from None

    def common(p, fan=False, polytope=False, system=False, rank=False):
        p.add_argument("--example", help="catalog spec, e.g. pn:2, p1n:7, "
                                         "hirzebruch:1, bl3p2, box:2x1")
        p.add_argument("--out", help="also write the JSON document here")
        p.add_argument("--seed", type=int, default=default_seed)
        if fan:
            p.add_argument("--fan", help="fan JSON file")
        if polytope:
            p.add_argument("--polytope", help="polytope JSON file")
        if system:
            p.add_argument("--system", help="system JSON file")
            p.add_argument("--class", dest="cls",
                           help="standard divisor coefficients, e.g. '2,1'")
            p.add_argument("--divisor", help="divisor JSON file")
            p.add_argument("--mults", help="multiplicities, e.g. '2,2,1'")
            p.add_argument("--fan", help="fan JSON file")
        if rank:
            p.add_argument("--trials", type=int, default=5)
            p.add_argument("--prime-bits", type=int, default=61,
                           dest="prime_bits")
            p.add_argument("--exact", action="store_true")

    p = sub.add_parser("validate", help="fan invariant report")
    common(p, fan=True)
    p.add_argument("--samples", type=int, default=128)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("transitive", help="transitive cones and normalization")
    common(p, fan=True)
    p.set_defaults(func=cmd_transitive)

    p = sub.add_parser("roots", help="Demazure roots per ray")
    common(p, fan=True)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("symmetries", help="unimodular fan symmetries")
    common(p, fan=True)
    p.set_defaults(func=cmd_symmetries)

    p = sub.add_parser("capsule", help="convex capsule test at a vertex")
    common(p, polytope=True)
    p.add_argument("--vertex", help="vertex coordinates, e.g. '0,1'")
    p.set_defaults(func=cmd_capsule)

    p = sub.add_parser("cox", help="Cox presentation matrices")
    common(p, fan=True)
    p.set_defaults(func=cmd_cox)

    p = sub.add_parser("h0", help="section count of a divisor class")
    common(p, fan=True)
    p.add_argument("--divisor", help="divisor JSON file")
    p.add_argument("--class", dest="cls",
                   help="standard divisor coefficients, e.g. '2,1'")
    p.add_argument("--points", action="store_true",
                   help="include the lattice points")
    p.set_defaults(func=cmd_h0)

    p = sub.add_parser("dim", help="speciality report of a linear system")
    common(p, system=True, rank=True)
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("split", help="slab polytopes of a degeneration split")
    common(p, polytope=True)
    p.add_argument("--axis", type=int, required=True)
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("certify", help="search a toric non-speciality certificate")
    common(p, system=True, rank=True)
    p.add_argument("--max-depth", type=int, default=8, dest="max_depth")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("verify", help="re-check a certificate")
    common(p, rank=True)
    p.add_argument("--certificate", help="certificate JSON file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="batch analyze a grid of systems")
    common(p, rank=True)
    p.add_argument("--job", help="job JSON file with a 'tasks' list")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(json.dumps({"error": str(exc), "path": exc.path},
                         sort_keys=True))
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except GenericityError as exc:
        print(json.dumps({"error": str(exc), "path": None}, sort_keys=True))
        print(f"genericity violation: {exc}", file=sys.stderr)
        return EXIT_GENERICITY
    except ValueError as exc:
        print(json.dumps({"error": str(exc), "path": None}, sort_keys=True))
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
