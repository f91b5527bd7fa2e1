"""Single command-line entry point, JSON in / JSON out.

Every subcommand prints exactly one JSON document on stdout and a short
human summary on stderr. Exit codes: 0 ok, 1 input error, 2 genericity
violation, 3 inconclusive, 4 verification failure; a usage error is an
input error. All randomness flows from one seed (flag --seed, env
TORIC_LINSYS_SEED, default 0), echoed in every report so runs are
reproducible bit for bit. The parser is built once per process; `main`
reads and checks TORIC_LINSYS_SEED on every call, even when --seed is given.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from functools import cache

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
    dumps,
    fan_from_json,
    json_ints,
    json_typed,
    jsonable,
    lattice_points,
    polytope_from_json,
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


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors, not argparse's exit 2; subparsers
    inherit this class."""

    def error(self, message):
        raise InputError(message)


def _env_seed() -> int:
    text = os.environ.get("TORIC_LINSYS_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise InputError(
            f"TORIC_LINSYS_SEED must be an integer, got {text!r}") from None


def write_out(args, text):
    """Write text to the --out file, if any, before anything is printed."""
    if getattr(args, "out", None):
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write output: {exc}", args.out)


def emit(doc, args, summary=None):
    text = dumps(doc)
    write_out(args, text + "\n")
    print(text)
    if summary:
        print(summary, file=sys.stderr)


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read input: {exc}", path)
    except (RecursionError, ValueError) as exc:
        # ValueError: bad syntax, invalid UTF-8 or an over-long integer
        raise InputError(f"malformed JSON: {exc}", path)


def _decode(decoder, value, path, *args):
    """decoder(value, *args), a ValueError becoming an input error at path."""
    try:
        return decoder(value, *args)
    except ValueError as exc:
        raise InputError(str(exc), path)


def load_input(args, kind):
    """The fan or polytope (kind "fan" or "polytope") named by --example or
    read from the --fan / --polytope file."""
    example, from_json = {
        "fan": (catalog.example_fan, fan_from_json),
        "polytope": (catalog.example_polytope, polytope_from_json)}[kind]
    if getattr(args, "example", None):
        return _decode(example, args.example, None)
    path = getattr(args, kind, None)
    if path:
        return _decode(from_json, _load_json(path), path)
    raise InputError(f"need --{kind} FILE or --example SPEC")


def presentation_for(fan, path=None) -> tuple:
    verdict = transitive_cones(fan)
    return verdict, _decode(build_presentation, verdict, path)


_INT_TOKEN = re.compile(r"[+-]?[0-9]+")


def _int_token(x):
    """int(x) for an optional sign and ASCII digits, whitespace aside."""
    if not _INT_TOKEN.fullmatch(x.strip()):
        raise ValueError(f"invalid literal for int() with base 10: {x!r}")
    return int(x)


def parse_int_list(text):
    try:
        return tuple(map(_int_token, text.split(",")))
    except ValueError as exc:
        raise InputError(f"malformed integer list '{text}': {exc}")


def parse_vertex(text):
    """Comma-separated integer or p/q coordinates, as Fractions."""
    try:
        return tuple(Fraction(*map(int, x.split("/", 1)))
                     for x in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed vertex '{text}': {exc}")


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


def _standard_from_obj(obj, verdict, cp, path=None):
    if not isinstance(obj, dict):
        raise InputError("divisor must be a JSON object", path)
    if "standard" in obj:
        coeffs = _decode(json_ints, obj["standard"], path, "standard")
        if len(coeffs) != cp.class_rank:
            raise InputError(
                f"standard divisor needs {cp.class_rank} coefficients", path)
        return coeffs
    if "coeffs" in obj:
        coeffs = _decode(json_ints, obj["coeffs"], path, "coeffs")
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
        json_typed(cfg[key], key)
    json_typed(cfg["exact"], "exact", "bool")
    return RankConfig(trials=cfg["trials"], prime_bits=cfg["prime_bits"],
                      seed=cfg["seed"] + seed_offset, exact=cfg["exact"])


def load_system(args):
    """Resolve a linear system into (polytope, mults, description)."""
    if getattr(args, "system", None):
        obj = _load_json(args.system)
        return system_from_obj(obj, args.system)
    if getattr(args, "example", None) or getattr(args, "fan", None):
        fan = load_input(args, "fan")
        verdict, cp = presentation_for(fan)
        coeffs = standard_coeffs_from(args, verdict, cp)
        if getattr(args, "mults", None) is None:
            raise InputError("need --mults LIST")
        mults = parse_int_list(args.mults)
        sec = section_polytope(cp, coeffs)
        desc = {"divisor_standard": coeffs}
        if args.example:
            desc["example"] = args.example
        return sec.polytope, mults, desc
    raise InputError("need --system FILE or --fan/--example plus "
                     "--class/--mults")


def system_from_obj(obj, path=None):
    if not isinstance(obj, dict):
        raise InputError("system must be a JSON object", path)
    mults = _decode(json_ints, obj.get("multiplicities", []), path,
                    "multiplicities")
    if "polytope" in obj:
        poly = _decode(polytope_from_json, obj["polytope"], path)
        return poly, mults, {"polytope": poly}
    if "fan" in obj:
        fan = _decode(fan_from_json, obj["fan"], path)
        verdict, cp = presentation_for(fan, path)
        div = obj.get("divisor")
        if div is None:
            raise InputError("system object needs a divisor", path)
        coeffs = _standard_from_obj(div, verdict, cp, path)
        sec = section_polytope(cp, coeffs)
        return sec.polytope, mults, {"divisor_standard": coeffs}
    raise InputError("system object needs 'fan' or 'polytope'", path)


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args):
    fan = load_input(args, "fan")
    report = validate_fan(fan)
    emit(report, args,
         f"valid={report.valid} complete={report.complete} smooth={report.smooth}")
    return EXIT_OK


def cmd_transitive(args):
    fan = load_input(args, "fan")
    verdict = transitive_cones(fan)
    doc = {**jsonable(verdict), "quasi_transitive": bool(verdict)}
    emit(doc, args, f"{len(verdict.transitive_cone_indices)} transitive cone(s)")
    return EXIT_OK


def cmd_roots(args):
    fan = load_input(args, "fan")
    roots = demazure_roots(fan)
    per_ray = {str(i): [] for i in range(len(fan.rays))}
    for root in roots:
        per_ray[str(root.ray_index)].append(root.m)
    doc = {"count": len(roots), "per_ray": per_ray,
           "aut_dimension": fan.rank + len(roots)}
    emit(doc, args, f"{len(roots)} Demazure roots")
    return EXIT_OK


def cmd_symmetries(args):
    fan = load_input(args, "fan")
    syms = fan_symmetries(fan)
    emit({"count": len(syms), "matrices": syms}, args,
         f"{len(syms)} fan symmetries")
    return EXIT_OK


def cmd_capsule(args):
    poly = load_input(args, "polytope")
    if args.vertex is None:
        raise InputError("need --vertex LIST")
    vertex = parse_vertex(args.vertex)
    result = vertex_capsule(poly, vertex)
    emit(result, args,
         f"contains_polytope={result.contains_polytope} certified={result.certified}")
    return EXIT_OK


def cmd_cox(args):
    fan = load_input(args, "fan")
    verdict, cp = presentation_for(fan)
    doc = {"ray_matrix": cp.ray_matrix, "grading_matrix": cp.grading_matrix,
           "class_rank": cp.class_rank, "ray_order": verdict.ray_order,
           "irrelevant_generators": irrelevant_generators(cp.fan)}
    emit(doc, args, f"class rank {cp.class_rank}")
    return EXIT_OK


def cmd_h0(args):
    fan = load_input(args, "fan")
    verdict, cp = presentation_for(fan)
    coeffs = standard_coeffs_from(args, verdict, cp)
    sec = section_polytope(cp, coeffs)
    doc = {"h0": sec.h0,
           "divisor_standard": coeffs,
           "class": divisor_class(cp, (0,) * cp.rank + coeffs)}
    if args.points:
        doc["lattice_points"] = sec.points
    emit(doc, args, f"h0 = {sec.h0}")
    return EXIT_OK


def cmd_dim(args):
    poly, mults, desc = load_system(args)
    cfg = rank_config(args)
    report = analyze_polytope_system(poly, mults, cfg)
    emit({**jsonable(report), **desc}, args,
         f"dim={report.dim} edim={report.edim} tedim={report.tedim} "
         f"special={report.special} toric_special={report.toric_special}")
    return EXIT_OK


def cmd_split(args):
    poly = load_input(args, "polytope")
    pieces = split_polytope(poly, args.axis, args.level)
    doc = {"axis": pieces.axis, "level": pieces.level,
           "plus_anchor": pieces.plus_anchor}
    for side in ("minus_prev", "minus", "plus_prev", "plus"):
        piece = getattr(pieces, side)
        doc[side] = {"polytope": piece,
                     "lattice_point_count": len(lattice_points(piece))}
    emit(doc, args, f"split axis {pieces.axis} at level {pieces.level}")
    return EXIT_OK


def cmd_certify(args):
    poly, mults, desc = load_system(args)
    cfg = rank_config(args)
    cert = certify(PolytopeSystem(poly, mults), max_depth=args.max_depth,
                   cfg=cfg)
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
            record["report"] = report
            counts["ok"] += 1
            if report.special:
                counts["special"] += 1
            if report.toric_special:
                counts["toric_special"] += 1
        except (InputError, GenericityError, ValueError) as exc:
            record["error"] = str(exc)
            counts["failed"] += 1
        lines.append(record)
    records = "".join(dumps(record) + "\n" for record in lines)
    write_out(args, records)
    print(dumps(counts))
    if not args.out:
        sys.stderr.write(records)
    print(f"{counts['ok']}/{counts['total']} systems analyzed, "
          f"{counts['special']} special, {counts['toric_special']} toric special",
          file=sys.stderr)
    return EXIT_OK


@cache
def build_parser():
    parser = _Parser(
        prog="toric-linsys",
        description="Exact toolkit for symmetries and point-multiplicity "
                    "linear systems on complete simplicial toric varieties.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, fan=False, polytope=False,
                system=False, rank=False):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--example", help="catalog spec, e.g. pn:2, p1n:7, "
                                         "hirzebruch:1, bl3p2, box:2x1")
        p.add_argument("--out", help="also write the JSON document here")
        # None: main takes the seed from TORIC_LINSYS_SEED
        p.add_argument("--seed", type=int)
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
        return p

    command("validate", cmd_validate, "fan invariant report", fan=True)
    command("transitive", cmd_transitive, "transitive cones and normalization",
            fan=True)
    command("roots", cmd_roots, "Demazure roots per ray", fan=True)
    command("symmetries", cmd_symmetries, "unimodular fan symmetries",
            fan=True)
    p = command("capsule", cmd_capsule, "convex capsule test at a vertex",
                polytope=True)
    p.add_argument("--vertex", help="vertex coordinates, e.g. '0,1/2'")
    command("cox", cmd_cox, "Cox presentation matrices", fan=True)
    p = command("h0", cmd_h0, "section count of a divisor class", fan=True)
    p.add_argument("--divisor", help="divisor JSON file")
    p.add_argument("--class", dest="cls",
                   help="standard divisor coefficients, e.g. '2,1'")
    p.add_argument("--points", action="store_true",
                   help="include the lattice points")
    command("dim", cmd_dim, "speciality report of a linear system",
            system=True, rank=True)
    p = command("split", cmd_split, "slab polytopes of a degeneration split",
                polytope=True)
    p.add_argument("--axis", type=int, required=True)
    p.add_argument("--level", type=int, required=True)
    p = command("certify", cmd_certify,
                "search a toric non-speciality certificate",
                system=True, rank=True)
    p.add_argument("--max-depth", type=int, default=8, dest="max_depth")
    p = command("verify", cmd_verify, "re-check a certificate", rank=True)
    p.add_argument("--certificate", help="certificate JSON file")
    p = command("sweep", cmd_sweep, "batch analyze a grid of systems",
                rank=True)
    p.add_argument("--job", help="job JSON file with a 'tasks' list")

    return parser


def main(argv=None) -> int:
    try:
        seed = _env_seed()
        args = build_parser().parse_args(argv)
        if args.seed is None:
            args.seed = seed
        return args.func(args)
    except GenericityError as exc:
        print(dumps({"error": str(exc), "path": None}))
        print(f"genericity violation: {exc}", file=sys.stderr)
        return EXIT_GENERICITY
    except (RecursionError, ValueError) as exc:  # InputError included
        # RecursionError: a walk that recurses once per dimension
        # (`lattice._echelon_walk`) on a very high-dimensional input
        print(dumps({"error": str(exc), "path": getattr(exc, "path", None)}))
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
