"""Output oracle: decides whether one CLI operation succeeded.

An operation fails on a wrong exit code, a traceback, unparsable output, a
broken invariant (dim >= tedim >= edim, dim == h0 - rank - 1, per-trial ranks
bounded by the generic rank) or a verdict field that differs from the
reference recorded for its base case. Fields are compared one by one, never
as a digest of the whole document, so a report key added later is not a
failure.
"""

from __future__ import annotations

import json

DIM_FIELDS = ("h0", "rank", "dim", "tedim", "edim")


def dim_verdict(rep):
    return {k: rep[k] for k in DIM_FIELDS}


def _records(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _certificate_leaves(node):
    if node["kind"] == "leaf":
        yield node
    else:
        for child in node["children"]:
            yield from _certificate_leaves(child)


def verdict(op, doc):
    """The reference-comparable fields of one operation's JSON document."""
    cmd = op.argv[0]
    if cmd == "dim":
        return dim_verdict(doc)
    if cmd == "certify":
        out = {"status": doc["status"]}
        if doc["certificate"] is not None:
            out["h0"] = doc["certificate"]["h0"]
            out["tvdim"] = doc["certificate"]["tvdim"]
        return out
    if cmd == "verify":
        return {"verified": doc["verified"]}
    if cmd == "sweep":
        tasks = {rec["label"]: dim_verdict(rec["report"])
                 for rec in _records(op.out) if "report" in rec}
        return {"counts": {k: doc[k] for k in ("total", "ok", "failed")},
                "tasks": tasks}
    if cmd == "validate":
        return {k: doc[k] for k in ("valid", "complete", "smooth", "simplicial")}
    if cmd == "transitive":
        return {"transitive_count": len(doc["transitive_cone_indices"]),
                "quasi_transitive": doc["quasi_transitive"]}
    if cmd == "roots":
        return {"count": doc["count"], "aut_dimension": doc["aut_dimension"],
                "per_ray_counts": sorted(len(v) for v in doc["per_ray"].values())}
    if cmd == "symmetries":
        return {"count": doc["count"]}
    if cmd == "cox":
        return {"class_rank": doc["class_rank"],
                "irrelevant_sizes": sorted(len(g) for g in
                                           doc["irrelevant_generators"])}
    if cmd == "capsule":
        return {"contains_polytope": doc["contains_polytope"],
                "certified": doc["certified"],
                "capsule_size": len(doc["capsule_vertices"])}
    raise ValueError(f"no verdict for command {cmd!r}")


def _check_report(rep, where, errors, trials=None, exact=None, ref_rank=None):
    """Invariants of one speciality report (dim, sweep record, leaf)."""
    if not rep["dim"] >= rep["tedim"] >= rep["edim"]:
        errors.append(f"{where}: dim >= tedim >= edim broken")
    if rep["dim"] != rep["h0"] - rep["rank"] - 1:
        errors.append(f"{where}: dim != h0 - rank - 1")
    ranks = [s["rank"] for s in rep["samples"]]
    if trials is not None and len(ranks) != trials:
        errors.append(f"{where}: {len(ranks)} trials, expected {trials}")
    if ranks and max(ranks) != rep["rank"]:
        errors.append(f"{where}: rank is not the best trial rank")
    if ref_rank is not None and any(r > ref_rank for r in ranks):
        errors.append(f"{where}: a trial rank exceeds the generic rank")
    if exact is not None and rep["mode"] != ("exact" if exact else "modular"):
        errors.append(f"{where}: mode {rep['mode']}")


def expected_exit(op, ref):
    if op.argv[0] == "certify" and ref.get("status") == "inconclusive":
        return 3
    return 0


def check(op, res, reference):
    """Return the list of problems with one operation's result; empty = ok."""
    errors = []
    if res.traceback:
        return [f"{op.key}: traceback: {res.traceback.strip().splitlines()[-1]}"]
    ref = reference.get(op.key)
    if ref is None:
        return [f"{op.key}: no reference verdict"]
    want = expected_exit(op, ref)
    if res.rc != want:
        errors.append(f"{op.key}: exit {res.rc}, expected {want}")
    try:
        doc = json.loads(res.stdout)
        got = verdict(op, doc)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        errors.append(f"{op.key}: unparsable output: {exc}")
        return errors
    for k, v in ref.items():
        if got.get(k) != v:
            errors.append(f"{op.key}: {k} = {got.get(k)!r}, reference {v!r}")
    cmd = op.argv[0]
    if cmd == "dim":
        _check_report(doc, op.key, errors, op.case.trials or 5, op.case.exact,
                      ref["rank"])
    elif cmd == "sweep":
        recs = {r["label"]: r for r in _records(op.out)}
        for label, tref in ref["tasks"].items():
            rec = recs.get(label, {})
            if "report" not in rec:
                errors.append(f"{op.key}/{label}: no report")
                continue
            _check_report(rec["report"], f"{op.key}/{label}", errors,
                          op.case.trials or 5, False, tref["rank"])
    elif cmd == "certify" and doc.get("certificate") is not None:
        for leaf in _certificate_leaves(doc["certificate"]):
            rep = dict(leaf["report"],
                       samples=[{"rank": s[2]} for s in leaf["report"]["samples"]])
            _check_report(rep, f"{op.key}/leaf", errors)
            if rep["dim"] != rep["tedim"]:
                errors.append(f"{op.key}/leaf: dim != tedim")
    elif cmd == "verify" and doc.get("verified") is not True:
        errors.append(f"{op.key}: certificate not verified")
    return errors
