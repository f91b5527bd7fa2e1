"""Mutation fuzz over every JSON file the command line reads: fan, polytope,
divisor, system, sweep job and certificate. Each example takes a valid file,
replaces one leaf or deletes one key, and runs `main` in-process.

Whatever the input, `main` returns an exit code, never raises, and prints
exactly one JSON document on stdout. A non-integer in an integer slot is an
input error: exit 1, or in a sweep one failed record (every record when the
slot is in the job's cfg)."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from toric_linsys.catalog import box_polytope, hirzebruch_fan
from toric_linsys.cli import main
from toric_linsys.degeneration import (PolytopeSystem, certificate_to_json,
                                       certify)
from toric_linsys.lattice import fan_to_json, polytope_to_json

H1 = fan_to_json(hirzebruch_fan(1))
TRIANGLE3 = {"normals": [[-1, 0], [0, -1], [1, 1]], "offsets": [0, 0, 3]}

VALID = {
    "fan": H1,
    "polytope": polytope_to_json(box_polytope((2, 1))),
    "divisor": {"standard": [2, 1]},
    "system": {"polytope": TRIANGLE3, "multiplicities": [2, 1]},
    "job": {"tasks": [
        {"label": "f1", "fan": H1, "divisor": {"standard": [2, 1]},
         "multiplicities": [2]},
        {"label": "triangle", "polytope": TRIANGLE3, "multiplicities": [2]},
    ], "cfg": {"seed": 0, "trials": 1, "prime_bits": 31,
             "exact": False}},
    # a split root with two leaves
    "certificate": certificate_to_json(
        certify(PolytopeSystem(box_polytope((2, 1)), (1, 1)))),
}

ARGV = {
    "fan": ["h0", "--fan", "{file}", "--class", "2,1", "--points"],
    "polytope": ["split", "--polytope", "{file}", "--axis", "0",
                 "--level", "1"],
    "divisor": ["h0", "--fan", "{fan}", "--divisor", "{file}"],
    "system": ["dim", "--system", "{file}", "--trials", "1"],
    "job": ["sweep", "--job", "{file}"],
    "certificate": ["verify", "--certificate", "{file}", "--trials", "1"],
}

REPLACEMENTS = [1.5, 2.0, "1", True, None, [], {}, 10**30]


def paths(doc, prefix=()):
    """(path, value) of every leaf: a scalar or an empty container."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    found = False
    for key, value in items:
        found = True
        yield from paths(value, prefix + (key,))
    if not found and prefix:
        yield prefix, doc


def key_paths(doc, prefix=()):
    """The path of every key of every object in doc."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield prefix + (key,)
            yield from key_paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from key_paths(value, prefix + (i,))


def mutated(doc, path, value, delete):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    if delete:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


@st.composite
def mutations(draw):
    kind = draw(st.sampled_from(sorted(VALID)))
    doc = VALID[kind]
    if draw(st.booleans()):
        path = draw(st.sampled_from(list(key_paths(doc))))
        return kind, path, None, True
    path, _ = draw(st.sampled_from(list(paths(doc))))
    value = draw(st.sampled_from(REPLACEMENTS))
    return kind, path, value, False


def leaf(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


@settings(max_examples=300, deadline=None)
@given(mutations())
def test_mutated_files_give_one_document_and_no_traceback(mutation):
    kind, path, value, delete = mutation
    with tempfile.TemporaryDirectory() as tmp:
        files = {"file": Path(tmp, "input.json"), "fan": Path(tmp, "fan.json")}
        files["file"].write_text(
            json.dumps(mutated(VALID[kind], path, value, delete)))
        files["fan"].write_text(json.dumps(H1))
        code, out = run_main([a.format(**files) for a in ARGV[kind]])
    assert isinstance(code, int)
    assert len(out.splitlines()) == 1
    doc = json.loads(out)
    original = leaf(VALID[kind], path)
    integer_slot = type(original) is int
    # an exact trial records no prime, so a null prime is well formed
    null_prime = len(path) > 3 and path[-3] == "samples" and path[-1] == 0
    if delete or not integer_slot or type(value) is int or (
            null_prime and value is None):
        return
    if kind != "job":
        assert code == 1, (kind, path, value, doc)
        return
    assert code == 0
    failed = 1 if path[0] == "tasks" else doc["total"]
    assert (doc["failed"], doc["ok"]) == (failed, doc["total"] - failed), \
        (path, value, doc)
