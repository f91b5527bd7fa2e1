"""The JSON codec: `jsonable` encodes every document and `dumps` writes it;
`json_typed` and `json_ints` read every JSON integer without converting.
Also the enumeration budgets that keep huge integers from ending in a
traceback or an exhausted memory."""

import json
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from toric_linsys import degeneration, lattice
from toric_linsys.catalog import (bl3p2_fan, box_polytope, hexagon_polytope,
                                  hirzebruch_fan, p1_power_fan,
                                  projective_space_fan, trapezoid_polytope)
from toric_linsys.cli import main
from toric_linsys.degeneration import (PolytopeSystem, certificate_to_json,
                                       certify)
from toric_linsys.lattice import (POINT_BUDGET, Fan, LatticePolytope,
                                  dumps, fan_from_json, fan_to_json, json_ints,
                                  json_typed, jsonable, polytope_from_json,
                                  polytope_to_json)
from toric_linsys.linsys import derivative_orders

SRC = Path(__file__).resolve().parents[1] / "src" / "toric_linsys"
H1 = fan_to_json(hirzebruch_fan(1))
BOX = polytope_to_json(box_polytope((2, 1)))
TRIANGLE3 = {"normals": [[-1, 0], [0, -1], [1, 1]], "offsets": [0, 0, 3]}
NON_INTEGERS = [1.5, 2.0, "1", True, None, [1]]


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    assert out.count("\n") == 1
    assert "Traceback" not in err
    return code, json.loads(out)


def write(tmp_path, obj, name="in.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_one_writer_and_no_fan_or_polytope_branch():
    text = "".join(p.read_text() for p in sorted(SRC.glob("*.py")))
    assert text.count("json.dumps") == 1
    source = (SRC / "lattice.py").read_text()
    body = source.split("def jsonable(x):", 1)[1].split("\ndef ", 1)[0]
    assert "LatticePolytope" not in body and "Fan" not in body


def jsonable_before(x):
    """`jsonable` as it was before the plain types were tested first, kept
    verbatim as an oracle."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, (int, float, str)) or x is None:
        return x
    if is_dataclass(x) and not isinstance(x, type):
        return {f.name: jsonable_before(getattr(x, f.name)) for f in fields(x)}
    if isinstance(x, (frozenset, set)):
        return sorted(jsonable_before(v) for v in x)
    if isinstance(x, dict):
        return {str(k): jsonable_before(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable_before(v) for v in x]
    raise TypeError(f"cannot serialize {type(x)!r}")


@dataclass(frozen=True)
class Pair:
    first: object
    second: object


LEAVES = st.one_of(st.integers(), st.booleans(), st.fractions(), st.none(),
                   st.text(max_size=4))
DOCUMENTS = st.recursive(LEAVES, lambda kids: st.one_of(
    st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
    # members of one set must sort against each other once encoded
    st.frozensets(st.integers(), max_size=4),
    st.frozensets(st.text(max_size=4), max_size=4),
    st.dictionaries(st.one_of(st.integers(), st.text(max_size=4)), kids,
                    max_size=4),
    st.builds(Pair, kids, kids)), max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(DOCUMENTS)
def test_dumps_equals_the_encoder_before_the_reorder(doc):
    assert dumps(doc) == json.dumps(jsonable_before(doc), sort_keys=True)


# int rows, with the entries and members that must leave the one-pass copy:
# bools, Fractions, empty rows, int entries beside rows, deeper nesting
ENTRIES = st.one_of(st.integers(), st.integers(-2, 2), st.booleans(),
                    st.fractions(max_denominator=3))
ROWS = st.one_of(st.lists(st.integers(), max_size=4).map(tuple),
                 st.lists(ENTRIES, max_size=4),
                 st.lists(ENTRIES, max_size=4).map(tuple))
ARRAYS = st.recursive(ROWS, lambda kids: st.one_of(
    st.lists(kids, max_size=4).map(tuple),
    st.lists(st.one_of(kids, st.integers()), max_size=4)), max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(st.one_of(ARRAYS, st.dictionaries(st.text(max_size=2), ARRAYS,
                                         max_size=3)))
def test_int_arrays_encode_as_before(doc):
    assert dumps(doc) == json.dumps(jsonable_before(doc), sort_keys=True)
    assert jsonable(doc) == jsonable_before(doc)


def test_int_rows_are_copied_without_a_call_per_row(monkeypatch):
    # a symmetries document: one call for it, one per value, one per matrix
    matrices = (((0, 1), (1, 0)), ((1, 0), (0, 1)), ((-1, 0), (0, -1)))
    doc = {"count": 3, "matrices": matrices}
    calls = []

    def counting(x):
        calls.append(x)
        return jsonable(x)

    monkeypatch.setattr(lattice, "jsonable", counting)
    assert lattice.dumps(doc) == json.dumps(doc, sort_keys=True)
    assert len(calls) == 1 + 2 + len(matrices)


@pytest.mark.parametrize("fan", [
    projective_space_fan(2), projective_space_fan(3), p1_power_fan(2),
    hirzebruch_fan(2), bl3p2_fan()])
def test_fan_encodes_as_before(fan):
    assert jsonable(fan) == {"rank": fan.rank,
                             "rays": [list(r) for r in fan.rays],
                             "max_cones": [list(c) for c in fan.max_cones]}
    assert fan_from_json(fan_to_json(fan)) == fan


@pytest.mark.parametrize("poly", [
    box_polytope((2, 1)), trapezoid_polytope(2, 1), hexagon_polytope()])
def test_polytope_encodes_as_before(poly):
    assert jsonable(poly) == {"normals": [list(nv) for nv in poly.normals],
                              "offsets": list(poly.offsets)}
    assert polytope_from_json(polytope_to_json(poly)) == poly


@pytest.mark.parametrize("bad", NON_INTEGERS)
@pytest.mark.parametrize("path", [("rays", 2, 0), ("max_cones", 1, 1)])
def test_fan_decoder_rejects_non_integers(path, bad):
    obj = json.loads(json.dumps(H1))
    obj[path[0]][path[1]][path[2]] = bad
    with pytest.raises(ValueError, match="^integer vector expected$"):
        fan_from_json(obj)


@pytest.mark.parametrize("bad", NON_INTEGERS)
def test_fan_decoder_rejects_a_non_integer_rank(bad):
    with pytest.raises(ValueError, match="^'rank' must be an integer$"):
        fan_from_json({**H1, "rank": bad})


@pytest.mark.parametrize("bad", NON_INTEGERS + [float("inf"),
                                                 float("nan")])
@pytest.mark.parametrize("field", ["normals", "offsets"])
def test_polytope_decoder_rejects_non_integers(field, bad):
    obj = json.loads(json.dumps(BOX))
    if field == "normals":
        obj["normals"][1][1] = bad
    else:
        obj["offsets"][2] = bad
    with pytest.raises(ValueError, match="^integer vector expected$"):
        polytope_from_json(obj)


def test_typed_readers_convert_nothing():
    assert json_ints([3, -1], "mults") == (3, -1)
    assert json_typed(True, "exact", "bool") is True
    for bad in (2.0, "2", True, None):
        with pytest.raises(ValueError, match="^'seed' must be an integer$"):
            json_typed(bad, "seed")
    with pytest.raises(ValueError,
                       match="^'mults' must be a list of integers$"):
        json_ints([2, 2.0], "mults")
    # a field with its own decoder is not type-checked here
    assert json_typed("anything", "samples", "tuple") == "anything"


def test_fan_truncates_no_entry():
    with pytest.raises(ValueError, match="integer vector expected"):
        Fan(2, ((-1, 0), (0, -1), (1.5, 1)), ((0, 1), (1, 2), (0, 2)))
    with pytest.raises(ValueError, match="integer vector expected"):
        Fan(2, ((-1, 0), (0, -1), (1, 1)), ((0, 1), (1, 2.5), (0, 2)))


@pytest.mark.parametrize("bad", [1.5, 2.0, "1", True])
def test_cox_rejects_a_non_integer_ray(tmp_path, capsys, bad):
    obj = json.loads(json.dumps(H1))
    obj["rays"][2][0] = bad
    path = write(tmp_path, obj)
    assert run_cli(["cox", "--fan", path], capsys) == (
        1, {"error": "integer vector expected", "path": path})


@pytest.mark.parametrize("bad", [1.5, 2.0, "1", True])
def test_dim_rejects_a_non_integer_fan_ray(tmp_path, capsys, bad):
    obj = json.loads(json.dumps(H1))
    obj["rays"][2][0] = bad
    path = write(tmp_path, {"fan": obj, "divisor": {"standard": [2, 1]},
                            "multiplicities": [2]})
    assert run_cli(["dim", "--system", path], capsys) == (
        1, {"error": "integer vector expected", "path": path})


def test_certificate_is_encoded_in_one_pass(monkeypatch):
    cert = certify(PolytopeSystem(box_polytope((2, 1)), (1, 1)))
    assert cert.kind == "split"
    calls = []

    def counting(x):
        calls.append(x)
        return jsonable(x)

    monkeypatch.setattr(degeneration, "jsonable", counting)
    doc = certificate_to_json(cert)
    assert len(calls) == 1
    monkeypatch.undo()
    assert doc == certificate_to_json(cert)


def test_dim_echoes_the_decoded_polytope(tmp_path, capsys):
    path = write(tmp_path, {"polytope": {**TRIANGLE3, "note": 1.5},
                            "multiplicities": [2]})
    code, doc = run_cli(["dim", "--system", path, "--trials", "1"], capsys)
    assert code == 0
    assert doc["polytope"] == TRIANGLE3


# --- budgets: huge integers are input errors, not tracebacks


def test_h0_with_a_huge_class_is_an_input_error(capsys):
    code, doc = run_cli(["h0", "--example", "pn:2", "--class",
                         "100000000000000000000"], capsys)
    assert code == 1
    assert "exceeds the enumeration budget" in doc["error"]


def test_point_budget_counts_cells_beyond_sys_maxsize():
    p = LatticePolytope(((-1, 0), (0, -1), (1, 0), (0, 1)),
                        (0, 0, 10**20, 10**20))
    with pytest.raises(ValueError, match="enumeration budget"):
        p.points


def test_derivative_orders_over_the_budget():
    assert len(derivative_orders(2, 3)) == 6
    with pytest.raises(ValueError, match=f"budget of {POINT_BUDGET}"):
        derivative_orders(2, 10**30)


@pytest.mark.parametrize("command", ["dim", "certify"])
def test_huge_multiplicity_is_an_input_error(tmp_path, capsys, command):
    path = write(tmp_path, {"polytope": TRIANGLE3,
                            "multiplicities": [10**30, 1]})
    code, doc = run_cli([command, "--system", path], capsys)
    assert code == 1
    assert "derivative orders exceed the enumeration budget" in doc["error"]


@pytest.mark.parametrize("task", [
    {"label": "huge", "polytope": {**TRIANGLE3, "offsets": [0, 0, 10**20]},
     "multiplicities": [1]},
    {"label": "huge", "polytope": TRIANGLE3, "multiplicities": [10**30]},
])
def test_sweep_fails_only_the_huge_task(tmp_path, capsys, task):
    job = write(tmp_path, {"tasks": [
        task, {"label": "ok", "polytope": TRIANGLE3, "multiplicities": [2]}],
        "cfg": {"trials": 1}})
    out = tmp_path / "records.jsonl"
    code, doc = run_cli(["sweep", "--job", job, "--out", str(out)], capsys)
    assert code == 0
    assert (doc["ok"], doc["failed"]) == (1, 1)
    huge, ok = [json.loads(line) for line in out.read_text().splitlines()]
    assert huge["label"] == "huge"
    assert "exceed" in huge["error"] and "enumeration budget" in huge["error"]
    assert "report" in ok
