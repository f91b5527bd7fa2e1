"""Golden stdout of the commands whose documents no other test pins byte for
byte: transitive, roots, symmetries, cox, h0 --points, split, capsule and
sweep (counts on stdout, records in the --out file), with one failing call
per error path. Also some callers of the vertex search: capsule at every
vertex of a polytope with rational vertices (p/q coordinates included),
validate on a fan of 32 cones, on a double cover and on two overlapping
cones, and a certify search. The expected bytes live in golden_cli.json; file
paths in them read <tmp>."""

import json
from pathlib import Path

import pytest

from toric_linsys.catalog import box_polytope, hirzebruch_fan
from toric_linsys.cli import main
from toric_linsys.lattice import fan_to_json, polytope_to_json

GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "golden_cli.json").read_text())

H1 = fan_to_json(hirzebruch_fan(1))
BOX = polytope_to_json(box_polytope((2, 1)))
TRIANGLE3 = {"normals": [[-1, 0], [0, -1], [1, 1]], "offsets": [0, 0, 3]}
# the cube [0, 2]^3 cut by x + y + z <= 9/2: seven integral vertices and
# three rational ones on the cut
CHOPPED_CUBE = {"normals": [[-1, 0, 0], [0, -1, 0], [0, 0, -1], [1, 0, 0],
                            [0, 1, 0], [0, 0, 1], [2, 2, 2]],
                "offsets": [0, 0, 0, 2, 2, 2, 9]}
CHOPPED_CUBE_VERTICES = ("0,0,0", "0,0,2", "0,2,0", "0,2,2", "2,0,0",
                         "2,0,2", "2,2,0", "1/2,2,2", "2,1/2,2", "2,2,1/2")

FILES = {
    "h1.json": H1,
    "box.json": BOX,
    "chopped_cube.json": CHOPPED_CUBE,
    "no_rays.json": {"rank": 2, "max_cones": H1["max_cones"]},
    # every ray in two cones, winding twice around the origin
    "double_cover.json": {"rank": 2, "rays": [[1, 0], [-1, 1], [0, -1],
                                              [1, 1], [-2, -1]],
                          "max_cones": [[0, 1], [1, 2], [2, 3], [3, 4],
                                        [0, 4]]},
    "overlap.json": {"rank": 2, "rays": [[1, 0], [0, 1], [1, 1]],
                     "max_cones": [[0, 1], [0, 2]]},
    "div.json": {"coeffs": [1, 1, 0, 0]},
    "div_short.json": {"standard": [2]},
    "job.json": {"tasks": [
        {"label": "f1-2-1", "fan": H1, "divisor": {"standard": [2, 1]},
         "multiplicities": [2]},
        {"label": "box", "polytope": BOX, "multiplicities": [1, 1]},
        {"system": {"polytope": TRIANGLE3, "multiplicities": [2, 2]}},
        5,
        {"label": "negative", "polytope": TRIANGLE3, "multiplicities": [-1]},
        {"label": "no-divisor", "fan": H1, "multiplicities": [1]},
        {"label": "triangle", "polytope": TRIANGLE3, "multiplicities": [1]},
    ], "cfg": {"seed": 5, "trials": 2}},
    "job_cfg.json": {"tasks": [{"polytope": BOX, "multiplicities": [1]}],
                     "cfg": {"trials": 2.0}},
    "job_list.json": [1],
    "job_empty.json": {"tasks": []},
}
RAW_FILES = {"malformed.json": "{not json"}

CASES = {
    "transitive-hirzebruch1": ["transitive", "--example", "hirzebruch:1"],
    "transitive-p1n2": ["transitive", "--example", "p1n:2"],
    "transitive-bl3p2": ["transitive", "--example", "bl3p2"],
    "transitive-file": ["transitive", "--fan", "<tmp>/h1.json"],
    "roots-pn2": ["roots", "--example", "pn:2"],
    "roots-hirzebruch2": ["roots", "--example", "hirzebruch:2"],
    "roots-bl3p2": ["roots", "--example", "bl3p2"],
    "symmetries-hirzebruch1": ["symmetries", "--example", "hirzebruch:1"],
    "symmetries-p1n2": ["symmetries", "--example", "p1n:2"],
    "cox-pn2": ["cox", "--example", "pn:2"],
    "cox-hirzebruch1": ["cox", "--example", "hirzebruch:1"],
    "cox-box": ["cox", "--example", "box:2x1"],
    "h0-points-pn2": ["h0", "--example", "pn:2", "--class", "2", "--points"],
    "h0-points-hirzebruch1": ["h0", "--example", "hirzebruch:1",
                              "--class", "2,1", "--points"],
    "h0-points-divisor-file": ["h0", "--fan", "<tmp>/h1.json", "--divisor",
                               "<tmp>/div.json", "--points"],
    "split-box": ["split", "--example", "box:2x1", "--axis", "0",
                  "--level", "1"],
    "split-simplex": ["split", "--example", "simplex:2:3", "--axis", "1",
                      "--level", "2"],
    "split-file": ["split", "--polytope", "<tmp>/box.json", "--axis", "1",
                   "--level", "1"],
    "capsule-box": ["capsule", "--example", "box:2x1", "--vertex", "0,0"],
    "capsule-hexagon": ["capsule", "--example", "bl3p2", "--vertex", "0,1"],
    "capsule-cube": ["capsule", "--example", "box:1x1x1",
                     "--vertex", "0,0,0"],
    **{f"capsule-chopped-cube-{v}": ["capsule", "--polytope",
                                     "<tmp>/chopped_cube.json", "--vertex", v]
       for v in CHOPPED_CUBE_VERTICES},
    "validate-p1n5": ["validate", "--example", "p1n:5"],
    "validate-double-cover": ["validate", "--fan", "<tmp>/double_cover.json"],
    "validate-overlap": ["validate", "--fan", "<tmp>/overlap.json"],
    "certify-hirzebruch1-depth1": ["certify", "--example", "hirzebruch:1",
                                   "--class", "6,4", "--mults", "2,2,2,2,2",
                                   "--max-depth", "1"],
    "sweep": ["sweep", "--job", "<tmp>/job.json"],
    "sweep-out": ["sweep", "--job", "<tmp>/job.json", "--out",
                  "<tmp>/records.jsonl"],
    "sweep-exact-out": ["sweep", "--job", "<tmp>/job.json", "--exact",
                        "--out", "<tmp>/records.jsonl"],
    # one failing call per error path
    "error-not-quasi-transitive": ["cox", "--example", "bl3p2"],
    "error-unknown-example": ["roots", "--example", "nope:1"],
    "error-no-input": ["symmetries"],
    "error-malformed-json": ["transitive", "--fan", "<tmp>/malformed.json"],
    "error-missing-file": ["roots", "--fan", "<tmp>/absent.json"],
    "error-missing-key": ["cox", "--fan", "<tmp>/no_rays.json"],
    "error-class-length": ["h0", "--example", "hirzebruch:1", "--class", "2",
                           "--points"],
    "error-class-not-integer": ["h0", "--example", "pn:2", "--class", "x"],
    "error-divisor-length": ["h0", "--fan", "<tmp>/h1.json", "--divisor",
                             "<tmp>/div_short.json"],
    "error-point-budget": ["h0", "--example", "pn:3", "--class", "3000",
                           "--points"],
    "error-split-axis": ["split", "--example", "box:2x1", "--axis", "2",
                         "--level", "1"],
    "error-split-level": ["split", "--example", "box:2x1", "--axis", "0",
                          "--level", "3"],
    "error-capsule-no-vertex": ["capsule", "--example", "box:2x1"],
    "error-capsule-not-a-vertex": ["capsule", "--example", "box:2x1",
                                   "--vertex", "1,1"],
    "error-sweep-cfg": ["sweep", "--job", "<tmp>/job_cfg.json"],
    "error-sweep-job-not-an-object": ["sweep", "--job", "<tmp>/job_list.json"],
    "error-sweep-empty": ["sweep", "--job", "<tmp>/job_empty.json"],
    "error-usage": ["cox", "--example", "pn:2", "--bogus"],
}


def run_case(name, tmp_path, capsys):
    """(exit code, stdout, --out file or None) of one case, paths as <tmp>."""
    for fname, obj in FILES.items():
        (tmp_path / fname).write_text(json.dumps(obj))
    for fname, text in RAW_FILES.items():
        (tmp_path / fname).write_text(text)
    argv = [a.replace("<tmp>", str(tmp_path)) for a in CASES[name]]
    code = main(argv)
    out, _ = capsys.readouterr()
    records = tmp_path / "records.jsonl"
    written = records.read_text() if records.exists() else None
    tmp = str(tmp_path)
    return (code, out.replace(tmp, "<tmp>"),
            written.replace(tmp, "<tmp>") if written is not None else None)


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name, tmp_path, capsys):
    code, out, written = run_case(name, tmp_path, capsys)
    case = GOLDEN[name]
    assert code == case["code"]
    assert out == case["stdout"]
    assert written == case["out"]
