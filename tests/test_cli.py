import hashlib
import json
import time
from unittest import mock

import pytest

from toric_linsys import catalog, linsys
from toric_linsys.cli import build_parser, main
from toric_linsys.catalog import (box_polytope, hirzebruch_fan,
                                  simplex_polytope)
from toric_linsys.lattice import fan_to_json, polytope_to_json


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    doc = json.loads(out) if out.strip() else None
    return code, doc, err


def test_validate_example(capsys):
    code, doc, _ = run_cli(["validate", "--example", "pn:2"], capsys)
    assert code == 0
    assert doc["valid"] and doc["complete"] and doc["smooth"]


def test_transitive_hirzebruch(capsys):
    code, doc, _ = run_cli(["transitive", "--example", "hirzebruch:1"], capsys)
    assert code == 0
    assert doc["quasi_transitive"]
    assert len(doc["transitive_cone_indices"]) == 2


def test_roots_counts(capsys):
    code, doc, _ = run_cli(["roots", "--example", "hirzebruch:1"], capsys)
    assert code == 0
    assert doc["count"] == 4
    assert doc["aut_dimension"] == 6
    assert [len(doc["per_ray"][str(i)]) for i in range(4)] == [1, 2, 1, 0]


def test_symmetries(capsys):
    code, doc, _ = run_cli(["symmetries", "--example", "pn:2"], capsys)
    assert code == 0
    assert doc["count"] == 6


def test_capsule(capsys):
    code, doc, _ = run_cli(
        ["capsule", "--example", "bl3p2", "--vertex", "0,1"], capsys)
    assert code == 0
    assert doc["contains_polytope"] is False
    assert doc["certified"] is True


def test_capsule_rejects_unbounded_polygon(tmp_path, capsys):
    # {y >= 0, x >= 0, x + y >= 1, x - y <= 2} at its smooth vertex (1, 0)
    poly = tmp_path / "unbounded.json"
    poly.write_text(json.dumps({"normals": [[0, -1], [-1, 0], [-1, -1],
                                            [1, -1]], "offsets": [0, 0, -1, 2]}))
    code, doc, err = run_cli(["capsule", "--polytope", str(poly),
                              "--vertex", "1,0"], capsys)
    assert code == 1
    assert doc == {"error": "unbounded polyhedron", "path": None}
    assert "Traceback" not in err


def test_polytope_rows_need_an_entry(tmp_path, capsys):
    # rows of length 0 are an input error for dim, a sweep task and certify
    message = "normal vector needs at least one entry"
    system = {"polytope": {"normals": [[], []], "offsets": [0, 1]},
              "multiplicities": [1]}
    sysfile = tmp_path / "s.json"
    sysfile.write_text(json.dumps(system))
    for command in ("dim", "certify"):
        code, doc, _ = run_cli([command, "--system", str(sysfile)], capsys)
        assert code == 1
        assert doc == {"error": message, "path": str(sysfile)}
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"tasks": [system]}))
    code, doc, err = run_cli(["sweep", "--job", str(job)], capsys)
    assert code == 0 and doc["failed"] == 1
    assert json.loads(err.splitlines()[0]) == {"error": message,
                                               "label": "task-0"}


@pytest.mark.parametrize("vertex", ["1.5,0", "1/0,0", "1/2/3,0", "1/,0",
                                    "x,0", "0,,0", "1_0,0", "\u0661,0"])
def test_capsule_vertex_takes_integers_and_p_over_q_only(vertex, capsys):
    # as in integer lists, '1_0' and the Arabic-Indic digit one are no int
    code, doc, _ = run_cli(["capsule", "--example", "box:2x1",
                            "--vertex", vertex], capsys)
    assert code == 1
    assert doc["error"].startswith(f"malformed vertex '{vertex}'")
    code, doc, _ = run_cli(["capsule", "--example", "box:2x1",
                            "--vertex", "4/2,2/2"], capsys)
    assert code == 0 and doc["vertex"] == [2, 1]


@pytest.mark.parametrize("cls, mults", [
    ("2,,1", "2,2"), ("2,1,", "2,2"), ("2,1_0", "2,2"),
    ("2,1", "2,,2"), ("2,1", "2,2,"), ("2,1", "1_0,2")])
def test_integer_lists_take_sign_and_ascii_digits_only(cls, mults, capsys):
    # an empty token is not dropped and '1_0' is not read as 10
    bad = cls if cls != "2,1" else mults
    code, doc, _ = run_cli(["dim", "--example", "hirzebruch:1", "--class",
                            cls, "--mults", mults], capsys)
    assert code == 1
    assert doc["error"].startswith(f"malformed integer list '{bad}'")
    code, doc, _ = run_cli(["dim", "--example", "hirzebruch:1", "--class",
                            " 2, +1", "--mults", "2 ,2"], capsys)
    assert code == 0 and doc["divisor_standard"] == [2, 1]


def test_cox(capsys):
    code, doc, _ = run_cli(["cox", "--example", "hirzebruch:1"], capsys)
    assert code == 0
    assert doc["grading_matrix"] == [[1, 1, 1, 0], [0, 1, 0, 1]]
    assert doc["class_rank"] == 2
    assert doc["irrelevant_generators"] == [[0, 2], [1, 3]]


def test_h0_with_class(capsys):
    code, doc, _ = run_cli(
        ["h0", "--example", "hirzebruch:1", "--class", "2,1", "--points"],
        capsys)
    assert code == 0
    assert doc["h0"] == 5
    assert len(doc["lattice_points"]) == 5


def test_h0_over_the_point_budget_is_an_input_error(capsys):
    # a box of 3001^3 cells (about 4.5e9 points): rejected before scanning
    code = main(["h0", "--example", "pn:3", "--class", "3000"])
    out, err = capsys.readouterr()
    assert code == 1
    assert json.loads(out) == {
        "error": "bounding box of 27027009001 lattice cells exceeds the "
                 "enumeration budget of 10000000",
        "path": None}
    assert out.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("spec, builder", [
    ("p1n:30", "p1_power_fan"),          # 2^30 cones
    ("pn:5000", "projective_space_fan"),  # 5000 x (5001 + 5001) entries
    ("simplex:5000:1", "simplex_polytope"),  # 5001 rows x 5000
    # 2^16 cones, each with a 16 x 16 cone_facets matrix
    ("p1n:16", "p1_power_fan"),
    ("box:" + "x".join(["1"] * 16), "box_polytope"),  # and its normal fan
])
def test_catalog_example_over_the_budget_is_refused_unbuilt(spec, builder,
                                                            capsys):
    start = time.perf_counter()
    with mock.patch.object(catalog, builder,
                           side_effect=AssertionError("built")):
        code, doc, err = run_cli(["validate", "--example", spec], capsys)
    assert time.perf_counter() - start < 1
    assert code == 1
    assert doc == {"error": f"example '{spec}' exceeds the enumeration "
                            "budget of 10000000 entries", "path": None}
    assert "Traceback" not in err


@pytest.mark.parametrize("spec, builder", [
    ("p1n:15", "p1_power_fan"),
    ("box:" + "x".join(["1"] * 15), "box_polytope"),
])
def test_catalog_example_under_the_budget_is_built(spec, builder):
    # 2^15 cones with 15 x 15 cone_facets matrices: about 7.4e6 entries
    with mock.patch.object(catalog, builder,
                           side_effect=AssertionError("built")):
        with pytest.raises(AssertionError, match="built"):
            catalog.example_fan(spec)


@pytest.mark.parametrize("argv, digest", [
    (["validate", "--example", "p1n:9"],
     "cc24d49fd849df16e36b257863cf371840f9ebbe9804d84d63efebb614322dba"),
    (["transitive", "--example", "p1n:9"],
     "6d5138b174a0f8a0077d751004d5591f0e501c3f0d65b868bc7fedf3c9ce2db0"),
    (["validate", "--example", "pn:12"],
     "3c8cb1ef00d8d9a0bbb5837355df876ad1c87c515ddd26633082129d2b3c73de"),
    (["symmetries", "--example", "pn:12"],
     "20e661c641f1d2f681d7704abdb353be090cd221793a2324eb3ccc37f3dc455b"),
])
def test_largest_documented_examples_keep_their_bytes(argv, digest, capsys):
    # the hashes were recorded before catalog examples had a size bound
    main(argv)
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ["validate", "--example", "simplex:1000:1"],
    ["h0", "--example", "simplex:2000:1", "--class", "1"],
])
def test_recursion_depth_is_an_input_error(argv, capsys):
    # the vertex walk recurses once per dimension
    code, doc, err = run_cli(argv, capsys)
    assert code == 1
    assert doc["error"].startswith("input too deep to analyse")
    assert "maximum recursion depth exceeded" in doc["error"]
    assert doc["path"] is None
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["validate", "sweep"])
@pytest.mark.parametrize("target", ["missing directory", "directory"])
def test_unwritable_out_is_an_input_error_before_any_output(
        command, target, tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"tasks": [{
        "polytope": polytope_to_json(box_polytope((1, 1))),
        "multiplicities": [1]}]}))
    argv = {"validate": ["validate", "--example", "pn:2"],
            "sweep": ["sweep", "--job", str(job)]}[command]
    out = tmp_path / "no" / "x.json" if target != "directory" else tmp_path
    # run_cli parses stdout as one JSON document
    code, doc, err = run_cli(argv + ["--out", str(out)], capsys)
    assert code == 1
    assert doc["error"].startswith("cannot write output: ")
    assert doc["path"] == str(out)
    assert "Traceback" not in err


def test_h0_with_divisor_file(tmp_path, capsys):
    div = tmp_path / "d.json"
    div.write_text(json.dumps({"coeffs": [1, 1, 0, 0]}))
    code, doc, _ = run_cli(
        ["h0", "--example", "hirzebruch:1", "--divisor", str(div)], capsys)
    assert code == 0
    assert doc["divisor_standard"] == [2, 1]
    assert doc["h0"] == 5


def test_fan_and_polytope_files(tmp_path, capsys):
    fanfile = tmp_path / "f.json"
    fanfile.write_text(json.dumps(fan_to_json(hirzebruch_fan(1))))
    code, doc, _ = run_cli(["h0", "--fan", str(fanfile), "--class", "3,1"],
                           capsys)
    assert code == 0 and doc["h0"] == 7
    polyfile = tmp_path / "p.json"
    polyfile.write_text(json.dumps(polytope_to_json(box_polytope((2, 1)))))
    code, doc, _ = run_cli(["capsule", "--polytope", str(polyfile),
                            "--vertex", "0,0"], capsys)
    assert code == 0 and doc["contains_polytope"] is True


def test_dim_p1n7(capsys):
    code, doc, _ = run_cli(
        ["dim", "--example", "p1n:7", "--class", "1,1,1,1,1,1,1",
         "--mults", "3,3,3", "--seed", "3"], capsys)
    assert code == 0
    assert doc["dim"] - doc["tedim"] == 1
    assert doc["toric_special"] is True


def test_dim_line_through_two_points(capsys):
    code, doc, _ = run_cli(
        ["dim", "--example", "pn:2", "--class", "1", "--mults", "1,1"], capsys)
    assert code == 0
    assert doc["dim"] == 0


def test_dim_seed_determinism(capsys):
    args = ["dim", "--example", "pn:2", "--class", "3", "--mults", "2,2",
            "--seed", "11"]
    _, doc1, _ = run_cli(args, capsys)
    code, doc2, _ = run_cli(args, capsys)
    assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)
    _, doc3, _ = run_cli(args[:-1] + ["12"], capsys)
    assert doc3["samples"] != doc1["samples"]


def test_dim_exact_flag_agrees(capsys):
    args = ["dim", "--example", "pn:2", "--class", "3", "--mults", "2,1"]
    _, modular, _ = run_cli(args, capsys)
    _, exact, _ = run_cli(args + ["--exact", "--trials", "2"], capsys)
    assert modular["rank"] == exact["rank"]
    assert exact["mode"] == "exact"


def test_dim_system_file(tmp_path, capsys):
    sysfile = tmp_path / "s.json"
    sysfile.write_text(json.dumps({
        "fan": fan_to_json(hirzebruch_fan(1)),
        "divisor": {"standard": [2, 1]},
        "multiplicities": [2],
    }))
    code, doc, _ = run_cli(["dim", "--system", str(sysfile)], capsys)
    assert code == 0
    assert doc["dim"] == 1


def test_split_command(capsys):
    code, doc, _ = run_cli(
        ["split", "--example", "box:2x1", "--axis", "0", "--level", "1"],
        capsys)
    assert code == 0
    assert doc["minus_prev"]["lattice_point_count"] == 2
    assert doc["plus"]["lattice_point_count"] == 4


def test_certify_and_verify_round_trip(tmp_path, capsys):
    certfile = tmp_path / "c.json"
    code, doc, _ = run_cli(
        ["certify", "--example", "hirzebruch:1", "--class", "2,1",
         "--mults", "2", "--out", str(certfile)], capsys)
    assert code == 0
    assert doc["status"] == "certified"
    code, doc, _ = run_cli(
        ["verify", "--certificate", str(certfile), "--seed", "99"], capsys)
    assert code == 0
    assert doc["verified"] is True


def test_verify_rejects_corrupt_certificate(tmp_path, capsys):
    certfile = tmp_path / "c.json"
    run_cli(["certify", "--example", "hirzebruch:1", "--class", "2,1",
             "--mults", "2", "--out", str(certfile)], capsys)
    doc = json.loads(certfile.read_text())
    doc["certificate"]["tvdim"] += 3
    certfile.write_text(json.dumps(doc))
    code, out, _ = run_cli(["verify", "--certificate", str(certfile)], capsys)
    assert code == 4
    assert out["verified"] is False


def test_malformed_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, doc, _ = run_cli(["validate", "--fan", str(bad)], capsys)
    assert code == 1
    assert "error" in doc and doc["path"] == str(bad)


@pytest.mark.parametrize("content", [
    b"[" * 100_000,  # deeper than the decoder's recursion limit
    b'{"rank": ' + b"1" * 5000 + b"}",  # over the integer digit limit
    b'{"rank": "\xff"}',  # invalid UTF-8
], ids=["deeply-nested", "5000-digit-integer", "invalid-utf-8"])
def test_undecodable_json_is_an_input_error_at_its_path(content, tmp_path,
                                                        capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, doc, _ = run_cli(["validate", "--fan", str(bad)], capsys)
    assert code == 1
    assert doc["error"].startswith("malformed JSON: ")
    assert doc["path"] == str(bad)


def test_unknown_example_exit_code(capsys):
    code, doc, _ = run_cli(["validate", "--example", "nope:1"], capsys)
    assert code == 1
    assert "error" in doc


def test_missing_input_exit_code(capsys):
    code, doc, _ = run_cli(["roots"], capsys)
    assert code == 1


def test_seed_env_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TORIC_LINSYS_SEED", "777")
    code, doc, _ = run_cli(["dim", "--example", "pn:2", "--class", "2",
                            "--mults", "2"], capsys)
    assert code == 0
    assert doc["seed"] == 777


def test_seed_env_not_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("TORIC_LINSYS_SEED", "abc")
    code, doc, err = run_cli(["dim", "--example", "pn:2", "--class", "2",
                              "--mults", "2"], capsys)
    assert code == 1
    assert doc == {"error": "TORIC_LINSYS_SEED must be an integer, got 'abc'",
                   "path": None}
    assert "Traceback" not in err


DIM_PN2 = ["dim", "--example", "pn:2", "--class", "2", "--mults", "2"]


def test_seed_env_is_read_on_every_call(capsys, monkeypatch):
    # the parser is built once per process; the variable is not baked into it
    for value in (777, 778):
        monkeypatch.setenv("TORIC_LINSYS_SEED", str(value))
        code, doc, _ = run_cli(DIM_PN2, capsys)
        assert code == 0 and doc["seed"] == value
    code, doc, _ = run_cli(DIM_PN2 + ["--seed", "5"], capsys)
    assert code == 0 and doc["seed"] == 5


def test_bad_seed_env_fails_even_with_an_explicit_seed(capsys, monkeypatch):
    monkeypatch.setenv("TORIC_LINSYS_SEED", "abc")
    code, doc, err = run_cli(DIM_PN2 + ["--seed", "5"], capsys)
    assert code == 1
    assert doc == {"error": "TORIC_LINSYS_SEED must be an integer, got 'abc'",
                   "path": None}
    assert "Traceback" not in err


def test_parser_is_built_once(capsys):
    build_parser.cache_clear()
    for argv in (DIM_PN2, ["roots", "--example", "pn:2"], DIM_PN2 + ["--x"]):
        run_cli(argv, capsys)
    assert build_parser.cache_info().misses == 1


@pytest.mark.parametrize("argv, message", [
    (DIM_PN2 + ["--trials", "x"], "argument --trials: invalid int value: 'x'"),
    (DIM_PN2 + ["--bogus"], "unrecognized arguments: --bogus"),
    ([], "the following arguments are required: command"),
    (["validate", "--example", "pn:2", "--samples", "5"],
     "unrecognized arguments: --samples 5"),
])
def test_usage_errors_are_input_errors(argv, message, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1
    assert json.loads(out) == {"error": message, "path": None}
    assert out.count("\n") == 1
    assert "Traceback" not in err and "usage:" not in err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dim", "--help"])
    assert exc.value.code == 0
    assert "usage: toric-linsys dim" in capsys.readouterr().out


def test_dim_rejects_zero_trials_and_tiny_primes(capsys):
    base = ["dim", "--example", "pn:2", "--class", "4", "--mults", "2,2"]
    for extra, message in ((["--trials", "0"], "trials must be at least 1"),
                           (["--prime-bits", "2"],
                            "prime_bits must be at least 3"),
                           # primality is deterministic only below 2^78
                           (["--prime-bits", "79"],
                            "prime_bits must be at most 78")):
        code, doc, _ = run_cli(base + extra, capsys)
        assert code == 1
        assert doc == {"error": message, "path": None}


def test_split_rejects_axis_out_of_range(capsys):
    for axis in ("5", "-1"):
        code, doc, err = run_cli(["split", "--example", "square", "--axis",
                                  axis, "--level", "1"], capsys)
        assert code == 1
        assert doc == {"error": "axis must satisfy 0 <= axis < 2",
                       "path": None}
        assert "Traceback" not in err


def test_sweep_zero_trials_fails_every_task(tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "tasks": [{"polytope": polytope_to_json(box_polytope((2, 2))),
                   "multiplicities": [1, 1]}],
        "cfg": {"trials": 0}}))
    code, doc, err = run_cli(["sweep", "--job", str(job)], capsys)
    assert code == 0
    assert doc["total"] == 1 and doc["ok"] == 0 and doc["failed"] == 1
    assert "trials must be at least 1" in err


def test_genericity_violation_exit_code(tmp_path, capsys, monkeypatch):
    # a translated box is not a down-set: refused with exit 1, naming a point
    sysfile = tmp_path / "s.json"
    shifted = box_polytope((1, 1)).translate((2, 0))
    sysfile.write_text(json.dumps({
        "polytope": polytope_to_json(shifted),
        "multiplicities": [2],
    }))
    code, doc, _ = run_cli(["dim", "--system", str(sysfile)], capsys)
    assert code == 1
    assert doc["error"] == ("the support is not an orthant down-set: it "
                            "holds (2, 0) but not (1, 0)")
    # exit 2 is left to a failed trial: a rank of h0 on the box [0, 1]^2
    # with a double point gives dim -1 below tedim 0
    monkeypatch.setattr(linsys, "_trial_rank",
                        lambda coords, *rest: (len(coords[0]),) * 2)
    sysfile.write_text(json.dumps({
        "polytope": polytope_to_json(box_polytope((1, 1))),
        "multiplicities": [2],
    }))
    code, doc, _ = run_cli(["dim", "--system", str(sysfile)], capsys)
    assert code == 2
    assert "sub-generic" in doc["error"]


def test_exponent_above_h0_is_refused_before_any_trial(tmp_path, capsys):
    # the 3-point segment {10^12 <= x <= 10^12 + 2} is not a down-set, so it
    # is refused before a trial table of 10^12 entries is built
    sysfile = tmp_path / "s.json"
    sysfile.write_text(json.dumps({
        "polytope": {"normals": [[-1], [1]],
                     "offsets": [-10**12, 10**12 + 2]},
        "multiplicities": [1]}))
    code, doc, err = run_cli(["dim", "--system", str(sysfile)], capsys)
    assert code == 1
    assert doc["error"] == ("the support is not an orthant down-set: it "
                            "holds (1000000000000,) but not (999999999999,)")
    assert "Traceback" not in err


def test_dim_refuses_the_slanted_triangle(tmp_path, capsys):
    # {x >= 0, x <= y, y <= 2} is a unimodular image of 2 Delta_2, whose
    # conics double at two points are the double line (dim 0), yet
    # toric_counts would give tvdim 1 and the chain check exit 2
    sysfile = tmp_path / "s.json"
    sysfile.write_text(json.dumps({
        "polytope": {"normals": [[-1, 0], [1, -1], [0, 1]],
                     "offsets": [0, 0, 2]},
        "multiplicities": [2, 2]}))
    code, doc, err = run_cli(["dim", "--system", str(sysfile)], capsys)
    assert code == 1
    assert doc["error"] == ("the support is not an orthant down-set: it "
                            "holds (1, 1) but not (1, 0)")
    assert "Traceback" not in err


def test_sweep_counts_special_systems(tmp_path, capsys):
    # the P^2 quartic through five double points: dim 0 against edim and
    # tedim -1, special and toric special
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"tasks": [
        {"polytope": polytope_to_json(simplex_polytope(2, 4)),
         "multiplicities": [2] * 5}]}))
    code, doc, _ = run_cli(["sweep", "--job", str(job)], capsys)
    assert code == 0
    assert doc == {"total": 1, "ok": 1, "failed": 0, "special": 1,
                   "toric_special": 1}


def test_certify_inconclusive_exit_code(capsys):
    # the multidegree-(1,..,1) system with three triple points is toric
    # special, so no certificate can exist
    code, doc, _ = run_cli(
        ["certify", "--example", "p1n:7", "--class", "1,1,1,1,1,1,1",
         "--mults", "3,3,3", "--max-depth", "2", "--seed", "1"], capsys)
    assert code == 3
    assert doc["status"] == "inconclusive"


def test_sweep(tmp_path, capsys):
    job = tmp_path / "job.json"
    out = tmp_path / "records.jsonl"
    tasks = []
    for d in (1, 2, 3):
        tasks.append({"label": f"p2-d{d}",
                      "fan": fan_to_json(hirzebruch_fan(1)),
                      "divisor": {"standard": [d, 1]},
                      "multiplicities": [2]})
    tasks.append({"label": "poly",
                  "polytope": polytope_to_json(box_polytope((2, 2))),
                  "multiplicities": [1, 1]})
    job.write_text(json.dumps({"tasks": tasks, "cfg": {"seed": 5}}))
    code, doc, err = run_cli(["sweep", "--job", str(job), "--out", str(out)],
                             capsys)
    assert code == 0
    assert doc["total"] == 4 and doc["ok"] == 4
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(lines) == 4
    assert all("report" in l for l in lines)
    # deterministic rerun produces identical records
    run_cli(["sweep", "--job", str(job), "--out", str(out)], capsys)
    lines2 = [json.loads(l) for l in out.read_text().splitlines()]
    assert lines == lines2


def test_sweep_empty_grid(tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"tasks": []}))
    code, doc, _ = run_cli(["sweep", "--job", str(job)], capsys)
    assert code == 1


def test_sweep_job_not_an_object(tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text("[1, 2]")
    code, doc, err = run_cli(["sweep", "--job", str(job)], capsys)
    assert code == 1
    assert doc == {"error": "job must be a JSON object", "path": str(job)}
    assert "Traceback" not in err


def test_sweep_cfg_not_an_object(tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "tasks": [{"polytope": polytope_to_json(box_polytope((2, 2))),
                   "multiplicities": [1]}],
        "cfg": [5]}))
    code, doc, _ = run_cli(["sweep", "--job", str(job)], capsys)
    assert code == 1
    assert doc == {"error": "'cfg' must be an object", "path": str(job)}


def test_sweep_tasks_not_a_list(tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"tasks": {"label": "x"}}))
    code, doc, _ = run_cli(["sweep", "--job", str(job)], capsys)
    assert code == 1
    assert doc == {"error": "'tasks' must be a list", "path": str(job)}


def test_sweep_task_not_an_object_fails_that_task(tmp_path, capsys):
    job = tmp_path / "job.json"
    out = tmp_path / "records.jsonl"
    job.write_text(json.dumps({
        "tasks": [5, {"label": "poly",
                      "polytope": polytope_to_json(box_polytope((2, 2))),
                      "multiplicities": [1, 1]}]}))
    code, doc, _ = run_cli(["sweep", "--job", str(job), "--out", str(out)],
                           capsys)
    assert code == 0
    assert doc["total"] == 2 and doc["ok"] == 1 and doc["failed"] == 1
    records = [json.loads(l) for l in out.read_text().splitlines()]
    assert records[0] == {"label": "task-0",
                          "error": "task must be a JSON object"}
    assert "report" in records[1]


def test_json_documents_reparse(capsys):
    # round-trip: every emitted document parses back to the same value
    for argv in (["validate", "--example", "pn:3"],
                 ["transitive", "--example", "p1n:2"],
                 ["roots", "--example", "bl3p2"],
                 ["cox", "--example", "pn:2"]):
        code, doc, _ = run_cli(argv, capsys)
        assert code == 0
        assert json.loads(json.dumps(doc)) == doc


TRIANGLE3 = {"normals": [[-1, 0], [0, -1], [1, 1]], "offsets": [0, 0, 3]}


def test_dim_rejects_negative_multiplicity(tmp_path, capsys):
    sysfile = tmp_path / "s.json"
    sysfile.write_text(json.dumps({"polytope": TRIANGLE3,
                                   "multiplicities": [-1, 2]}))
    for argv in (["dim", "--system", str(sysfile)],
                 ["dim", "--example", "pn:2", "--class", "3", "--mults=-1,2"]):
        code, doc, _ = run_cli(argv, capsys)
        assert code == 1
        assert doc == {"error": "multiplicities must be nonnegative",
                       "path": None}


# polytopes off the first orthant: the first exited 0 with a wrong rank and
# toric_special true, the second ended dim and a whole sweep in an
# IndexError traceback
NEGATIVE_EXPONENT_SYSTEMS = {
    "wrong-rank": {"polytope": {"normals": [[-1, 2], [-1, 2], [0, -1], [1, 0]],
                                "offsets": [1, 4, 0, 3]},
                   "multiplicities": [3, 3, 2]},
    "index-error": {"polytope": {"normals": [[1, 1], [-1, 2], [2, -1], [-2, 0],
                                             [0, 0]],
                                 "offsets": [-2, 2, -1, 4, 0]},
                    "multiplicities": [3, 3, 2]},
}


@pytest.mark.parametrize("name", sorted(NEGATIVE_EXPONENT_SYSTEMS))
def test_dim_rejects_a_negative_exponent(name, tmp_path, capsys):
    sysfile = tmp_path / "s.json"
    sysfile.write_text(json.dumps(NEGATIVE_EXPONENT_SYSTEMS[name]))
    code, doc, err = run_cli(["dim", "--system", str(sysfile)], capsys)
    assert code == 1
    assert "negative exponent" in doc["error"]
    assert "Traceback" not in err


def test_sweep_negative_exponent_fails_that_task(tmp_path, capsys):
    job = tmp_path / "job.json"
    tasks = [NEGATIVE_EXPONENT_SYSTEMS[name]
             for name in sorted(NEGATIVE_EXPONENT_SYSTEMS)]
    tasks.append({"polytope": TRIANGLE3, "multiplicities": [2]})
    job.write_text(json.dumps({"tasks": tasks}))
    code, doc, err = run_cli(["sweep", "--job", str(job)], capsys)
    assert code == 0
    assert doc["total"] == 3 and doc["ok"] == 1 and doc["failed"] == 2
    assert err.count("negative exponent") == 2


def test_sweep_negative_multiplicity_fails_that_task(tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"tasks": [
        {"polytope": TRIANGLE3, "multiplicities": [-1, 2]},
        {"polytope": TRIANGLE3, "multiplicities": [2]}]}))
    code, doc, err = run_cli(["sweep", "--job", str(job)], capsys)
    assert code == 0
    assert doc["total"] == 2 and doc["ok"] == 1 and doc["failed"] == 1
    assert "multiplicities must be nonnegative" in err


MALFORMED_SYSTEMS = {
    "divisor_not_an_object": (
        {"fan": fan_to_json(hirzebruch_fan(1)), "divisor": 5,
         "multiplicities": [1]},
        "divisor must be a JSON object"),
    "standard_not_a_list": (
        {"fan": fan_to_json(hirzebruch_fan(1)), "divisor": {"standard": 3},
         "multiplicities": [1]},
        "'standard' must be a list of integers"),
    "multiplicities_not_a_list": (
        {"polytope": TRIANGLE3, "multiplicities": 5},
        "'multiplicities' must be a list of integers"),
    "multiplicities_nested": (
        {"polytope": TRIANGLE3, "multiplicities": [[1]]},
        "'multiplicities' must be a list of integers"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_SYSTEMS))
def test_malformed_system_is_an_input_error(name, tmp_path, capsys):
    system, message = MALFORMED_SYSTEMS[name]
    sysfile = tmp_path / "s.json"
    sysfile.write_text(json.dumps(system))
    code, doc, err = run_cli(["dim", "--system", str(sysfile)], capsys)
    assert code == 1
    assert doc == {"error": message, "path": str(sysfile)}
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"tasks": [system]}))
    code, doc, err = run_cli(["sweep", "--job", str(job)], capsys)
    assert code == 0
    assert doc["failed"] == 1 and doc["ok"] == 0
    assert message in err


@pytest.mark.parametrize("cfg, message", [
    ({"exact": "false"}, "'exact' must be true or false"),
    ({"exact": 0}, "'exact' must be true or false"),
    ({"trials": 2.7}, "'trials' must be an integer"),
    ({"trials": True}, "'trials' must be an integer"),
    ({"prime_bits": "31"}, "'prime_bits' must be an integer"),
    ({"seed": 1.0}, "'seed' must be an integer"),
])
def test_sweep_cfg_values_are_not_converted(cfg, message, tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "tasks": [{"polytope": TRIANGLE3, "multiplicities": [1]}],
        "cfg": cfg}))
    code, doc, err = run_cli(["sweep", "--job", str(job)], capsys)
    assert code == 0
    assert doc["failed"] == 1 and doc["ok"] == 0
    assert message in err


def test_sweep_cfg_typed_values(tmp_path, capsys):
    job = tmp_path / "job.json"
    out = tmp_path / "records.jsonl"
    job.write_text(json.dumps({
        "tasks": [{"polytope": TRIANGLE3, "multiplicities": [1]}],
        "cfg": {"exact": True, "trials": 2, "prime_bits": 31, "seed": 3}}))
    code, doc, _ = run_cli(["sweep", "--job", str(job), "--out", str(out)],
                           capsys)
    assert code == 0 and doc["ok"] == 1
    report = json.loads(out.read_text())["report"]
    assert report["mode"] == "exact" and len(report["samples"]) == 2


def test_verify_short_sample_is_malformed(tmp_path, capsys):
    certfile = tmp_path / "c.json"
    run_cli(["certify", "--example", "hirzebruch:1", "--class", "2,1",
             "--mults", "2", "--out", str(certfile)], capsys)
    doc = json.loads(certfile.read_text())
    doc["certificate"]["report"]["samples"][0] = [1, 2]
    certfile.write_text(json.dumps(doc))
    code, doc, _ = run_cli(["verify", "--certificate", str(certfile)], capsys)
    assert code == 1
    assert doc["error"].startswith("malformed certificate")
    assert doc["path"] == str(certfile)


def test_dim_rejects_non_integral_offset(tmp_path, capsys):
    sysfile = tmp_path / "s.json"
    sysfile.write_text(json.dumps({
        "polytope": {"normals": TRIANGLE3["normals"], "offsets": [0, 0, 2.7]},
        "multiplicities": [1]}))
    code, doc, _ = run_cli(["dim", "--system", str(sysfile)], capsys)
    assert code == 1
    assert doc == {"error": "integer vector expected", "path": str(sysfile)}


def test_verify_non_integer_mults_is_malformed(tmp_path, capsys):
    certfile = tmp_path / "c.json"
    run_cli(["certify", "--example", "hirzebruch:1", "--class", "3,2",
             "--mults", "2,2", "--out", str(certfile)], capsys)
    doc = json.loads(certfile.read_text())
    doc["certificate"]["mults"] = [2.5, 2]
    certfile.write_text(json.dumps(doc))
    code, doc, _ = run_cli(["verify", "--certificate", str(certfile)], capsys)
    assert code == 1
    assert doc == {"error": "malformed certificate: 'mults' must be a list "
                            "of integers", "path": str(certfile)}


INT_FIELD = "must be an integer"
INT_LIST = "must be a list of integers"


@pytest.mark.parametrize("path, bad, message", [
    (("split", "axis"), "0", f"'axis' {INT_FIELD}"),
    (("split", "level"), 2.0, f"'level' {INT_FIELD}"),
    (("split", "point_split"), "1", f"'point_split' {INT_FIELD}"),
    (("split", "point_split"), True, f"'point_split' {INT_FIELD}"),
    (("h0",), "9", f"'h0' {INT_FIELD}"),
    (("tvdim",), 2.5, f"'tvdim' {INT_FIELD}"),
    (("tvdim",), False, f"'tvdim' {INT_FIELD}"),
    (("children", 0, "truncations"), ["3", 3], f"'truncations' {INT_LIST}"),
    (("children", 0, "truncations"), [3, True], f"'truncations' {INT_LIST}"),
    (("children", 1, "truncations"), [3.0, 3], f"'truncations' {INT_LIST}"),
    (("truncations",), 3, f"'truncations' {INT_LIST}"),
])
def test_verify_non_integer_field_is_malformed(tmp_path, capsys, path, bad,
                                               message):
    certfile, code, doc, err = verify_edited(tmp_path, capsys, path, bad)
    assert code == 1
    assert doc == {"error": f"malformed certificate: {message}",
                   "path": str(certfile)}
    assert "Traceback" not in err


def verify_edited(tmp_path, capsys, path, bad):
    """verify on the certificate of hirzebruch:1, class 3,2, mults 2,2 (a
    split root with two leaves) after setting the field at path to bad."""
    certfile = tmp_path / "c.json"
    run_cli(["certify", "--example", "hirzebruch:1", "--class", "3,2",
             "--mults", "2,2", "--out", str(certfile)], capsys)
    doc = json.loads(certfile.read_text())
    node = doc["certificate"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = bad
    certfile.write_text(json.dumps(doc))
    return (certfile, *run_cli(["verify", "--certificate", str(certfile)],
                               capsys))


LEAF_REPORT = ("children", 0, "report")
SAMPLES = "'samples' must be [prime or null, seed, rank] lists"


@pytest.mark.parametrize("path, bad, message", [
    (LEAF_REPORT + ("rank",), "5", f"'rank' {INT_FIELD}"),
    (LEAF_REPORT + ("h0",), None, f"'h0' {INT_FIELD}"),
    (LEAF_REPORT + ("dim",), "x", f"'dim' {INT_FIELD}"),
    (LEAF_REPORT + ("seed",), 1.5, f"'seed' {INT_FIELD}"),
    (LEAF_REPORT + ("special",), 0, "'special' must be true or false"),
    (LEAF_REPORT + ("mode",), 5, "'mode' must be a string"),
    (LEAF_REPORT + ("samples",), [["a", 1, 2]], SAMPLES),
    (LEAF_REPORT + ("samples",), [[3, 1, 2, 4]], SAMPLES),
    (LEAF_REPORT + ("samples",), [[3, True, 2]], SAMPLES),
    (LEAF_REPORT + ("samples",), {"prime": 3}, SAMPLES),
    (("transcript", "passed"), "yes", "'passed' must be true or false"),
    (("transcript", "tvdim_plus"), True, f"'tvdim_plus' {INT_FIELD}"),
    (("transcript", "witness"), "base", "'witness' must be null or a list"),
    (("kind",), 5, "'kind' must be \"leaf\" or \"split\""),
    (("children", 1, "kind"), "node", "'kind' must be \"leaf\" or \"split\""),
])
def test_verify_mistyped_field_is_malformed(tmp_path, capsys, path, bad,
                                            message):
    certfile, code, doc, err = verify_edited(tmp_path, capsys, path, bad)
    assert code == 1
    assert doc == {"error": f"malformed certificate: {message}",
                   "path": str(certfile)}
    assert "Traceback" not in err


def test_verify_accepts_a_null_prime(tmp_path, capsys):
    # exact trials record no prime; verify re-runs each leaf afresh
    _, code, doc, _ = verify_edited(
        tmp_path, capsys, LEAF_REPORT + ("samples", 0, 0), None)
    assert (code, doc) == (0, {"verified": True})


# Seeded stdout at interpolation-benchmark scale (120x165 and 200x231), far
# above the h0 <= 40 of acceptance criterion 8: it pins the trial primes and
# seeds as well as the ranks.
GOLDEN_DIM = [
    ((3, 8), [2] * 30, "2", "11",
     '{"dim": 44, "edim": 44, "h0": 165, "mode": "modular", "polytope":'
     ' {"normals": [[-1, 0, 0], [0, -1, 0], [0, 0, -1], [1, 1, 1]],'
     ' "offsets": [0, 0, 0, 8]}, "rank": 120, "samples": [{"prime":'
     ' 1506549434989769903, "rank": 120, "seed": 7985063174142371181},'
     ' {"prime": 1260070913227170809, "rank": 120, "seed":'
     ' 7903166252872187431}], "seed": 11, "special": false, "tedim": 44,'
     ' "toric_special": false, "tvdim": 44, "vdim": 44}\n'),
    ((2, 20), [4] * 20, "1", "12",
     '{"dim": 30, "edim": 30, "h0": 231, "mode": "modular", "polytope":'
     ' {"normals": [[-1, 0], [0, -1], [1, 1]], "offsets": [0, 0, 20]},'
     ' "rank": 200, "samples": [{"prime": 1216158115360812397, "rank":'
     ' 200, "seed": 2481040521166681822}], "seed": 12, "special": false,'
     ' "tedim": 30, "toric_special": false, "tvdim": 30, "vdim": 30}\n'),
]


@pytest.mark.parametrize("shape, mults, trials, seed, expected", GOLDEN_DIM)
def test_dim_golden_seeded_output(tmp_path, capsys, shape, mults, trials,
                                  seed, expected):
    sysfile = tmp_path / "s.json"
    sysfile.write_text(json.dumps({
        "polytope": polytope_to_json(simplex_polytope(*shape)),
        "multiplicities": mults}))
    code = main(["dim", "--system", str(sysfile), "--trials", trials,
                 "--seed", seed])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out == expected


def tampered_certificate(tmp_path, capsys, edit):
    """The certificate of hirzebruch:1, class 6,4, mults 2,2,2,2,2 after
    edit(certificate) changed it in place; returns its file."""
    certfile = tmp_path / "c.json"
    run_cli(["certify", "--example", "hirzebruch:1", "--class", "6,4",
             "--mults", "2,2,2,2,2", "--out", str(certfile)], capsys)
    doc = json.loads(certfile.read_text())
    edit(doc["certificate"])
    certfile.write_text(json.dumps(doc))
    return certfile


def first_leaf(node):
    while node["kind"] != "leaf":
        node = node["children"][0]
    return node


def made_up_transcript(node):
    node["transcript"]["tvdim_minus"] += 5
    node["transcript"]["witness"] = ["made_up", 0, [0, 0]]


def shifted_tvdim(node):
    node["transcript"]["tvdim_minus"] += 5


def special_leaf(node):
    first_leaf(node)["report"].update(special=True, vdim=-7)


def leaf_vdim(node):
    first_leaf(node)["report"]["vdim"] -= 1


@pytest.mark.parametrize("edit", [made_up_transcript, shifted_tvdim,
                                  special_leaf, leaf_vdim])
def test_verify_compares_stored_transcripts_and_reports(edit, tmp_path,
                                                        capsys):
    certfile = tampered_certificate(tmp_path, capsys, edit)
    code, doc, _ = run_cli(["verify", "--certificate", str(certfile)], capsys)
    assert (code, doc) == (4, {"verified": False})


def test_verify_ignores_samples_seed_and_mode_of_leaf_reports(tmp_path,
                                                              capsys):
    # an exact verify with other trials records other samples, another seed
    # and another mode than the stored modular reports
    certfile = tampered_certificate(tmp_path, capsys, lambda node: None)
    code, doc, _ = run_cli(["verify", "--certificate", str(certfile),
                            "--exact", "--trials", "2", "--seed", "7"],
                           capsys)
    assert (code, doc) == (0, {"verified": True})


@pytest.mark.parametrize("command", ["dim", "certify"])
def test_fan_file_on_dim_and_certify(command, tmp_path, capsys):
    fanfile = tmp_path / "f.json"
    fanfile.write_text(json.dumps(fan_to_json(hirzebruch_fan(1))))
    system = ["--class", "2,1", "--mults", "2"]
    _, from_example, _ = run_cli(
        [command, "--example", "hirzebruch:1", *system], capsys)
    code, from_file, _ = run_cli(
        [command, "--fan", str(fanfile), *system], capsys)
    assert code == 0
    from_example.pop("example", None)
    assert from_file == from_example
    # --example takes precedence over --fan, as in h0
    code, both, _ = run_cli([command, "--example", "pn:2", "--fan",
                             str(fanfile), "--class", "2", "--mults", "2"],
                            capsys)
    assert code == 0
    if command == "dim":
        assert both["example"] == "pn:2" and both["h0"] == 6


@pytest.mark.parametrize("spec", ["pn", "hirzebruch", "box", "simplex:2",
                                  "pn:2:3", "bl3p2:1"])
def test_catalog_spec_with_wrong_arity_is_an_input_error(spec, capsys):
    code = main(["validate", "--example", spec])
    out, err = capsys.readouterr()
    assert code == 1
    assert len(out.splitlines()) == 1
    assert f"example '{spec}' takes" in json.loads(out)["error"]
    assert "Traceback" not in err


def test_huge_trial_count_is_an_input_error(capsys):
    code, doc, _ = run_cli(["dim", "--example", "pn:2", "--class", "2",
                            "--mults", "2", "--trials", str(10**20)], capsys)
    assert (code, doc) == (1, {"error": "trials must be at most 1000",
                               "path": None})


def test_sweep_huge_trial_count_fails_every_task(tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "tasks": [{"polytope": polytope_to_json(box_polytope((1, 1))),
                   "multiplicities": [1]}] * 2,
        "cfg": {"trials": 10**20}}))
    code, doc, err = run_cli(["sweep", "--job", str(job)], capsys)
    assert code == 0
    assert (doc["failed"], doc["ok"]) == (2, 0)
    assert "trials must be at most 1000" in err


def test_roots_of_an_invalid_fan(tmp_path, capsys):
    fanfile = tmp_path / "half.json"
    fanfile.write_text(json.dumps(
        {"rank": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0, 1]]}))
    code, doc, _ = run_cli(["roots", "--fan", str(fanfile)], capsys)
    assert code == 1
    assert doc["error"].startswith("invalid fan: ")


@pytest.mark.parametrize("command", ["dim", "certify"])
def test_missing_system_names_every_input(command, capsys):
    code, doc, _ = run_cli([command, "--class", "2,1", "--mults", "2"],
                           capsys)
    assert (code, doc) == (1, {
        "error": "need --system FILE or --fan/--example plus --class/--mults",
        "path": None})


def test_certify_system_not_in_standard_form(tmp_path, capsys):
    # the origin is a transitive vertex, but its edge to (2, 2) is slanted
    system = tmp_path / "slanted.json"
    system.write_text(json.dumps({
        "polytope": {"normals": [[-1, 0], [1, -1], [0, 1]],
                     "offsets": [0, 0, 2]},
        "multiplicities": [2, 2]}))
    code, doc, _ = run_cli(["certify", "--system", str(system)], capsys)
    assert (code, doc) == (1, {
        "error": "edges at the origin are not along the axes", "path": None})
