import json

import pytest

from toric_linsys.cli import main
from toric_linsys.catalog import box_polytope, hirzebruch_fan
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


def test_dim_rejects_zero_trials_and_tiny_primes(capsys):
    base = ["dim", "--example", "pn:2", "--class", "4", "--mults", "2,2"]
    for extra, message in ((["--trials", "0"], "trials must be at least 1"),
                           (["--prime-bits", "2"],
                            "prime_bits must be at least 3")):
        code, doc, _ = run_cli(base + extra, capsys)
        assert code == 1
        assert doc == {"error": message, "path": None}


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


def test_genericity_violation_exit_code(tmp_path, capsys):
    # a monomial support that is not a down-set breaks the dimension chain
    sysfile = tmp_path / "s.json"
    shifted = box_polytope((1, 1)).translate((2, 0))
    sysfile.write_text(json.dumps({
        "polytope": polytope_to_json(shifted),
        "multiplicities": [2],
    }))
    code, doc, _ = run_cli(["dim", "--system", str(sysfile)], capsys)
    assert code == 2
    assert "sub-generic" in doc["error"]


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
