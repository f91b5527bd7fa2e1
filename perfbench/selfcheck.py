"""Self-check of the benchmark at reduced size (about two minutes).

    python3 perfbench/selfcheck.py

Checks, for every workload:

1. every metric named in BENCHMARK.json is emitted, with its unit, and no
   other (end-to-end with --trace 0, per-layer with --trace 1);
2. the deterministic per-layer counters (calls, points, matrix entries,
   candidates, and the ratios built from them) repeat exactly between two
   traced runs with the same seed;
3. the oracle passes a correct result and counts a deliberately wrong
   expected verdict as a failure.

It also checks that run.py fails, without printing a result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7

# per-layer metrics that depend on timing, not only on the inputs
TIMED_UNITS = ("s", "1/s")
TIMED_NAMES = ("trace.overhead_ratio",)


def run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--reduced"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600, check=False)


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_names(workload, result, wanted, problems):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in wanted}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        problems.append(f"{workload}: metric names/units differ: missing={missing} "
                        f"extra={extra} unit mismatch={units}")
    if not result["correct"] or result["failed"]:
        problems.append(f"{workload}: {result['failed']} failed operations")


def deterministic(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] not in TIMED_UNITS and k not in TIMED_NAMES}


def corrupt(value):
    """The same verdict with its first scalar field changed."""
    if isinstance(value, dict):
        out = copy.deepcopy(value)
        key = sorted(out)[0]
        out[key] = corrupt(out[key])
        return out
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "-wrong"
    if isinstance(value, list):
        return value + [0]
    raise TypeError(type(value))


def check_oracle(problems):
    sys.path.insert(0, str(HERE))
    import run as bench  # noqa: E402
    import oracle
    import workloads
    sys.path.insert(0, str(bench.SRC))
    cli = bench.import_program()
    reference = json.loads((HERE / "reference.json").read_text())
    rundir = bench.OUT / "selfcheck"
    rundir.mkdir(parents=True, exist_ok=True)
    try:
        for wl in workloads.WORKLOADS:
            for case in workloads.cases(wl, reduced=True)[:2]:
                op = workloads.make_op(wl, case, random.Random(f"selfcheck:{case.name}"),
                                       rundir, "sc")
                res = bench.run_op(cli, op)
                errors = oracle.check(op, res, reference)
                if errors:
                    problems.append(f"oracle rejects a correct result: {errors}")
                wrong = dict(reference, **{op.key: corrupt(reference[op.key])})
                if not oracle.check(op, res, wrong):
                    problems.append(f"oracle accepts a wrong expected verdict for {op.key}")
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def check_bare_directory(problems):
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run("fan", 0, cwd=bare, script=bare / HERE.name / "run.py")
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            problems.append("run.py succeeded without the program's source")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for wl in [w["name"] for w in bench["workloads"]]:
        check_names(wl, result_of(run(wl, 0)), bench["end_to_end"], problems)
        first = result_of(run(wl, 1))
        check_names(wl, first, bench["per_layer"], problems)
        again = deterministic(result_of(run(wl, 1)))
        for name, value in deterministic(first).items():
            if again.get(name) != value:
                problems.append(f"{wl}: {name} differs between traced runs: "
                                f"{value} vs {again.get(name)}")
        print(f"{wl}: checked", flush=True)
    check_oracle(problems)
    check_bare_directory(problems)
    for p in problems:
        print("FAIL", p)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
