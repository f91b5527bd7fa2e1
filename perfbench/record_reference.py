"""Record the reference verdict of every base case into reference.json.

    python3 perfbench/record_reference.py

Each base case runs on two seeded variants; the verdicts must agree (the
variants present the same object), and that verdict is recorded. Run this
only at a commit whose verdicts are trusted: the oracle compares every later
run against the file.
"""

from __future__ import annotations

import json
import random
import shutil
import sys

import run
import workloads
from oracle import verdict


def main():
    sys.path.insert(0, str(run.SRC))
    cli = run.import_program()
    rundir = run.OUT / "reference"
    rundir.mkdir(parents=True, exist_ok=True)
    reference = {}
    try:
        for key, case in sorted(workloads.all_cases().items()):
            wl = key.split("/")[0]
            got = []
            for k in range(2):
                op = workloads.make_op(wl, case, random.Random(f"reference:{key}:{k}"),
                                       rundir, f"ref{k}")
                res = run.run_op(cli, op)
                if res.traceback:
                    sys.exit(f"{key}: {res.traceback}")
                got.append(verdict(op, json.loads(res.stdout)))
                if op.follow is not None and res.rc == 0:
                    vres = run.run_op(cli, op.follow)
                    reference[op.follow.key] = verdict(op.follow, json.loads(vres.stdout))
            if got[0] != got[1]:
                sys.exit(f"{key}: variants disagree: {got}")
            reference[key] = got[0]
            print(key, got[0], file=sys.stderr)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    with open(run.HERE / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
