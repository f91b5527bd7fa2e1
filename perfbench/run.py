"""Benchmark of the toric-linsys command line, one workload per run.

    python3 perfbench/run.py --workload interp --seed 1 --seconds 20 --trace 0

A single-process, single-client closed loop: every operation is one
`toric_linsys.cli.main(argv)` call made in-process with stdout captured, on
input files generated from the seed, and the next operation starts when the
previous one has returned. Every result is checked by the oracle.

Phases of one run:

1. set-up, repeated SETUP_REPS times: import `toric_linsys` and
   `toric_linsys.cli` afresh and run one warm-up operation that is not in
   the timed list; `setup_s` is the median.
2. timed pass, tracing off: whole rounds (every base case of the workload
   once, fresh variants) until `--seconds` of operation time have passed
   and at least MIN_OPS operations have run.
3. with `--trace 1` only: a traced pass over TRACE_ROUNDS further rounds
   whose inputs depend on the seed alone, so its counters repeat exactly.

The last line of stdout is the result: end-to-end metrics with `--trace 0`,
per-layer metrics with `--trace 1`. The line before it holds the
environment record and the details behind the metrics; the same document,
and the spans of a traced run, are written under .bench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
import dataclasses
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
import calibrate  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_REPS = 5
# extra calibration slices per set-up repetition, for a steadier speed factor
SETUP_SLICES = 8
TRACE_ROUNDS = 2
# Round indices of the traced pass: far above any round the timed pass reaches.
TRACE_FIRST_ROUND = 100_000
# Fixed tail percentile. The timed pass runs at least MIN_OPS operations, so
# at least ten samples lie beyond it even when the machine is slow.
TAIL_PCT = 90
MIN_OPS = 100


@dataclass
class Result:
    rc: int | None
    stdout: str
    stderr: str
    traceback: str | None
    seconds: float


@dataclass
class Round:
    factor: float         # speed factor from the calibration slices
    ops: list             # (reference key, wall seconds) per operation
    slices: list          # calibration slice seconds after each operation

    @property
    def wall_seconds(self):
        return sum(x for _, x in self.ops)

    @property
    def seconds(self):
        """Operation time in reference seconds."""
        return self.wall_seconds * self.factor

    def latencies(self):
        return [(key, x * self.factor) for key, x in self.ops]


def run_op(cli, op):
    out, err = io.StringIO(), io.StringIO()
    rc, tb = None, None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv)
    except SystemExit as exc:  # argparse rejects the argv
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        tb = traceback.format_exc()
    seconds = perf_counter() - start
    return Result(rc, out.getvalue(), err.getvalue(), tb, seconds)


class Runner:
    """Runs operations, checks them and keeps the per-operation record."""

    def __init__(self, workload, seed, rundir, reference, reduced):
        self.workload = workload
        self.seed = seed
        self.rundir = rundir
        self.reference = reference
        self.reduced = reduced
        self.argvs = set()
        self.slices = []
        self.tracer = None
        self.attempted = 0
        self.failures = []
        self.stdout_bytes = 0

    def execute(self, cli, op):
        """Run one op and, after a successful certify, its verify op.

        Returns the (op, result) pairs; checking is left to `check` so the
        oracle's time stays out of the timed rounds."""
        key = tuple(op.argv)
        if key in self.argvs:
            raise RuntimeError(f"argv repeated within a run: {op.argv}")
        self.argvs.add(key)
        if self.tracer is not None:
            self.tracer.op = len(self.argvs)
        res = run_op(cli, op)
        self.slices.append(calibrate.slice_seconds())
        done = [(op, res)]
        if op.follow is not None and res.rc == 0:
            done += self.execute(cli, op.follow)
        return done

    def check(self, done):
        for op, res in done:
            self.attempted += 1
            self.stdout_bytes += len(res.stdout.encode())
            errors = oracle.check(op, res, self.reference)
            if errors:
                self.failures.append(errors)

    def speed_factor(self):
        """REFERENCE_SLICE_S over the mean slice since the last call."""
        factor = calibrate.REFERENCE_SLICE_S * len(self.slices) / sum(self.slices)
        self.slices = []
        return factor

    def rounds(self, cli, first, stop):
        """Run whole rounds from index `first` until stop(rounds run so far).

        Returns one Round per round run."""
        rounds, index = [], first
        while not stop(rounds):
            ops = workloads.make_round(self.workload, self.seed, index,
                                       self.rundir, self.reduced)
            done = []
            first_op = len(self.argvs) + 1
            for op in ops:
                done += self.execute(cli, op)
            slices = self.slices
            factor = self.speed_factor()
            rounds.append(Round(factor, [(op.key, res.seconds) for op, res in done],
                                slices))
            if self.tracer is not None:
                for op_id in range(first_op, len(self.argvs) + 1):
                    self.tracer.op_factor[op_id] = factor
            self.check(done)
            index += 1
        return rounds


def import_program():
    """Import the package afresh, dropping any earlier copy."""
    for name in [n for n in sys.modules
                 if n == "toric_linsys" or n.startswith("toric_linsys.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    importlib.import_module("toric_linsys")
    return importlib.import_module("toric_linsys.cli")


def setup(runner):
    """Median over SETUP_REPS of: fresh import plus one warm-up operation.

    Returns (median in reference seconds, median in wall seconds, cli)."""
    times, walls = [], []
    cli = None
    for rep in range(SETUP_REPS):
        op = workloads.make_warmup(runner.workload, runner.seed, rep, runner.rundir)
        start = perf_counter()
        cli = import_program()
        imported = perf_counter() - start
        done = runner.execute(cli, op)
        wall = imported + sum(res.seconds for _, res in done)
        runner.slices += [calibrate.slice_seconds() for _ in range(SETUP_SLICES)]
        walls.append(wall)
        times.append(wall * runner.speed_factor())
        runner.check(done)
    module_file = Path(cli.__file__).resolve()
    if SRC.resolve() not in module_file.parents:
        raise RuntimeError(f"imported the program from {module_file}, not {SRC}")
    return statistics.median(times), statistics.median(walls), cli


def summary(latencies, seconds):
    """Throughput, median and tail of one pass's operation times."""
    if len(latencies) > 1:
        tail = statistics.quantiles(latencies, n=100, method="inclusive")[TAIL_PCT - 1]
    else:
        tail = latencies[0]
    return {"ops_per_s": len(latencies) / seconds,
            "op_ms_p50": statistics.median(latencies) * 1000,
            "op_ms_tail": tail * 1000,
            "beyond": sum(1 for x in latencies if x > tail)}


def per_case_ms(timed):
    by_case = {}
    for key, seconds in timed:
        by_case.setdefault(key, []).append(seconds * 1000)
    return {k: round(statistics.median(v), 3) for k, v in sorted(by_case.items())}


def environment():
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "toric_linsys").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "cpu_model": cpu or platform.processor() or None,
            "commit": commit,
            "source_sha256": digest.hexdigest()}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reduced", action="store_true",
                   help="self-check size: only the small base cases, one traced round")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "toric_linsys" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    # build_parser reads this variable outside main's error handling, and
    # every operation passes an explicit --seed anyway.
    os.environ.pop("TORIC_LINSYS_SEED", None)
    sys.path.insert(0, str(SRC))
    with open(HERE / "reference.json") as fh:
        reference = json.load(fh)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    rundir = OUT / f"{tag}-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(args.workload, args.seed, rundir, reference, args.reduced)
        setup_s, setup_wall_s, cli = setup(runner)
        min_ops = 1 if args.reduced else MIN_OPS
        rounds = runner.rounds(
            cli, 0, lambda done: sum(r.wall_seconds for r in done) >= args.seconds
            and sum(len(r.ops) for r in done) >= min_ops)
        timed = [pair for r in rounds for pair in r.latencies()]
        ref = summary([x for _, x in timed], sum(r.seconds for r in rounds))
        wall = summary([x for r in rounds for _, x in r.ops],
                       sum(r.wall_seconds for r in rounds))
        details = {"workload": args.workload, "seed": args.seed,
                   "rounds": len(rounds), "operations": len(timed),
                   "speed_factors": [r.factor for r in rounds],
                   "tail_percentile": TAIL_PCT,
                   "tail_samples_beyond": ref["beyond"],
                   "setup_reps": SETUP_REPS,
                   "wall": dict(wall, setup_s=setup_wall_s),
                   "op_ms_median_by_case": per_case_ms(timed)}
        if args.trace:
            tracer = runner.tracer = Tracer()
            tracer.install()
            trace_rounds = 1 if args.reduced else TRACE_ROUNDS
            before, bytes_before = runner.attempted, runner.stdout_bytes
            trounds = runner.rounds(
                cli, TRACE_FIRST_ROUND, lambda done: len(done) >= trace_rounds)
            traced_ops_per_s = (sum(len(r.ops) for r in trounds)
                                / sum(r.seconds for r in trounds))
            metrics = tracer.metrics()
            metrics["trace.ops_per_s"] = (traced_ops_per_s, "1/s")
            metrics["trace.overhead_ratio"] = (traced_ops_per_s / ref["ops_per_s"],
                                               "ratio")
            metrics["cli.stdout_bytes"] = (runner.stdout_bytes - bytes_before, "B")
            metrics["oracle.failed_ratio"] = (
                len(runner.failures) / runner.attempted, "ratio")
            details["traced_operations"] = runner.attempted - before
            tracer.dump(OUT / f"{tag}.spans.gz")
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = {
                "ops_per_s": (ref["ops_per_s"], "1/s"),
                "op_ms_p50": (ref["op_ms_p50"], "ms"),
                "op_ms_tail": (ref["op_ms_tail"], "ms"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (rss_kb / 1024, "MB"),
                "ok_ratio": (1 - len(runner.failures) / runner.attempted, "ratio"),
            }
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    details["failed_ratio"] = len(runner.failures) / runner.attempted
    details["failures"] = runner.failures[:20]
    result = {"correct": not runner.failures,
              "attempted": runner.attempted,
              "failed": len(runner.failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"env": environment(), "details": details, "result": result,
              "rounds": [dataclasses.asdict(r) for r in rounds]}
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"env": record["env"], "details": details}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
