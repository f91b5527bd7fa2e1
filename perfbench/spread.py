"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/spread.py --workloads interp,degen --seeds 1-10 \
        --out .bench_out/spread.json

Each run is a fresh process (`run.py`), one after another. For every
end-to-end metric the summary gives the median, the quartiles of
`statistics.quantiles(values, n=4)` and their distance as a share of the
median, next to the bound fixed in BENCHMARK.json. With `--against FILE`
(an earlier summary, e.g. perfbench/baseline.json) it also reports how far
each median moved, as a share of the earlier median, in the direction that
counts as worse. With `--traced` it adds one traced run per workload, on the
first seed, and keeps its per-layer metrics and details.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    if "-" in text:
        a, b = text.split("-")
        return list(range(int(a), int(b) + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def worse_by(metric, old, new):
    """Relative change of a median in the direction that is worse."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--out", required=True)
    p.add_argument("--against", help="earlier summary to compare medians with")
    p.add_argument("--traced", action="store_true",
                   help="also keep one traced run per workload")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    earlier = json.loads(Path(args.against).read_text()) if args.against else None
    summary = {"run_seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for wl in args.workloads.split(","):
        values = {name: [] for name in metrics}
        walls = {}
        env = None
        for seed in seed_list(args.seeds):
            info, result = run_once(wl, seed, bench["run_seconds"], 0)
            env = info["env"]
            if not result["correct"]:
                print(f"{wl} seed {seed}: incorrect: {info['details']['failures']}")
                ok = False
            for name in metrics:
                values[name].append(result["metrics"][name]["value"])
            for name, value in info["details"]["wall"].items():
                walls.setdefault(name, []).append(value)
            print(f"{wl} seed {seed}: " + " ".join(
                f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            row = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                   "bound": metrics[name]["bound"], "values": vals}
            if name != "setup_s" and spread > metrics[name]["bound"] / 3:
                print(f"  {wl} {name}: spread {spread:.3f} above a third of "
                      f"bound {metrics[name]['bound']}")
                ok = False
            if earlier is not None:
                old = earlier["workloads"][wl]["metrics"][name]["median"]
                row["worse_by"] = worse_by(metrics[name], old, med)
                if row["worse_by"] > metrics[name]["bound"]:
                    print(f"  {wl} {name}: median worse by {row['worse_by']:.3f}")
                    ok = False
            rows[name] = row
        wall_rows = {}
        for name, vals in walls.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            wall_rows[name] = {"median": med, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / med if med else None}
        summary["workloads"][wl] = {"seeds": seed_list(args.seeds), "env": env,
                                    "metrics": rows, "wall": wall_rows}
        if args.traced:
            info, result = run_once(wl, seed_list(args.seeds)[0],
                                    bench["run_seconds"], 1)
            summary["workloads"][wl]["traced"] = {
                "details": info["details"],
                "per_layer": {k: v["value"] for k, v in result["metrics"].items()}}
        for name, row in rows.items():
            extra = f" worse_by={row['worse_by']:+.3f}" if "worse_by" in row else ""
            wall = wall_rows.get(name)
            extra += f" (wall: median={wall['median']:.5g} spread={wall['spread']:.4f})" \
                if wall else ""
            print(f"  {wl:7s} {name:12s} median={row['median']:.5g} "
                  f"spread={row['spread']:.4f} bound={row['bound']}{extra}")
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
