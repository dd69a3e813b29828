#!/usr/bin/env python3
"""Run-to-run steadiness of the loadex benchmark's end-to-end metrics.

Runs each workload several times at each seed (by default the development
seed 1 and the unused seed 1009, five runs each) through perfbench/run.py,
then prints, for every end-to-end metric of BENCHMARK.json: the median, the
quartiles, the interquartile spread as a share of the median, the max/min
ratio, the metric's bound, and whether the spread is below a third of the
bound. Also reports any run that failed or was incorrect.

    python3 perfbench/steadiness.py [--workloads sim_paper,net_flood]
        [--seeds 1,1009] [--repeats 5] [--seconds N]

Run from the repository root. With --seeds 1,2,...,10 --repeats 1 it
makes the ten-seed check: one run per seed.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return {"correct": False, "metrics": {}, "exit": proc.returncode}
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    return result


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1,1009")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            for _ in range(args.repeats):
                r = run_once(workload, seed, args.seconds)
                ok = r["exit"] == 0 and r["correct"]
                steady = steady and ok
                wall = r["metrics"].get("wall_s", {}).get("value", 0.0)
                print(f"# {workload} seed {seed}: "
                      f"{'ok' if ok else 'FAILED'}, wall_s {wall:.6g}",
                      flush=True)
                runs.append(r)
        print(f"\n{workload}: {len(runs)} runs, seeds {args.seeds}")
        print(f"{'metric':<18}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'iqr/med':>9}{'max/min':>9}{'bound':>7}  steady")
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs
                    if m["name"] in r["metrics"]]
            if len(vals) < 2:
                print(f"{m['name']:<18} missing")
                steady = False
                continue
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med if med else float("inf")
            spread = max(vals) / min(vals) if min(vals) else float("inf")
            # setup_s is exempt from the spread rule, like the benchmark's
            # acceptance check; its medians must still agree.
            ok = share < m["bound"] / 3 or m["name"] == "setup_s"
            steady = steady and ok
            print(f"{m['name']:<18}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{share:>9.3f}{spread:>9.3f}{m['bound']:>7}  "
                  f"{'yes' if ok else 'NO'}")
        print(flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
