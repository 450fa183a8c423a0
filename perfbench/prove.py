"""Check that the benchmark is steady, and record a trajectory point.

Usage, from the repository root::

    python3 perfbench/prove.py --seeds 10 [--workloads pcs-paper,fig7-640x128]
                               [--record perfbench/trajectory.json]

Runs ``perfbench/run.py`` once per (workload, seed), one run at a time,
and prints for every end-to-end metric the median, the quartiles and
the spread — the interquartile distance as a share of the median —
next to the metric's bound from ``BENCHMARK.json``.  A spread above a
third of its bound (``setup_s`` excepted) is flagged.  ``--record``
also makes one traced run per workload and writes both, stamped with
the environment, as a new point appended to the trajectory file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run(workload: str, seed: int, seconds: int, trace: int):
    """One benchmark run; returns (result object, env stamp, wall s)."""
    started = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(l[4:]) for l in lines if l.startswith("env "))
    return json.loads(lines[-1]), env, time.perf_counter() - started


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
        "values": values,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument(
        "--workloads", default=",".join(w["name"] for w in spec["workloads"])
    )
    parser.add_argument("--record", type=Path, default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    point = {"workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        walls, failed = [], 0
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, env, wall = run(workload, seed, args.seconds, 0)
            walls.append(wall)
            failed += result["failed"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: {args.seeds} runs, {failed} failed operations, "
              f"wall {min(walls):.1f}-{max(walls):.1f} s per run")
        entry = {"runs": args.seeds, "failed": failed, "end_to_end": {}}
        for name, vals in values.items():
            s = summarise(vals)
            entry["end_to_end"][name] = s
            flag = ""
            if name != "setup_s" and s["spread"] > bounds[name] / 3:
                flag = "  <-- above a third of the bound"
                steady = False
            print(f"  {name:<14} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.3f} "
                  f"(bound {bounds[name]}){flag}")
        if args.record is not None:
            traced, _, _ = run(workload, args.first_seed, args.seconds, 1)
            if traced["failed"]:
                print(f"  traced run: {traced['failed']} failed operations")
                steady = False
            entry["per_layer_seed"] = args.first_seed
            entry["per_layer"] = {
                k: v["value"] for k, v in traced["metrics"].items()
            }
            point["env"] = {k: v for k, v in env.items() if k != "seed"}
        point["workloads"][workload] = entry
    if args.record is not None:
        point["seeds"] = [args.first_seed, args.first_seed + args.seeds - 1]
        point["run_seconds"] = args.seconds
        history = json.loads(args.record.read_text()) if args.record.exists() else []
        history.append(point)
        args.record.write_text(json.dumps(history, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
