"""Run the benchmark over two sets of ten seeds and report how far each metric spreads.

    python3 perfbench/spread.py [--out FILE]

For every workload in BENCHMARK.json it runs ``run.py`` once per seed, one
run at a time: seeds 1-10, then seeds 11-20.  For every end-to-end metric it
prints each set's median, quartiles and spread (the distance between the
quartiles as a share of the median), and how far the second set's median
lies from the first's.  The benchmark is steady when every spread is below a
third of the metric's bound and no second median is worse than the first by
more than the bound.  It also makes two traced runs of every workload on
seed 1 and fails unless their call counts agree exactly.  ``--out`` writes
everything as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT_UNITS = ("count",)  # per-layer metrics that must repeat exactly
SEED_SETS = (range(1, 11), range(11, 21))


def bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True, cwd=ROOT,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n{proc.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def machine():
    return {"machine": platform.machine(), "cpus": os.cpu_count(),
            "platform": platform.platform(), "python": platform.python_version()}


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def worse_by(metric, first, second):
    """How much worse the second median is than the first, as a share of it."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    report, steady = {"machine": machine(), "seed_sets": [list(s) for s in SEED_SETS]}, True
    runs = {}
    for k, seeds in enumerate(SEED_SETS):
        for workload in workloads:
            runs[workload, k] = [bench(workload, seed, seconds, 0) for seed in seeds]
    for workload in workloads:
        entry = report[workload] = {"end_to_end": {}}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [spread([r[name] for r in runs[workload, k]])
                    for k in range(len(SEED_SETS))]
            worse = worse_by(metric, sets[0]["median"], sets[1]["median"])
            ok = all(s["spread"] < bound / 3 for s in sets) and worse <= bound
            steady &= ok
            entry["end_to_end"][name] = {"sets": sets, "second_worse_by": worse}
            print(f"{workload:8s} {name:12s} median {sets[0]['median']:12.6g} "
                  f"{sets[1]['median']:12.6g} spread {sets[0]['spread']:7.2%} "
                  f"{sets[1]['spread']:7.2%} bound/3 {bound / 3:7.2%} "
                  f"second worse by {worse:7.2%}{'' if ok else '  NOT STEADY'}", flush=True)
        seed = SEED_SETS[0][0]
        first, second = (bench(workload, seed, seconds, 1) for _ in range(2))
        exact = [m["name"] for m in spec["per_layer"] if m["unit"] in EXACT_UNITS]
        differ = [name for name in exact if first[name] != second[name]]
        print(f"{workload:8s} traced twice on seed {seed}: "
              f"{'counts repeat exactly' if not differ else f'counts differ: {differ}'}")
        steady &= not differ
        entry["per_layer"] = {"seed": seed, "runs": [first, second]}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
