"""Run every workload, untraced and traced, each in a fresh process; print
the metric tables and write a BENCH_*.json run record.

    python3 bench/record.py --seed 0 --out bench/BENCH_baseline.json

The record holds, per workload, the reason it was chosen (from
BENCHMARK.json), the seed, the BLAS thread pin, and both results.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from importlib.metadata import version

from run import BLAS_PIN, HERE, ROOT, WORKLOAD_NAMES


def run_workload(name, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def table(title, spec, results):
    names = list(results)
    print(f"\n{title:48s}" + "".join(f"{n:>16s}" for n in names))
    for key in ("correct", "attempted", "failed"):
        print(f"{key:48s}" + "".join(f"{str(results[n][key]):>16s}" for n in names))
    for m in spec:
        row = "".join(f"{results[n]['metrics'][m['name']]['value']:16.6g}" for n in names)
        print(f"{m['name'] + ' [' + m['unit'] + ']':48s}{row}")


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", default=None, help="record path (default bench/results/BENCH_seed<seed>.json)")
    args = parser.parse_args(argv)

    why = {w["name"]: w["why"] for w in spec["workloads"]}
    untraced = {n: run_workload(n, args.seed, args.seconds, 0) for n in WORKLOAD_NAMES}
    traced = {n: run_workload(n, args.seed, args.seconds, 1) for n in WORKLOAD_NAMES}
    table("end to end", spec["end_to_end"], untraced)
    table("per layer (traced run)", spec["per_layer"], traced)

    record = {
        "seed": args.seed,
        "run_seconds": args.seconds,
        "blas_pin": BLAS_PIN,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "machine": f"{platform.machine()}, {os.cpu_count()} logical CPUs",
        "workloads": {
            n: {"why": why[n], "end_to_end": untraced[n], "per_layer": traced[n]} for n in WORKLOAD_NAMES
        },
    }
    out = ROOT / (args.out or f"bench/results/BENCH_seed{args.seed}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
