#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, checked against their bounds.

Runs ``perfbench/run.py`` once per seed for each workload, one run at a
time, and prints for every end-to-end metric the median of the runs and the
distance between the first and third quartile as a share of the median. A
spread above a third of the metric's bound is flagged. Run from the
repository root:

    python3 perfbench/spread.py --seeds 10 --workloads onboard machine

It also prints the spread of each run's calibration-probe limit (see
harness.py): when that moves as much as the timings, the machine's own speed
moved, not the program's. Results are also written as JSON to
perfbench/out/spread.json.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


PROBE_LIMIT = re.compile(r"probe limit ([0-9.]+) us")


def spread_of(values: list[float]) -> tuple[float, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["probe_limit_us"] = float(PROBE_LIMIT.search(proc.stdout).group(1))
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()

    report: dict[str, dict] = {}
    steady = True
    for workload in args.workloads:
        runs = [
            run_once(workload, seed, args.seconds)
            for seed in range(args.first_seed, args.first_seed + args.seeds)
        ]
        report[workload] = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            median, spread = spread_of(values)
            flag = ""
            if name != "setup_s" and spread > metric["bound"] / 3:
                flag = "  WIDE"
                steady = False
            print(f"{workload:10s} {name:12s} median {median:14.4f} {metric['unit']:4s} "
                  f"spread {spread:7.4f} (bound {metric['bound']}){flag}", flush=True)
            report[workload][name] = {"values": values, "median": median, "spread": spread}
        probes = [r["probe_limit_us"] for r in runs]
        median, spread = spread_of(probes)
        print(f"{workload:10s} {'probe limit':12s} median {median:14.4f} us   "
              f"spread {spread:7.4f}", flush=True)
        report[workload]["probe_limit_us"] = {
            "values": probes, "median": median, "spread": spread
        }
    out = ROOT / "perfbench" / "out" / "spread.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
