#!/usr/bin/env python3
"""puregate benchmark: one workload, one seed, end-to-end or traced metrics.

Run from the repository root:

    python3 perfbench/run.py --workload onboard --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer breakdown from spans recorded around puregate's layer entry
points, and writes the spans to perfbench/out/trace-<workload>.jsonl. The
last line of standard output is one JSON object: correct, attempted,
failed and metrics. The exit code is 1 when any op failed its reference
check or an invariant did not hold, 2 when the source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE_DIR = ROOT / "src"


def use_source_tree() -> None:
    """Import puregate from this checkout's src/, never from elsewhere."""
    if not (SOURCE_DIR / "puregate" / "__init__.py").is_file():
        raise FileNotFoundError(f"no puregate source tree under {SOURCE_DIR}")
    for path in (str(BENCH_DIR), str(SOURCE_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("onboard", "plan_warm", "machine"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        use_source_tree()
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import harness
    import tracing

    result = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in result.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    for problem in result.invariant_problems:
        print(f"perfbench: INVARIANT {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result.attempted} ops attempted, {result.failed} failed "
          f"(failed_op_ratio {result.failed / max(result.attempted, 1):.4f})")
    untraced = result.latencies(False, False)
    if not untraced:
        return 1
    quiet = result.latencies(False)
    n_quiet = len(quiet)
    print(f"  quiet share {result.quiet_share():.2f} (probe limit "
          f"{result.quiet_limit() / 1000:.1f} us); p50 over all untraced ops "
          f"{statistics.median(untraced):.1f} us")
    print(f"  median speed scale {statistics.median(result.speed_scales()):.4f}; "
          f"unscaled quiet p50 "
          f"{statistics.median(quiet):.1f} us, p99 "
          f"{harness.percentile(quiet, 99):.1f} us")
    if args.trace:
        metrics = {
            name: (value, tracing.unit_of(name))
            for name, value in result.per_layer().items()
        }
        result.tracer.write(BENCH_DIR / "out" / f"trace-{args.workload}.jsonl")
    else:
        metrics = {
            name: (value, harness.END_TO_END_UNITS[name])
            for name, value in result.end_to_end().items()
        }
    for name, (value, unit) in metrics.items():
        note = ""
        if name in ("op_p50_us", "op_p99_us"):
            note = f"  (n={n_quiet})"
        print(f"  {name:34s} {value:14.4f} {unit}{note}")

    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
