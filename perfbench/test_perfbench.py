"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

run.use_source_tree()

import harness  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
# enough ops past the warm-up that every op kind is traced at least once
MAX_OPS = {"onboard": harness.WARMUP_OPS + 80, "plan_warm": harness.WARMUP_OPS + 40,
           "machine": harness.WARMUP_OPS + 24}


def traced_run(workload: str, seed: int) -> harness.Result:
    return harness.run_workload(workload, seed, None, True, max_ops=MAX_OPS[workload])


@pytest.mark.parametrize("workload", sorted(MAX_OPS))
def test_same_seed_gives_identical_counts(workload):
    first = traced_run(workload, 5)
    second = traced_run(workload, 5)
    assert first.correct, first.problems + first.invariant_problems
    assert second.correct, second.problems + second.invariant_problems
    assert first.exact_counts() == second.exact_counts()
    assert first.exact_counts()["wasmvm.fuel_used"] > 0


@pytest.mark.parametrize("workload", sorted(MAX_OPS))
def test_another_seed_passes_every_check(workload):
    result = traced_run(workload, 11)
    assert result.correct, result.problems + result.invariant_problems
    counts = result.exact_counts()
    if workload == "onboard":
        for step in (1, 2, 3, 5):
            assert counts[f"gate.rejects.step{step}"] > 0, step
    if workload == "plan_warm":
        assert counts["signing.verify_calls"] == 0
    if workload == "machine":
        assert counts["interpreter.denied"] > 0


def test_metrics_match_benchmark_json():
    untraced = harness.run_workload("machine", 2, None, False, max_ops=harness.WARMUP_OPS + 4)
    assert list(untraced.end_to_end()) == [m["name"] for m in SPEC["end_to_end"]]
    traced = traced_run("machine", 2)
    assert sorted(traced.per_layer()) == sorted(m["name"] for m in SPEC["per_layer"])


def test_layers_carry_the_work_their_workload_is_chosen_for():
    layer = {name: traced_run(name, 3).per_layer() for name in MAX_OPS}
    warm = layer["plan_warm"]
    assert warm["self.wasmvm_us"] > 0.5 * sum(v for k, v in warm.items() if k.startswith("self."))
    assert warm["gate.cache_hit_ratio"] == 1.0
    assert layer["onboard"]["gate.cache_hit_ratio"] == 0.0
    for metric in ("interpreter.govern_us", "provenance.append_us", "attestation.build_us"):
        assert layer["machine"][metric] > 0
        assert layer["onboard"][metric] == layer["plan_warm"][metric] == 0


def test_reference_check_catches_a_wrong_plan_output():
    workload = workloads.PlanWarm(1)
    for i in range(len(workload.bundles) * len(workload.SIZES)):
        op = workload.prepare(i)
        decision, output = workload.run(op)
        assert workload.check(op, (decision, output), 0) == []
        wrong = type(output)(
            result={"tampered": True}, directives=output.directives, log_lines=()
        )
        assert workload.check(op, (decision, wrong), 0)


def test_checksum_reference_matches_known_values():
    assert reference.checksum(b"") == "00000000"
    assert reference.checksum(b"a") == reference.checksum(b"a" + bytes(3))
    assert reference.checksum(b"a") != reference.checksum(b"b")
    # only the first 4 bytes of every 64 are sampled
    assert reference.checksum(b"abcd" + bytes(60)) == reference.checksum(b"abcd" + b"x" * 60)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "onboard", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
