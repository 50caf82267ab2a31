"""Single-threaded benchmark harness over the fixture corpus.

Metrics mirror the evaluation tables: certificate-verification latency,
the full plan cycle, canonical serialization of a medium context, the
serialized certificate size, and the cold-vs-warm gate speedup. Latency
numbers are wall-clock microseconds, reported as median/mean/p99 over an
explicit sample count after a warmup that is never measured.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from . import signing, wasm_inspect
from .certificate import PurityCertificate, certificate_bytes, keypair_from_seed
from .canonical import canonical_bytes
from .fixtures import UnknownFixture, certified_bundle, fixture_source
from .gate import GateCache, gate_verify
from .proof import PurityProof, proof_from_json, proof_to_json
from .runtime_host import ExecutorInput, instantiate_and_plan
from .whitelist import Whitelist, builtin_whitelist

METRICS = (
    "verify_latency",
    "plan_latency",
    "serialize_latency",
    "cert_size",
    "cache_speedup",
)
_LATENCY_METRICS = frozenset(METRICS) - {"cert_size"}

MIN_SAMPLES = 50
MIN_WARMUP = 5

# fixed seed so bench runs are reproducible without a key directory
_BENCH_SEED = bytes(range(64, 96))
_BENCH_TIME = 1_700_000_000


@dataclass(frozen=True)
class BenchReport:
    metric: str
    executor: str
    samples: int
    warmup: int
    median_us: float
    mean_us: float
    p99_us: float
    detail: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return {
            "metric": self.metric,
            "executor": self.executor,
            "samples": self.samples,
            "warmup": self.warmup,
            "median_us": self.median_us,
            "mean_us": self.mean_us,
            "p99_us": self.p99_us,
            "detail": self.detail,
        }


def _p99(values: list[float]) -> float:
    ordered = sorted(values)
    index = max(0, -(-99 * len(ordered) // 100) - 1)
    return ordered[index]


def _summary(values: list[float]) -> tuple[float, float, float]:
    return statistics.median(values), statistics.fmean(values), _p99(values)


def _time_us(fn: Callable[[], Any], samples: int, warmup: int) -> list[float]:
    for _ in range(warmup):
        fn()
    out = []
    for _ in range(samples):
        start = time.perf_counter_ns()
        fn()
        out.append((time.perf_counter_ns() - start) / 1000.0)
    return out


def _cold_gate_us(
    binary: bytes,
    cert: PurityCertificate,
    proof: PurityProof,
    runtime: Whitelist,
    trusted: list[bytes],
    samples: int,
    warmup: int,
) -> list[float]:
    """Time uncached gate calls, each on its own copy of the proof, made
    before timing: a proof keeps its digest, so calls on one object would
    stop measuring step 3's encoding after the first. Each call also empties
    the header memo first, or step 4 would decode only once (an equal copy
    of the bytes would still be a hit). It empties no other process memo:
    the type entries and import records that step 4 decodes and step 3
    encodes stay warm, as they are in a running gate, which has seen the
    whitelist's few entries long before this artifact."""
    doc = proof_to_json(proof)
    copies = iter([proof_from_json(doc) for _ in range(warmup + samples)])

    def cold_gate() -> None:
        wasm_inspect._HEADERS.clear()
        gate_verify(binary, cert, next(copies), runtime, trusted)

    return _time_us(cold_gate, samples, warmup)


def medium_context() -> dict[str, Any]:
    """A 100-item, 5-tool context document for serialization timing."""
    return {
        "items": [
            {"index": i, "role": "user" if i % 2 else "assistant",
             "text": f"message body number {i}"}
            for i in range(100)
        ],
        "tools": [
            {"name": f"tool_{i}", "description": "does one thing",
             "parameters": {"type": "object", "properties": {"x": {"type": "integer"}}}}
            for i in range(5)
        ],
    }


def bench(
    target: str,
    executor: str = "emit_call",
    samples: int = MIN_SAMPLES,
    warmup: int = MIN_WARMUP,
) -> BenchReport:
    """Measure one metric against one certified fixture."""
    if target not in METRICS:
        raise ValueError(f"unknown metric {target!r}")
    if target in _LATENCY_METRICS and (samples < MIN_SAMPLES or warmup < MIN_WARMUP):
        raise ValueError(
            f"latency metrics need samples >= {MIN_SAMPLES} and "
            f"warmup >= {MIN_WARMUP}"
        )
    fixture_source(executor)  # raises UnknownFixture early
    runtime = builtin_whitelist(1)
    key = keypair_from_seed(_BENCH_SEED)
    binary, proof, cert = certified_bundle(executor, key, runtime, _BENCH_TIME)
    trusted = [key.public_key]
    detail: dict[str, Any] = {"binary_bytes": len(binary)}

    if target == "cert_size":
        size = float(len(certificate_bytes(cert)))
        return BenchReport(target, executor, samples, warmup, size, size, size, detail)

    if target == "verify_latency":
        values = _cold_gate_us(binary, cert, proof, runtime, trusted, samples, warmup)

    elif target == "plan_latency":
        cache = GateCache()
        plan_input = ExecutorInput(step_config={"bench": True}, context={})

        def cycle() -> None:
            decision = gate_verify(
                binary, cert, proof, runtime, trusted, cache=cache
            )
            instantiate_and_plan(binary, decision, plan_input)

        values = _time_us(cycle, samples, warmup)

    elif target == "serialize_latency":
        doc = medium_context()
        values = _time_us(lambda: canonical_bytes(doc), samples, warmup)
        detail["serialized_bytes"] = len(canonical_bytes(doc))

    else:  # cache_speedup
        cold = _cold_gate_us(binary, cert, proof, runtime, trusted, samples, warmup)
        cache = GateCache()
        gate_verify(binary, cert, proof, runtime, trusted, cache=cache)
        signing.reset_verify_call_count()
        warm = _time_us(
            lambda: gate_verify(binary, cert, proof, runtime, trusted, cache=cache),
            samples,
            warmup,
        )
        detail["warm_crypto_verifications"] = signing.verify_call_count
        cold_med, cold_mean, cold_p99 = _summary(cold)
        warm_med, warm_mean, warm_p99 = _summary(warm)
        detail["cold_median_us"] = cold_med
        detail["warm_median_us"] = warm_med
        return BenchReport(
            target,
            executor,
            samples,
            warmup,
            cold_med / warm_med,
            cold_mean / warm_mean,
            cold_p99 / warm_p99,
            detail,
        )

    med, mean, p99 = _summary(values)
    return BenchReport(target, executor, samples, warmup, med, mean, p99, detail)


__all__ = [
    "METRICS",
    "MIN_SAMPLES",
    "MIN_WARMUP",
    "BenchReport",
    "bench",
    "medium_context",
    "UnknownFixture",
]
