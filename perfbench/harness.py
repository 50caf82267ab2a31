"""The measurement loop: set up, warm up, run timed ops, check, summarise.

This benchmark runs on shared machines whose speed swings by up to half
between a quiet and a contended state, for seconds at a time, and affects
wall and CPU time alike. A timing taken in a contended stretch says more
about the neighbours than about puregate. So every timed sample (a set-up
or an op) is preceded by a calibration probe: a fixed pure-Python loop that
never touches puregate. A sample is *quiet* when its probe ran within
``QUIET_FACTOR`` of the run's fastest probes, and the end-to-end timings are
computed over quiet samples only. An op is quiet only when the probe after
it (that of the next op) is quiet too, so that contention which sets in
while the op runs, and would land in the latency tail, drops it as well.
The choice depends on the probes, never on the sample's own time, so it
does not favour fast ops or slow ones; the share of quiet samples is
printed with the results.

Quiet or not, a run can land on a slower or faster stretch of the host,
and its timings follow the probe closely. So the end-to-end timings are
reported at a nominal machine speed: each op's latency, and each set-up's
time, is scaled by ``NOMINAL_PROBE_NS`` over its local probe time, the
median probe of the ``LOCAL_PROBES`` measured ops around it. Set-ups are
too few to filter, so ``setup_s`` is the median of all of them, scaled. A
change that slows puregate leaves the probe alone and shows in full; the
unscaled figures and the scale are printed above the result line.
"""

from __future__ import annotations

import gc
import random
from array import array
from itertools import chain, islice, repeat
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Any

from puregate import signing

import tracing
from workloads import MAX_CERT_BYTES, WORKLOADS

# set-up is timed once before the ops and then repeated at even intervals
# through the measured time, and the median of its quiet repeats reported:
# the repeats meet the same mix of quiet and contended stretches as the ops
SETUP_REPEATS = 15
# ops run before timing starts, so that first-call costs land here and not
# in the measured figures
WARMUP_OPS = 30
# in a traced run each op is traced with this probability, the rest run
# untraced in the same process, which gives the tracing overhead
TRACED_SHARE = 0.5
MAX_PROBLEMS_SHOWN = 5
PROBE_ITERATIONS = 2000  # about 0.1 ms at full speed
# a sample is quiet when its probe took at most this multiple of the run's
# reference probe time, the 1st percentile of all its probes
QUIET_FACTOR = 1.2
# the probe time that the end-to-end timings are scaled to: about the median
# probe of a 2-vCPU Intel Xeon virtual machine
NOMINAL_PROBE_NS = 140_000
# how many probes around an op give its local probe time
LOCAL_PROBES = 51

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_us": "us",
    "op_p99_us": "us",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "cert_bytes": "B",
}


@dataclass
class Result:
    workload: str
    seed: int
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    invariant_problems: list[str] = field(default_factory=list)
    # (probe ns, seconds, ops measured before it) per set-up repeat
    setups: list[tuple[int, float, int]] = field(default_factory=list)
    # per measured op, in compact arrays so that their growth barely moves
    # peak memory: the probe before it (ns), the latency (us), whether it
    # was traced
    probes: array = field(default_factory=lambda: array("q"))
    latencies_us: array = field(default_factory=lambda: array("d"))
    traced: array = field(default_factory=lambda: array("b"))
    cert_bytes: list[int] = field(default_factory=list)
    last_probe: int = 0  # taken after the last measured op
    peak_rss_mb: float = 0.0  # read when the measured loop ends
    tracer: tracing.Tracer | None = None

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.invariant_problems

    def note(self, problem: str) -> None:
        """Keep the first few problems; the count is in ``failed``."""
        if len(self.problems) < MAX_PROBLEMS_SHOWN:
            self.problems.append(problem)

    def quiet_limit(self) -> float:
        probes = [p for p, _, _ in self.setups] + list(self.probes)
        return QUIET_FACTOR * percentile(probes, 1)

    def speed_scale(self, i: int) -> float:
        """The factor that brings a sample taken at op ``i`` to the nominal speed."""
        half = LOCAL_PROBES // 2
        return NOMINAL_PROBE_NS / statistics.median(self.probes[max(0, i - half):i + half + 1])

    def speed_scales(self) -> list[float]:
        return [self.speed_scale(i) for i in range(len(self.probes))]

    def _select(self, traced: bool, limit: float, scales: list[float] | None) -> list[float]:
        """Latencies of ops whose probes before and after are within limit."""
        after = chain(islice(self.probes, 1, None), (self.last_probe,))
        return [
            lat * scale
            for p, q, lat, t, scale in zip(
                self.probes, after, self.latencies_us, self.traced, scales or repeat(1.0)
            )
            if t == traced and p <= limit and q <= limit
        ]

    def latencies(
        self, traced: bool, quiet_only: bool = True, scaled: bool = False
    ) -> list[float]:
        """Latencies of the quiet ops, or of all ops when none was quiet."""
        scales = self.speed_scales() if scaled else None
        everything = self._select(traced, float("inf"), scales)
        if not quiet_only:
            return everything
        return self._select(traced, self.quiet_limit(), scales) or everything

    def quiet_share(self) -> float:
        quiet = self._select(False, self.quiet_limit(), None)
        return len(quiet) / max(1, len(self.latencies(False, False)))

    def end_to_end(self) -> dict[str, float]:
        lat = self.latencies(False, scaled=True)
        setup = [s * self.speed_scale(i) for _, s, i in self.setups]
        return {
            "ops_per_s": len(lat) / (sum(lat) / 1e6),
            "op_p50_us": statistics.median(lat),
            "op_p99_us": percentile(lat, 99),
            "peak_rss_mb": self.peak_rss_mb,
            "setup_s": statistics.median(setup),
            "cert_bytes": float(statistics.median(self.cert_bytes)),
        }

    def per_layer(self) -> dict[str, float]:
        if self.tracer is None:
            raise ValueError("per-layer metrics need a traced run")
        metrics = self.tracer.summary()
        metrics.update(tracing.overhead(self.latencies(False), self.latencies(True)))
        return metrics

    def exact_counts(self) -> dict[str, Any]:
        """The counts that must repeat exactly for one seed and op count."""
        if self.tracer is None:
            raise ValueError("exact counts need a traced run")
        counts: dict[str, Any] = {
            name: self.tracer.counts[name] for name in tracing.EXACT_COUNTERS
        }
        counts["cert_bytes"] = list(self.cert_bytes)
        return counts


def probe_ns() -> int:
    """Time the calibration loop: fixed work that never touches puregate."""
    start = time.perf_counter_ns()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter_ns() - start


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def timed_setup(cls: type, seed: int, result: Result) -> Any:
    gc.collect()  # collect earlier garbage outside the timed region
    probe = probe_ns()
    start = time.perf_counter()
    workload = cls(seed)
    result.setups.append((probe, time.perf_counter() - start, len(result.probes)))
    return workload


def run_workload(
    name: str,
    seed: int,
    seconds: float | None,
    trace: bool,
    max_ops: int | None = None,
) -> Result:
    """Run one workload for ``seconds`` of measurement, or ``max_ops`` ops."""
    result = Result(workload=name, seed=seed)
    cls = WORKLOADS[name]
    # the import-time heap and then the run's own set-up live for the whole
    # run; keep them out of collections
    gc.collect()
    gc.freeze()
    workload = timed_setup(cls, seed, result)
    gc.collect()
    gc.freeze()

    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracing.warn_missing(tracer)
    result.tracer = tracer
    coin = random.Random(seed ^ 0x7ACE)
    clock = time.perf_counter_ns
    deadline = None
    next_setup = None
    i = 0
    while True:
        if max_ops is not None:
            if i >= max_ops:
                break
        elif i >= WARMUP_OPS:
            now = time.perf_counter()
            if deadline is None:
                deadline = now + seconds
                next_setup = now
            elif now >= deadline:
                break
            if now >= next_setup:
                timed_setup(cls, seed, result)  # a repeat; its object is dropped
                next_setup += seconds / (SETUP_REPEATS - 1)
        measured = i >= WARMUP_OPS
        traced = tracer is not None and measured and coin.random() < TRACED_SHARE
        op = workload.prepare(i)
        probe = probe_ns() if measured else 0
        verify_before = signing.verify_call_count
        try:
            if traced:
                with tracer.op(i) as set_root:
                    start = clock()
                    outcome = workload.run(op)
                    end = clock()
                    set_root(start, end)
            else:
                start = clock()
                outcome = workload.run(op)
                end = clock()
        except Exception:  # an op that raises is a failed op; keep measuring
            result.attempted += 1
            result.failed += 1
            result.note(f"op {i} raised:\n{traceback.format_exc()}")
            i += 1
            continue
        verify_calls = signing.verify_call_count - verify_before
        result.attempted += 1
        problems = workload.check(op, outcome, verify_calls)
        if problems:
            result.failed += 1
            result.note(f"op {i}: " + "; ".join(problems))
        if measured:
            result.probes.append(probe)
            result.latencies_us.append((end - start) / 1000.0)
            result.traced.append(traced)
            if traced:
                tracer.counts["signing.verify_calls"] += verify_calls
                tracer.counts["gate.log_events"] += workload.log_events()
        i += 1

    result.last_probe = probe_ns()
    result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gc.unfreeze()
    result.cert_bytes = list(workload.cert_bytes)
    if not result.cert_bytes or max(result.cert_bytes) > MAX_CERT_BYTES:
        result.invariant_problems.append(
            f"certificate sizes {sorted(set(result.cert_bytes))} exceed "
            f"{MAX_CERT_BYTES} B or are missing"
        )
    if not result.latencies(False, False):
        result.invariant_problems.append("no untraced op was measured")
    return result
