"""Span tracing from outside the program: wrap puregate's layer entry points.

Each wrapped call records a span (op id, parent span, name, start, end) in
memory; counters record the work done at the same boundaries. Wrappers are
installed only around traced ops and removed after, so an untraced op runs
the unmodified code. A module attribute is patched in the namespace its
caller looks it up in, which is how calls from the gate into
``verify_certificate_signature`` are told apart from the attestation
verifier's calls to the same function.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

from puregate import (
    attestation,
    certificate,
    gate,
    interpreter,
    proof,
    provenance,
    runtime_host,
    signing,
    wasm_inspect,
    wasmvm,
)

ROOT = "op"

# span name -> the layer its self time is charged to
LAYERS = {
    "gate.verify": "gate",
    "gate.step1_signature": "gate",
    "gate.step3_proof_hash": "gate",
    "gate.step4_imports": "gate",
    "gate.step5_classify": "gate",
    "signing.sign": "signing",
    "signing.verify": "signing",
    "wasm_inspect.parse_imports": "certifier",
    "proof.build": "certifier",
    "certificate.sign": "certifier",
    "runtime_host.plan": "runtime_host",
    "runtime_host.serialize": "runtime_host",
    "runtime_host.output_parse": "runtime_host",
    "wasmvm.instantiate": "wasmvm",
    "wasmvm.parse_module": "wasmvm",
    "wasmvm.decode": "wasmvm",
    "wasmvm.run": "wasmvm",
    "interpreter.run_machine": "interpreter",
    "interpreter.step": "interpreter",
    "interpreter.govern": "interpreter",
    "canonical.bytes": "canonical",
    "provenance.append": "provenance",
    "provenance.seal": "provenance",
    "provenance.verify": "provenance",
    "attestation.build": "attestation",
    "attestation.verify": "attestation",
}
LAYER_NAMES = tuple(dict.fromkeys(LAYERS.values()))

# per-layer metric -> (span name, "incl" or "self"), reported in us per op
SPAN_METRICS = {
    "gate.verify_us": ("gate.verify", "incl"),
    "gate.self_us": ("gate.verify", "self"),
    "gate.step1_signature_us": ("gate.step1_signature", "incl"),
    "gate.step3_proof_hash_us": ("gate.step3_proof_hash", "incl"),
    "gate.step4_imports_us": ("gate.step4_imports", "incl"),
    "gate.step5_classify_us": ("gate.step5_classify", "incl"),
    "signing.sign_us": ("signing.sign", "incl"),
    "signing.verify_us": ("signing.verify", "incl"),
    "wasm_inspect.parse_imports_us": ("wasm_inspect.parse_imports", "incl"),
    "proof.build_us": ("proof.build", "incl"),
    "certificate.sign_us": ("certificate.sign", "incl"),
    "runtime_host.plan_us": ("runtime_host.plan", "incl"),
    "runtime_host.serialize_us": ("runtime_host.serialize", "incl"),
    "runtime_host.output_parse_us": ("runtime_host.output_parse", "incl"),
    "wasmvm.instantiate_us": ("wasmvm.instantiate", "incl"),
    "wasmvm.parse_module_us": ("wasmvm.parse_module", "incl"),
    "wasmvm.decode_us": ("wasmvm.decode", "incl"),
    "wasmvm.run_us": ("wasmvm.run", "incl"),
    "interpreter.step_us": ("interpreter.step", "incl"),
    "interpreter.govern_us": ("interpreter.govern", "incl"),
    "canonical.bytes_us": ("canonical.bytes", "incl"),
    "provenance.append_us": ("provenance.append", "incl"),
    "provenance.seal_us": ("provenance.seal", "incl"),
    "provenance.verify_us": ("provenance.verify", "incl"),
    "attestation.build_us": ("attestation.build", "incl"),
    "attestation.verify_us": ("attestation.verify", "incl"),
}

# per-layer metric -> counter, reported per op
COUNT_METRICS = {
    "gate.calls": "gate.calls",
    "signing.verify_calls": "signing.verify_calls",
    "runtime_host.input_bytes": "runtime_host.input_bytes",
    "wasmvm.fuel_used": "wasmvm.fuel_used",
    "wasmvm.host_calls": "wasmvm.host_calls",
    "interpreter.directives": "interpreter.directives",
    "interpreter.denied": "interpreter.denied",
    "canonical.bytes_out": "canonical.bytes_out",
    "gate.log_events": "gate.log_events",
    **{f"gate.rejects.step{n}": f"gate.rejects.step{n}" for n in range(1, 7)},
}

# counters that must repeat exactly for the same seed and op count
EXACT_COUNTERS = (
    "wasmvm.fuel_used",
    "signing.verify_calls",
    "interpreter.directives",
    "interpreter.denied",
    *(f"gate.rejects.step{n}" for n in range(1, 7)),
)


class Tracer:
    """In-memory spans and counters for the ops run while it is installed."""

    def __init__(self) -> None:
        # (op id, parent index, name, start ns, end ns); parent -1 for a root
        self.spans: list[tuple[int, int, str, int, int] | None] = []
        self.counts: Counter[str] = Counter()
        self.ops = 0
        self._stack: list[int] = []
        self._op = -1
        self._patches = _patch_table(self)
        self.missing = [
            f"{_owner_name(owner)}.{attr}"
            for owner, attr, _ in self._patches
            if not hasattr(owner, attr)
        ]

    # -- recording ---------------------------------------------------------

    def span(
        self,
        name: str,
        fn: Callable[..., Any],
        after: Callable[[tuple, dict, Any], None] | None = None,
    ) -> Callable[..., Any]:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (self._op, parent, name, start, end)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def op(self, op_id: int) -> Iterator[Callable[[int, int], None]]:
        """Install the wrappers for one op; yields a setter for its root span.

        The caller times the op itself and passes its start and end, so the
        root span is exactly the op latency the untraced path reports.
        """
        root = len(self.spans)
        self.spans.append(None)
        self._stack[:] = [root]
        self._op = op_id
        originals = []
        for owner, attr, make in self._patches:
            original = getattr(owner, attr, None)
            if original is None:
                continue
            originals.append((owner, attr, original))
            setattr(owner, attr, make(original))

        def set_root(start: int, end: int) -> None:
            self.spans[root] = (op_id, -1, ROOT, start, end)

        try:
            yield set_root
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)
            self._stack.clear()
            self.ops += 1

    # -- reporting ---------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-op layer metrics over every traced op."""
        incl: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        child_ns = [0] * len(self.spans)
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            _op, parent, _name, start, end = span
            if parent >= 0:
                child_ns[parent] += end - start
        layer_self: dict[str, int] = defaultdict(int)
        uncovered = 0
        op_ns = 0
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            _op, _parent, name, start, end = span
            own = end - start - child_ns[index]
            if name == ROOT:
                uncovered += own
                op_ns += end - start
                continue
            incl[name] += end - start
            self_ns[name] += own
            layer_self[LAYERS[name]] += own

        n = max(self.ops, 1)
        out: dict[str, float] = {}
        for metric, (name, kind) in SPAN_METRICS.items():
            total = incl[name] if kind == "incl" else self_ns[name]
            out[metric] = total / n / 1000.0
        for metric, counter in COUNT_METRICS.items():
            out[metric] = self.counts[counter] / n
        calls = self.counts["gate.calls"]
        out["gate.cache_hit_ratio"] = self.counts["gate.hits"] / calls if calls else 0.0
        runs = self.counts["wasmvm.runs"]
        fuel = self.counts["wasmvm.fuel_used"]
        out["wasmvm.mem_pages"] = self.counts["wasmvm.mem_pages"] / runs if runs else 0.0
        out["wasmvm.us_per_instr"] = incl["wasmvm.run"] / fuel / 1000.0 if fuel else 0.0
        for layer in LAYER_NAMES:
            out[f"self.{layer}_us"] = layer_self[layer] / n / 1000.0
        out["trace.uncovered_us"] = uncovered / n / 1000.0
        out["trace.uncovered_share"] = uncovered / op_ns if op_ns else 0.0
        out["trace.ops"] = float(self.ops)
        return out

    def write(self, path: Path) -> None:
        """Write every span as one JSON line: op, id, parent, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                op_id, parent, name, start, end = span
                fh.write(
                    json.dumps(
                        {
                            "op": op_id,
                            "id": index,
                            "parent": parent,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )


_SPECIAL_UNITS = {
    "runtime_host.input_bytes": "B",
    "canonical.bytes_out": "B",
    "wasmvm.fuel_used": "instr",
    "wasmvm.us_per_instr": "us/instr",
    "wasmvm.mem_pages": "pages",
}


def unit_of(metric: str) -> str:
    if metric in _SPECIAL_UNITS:
        return _SPECIAL_UNITS[metric]
    if metric.endswith("_us"):
        return "us"
    if metric.endswith("_pct"):
        return "%"
    if metric.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def _owner_name(owner: Any) -> str:
    return getattr(owner, "__name__", type(owner).__name__)


def _patch_table(tracer: Tracer) -> list[tuple[Any, str, Callable[[Any], Any]]]:
    """(owner, attribute, wrapper factory) for every traced boundary."""
    counts = tracer.counts

    def span(name: str, after=None) -> Callable[[Any], Any]:
        return lambda original: tracer.span(name, original, after)

    def after_gate(_args, _kwargs, decision) -> None:
        counts["gate.calls"] += 1
        if decision.from_cache:
            counts["gate.hits"] += 1
        if decision.failed_step is not None:
            counts[f"gate.rejects.step{decision.failed_step}"] += 1

    def after_serialize(_args, _kwargs, data) -> None:
        counts["runtime_host.input_bytes"] += len(data)

    def after_invoke(args, kwargs, _results) -> None:
        # read through getattr: a VM that keeps fuel or memory elsewhere
        # leaves these counts at 0 instead of failing the op
        instance = args[0]
        budget = args[3] if len(args) > 3 else kwargs.get("fuel")
        left = getattr(instance, "fuel", None)
        counts["wasmvm.runs"] += 1
        if isinstance(budget, int) and isinstance(left, int):
            counts["wasmvm.fuel_used"] += budget - left
        pages = getattr(instance, "mem_pages", None)
        if callable(pages):
            counts["wasmvm.mem_pages"] += pages()

    def after_govern(_args, _kwargs, outcome) -> None:
        counts["interpreter.directives"] += 1
        if isinstance(outcome, interpreter.Denied):
            counts["interpreter.denied"] += 1

    def after_canonical(_args, _kwargs, data) -> None:
        counts["canonical.bytes_out"] += len(data)

    def after_construct(args, _kwargs, _none) -> None:
        # count calls through the instance's resolved imports only
        instance = args[0]
        table = getattr(instance, "host_table", None)
        if table is not None:
            instance.host_table = [
                dataclasses.replace(host, fn=_counted(host.fn, counts)) for host in table
            ]

    gate_span = span("gate.verify", after_gate)
    plan_span = span("runtime_host.plan")
    return [
        (gate, "gate_verify", gate_span),
        (interpreter, "gate_verify", gate_span),
        (gate, "verify_certificate_signature", span("gate.step1_signature")),
        (gate, "proof_hash", span("gate.step3_proof_hash")),
        (gate, "parse_imports", span("gate.step4_imports")),
        (gate, "classify_import", span("gate.step5_classify")),
        (gate, "check_version_range", span("gate.step5_classify")),
        (signing, "sign", span("signing.sign")),
        (signing, "verify", span("signing.verify")),
        (wasm_inspect, "parse_imports", span("wasm_inspect.parse_imports")),
        (proof, "parse_imports", span("wasm_inspect.parse_imports")),
        (proof, "build_proof", span("proof.build")),
        (certificate, "sign_certificate", span("certificate.sign")),
        (runtime_host, "instantiate_and_plan", plan_span),
        (interpreter, "instantiate_and_plan", plan_span),
        (runtime_host.ExecutorInput, "serialize",
         span("runtime_host.serialize", after_serialize)),
        (runtime_host, "_parse_output_doc", span("runtime_host.output_parse")),
        (runtime_host, "instantiate", span("wasmvm.instantiate")),
        (wasmvm, "parse_module", span("wasmvm.parse_module")),
        (wasmvm.Instance, "__init__", span("wasmvm.decode", after_construct)),
        (wasmvm.Instance, "invoke", span("wasmvm.run", after_invoke)),
        (interpreter, "run_machine", span("interpreter.run_machine")),
        (interpreter, "execute_step", span("interpreter.step")),
        (interpreter, "interpret_directive", span("interpreter.govern", after_govern)),
        (interpreter, "canonical_bytes", span("canonical.bytes", after_canonical)),
        (provenance.RunChain, "append_step", span("provenance.append")),
        (provenance.RunChain, "finalize_run", span("provenance.seal")),
        (provenance, "verify_chain", span("provenance.verify")),
        (attestation, "build_attestation", span("attestation.build")),
        (attestation, "verify_attestation", span("attestation.verify")),
    ]


def _counted(fn: Callable[..., Any], counts: Counter[str]) -> Callable[..., Any]:
    def host_call(*args: Any) -> Any:
        counts["wasmvm.host_calls"] += 1
        return fn(*args)

    return host_call


def overhead(untraced_us: list[float], traced_us: list[float]) -> dict[str, float]:
    """Traced against untraced median op latency, from the same run."""
    untraced = statistics.median(untraced_us) if untraced_us else 0.0
    traced = statistics.median(traced_us) if traced_us else 0.0
    pct = (traced / untraced - 1.0) * 100.0 if untraced else 0.0
    return {
        "trace.untraced_op_p50_us": untraced,
        "trace.traced_op_p50_us": traced,
        "trace.overhead_pct": pct,
    }


def warn_missing(tracer: Tracer) -> None:
    if tracer.missing:
        print(
            "perfbench: not traced (attribute absent): " + ", ".join(tracer.missing),
            file=sys.stderr,
        )
