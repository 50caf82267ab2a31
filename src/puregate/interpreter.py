"""Directive interpretation: the single place effects happen.

Executors plan; this module disposes. Each directive passes through a fixed
governance stage order (trust, permission, phase, pre_hooks, execute,
guardrails, record) with short-circuit denial before execute and
performed-then-flagged marking when a guardrail rejects a result that was
already produced. The execute stage is the sole effect site in the package,
and effects are simulated through pluggable sinks: the pipeline's shape is
the subject here, not real network or file I/O.

Executors come in three tiers. Tier 1 is a certified WASM bundle that must
pass the verification gate before instantiation. Tier 2 marks executors
vetted by static analysis on a platform this repo does not embed; it exists
so the provenance marker taxonomy is complete and is usable only in tests.
Tier 3 is an unchecked in-process stub, also test-only.
"""

from __future__ import annotations

import hashlib
import marshal
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping
from urllib.parse import urlparse

from .canonical import canonical_bytes, join_list, object_writer
from .certificate import PurityCertificate
from .gate import DecisionLog, GateCache, GateDecision, gate_verify
from .memo import BoundedMemo
from .proof import PurityProof
from .provenance import (
    BEAM_STATIC_ANALYSIS,
    BEAM_UNCHECKED,
    RunChain,
    RunRecord,
    StepRecord,
    WASM_CERTIFIED,
    ZERO_DIGEST,
)
from .runtime_host import (
    Directive,
    ExecutorInput,
    ExecutorOutput,
    ResourceLimits,
    instantiate_and_plan,
)
from .whitelist import Whitelist

TIER1_WASM_CERTIFIED = "tier1_wasm_certified"
TIER2_STATIC_ANALYSIS = "tier2_static_analysis"
TIER3_UNCHECKED = "tier3_unchecked"

TIERS = (TIER1_WASM_CERTIFIED, TIER2_STATIC_ANALYSIS, TIER3_UNCHECKED)
_TIER_RANK = {TIER1_WASM_CERTIFIED: 3, TIER2_STATIC_ANALYSIS: 2, TIER3_UNCHECKED: 1}

TIER_PURITY_METHOD = {
    TIER1_WASM_CERTIFIED: WASM_CERTIFIED,
    TIER2_STATIC_ANALYSIS: BEAM_STATIC_ANALYSIS,
    TIER3_UNCHECKED: BEAM_UNCHECKED,
}

PRE_EXECUTE_STAGES = ("trust", "permission", "phase", "pre_hooks")
STAGES = PRE_EXECUTE_STAGES + ("execute", "guardrails", "record")


class ExecutorRejected(Exception):
    """The gate rejected the executor; carries the gate decision."""

    def __init__(self, decision: GateDecision):
        super().__init__(f"executor rejected: {decision.reason}")
        self.decision = decision


class TierBelowMinimum(Exception):
    """The executor's tier does not meet the policy's minimum."""


class UnknownExecutor(KeyError):
    """executor_ref does not resolve in the registry."""

    __str__ = Exception.__str__  # the message, not KeyError's repr of it


# ---------------------------------------------------------------------------
# effect sinks (simulated)
# ---------------------------------------------------------------------------

class EffectSink:
    """Destination for governed effects; records everything it performs."""

    def __init__(self) -> None:
        self.log: list[dict[str, Any]] = []

    def perform(self, directive: Directive) -> Any:
        result = self.simulate(directive)
        self.log.append({"directive": directive.to_json(), "result": result})
        return result

    def simulate(self, directive: Directive) -> Any:
        raise NotImplementedError


class SimulatedSink(EffectSink):
    """Deterministic simulated responses, keyed by directive kind."""

    def simulate(self, directive: Directive) -> Any:
        payload = directive.payload if isinstance(directive.payload, dict) else {}
        kind = directive.kind
        if kind == "llm_call":
            return {
                "completion": "simulated completion",
                "model": payload.get("model", "simulated-model"),
            }
        if kind == "http_request":
            return {
                "status": 200,
                "url": payload.get("url"),
                "body": "simulated response",
            }
        if kind == "file_op":
            return {"op": payload.get("op", "read"), "ok": True}
        if kind == "call_machine":
            return {
                "machine": payload.get("machine"),
                "output": {"echoed": payload.get("inputs")},
            }
        if kind == "memory_op":
            return {"op": payload.get("op", "get"), "ok": True}
        if kind == "code_eval":
            return {"evaluated": False, "reason": "evaluation is simulated"}
        if kind == "emit_event":
            return {"emitted": True, "event": payload.get("event")}
        raise ValueError(f"unhandled directive kind {kind!r}")


# ---------------------------------------------------------------------------
# governance pipeline
# ---------------------------------------------------------------------------

# pre-execute checks take (directive, context); guardrails also see the result
Check = tuple[str, Callable[[Directive, Any], bool]]
Guardrail = tuple[str, Callable[[Directive, Any, Any], bool]]


@dataclass
class GovernanceContext:
    trust: tuple[Check, ...] = ()
    permission: tuple[Check, ...] = ()
    phase: tuple[Check, ...] = ()
    pre_hooks: tuple[Check, ...] = ()
    guardrails: tuple[Guardrail, ...] = ()
    sink: EffectSink = field(default_factory=SimulatedSink)
    records: list[dict[str, Any]] = field(default_factory=list)

    def stage_checks(self, stage: str) -> tuple[Check, ...]:
        return getattr(self, stage)


@dataclass(frozen=True)
class Governed:
    result: Any
    guardrail_violations: tuple[str, ...] = ()


@dataclass(frozen=True)
class Denied:
    stage: str
    reason: str


def default_governance(
    allowed_http_hosts: tuple[str, ...] = ("example.org",),
) -> GovernanceContext:
    """Allow-all pipeline with one real deny rule so denial paths are live."""

    def allow(_directive: Directive, _context: Any) -> bool:
        return True

    def http_host_allowlisted(directive: Directive, _context: Any) -> bool:
        if directive.kind != "http_request":
            return True
        payload = directive.payload if isinstance(directive.payload, dict) else {}
        try:
            host = urlparse(str(payload.get("url", ""))).hostname
        except ValueError:  # an unreadable url names no allowed host
            return False
        return host in allowed_http_hosts

    def accept_result(_directive: Directive, _context: Any, _result: Any) -> bool:
        return True

    return GovernanceContext(
        trust=(("allow_all_trust", allow),),
        permission=(
            ("allow_all_permission", allow),
            ("http_host_allowlist", http_host_allowlisted),
        ),
        phase=(("allow_all_phase", allow),),
        pre_hooks=(("allow_all_pre_hooks", allow),),
        guardrails=(("accept_all_results", accept_result),),
    )


def interpret_directive(
    directive: Directive,
    governance: GovernanceContext,
    context: Any = None,
) -> Governed | Denied:
    """Run one directive through the staged pipeline.

    Denial at any pre-execute stage stops the directive before the sink is
    touched; the denial itself is still recorded. A guardrail failure after
    execute cannot un-perform the effect, so the record marks it
    performed-then-flagged.
    """
    record: dict[str, Any] = {
        "directive": directive.to_json(),
        "stages": [],
        "outcome": None,
        "effect_performed": False,
        "guardrail_violations": [],
    }

    for stage in PRE_EXECUTE_STAGES:
        for name, predicate in governance.stage_checks(stage):
            passed = bool(predicate(directive, context))
            record["stages"].append(
                {"stage": stage, "check": name, "passed": passed}
            )
            if not passed:
                record["outcome"] = "denied"
                record["denied_stage"] = stage
                record["denied_check"] = name
                governance.records.append(record)
                return Denied(stage=stage, reason=name)

    result = governance.sink.perform(directive)
    record["stages"].append({"stage": "execute", "check": None, "passed": True})
    record["effect_performed"] = True

    violations = []
    for name, predicate in governance.guardrails:
        passed = bool(predicate(directive, context, result))
        record["stages"].append(
            {"stage": "guardrails", "check": name, "passed": passed}
        )
        if not passed:
            violations.append(name)
    record["guardrail_violations"] = violations
    record["outcome"] = "governed"
    governance.records.append(record)
    return Governed(result=result, guardrail_violations=tuple(violations))


# ---------------------------------------------------------------------------
# executor registry and tier dispatch
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WasmExecutor:
    binary: bytes
    cert: PurityCertificate
    proof: PurityProof

    @property
    def tier(self) -> str:
        return TIER1_WASM_CERTIFIED


@dataclass(frozen=True)
class StubExecutor:
    """Test-only in-process executor for the non-WASM tiers."""

    fn: Callable[[ExecutorInput], ExecutorOutput]
    tier: str = TIER3_UNCHECKED

    def __post_init__(self) -> None:
        if self.tier not in (TIER2_STATIC_ANALYSIS, TIER3_UNCHECKED):
            raise ValueError("stub executors model tier 2 or tier 3 only")


Executor = WasmExecutor | StubExecutor


@dataclass(frozen=True)
class TierPolicy:
    minimum_tier: str = TIER1_WASM_CERTIFIED
    overrides: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for tier in (self.minimum_tier, *self.overrides.values()):
            if tier not in _TIER_RANK:
                raise ValueError(f"unknown tier {tier!r}; expected one of {TIERS}")

    def minimum_for(self, executor_ref: str) -> str:
        return self.overrides.get(executor_ref, self.minimum_tier)


@dataclass
class RuntimeServices:
    """Everything execute_step needs from the hosting runtime."""

    whitelist: Whitelist
    trusted_keys: tuple[bytes, ...]
    cache: GateCache = field(default_factory=GateCache)
    decision_log: DecisionLog = field(default_factory=DecisionLog)
    limits: ResourceLimits = field(default_factory=ResourceLimits)


@dataclass(frozen=True)
class StepResult:
    results: tuple[Any, ...]
    step_record: StepRecord
    output: ExecutorOutput
    gate_decision: GateDecision | None
    denials: tuple[Denied, ...]


def _hash_canonical(value: Any) -> bytes:
    return hashlib.sha256(canonical_bytes(value)).digest()


# ---------------------------------------------------------------------------
# step documents, spliced from each directive's bytes
# ---------------------------------------------------------------------------

_write_effect = object_writer("directive", "result")
_write_step_result = object_writer("effects", "result")
_ABSENT = object()

# A record's frame is its canonical bytes before and after its directive's,
# kept by the marshal bytes of its other members: governance writes a handful
# of distinct ones, and the bound caps what caller-named checks can make it hold.
_FRAMES = BoundedMemo(256)


def _holds(doc: Any, directive: Directive) -> bool:
    """Whether doc is a directive document holding this directive's very
    kind and payload objects, so that it encodes as directive.to_json()."""
    return (
        type(doc) is dict
        and len(doc) == 2
        and doc.get("kind") is directive.kind
        and doc.get("payload", _ABSENT) is directive.payload
    )


def _frame(record: dict[str, Any]) -> tuple[bytes, bytes] | None:
    """A record's canonical bytes up to its directive's and from there on:
    its members that sort before "directive" and those that sort after it.
    None for a record with a key that is not a string."""
    if not all(type(key) is str for key in record):
        return None
    before = canonical_bytes({k: v for k, v in record.items() if k < "directive"})
    after = canonical_bytes({k: v for k, v in record.items() if k > "directive"})
    return (
        before[:-1] + (b"," if len(before) > 2 else b"") + b'"directive":',
        (b"," if len(after) > 2 else b"") + after[1:],
    )


def _record_bytes(record: Any, directive: Directive, encoded: bytes) -> bytes:
    """A governance record's canonical bytes: its frame around its
    directive's bytes when it holds this directive; any other record, or
    one marshal refuses, is encoded whole.

    marshal writes only exact built-in types and tells True, 1 and 1.0
    apart, so two records whose other members marshal alike encode alike."""
    if type(record) is dict and _holds(record.get("directive"), directive):
        try:
            key = marshal.dumps({**record, "directive": None})
        except ValueError:
            return canonical_bytes(record)
        frame = _FRAMES.get(key, _frame, record)
        if frame is not None:
            return encoded.join(frame)
    return canonical_bytes(record)


def _effect_bytes(entry: Any, directive: Directive, encoded: bytes) -> bytes:
    """An effect entry's canonical bytes, spliced from its directive's bytes
    when it is exactly {"directive", "result"} of that directive, as the
    default sink logs it; any other entry is encoded whole."""
    if (
        type(entry) is dict
        and len(entry) == 2
        and "result" in entry
        and _holds(entry.get("directive"), directive)
    ):
        return _write_effect(encoded, canonical_bytes(entry["result"]))
    return canonical_bytes(entry)


def _step_documents(
    output: ExecutorOutput,
    records: list[Any],
    effects: list[Any],
    performed: list[int],
) -> tuple[bytes, bytes, bytes]:
    """The canonical bytes of a governed step's three chained documents: its
    directive list, its governance records, and its effects with its result.

    Each directive is encoded once, after the last check of the step has
    run, so the bytes are those of the directive as the step left it. Each
    record is paired with the directive in its place and each effect entry
    with the performed directive in its place; the pair is spliced only when
    the entry provably holds that directive, and anything else is encoded
    whole, so every document is byte for byte the one canonical_bytes gives.
    """
    directives = output.directives
    encoded = [canonical_bytes(d.to_json()) for d in directives]
    record_bytes = []
    for place, record in enumerate(records):
        if place < len(directives):
            directive = directives[place]
            record_bytes.append(_record_bytes(record, directive, encoded[place]))
        else:
            record_bytes.append(canonical_bytes(record))
    effect_bytes = []
    for entry, place in zip(effects, performed):
        effect_bytes.append(_effect_bytes(entry, directives[place], encoded[place]))
    for entry in effects[len(performed) :]:
        effect_bytes.append(canonical_bytes(entry))
    result_doc = _write_step_result(
        join_list(effect_bytes), canonical_bytes(output.result)
    )
    return join_list(encoded), join_list(record_bytes), result_doc


def _resolve(
    step: Mapping[str, Any], tier_policy: TierPolicy, registry: Mapping[str, Executor]
) -> Executor:
    """The step's executor, refused if unknown or below its tier minimum."""
    ref = step["executor_ref"]
    executor = registry.get(ref)
    if executor is None:
        raise UnknownExecutor(f"no executor named {ref!r}")
    minimum = tier_policy.minimum_for(ref)
    if _TIER_RANK[executor.tier] < _TIER_RANK[minimum]:
        raise TierBelowMinimum(
            f"{ref} is {executor.tier}; policy requires at least {minimum}"
        )
    return executor


def execute_step(
    step: Mapping[str, Any],
    context: Any,
    governance: GovernanceContext,
    executor: Executor,
    services: RuntimeServices,
    chain: RunChain,
) -> StepResult:
    """Gate, plan, interpret, and chain one step on its resolved executor.

    Once every directive is governed, each is encoded once and the step's
    three chained documents (directives, governance records, effects with
    the result) are spliced from those bytes by _step_documents: the same
    bytes as encoding each document whole at that moment."""
    executor_input = ExecutorInput(
        step_config=step.get("config", {}), context=context
    )

    gate_decision: GateDecision | None = None
    purity_cert_hash = ZERO_DIGEST
    if isinstance(executor, WasmExecutor):
        gate_decision = gate_verify(
            executor.binary,
            executor.cert,
            executor.proof,
            services.whitelist,
            services.trusted_keys,
            cache=services.cache,
            log=services.decision_log,
        )
        if not gate_decision.accepted:
            raise ExecutorRejected(gate_decision)
        purity_cert_hash = gate_decision.admitted.cert.digest
        output = instantiate_and_plan(
            executor.binary, gate_decision, executor_input, services.limits
        )
    else:
        output = executor.fn(executor_input)

    records_before = len(governance.records)
    effects_before = len(governance.sink.log)
    results: list[Any] = []
    denials: list[Denied] = []
    performed: list[int] = []  # the place of each directive the sink performed
    for place, directive in enumerate(output.directives):
        outcome = interpret_directive(directive, governance, context)
        if isinstance(outcome, Governed):
            results.append(outcome.result)
            performed.append(place)
        else:
            denials.append(outcome)

    directive_doc, governance_doc, result_doc = _step_documents(
        output,
        governance.records[records_before:],
        governance.sink.log[effects_before:],
        performed,
    )
    step_record = chain.append_step(
        directive_hash=hashlib.sha256(directive_doc).digest(),
        governance_hash=hashlib.sha256(governance_doc).digest(),
        result_hash=hashlib.sha256(result_doc).digest(),
        purity_cert_hash=purity_cert_hash,
        purity_method=TIER_PURITY_METHOD[executor.tier],
    )
    return StepResult(
        results=tuple(results),
        step_record=step_record,
        output=output,
        gate_decision=gate_decision,
        denials=tuple(denials),
    )


def run_machine(
    machine_doc: Mapping[str, Any],
    governance: GovernanceContext,
    tier_policy: TierPolicy,
    registry: Mapping[str, Executor],
    services: RuntimeServices,
) -> tuple[RunRecord, list[StepResult]]:
    """Execute a machine document's steps in order and seal the run chain.

    The canonical document and its input are hashed, and every step's
    executor is resolved and tier-checked, before the first step, so a
    machine with no canonical form, an unknown executor or one below its
    tier minimum performs no effect. The context passed to each step
    carries the machine input plus all prior step results; it is rebuilt
    per step, never mutated in place.
    """
    steps = machine_doc.get("steps", [])
    if not steps:
        raise ValueError("machine document has no steps")
    machine_input = machine_doc.get("input")
    machine_version_hash = _hash_canonical(machine_doc)
    input_hash = _hash_canonical(machine_input)
    executors = [_resolve(step, tier_policy, registry) for step in steps]

    chain = RunChain()
    step_results: list[StepResult] = []
    prior: list[list[Any]] = []
    for step, executor in zip(steps, executors):
        context = {"machine_input": machine_input, "prior_results": prior}
        result = execute_step(step, context, governance, executor, services, chain)
        step_results.append(result)
        prior = prior + [list(result.results)]

    record = chain.finalize_run(
        machine_version_hash=machine_version_hash,
        input_hash=input_hash,
        output_hash=_hash_canonical([list(r.results) for r in step_results]),
    )
    return record, step_results
