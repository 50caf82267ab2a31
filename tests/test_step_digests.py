"""Each step's three chained digests, recomputed with the standard library.

A machine run anchors, per step, the SHA-256 of its directive list, of its
governance records and of its effects with the executor's result. These
tests run real machines and recompute all three from what the run leaves
behind (the directives the executor planned, `governance.records` and the
sink's log) through `json.dumps` and `hashlib` alone (`bare_digest`), so
however the interpreter builds those documents, it must give these bytes.
"""

import pytest

from puregate.fixtures import EMITTERS
from puregate.interpreter import (
    PRE_EXECUTE_STAGES,
    TIER3_UNCHECKED,
    GovernanceContext,
    RuntimeServices,
    SimulatedSink,
    StubExecutor,
    TierPolicy,
    WasmExecutor,
    default_governance,
    run_machine,
)
from puregate.provenance import verify_chain
from puregate.runtime_host import Directive, ExecutorOutput
from tests.conftest import bare_digest

CALL = Directive(kind="call_machine", payload={"machine": "x", "inputs": {"n": 1}})
HTTP = Directive(kind="http_request", payload={"url": "https://example.org/a"})
EVENT = Directive(kind="emit_event", payload={"event": "done", "detail": [1, 2.5, None]})
NON_ASCII = Directive(
    kind="llm_call",
    payload={"prompt": "naïve café — 日本語 🎉", "ключ": ["é", " ", "\x7f"]},
)


def _stub(result, *directives):
    def fn(_executor_input):
        return ExecutorOutput(result=result, directives=directives, log_lines=())

    return StubExecutor(fn=fn, tier=TIER3_UNCHECKED)


def _run(registry, refs, governance, certifier_key, wl, tier_policy=None):
    record, results = run_machine(
        {"machine": "m", "input": {"q": 1}, "steps": [{"executor_ref": r} for r in refs]},
        governance,
        tier_policy or TierPolicy(minimum_tier=TIER3_UNCHECKED),
        registry,
        RuntimeServices(whitelist=wl, trusted_keys=(certifier_key.public_key,)),
    )
    assert verify_chain(record).valid
    return record, results


def assert_digests_recompute(record, results, governance):
    """Each step's digests equal bare_digest of its slice of the run's
    records and effects; every record and effect belongs to some step."""
    records, effects = governance.records, governance.sink.log
    r = e = 0
    for link, step in zip(record.steps, results, strict=True):
        step_records = records[r : r + len(step.output.directives)]
        r += len(step_records)
        performed = sum(1 for rec in step_records if rec["effect_performed"])
        step_effects = effects[e : e + performed]
        e += performed
        assert link.directive_hash == bare_digest(
            [d.to_json() for d in step.output.directives]
        )
        assert link.governance_hash == bare_digest(step_records)
        assert link.result_hash == bare_digest(
            {"effects": step_effects, "result": step.output.result}
        )
    assert (r, e) == (len(records), len(effects))


def test_every_emitter_run_recomputes(bundles, certifier_key, wl_v1):
    registry = {}
    for name in EMITTERS:
        binary, proof, cert = bundles[name]
        registry[name] = WasmExecutor(binary=binary, cert=cert, proof=proof)
    governance = default_governance()
    refs = list(EMITTERS) + list(reversed(EMITTERS))
    record, results = _run(registry, refs, governance, certifier_key, wl_v1, TierPolicy())
    assert [len(s.output.directives) for s in results].count(0) == 2  # emit_poc
    assert_digests_recompute(record, results, governance)


@pytest.mark.parametrize("deny_stage", PRE_EXECUTE_STAGES)
def test_a_denial_at_each_stage_recomputes(deny_stage, certifier_key, wl_v1):
    def allow(_d, _c):
        return True

    def deny_http(directive, _c):
        return directive.kind != "http_request"

    checks = {
        stage: ((f"{stage}_ok", allow), (f"{stage}_http", deny_http))
        if stage == deny_stage
        else ((f"{stage}_ok", allow),)
        for stage in PRE_EXECUTE_STAGES
    }
    governance = GovernanceContext(**checks)
    registry = {"s": _stub({"r": 1}, CALL, HTTP, EVENT)}
    record, results = _run(registry, ["s", "s"], governance, certifier_key, wl_v1)
    assert [len(s.denials) for s in results] == [1, 1]
    assert governance.records[1]["denied_stage"] == deny_stage
    assert_digests_recompute(record, results, governance)


def test_a_failing_guardrail_and_the_execute_entry_recompute(certifier_key, wl_v1):
    base = default_governance()
    governance = GovernanceContext(
        trust=base.trust,
        permission=base.permission,
        phase=base.phase,
        pre_hooks=base.pre_hooks,
        guardrails=base.guardrails
        + (("no_events", lambda d, _c, _r: d.kind != "emit_event"),),
    )
    registry = {"s": _stub([True, 0, -1.5e-7, "x"], CALL, EVENT, HTTP)}
    record, results = _run(registry, ["s"], governance, certifier_key, wl_v1)
    violations = [rec["guardrail_violations"] for rec in governance.records]
    assert violations == [[], ["no_events"], []]
    assert {"stage": "execute", "check": None, "passed": True} in governance.records[0][
        "stages"
    ]
    assert_digests_recompute(record, results, governance)


def test_a_non_ascii_payload_and_an_empty_step_recompute(certifier_key, wl_v1):
    governance = default_governance()
    registry = {"text": _stub("résumé ✓", NON_ASCII), "none": _stub(None)}
    record, results = _run(
        registry, ["none", "text", "none"], governance, certifier_key, wl_v1
    )
    assert record.steps[0].directive_hash == bare_digest([])
    assert_digests_recompute(record, results, governance)


class TaggingSink(SimulatedSink):
    """Logs one extra key beside the directive and result."""

    def perform(self, directive):
        result = self.simulate(directive)
        self.log.append(
            {"directive": directive.to_json(), "result": result, "seq": len(self.log)}
        )
        return result


class RetypingSink(SimulatedSink):
    """Logs a directive equal to the one performed but encoded otherwise:
    True == 1, yet the canonical form of one is "true" and of the other "1"."""

    def perform(self, directive):
        result = self.simulate(directive)
        payload = {k: True if v == 1 else v for k, v in directive.payload.items()}
        self.log.append({"directive": {"kind": directive.kind, "payload": payload},
                         "result": result})
        return result


@pytest.mark.parametrize("sink", [TaggingSink, RetypingSink])
def test_a_custom_sink_log_recomputes(sink, certifier_key, wl_v1):
    governance = default_governance()
    governance.sink = sink()
    counted = Directive(kind="memory_op", payload={"op": "put", "value": 1})
    registry = {"s": _stub(1, counted, CALL, counted)}
    record, results = _run(registry, ["s", "s"], governance, certifier_key, wl_v1)
    if sink is RetypingSink:
        logged = governance.sink.log[0]["directive"]
        assert logged == counted.to_json()
        assert bare_digest(logged) != bare_digest(counted.to_json())
    assert_digests_recompute(record, results, governance)


def test_a_payload_mutated_by_a_check_hashes_as_mutated(certifier_key, wl_v1):
    """A check may change a payload while its step is governed: each digest
    is of the payload as the step left it, as a fresh encode reads it."""
    first = Directive(kind="memory_op", payload={"op": "put"})

    def stamp(directive, _c):
        directive.payload["stamped"] = directive.payload.get("stamped", 0) + 1
        return True

    def touch_first(_directive, _c, _result):
        first.payload["seen"] = first.payload.get("seen", []) + ["é"]
        return True

    governance = GovernanceContext(pre_hooks=(("stamp", stamp),),
                                   guardrails=(("touch", touch_first),))
    second = Directive(kind="memory_op", payload={"op": "get"})
    registry = {"s": _stub({}, first, second)}
    record, results = _run(registry, ["s"], governance, certifier_key, wl_v1)
    assert first.payload == {"op": "put", "stamped": 1, "seen": ["é", "é"]}
    assert governance.records[0]["directive"]["payload"] is first.payload
    assert_digests_recompute(record, results, governance)


def test_records_rewritten_by_a_check_recompute(certifier_key, wl_v1):
    """A check that holds the context may rewrite the step's earlier records,
    here with values equal to others (1 == 1.0 == True) but encoded otherwise."""
    governance = default_governance()

    def rewrite(_d, _c, _r):
        if governance.records:
            earlier = governance.records[-1]
            earlier["effect_performed"] = 1
            earlier["stages"].append({"stage": "record", "check": 1, "passed": True})
            earlier["stages"].append({"stage": "record", "check": 1.0, "passed": 1})
            earlier["note"] = "é"
        return True

    governance.guardrails += (("rewrite", rewrite),)
    registry = {"s": _stub(0, CALL, EVENT, CALL)}
    record, results = _run(registry, ["s"], governance, certifier_key, wl_v1)
    assert governance.records[0]["effect_performed"] == 1
    assert_digests_recompute(record, results, governance)
