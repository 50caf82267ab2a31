import dataclasses
import hashlib
import re
from pathlib import Path

import pytest

from puregate import certificate, interpreter
from puregate.canonical import CanonicalError
from puregate.certificate import certificate_bytes
from puregate.interpreter import (
    PRE_EXECUTE_STAGES,
    STAGES,
    TIER1_WASM_CERTIFIED,
    TIER2_STATIC_ANALYSIS,
    TIER3_UNCHECKED,
    TIER_PURITY_METHOD,
    Denied,
    ExecutorRejected,
    Governed,
    GovernanceContext,
    RuntimeServices,
    SimulatedSink,
    StubExecutor,
    TierBelowMinimum,
    TierPolicy,
    UnknownExecutor,
    WasmExecutor,
    default_governance,
    interpret_directive,
    run_machine,
)
from puregate.fixtures import assemble_pure
from puregate.proof import build_proof
from puregate.provenance import ZERO_DIGEST, verify_chain
from puregate.runtime_host import Directive, ExecutorOutput, MalformedOutput
from puregate.wasm_inspect import parse_imports
from puregate.whitelist import builtin_whitelist

SRC_DIR = Path(__file__).resolve().parents[1] / "src" / "puregate"


def _services(certifier_key, wl):
    return RuntimeServices(
        whitelist=wl, trusted_keys=(certifier_key.public_key,)
    )


def _stub(result, directives=(), tier=TIER3_UNCHECKED):
    def fn(executor_input):
        return ExecutorOutput(
            result=result, directives=tuple(directives), log_lines=()
        )

    return StubExecutor(fn=fn, tier=tier)


def _machine(steps, machine_input=None):
    return {"machine": "m", "input": machine_input, "steps": steps}


CALL = Directive(kind="call_machine", payload={"machine": "x", "inputs": {}})
HTTP_OK = Directive(
    kind="http_request", payload={"url": "https://example.org/data"}
)
HTTP_BAD = Directive(
    kind="http_request", payload={"url": "https://elsewhere.test/"}
)


def test_effects_flow_through_one_call_site_only():
    """perform() must be reachable only from the directive pipeline."""
    offenders = []
    for path in SRC_DIR.glob("*.py"):
        text = path.read_text()
        for match in re.finditer(r"\.perform\(", text):
            line = text[: match.start()].count("\n") + 1
            offenders.append((path.name, line))
    assert [name for name, _ in offenders] == ["interpreter.py"], offenders


@pytest.mark.parametrize("deny_stage", PRE_EXECUTE_STAGES)
def test_denial_short_circuits_before_effect(deny_stage):
    def allow(_d, _c):
        return True

    def deny(_d, _c):
        return False

    kwargs = {
        stage: (
            ((f"{stage}_gate", deny),)
            if stage == deny_stage
            else ((f"{stage}_gate", allow),)
        )
        for stage in PRE_EXECUTE_STAGES
    }
    governance = GovernanceContext(**kwargs)
    outcome = interpret_directive(CALL, governance)
    assert outcome == Denied(stage=deny_stage, reason=f"{deny_stage}_gate")
    assert governance.sink.log == []
    assert len(governance.records) == 1
    record = governance.records[0]
    assert record["outcome"] == "denied"
    assert record["denied_stage"] == deny_stage
    assert record["denied_check"] == f"{deny_stage}_gate"
    assert record["effect_performed"] is False
    # checks after the failing one never ran
    later = PRE_EXECUTE_STAGES.index(deny_stage) + 1
    ran_stages = {s["stage"] for s in record["stages"]}
    for stage in PRE_EXECUTE_STAGES[later:]:
        assert stage not in ran_stages
    assert "execute" not in ran_stages


def test_guardrail_failure_flags_performed_effect():
    def reject(_d, _c, _result):
        return False

    governance = default_governance()
    governance = GovernanceContext(
        trust=governance.trust,
        permission=governance.permission,
        phase=governance.phase,
        pre_hooks=governance.pre_hooks,
        guardrails=governance.guardrails + (("size_cap", reject),),
    )
    outcome = interpret_directive(CALL, governance)
    assert isinstance(outcome, Governed)
    assert outcome.guardrail_violations == ("size_cap",)
    assert len(governance.sink.log) == 1
    record = governance.records[0]
    assert record["effect_performed"] is True
    assert record["outcome"] == "governed"
    assert record["guardrail_violations"] == ["size_cap"]


def test_record_lists_every_check_in_stage_order():
    governance = default_governance()
    interpret_directive(HTTP_OK, governance)
    record = governance.records[0]
    seen = [(s["stage"], s["check"]) for s in record["stages"]]
    assert seen == [
        ("trust", "allow_all_trust"),
        ("permission", "allow_all_permission"),
        ("permission", "http_host_allowlist"),
        ("phase", "allow_all_phase"),
        ("pre_hooks", "allow_all_pre_hooks"),
        ("execute", None),
        ("guardrails", "accept_all_results"),
    ]
    assert all(s["passed"] for s in record["stages"])


def test_default_governance_blocks_off_list_hosts():
    governance = default_governance(allowed_http_hosts=("example.org",))
    assert isinstance(interpret_directive(HTTP_OK, governance), Governed)
    outcome = interpret_directive(HTTP_BAD, governance)
    assert outcome == Denied(stage="permission", reason="http_host_allowlist")
    # only the allowed request reached the sink
    assert len(governance.sink.log) == 1
    assert governance.sink.log[0]["directive"]["kind"] == "http_request"


def test_simulated_sink_covers_every_directive_kind():
    sink = SimulatedSink()
    samples = {
        "llm_call": {"model": "m", "prompt": "p"},
        "http_request": {"url": "https://example.org/"},
        "file_op": {"op": "read", "path": "/tmp/x"},
        "call_machine": {"machine": "child", "inputs": {"a": 1}},
        "memory_op": {"op": "get", "key": "k"},
        "code_eval": {"language": "py", "expr": "1+1"},
        "emit_event": {"event": "done", "detail": {}},
    }
    for kind, payload in samples.items():
        result = sink.perform(Directive(kind=kind, payload=payload))
        assert result is not None
    assert len(sink.log) == len(samples)
    # same directive, same simulated answer
    again = SimulatedSink()
    assert again.simulate(CALL) == sink.simulate(CALL)


def test_an_unreadable_url_is_denied_before_the_sink():
    governance = default_governance()
    performed = interpret_directive(HTTP_OK, governance)
    unreadable = Directive(kind="http_request", payload={"url": "http://[abc/x"})
    outcome = interpret_directive(unreadable, governance)
    assert isinstance(performed, Governed)
    assert outcome == Denied(stage="permission", reason="http_host_allowlist")
    record = governance.records[-1]
    assert (record["denied_stage"], record["denied_check"]) == (
        "permission", "http_host_allowlist"
    )
    assert len(governance.sink.log) == 1  # the earlier request's effect only


def test_a_payload_too_deep_to_encode_is_a_canonical_error(certifier_key, wl_v1):
    deep: list = []
    for _ in range(100_000):
        deep = [deep]
    registry = {
        "deep": _stub("r", directives=[Directive(kind="emit_event", payload=deep)])
    }
    with pytest.raises(CanonicalError):
        run_machine(
            _machine([{"executor_ref": "deep"}]),
            default_governance(),
            TierPolicy(minimum_tier=TIER3_UNCHECKED),
            registry,
            _services(certifier_key, wl_v1),
        )


def _wat_data(offset, text):
    escaped = text.replace("\\", "\\\\").replace('"', '\\"')
    return '(data (i32.const %d) "%s")' % (offset, escaped)


def _output_only(doc):
    return f"""
    (module
      (import "mashin" "set_output" (func $so (param i32 i32)))
      (memory 1)
      {_wat_data(0, doc)}
      (func (export "plan") (result i32)
        i32.const 0 i32.const {len(doc)} call $so
        i32.const 0))
    """


def _constructing(payload):
    result = '{"result":1}'
    return f"""
    (module
      (import "mashin" "directive_http_request" (func $http (param i32 i32)))
      (import "mashin" "set_output" (func $so (param i32 i32)))
      (memory 1)
      {_wat_data(0, result)}
      {_wat_data(64, payload)}
      (func (export "plan") (result i32)
        i32.const 64 i32.const {len(payload)} call $http
        i32.const 0 i32.const {len(result)} call $so
        i32.const 0))
    """


NAN_URL = '{"url":"https://example.org/","x":NaN}'
OK_URL = '{"url":"https://example.org/"}'


def _http_output(result, payload):
    return '{"result":%s,"directives":[{"kind":"http_request","payload":%s}]}' % (
        result, payload
    )


@pytest.mark.parametrize(
    "version, source",
    [
        (1, _output_only(_http_output("1", NAN_URL))),
        (1, _output_only(_http_output("1e999", OK_URL))),
        (2, _constructing(NAN_URL)),
    ],
    ids=["directive_nan", "result_overflow", "constructor_nan"],
)
def test_a_non_finite_output_is_malformed_and_performs_no_effect(
    certifier_key, version, source
):
    wl = builtin_whitelist(version)
    binary = assemble_pure(source, wl)
    proof = build_proof(parse_imports(binary), wl)
    cert = certificate.sign_certificate(binary, proof, certifier_key, 1_700_000_000)
    governance = default_governance()
    with pytest.raises(MalformedOutput):
        run_machine(
            _machine([{"executor_ref": "e"}]),
            governance,
            TierPolicy(),
            {"e": WasmExecutor(binary=binary, cert=cert, proof=proof)},
            _services(certifier_key, wl),
        )
    assert governance.sink.log == [] and governance.records == []


SURROGATE_URL = '{"url":"https://example.org/","x":"\\ud800"}'


@pytest.mark.parametrize(
    "version, source",
    [
        (1, _output_only(_http_output("1", SURROGATE_URL))),
        (2, _constructing(SURROGATE_URL)),
    ],
    ids=["directive_surrogate", "constructor_surrogate"],
)
def test_a_lone_surrogate_in_output_is_malformed_and_performs_no_effect(
    certifier_key, version, source
):
    wl = builtin_whitelist(version)
    binary = assemble_pure(source, wl)
    proof = build_proof(parse_imports(binary), wl)
    cert = certificate.sign_certificate(binary, proof, certifier_key, 1_700_000_000)
    governance = default_governance()
    with pytest.raises(MalformedOutput):
        run_machine(
            _machine([{"executor_ref": "e"}]),
            governance,
            TierPolicy(),
            {"e": WasmExecutor(binary=binary, cert=cert, proof=proof)},
            _services(certifier_key, wl),
        )
    assert governance.sink.log == [] and governance.records == []


def test_stage_constant_shape():
    assert STAGES == PRE_EXECUTE_STAGES + ("execute", "guardrails", "record")


def test_stub_executor_cannot_claim_certified_tier():
    with pytest.raises(ValueError):
        StubExecutor(fn=lambda i: None, tier=TIER1_WASM_CERTIFIED)


def test_tier_policy_minimum_enforced(certifier_key, wl_v1):
    registry = {"loose": _stub("r", tier=TIER3_UNCHECKED)}
    policy = TierPolicy(minimum_tier=TIER1_WASM_CERTIFIED)
    with pytest.raises(TierBelowMinimum):
        run_machine(
            _machine([{"executor_ref": "loose"}]),
            default_governance(),
            policy,
            registry,
            _services(certifier_key, wl_v1),
        )


def test_tier_policy_override_relaxes_single_ref(certifier_key, wl_v1):
    registry = {"loose": _stub("r", tier=TIER3_UNCHECKED)}
    policy = TierPolicy(
        minimum_tier=TIER1_WASM_CERTIFIED,
        overrides={"loose": TIER3_UNCHECKED},
    )
    record, results = run_machine(
        _machine([{"executor_ref": "loose"}]),
        default_governance(),
        policy,
        registry,
        _services(certifier_key, wl_v1),
    )
    assert verify_chain(record).valid


def test_stub_steps_chain_with_zero_cert_hash(certifier_key, wl_v1):
    registry = {
        "analyzed": _stub("a", tier=TIER2_STATIC_ANALYSIS),
        "wild": _stub("w", tier=TIER3_UNCHECKED),
    }
    policy = TierPolicy(minimum_tier=TIER3_UNCHECKED)
    record, results = run_machine(
        _machine(
            [{"executor_ref": "analyzed"}, {"executor_ref": "wild"}]
        ),
        default_governance(),
        policy,
        registry,
        _services(certifier_key, wl_v1),
    )
    methods = [r.step_record.purity_method for r in results]
    assert methods == [
        TIER_PURITY_METHOD[TIER2_STATIC_ANALYSIS],
        TIER_PURITY_METHOD[TIER3_UNCHECKED],
    ]
    assert all(
        r.step_record.purity_cert_hash == ZERO_DIGEST for r in results
    )
    assert all(r.gate_decision is None for r in results)


def test_unknown_executor_ref(certifier_key, wl_v1):
    with pytest.raises(UnknownExecutor):
        run_machine(
            _machine([{"executor_ref": "ghost"}]),
            default_governance(),
            TierPolicy(minimum_tier=TIER3_UNCHECKED),
            {},
            _services(certifier_key, wl_v1),
        )


def test_unknown_executor_names_the_ref(certifier_key, wl_v1):
    with pytest.raises(UnknownExecutor) as excinfo:
        run_machine(
            _machine([{"executor_ref": "ghost"}]),
            default_governance(),
            TierPolicy(minimum_tier=TIER3_UNCHECKED),
            {},
            _services(certifier_key, wl_v1),
        )
    assert str(excinfo.value) == "no executor named 'ghost'"


def test_input_without_canonical_form_performs_no_effect(certifier_key, wl_v1):
    governance = default_governance()
    with pytest.raises(CanonicalError):
        run_machine(
            _machine([{"executor_ref": "fetch"}], machine_input={"x": float("nan")}),
            governance,
            TierPolicy(minimum_tier=TIER3_UNCHECKED),
            {"fetch": _stub("r", directives=[HTTP_OK])},
            _services(certifier_key, wl_v1),
        )
    assert governance.sink.log == []


def test_an_unknown_later_step_performs_no_effect(certifier_key, wl_v1):
    governance = default_governance()
    with pytest.raises(UnknownExecutor):
        run_machine(
            _machine([{"executor_ref": "fetch"}, {"executor_ref": "ghost"}]),
            governance,
            TierPolicy(minimum_tier=TIER3_UNCHECKED),
            {"fetch": _stub("r", directives=[HTTP_OK])},
            _services(certifier_key, wl_v1),
        )
    assert governance.sink.log == [] and governance.records == []


def test_a_later_step_below_its_tier_performs_no_effect(certifier_key, wl_v1):
    governance = default_governance()
    policy = TierPolicy(
        minimum_tier=TIER3_UNCHECKED, overrides={"loose": TIER2_STATIC_ANALYSIS}
    )
    registry = {
        "fetch": _stub("r", directives=[HTTP_OK]),
        "loose": _stub("l", tier=TIER3_UNCHECKED),
    }
    with pytest.raises(TierBelowMinimum):
        run_machine(
            _machine([{"executor_ref": "fetch"}, {"executor_ref": "loose"}]),
            governance,
            policy,
            registry,
            _services(certifier_key, wl_v1),
        )
    assert governance.sink.log == [] and governance.records == []


def test_empty_machine_rejected(certifier_key, wl_v1):
    with pytest.raises(ValueError):
        run_machine(
            _machine([]),
            default_governance(),
            TierPolicy(),
            {},
            _services(certifier_key, wl_v1),
        )


def test_rejected_wasm_executor_raises_with_decision(
    bundles, rogue_key, wl_v1
):
    binary, proof, cert = bundles["emit_call"]
    registry = {
        "emit": WasmExecutor(binary=binary, cert=cert, proof=proof)
    }
    # runtime trusts only the rogue key, so the real certifier is untrusted
    services = RuntimeServices(
        whitelist=wl_v1, trusted_keys=(rogue_key.public_key,)
    )
    with pytest.raises(ExecutorRejected) as excinfo:
        run_machine(
            _machine([{"executor_ref": "emit"}]),
            default_governance(),
            TierPolicy(),
            registry,
            services,
        )
    assert excinfo.value.decision.reason == "untrusted_certifier"


def test_wasm_step_end_to_end(bundles, certifier_key, wl_v1):
    binary, proof, cert = bundles["emit_call"]
    registry = {"emit": WasmExecutor(binary=binary, cert=cert, proof=proof)}
    governance = default_governance()
    record, results = run_machine(
        _machine([{"executor_ref": "emit", "config": {"x": 1}}]),
        governance,
        TierPolicy(),
        registry,
        _services(certifier_key, wl_v1),
    )
    assert verify_chain(record).valid
    (step,) = results
    assert step.gate_decision is not None and step.gate_decision.accepted
    assert step.step_record.purity_cert_hash != ZERO_DIGEST
    assert step.step_record.purity_method == TIER_PURITY_METHOD[
        TIER1_WASM_CERTIFIED
    ]
    assert [d.kind for d in step.output.directives] == ["call_machine"]
    assert step.results[0]["machine"] == "child-machine"
    assert len(governance.sink.log) == 1


def test_steps_pin_the_admitting_certificate_hashed_once(
    bundles, certifier_key, wl_v1, monkeypatch
):
    binary, proof, cert = bundles["emit_call"]
    # a fresh object: the session bundle's digest may be cached by earlier tests
    cert = dataclasses.replace(cert)
    expected = hashlib.sha256(certificate_bytes(cert)).digest()
    calls = []

    def counting(c):
        calls.append(c)
        return certificate_bytes(c)

    monkeypatch.setattr(certificate, "certificate_bytes", counting)
    registry = {"emit": WasmExecutor(binary=binary, cert=cert, proof=proof)}
    record, results = run_machine(
        _machine([{"executor_ref": "emit", "config": {"n": n}} for n in range(4)]),
        default_governance(),
        TierPolicy(),
        registry,
        _services(certifier_key, wl_v1),
    )
    assert [r.gate_decision.from_cache for r in results] == [False, True, True, True]
    assert [r.step_record.purity_cert_hash for r in results] == [expected] * 4
    assert calls == [cert]
    assert verify_chain(record).valid


def test_a_repeated_run_builds_no_record_frame(bundles, certifier_key, wl_v1):
    """Records equal but for their directive share one frame, so running a
    machine again builds none: a frame key that changed from call to call
    would still give every digest, from a miss on every record."""
    registry = {}
    for name in ("emit_call", "emit_reason", "emit_event"):
        binary, proof, cert = bundles[name]
        registry[name] = WasmExecutor(binary=binary, cert=cert, proof=proof)
    machine = _machine([{"executor_ref": name} for name in registry])
    frames = interpreter._FRAMES
    frames.clear()

    def run():
        run_machine(
            machine,
            default_governance(),
            TierPolicy(),
            registry,
            _services(certifier_key, wl_v1),
        )

    run()
    misses = frames.misses
    run()
    assert frames.misses == misses
    assert 0 < len(frames) <= 4


@pytest.mark.parametrize(
    "policy",
    [{"minimum_tier": "tier1"}, {"overrides": {"loose": "tier3_uncheked"}}],
)
def test_tier_policy_refuses_unknown_tier_names(policy):
    with pytest.raises(ValueError, match="unknown tier"):
        TierPolicy(**policy)


def test_context_carries_input_and_prior_results(certifier_key, wl_v1):
    seen_contexts = []

    def capture(executor_input):
        seen_contexts.append(executor_input.context)
        return ExecutorOutput(
            result=f"r{len(seen_contexts)}", directives=(), log_lines=()
        )

    registry = {"cap": StubExecutor(fn=capture, tier=TIER3_UNCHECKED)}
    policy = TierPolicy(minimum_tier=TIER3_UNCHECKED)
    steps = [{"executor_ref": "cap"} for _ in range(3)]
    run_machine(
        _machine(steps, machine_input={"q": 9}),
        default_governance(),
        policy,
        registry,
        _services(certifier_key, wl_v1),
    )
    assert seen_contexts[0] == {"machine_input": {"q": 9}, "prior_results": []}
    assert seen_contexts[1]["prior_results"] == [[]]
    assert seen_contexts[2]["prior_results"] == [[], []]


def test_denied_directives_reported_not_raised(certifier_key, wl_v1):
    registry = {
        "fetcher": _stub(
            "done", directives=[HTTP_OK, HTTP_BAD], tier=TIER3_UNCHECKED
        )
    }
    policy = TierPolicy(minimum_tier=TIER3_UNCHECKED)
    governance = default_governance(allowed_http_hosts=("example.org",))
    record, results = run_machine(
        _machine([{"executor_ref": "fetcher"}]),
        governance,
        policy,
        registry,
        _services(certifier_key, wl_v1),
    )
    (step,) = results
    assert len(step.results) == 1
    assert step.denials == (
        Denied(stage="permission", reason="http_host_allowlist"),
    )
    assert verify_chain(record).valid
