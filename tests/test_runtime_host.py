import dataclasses
import json

import pytest

from puregate.canonical import CanonicalError, canonical_bytes
from puregate.fixtures import (
    EMITTERS,
    PURE_V1,
    ImpureFixture,
    assemble_pure,
    certified_bundle,
    fixture_binary,
    fixture_source,
)
from puregate.gate import DecisionLog, GateCache, gate_verify, invalidate_cache
from puregate import runtime_host, wasmvm, whitelist
from puregate.runtime_host import (
    CONSTRUCTOR_KINDS,
    DEFAULT_MEMORY_MAX,
    DIRECTIVE_KINDS,
    HOST_PROFILE,
    Directive,
    ExecutorInput,
    ExecutorOutput,
    GateNotPassed,
    MalformedOutput,
    PlanFailed,
    ResourceLimits,
    _HostState,
    determinism_check,
    instantiate_and_plan,
)
from puregate.certificate import keypair_from_seed, sign_certificate
from puregate.proof import build_proof
from puregate.wasm_inspect import parse_imports
from puregate.wasmvm import (
    FuelExhausted,
    InstantiationError,
    MemoryExceeded,
    MissingExport,
    Timeout,
    Trap,
)
from puregate.watasm import assemble
from puregate.whitelist import builtin_whitelist

INPUT = ExecutorInput(step_config={"target": "child"}, context={"k": 1})


def _accept(binary, bundles_entry=None, *, certifier_key, env_keys, wl):
    if bundles_entry is None:
        raise AssertionError("need proof/cert")
    _, proof, cert = bundles_entry
    decision = gate_verify(
        binary, cert, proof, wl, env_keys,
        cache=GateCache(), log=DecisionLog(),
    )
    assert decision.accepted, decision.reason
    return decision


@pytest.fixture(scope="module")
def accepted(bundles, certifier_key, wl_v1):
    env = frozenset([certifier_key.public_key])

    def make(name):
        binary, proof, cert = bundles[name]
        decision = gate_verify(
            binary, cert, proof, wl_v1, env,
            cache=GateCache(), log=DecisionLog(),
        )
        assert decision.accepted, (name, decision.reason)
        return binary, decision

    return make


def test_echo_returns_exact_input_bytes(accepted):
    binary, decision = accepted("echo")
    out = instantiate_and_plan(binary, decision, INPUT)
    # the fixture copies the serialized input document back as its result
    assert out.result == json.loads(INPUT.serialize())
    assert out.directives == ()


def test_emitters_produce_expected_directives(accepted):
    expected_kinds = {
        "emit_call": ["call_machine"],
        "emit_reason": ["llm_call"],
        "emit_poc": [],
        "emit_event": ["emit_event"],
    }
    for name in EMITTERS:
        binary, decision = accepted(name)
        out = instantiate_and_plan(binary, decision, INPUT)
        assert [d.kind for d in out.directives] == expected_kinds[name], name
        assert out.result is not None


# custom section "name" (id 0) with a 4-byte payload, as toolchains append
NAME_SECTION = b"\x00\x09\x04name\x01\x02\x03\x04"


@pytest.mark.parametrize("name", ["echo", *EMITTERS])
def test_custom_section_is_ignored_end_to_end(accepted, certifier_key, wl_v1, name):
    binary, decision = accepted(name)
    expected = instantiate_and_plan(binary, decision, INPUT).to_json()
    tagged = binary + NAME_SECTION
    proof = build_proof(parse_imports(tagged), wl_v1)
    cert = sign_certificate(tagged, proof, certifier_key, 1_700_000_000)
    tagged_decision = gate_verify(
        tagged, cert, proof, wl_v1, frozenset([certifier_key.public_key]),
        cache=GateCache(), log=DecisionLog(),
    )
    assert tagged_decision.accepted, tagged_decision.reason
    assert instantiate_and_plan(tagged, tagged_decision, INPUT).to_json() == expected


def test_memory_sentinel_sees_fresh_memory_each_run(accepted):
    binary, decision = accepted("memory_sentinel")
    first = instantiate_and_plan(binary, decision, INPUT)
    second = instantiate_and_plan(binary, decision, INPUT)
    assert first.to_json() == second.to_json()
    assert first.result == {"sentinel": 0}


def _gated(binary, wl, certifier_key, cache=None):
    proof = build_proof(parse_imports(binary), wl)
    cert = sign_certificate(binary, proof, certifier_key, 1_700_000_000)
    decision = gate_verify(
        binary, cert, proof, wl, frozenset([certifier_key.public_key]),
        cache=cache,
    )
    assert decision.accepted, decision.reason
    return decision


def _count_parses(monkeypatch):
    calls = []
    parse = wasmvm.parse_module

    def counted(*args):
        calls.append(args)
        return parse(*args)

    monkeypatch.setattr(wasmvm, "parse_module", counted)
    return calls


def test_only_the_first_plan_of_an_artifact_compiles(
    certifier_key, wl_v1, monkeypatch
):
    binary = fixture_binary("echo")
    cache = GateCache()
    calls = _count_parses(monkeypatch)
    cold = _gated(binary, wl_v1, certifier_key, cache)
    assert calls == []  # the gate leaves the compile to the first plan
    first = instantiate_and_plan(binary, cold, INPUT)
    warm = _gated(binary, wl_v1, certifier_key, cache)
    second = instantiate_and_plan(binary, warm, INPUT)
    assert warm.from_cache and warm.compiled is cold.compiled
    assert len(calls) == 1
    assert first.to_json() == second.to_json()


def test_a_re_admission_shares_the_handle_and_its_binding(
    bundles, certifier_key, wl_v1, wl_v2, monkeypatch
):
    binary, proof, cert = bundles["emit_call"]
    keys = frozenset([certifier_key.public_key])
    cache = GateCache()
    first = gate_verify(binary, cert, proof, wl_v1, keys, cache=cache)
    planned = canonical_bytes(instantiate_and_plan(binary, first, INPUT).to_json())
    calls = _count_parses(monkeypatch)
    invalidate_cache(cache, "manual")
    # the v1 certificate stays current under v2 when v1's hash is on record
    known = {wl_v1.version: wl_v1.content_hash}
    for wl, known_hashes in ((wl_v1, None), (wl_v2, known)):
        decision = gate_verify(
            binary, cert, proof, wl, keys, cache=cache, known_hashes=known_hashes
        )
        assert decision.accepted and not decision.from_cache
        handle = decision.compiled
        assert handle is first.compiled
        # bound once, and what a fresh bind of the module makes
        binding = handle.bound(runtime_host._bind)
        assert binding == runtime_host._bind(handle.module())
        output = instantiate_and_plan(binary, decision, INPUT, runtime_whitelist=wl)
        assert canonical_bytes(output.to_json()) == planned
    assert calls == []


def test_plans_from_one_cached_module_share_no_state(accepted, wl_v1):
    binary, decision = accepted("emit_call")
    module = decision.compiled.module()
    assert decision.compiled.module() is module
    data = [(offset, bytes(payload)) for offset, payload in module.data]
    states = [_HostState(input_bytes=b"first"), _HostState(input_bytes=b"second")]
    # the binding every plan of this artifact shares
    binding = decision.compiled.bound(runtime_host._bind)
    first, second = (
        wasmvm.instantiate(module, binding.host_table, DEFAULT_MEMORY_MAX, None, state)
        for state in states
    )
    assert first.module is second.module is module
    assert first.host_table is second.host_table
    assert first.memory is not second.memory

    # writing over a data segment in one instance reaches neither the other
    # instance nor the module's segment bytes
    offset, payload = module.data[-1]
    first.write_mem(offset, b"\xff" * len(payload))
    assert second.read_mem(offset, len(payload)) == payload
    assert [(o, bytes(p)) for o, p in module.data] == data
    third = wasmvm.instantiate(
        module, binding.host_table, DEFAULT_MEMORY_MAX, None, _HostState(b"")
    )
    assert third.read_mem(offset, len(payload)) == payload

    # each instance's host table writes into its own invocation's buffers
    names = [imp.name for imp in module.imported_funcs]
    set_output = names.index("set_output")
    first.host_table[set_output].fn(first, offset, 4)
    assert states[0].output_docs == [b"\xff" * 4]
    assert states[1].output_docs == []
    log = names.index("log")
    second.host_table[log].fn(second, offset, 2)
    assert states[1].log_lines == [payload[:2].decode("utf-8", errors="replace")]
    assert states[0].log_lines == []
    with pytest.raises(TypeError):
        module.exports["plan"] = (0, 0)

    # whole plans through the one decision: no log line or input carries over
    again = instantiate_and_plan(binary, decision, INPUT)
    assert instantiate_and_plan(binary, decision, INPUT).to_json() == again.to_json()
    echo_binary, echo_decision = accepted("echo")
    other = ExecutorInput(step_config={"target": "other"}, context=[])
    for executor_input in (INPUT, other, INPUT):
        out = instantiate_and_plan(echo_binary, echo_decision, executor_input)
        assert out.result == json.loads(executor_input.serialize())


def test_a_module_the_vm_rejects_fails_every_plan(
    certifier_key, wl_v1, monkeypatch
):
    # pure and gate-accepted, but the function's type is not i32-only
    binary = assemble(
        '(module (func (export "plan") (param i64) (result f64)'
        " local.get 0 i32.const 1 i32.add))"
    )
    decision = _gated(binary, wl_v1, certifier_key)
    calls = _count_parses(monkeypatch)
    messages = set()
    for _ in range(3):
        with pytest.raises(InstantiationError) as excinfo:
            instantiate_and_plan(binary, decision, INPUT)
        messages.add(str(excinfo.value))
    assert len(calls) == 3 and len(messages) == 1


def test_accepting_decision_without_compile_handle_refused(accepted):
    binary, decision = accepted("echo")
    with pytest.raises(GateNotPassed):
        bare = dataclasses.replace(decision, compiled=None)
        instantiate_and_plan(binary, bare, INPUT)


def test_declared_but_uncalled_i64_import_still_plans(certifier_key, wl_v2):
    source = """
    (module
      (import "mashin" "int_add" (func $add (param i64 i64) (result i64)))
      (import "mashin" "float_mul" (func $mul (param f64 f64) (result f64)))
      (import "mashin" "set_output" (func $so (param i32 i32)))
      (memory 1)
      (data (i32.const 0) "{\\"result\\":1}")
      (func $plan (export "plan") (result i32)
        i32.const 0
        i32.const 12
        call $so
        i32.const 0))
    """
    binary = assemble_pure(source, wl_v2)
    decision = _gated(binary, wl_v2, certifier_key)
    out = instantiate_and_plan(binary, decision, INPUT, runtime_whitelist=wl_v2)
    assert out.result == 1


def _count_serializations(monkeypatch):
    calls = []
    serialize = ExecutorInput.serialize

    def counted(self):
        calls.append(self)
        return serialize(self)

    monkeypatch.setattr(ExecutorInput, "serialize", counted)
    return calls


def test_input_is_serialized_once_and_only_when_bound(accepted, monkeypatch):
    calls = _count_serializations(monkeypatch)
    binary, decision = accepted("echo")
    names = {imp.name for imp in decision.compiled.module().imported_funcs}
    assert {"get_input_len", "get_input"} <= names
    instantiate_and_plan(binary, decision, INPUT)
    assert calls == [INPUT]

    calls.clear()
    binary, decision = accepted("emit_poc")
    instantiate_and_plan(binary, decision, INPUT)
    assert calls == []


def _plan_or_error(run):
    try:
        return run().to_json()
    except wasmvm.VMError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("name", PURE_V1)
def test_plan_output_matches_an_input_serialized_up_front(accepted, wl_v1, name):
    binary, decision = accepted(name)
    limits = ResourceLimits(fuel=50_000)

    def up_front():
        state = _HostState(input_bytes=INPUT.serialize())
        module = wasmvm.parse_module(binary)
        instance = wasmvm.instantiate(
            module,
            wasmvm.resolve_imports(
                module, lambda imp: HOST_PROFILE.get((imp.namespace, imp.name))
            ),
            limits.memory_max,
            None,
            state,
        )
        (code,) = instance.invoke("plan", [], limits.fuel, limits.wall_clock_ms)
        if code:
            raise PlanFailed(code)
        if not state.output_docs:
            raise MalformedOutput("plan returned without calling set_output")
        return runtime_host._parse_output_doc(state.output_docs[0], state)

    hosted = _plan_or_error(lambda: instantiate_and_plan(binary, decision, INPUT, limits))
    assert hosted == _plan_or_error(up_front)


@pytest.mark.parametrize(
    "bad",
    [
        ExecutorInput(step_config={"x": float("nan")}, context={}),
        ExecutorInput(step_config={}, context={"tags": {"a", "b"}}),
    ],
    ids=["nan", "set"],
)
def test_non_canonical_input_fails_only_executors_that_read_it(accepted, bad):
    binary, decision = accepted("emit_poc")
    expected = instantiate_and_plan(binary, decision, INPUT).to_json()
    out = instantiate_and_plan(binary, decision, bad)
    assert out.to_json() == expected

    binary, decision = accepted("echo")
    cell = decision.compiled
    fuel = cell._fuel
    with pytest.raises(CanonicalError):
        instantiate_and_plan(binary, decision, bad)
    assert cell._fuel == fuel  # raised at bind: no instruction ran


DEEP = [b"[" * 100_000 + b"]" * 100_000, b'{"a":' * 100_000 + b"1" + b"}" * 100_000]
NON_FINITE = [b'{"result":1,"x":NaN}', b'{"result":1e999}', b'{"result":-Infinity}']


# too deep to parse, or holding a number that has no canonical form
@pytest.mark.parametrize(
    "doc", DEEP + NON_FINITE, ids=["list", "object", "nan", "overflow", "infinity"]
)
def test_a_deeply_nested_document_is_malformed_output(doc):
    with pytest.raises(MalformedOutput):
        runtime_host._parse_output_doc(doc, _HostState())
    module = wasmvm.parse_module(assemble("(module (memory 10))"))
    instance = wasmvm.instantiate(module, (), 10 * 65536, None, _HostState())
    instance.write_mem(0, doc)
    construct = HOST_PROFILE[("mashin", "directive_call_machine")]
    with pytest.raises(MalformedOutput):
        construct.fn(instance, 0, len(doc))
    assert instance.embedder.directives == []


def test_no_output_is_malformed(accepted):
    binary, decision = accepted("no_output")
    with pytest.raises(MalformedOutput):
        instantiate_and_plan(binary, decision, INPUT)


def test_trap_propagates(accepted):
    binary, decision = accepted("trap")
    with pytest.raises(Trap):
        instantiate_and_plan(binary, decision, INPUT)


def test_nonzero_plan_result_fails_with_code(accepted):
    binary, decision = accepted("plan_error")
    with pytest.raises(PlanFailed) as excinfo:
        instantiate_and_plan(binary, decision, INPUT)
    assert excinfo.value.code == 42
    assert isinstance(excinfo.value, Trap)


def test_fuel_limit_enforced(accepted):
    binary, decision = accepted("fuel_burn")
    limits = ResourceLimits(fuel=50_000)
    with pytest.raises(FuelExhausted):
        instantiate_and_plan(binary, decision, INPUT, limits=limits)


def test_wall_clock_limit_enforced(accepted):
    binary, decision = accepted("fuel_burn")
    limits = ResourceLimits(fuel=10**9, wall_clock_ms=50)
    with pytest.raises(Timeout):
        instantiate_and_plan(binary, decision, INPUT, limits=limits)


def test_missing_plan_export(accepted):
    binary, decision = accepted("no_plan")
    with pytest.raises(MissingExport):
        instantiate_and_plan(binary, decision, INPUT)


def test_memory_hog_stopped_at_instantiation(accepted):
    binary, decision = accepted("bypass_memory_hog")
    with pytest.raises(MemoryExceeded):
        instantiate_and_plan(binary, decision, INPUT)


def test_rejected_decision_refuses_to_run(bundles, certifier_key, wl_v1):
    binary, proof, cert = bundles["echo"]
    env = frozenset([keypair_from_seed(bytes(range(7, 39))).public_key])
    decision = gate_verify(
        binary, cert, proof, wl_v1, env, cache=GateCache(), log=DecisionLog()
    )
    assert not decision.accepted
    with pytest.raises(GateNotPassed):
        instantiate_and_plan(binary, decision, INPUT)


def test_decision_for_other_bytes_refused(accepted, bundles):
    _, decision = accepted("echo")
    other = bundles["trap"][0]
    with pytest.raises(GateNotPassed):
        instantiate_and_plan(other, decision, INPUT)


def test_the_host_profile_and_the_shipped_whitelists_agree(wl_v1, wl_v2):
    profile = {key: host.signature for key, host in HOST_PROFILE.items()}
    # every v1 entry is provided, with the entry's signature
    for entry in wl_v1.entries:
        assert profile[(entry.namespace, entry.name)] == entry.type_signature
    # every profile function is a v2-extended entry of the same signature
    for (namespace, name), signature in profile.items():
        assert wl_v2.lookup(namespace, name).type_signature == signature
    assert set(CONSTRUCTOR_KINDS.values()) <= set(DIRECTIVE_KINDS)
    assert len(profile) == len(wl_v1.entries) + len(CONSTRUCTOR_KINDS)


def test_bindings_share_one_host_function_per_entry(accepted):
    for (namespace, name), host in HOST_PROFILE.items():
        assert runtime_host._host_func(namespace, name, host.signature) is host
    # a profile name under another signature gets a trap of that signature,
    # one object per (namespace, name, signature)
    mistyped = runtime_host._host_func("mashin", "get_input_len", "(i32) -> i32")
    assert mistyped.signature == "(i32) -> i32"
    assert mistyped is not HOST_PROFILE[("mashin", "get_input_len")]
    assert runtime_host._host_func("mashin", "get_input_len", "(i32) -> i32") is mistyped
    hosts, shared = {}, set()
    for name in ("echo", "emit_call"):
        binary, decision = accepted(name)
        instantiate_and_plan(binary, decision, INPUT)
        cell = decision.compiled
        binding = cell.bound(runtime_host._bind)  # the one it kept
        for imp, host in zip(cell.module().imported_funcs, binding.host_table):
            assert host is HOST_PROFILE[(imp.namespace, imp.name)]
            if imp.name in hosts:
                shared.add(imp.name)
            assert hosts.setdefault(imp.name, host) is host
    assert "set_output" in shared


def _profile_only(imp):
    """The profile's function of imp's namespace and name, or None: a host
    lookup with no trapping fallback, so the VM's own refusals show."""
    return HOST_PROFILE.get((imp.namespace, imp.name))


# (module source, the VM's refusal when the profile is the only host)
IMPORT_ERRORS = [
    (
        '(module (import "mashin" "mystery" (func $m (result i32)))'
        ' (func (export "plan") (result i32) i32.const 0))',
        "unresolved import mashin.mystery",
    ),
    (
        '(module (import "mashin" "get_input_len" (func $m (param i32) (result i32)))'
        ' (func (export "plan") (result i32) i32.const 0))',
        "import mashin.get_input_len signature (i32) -> i32 does not match host () -> i32",
    ),
    (
        '(module (import "env" "set_output" (func $m (param i32 i32)))'
        ' (func (export "plan") (result i32) i32.const 0))',
        "unresolved import env.set_output",
    ),
]


@pytest.mark.parametrize("source, message", IMPORT_ERRORS)
def test_import_resolution_errors_are_unchanged(source, message):
    module = wasmvm.parse_module(assemble(source))
    with pytest.raises(InstantiationError) as excinfo:
        wasmvm.resolve_imports(module, _profile_only)
    assert str(excinfo.value) == message
    # the host binds each such import to a trap of the import's own signature
    [imp] = module.imported_funcs
    binding = runtime_host._bind(module)
    [host] = binding.host_table
    assert host.signature == imp.type_signature and not binding.reads_input
    with pytest.raises(Trap) as excinfo:
        host.fn(None)
    assert str(excinfo.value) == f"host function {imp.name} is not provided by this profile"


def _count_bound(monkeypatch):
    bound = []
    host_func = runtime_host._host_func
    monkeypatch.setattr(
        runtime_host, "_host_func", lambda *key: bound.append(key) or host_func(*key)
    )
    return bound


def test_plans_resolve_imports_once_per_artifact(accepted, wl_v1, monkeypatch):
    bound = _count_bound(monkeypatch)
    binary, decision = accepted("emit_call")
    imports = [
        (imp.namespace, imp.name, imp.type_signature)
        for imp in decision.compiled.module().imported_funcs
    ]
    outputs = [instantiate_and_plan(binary, decision, INPUT).to_json() for _ in range(3)]
    outputs.append(
        instantiate_and_plan(binary, decision, INPUT, runtime_whitelist=wl_v1).to_json()
    )
    # once, on the first plan: a host function for each import
    assert bound == imports
    assert all(out == outputs[0] for out in outputs)


def test_a_raising_bind_keeps_nothing():
    # the module's one import is not in the profile
    source, message = IMPORT_ERRORS[0]
    binary = assemble(source)
    cell = wasmvm.ModuleCell(binary, parse_imports(binary).header)
    cell.module()  # bound() binds the parsed module
    binds = []

    def strict(module):
        binds.append("strict")
        return wasmvm.resolve_imports(module, _profile_only)

    messages = set()
    for _ in range(3):
        with pytest.raises(InstantiationError) as excinfo:
            cell.bound(strict)
        messages.add(str(excinfo.value))
    assert messages == {message}
    assert binds == ["strict"] * 3  # nothing was kept: every call binds again

    # a bind that succeeds is made once, and its binding serves every call
    def bind(module):
        binds.append("host")
        return runtime_host._bind(module)

    binding = cell.bound(bind)
    assert [host.signature for host in binding.host_table] == ["() -> i32"]
    assert cell.bound(bind) is binding and cell.bound(strict) is binding
    assert binds == ["strict"] * 3 + ["host"]


def test_a_plan_under_another_whitelist_is_refused(
    accepted, bundles, certifier_key, wl_v2
):
    binary, decision = accepted("emit_call")  # admitted under wl_v1
    with pytest.raises(GateNotPassed):
        instantiate_and_plan(binary, decision, INPUT, runtime_whitelist=wl_v2)
    # the gate does not admit the same certificate under wl_v2 either
    _, proof, cert = bundles["emit_call"]
    trusted = frozenset([certifier_key.public_key])
    assert gate_verify(binary, cert, proof, wl_v2, trusted).failed_step == 5
    assert instantiate_and_plan(binary, decision, INPUT).result is not None


def test_a_constructor_plans_under_the_whitelist_that_admits_it(certifier_key, wl_v2):
    binary = fixture_binary("v2_constructor")
    decision = _gated(binary, wl_v2, certifier_key)
    out = instantiate_and_plan(binary, decision, INPUT)
    assert [d.kind for d in out.directives] == ["call_machine"]
    assert out.result == "constructed"


def test_constructor_import_emits_directive(certifier_key, wl_v2):
    source = fixture_source("v2_constructor")
    binary = assemble_pure(source, wl_v2)
    from puregate.proof import build_proof
    from puregate.certificate import sign_certificate
    from puregate.wasm_inspect import parse_imports

    proof = build_proof(parse_imports(binary), wl_v2)
    cert = sign_certificate(binary, proof, certifier_key, 1_700_000_000)
    decision = gate_verify(
        binary, cert, proof,
        wl_v2, frozenset([certifier_key.public_key]),
        cache=GateCache(), log=DecisionLog(),
    )
    assert decision.accepted
    out = instantiate_and_plan(
        binary, decision, INPUT, runtime_whitelist=wl_v2
    )
    assert any(d.kind == "call_machine" for d in out.directives)
    assert out.result == "constructed"


def test_unprovided_whitelist_entry_traps_deterministically(
    certifier_key, wl_v2
):
    source = """
    (module
      (import "mashin" "ctx_get"
        (func $ctx_get (param i32 i32) (result i32)))
      (import "mashin" "set_output" (func $so (param i32 i32)))
      (memory 1)
      (func $plan (export "plan") (result i32)
        i32.const 0
        i32.const 4
        call $ctx_get))
    """
    binary = assemble_pure(source, wl_v2)
    from puregate.certificate import sign_certificate
    from puregate.proof import build_proof
    from puregate.wasm_inspect import parse_imports

    proof = build_proof(parse_imports(binary), wl_v2)
    cert = sign_certificate(binary, proof, certifier_key, 1_700_000_000)
    decision = gate_verify(
        binary, cert, proof,
        wl_v2, frozenset([certifier_key.public_key]),
        cache=GateCache(), log=DecisionLog(),
    )
    assert decision.accepted
    messages = set()
    for _ in range(3):
        with pytest.raises(Trap) as excinfo:
            instantiate_and_plan(
                binary, decision, INPUT, runtime_whitelist=wl_v2
            )
        messages.add(str(excinfo.value))
    assert len(messages) == 1
    assert "ctx_get" in messages.pop()


def _v1_with(entry):
    """v1 with entry in place of v1's entry of the same namespace and name."""
    key = (entry.namespace, entry.name)
    kept = [e for e in builtin_whitelist(1).entries if (e.namespace, e.name) != key]
    return whitelist.make_whitelist(1, [*kept, entry])


def test_a_mistyped_whitelist_entry_binds_a_trap(certifier_key):
    entry = whitelist.WhitelistEntry(
        "mashin", "get_input_len", whitelist.PURE_DATA, "(i32) -> i32"
    )
    binary = assemble(
        '(module (import "mashin" "get_input_len"'
        " (func $len (param i32) (result i32)))"
        ' (func (export "plan") (result i32) i32.const 0 call $len))'
    )
    decision = _gated(binary, _v1_with(entry), certifier_key)
    nan = ExecutorInput(step_config={"x": float("nan")}, context={})
    # it reads no input: a non-canonical one is no error before the trap
    for executor_input in (INPUT, nan):
        with pytest.raises(Trap) as excinfo:
            instantiate_and_plan(binary, decision, executor_input)
        assert str(excinfo.value) == (
            "host function get_input_len is not provided by this profile"
        )


def test_set_output_outside_the_host_namespace_traps(certifier_key):
    entry = whitelist.WhitelistEntry(
        "env", "set_output", whitelist.PURE_DIRECTIVE, "(i32, i32) -> ()"
    )
    binary = assemble(
        '(module (import "env" "set_output" (func $so (param i32 i32)))'
        ' (memory 1) (data (i32.const 0) "{\\"result\\":1}")'
        ' (func (export "plan") (result i32)'
        " i32.const 0 i32.const 12 call $so i32.const 0))"
    )
    decision = _gated(binary, _v1_with(entry), certifier_key)
    with pytest.raises(Trap) as excinfo:
        instantiate_and_plan(binary, decision, INPUT)
    assert str(excinfo.value) == "host function set_output is not provided by this profile"


@pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
def test_an_admitted_bytearray_edited_in_place_is_not_run(
    bundles, certifier_key, wl_v1, cached
):
    binary, proof, cert = bundles["emit_poc"]
    mutable = bytearray(binary)
    trusted = frozenset([certifier_key.public_key])
    decision = gate_verify(
        mutable, cert, proof, wl_v1, trusted, cache=GateCache() if cached else None
    )
    assert decision.accepted
    at = mutable.index(b'"ok"')
    mutable[at + 1 : at + 3] = b"NO"  # the data segment, before any plan
    with pytest.raises(GateNotPassed):
        instantiate_and_plan(mutable, decision, INPUT)
    mutable[at + 1 : at + 3] = b"ok"  # the admitted bytes again
    assert instantiate_and_plan(mutable, decision, INPUT).result == "ok"


def test_constructor_kind_map_covers_directive_kinds(wl_v2):
    assert not hasattr(whitelist, "CONSTRUCTOR_KINDS")  # only the host reads it
    constructors = {e.name for e in wl_v2.entries if e.name.startswith("directive_")}
    assert constructors == set(CONSTRUCTOR_KINDS)
    assert set(CONSTRUCTOR_KINDS.values()) <= set(DIRECTIVE_KINDS)
    assert len(CONSTRUCTOR_KINDS) == 10
    for name in CONSTRUCTOR_KINDS:
        assert name.startswith("directive_")


def test_directive_rejects_unknown_kind():
    with pytest.raises(ValueError):
        Directive(kind="rm_rf", payload={})


def test_output_json_shape(accepted):
    binary, decision = accepted("emit_call")
    out = instantiate_and_plan(binary, decision, INPUT)
    doc = out.to_json()
    assert set(doc) == {"result", "directives", "log_lines"}
    assert isinstance(doc["directives"], list)
    round_tripped = ExecutorOutput(
        result=doc["result"],
        directives=tuple(Directive.from_json(d) for d in doc["directives"]),
        log_lines=tuple(doc["log_lines"]),
    )
    assert round_tripped.to_json() == doc


def test_assemble_pure_refuses_clock_import(wl_v1):
    source = """
    (module
      (import "wasi_snapshot_preview1" "clock_time_get"
        (func $c (param i32 i64 i32) (result i32)))
      (memory 1)
      (func $plan (export "plan") (result i32) i32.const 0))
    """
    with pytest.raises(ImpureFixture):
        assemble_pure(source, wl_v1)


def test_resource_limits_validate():
    with pytest.raises(ValueError):
        ResourceLimits(fuel=0)
    with pytest.raises(ValueError):
        ResourceLimits(memory_max=-1)
    defaults = ResourceLimits()
    assert defaults.fuel == 500_000
    assert defaults.memory_max == 64 * 1024 * 1024
    assert defaults.wall_clock_ms == 1000


def test_determinism_check_counts_divergences(accepted):
    binary, decision = accepted("emit_reason")
    report = determinism_check(binary, decision, INPUT, n=5)
    assert report["divergences"] == 0
    assert len(report["outputs"]) == 5
    assert len(set(report["outputs"])) == 1


def test_determinism_check_covers_identical_errors(accepted):
    binary, decision = accepted("trap")
    report = determinism_check(binary, decision, INPUT, n=5)
    assert report["divergences"] == 0
