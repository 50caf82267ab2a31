import pytest

from puregate.fixtures import (
    BEHAVIORS,
    EMITTERS,
    IMPURE_V1,
    PURE_V1,
    FixtureSpec,
    ImpureFixture,
    UnimplementableBehavior,
    UnknownFixture,
    assemble_fixture,
    assemble_pure,
    fixture_binary,
    fixture_source,
    fixture_spec_source,
    list_fixtures,
)
from puregate.proof import IMPURE, PURE, build_proof
from puregate.wasm_inspect import parse_imports

V1_IMPORTS = (
    ("mashin", "get_input_len", "() -> i32"),
    ("mashin", "get_input", "(i32) -> ()"),
    ("mashin", "set_output", "(i32, i32) -> ()"),
    ("mashin", "log", "(i32, i32) -> ()"),
)


def test_corpus_is_complete_and_disjoint():
    names = set(list_fixtures())
    assert set(PURE_V1) <= names
    assert set(IMPURE_V1) <= names
    assert not set(PURE_V1) & set(IMPURE_V1)
    assert set(EMITTERS) <= set(PURE_V1)


def test_unknown_fixture_name():
    with pytest.raises(UnknownFixture):
        fixture_source("does_not_exist")
    with pytest.raises(KeyError):
        fixture_binary("does_not_exist")


def test_fixture_binaries_are_stable():
    for name in PURE_V1:
        assert fixture_binary(name) == fixture_binary(name)
        assert fixture_binary(name)[:4] == b"\x00asm"


def test_pure_corpus_proves_pure_under_v1(wl_v1):
    for name in PURE_V1:
        proof = build_proof(parse_imports(fixture_binary(name)), wl_v1)
        assert proof.conclusion == PURE, name


def test_impure_corpus_proves_impure_under_v1(wl_v1):
    for name in IMPURE_V1:
        binary = fixture_binary(name)
        proof = build_proof(parse_imports(binary), wl_v1)
        assert proof.conclusion == IMPURE, name


def test_v2_constructor_is_pure_under_extended_whitelist(wl_v2):
    proof = build_proof(parse_imports(fixture_binary("v2_constructor")), wl_v2)
    assert proof.conclusion == PURE


def test_assemble_pure_guards_the_corpus(wl_v1):
    with pytest.raises(ImpureFixture):
        assemble_pure(fixture_source("bypass_wasi"), wl_v1)
    binary = assemble_pure(fixture_source("emit_poc"), wl_v1)
    assert binary == fixture_binary("emit_poc")


def test_generated_specs_round_trip_their_imports():
    for behavior in BEHAVIORS:
        spec = FixtureSpec(
            name=f"gen_{behavior}", imports=V1_IMPORTS, behavior=behavior
        )
        binary = assemble_fixture(spec)
        module = parse_imports(binary)
        declared = tuple(
            (i.namespace, i.name, i.type_signature) for i in module.imports
        )
        assert declared == V1_IMPORTS, behavior


@pytest.mark.parametrize("name", ["echo", "trap", "memory_sentinel"])
def test_a_behavior_with_the_committed_imports_is_the_committed_fixture(name):
    imports = tuple(
        (i.namespace, i.name, i.type_signature)
        for i in parse_imports(fixture_binary(name)).imports
    )
    spec = FixtureSpec(name=name, imports=imports, behavior=name)
    assert assemble_fixture(spec) == fixture_binary(name)


def test_generated_spec_minimal_imports():
    spec = FixtureSpec(
        name="tiny",
        imports=(("mashin", "set_output", "(i32, i32) -> ()"),),
        behavior="call_machine_emitter",
    )
    module = parse_imports(assemble_fixture(spec))
    assert len(module.imports) == 1


def test_spec_missing_required_import_is_unimplementable():
    spec = FixtureSpec(name="broken", imports=(), behavior="echo")
    with pytest.raises(UnimplementableBehavior) as excinfo:
        fixture_spec_source(spec)
    assert "get_input" in str(excinfo.value)


def test_spec_rejects_unknown_behavior():
    with pytest.raises(ValueError):
        FixtureSpec(name="x", imports=(), behavior="exfiltrate")


def test_spec_nonfunction_imports_survive_generation():
    spec = FixtureSpec(
        name="with_table",
        imports=(
            ("mashin", "set_output", "(i32, i32) -> ()"),
            ("mashin", "shared_table", "(table 1 funcref)"),
        ),
        behavior="no_output",
    )
    module = parse_imports(assemble_fixture(spec))
    kinds = [(i.kind, i.type_signature) for i in module.imports]
    assert ("table", "(table 1 funcref)") in kinds


def test_committed_sources_match_declared_import_texture():
    # every committed pure fixture declares only mashin imports
    for name in PURE_V1:
        module = parse_imports(fixture_binary(name))
        assert {i.namespace for i in module.imports} <= {"mashin"}, name
