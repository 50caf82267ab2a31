import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from puregate.fixtures import FixtureSpec, assemble_fixture, fixture_binary, list_fixtures
from puregate.runtime_host import _HostState, build_host_functions
from puregate.wasm_inspect import (
    MAX_BINARY_BYTES,
    WASM_MAGIC,
    WASM_VERSION,
    ImportRecord,
    MalformedBinary,
    hash_bytes,
    parse_imports,
    render_func_signature,
)
from puregate.wasmvm import VMError, instantiate, parse_module
from puregate.whitelist import builtin_whitelist

# FIPS 180-4 reference digests anchor the artifact-hash implementation
SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
SHA256_ABC = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"

MINIMAL_MODULE = WASM_MAGIC + WASM_VERSION


def test_hash_matches_reference_vectors():
    assert hash_bytes(b"").hex() == SHA256_EMPTY
    assert hash_bytes(b"abc").hex() == SHA256_ABC


def test_artifact_hash_is_plain_sha256_of_bytes():
    binary = fixture_binary("emit_poc")
    assert parse_imports(binary).artifact_hash == hashlib.sha256(binary).digest()


def test_minimal_module_has_no_imports():
    module = parse_imports(MINIMAL_MODULE)
    assert module.imports == ()
    assert module.byte_length == 8


def test_signature_rendering():
    assert render_func_signature([], []) == "() -> ()"
    assert render_func_signature(["i32"], ["i32"]) == "(i32) -> i32"
    assert render_func_signature(["i32", "i64"], []) == "(i32, i64) -> ()"


@pytest.mark.parametrize(
    "binary",
    [
        b"",
        b"\x00asm",
        b"\x01asm" + WASM_VERSION,
        WASM_MAGIC + b"\x02\x00\x00\x00",
        MINIMAL_MODULE + b"\x0d\x00",  # section id 13 out of range
        MINIMAL_MODULE + b"\x01\xff\xff\xff\xff\xff",  # LEB over 5 bytes
        MINIMAL_MODULE + b"\x02\x01",  # section body missing
    ],
)
def test_malformed_binaries_rejected(binary):
    with pytest.raises(MalformedBinary):
        parse_imports(binary)


def test_oversize_binary_rejected():
    with pytest.raises(MalformedBinary):
        parse_imports(b"\x00" * (MAX_BINARY_BYTES + 1))


def test_duplicate_import_section_rejected():
    section = b"\x02\x01\x00"  # empty import vector
    with pytest.raises(MalformedBinary):
        parse_imports(MINIMAL_MODULE + section + section)


def test_empty_import_names_rejected():
    # import section with one entry: namespace "", name "f", func type 0
    type_section = b"\x01\x04\x01\x60\x00\x00"
    import_section = b"\x02\x07\x01\x00\x01\x66\x00\x00"
    with pytest.raises(MalformedBinary):
        parse_imports(MINIMAL_MODULE + type_section + import_section)


def _synthetic_imports(count: int) -> tuple[tuple[str, str, str], ...]:
    signatures = ["() -> i32", "(i32) -> ()", "(i32, i32) -> ()", "(i64) -> i64"]
    return tuple(
        ("mashin", f"capability_{i}", signatures[i % len(signatures)])
        for i in range(count)
    )


@pytest.mark.parametrize("count", range(9))
def test_import_extraction_is_complete(count):
    spec = FixtureSpec(f"complete_{count}", _synthetic_imports(count), "no_output")
    module = parse_imports(assemble_fixture(spec))
    assert tuple(
        (i.namespace, i.name, i.type_signature) for i in module.imports
    ) == _synthetic_imports(count)
    assert all(i.kind == "function" for i in module.imports)


def test_duplicate_imports_preserved_in_order():
    dup = (("mashin", "log", "(i32, i32) -> ()"),) * 2
    module = parse_imports(assemble_fixture(FixtureSpec("dup", dup, "no_output")))
    assert [i.name for i in module.imports] == ["log", "log"]


def test_non_function_imports_render_descriptively():
    imports = (
        ("env", "t", "(table 1 funcref)"),
        ("env", "m", "(memory 1)"),
        ("env", "g", "(global i32)"),
        ("env", "gm", "(global (mut i32))"),
    )
    module = parse_imports(assemble_fixture(FixtureSpec("nf", imports, "no_output")))
    assert [i.type_signature for i in module.imports] == [sig for _, _, sig in imports]
    assert [i.kind for i in module.imports] == ["table", "memory", "global", "global"]


def test_import_record_round_trip():
    record = ImportRecord("mashin", "log", "function", "(i32, i32) -> ()")
    assert ImportRecord.from_json(record.to_json()) == record


V2 = builtin_whitelist(2)


@st.composite
def flipped_fixtures(draw):
    """A fixture binary with one to three bytes XOR-flipped."""
    data = bytearray(fixture_binary(draw(st.sampled_from(list_fixtures()))))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
    return bytes(data)


def _check_vm_decode(data: bytes) -> None:
    """The VM fails only with VMError, and imports what the gate reads."""
    try:
        imports = parse_imports(data).imports
    except MalformedBinary:
        imports = None
    hosts = build_host_functions(V2, _HostState(input_bytes=b""))
    try:
        instance = instantiate(parse_module(data), hosts, 1024 * 1024)
    except VMError:
        return
    if imports is not None:
        functions = tuple(i for i in imports if i.kind == "function")
        assert instance.module.imported_funcs == functions
    if "plan" in instance.module.exports:
        try:
            instance.invoke("plan", [], 10_000, 1000)
        except VMError:
            pass


@given(st.one_of(st.binary(max_size=64), flipped_fixtures()))
def test_arbitrary_bytes_never_crash(data):
    _check_vm_decode(data)
    try:
        module = parse_imports(data)
    except MalformedBinary:
        return
    assert module.artifact_hash == hashlib.sha256(data).digest()


@given(st.integers(min_value=8, max_value=100), flipped_fixtures(), st.integers(0))
def test_truncations_never_crash(cut, flipped, flipped_cut):
    binary = fixture_binary("emit_call")
    prefix = binary[: min(cut, len(binary) - 1)]
    for data in (prefix, flipped[: flipped_cut % len(flipped)]):
        try:
            parse_imports(data)
        except MalformedBinary:
            pass
        _check_vm_decode(data)
