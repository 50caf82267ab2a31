import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puregate import wasm_inspect
from puregate.bench import bench
from puregate.certificate import sign_certificate
from puregate.fixtures import FixtureSpec, assemble_fixture, fixture_binary, list_fixtures
from puregate.gate import gate_verify
from puregate.proof import build_proof
from puregate.runtime_host import _HostState, build_host_functions
from puregate.wasm_inspect import (
    MAX_BINARY_BYTES,
    WASM_MAGIC,
    WASM_VERSION,
    ImportRecord,
    MalformedBinary,
    ModuleHeader,
    _s32_at,
    _u32_at,
    decode_header,
    hash_bytes,
    parse_imports,
    render_func_signature,
)
from puregate.watasm import sleb, uleb
from puregate.wasmvm import (
    InstantiationError,
    VMError,
    instantiate,
    parse_module,
    resolve_imports,
)
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


def _table_import(element_type: int) -> bytes:
    """Module importing env.t as a table of one element of the type given."""
    body = b"\x01\x03env\x01t\x01" + bytes([element_type]) + b"\x00\x01"
    return MINIMAL_MODULE + b"\x02" + uleb(len(body)) + body


@pytest.mark.parametrize(
    "element_type, signature",
    [(0x70, "(table 1 funcref)"), (0x6F, "(table 1 externref)")],
)
def test_table_import_of_a_reftype_decodes(element_type, signature):
    (record,) = decode_header(_table_import(element_type)).imports
    assert (record.kind, record.type_signature) == ("table", signature)


@pytest.mark.parametrize(
    "element_type, name", [(0x7F, "i32"), (0x7C, "f64"), (0x7B, "v128")]
)
def test_table_import_of_a_value_type_is_malformed(element_type, name):
    with pytest.raises(MalformedBinary) as excinfo:
        decode_header(_table_import(element_type))
    assert str(excinfo.value) == f"table element type {name} is not a reftype"


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
    hosts = build_host_functions(V2)
    try:
        module = parse_module(data)
        instance = instantiate(
            module, resolve_imports(module, hosts), 1024 * 1024, None, _HostState(b"")
        )
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


# exact LEB128 boundaries of the decoder's one reader, which decode_header
# and the VM share
U32_READERS = [lambda data, end: _u32_at(data, 0, end)]


@pytest.mark.parametrize("read", U32_READERS)
@pytest.mark.parametrize(
    "data, value",
    [
        (b"\x00", 0),
        (b"\x7f", 0x7F),
        (b"\x80\x01", 0x80),
        (b"\xff\x7f", 0x3FFF),
        (b"\x85\x80\x80\x80\x00", 5),  # non-minimal, still 5 bytes
        (b"\xff\xff\xff\xff\x0f", 0xFFFFFFFF),
    ],
)
def test_u32_boundaries(read, data, value):
    assert read(data + b"\x55", len(data)) == (value, len(data))


@pytest.mark.parametrize("read", U32_READERS)
@pytest.mark.parametrize(
    "data, end, message",
    [
        (b"\x80\x80\x80\x80\x10", 5, "LEB128 value exceeds u32"),  # 2**32
        (b"\xff\xff\xff\xff\x7f", 5, "LEB128 value exceeds u32"),
        (b"\x80\x80\x80\x80\x80\x00", 6, "overlong LEB128 encoding"),
        (b"\xff\xff\xff\xff\xff\x01", 6, "overlong LEB128 encoding"),
        (b"", 0, "truncated binary"),
        (b"\x80\x01", 1, "truncated binary"),  # cut at the section end
        (b"\xff\xff\xff\xff\x0f", 4, "truncated binary"),
    ],
)
def test_u32_rejections(read, data, end, message):
    with pytest.raises(MalformedBinary) as info:
        read(data, end)
    assert str(info.value) == message


def test_u32_cut_at_the_section_end_is_truncated():
    # a one-byte type section whose count continues into the next section
    binary = MINIMAL_MODULE + b"\x01\x01\x81" + b"\x00\x00"
    with pytest.raises(MalformedBinary, match="^truncated binary$"):
        decode_header(binary)
    with pytest.raises(InstantiationError, match="^malformed module: truncated binary$"):
        parse_module(binary)


@pytest.mark.parametrize(
    "data, value",
    [
        (b"\x00", 0),
        (b"\x3f", 63),
        (b"\x40", -64),
        (b"\x7f", -1),
        (b"\xc0\x00", 64),
        (b"\xff\x7e", -129),
        (b"\x80\x80\x80\x80\x78", -(2**31)),
        (b"\xff\xff\xff\xff\x07", 2**31 - 1),
        (b"\xff\xff\xff\xff\x7f", -1),  # five bytes, negative
        (b"\xfe\xff\xff\xff\x7f", -2),
    ],
)
def test_sleb32_boundaries(data, value):
    assert _s32_at(data + b"\x55", 0, len(data)) == (value, len(data))


@pytest.mark.parametrize(
    "data, message",
    [
        (b"\x80\x80\x80\x80\x80\x00", "overlong signed LEB128"),
        # a fifth byte whose bits 4-6 are not copies of bit 3
        (b"\xff\xff\xff\xff\x4f", "signed LEB128 value exceeds s32"),
        (b"\xff\xff\xff\xff\x0f", "signed LEB128 value exceeds s32"),
        (b"\x80\x80\x80\x80\x08", "signed LEB128 value exceeds s32"),
        (b"\xff", "truncated binary"),
        (b"", "truncated binary"),
    ],
)
def test_sleb32_rejections(data, message):
    with pytest.raises(MalformedBinary) as info:
        _s32_at(data, 0, len(data))
    assert str(info.value) == message


# the binary format's integer grammar (core spec 5.2.2), read literally:
# (value, next pos), or None where the grammar derives nothing
def _spec_u(data, pos, end, n):
    if pos >= end:
        return None
    b = data[pos]
    if b < 2**7:
        return (b, pos + 1) if b < 2**n else None
    rest = _spec_u(data, pos + 1, end, n - 7) if n > 7 else None
    return None if rest is None else (2**7 * rest[0] + (b - 2**7), rest[1])


def _spec_s(data, pos, end, n):
    if pos >= end:
        return None
    b = data[pos]
    if b < 2**6:
        return (b, pos + 1) if b < 2 ** (n - 1) else None
    if b < 2**7:
        return (b - 2**7, pos + 1) if b >= 2**7 - 2 ** (n - 1) else None
    rest = _spec_s(data, pos + 1, end, n - 7) if n > 7 else None
    return None if rest is None else (2**7 * rest[0] + (b - 2**7), rest[1])


@given(st.integers(-(2**31), 2**31 - 1))
def test_every_i32_survives_the_s32_reader(v):
    encoded = sleb(v)
    assert _s32_at(encoded, 0, len(encoded)) == (v, len(encoded))


# 0-5 continuation bytes, then any byte, biased to the sign and range
# boundaries of a final byte: 1-6 bytes in all
LEB_INPUTS = st.builds(
    lambda more, last: bytes(more) + bytes([last]),
    st.integers(0, 5).flatmap(
        lambda k: st.lists(st.integers(0x80, 0xFF), min_size=k, max_size=k)
    ),
    st.one_of(
        st.integers(0, 0xFF), st.sampled_from([0x07, 0x08, 0x0F, 0x10, 0x77, 0x78])
    ),
)


@settings(max_examples=500)
@given(LEB_INPUTS, st.data())
def test_leb_readers_match_the_spec_grammar(data, draw):
    end = draw.draw(st.one_of(st.just(len(data)), st.integers(0, len(data))))
    for read, spec in ((_u32_at, _spec_u), (_s32_at, _spec_s)):
        try:
            got = read(data, 0, end)
        except MalformedBinary:
            got = None
        assert got == spec(data, 0, end, 32), (read.__name__, data.hex(), end)


def _s32_module(const: bytes, offset: bytes) -> bytes:
    """A module whose one body returns i32.const const and whose one data
    segment sits at i32.const offset."""

    def section(section_id: int, body: bytes) -> bytes:
        return bytes([section_id]) + uleb(len(body)) + body

    code = b"\x00\x41" + const + b"\x0b"
    return (
        MINIMAL_MODULE
        + section(1, b"\x01\x60\x00\x01\x7f")
        + section(3, b"\x01\x00")
        + section(5, b"\x01\x00\x01")
        + section(10, b"\x01" + uleb(len(code)) + code)
        + section(11, b"\x01\x00\x41" + offset + b"\x0b\x00")
    )


@pytest.mark.parametrize(
    "bad", [b"\xff\xff\xff\xff\x4f", b"\xff\xff\xff\xff\x0f", b"\x80\x80\x80\x80\x08"]
)
def test_non_canonical_s32_is_malformed_in_code_and_data(bad):
    good = b"\xff\xff\xff\xff\x7f"  # -1 in five bytes
    assert parse_module(_s32_module(good, good)).data == ((0xFFFFFFFF, b""),)
    for data in (_s32_module(bad, good), _s32_module(good, bad)):
        with pytest.raises(
            InstantiationError, match="^malformed module: signed LEB128 value exceeds s32$"
        ):
            parse_module(data)


# ---------------------------------------------------------------------------
# the header memo: one decode per artifact per process
# ---------------------------------------------------------------------------

HEADERS = wasm_inspect._HEADERS


@pytest.fixture
def decodes(monkeypatch):
    """The bytes decode_header is called on, from an empty header memo."""
    calls = []

    def counting(data):
        calls.append(data)
        return decode_header(data)

    monkeypatch.setattr(wasm_inspect, "decode_header", counting)
    HEADERS.clear()
    return calls


def test_certify_then_gate_decodes_the_header_once(decodes, certifier_key, wl_v1):
    binary = fixture_binary("emit_call")
    proof = build_proof(parse_imports(binary), wl_v1)
    cert = sign_certificate(binary, proof, certifier_key, 1_700_000_000)
    decision = gate_verify(binary, cert, proof, wl_v1, [certifier_key.public_key])
    assert decision.accepted
    assert decodes == [binary]


def test_a_tampered_binary_decodes_again(decodes):
    binary = fixture_binary("emit_call")
    tampered = binary[:-1] + bytes([binary[-1] ^ 0x01])
    assert parse_imports(binary).header == parse_imports(tampered).header
    parse_imports(bytes(bytearray(binary)))  # an equal copy is a hit
    assert decodes == [binary, tampered]


def test_a_malformed_binary_raises_again_and_keeps_nothing(decodes):
    parse_imports(MINIMAL_MODULE)
    bad = MINIMAL_MODULE + b"\x0d\x00"
    for _ in range(3):
        with pytest.raises(MalformedBinary, match="^unknown section id 13$"):
            parse_imports(bad)
        assert len(HEADERS) == 1
    assert decodes == [MINIMAL_MODULE] + [bad] * 3


class _Bytes(bytes):
    """A bytes subclass, which could redefine equality or hashing."""


def _custom_section_module(size):
    """A minimal module padded to size bytes by one custom section."""
    body = size - len(MINIMAL_MODULE) - 1
    body -= len(uleb(body - len(uleb(body))))  # the section size's own LEB128
    data = MINIMAL_MODULE + b"\x00" + uleb(body) + bytes(body)
    assert len(data) == size
    return data


@pytest.mark.parametrize(
    "data",
    [
        _Bytes(fixture_binary("emit_call")),
        bytearray(fixture_binary("emit_call")),
        _custom_section_module(wasm_inspect._HEADER_MEMO_BYTES + 1),
    ],
    ids=["bytes_subclass", "bytearray", "over_the_cap"],
)
def test_only_exact_bytes_up_to_the_cap_are_memoized(decodes, data):
    for _ in range(2):
        assert parse_imports(data).header == decode_header(bytes(data))
    assert decodes == [data, data] and len(HEADERS) == 0


def test_a_binary_at_the_cap_is_memoized(decodes):
    data = _custom_section_module(wasm_inspect._HEADER_MEMO_BYTES)
    parse_imports(data)
    parse_imports(data)
    assert decodes == [data] and len(HEADERS) == 1


def test_the_memo_keeps_its_bound(decodes):
    for i in range(HEADERS.maxsize + 1):
        parse_imports(_custom_section_module(len(MINIMAL_MODULE) + 3 + i))
    assert len(HEADERS) == HEADERS.maxsize


def _header_or_error(read, data):
    try:
        return read(data)
    except MalformedBinary as exc:
        return repr(exc)


@given(flipped_fixtures())
def test_a_hit_and_a_miss_are_each_a_fresh_decode(data):
    HEADERS.clear()
    fresh = _header_or_error(decode_header, data)
    miss = _header_or_error(lambda b: parse_imports(b).header, data)
    hit = _header_or_error(lambda b: parse_imports(b).header, bytes(bytearray(data)))
    assert miss == fresh and hit == fresh
    if isinstance(fresh, ModuleHeader):
        assert (HEADERS.misses, HEADERS.hits) == (1, 1)
    else:
        assert (HEADERS.misses, HEADERS.hits, len(HEADERS)) == (2, 0, 0)


def test_the_benchmark_cold_gate_decodes_on_every_call(decodes):
    parse_imports(fixture_binary("emit_call"))  # the bundle bench() certifies hits
    decodes.clear()
    bench("verify_latency", samples=50, warmup=5)
    assert len(decodes) == 55
