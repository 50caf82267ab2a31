import dataclasses
import hashlib
import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from puregate import proof as proof_module
from puregate.canonical import canonical_bytes
from puregate.fixtures import FixtureSpec, assemble_fixture, fixture_binary
from puregate.gate import R_PROOF_HASH_MISMATCH, gate_verify
from puregate.proof import (
    IMPORT_MISMATCH,
    IMPURE,
    MALFORMED_BINARY,
    PURE,
    ProofFormatError,
    PurityProof,
    build_proof,
    load_proof,
    proof_bytes,
    proof_from_json,
    proof_hash,
    proof_to_json,
    validate_proof_against_binary,
)
from puregate.wasm_inspect import IMPORT_KINDS, ImportRecord, parse_imports
from puregate.watasm import uleb
from puregate.whitelist import (
    DISALLOWED,
    HOST_NAMESPACE,
    PURE_DATA,
    VERDICTS,
    Classification,
    WhitelistEntry,
    make_whitelist,
)
from tests.conftest import bare_digest

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "proof_emit_call.json").read_text()
)


def test_proof_bytes_match_independent_golden(wl_v1):
    proof = build_proof(parse_imports(fixture_binary("emit_call")), wl_v1)
    assert proof_bytes(proof).decode() == GOLDEN["canonical"]
    assert proof_hash(proof).hex() == GOLDEN["proof_hash"]


def test_conclusion_soundness_by_brute_force():
    """Exhaustive check: pure exactly when every import is whitelisted."""
    allowed = [
        WhitelistEntry(HOST_NAMESPACE, f"ok_{i}", PURE_DATA, "() -> i32")
        for i in range(6)
    ]
    whitelist = make_whitelist(1, allowed)
    pool = [(HOST_NAMESPACE, f"ok_{i}", "() -> i32") for i in range(6)] + [
        (HOST_NAMESPACE, "rogue", "() -> i32"),
        ("wasi_snapshot_preview1", "fd_write", "(i32, i32, i32, i32) -> i32"),
        (HOST_NAMESPACE, "ok_0", "(i64) -> i64"),  # right name, wrong signature
    ]
    cases = 0
    for size in range(len(pool) + 1):
        for subset in itertools.combinations(range(len(pool)), size):
            imports = tuple(pool[i] for i in subset)
            spec = FixtureSpec(f"bf_{cases}", imports, "no_output")
            module = parse_imports(assemble_fixture(spec))
            proof = build_proof(module, whitelist)
            should_be_pure = all(i < 6 for i in subset)
            assert proof.conclusion == (PURE if should_be_pure else IMPURE), subset
            cases += 1
    assert cases == 2**9


def test_classifications_parallel_to_imports(wl_v1, bundles):
    for binary, proof, _ in bundles.values():
        assert len(proof.classifications) == len(proof.imports)
        for imp, cls in zip(proof.imports, proof.classifications):
            assert cls.import_record == imp


def test_building_an_impure_proof_never_raises(wl_v1):
    module = parse_imports(fixture_binary("bypass_undeclared"))
    proof = build_proof(module, wl_v1)
    assert proof.conclusion == IMPURE
    assert any(c.verdict == DISALLOWED for c in proof.classifications)


def test_proof_pins_whitelist_snapshot(wl_v1, bundles):
    _, proof, _ = bundles["emit_poc"]
    assert proof.whitelist_version == wl_v1.version
    assert proof.whitelist_hash == wl_v1.content_hash


def test_json_round_trip(bundles):
    _, proof, _ = bundles["emit_call"]
    assert proof_from_json(proof_to_json(proof)) == proof


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(conclusion="maybe"),
        lambda d: d.update(whitelist_hash="ab"),
        lambda d: d.update(classifications=[]),
        lambda d: d.pop("imports"),
        pytest.param(lambda d: d.update(whitelist_version=True), id="version_bool"),
        pytest.param(lambda d: d["imports"][0].update(namespace=5), id="namespace_int"),
        pytest.param(
            lambda d: d["classifications"][0].update(verdict=None), id="verdict_null"
        ),
        pytest.param(lambda d: d.update(imports=[["mashin"]]), id="import_not_object"),
    ],
)
def test_malformed_documents_rejected(bundles, mutate):
    _, proof, _ = bundles["emit_call"]
    doc = proof_to_json(proof)
    mutate(doc)
    with pytest.raises(ProofFormatError):
        proof_from_json(doc)


def test_binding_accepts_matching_binary(bundles):
    binary, proof, _ = bundles["emit_call"]
    assert validate_proof_against_binary(proof, binary) is None


def test_binding_rejects_other_binary(bundles):
    _, proof, _ = bundles["emit_call"]
    check = validate_proof_against_binary(proof, fixture_binary("emit_poc"))
    assert check == IMPORT_MISMATCH


def test_binding_rejects_reordered_imports(wl_v1):
    imports = (
        (HOST_NAMESPACE, "get_input_len", "() -> i32"),
        (HOST_NAMESPACE, "set_output", "(i32, i32) -> ()"),
    )
    original = assemble_fixture(FixtureSpec("ord_a", imports, "no_output"))
    swapped = assemble_fixture(FixtureSpec("ord_b", imports[::-1], "no_output"))
    proof = build_proof(parse_imports(original), wl_v1)
    check = validate_proof_against_binary(proof, swapped)
    assert check == IMPORT_MISMATCH


def test_binding_rejects_malformed_binary(bundles):
    _, proof, _ = bundles["emit_call"]
    check = validate_proof_against_binary(proof, b"\x00asm")
    assert check == MALFORMED_BINARY


def test_proof_hash_changes_with_any_field(bundles):
    _, proof, _ = bundles["emit_call"]
    base = proof_hash(proof)
    doc = proof_to_json(proof)
    doc["whitelist_version"] = 7
    assert proof_hash(proof_from_json(doc)) != base


def _fresh(proof):
    """An equal proof object whose digest no earlier test has cached."""
    return dataclasses.replace(proof)


def test_a_second_proof_hash_encodes_nothing(bundles, monkeypatch):
    proof = _fresh(bundles["emit_call"][1])
    encode, calls = proof_module.proof_bytes, []
    monkeypatch.setattr(
        proof_module, "proof_bytes", lambda doc: calls.append(doc) or encode(doc)
    )
    first = proof_hash(proof)
    assert proof_hash(proof) is first and proof.digest is first
    assert len(calls) == 1
    # the cached digest is no field: equality, hashing and repr are as before
    copy = _fresh(proof)
    assert copy == proof and hash(copy) == hash(proof)
    assert repr(copy) == repr(proof) and "digest" not in repr(proof)
    assert proof_to_json(proof) == proof_to_json(copy)


def test_replace_with_other_classifications_hashes_afresh(bundles):
    proof = bundles["emit_call"][1]
    base = proof_hash(proof)
    forged = dataclasses.replace(
        proof,
        classifications=tuple(
            Classification(c.import_record, DISALLOWED) for c in proof.classifications
        ),
    )
    assert proof_hash(forged) != base
    assert proof_hash(forged) == bare_digest(proof_to_json(forged))


def test_load_proof_hashes_the_canonical_re_encoding(bundles, tmp_path):
    proof = bundles["emit_call"][1]
    path = tmp_path / "spaced.proof"
    path.write_text(json.dumps(proof_to_json(proof), indent=2))
    loaded = load_proof(path)
    assert proof_hash(loaded) == proof_hash(proof)
    assert proof_hash(loaded) != hashlib.sha256(path.read_bytes()).digest()


def test_a_swapped_proof_with_a_cached_digest_fails_step_3(
    bundles, wl_v1, certifier_key
):
    binary, _, cert = bundles["emit_call"]
    swapped = _fresh(bundles["echo"][1])
    assert proof_hash(swapped) != cert.proof_hash  # cached before the gate reads it
    decision = gate_verify(binary, cert, swapped, wl_v1, [certifier_key.public_key])
    assert (decision.reason, decision.failed_step) == (R_PROOF_HASH_MISMATCH, 3)


_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
_IMPORTS = st.builds(ImportRecord, _TEXT, _TEXT, st.sampled_from(IMPORT_KINDS), _TEXT)


@given(
    imports=st.lists(_IMPORTS, max_size=4),
    verdicts=st.lists(st.sampled_from(VERDICTS), min_size=4, max_size=4),
    conclusion=st.sampled_from([PURE, IMPURE]),
    version=st.integers(0, 2**40),
    whitelist_hash=st.binary(min_size=32, max_size=32),
)
def test_proof_digest_is_sha256_of_sorted_compact_json(
    imports, verdicts, conclusion, version, whitelist_hash
):
    proof = PurityProof(
        imports=tuple(imports),
        classifications=tuple(map(Classification, imports, verdicts)),
        conclusion=conclusion,
        whitelist_version=version,
        whitelist_hash=whitelist_hash,
    )
    assert proof.digest == bare_digest(proof_to_json(proof))


# names the encoder escapes or passes through: quotes, backslashes, controls,
# non-ASCII and astral characters; a long one takes a two-byte length
_NAMES = st.text(
    st.characters(blacklist_categories=("Cs",))
    | st.sampled_from(
        ['"', "\\", "\x00", "\x1f", "\x7f", "\xe9", "\u65e5", "\U0001f600"]
    ),
    min_size=1,
    max_size=40,
)
# (i32) -> () and () -> i64
_TYPES = b"\x01\x09\x02\x60\x01\x7f\x00\x60\x00\x01\x7e"
# a function of either type, a table, a memory and a global
_DESCRIPTORS = [
    b"\x00\x00", b"\x00\x01", b"\x01\x70\x00\x01", b"\x02\x01\x01\x02", b"\x03\x7f\x01"
]


def _importing(entries):
    """A module importing each (namespace, name, descriptor) in order."""
    body = uleb(len(entries)) + b"".join(
        uleb(len(ns.encode())) + ns.encode() + uleb(len(n.encode())) + n.encode() + d
        for ns, n, d in entries
    )
    return b"\x00asm\x01\x00\x00\x00" + _TYPES + b"\x02" + uleb(len(body)) + body


@given(
    entries=st.lists(
        st.tuples(_NAMES, _NAMES, st.sampled_from(_DESCRIPTORS)), max_size=5
    ),
    read_back=st.lists(st.booleans(), min_size=5, max_size=5),
    verdicts=st.lists(st.sampled_from(VERDICTS), min_size=5, max_size=5),
    conclusion=st.sampled_from([PURE, IMPURE]),
    version=st.integers(0, 2**40),
    whitelist_hash=st.binary(min_size=32, max_size=32),
)
def test_spliced_proof_bytes_are_the_whole_encoding(
    entries, read_back, verdicts, conclusion, version, whitelist_hash
):
    # records from the decoder, some read back from their documents
    decoded = parse_imports(_importing(entries)).imports
    assert [r.kind for r in decoded] == [IMPORT_KINDS[d[0]] for _, _, d in entries]
    imports = tuple(
        ImportRecord.from_json(json.loads(json.dumps(r.to_json()))) if again else r
        for r, again in zip(decoded, read_back)
    )
    proof = PurityProof(
        imports=imports,
        classifications=tuple(map(Classification, imports, verdicts)),
        conclusion=conclusion,
        whitelist_version=version,
        whitelist_hash=whitelist_hash,
    )
    whole = canonical_bytes(proof_to_json(proof))
    assert proof_bytes(proof) == whole
    assert proof_bytes(proof) == whole  # each record's bytes now kept
    assert proof_bytes(proof_from_json(json.loads(whole))) == whole
