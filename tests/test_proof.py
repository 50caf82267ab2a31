import itertools
import json
from pathlib import Path

import pytest

from puregate.fixtures import FixtureSpec, assemble_fixture, fixture_binary
from puregate.proof import (
    IMPORT_MISMATCH,
    IMPURE,
    MALFORMED_BINARY,
    PURE,
    ProofFormatError,
    build_proof,
    proof_bytes,
    proof_from_json,
    proof_hash,
    proof_to_json,
    validate_proof_against_binary,
)
from puregate.wasm_inspect import parse_imports
from puregate.whitelist import (
    DISALLOWED,
    HOST_NAMESPACE,
    PURE_DATA,
    WhitelistEntry,
    make_whitelist,
)

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
    assert validate_proof_against_binary(proof, binary).accepted


def test_binding_rejects_other_binary(bundles):
    _, proof, _ = bundles["emit_call"]
    check = validate_proof_against_binary(proof, fixture_binary("emit_poc"))
    assert (check.accepted, check.reason) == (False, IMPORT_MISMATCH)


def test_binding_rejects_reordered_imports(wl_v1):
    imports = (
        (HOST_NAMESPACE, "get_input_len", "() -> i32"),
        (HOST_NAMESPACE, "set_output", "(i32, i32) -> ()"),
    )
    original = assemble_fixture(FixtureSpec("ord_a", imports, "no_output"))
    swapped = assemble_fixture(FixtureSpec("ord_b", imports[::-1], "no_output"))
    proof = build_proof(parse_imports(original), wl_v1)
    check = validate_proof_against_binary(proof, swapped)
    assert (check.accepted, check.reason) == (False, IMPORT_MISMATCH)


def test_binding_rejects_malformed_binary(bundles):
    _, proof, _ = bundles["emit_call"]
    check = validate_proof_against_binary(proof, b"\x00asm")
    assert (check.accepted, check.reason) == (False, MALFORMED_BINARY)


def test_proof_hash_changes_with_any_field(bundles):
    _, proof, _ = bundles["emit_call"]
    base = proof_hash(proof)
    doc = proof_to_json(proof)
    doc["whitelist_version"] = 7
    assert proof_hash(proof_from_json(doc)) != base
