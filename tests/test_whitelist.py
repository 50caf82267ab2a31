import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from puregate.signing import generate_seed
from puregate.wasm_inspect import ImportRecord
from puregate.whitelist import (
    DISALLOWED,
    FUTURE_WHITELIST,
    HOST_NAMESPACE,
    PURE_DATA,
    PURE_DIRECTIVE,
    STALE_WHITELIST,
    UNKNOWN_WHITELIST_HASH,
    DuplicateEntry,
    WhitelistEntry,
    WhitelistFormatError,
    builtin_whitelist,
    canonicalize,
    check_version_range,
    content_hash,
    classify_import,
    make_whitelist,
    sign_whitelist,
    verify_whitelist_signature,
    whitelist_from_json,
    whitelist_to_json,
)

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "whitelist_v1.json").read_text()
)


def _func(name, signature="() -> i32", namespace=HOST_NAMESPACE):
    return ImportRecord(namespace, name, "function", signature)


def test_canonical_bytes_match_independent_golden(wl_v1):
    assert canonicalize(wl_v1.version, wl_v1.entries).decode() == GOLDEN["canonical"]
    assert wl_v1.content_hash.hex() == GOLDEN["content_hash"]


def test_v2_extended_keeps_its_content_hash(wl_v2):
    # v1 is pinned by the independent golden above; v2-extended by its digest
    assert wl_v2.content_hash.hex() == (
        "9afe95339c7d7d8082f7651211adbe6a9e57b568bd5ef92673f3f50fe10ddbb1"
    )


def test_sizes_and_inclusion(wl_v1, wl_v2):
    assert len(wl_v1.entries) == 4
    assert len(wl_v2.entries) == 42
    assert set(wl_v1.entries) <= set(wl_v2.entries)
    assert all(e.namespace == HOST_NAMESPACE for e in wl_v2.entries)


def test_classification_matrix(wl_v1):
    assert classify_import(_func("get_input_len"), wl_v1).verdict == PURE_DATA
    assert (
        classify_import(_func("set_output", "(i32, i32) -> ()"), wl_v1).verdict
        == PURE_DIRECTIVE
    )
    assert classify_import(_func("clock_now"), wl_v1).verdict == DISALLOWED
    assert (
        classify_import(_func("get_input_len", "() -> i64"), wl_v1).verdict
        == DISALLOWED
    )
    assert (
        classify_import(_func("get_input_len", namespace="other"), wl_v1).verdict
        == DISALLOWED
    )
    table = ImportRecord("env", "t", "table", "(table 1 funcref)")
    assert classify_import(table, wl_v1).verdict == DISALLOWED


def test_directive_constructors_share_payload_abi(wl_v2):
    constructors = [e for e in wl_v2.entries if e.name.startswith("directive_")]
    assert len(constructors) == 10
    assert {e.type_signature for e in constructors} == {"(i32, i32) -> ()"}
    assert {e.purity_class for e in constructors} == {PURE_DIRECTIVE}


def test_content_hash_sensitivity(wl_v1):
    entries = list(wl_v1.entries)
    assert make_whitelist(2, entries).content_hash != wl_v1.content_hash
    renamed = entries[:-1] + [
        WhitelistEntry(
            entries[-1].namespace,
            entries[-1].name + "_x",
            entries[-1].purity_class,
            entries[-1].type_signature,
        )
    ]
    assert make_whitelist(1, renamed).content_hash != wl_v1.content_hash


def test_entry_order_never_affects_hash(wl_v1):
    reordered = make_whitelist(1, tuple(reversed(wl_v1.entries)))
    assert reordered.content_hash == wl_v1.content_hash


def test_duplicate_entries_rejected(wl_v1):
    with pytest.raises(DuplicateEntry):
        make_whitelist(1, list(wl_v1.entries) + [wl_v1.entries[0]])


def test_version_range_matrix(wl_v1, wl_v2):
    ok = check_version_range(1, wl_v1.content_hash, wl_v1, minimum_required=1)
    assert ok is None

    stale = check_version_range(1, wl_v1.content_hash, wl_v2, minimum_required=2)
    assert stale == STALE_WHITELIST

    future = check_version_range(2, wl_v2.content_hash, wl_v1, minimum_required=1)
    assert future == FUTURE_WHITELIST

    unknown = check_version_range(1, bytes(32), wl_v1, minimum_required=1)
    assert unknown == UNKNOWN_WHITELIST_HASH

    # an in-range version is only accepted when its hash is on record
    unrecorded = check_version_range(1, wl_v1.content_hash, wl_v2, minimum_required=1)
    assert unrecorded == UNKNOWN_WHITELIST_HASH
    recorded = check_version_range(
        1,
        wl_v1.content_hash,
        wl_v2,
        minimum_required=1,
        known_hashes={1: wl_v1.content_hash},
    )
    assert recorded is None


def test_signature_round_trip_and_tamper(wl_v1):
    seed = generate_seed()
    signed = sign_whitelist(wl_v1, seed)
    assert verify_whitelist_signature(signed)
    assert not verify_whitelist_signature(wl_v1)  # unsigned

    doc = whitelist_to_json(signed)
    doc["authority_signature"] = ("00" * 64)
    tampered = whitelist_from_json(doc)
    assert not verify_whitelist_signature(tampered)


def test_recorded_hash_must_match_recomputation(wl_v1):
    doc = whitelist_to_json(wl_v1)
    doc["content_hash"] = "00" * 32
    with pytest.raises(WhitelistFormatError):
        whitelist_from_json(doc)


@pytest.mark.parametrize(
    "field, value",
    [("version", [1]), ("content_hash", 5), ("authority_key", 5),
     ("authority_signature", ["00"]),
     pytest.param("content_hash", str.upper, id="uppercase_content_hash"),
     pytest.param("authority_key", "00" * 31, id="short_authority_key"),
     pytest.param("authority_signature", "00" * 65, id="long_authority_signature")],
)
def test_wrongly_typed_fields_are_format_errors(wl_v1, field, value):
    doc = whitelist_to_json(sign_whitelist(wl_v1, generate_seed()))
    doc[field] = value(doc[field]) if callable(value) else value
    with pytest.raises(WhitelistFormatError, match="bad whitelist document"):
        whitelist_from_json(doc)


@pytest.mark.parametrize("version", [1.5, True, "1", 0, -3])
def test_a_version_that_is_no_positive_integer_is_a_format_error(wl_v1, version):
    doc = {**whitelist_to_json(wl_v1), "version": version}
    del doc["content_hash"]  # so the refusal is the version's, not the hash's
    with pytest.raises(WhitelistFormatError, match="bad whitelist document"):
        whitelist_from_json(doc)


@pytest.mark.parametrize("field", ["namespace", "name", "class", "type_signature"])
@pytest.mark.parametrize("value", [5, None, ["x"]])
def test_entry_fields_that_are_not_strings_are_format_errors(wl_v1, field, value):
    doc = whitelist_to_json(wl_v1)
    del doc["content_hash"]
    doc["entries"][0] = {**doc["entries"][0], field: value}
    with pytest.raises(WhitelistFormatError, match=f"document: {field} must be str"):
        whitelist_from_json(doc)


def test_json_round_trip(wl_v2):
    assert whitelist_from_json(whitelist_to_json(wl_v2)) == wl_v2


# a pool of synthetic capabilities for property instances
_POOL = [
    WhitelistEntry(HOST_NAMESPACE, f"cap_{i}", PURE_DATA, "() -> i32")
    for i in range(8)
]


@given(
    base=st.sets(st.integers(min_value=0, max_value=7), min_size=1),
    extra=st.sets(st.integers(min_value=0, max_value=7)),
    picks=st.lists(st.integers(min_value=0, max_value=7), max_size=6),
)
def test_classification_is_monotone_under_growth(base, extra, picks):
    small = make_whitelist(1, [_POOL[i] for i in base])
    large = make_whitelist(2, [_POOL[i] for i in base | extra])
    for pick in picks:
        imp = _func(f"cap_{pick}")
        if classify_import(imp, small).verdict != DISALLOWED:
            assert classify_import(imp, large).verdict != DISALLOWED


def test_builtin_whitelists_are_built_once():
    for version in (1, 2):
        first = builtin_whitelist(version)
        digest = first.content_hash
        assert builtin_whitelist(version) is first
        assert first.content_hash == digest == content_hash(version, first.entries)
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.version = 3
