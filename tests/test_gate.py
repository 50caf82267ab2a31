import dataclasses
import hashlib
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puregate import certificate, gate, signing
from puregate.canonical import CanonicalError, canonical_bytes
from puregate.certificate import (
    certificate_from_json,
    certificate_to_json,
    keypair_from_seed,
    sign_certificate,
)
from puregate.fixtures import certified_bundle, fixture_binary
from puregate.gate import (
    ACCEPT,
    CACHE_INVALIDATION_CAUSES,
    DecisionLog,
    GateCache,
    GateDecision,
    R_ARTIFACT_HASH_MISMATCH,
    R_CONCLUSION_NOT_PURE,
    R_DISALLOWED_IMPORT,
    R_IMPORT_MISMATCH,
    R_INVALID_SIGNATURE,
    R_MALFORMED_BINARY,
    R_PROOF_HASH_MISMATCH,
    R_STALE_OR_UNKNOWN_WHITELIST,
    R_UNTRUSTED_CERTIFIER,
    gate_verify,
    invalidate_cache,
)
from puregate.proof import build_proof, proof_from_json, proof_hash, proof_to_json
from puregate.wasm_inspect import parse_imports
from puregate.watasm import uleb
from puregate.whitelist import (
    HOST_NAMESPACE,
    PURE_DATA,
    WhitelistEntry,
    make_whitelist,
)
from tests.conftest import FIXED_NOW


def _gate(bundle, wl, keys, **kwargs):
    binary, proof, cert = bundle
    return gate_verify(binary, cert, proof, wl, keys, **kwargs)


def _adversarial_whitelist(binary, version=1):
    """A whitelist permissive enough to certify any function-import binary."""
    entries = {
        (i.namespace, i.name): WhitelistEntry(
            i.namespace, i.name, PURE_DATA, i.type_signature
        )
        for i in parse_imports(binary).imports
        if i.kind == "function"
    }
    return make_whitelist(version, entries.values())


def test_accepts_well_formed_bundle(bundles, wl_v1, certifier_key):
    decision = _gate(bundles["emit_call"], wl_v1, [certifier_key.public_key])
    assert decision.accepted
    assert decision.reason is None and decision.failed_step is None
    assert decision.artifact_hash == bundles["emit_call"][2].artifact_hash


def test_cold_gate_hashes_the_binary_once(bundles, wl_v1, certifier_key, monkeypatch):
    binary = bundles["emit_call"][0]
    sha256 = hashlib.sha256
    hashed = []

    def counting(data=b""):
        hashed.append(data == binary)
        return sha256(data)

    monkeypatch.setattr(hashlib, "sha256", counting)
    decision = _gate(bundles["emit_call"], wl_v1, [certifier_key.public_key])
    assert decision.accepted
    assert hashed.count(True) == 1  # at entry; step 4 reuses the digest
    assert decision.artifact_hash == sha256(binary).digest()


def test_step1_untrusted_certifier(bundles, wl_v1, rogue_key):
    decision = _gate(bundles["emit_call"], wl_v1, [rogue_key.public_key])
    assert (decision.reason, decision.failed_step) == (R_UNTRUSTED_CERTIFIER, 1)


def test_step1_invalid_signature(bundles, wl_v1, certifier_key):
    binary, proof, cert = bundles["emit_call"]
    doc = certificate_to_json(cert)
    raw = bytearray(bytes.fromhex(doc["signature"]))
    raw[-1] ^= 0x01
    doc["signature"] = raw.hex()
    tampered = certificate_from_json(doc)
    decision = gate_verify(
        binary, tampered, proof, wl_v1, [certifier_key.public_key]
    )
    assert (decision.reason, decision.failed_step) == (R_INVALID_SIGNATURE, 1)


def test_step2_artifact_binding(bundles, wl_v1, certifier_key):
    _, proof, cert = bundles["emit_call"]
    other = fixture_binary("emit_poc")
    decision = gate_verify(other, cert, proof, wl_v1, [certifier_key.public_key])
    assert (decision.reason, decision.failed_step) == (R_ARTIFACT_HASH_MISMATCH, 2)


def test_step3_proof_binding(bundles, wl_v1, certifier_key):
    binary, _, cert = bundles["emit_call"]
    _, other_proof, _ = bundles["emit_poc"]
    decision = gate_verify(
        binary, cert, other_proof, wl_v1, [certifier_key.public_key]
    )
    assert (decision.reason, decision.failed_step) == (R_PROOF_HASH_MISMATCH, 3)


def test_step4_malformed_binary(bundles, wl_v1, certifier_key):
    """Unparseable bytes surface at re-extraction, after the hash bindings."""
    binary, proof, cert = bundles["emit_call"]
    truncated = binary[:20]
    proof_adv = build_proof(parse_imports(binary), wl_v1)
    adversary = keypair_from_seed(b"\x55" * 32)
    # certificate adversarially re-bound to the truncated bytes
    cert_doc = certificate_to_json(
        sign_certificate(binary, proof_adv, adversary, FIXED_NOW)
    )
    import hashlib

    cert_doc["artifact_hash"] = hashlib.sha256(truncated).hexdigest()
    message = bytes.fromhex(cert_doc["artifact_hash"]) + bytes.fromhex(
        cert_doc["proof_hash"]
    )
    cert_doc["signature"] = signing.sign(adversary.private_key, message).hex()
    rebound = certificate_from_json(cert_doc)
    decision = gate_verify(
        truncated, rebound, proof_adv, wl_v1, [adversary.public_key]
    )
    assert (decision.reason, decision.failed_step, decision.detail) == (
        R_MALFORMED_BINARY, 4, "truncated binary"
    )


def _rebound_to(bundle, doc, wl):
    """gate_verify on the bundle's binary under the proof doc describes,
    with a certificate an adversary re-signed over that proof."""
    binary, honest, _ = bundle
    proof = proof_from_json(doc)
    adversary = keypair_from_seed(b"\x66" * 32)
    cert_doc = certificate_to_json(sign_certificate(binary, honest, adversary, FIXED_NOW))
    cert_doc["proof_hash"] = proof_hash(proof).hex()
    message = bytes.fromhex(cert_doc["artifact_hash"]) + proof_hash(proof)
    cert_doc["signature"] = signing.sign(adversary.private_key, message).hex()
    return gate_verify(
        binary, certificate_from_json(cert_doc), proof, wl, [adversary.public_key]
    )


def test_step4_import_mismatch(bundles, wl_v1):
    """A proof whose import list was reordered no longer matches the
    binary, and the detail names the first position where they differ."""
    doc = proof_to_json(bundles["emit_call"][1])
    doc["imports"] = doc["imports"][::-1]
    doc["classifications"] = doc["classifications"][::-1]
    decision = _rebound_to(bundles["emit_call"], doc, wl_v1)
    assert (decision.reason, decision.failed_step, decision.detail) == (
        R_IMPORT_MISMATCH,
        4,
        "import 0: binary has mashin.get_input_len function () -> i32; "
        "proof has mashin.log function (i32, i32) -> ()",
    )
    doc["imports"][0] = doc["imports"][-1]
    doc["classifications"][0] = doc["classifications"][-1]
    assert _rebound_to(bundles["emit_call"], doc, wl_v1).detail == (
        "import 1: binary has mashin.get_input function (i32) -> (); "
        "proof has mashin.set_output function (i32, i32) -> ()"
    )


@pytest.mark.parametrize("proved", [3, 5], ids=["proof_shorter", "proof_longer"])
def test_step4_import_mismatch_in_count_only(bundles, wl_v1, proved):
    """When one list begins with the other, the detail gives both counts."""
    doc = proof_to_json(bundles["emit_call"][1])
    doc["imports"].append(dict(doc["imports"][0], name="get_input_len2"))
    doc["classifications"].append(
        dict(doc["classifications"][0], **{"import": doc["imports"][-1]})
    )
    doc["imports"] = doc["imports"][:proved]
    doc["classifications"] = doc["classifications"][:proved]
    decision = _rebound_to(bundles["emit_call"], doc, wl_v1)
    assert (decision.reason, decision.failed_step, decision.detail) == (
        R_IMPORT_MISMATCH, 4, f"binary has 4 imports; proof has {proved}"
    )


def test_each_acceptance_after_the_first_takes_the_vm_from_the_cache(bundles, wl_v1, certifier_key):
    # an import statement in every acceptance cost onboard about 1.3%
    gate._vm()
    before = gate._vm.cache_info()
    for name in ("emit_call", "emit_poc"):
        assert _gate(bundles[name], wl_v1, [certifier_key.public_key]).accepted
    after = gate._vm.cache_info()
    assert (after.hits - before.hits, after.misses) == (2, 1)


@pytest.mark.parametrize(
    "fixture,expected_detail",
    [
        ("bypass_undeclared", "mashin.clock_now"),
        ("bypass_wasi", "wasi_snapshot_preview1.fd_write"),
        ("bypass_table_import", "mashin.shared_table"),
        ("bypass_second_namespace", "evil.exfiltrate"),
        ("mismatched_sig", "mashin.get_input"),
    ],
)
def test_step5_disallowed_import(wl_v1, fixture, expected_detail):
    """Adversarially certified bypass binaries fail re-classification."""
    binary = fixture_binary(fixture)
    adversary = keypair_from_seed(b"\x77" * 32)
    adversarial = _adversarial_whitelist(binary)
    proof = build_proof(parse_imports(binary), adversarial)
    if proof.conclusion != "pure":
        # non-function imports can never be whitelisted, so the adversary
        # forges the classification lines instead; the signer does not
        # re-derive them, only the gate does
        doc = proof_to_json(proof)
        for cls in doc["classifications"]:
            cls["verdict"] = "pure_data"
        doc["conclusion"] = "pure"
        proof = proof_from_json(doc)
    cert = sign_certificate(binary, proof, adversary, FIXED_NOW)
    decision = gate_verify(binary, cert, proof, wl_v1, [adversary.public_key])
    assert (decision.reason, decision.failed_step) == (R_DISALLOWED_IMPORT, 5)
    assert decision.detail == expected_detail


def test_step5_stale_whitelist(wl_v2, certifier_key):
    """A version-1 certificate is stale once policy demands version 2."""
    bundle = certified_bundle(
        "emit_poc", certifier_key, make_whitelist(1, wl_v2.entries), FIXED_NOW
    )
    binary, proof, cert = bundle
    decision = gate_verify(
        binary,
        cert,
        proof,
        wl_v2,
        [certifier_key.public_key],
        minimum_version=2,
        known_hashes={1: cert.metadata.whitelist_hash},
    )
    assert (decision.reason, decision.failed_step) == (
        R_STALE_OR_UNKNOWN_WHITELIST,
        5,
    )
    assert decision.detail == "StaleWhitelist"


def test_step5_future_whitelist(wl_v1, wl_v2, certifier_key):
    binary, proof, cert = certified_bundle("emit_poc", certifier_key, wl_v2, FIXED_NOW)
    decision = gate_verify(binary, cert, proof, wl_v1, [certifier_key.public_key])
    assert (decision.reason, decision.failed_step) == (
        R_STALE_OR_UNKNOWN_WHITELIST,
        5,
    )
    assert decision.detail == "FutureWhitelist"


def test_step5_unknown_whitelist_hash(wl_v1, certifier_key):
    """Same version number, different content: hash pinning catches it."""
    variant = make_whitelist(
        1,
        list(wl_v1.entries)
        + [WhitelistEntry(HOST_NAMESPACE, "extra", PURE_DATA, "() -> i32")],
    )
    binary, proof, cert = certified_bundle("emit_poc", certifier_key, variant, FIXED_NOW)
    decision = gate_verify(binary, cert, proof, wl_v1, [certifier_key.public_key])
    assert (decision.reason, decision.failed_step) == (
        R_STALE_OR_UNKNOWN_WHITELIST,
        5,
    )
    assert decision.detail == "UnknownWhitelistHash"


def test_step6_conclusion_not_pure(wl_v1, certifier_key):
    """An adversarially signed impure proof falls at the final check."""
    binary = fixture_binary("emit_poc")
    proof = build_proof(parse_imports(binary), wl_v1)
    doc = proof_to_json(proof)
    doc["conclusion"] = "impure"
    impure_proof = proof_from_json(doc)
    adversary = keypair_from_seed(b"\x88" * 32)
    from puregate.proof import proof_hash as ph

    cert = sign_certificate(binary, proof, adversary, FIXED_NOW)
    cert_doc = certificate_to_json(cert)
    cert_doc["proof_hash"] = ph(impure_proof).hex()
    message = bytes.fromhex(cert_doc["artifact_hash"]) + bytes.fromhex(
        cert_doc["proof_hash"]
    )
    cert_doc["signature"] = signing.sign(adversary.private_key, message).hex()
    rebound = certificate_from_json(cert_doc)
    decision = gate_verify(
        binary, rebound, impure_proof, wl_v1, [adversary.public_key]
    )
    assert (decision.reason, decision.failed_step) == (R_CONCLUSION_NOT_PURE, 6)


# ---------------------------------------------------------------------------
# cache behavior
# ---------------------------------------------------------------------------

def test_cache_hit_skips_all_crypto(bundles, wl_v1, certifier_key):
    cache = GateCache()
    keys = [certifier_key.public_key]
    cold = _gate(bundles["emit_call"], wl_v1, keys, cache=cache)
    assert cold.accepted and not cold.from_cache

    signing.reset_verify_call_count()
    warm = _gate(bundles["emit_call"], wl_v1, keys, cache=cache)
    assert warm.accepted and warm.from_cache
    assert signing.verify_call_count == 0


def test_rejections_are_never_cached(bundles, wl_v1, rogue_key):
    cache = GateCache()
    decision = _gate(bundles["emit_call"], wl_v1, [rogue_key.public_key], cache=cache)
    assert not decision.accepted
    assert cache.accepted == {}


def test_cache_entry_records_whitelist_snapshot(bundles, wl_v1, certifier_key):
    cache = GateCache()
    log = DecisionLog()
    _gate(
        bundles["emit_call"],
        wl_v1,
        [certifier_key.public_key],
        cache=cache,
        log=log,
        now=1234.5,
    )
    admitted = cache.accepted[bundles["emit_call"][0]].admitted
    assert admitted.whitelist.version == wl_v1.version
    assert admitted.whitelist.content_hash == wl_v1.content_hash
    assert log.events[-1]["timestamp"] == 1234.5


def test_cache_hit_requires_the_certificate_and_proof_it_admitted(
    bundles, wl_v1, certifier_key
):
    cache = GateCache()
    keys = [certifier_key.public_key]
    binary, proof, cert = bundles["emit_call"]
    assert _gate(bundles["emit_call"], wl_v1, keys, cache=cache).accepted

    zero_signature = dataclasses.replace(cert, signature=bytes(64))
    swapped_proof = bundles["echo"][1]
    for presented_cert, presented_proof, step, reason in (
        (zero_signature, proof, 1, R_INVALID_SIGNATURE),
        (cert, swapped_proof, 3, R_PROOF_HASH_MISMATCH),
    ):
        decision = gate_verify(
            binary, presented_cert, presented_proof, wl_v1, keys, cache=cache
        )
        assert not decision.from_cache
        assert (decision.reason, decision.failed_step) == (reason, step)

    # the rejections left the original acceptance in place
    signing.reset_verify_call_count()
    warm = _gate(bundles["emit_call"], wl_v1, keys, cache=cache)
    assert warm.accepted and warm.from_cache
    assert warm.admitted.cert is cert and signing.verify_call_count == 0

    # a valid certificate other than the admitted one is checked cold, and
    # its acceptance is the one later hits serve
    resigned = sign_certificate(binary, proof, certifier_key, FIXED_NOW + 1)
    decision = gate_verify(binary, resigned, proof, wl_v1, keys, cache=cache)
    assert decision.accepted and not decision.from_cache
    assert signing.verify_call_count == 1
    again = gate_verify(binary, resigned, proof, wl_v1, keys, cache=cache)
    assert again.from_cache and again.admitted.cert is resigned


def test_cache_hit_is_the_stored_acceptance(bundles, wl_v1, certifier_key):
    cache = GateCache()
    keys = [certifier_key.public_key]
    cold = _gate(bundles["emit_call"], wl_v1, keys, cache=cache)
    stored = cache.accepted[bundles["emit_call"][0]]
    assert stored == GateDecision(
        verdict=ACCEPT, from_cache=True, artifact_hash=cold.artifact_hash
    )
    assert stored.admitted is cold.admitted
    assert _gate(bundles["emit_call"], wl_v1, keys, cache=cache) is stored


def test_cache_hit_requires_a_trusted_certifier(
    bundles, wl_v1, certifier_key, rogue_key
):
    cache = GateCache()
    assert _gate(bundles["emit_call"], wl_v1, [certifier_key.public_key], cache=cache)
    signing.reset_verify_call_count()
    for c in (cache, None):
        decision = _gate(bundles["emit_call"], wl_v1, [rogue_key.public_key], cache=c)
        assert not decision.from_cache
        assert (decision.reason, decision.failed_step) == (R_UNTRUSTED_CERTIFIER, 1)
    assert signing.verify_call_count == 0


def test_cache_hit_requires_the_version_range_it_admitted(
    bundles, wl_v1, certifier_key
):
    cache = GateCache()
    keys = [certifier_key.public_key]
    assert _gate(bundles["emit_call"], wl_v1, keys, cache=cache).accepted
    for c in (cache, None):
        decision = _gate(bundles["emit_call"], wl_v1, keys, cache=c, minimum_version=2)
        assert not decision.from_cache
        assert (decision.reason, decision.failed_step, decision.detail) == (
            R_STALE_OR_UNKNOWN_WHITELIST, 5, "StaleWhitelist"
        )
    # no known hashes and an empty table admit the same range
    signing.reset_verify_call_count()
    warm = _gate(bundles["emit_call"], wl_v1, keys, cache=cache, known_hashes={})
    assert warm.from_cache and signing.verify_call_count == 0


@settings(max_examples=60, deadline=None)
@given(
    trusted=st.sets(st.sampled_from(["certifier", "rogue"])),
    minimum_version=st.integers(0, 3),
    known=st.sampled_from(["none", "empty", "v1", "v1_wrong", "v1_v2"]),
    runtime=st.sampled_from(["v1", "v2"]),
)
def test_a_warm_cache_gives_the_cold_verdict(
    bundles, wl_v1, wl_v2, certifier_key, rogue_key,
    trusted, minimum_version, known, runtime,
):
    keys = {"certifier": certifier_key.public_key, "rogue": rogue_key.public_key}
    known_hashes = {
        "none": None,
        "empty": {},
        "v1": {1: wl_v1.content_hash},
        "v1_wrong": {1: bytes(32)},
        "v1_v2": {1: wl_v1.content_hash, 2: wl_v2.content_hash},
    }[known]
    runtime_whitelist = {"v1": wl_v1, "v2": wl_v2}[runtime]
    trusted_keys = [keys[name] for name in sorted(trusted)]

    def verdict(cache):
        d = _gate(
            bundles["emit_call"],
            runtime_whitelist,
            trusted_keys,
            cache=cache,
            minimum_version=minimum_version,
            known_hashes=known_hashes,
        )
        return d.verdict, d.reason, d.failed_step

    cache = GateCache()
    assert _gate(bundles["emit_call"], wl_v1, [keys["certifier"]], cache=cache).accepted
    cold = verdict(None)
    # the first warm call may check cold and replace the entry; the second
    # is then served from whatever the first left
    assert verdict(cache) == cold
    assert verdict(cache) == cold


def test_cold_gate_does_not_hash_the_certificate(
    bundles, wl_v1, certifier_key, monkeypatch
):
    binary, proof, cert = bundles["emit_call"]
    # a fresh object: the session bundle's digest may be cached by earlier tests
    bundle = (binary, proof, dataclasses.replace(cert))
    calls = []
    monkeypatch.setattr(certificate, "certificate_bytes", calls.append)
    decision = _gate(bundle, wl_v1, [certifier_key.public_key], cache=GateCache())
    assert decision.accepted and calls == []


def test_whitelist_change_misses_cache(bundles, wl_v1, wl_v2, certifier_key):
    cache = GateCache()
    keys = [certifier_key.public_key]
    _gate(bundles["emit_call"], wl_v1, keys, cache=cache)
    # same artifact, new runtime whitelist: snapshot equality fails
    binary, proof, cert = bundles["emit_call"]
    decision = gate_verify(binary, cert, proof, wl_v2, keys, cache=cache)
    assert not decision.from_cache


def test_explicit_invalidation(bundles, wl_v1, certifier_key):
    cache = GateCache()
    log = DecisionLog()
    keys = [certifier_key.public_key]
    _gate(bundles["emit_call"], wl_v1, keys, cache=cache)
    assert cache.accepted
    invalidate_cache(cache, "keys_rotated", log, now=5.0)
    assert cache.accepted == {}
    assert log.events[-1] == {
        "event": "cache_invalidated",
        "timestamp": 5.0,
        "cause": "keys_rotated",
    }
    decision = _gate(bundles["emit_call"], wl_v1, keys, cache=cache)
    assert decision.accepted and not decision.from_cache


def test_cache_hit_hands_back_the_acceptance_compile_handle(
    bundles, wl_v1, certifier_key
):
    cache = GateCache()
    keys = [certifier_key.public_key]
    cold = _gate(bundles["emit_call"], wl_v1, keys, cache=cache)
    warm = _gate(bundles["emit_call"], wl_v1, keys, cache=cache)
    assert cold.compiled is not None
    assert warm.compiled is cold.compiled
    assert cache.accepted[bundles["emit_call"][0]].compiled is cold.compiled


def test_invalidation_keeps_the_compile_handle(bundles, wl_v1, certifier_key):
    cache = GateCache()
    keys = [certifier_key.public_key]
    old = _gate(bundles["emit_call"], wl_v1, keys, cache=cache)
    invalidate_cache(cache, "manual")
    fresh = _gate(bundles["emit_call"], wl_v1, keys, cache=cache)
    # the decision is made again by the six checks; the handle is the
    # artifact's one handle in the process
    assert fresh.accepted and not fresh.from_cache
    assert fresh.compiled is not None and fresh.compiled is old.compiled
    assert cache.accepted[bundles["emit_call"][0]].compiled is old.compiled


def test_whitelist_change_keeps_the_compile_handle(
    bundles, wl_v1, wl_v2, certifier_key
):
    cache = GateCache()
    keys = [certifier_key.public_key]
    # the v1 certificate stays current under v2 when v1's hash is on record
    known = {wl_v1.version: wl_v1.content_hash}
    old = _gate(bundles["emit_call"], wl_v1, keys, cache=cache)
    fresh = _gate(bundles["emit_call"], wl_v2, keys, cache=cache, known_hashes=known)
    assert fresh.accepted and not fresh.from_cache
    assert fresh.admitted.whitelist is wl_v2
    assert fresh.compiled is not None and fresh.compiled is old.compiled
    # back under the first snapshot: a new decision, the same handle
    again = _gate(bundles["emit_call"], wl_v1, keys, cache=cache)
    assert again.accepted and not again.from_cache
    assert again.compiled is old.compiled


@pytest.mark.parametrize("kind", ["bytearray", "over_16_kib"])
def test_a_binary_the_handle_memo_cannot_key_gets_a_fresh_handle_each_time(
    kind, wl_v1, certifier_key
):
    binary = fixture_binary("emit_call")
    if kind == "bytearray":
        binary = bytearray(binary)
    else:  # padded past the memo's key limit by one trailing custom section
        padding = 16 * 1024
        binary += b"\x00" + uleb(padding) + bytes(padding)
    proof = build_proof(parse_imports(binary), wl_v1)
    cert = sign_certificate(binary, proof, certifier_key, FIXED_NOW)
    keys = [certifier_key.public_key]
    decisions = [gate_verify(binary, cert, proof, wl_v1, keys) for _ in range(2)]
    assert all(d.accepted and d.compiled.binary == binary for d in decisions)
    assert all(type(d.compiled.binary) is bytes for d in decisions)
    if kind == "bytearray":
        # the gate admits a bytes copy of the buffer, which the memo keys
        assert decisions[0].compiled is decisions[1].compiled
    else:
        assert decisions[0].compiled is not decisions[1].compiled


def test_a_warm_hit_computes_no_sha256(bundles, wl_v1, certifier_key, monkeypatch):
    cache = GateCache()
    keys = [certifier_key.public_key]
    assert _gate(bundles["emit_call"], wl_v1, keys, cache=cache).accepted
    hashed = []

    def sha256(data=b""):
        hashed.append(data)
        return hashlib.sha256(data)

    monkeypatch.setattr(gate, "hashlib", types.SimpleNamespace(sha256=sha256))
    for _ in range(3):
        warm = _gate(bundles["emit_call"], wl_v1, keys, cache=cache, log=DecisionLog())
        assert warm.from_cache
    assert hashed == []
    # the counter sees the gate's hashing: a miss hashes the binary once
    assert _gate(bundles["emit_call"], wl_v1, keys, cache=GateCache()).accepted
    assert hashed == [bundles["emit_call"][0]]


@pytest.mark.parametrize("kind", ["equal_bytes", "bytearray"])
def test_a_byte_equal_binary_is_served_from_the_cache(
    kind, bundles, wl_v1, certifier_key
):
    binary, proof, cert = bundles["emit_call"]
    cache = GateCache()
    keys = [certifier_key.public_key]
    cold = gate_verify(binary, cert, proof, wl_v1, keys, cache=cache)
    # keyed by the bytes object the compile handle holds: no second copy
    [key] = cache.accepted
    assert key == binary and key is cold.compiled.binary
    presented = bytes(bytearray(binary)) if kind == "equal_bytes" else bytearray(binary)
    assert presented == binary and presented is not binary
    signing.reset_verify_call_count()
    warm = gate_verify(presented, cert, proof, wl_v1, keys, cache=cache)
    assert warm.from_cache and warm.compiled is cold.compiled
    assert signing.verify_call_count == 0


def test_an_admitted_bytearray_is_keyed_by_a_copy(bundles, wl_v1, certifier_key):
    binary, proof, cert = bundles["emit_call"]
    cache = GateCache()
    keys = [certifier_key.public_key]
    mutable = bytearray(binary)
    assert gate_verify(mutable, cert, proof, wl_v1, keys, cache=cache).accepted
    [key] = cache.accepted
    assert type(key) is bytes and key == binary
    # bytes changed after admission are other bytes: the six checks run
    mutable[-1] ^= 0xFF
    decision = gate_verify(mutable, cert, proof, wl_v1, keys, cache=cache)
    assert not decision.from_cache
    assert (decision.reason, decision.failed_step) == (R_ARTIFACT_HASH_MISMATCH, 2)
    assert gate_verify(binary, cert, proof, wl_v1, keys, cache=cache).from_cache


class _Impostor(bytes):
    """Other content that claims, by every method it can override, to be
    the bytes it was made to pass for."""

    def __new__(cls, content, claimed):
        self = super().__new__(cls, content)
        self.claimed = claimed
        return self

    def __eq__(self, other):
        return other == self.claimed

    def __hash__(self):
        return hash(self.claimed)

    def __bytes__(self):
        return self.claimed


def test_a_bytes_subclass_cannot_claim_an_admitted_key(
    bundles, wl_v1, certifier_key
):
    binary, proof, cert = bundles["emit_call"]
    cache = GateCache()
    keys = [certifier_key.public_key]
    assert gate_verify(binary, cert, proof, wl_v1, keys, cache=cache).accepted
    impostor = _Impostor(fixture_binary("emit_poc"), binary)
    assert impostor == binary and hash(impostor) == hash(binary)
    assert bytes(impostor) == binary
    decision = gate_verify(impostor, cert, proof, wl_v1, keys, cache=cache)
    assert not decision.from_cache
    assert (decision.reason, decision.failed_step) == (R_ARTIFACT_HASH_MISMATCH, 2)


def test_equal_copies_of_what_was_admitted_still_hit(bundles, wl_v1, certifier_key):
    binary, proof, cert = bundles["emit_call"]
    cache = GateCache()
    keys = [certifier_key.public_key]
    assert gate_verify(binary, cert, proof, wl_v1, keys, cache=cache).accepted
    cert_copy = certificate_from_json(certificate_to_json(cert))
    proof_copy = proof_from_json(proof_to_json(proof))
    wl_copy = make_whitelist(wl_v1.version, wl_v1.entries)
    for original, copy in ((cert, cert_copy), (proof, proof_copy)):
        assert copy == original and copy is not original
    assert wl_copy is not wl_v1 and wl_copy.content_hash == wl_v1.content_hash
    signing.reset_verify_call_count()
    warm = gate_verify(binary, cert_copy, proof_copy, wl_copy, keys, cache=cache)
    assert warm.from_cache and warm.admitted.cert is cert
    assert signing.verify_call_count == 0


def test_rejections_carry_no_compile_handle(
    bundles, wl_v1, certifier_key, rogue_key
):
    binary, proof, cert = bundles["emit_call"]
    keys = [certifier_key.public_key]
    rejections = [
        gate_verify(binary, cert, proof, wl_v1, [rogue_key.public_key]),
        gate_verify(binary + b"\x00", cert, proof, wl_v1, keys),
        _gate(bundles["emit_call"], wl_v1, keys, minimum_version=2),
    ]
    assert [d.failed_step for d in rejections] == [1, 2, 5]
    assert all(d.compiled is None for d in rejections)


def test_compile_handle_is_not_part_of_the_decision_record(
    bundles, wl_v1, certifier_key, tmp_path
):
    log = DecisionLog(tmp_path / "decisions.jsonl")
    decision = _gate(
        bundles["emit_call"], wl_v1, [certifier_key.public_key], log=log, now=1.0
    )
    record = {
        "verdict": "accept",
        "reason": None,
        "detail": None,
        "failed_step": None,
        "from_cache": False,
        "artifact_hash": decision.artifact_hash.hex(),
    }
    assert decision.to_json() == record
    bare = GateDecision(verdict=ACCEPT, artifact_hash=decision.artifact_hash)
    assert bare.compiled is None and decision == bare
    assert hash(decision) == hash(bare) and repr(decision) == repr(bare)
    event = {
        "event": "gate_decision",
        "timestamp": 1.0,
        **record,
        "whitelist_version": wl_v1.version,
        "whitelist_hash": wl_v1.content_hash.hex(),
    }
    assert (tmp_path / "decisions.jsonl").read_bytes() == (
        canonical_bytes(event) + b"\n"
    )


def test_unknown_invalidation_cause_rejected():
    with pytest.raises(ValueError):
        invalidate_cache(GateCache(), "tuesday")
    assert set(CACHE_INVALIDATION_CAUSES) == {
        "whitelist_changed",
        "keys_rotated",
        "manual",
    }


# ---------------------------------------------------------------------------
# decision log
# ---------------------------------------------------------------------------

def test_every_decision_logged_accepts_and_rejects(
    bundles, wl_v1, certifier_key, rogue_key, tmp_path
):
    log = DecisionLog(tmp_path / "decisions.jsonl")
    keys = [certifier_key.public_key]
    _gate(bundles["emit_call"], wl_v1, keys, log=log, now=1.0)
    _gate(bundles["emit_call"], wl_v1, [rogue_key.public_key], log=log, now=2.0)

    assert [e["verdict"] for e in log.events] == ["accept", "reject"]
    assert all(e["event"] == "gate_decision" for e in log.events)
    assert all(e["whitelist_hash"] == wl_v1.content_hash.hex() for e in log.events)

    replayed = DecisionLog.read_events(tmp_path / "decisions.jsonl")
    assert replayed == log.events


def test_cache_hits_log_the_record_the_checks_would(
    bundles, wl_v1, certifier_key, tmp_path
):
    path = tmp_path / "decisions.jsonl"
    cache = GateCache()
    log = DecisionLog(path)
    keys = [certifier_key.public_key]

    def gated(now):
        return _gate(bundles["emit_call"], wl_v1, keys, cache=cache, log=log, now=now)

    def event(decision, now):
        return {
            "event": "gate_decision",
            "timestamp": now,
            **decision.to_json(),
            "whitelist_version": wl_v1.version,
            "whitelist_hash": wl_v1.content_hash.hex(),
        }

    decisions = [gated(float(now)) for now in range(4)]
    assert [d.from_cache for d in decisions] == [False, True, True, True]
    expected = [event(d, float(now)) for now, d in enumerate(decisions)]
    # key for key and in key order
    assert [list(e.items()) for e in log.events] == [list(e.items()) for e in expected]
    assert path.read_bytes() == b"".join(canonical_bytes(e) + b"\n" for e in expected)
    assert log.acceptances == {
        (decisions[0].artifact_hash.hex(), wl_v1.content_hash.hex())
    }
    # every hit appends a dict of its own
    assert len({id(e) for e in log.events}) == 4
    for key in log.events[1]:
        log.events[1][key] = "mutated"
    assert log.events[2] == expected[2]
    assert gated(4.0).from_cache
    assert log.events[-1] == event(decisions[1], 4.0)


def test_decision_log_lines_must_be_objects(tmp_path):
    path = tmp_path / "decisions.jsonl"
    path.write_text('{"event": "gate_decision"}\n\n[1]\n')
    with pytest.raises(CanonicalError, match="line 3 must hold a JSON object, not list"):
        DecisionLog.read_events(path)


def test_cache_hits_are_also_logged(bundles, wl_v1, certifier_key):
    cache = GateCache()
    log = DecisionLog()
    keys = [certifier_key.public_key]
    _gate(bundles["emit_call"], wl_v1, keys, cache=cache, log=log)
    _gate(bundles["emit_call"], wl_v1, keys, cache=cache, log=log)
    assert [e["from_cache"] for e in log.events] == [False, True]


# ---------------------------------------------------------------------------
# certificate transfer resistance
# ---------------------------------------------------------------------------

def test_single_byte_cert_mutations_rejected_early(bundles, wl_v1, certifier_key):
    """Flipping any byte of the certificate kills it at step 1 (or 2/3)."""
    binary, proof, cert = bundles["emit_poc"]
    keys = [certifier_key.public_key]
    doc = certificate_to_json(cert)
    rng = random.Random(99)
    for field in ("artifact_hash", "proof_hash", "signature"):
        for _ in range(8):
            raw = bytearray(bytes.fromhex(doc[field]))
            raw[rng.randrange(len(raw))] ^= 1 + rng.randrange(255)
            mutated_doc = dict(doc)
            mutated_doc[field] = raw.hex()
            mutated = certificate_from_json(mutated_doc)
            decision = gate_verify(binary, mutated, proof, wl_v1, keys)
            assert not decision.accepted
            assert decision.failed_step in (1, 2, 3)
