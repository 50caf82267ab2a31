import dataclasses
import hashlib
import itertools

import pytest
from hypothesis import given, strategies as st

from puregate import attestation, certificate, gate, proof as proof_module, signing
from puregate.attestation import (
    CONCLUSION_NOT_PURE,
    DISALLOWED_IMPORT,
    INCOMPATIBLE,
    INVALID_CERT_SIGNATURE,
    INVALID_ENV_SIGNATURE,
    PROOF_HASH_MISMATCH,
    UNTRUSTED_CERTIFIER,
    UNTRUSTED_ENV_KEY,
    WHITELIST_MISMATCH,
    AttestationFormatError,
    AttestationRecord,
    EnvironmentDescriptor,
    GateNeverAccepted,
    OrgPolicy,
    PeerRecord,
    attestation_bytes,
    attestation_from_json,
    attestation_hash,
    attestation_to_json,
    build_attestation,
    environment_bytes,
    is_compatible,
    load_attestation,
    peer_from_record,
    policy_from_json,
    policy_to_json,
    save_attestation,
    verify_attestation,
)
from puregate.certificate import PurityCertificate, sign_certificate
from puregate.fixtures import fixture_binary
from puregate.gate import DecisionLog, GateCache, gate_verify
from puregate.memo import BoundedMemo
from puregate.proof import IMPURE, PURE, Classification, build_proof, proof_hash
from puregate.wasm_inspect import ImportRecord, parse_imports
from puregate.whitelist import PURE_DATA, builtin_whitelist
from tests.conftest import bare_digest

RUNTIME_ID = "mashin-sim"
RUNTIME_VERSION = "1.4.2"


def _flip(data: bytes) -> bytes:
    return bytes([data[0] ^ 0x01]) + data[1:]


@pytest.fixture(scope="module")
def attested(bundles, certifier_key, env_keypair, wl_v1):
    """A locally gated emit_call plus the attestation its host would emit."""
    binary, proof, cert = bundles["emit_call"]
    log = DecisionLog()
    decision = gate_verify(
        binary, cert, proof, wl_v1,
        frozenset([certifier_key.public_key]),
        cache=GateCache(), log=log,
    )
    assert decision.accepted
    env = EnvironmentDescriptor(
        runtime_identity=RUNTIME_ID,
        runtime_version=RUNTIME_VERSION,
        whitelist_version=wl_v1.version,
        whitelist_hash=wl_v1.content_hash,
        accepted_certifier_keys=(certifier_key.public_key,),
    )
    return build_attestation(cert, proof, env, env_keypair, log)


@pytest.fixture(scope="module")
def policy(certifier_key, env_keypair, wl_v1):
    return OrgPolicy(
        accepted_whitelists=frozenset([wl_v1.content_hash]),
        trusted_runtimes=frozenset([RUNTIME_ID]),
        trusted_certifiers=frozenset([certifier_key.public_key]),
        minimum_required=1,
        trusted_env_keys=frozenset([env_keypair.public_key]),
    )


def test_well_formed_attestation_accepted(attested, policy, wl_v1):
    verdict = verify_attestation(
        attested, policy, {wl_v1.content_hash: wl_v1}
    )
    assert verdict.accepted
    assert verdict.step is None and verdict.reason is None
    assert verdict.compat.compatible
    assert all(verdict.compat.conjuncts.values())


def test_untrusted_environment_key_fails_step_1(attested, policy):
    stripped = dataclasses.replace(policy, trusted_env_keys=frozenset())
    verdict = verify_attestation(attested, stripped)
    assert (verdict.accepted, verdict.step) == (False, 1)
    assert verdict.reason == UNTRUSTED_ENV_KEY


def test_flipped_environment_signature_fails_step_2(attested, policy):
    forged = dataclasses.replace(
        attested, env_signature=_flip(attested.env_signature)
    )
    verdict = verify_attestation(forged, policy)
    assert (verdict.accepted, verdict.step) == (False, 2)
    assert verdict.reason == INVALID_ENV_SIGNATURE


def test_flipped_certificate_signature_fails_step_3(
    attested, policy, env_keypair
):
    cert = dataclasses.replace(
        attested.certificate, signature=_flip(attested.certificate.signature)
    )
    # the attesting host re-signs whatever record it ships
    forged = _resign(attested, cert=cert, env_keypair=env_keypair)
    verdict = verify_attestation(forged, policy)
    assert (verdict.accepted, verdict.step) == (False, 3)
    assert verdict.reason == INVALID_CERT_SIGNATURE


def test_untrusted_certifier_fails_step_3_before_crypto(attested, policy):
    stripped = dataclasses.replace(policy, trusted_certifiers=frozenset())
    from puregate import signing

    signing.reset_verify_call_count()
    verdict = verify_attestation(attested, stripped)
    # env signature is one verify; the cert signature check never ran
    assert signing.verify_call_count == 1
    assert (verdict.accepted, verdict.step) == (False, 3)
    assert verdict.reason == UNTRUSTED_CERTIFIER


def test_foreign_whitelist_fails_step_4(attested, policy):
    narrowed = dataclasses.replace(
        policy, accepted_whitelists=frozenset([bytes(32)])
    )
    verdict = verify_attestation(attested, narrowed)
    assert (verdict.accepted, verdict.step) == (False, 4)
    assert verdict.reason == INCOMPATIBLE
    assert verdict.compat.conjuncts["whitelist_accepted"] is False
    assert verdict.compat.conjuncts["runtime_trusted"] is True


def test_unknown_runtime_fails_step_4(attested, policy):
    narrowed = dataclasses.replace(
        policy, trusted_runtimes=frozenset(["other-runtime"])
    )
    verdict = verify_attestation(attested, narrowed)
    assert (verdict.accepted, verdict.step) == (False, 4)
    assert verdict.compat.conjuncts["runtime_trusted"] is False


def test_stale_whitelist_version_fails_step_4(attested, policy):
    strict = dataclasses.replace(policy, minimum_required=2)
    verdict = verify_attestation(attested, strict)
    assert (verdict.accepted, verdict.step) == (False, 4)
    assert verdict.compat.conjuncts["version_current"] is False
    assert verdict.compat.conjuncts["whitelist_accepted"] is True


def _resign(record, *, env_keypair, cert=None, proof=None, env=None):
    """Rebuild a record with parts swapped, re-signed by the env key."""
    from puregate import signing
    from puregate.attestation import attestation_message

    cert = cert if cert is not None else record.certificate
    proof = proof if proof is not None else record.proof
    env = env if env is not None else record.env
    signature = signing.sign(
        env_keypair.private_key, attestation_message(cert, proof, env)
    )
    return AttestationRecord(
        certificate=cert,
        proof=proof,
        env=env,
        env_signature=signature,
        env_key=env_keypair.public_key,
    )


def test_swapped_proof_fails_step_3_binding(
    attested, policy, bundles, env_keypair
):
    other_proof = bundles["emit_poc"][1]
    forged = _resign(attested, proof=other_proof, env_keypair=env_keypair)
    verdict = verify_attestation(forged, policy)
    assert (verdict.accepted, verdict.step) == (False, 3)
    assert verdict.reason == PROOF_HASH_MISMATCH


def test_environment_claiming_other_whitelist_fails_step_3(
    attested, policy, wl_v2, env_keypair
):
    env = dataclasses.replace(
        attested.env,
        whitelist_version=wl_v2.version,
        whitelist_hash=wl_v2.content_hash,
    )
    forged = _resign(attested, env=env, env_keypair=env_keypair)
    verdict = verify_attestation(forged, policy)
    assert (verdict.accepted, verdict.step) == (False, 3)
    assert verdict.reason == WHITELIST_MISMATCH


def test_forged_pure_conclusion_fails_step_3(
    attested, policy, env_keypair, certifier_key
):
    proof = dataclasses.replace(attested.proof, conclusion="impure")
    # sign_certificate refuses impure proofs, so the adversary signs by hand
    from puregate import signing
    from puregate.certificate import PurityCertificate
    from puregate.proof import proof_hash

    cert = PurityCertificate(
        artifact_hash=attested.certificate.artifact_hash,
        proof_hash=proof_hash(proof),
        metadata=attested.certificate.metadata,
        signature=signing.sign(
            certifier_key.private_key,
            attested.certificate.artifact_hash + proof_hash(proof),
        ),
    )
    forged = _resign(attested, cert=cert, proof=proof, env_keypair=env_keypair)
    verdict = verify_attestation(forged, policy)
    assert (verdict.accepted, verdict.step) == (False, 3)
    assert verdict.reason == CONCLUSION_NOT_PURE


def test_local_whitelist_copy_reclassifies_forged_proof(
    attested, policy, certifier_key, env_keypair, wl_v1
):
    """A trusted-but-sloppy certifier vouches for a wasi import; the
    verifier's own copy of the claimed whitelist catches it."""
    rogue = ImportRecord(
        namespace="wasi_snapshot_preview1",
        name="clock_time_get",
        kind="function",
        type_signature="(i32, i64, i32) -> i32",
    )
    proof = dataclasses.replace(
        attested.proof,
        imports=attested.proof.imports + (rogue,),
        classifications=attested.proof.classifications
        + (Classification(rogue, PURE_DATA),),
    )
    from puregate import signing
    from puregate.certificate import PurityCertificate
    from puregate.proof import proof_hash

    cert = PurityCertificate(
        artifact_hash=attested.certificate.artifact_hash,
        proof_hash=proof_hash(proof),
        metadata=attested.certificate.metadata,
        signature=signing.sign(
            certifier_key.private_key,
            attested.certificate.artifact_hash + proof_hash(proof),
        ),
    )
    forged = _resign(attested, cert=cert, proof=proof, env_keypair=env_keypair)

    # without a local copy the forgery survives to step 4 and passes
    assert verify_attestation(forged, policy).accepted

    verdict = verify_attestation(forged, policy, {wl_v1.content_hash: wl_v1})
    assert (verdict.accepted, verdict.step) == (False, 3)
    assert verdict.reason == DISALLOWED_IMPORT


def _hand_signed(artifact_hash, proof, metadata, key):
    """A certificate signed without sign_certificate's refusals, as a
    compromised-but-trusted certifier would sign it."""
    return PurityCertificate(
        artifact_hash=artifact_hash,
        proof_hash=proof_hash(proof),
        metadata=metadata,
        signature=signing.sign(key.private_key, artifact_hash + proof_hash(proof)),
    )


# fault -> (the gate's step and reason, the peer's step-3 reason)
AGREED_REFUSALS = {
    "untrusted_certifier": (1, gate.R_UNTRUSTED_CERTIFIER, UNTRUSTED_CERTIFIER),
    "flipped_signature": (1, gate.R_INVALID_SIGNATURE, INVALID_CERT_SIGNATURE),
    "swapped_proof": (3, gate.R_PROOF_HASH_MISMATCH, PROOF_HASH_MISMATCH),
    "forged_pure": (5, gate.R_DISALLOWED_IMPORT, DISALLOWED_IMPORT),
    "impure_conclusion": (6, gate.R_CONCLUSION_NOT_PURE, CONCLUSION_NOT_PURE),
    "edited_whitelist_hash": (5, gate.R_STALE_OR_UNKNOWN_WHITELIST, WHITELIST_MISMATCH),
}


def test_gate_and_peer_refuse_the_same_faults(
    attested, policy, bundles, certifier_key, rogue_key, env_keypair, wl_v1
):
    """Each fault of a certified bundle that a peer can see is refused by the
    local gate and by a peer holding the whitelist; the honest one by neither."""
    binary, proof, cert = bundles["emit_call"]
    bypass = fixture_binary("bypass_wasi")
    module = parse_imports(bypass)
    forged = dataclasses.replace(
        build_proof(module, wl_v1),
        classifications=tuple(Classification(imp, PURE_DATA) for imp in module.imports),
        conclusion=PURE,
    )
    impure = dataclasses.replace(proof, conclusion=IMPURE)
    edited = dataclasses.replace(cert.metadata, whitelist_hash=bytes(32))
    bundle_of = {
        None: (binary, proof, cert),
        "untrusted_certifier": (
            binary, proof, sign_certificate(binary, proof, rogue_key, cert.metadata.timestamp)
        ),
        "flipped_signature": (
            binary, proof, dataclasses.replace(cert, signature=_flip(cert.signature))
        ),
        "swapped_proof": (binary, bundles["emit_poc"][1], cert),
        "forged_pure": (
            bypass, forged,
            _hand_signed(module.artifact_hash, forged, cert.metadata, certifier_key),
        ),
        "impure_conclusion": (
            binary, impure,
            _hand_signed(cert.artifact_hash, impure, cert.metadata, certifier_key),
        ),
        "edited_whitelist_hash": (binary, proof, dataclasses.replace(cert, metadata=edited)),
    }
    assert set(bundle_of) == {None, *AGREED_REFUSALS}
    for fault, (fault_binary, fault_proof, fault_cert) in bundle_of.items():
        decision = gate_verify(
            fault_binary, fault_cert, fault_proof, wl_v1,
            frozenset([certifier_key.public_key]),
        )
        record = _resign(attested, cert=fault_cert, proof=fault_proof, env_keypair=env_keypair)
        verdict = verify_attestation(record, policy, {wl_v1.content_hash: wl_v1})
        if fault is None:
            assert decision.accepted and verdict.accepted
            continue
        step, gate_reason, peer_reason = AGREED_REFUSALS[fault]
        assert (decision.verdict, decision.failed_step, decision.reason) == (
            gate.REJECT, step, gate_reason
        ), fault
        assert (verdict.accepted, verdict.step, verdict.reason) == (
            False, 3, peer_reason
        ), fault


def test_compatibility_requires_all_four_conjuncts(policy, wl_v1, certifier_key):
    peer = PeerRecord(
        whitelist_hash=wl_v1.content_hash,
        runtime_identity=RUNTIME_ID,
        certifier_key=certifier_key.public_key,
        whitelist_version=1,
    )
    for bits in itertools.product([True, False], repeat=4):
        wl_ok, rt_ok, cert_ok, ver_ok = bits
        candidate = OrgPolicy(
            accepted_whitelists=frozenset(
                [wl_v1.content_hash] if wl_ok else [bytes(32)]
            ),
            trusted_runtimes=frozenset(
                [RUNTIME_ID] if rt_ok else ["other"]
            ),
            trusted_certifiers=frozenset(
                [certifier_key.public_key] if cert_ok else []
            ),
            minimum_required=1 if ver_ok else 2,
            trusted_env_keys=policy.trusted_env_keys,
        )
        report = is_compatible(peer, candidate)
        assert report.compatible == all(bits)
        assert report.conjuncts == {
            "whitelist_accepted": wl_ok,
            "runtime_trusted": rt_ok,
            "certifier_trusted": cert_ok,
            "version_current": ver_ok,
        }


def test_peer_record_reads_off_attestation(attested, certifier_key, wl_v1):
    peer = peer_from_record(attested)
    assert peer == PeerRecord(
        whitelist_hash=wl_v1.content_hash,
        runtime_identity=RUNTIME_ID,
        certifier_key=certifier_key.public_key,
        whitelist_version=1,
    )


def test_attestation_json_and_file_round_trip(attested, tmp_path):
    doc = attestation_to_json(attested)
    assert attestation_from_json(doc) == attested
    path = tmp_path / "record.attest"
    save_attestation(attested, path)
    assert load_attestation(path) == attested
    assert attestation_hash(load_attestation(path)) == attestation_hash(
        attested
    )


def test_attestation_file_rejects_garbage(tmp_path, attested, policy):
    path = tmp_path / "bad.attest"
    path.write_text("[]\n")
    with pytest.raises(AttestationFormatError):
        load_attestation(path)
    path.write_text("{\"env\": {}}\n")
    with pytest.raises(AttestationFormatError):
        load_attestation(path)
    with pytest.raises(AttestationFormatError):
        load_attestation(tmp_path / "absent.attest")
    # fields of the wrong shape, in the attestation and in the policy it meets
    record = attestation_to_json(attested)
    for field, value in [
        ("env_signature", "00" * 63),
        ("env_key", "00" * 31),
        ("env_key", record["env_key"].upper()),
        ("proof", [record["proof"]]),
    ]:
        with pytest.raises(AttestationFormatError, match=field):
            attestation_from_json({**record, field: value})
    doc = policy_to_json(policy)
    for field, value in [
        ("trusted_runtimes", RUNTIME_ID),
        ("trusted_runtimes", [5]),
        ("minimum_required", True),
        ("trusted_env_keys", ["00" * 31]),
        ("accepted_whitelists", [doc["accepted_whitelists"][0].upper()]),
    ]:
        with pytest.raises(AttestationFormatError, match=field):
            policy_from_json({**doc, field: value})


def test_environment_and_policy_round_trips(attested, policy):
    env = attested.env
    assert EnvironmentDescriptor.from_json(env.to_json()) == env
    assert policy_from_json(policy_to_json(policy)) == policy
    assert environment_bytes(env) == environment_bytes(
        EnvironmentDescriptor.from_json(env.to_json())
    )


@pytest.mark.parametrize(
    "field, value",
    [("whitelist_version", [1]), ("whitelist_hash", 5), ("accepted_certifier_keys", 5)],
)
def test_environment_fields_of_the_wrong_type_are_format_errors(
    attested, field, value
):
    doc = {**attested.env.to_json(), field: value}
    with pytest.raises(AttestationFormatError, match="bad environment document"):
        EnvironmentDescriptor.from_json(doc)


@pytest.mark.parametrize(
    "field, value",
    [("runtime_identity", 5), ("runtime_version", None), ("runtime_version", 1.0),
     ("whitelist_version", 1.5), ("whitelist_version", True),
     ("whitelist_version", "1")],
)
def test_environment_fields_that_parse_but_are_mistyped_are_format_errors(
    attested, field, value
):
    doc = {**attested.env.to_json(), field: value}
    with pytest.raises(AttestationFormatError, match=f"{field} must be"):
        EnvironmentDescriptor.from_json(doc)


@pytest.mark.parametrize(
    "field, value, message",
    [("whitelist_version", 0, "whitelist_version must be >= 1"),
     ("whitelist_hash", "", "whitelist_hash must be 32 bytes"),
     ("whitelist_hash", "00" * 31, "whitelist_hash must be 32 bytes"),
     ("accepted_certifier_keys", ["00" * 33], r"certifier_keys\[0\] must be 32 bytes"),
     ("accepted_certifier_keys", [""], r"certifier_keys\[0\] must be 32 bytes")],
)
def test_environment_versions_hashes_and_keys_out_of_range_are_format_errors(
    attested, field, value, message
):
    doc = {**attested.env.to_json(), field: value}
    with pytest.raises(AttestationFormatError, match=message):
        EnvironmentDescriptor.from_json(doc)


def test_attesting_without_local_acceptance_refused(
    bundles, certifier_key, env_keypair, wl_v1, wl_v2
):
    binary, proof, cert = bundles["emit_call"]
    env = EnvironmentDescriptor(
        runtime_identity=RUNTIME_ID,
        runtime_version=RUNTIME_VERSION,
        whitelist_version=wl_v1.version,
        whitelist_hash=wl_v1.content_hash,
        accepted_certifier_keys=(certifier_key.public_key,),
    )
    with pytest.raises(GateNeverAccepted):
        build_attestation(cert, proof, env, env_keypair, DecisionLog())

    # a decision exists, but under a different whitelist than attested
    log = DecisionLog()
    gate_verify(
        binary, cert, proof, wl_v2,
        frozenset([certifier_key.public_key]),
        cache=GateCache(), log=log, minimum_version=1,
    )
    with pytest.raises(GateNeverAccepted):
        build_attestation(cert, proof, env, env_keypair, log)


def test_an_appended_acceptance_is_no_witness(attested, env_keypair):
    log = DecisionLog()
    log.append({
        "event": "gate_decision",
        "verdict": "accept",
        "artifact_hash": attested.certificate.artifact_hash.hex(),
        "whitelist_hash": attested.env.whitelist_hash.hex(),
    })
    assert len(log.events) == 1
    with pytest.raises(GateNeverAccepted):
        build_attestation(
            attested.certificate, attested.proof, attested.env, env_keypair, log
        )


class _CountingEvents(list):
    """A list of events that counts the items read from it."""

    examined = 0

    def __iter__(self):
        for event in super().__iter__():
            self.examined += 1
            yield event

    def __getitem__(self, index):
        self.examined += 1
        return super().__getitem__(index)


def test_finding_the_witness_examines_no_event(
    attested, bundles, certifier_key, env_keypair, wl_v1, wl_v2
):
    binary, proof, cert = bundles["emit_call"]
    trusted = frozenset([certifier_key.public_key])
    log = DecisionLog()
    log.events = _CountingEvents()
    # an acceptance under another whitelist, then 99 999 other events, then
    # the witness: 100 001 events in all
    gate_verify(binary, cert, proof, wl_v2, trusted, log=log)
    filler = {"event": "cache_invalidated", "timestamp": 0.0, "cause": "manual"}
    for _ in range(99_999):
        log.append(filler)
    gate_verify(binary, cert, proof, wl_v1, trusted, log=log)
    assert len(log.events) == 100_001
    log.events.examined = 0
    assert build_attestation(cert, proof, attested.env, env_keypair, log) == attested
    assert log.events.examined == 0


def test_an_issued_record_still_needs_its_witness(attested, env_keypair):
    with pytest.raises(GateNeverAccepted):
        build_attestation(
            attested.certificate, attested.proof, attested.env, env_keypair,
            DecisionLog(),
        )


def test_a_repeat_issue_signs_nothing_and_the_memo_is_bounded(
    attested, bundles, certifier_key, env_keypair, rogue_key, wl_v1, monkeypatch
):
    from puregate import signing

    log = DecisionLog()
    assert gate_verify(
        bundles["emit_call"][0], attested.certificate, attested.proof, wl_v1,
        frozenset([certifier_key.public_key]), log=log,
    ).accepted
    signed = []
    sign = signing.sign
    monkeypatch.setattr(signing, "sign", lambda *a: signed.append(a) or sign(*a))
    monkeypatch.setattr(attestation, "_ISSUED", BoundedMemo(2))
    envs = [
        dataclasses.replace(attested.env, runtime_version=str(n)) for n in range(3)
    ]

    def issue(env, keypair=env_keypair):
        record = build_attestation(
            attested.certificate, attested.proof, env, keypair, log
        )
        assert len(attestation._ISSUED) <= 2
        return record

    first = issue(envs[0])
    assert len(signed) == 1
    assert issue(dataclasses.replace(envs[0])) is first  # an equal env: no signing
    assert issue(attested.env) == attested and len(signed) == 2
    assert issue(envs[0]) is first and len(signed) == 2
    # another environment key is another record
    other = issue(envs[0], rogue_key)
    assert other.env_key == rogue_key.public_key and len(signed) == 3
    # the memo held envs[0] under env_keypair and the rogue record; the
    # least recently used, attested.env's, was evicted and is signed again
    assert issue(attested.env) == attested and len(signed) == 4
    assert issue(envs[1]) != first and len(signed) == 5


def test_attestation_hash_is_the_digest_of_the_record_bytes(attested):
    loaded = attestation_from_json(attestation_to_json(attested))
    replaced = dataclasses.replace(attested, env_signature=_flip(attested.env_signature))
    for record in (attested, loaded, replaced):
        assert attestation_hash(record) == hashlib.sha256(
            attestation_bytes(record)
        ).digest()
        assert attestation_hash(record) == bare_digest(attestation_to_json(record))
    assert loaded == attested and attestation_hash(loaded) == attestation_hash(attested)
    assert attestation_hash(replaced) != attestation_hash(attested)
    assert "digest" not in repr(attested) and "digest" not in attestation_to_json(attested)


def _counting(module, calls):
    """module's encoder, noting the module's name in calls on every call."""
    encode = module.canonical_bytes
    return lambda doc: calls.append(module.__name__) or encode(doc)


def test_build_and_verify_digest_each_part_once(
    attested, policy, bundles, env_keypair, monkeypatch
):
    # fresh objects: the session bundle's digests may be cached by other tests
    cert, proof, env = (
        dataclasses.replace(part)
        for part in (attested.certificate, attested.proof, attested.env)
    )
    calls = []
    for module in (attestation, certificate, proof_module):
        monkeypatch.setattr(module, "canonical_bytes", _counting(module, calls))
    log = DecisionLog()
    log.record_decision(
        gate_verify(
            bundles["emit_call"][0], cert, proof, builtin_whitelist(1),
            policy.trusted_certifiers,
        ),
        0.0,
        builtin_whitelist(1),
    )
    record = build_attestation(cert, proof, env, env_keypair, log)
    assert record == attested
    assert verify_attestation(record, policy).accepted
    assert sorted(calls) == [
        "puregate.attestation", "puregate.certificate", "puregate.proof"
    ]


def test_environment_replaced_with_other_keys_digests_afresh(attested, rogue_key):
    env = attested.env
    other = dataclasses.replace(
        env, accepted_certifier_keys=(*env.accepted_certifier_keys, rogue_key.public_key)
    )
    assert other.digest != env.digest
    assert other.digest == bare_digest(other.to_json())


_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
_KEY = st.binary(min_size=32, max_size=32)


@given(
    identity=_TEXT,
    version=_TEXT,
    whitelist_version=st.integers(1, 2**63),
    whitelist_hash=_KEY,
    keys=st.lists(_KEY, max_size=3),
)
def test_environment_digest_is_sha256_of_sorted_compact_json(
    identity, version, whitelist_version, whitelist_hash, keys
):
    env = EnvironmentDescriptor(
        identity, version, whitelist_version, whitelist_hash, tuple(keys)
    )
    assert env.digest == bare_digest(env.to_json())
