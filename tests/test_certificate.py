import dataclasses
import hashlib

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from hypothesis import given, strategies as st

from puregate import certificate, signing, wasm_inspect
from puregate.certificate import (
    FORMAT_VERSION,
    INVALID_SIGNATURE,
    MAX_CERT_BYTES,
    UNTRUSTED_CERTIFIER,
    CertificateFormatError,
    CertificateMetadata,
    ProofBinaryMismatch,
    PurityCertificate,
    RefuseImpure,
    certificate_bytes,
    certificate_from_json,
    certificate_to_json,
    keypair_from_seed,
    sign_certificate,
    signing_message,
    verify_certificate_signature,
)
from puregate.fixtures import fixture_binary
from puregate.proof import build_proof, proof_hash
from puregate.wasm_inspect import parse_imports
from puregate.whitelist import DISALLOWED, Classification, sign_whitelist
from tests.conftest import CERTIFIER_SEED, ENV_SEED, bare_digest

# RFC 8032 section 7.1, test 1
RFC8032_SEED = bytes.fromhex(
    "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"
)
RFC8032_PUBLIC = "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"
RFC8032_SIG_EMPTY = (
    "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
    "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
)


def test_ed25519_matches_rfc8032_vector_1():
    pair = keypair_from_seed(RFC8032_SEED)
    assert pair.public_key.hex() == RFC8032_PUBLIC
    assert signing.sign(pair.private_key, b"").hex() == RFC8032_SIG_EMPTY
    assert signing.verify(pair.public_key, bytes.fromhex(RFC8032_SIG_EMPTY), b"")


def test_signature_covers_raw_hash_concatenation(bundles, certifier_key):
    binary, proof, cert = bundles["emit_call"]
    message = signing_message(cert.artifact_hash, cert.proof_hash)
    assert len(message) == 64
    assert message == cert.artifact_hash + cert.proof_hash
    assert signing.verify(certifier_key.public_key, cert.signature, message)


def test_signing_is_deterministic(wl_v1, certifier_key):
    binary = fixture_binary("emit_poc")
    proof = build_proof(parse_imports(binary), wl_v1)
    a = sign_certificate(binary, proof, certifier_key, 123)
    b = sign_certificate(binary, proof, certifier_key, 123)
    assert certificate_bytes(a) == certificate_bytes(b)


def test_metadata_snapshot(bundles, certifier_key, wl_v1):
    _, proof, cert = bundles["emit_reason"]
    meta = cert.metadata
    assert meta.certifier_key == certifier_key.public_key
    assert meta.timestamp == 1_700_000_000
    assert meta.whitelist_version == wl_v1.version
    assert meta.whitelist_hash == wl_v1.content_hash
    assert meta.format_version == FORMAT_VERSION
    assert cert.proof_hash == proof_hash(proof)


def test_refuses_impure_proof(wl_v1, certifier_key):
    binary = fixture_binary("bypass_wasi")
    proof = build_proof(parse_imports(binary), wl_v1)
    with pytest.raises(RefuseImpure):
        sign_certificate(binary, proof, certifier_key, 1)


def test_refuses_unbound_proof(wl_v1, certifier_key):
    proof = build_proof(parse_imports(fixture_binary("emit_call")), wl_v1)
    with pytest.raises(ProofBinaryMismatch):
        sign_certificate(fixture_binary("emit_poc"), proof, certifier_key, 1)


def test_signing_hashes_the_binary_once(bundles, certifier_key, monkeypatch):
    binary, proof, cert = bundles["emit_call"]
    calls = []
    monkeypatch.setattr(wasm_inspect, "hash_bytes", calls.append)
    signed = sign_certificate(binary, proof, certifier_key, cert.metadata.timestamp)
    assert signed == cert and calls == []


@pytest.mark.parametrize(
    "name, binary, error, message",
    [
        ("bypass_wasi", "bypass_wasi", RefuseImpure,
         "disallowed imports found; refusing to certify"),
        ("emit_call", "emit_poc", ProofBinaryMismatch,
         "proof does not match binary: ImportMismatch"),
        ("emit_call", None, ProofBinaryMismatch,
         "proof does not match binary: MalformedBinary"),
    ],
)
def test_refusal_messages(wl_v1, certifier_key, name, binary, error, message):
    proof = build_proof(parse_imports(fixture_binary(name)), wl_v1)
    data = b"\x00asm" if binary is None else fixture_binary(binary)
    with pytest.raises(error) as raised:
        sign_certificate(data, proof, certifier_key, 1)
    assert str(raised.value) == message


def test_a_disallowed_verdict_under_a_pure_conclusion_is_refused(
    bundles, certifier_key
):
    binary, proof, _ = bundles["emit_call"]
    contradicted = dataclasses.replace(
        proof,
        classifications=tuple(
            Classification(c.import_record, DISALLOWED) for c in proof.classifications
        ),
    )
    assert contradicted.conclusion == "pure"
    with pytest.raises(RefuseImpure):
        sign_certificate(binary, contradicted, certifier_key, 1)


def test_classifications_out_of_import_order_are_refused(bundles, certifier_key):
    binary, proof, _ = bundles["emit_call"]
    assert len(set(proof.classifications)) > 1
    reordered = dataclasses.replace(
        proof, classifications=proof.classifications[::-1]
    )
    with pytest.raises(ProofBinaryMismatch):
        sign_certificate(binary, reordered, certifier_key, 1)


def test_trust_is_checked_before_signature_math(bundles, rogue_key):
    _, _, cert = bundles["emit_call"]
    signing.reset_verify_call_count()
    check = verify_certificate_signature(cert, {rogue_key.public_key})
    assert check == UNTRUSTED_CERTIFIER
    assert signing.verify_call_count == 0


def test_flipped_signature_detected(bundles, certifier_key):
    _, _, cert = bundles["emit_call"]
    doc = certificate_to_json(cert)
    raw = bytearray(bytes.fromhex(doc["signature"]))
    raw[0] ^= 0xFF
    doc["signature"] = raw.hex()
    tampered = certificate_from_json(doc)
    check = verify_certificate_signature(tampered, {certifier_key.public_key})
    assert check == INVALID_SIGNATURE


def test_accepts_trusted_valid_certificate(bundles, certifier_key):
    _, _, cert = bundles["emit_call"]
    assert verify_certificate_signature(cert, {certifier_key.public_key}) is None


def test_json_round_trip(bundles):
    _, _, cert = bundles["emit_event"]
    assert certificate_from_json(certificate_to_json(cert)) == cert


@pytest.mark.parametrize(
    "field,value",
    [
        ("artifact_hash", "ab"),
        ("proof_hash", "zz" * 32),
        ("signature", "00" * 63),
        ("format_version", 2),
        pytest.param("artifact_hash", str.upper, id="uppercase_hex"),
        pytest.param(
            "signature",
            lambda h: " ".join(h[i:i + 2] for i in range(0, len(h), 2)),
            id="spaced_hex",
        ),
        pytest.param("timestamp", str, id="timestamp_string"),
        pytest.param("format_version", 1.9, id="format_version_float"),
        pytest.param("whitelist_version", True, id="whitelist_version_bool"),
        pytest.param("certifier_key", "00" * 31, id="short_certifier_key"),
    ],
)
def test_malformed_documents_rejected(bundles, field, value):
    _, _, cert = bundles["emit_call"]
    doc = certificate_to_json(cert)
    target = doc["metadata"] if field in doc["metadata"] else doc
    target[field] = value(target[field]) if callable(value) else value
    with pytest.raises(CertificateFormatError):
        certificate_from_json(doc)


def test_every_certificate_within_size_budget(bundles):
    for name, (_, _, cert) in bundles.items():
        assert len(certificate_bytes(cert)) <= MAX_CERT_BYTES, name


# A KeyPair keeps the key parsed from its seed; signing through it must give
# exactly what deriving the key from the seed for every signature gave.
# Values recorded with per-signature derivation: the emit_call certificate
# under CERTIFIER_SEED at FIXED_NOW, the v1 whitelist signed with ENV_SEED.
EMIT_CALL_CERT_SHA256 = "42c84d8c59f8f656013491f8a32c54df672e5a4019a9cfd4771c0f2a635c6944"
V1_AUTHORITY_SIGNATURE = (
    "a8b296f1dbc5d7e433ae546d38036b6c30a0bf51086fcd7cf9b346e0b800709a"
    "aafecccfa1a2435ce628929a5627dc6ee547a8e61937cfa1be761ad551175b0a"
)


@pytest.mark.parametrize("message", [b"", b"\x00" * 64, bytes(range(256))])
def test_keypair_signs_like_a_key_derived_per_signature(message):
    pair = keypair_from_seed(RFC8032_SEED)
    expected = Ed25519PrivateKey.from_private_bytes(RFC8032_SEED).sign(message)
    assert signing.sign(pair.private_key, message) == expected


def test_certificate_and_whitelist_signatures_unchanged(bundles, wl_v1):
    cert_bytes = certificate_bytes(bundles["emit_call"][2])
    assert len(cert_bytes) == 551
    assert hashlib.sha256(cert_bytes).hexdigest() == EMIT_CALL_CERT_SHA256
    signed = sign_whitelist(wl_v1, ENV_SEED)
    assert signed.authority_signature.hex() == V1_AUTHORITY_SIGNATURE


def test_keypair_repr_shows_no_key_object(certifier_key):
    text = repr(certifier_key)
    assert "private_key" not in text
    assert "Ed25519PrivateKey" not in text
    assert repr(certifier_key.private_key) not in text
    assert repr(certifier_key.seed) not in text
    assert certifier_key.seed.hex() not in text


def test_keypair_identity_is_public_key_and_seed(certifier_key):
    again = keypair_from_seed(CERTIFIER_SEED)
    assert again.private_key is not certifier_key.private_key
    assert again == certifier_key
    # a frozen dataclass hashes the tuple of its compared fields
    assert hash(again) == hash((again.public_key, CERTIFIER_SEED))
    assert keypair_from_seed(ENV_SEED) != certifier_key


def test_a_second_digest_encodes_nothing(bundles, monkeypatch):
    cert = dataclasses.replace(bundles["emit_call"][2])  # no digest cached yet
    encode, calls = certificate.canonical_bytes, []
    monkeypatch.setattr(
        certificate, "canonical_bytes", lambda doc: calls.append(doc) or encode(doc)
    )
    first = cert.digest
    assert cert.digest is first and len(calls) == 1
    assert first.hex() == EMIT_CALL_CERT_SHA256
    copy = dataclasses.replace(cert)
    assert copy == cert and hash(copy) == hash(cert) and repr(copy) == repr(cert)


def test_replace_with_another_proof_hash_digests_afresh(bundles, wl_v1):
    _, proof, cert = bundles["emit_call"]
    forged_proof = dataclasses.replace(
        proof,
        classifications=tuple(
            Classification(c.import_record, DISALLOWED) for c in proof.classifications
        ),
    )
    forged = dataclasses.replace(cert, proof_hash=proof_hash(forged_proof))
    assert forged.digest != cert.digest
    assert forged.digest == bare_digest(certificate_to_json(forged))


_DIGEST = st.binary(min_size=32, max_size=32)


@given(
    artifact_hash=_DIGEST,
    proof_digest=_DIGEST,
    signature=st.binary(min_size=64, max_size=64),
    certifier_key=_DIGEST,
    numbers=st.tuples(*[st.integers(0, 2**63)] * 3),
    whitelist_hash=_DIGEST,
)
def test_certificate_digest_is_sha256_of_sorted_compact_json(
    artifact_hash, proof_digest, signature, certifier_key, numbers, whitelist_hash
):
    timestamp, version, format_version = numbers
    cert = PurityCertificate(
        artifact_hash=artifact_hash,
        proof_hash=proof_digest,
        signature=signature,
        metadata=CertificateMetadata(
            certifier_key, timestamp, version, whitelist_hash, format_version
        ),
    )
    assert cert.digest == bare_digest(certificate_to_json(cert))
