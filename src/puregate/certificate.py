"""Purity certificates: signed bindings of an artifact to its proof.

A certificate carries the artifact hash, the proof hash, an Ed25519 signature
over their raw 64-byte concatenation, and metadata naming the certifier key
and the whitelist the proof was built against. Certifying a proof that is
impure in its conclusion or in any verdict is refused outright; the
certificate only ever attests to purity.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Collection, Mapping

from . import signing
from .canonical import canonical_bytes, load_object, read_field, read_hex, read_int
from .proof import PURE, PurityProof, proof_hash, validate_proof_against_binary
from .whitelist import DISALLOWED

FORMAT_VERSION = 1
MAX_CERT_BYTES = 4096

UNTRUSTED_CERTIFIER = "untrusted_certifier"
INVALID_SIGNATURE = "invalid_signature"


class RefuseImpure(ValueError):
    """Refusal to sign: the proof's conclusion is not pure."""


class ProofBinaryMismatch(ValueError):
    """Refusal to sign: the proof does not describe these binary bytes."""


class CertificateFormatError(ValueError):
    """A certificate document does not satisfy the certificate invariants."""


@dataclass(frozen=True)
class KeyPair:
    """An Ed25519 key pair. private_key is the key parsed from seed, kept so
    that every signature reuses it; identity is the public key and seed.
    repr shows only the public key, so printing a pair leaks no secret."""

    public_key: bytes
    seed: bytes = field(repr=False)
    private_key: signing.Ed25519PrivateKey = field(compare=False, repr=False)


def keygen() -> KeyPair:
    seed = signing.generate_seed()
    return keypair_from_seed(seed)


def keypair_from_seed(seed: bytes) -> KeyPair:
    private_key = signing.private_key_from_seed(seed)
    return KeyPair(
        public_key=signing.public_key_bytes(private_key),
        seed=seed,
        private_key=private_key,
    )


@dataclass(frozen=True)
class CertificateMetadata:
    certifier_key: bytes
    timestamp: int
    whitelist_version: int
    whitelist_hash: bytes
    format_version: int = FORMAT_VERSION


@dataclass(frozen=True)
class PurityCertificate:
    artifact_hash: bytes
    proof_hash: bytes
    signature: bytes
    metadata: CertificateMetadata

    @cached_property
    def digest(self) -> bytes:
        """SHA-256 of the canonical bytes, encoded at most once per object;
        the provenance chain pins it as purity_cert_hash."""
        return hashlib.sha256(certificate_bytes(self)).digest()


def signing_message(artifact_hash: bytes, proof_digest: bytes) -> bytes:
    """The signed message: raw digest concatenation, no outer hash."""
    return artifact_hash + proof_digest


def sign_certificate(
    binary_bytes: bytes, proof: PurityProof, key: KeyPair, now: int
) -> PurityCertificate:
    if proof.conclusion != PURE or any(
        c.verdict == DISALLOWED for c in proof.classifications
    ):
        raise RefuseImpure("disallowed imports found; refusing to certify")
    if tuple(c.import_record for c in proof.classifications) != proof.imports:
        raise ProofBinaryMismatch("proof classifications do not follow its imports")
    mismatch = validate_proof_against_binary(proof, binary_bytes)
    if mismatch is not None:
        raise ProofBinaryMismatch(f"proof does not match binary: {mismatch}")
    artifact_hash = hashlib.sha256(binary_bytes).digest()
    proof_digest = proof_hash(proof)
    signature = signing.sign(
        key.private_key, signing_message(artifact_hash, proof_digest)
    )
    return PurityCertificate(
        artifact_hash=artifact_hash,
        proof_hash=proof_digest,
        signature=signature,
        metadata=CertificateMetadata(
            certifier_key=key.public_key,
            timestamp=int(now),
            whitelist_version=proof.whitelist_version,
            whitelist_hash=proof.whitelist_hash,
        ),
    )


def verify_certificate_signature(
    cert: PurityCertificate, trusted_keys: Collection[bytes]
) -> str | None:
    """The refusal, or None; trust establishment precedes signature math."""
    if cert.metadata.certifier_key not in trusted_keys:
        return UNTRUSTED_CERTIFIER
    if not signing.verify(
        cert.metadata.certifier_key,
        cert.signature,
        signing_message(cert.artifact_hash, cert.proof_hash),
    ):
        return INVALID_SIGNATURE
    return None


# ---------------------------------------------------------------------------
# file form
# ---------------------------------------------------------------------------

def certificate_to_json(cert: PurityCertificate) -> dict[str, Any]:
    return {
        "artifact_hash": cert.artifact_hash.hex(),
        "proof_hash": cert.proof_hash.hex(),
        "signature": cert.signature.hex(),
        "metadata": {
            "certifier_key": cert.metadata.certifier_key.hex(),
            "timestamp": cert.metadata.timestamp,
            "whitelist_version": cert.metadata.whitelist_version,
            "whitelist_hash": cert.metadata.whitelist_hash.hex(),
            "format_version": cert.metadata.format_version,
        },
    }


def certificate_from_json(doc: Mapping[str, Any]) -> PurityCertificate:
    try:
        meta = read_field(doc, "metadata", dict)
        cert = PurityCertificate(
            artifact_hash=read_hex(doc, "artifact_hash", 32),
            proof_hash=read_hex(doc, "proof_hash", 32),
            signature=read_hex(doc, "signature", signing.SIGNATURE_BYTES),
            metadata=CertificateMetadata(
                certifier_key=read_hex(meta, "certifier_key", signing.PUBLIC_KEY_BYTES),
                timestamp=read_int(meta, "timestamp"),
                whitelist_version=read_int(meta, "whitelist_version"),
                whitelist_hash=read_hex(meta, "whitelist_hash", 32),
                format_version=read_int(meta, "format_version"),
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CertificateFormatError(f"bad certificate document: {exc}") from exc
    if cert.metadata.format_version != FORMAT_VERSION:
        raise CertificateFormatError(
            f"unsupported format_version {cert.metadata.format_version}"
        )
    return cert


def certificate_bytes(cert: PurityCertificate) -> bytes:
    return canonical_bytes(certificate_to_json(cert))


def save_certificate(cert: PurityCertificate, path: Path) -> None:
    Path(path).write_bytes(certificate_bytes(cert) + b"\n")


def load_certificate(path: Path) -> PurityCertificate:
    doc = load_object(path, CertificateFormatError, "certificate")
    return certificate_from_json(doc)
