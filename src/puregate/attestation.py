"""Portable governance credentials for cross-organization verification.

An attestation record bundles a purity certificate, its full proof, and a
descriptor of the environment that verified them, counter-signed by the
environment's key over the three record digests. A remote verifier holds no
binary, so its certificate check covers trust, signatures, hash bindings,
whitelist consistency, and the conclusion; the binary import re-parse is
the one gate step that cannot travel, and the artifact-hash binding stands
in for it. Policy acceptance is the four-conjunct compatibility predicate,
evaluated unilaterally from the verifier's own policy plus the peer's
public record.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from . import signing
from .canonical import canonical_bytes, load_object
from .canonical import read_field, read_hex, read_int, read_list
from .certificate import (
    INVALID_SIGNATURE,
    KeyPair,
    PurityCertificate,
    certificate_from_json,
    certificate_to_json,
    verify_certificate_signature,
)
from .memo import BoundedMemo
from .proof import (
    PURE,
    PurityProof,
    proof_from_json,
    proof_hash,
    proof_to_json,
)
from .whitelist import DISALLOWED, Whitelist, classify_import

if TYPE_CHECKING:  # a verifying peer loads neither the gate nor the VM
    from .gate import DecisionLog

# verdict reasons, grouped by the verification step that emits them
UNTRUSTED_ENV_KEY = "untrusted_environment_key"  # step 1
INVALID_ENV_SIGNATURE = "invalid_environment_signature"  # step 2
UNTRUSTED_CERTIFIER = "untrusted_certifier"  # step 3
INVALID_CERT_SIGNATURE = "invalid_certificate_signature"  # step 3
PROOF_HASH_MISMATCH = "proof_hash_mismatch"  # step 3
WHITELIST_MISMATCH = "whitelist_mismatch"  # step 3
DISALLOWED_IMPORT = "disallowed_import"  # step 3
CONCLUSION_NOT_PURE = "conclusion_not_pure"  # step 3
INCOMPATIBLE = "incompatible"  # step 4


class GateNeverAccepted(Exception):
    """Refusal to attest: the local gate never accepted this pair."""


class AttestationFormatError(ValueError):
    """An attestation document does not parse."""


@dataclass(frozen=True)
class EnvironmentDescriptor:
    runtime_identity: str
    runtime_version: str
    whitelist_version: int
    whitelist_hash: bytes
    accepted_certifier_keys: tuple[bytes, ...]

    def to_json(self) -> dict[str, Any]:
        return {
            "runtime_identity": self.runtime_identity,
            "runtime_version": self.runtime_version,
            "whitelist_version": self.whitelist_version,
            "whitelist_hash": self.whitelist_hash.hex(),
            "accepted_certifier_keys": [
                k.hex() for k in self.accepted_certifier_keys
            ],
        }

    @cached_property
    def digest(self) -> bytes:
        """SHA-256 of the canonical bytes, encoded at most once per object."""
        return hashlib.sha256(environment_bytes(self)).digest()

    @classmethod
    def from_json(cls, obj: Mapping[str, Any]) -> "EnvironmentDescriptor":
        try:
            return cls(
                read_field(obj, "runtime_identity", str),
                read_field(obj, "runtime_version", str),
                read_int(obj, "whitelist_version", minimum=1),
                read_hex(obj, "whitelist_hash", 32),
                read_list(
                    obj, "accepted_certifier_keys", read_hex, signing.PUBLIC_KEY_BYTES
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise AttestationFormatError(f"bad environment document: {exc}") from exc


def environment_bytes(env: EnvironmentDescriptor) -> bytes:
    return canonical_bytes(env.to_json())


@dataclass(frozen=True)
class AttestationRecord:
    certificate: PurityCertificate
    proof: PurityProof
    env: EnvironmentDescriptor
    env_signature: bytes
    env_key: bytes

    @cached_property
    def digest(self) -> bytes:
        """SHA-256 of the canonical bytes, encoded at most once per object."""
        return hashlib.sha256(attestation_bytes(self)).digest()


@dataclass(frozen=True)
class OrgPolicy:
    accepted_whitelists: frozenset[bytes]
    trusted_runtimes: frozenset[str]
    trusted_certifiers: frozenset[bytes]
    minimum_required: int
    trusted_env_keys: frozenset[bytes]

    def __post_init__(self) -> None:
        if self.minimum_required < 1:
            raise ValueError("minimum_required must be >= 1")


@dataclass(frozen=True)
class CompatReport:
    compatible: bool
    conjuncts: Mapping[str, bool]


@dataclass(frozen=True)
class AttestationVerdict:
    accepted: bool
    step: int | None = None  # first failing step, 1-4
    reason: str | None = None
    compat: CompatReport | None = None


def attestation_message(
    cert: PurityCertificate, proof: PurityProof, env: EnvironmentDescriptor
) -> bytes:
    """The signed message: digest of each record part, concatenated in order."""
    return cert.digest + proof_hash(proof) + env.digest


def build_attestation(
    cert: PurityCertificate,
    proof: PurityProof,
    env: EnvironmentDescriptor,
    env_keypair: KeyPair,
    decision_log: DecisionLog,
) -> AttestationRecord:
    """Counter-sign a locally gate-accepted (certificate, proof) pair.

    The decision log is the witness: there must be an accepting gate decision
    for this artifact under the whitelist the descriptor names. Attesting to
    an executor the local gate never accepted is refused. The witness is
    checked on every call; only then is a record issued before for the same
    message under the same environment key taken from the issuance memo.
    """
    witness = (cert.artifact_hash.hex(), env.whitelist_hash.hex())
    if witness not in decision_log.acceptances:
        raise GateNeverAccepted(
            "no accepting gate decision recorded for this artifact under "
            "the attested whitelist"
        )
    message = attestation_message(cert, proof, env)
    return _ISSUED.get(
        (env_keypair.public_key, message), _sign_record, cert, proof, env, env_keypair, message
    )


def _sign_record(
    cert: PurityCertificate,
    proof: PurityProof,
    env: EnvironmentDescriptor,
    env_keypair: KeyPair,
    message: bytes,
) -> AttestationRecord:
    return AttestationRecord(
        certificate=cert,
        proof=proof,
        env=env,
        env_signature=signing.sign(env_keypair.private_key, message),
        env_key=env_keypair.public_key,
    )


# Issued attestation records, keyed by the environment's public key and the
# signed message. A record carries no timestamp or nonce and Ed25519 signing
# is deterministic (RFC 8032 5.1.6), so signing the same message under the
# same key again makes an equal record: a repeat issue takes it from here,
# with its digest if one was taken. The keys hold no secret.
_ISSUED = BoundedMemo(256)


# ---------------------------------------------------------------------------
# compatibility predicate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PeerRecord:
    """The peer facts a verifier reads off an attestation record."""

    whitelist_hash: bytes
    runtime_identity: str
    certifier_key: bytes
    whitelist_version: int


def peer_from_record(record: AttestationRecord) -> PeerRecord:
    return PeerRecord(
        whitelist_hash=record.env.whitelist_hash,
        runtime_identity=record.env.runtime_identity,
        certifier_key=record.certificate.metadata.certifier_key,
        whitelist_version=record.env.whitelist_version,
    )


def is_compatible(peer: PeerRecord, policy: OrgPolicy) -> CompatReport:
    """Four conjuncts, each reported so the verdict is mechanically auditable."""
    conjuncts = {
        "whitelist_accepted": peer.whitelist_hash in policy.accepted_whitelists,
        "runtime_trusted": peer.runtime_identity in policy.trusted_runtimes,
        "certifier_trusted": peer.certifier_key in policy.trusted_certifiers,
        "version_current": peer.whitelist_version >= policy.minimum_required,
    }
    return CompatReport(compatible=all(conjuncts.values()), conjuncts=conjuncts)


# ---------------------------------------------------------------------------
# the four-step verification protocol
# ---------------------------------------------------------------------------

def verify_attestation(
    record: AttestationRecord,
    policy: OrgPolicy,
    whitelists: Mapping[bytes, Whitelist] | None = None,
) -> AttestationVerdict:
    """Verify a received record: trust, signatures, certificate, policy.

    When the verifier holds a whitelist whose content hash matches the
    record's environment, the proof's imports are re-classified against it;
    otherwise classification rests on the hash binding plus policy step 4.
    """
    # step 1: trust establishment
    if record.env_key not in policy.trusted_env_keys:
        return AttestationVerdict(False, step=1, reason=UNTRUSTED_ENV_KEY)

    # step 2: environment signature
    message = attestation_message(record.certificate, record.proof, record.env)
    if not signing.verify(record.env_key, record.env_signature, message):
        return AttestationVerdict(False, step=2, reason=INVALID_ENV_SIGNATURE)

    # step 3: certificate verification (binary re-parse is not possible here)
    cert = record.certificate
    proof = record.proof
    refusal = verify_certificate_signature(cert, policy.trusted_certifiers)
    if refusal is not None:
        reason = INVALID_CERT_SIGNATURE if refusal == INVALID_SIGNATURE else refusal
        return AttestationVerdict(False, step=3, reason=reason)
    if proof_hash(proof) != cert.proof_hash:
        return AttestationVerdict(False, step=3, reason=PROOF_HASH_MISMATCH)
    consistent = (
        proof.whitelist_version
        == cert.metadata.whitelist_version
        == record.env.whitelist_version
        and proof.whitelist_hash
        == cert.metadata.whitelist_hash
        == record.env.whitelist_hash
    )
    if not consistent:
        return AttestationVerdict(False, step=3, reason=WHITELIST_MISMATCH)
    if whitelists and record.env.whitelist_hash in whitelists:
        local = whitelists[record.env.whitelist_hash]
        for imp in proof.imports:
            if classify_import(imp, local).verdict == DISALLOWED:
                return AttestationVerdict(False, step=3, reason=DISALLOWED_IMPORT)
    if proof.conclusion != PURE:
        return AttestationVerdict(False, step=3, reason=CONCLUSION_NOT_PURE)

    # step 4: environment policy
    compat = is_compatible(peer_from_record(record), policy)
    if not compat.compatible:
        return AttestationVerdict(False, step=4, reason=INCOMPATIBLE, compat=compat)
    return AttestationVerdict(True, compat=compat)


# ---------------------------------------------------------------------------
# file forms
# ---------------------------------------------------------------------------

def attestation_to_json(record: AttestationRecord) -> dict[str, Any]:
    return {
        "certificate": certificate_to_json(record.certificate),
        "proof": proof_to_json(record.proof),
        "env": record.env.to_json(),
        "env_signature": record.env_signature.hex(),
        "env_key": record.env_key.hex(),
    }


def attestation_from_json(doc: Mapping[str, Any]) -> AttestationRecord:
    try:
        return AttestationRecord(
            certificate=certificate_from_json(read_field(doc, "certificate", dict)),
            proof=proof_from_json(read_field(doc, "proof", dict)),
            env=EnvironmentDescriptor.from_json(read_field(doc, "env", dict)),
            env_signature=read_hex(doc, "env_signature", signing.SIGNATURE_BYTES),
            env_key=read_hex(doc, "env_key", signing.PUBLIC_KEY_BYTES),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise AttestationFormatError(f"bad attestation document: {exc}") from exc


def attestation_bytes(record: AttestationRecord) -> bytes:
    return canonical_bytes(attestation_to_json(record))


def attestation_hash(record: AttestationRecord) -> bytes:
    return record.digest


def save_attestation(record: AttestationRecord, path: Path) -> None:
    Path(path).write_bytes(attestation_bytes(record) + b"\n")


def load_attestation(path: Path) -> AttestationRecord:
    return attestation_from_json(
        load_object(path, AttestationFormatError, "attestation")
    )


# ---------------------------------------------------------------------------
# policy files
# ---------------------------------------------------------------------------

def policy_to_json(policy: OrgPolicy) -> dict[str, Any]:
    return {
        "accepted_whitelists": sorted(h.hex() for h in policy.accepted_whitelists),
        "trusted_runtimes": sorted(policy.trusted_runtimes),
        "trusted_certifiers": sorted(k.hex() for k in policy.trusted_certifiers),
        "minimum_required": policy.minimum_required,
        "trusted_env_keys": sorted(k.hex() for k in policy.trusted_env_keys),
    }


def policy_from_json(doc: Mapping[str, Any]) -> OrgPolicy:
    try:
        return OrgPolicy(
            accepted_whitelists=frozenset(
                read_list(doc, "accepted_whitelists", read_hex, 32)
            ),
            trusted_runtimes=frozenset(
                read_list(doc, "trusted_runtimes", read_field, str)
            ),
            trusted_certifiers=frozenset(
                read_list(doc, "trusted_certifiers", read_hex, signing.PUBLIC_KEY_BYTES)
            ),
            minimum_required=read_int(doc, "minimum_required"),
            trusted_env_keys=frozenset(
                read_list(doc, "trusted_env_keys", read_hex, signing.PUBLIC_KEY_BYTES)
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise AttestationFormatError(f"bad policy document: {exc}") from exc


def save_policy(policy: OrgPolicy, path: Path) -> None:
    Path(path).write_bytes(canonical_bytes(policy_to_json(policy)) + b"\n")


def load_policy(path: Path) -> OrgPolicy:
    return policy_from_json(load_object(path, AttestationFormatError, "policy"))
