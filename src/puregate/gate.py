"""The runtime verification gate: six sequential, short-circuiting checks.

Order is load-bearing and fixed: (1) certifier trust and signature,
(2) artifact-hash binding, (3) proof-hash binding, (4) independent import
re-extraction and equality, (5) re-classification against the runtime
whitelist plus version-range currency, (6) conclusion check. The first
failure wins; rejections are decisions, never exceptions.

An acceptance carries what it admitted (the runtime whitelist, certificate
and proof it verified) and a compile handle, a wasmvm.ModuleCell over the
bytes it admitted and the header step 4 decoded from them: the artifact's
one handle in the process (wasmvm.compile_handle). The six checks never
call the VM: importing this module loads no wasmvm, and the first
acceptance in a process imports it to take that handle. The cache keeps
the accepting decision itself, keyed by the exact bytes it admitted, so a
hit is one dict lookup and hashes nothing: SHA-256 of the binary is
computed only when the six checks run. A hit requires the whitelist
snapshot, certificate and proof that acceptance admitted (the very objects,
or equal ones), a trust set that still holds the certificate's certifier
key, and the same minimum_version and known_hashes (None and {} alike);
anything else runs the six checks. So a whitelist change invalidates
implicitly (it drops admission decisions, never a compile handle), a hit
gives the verdict the six checks would, it never serves a certificate the
gate did not verify, and the chain's purity_cert_hash is the admitting
certificate's digest, encoded at most once per certificate object. Every
decision (accept and reject) is appended to a decision log for audit; a
hit's log fields are rendered once per cached acceptance.
"""

from __future__ import annotations

import functools
import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Collection, Mapping

from .canonical import CanonicalError, canonical_bytes, load_lines
from .certificate import (
    INVALID_SIGNATURE,
    UNTRUSTED_CERTIFIER,
    PurityCertificate,
    verify_certificate_signature,
)
from .proof import PURE, PurityProof, proof_hash
from .wasm_inspect import MalformedBinary, parse_imports
from .whitelist import (
    DISALLOWED,
    Whitelist,
    check_version_range,
    classify_import,
)

if TYPE_CHECKING:
    from .wasmvm import ModuleCell

ACCEPT = "accept"
REJECT = "reject"

R_INVALID_SIGNATURE = INVALID_SIGNATURE
R_UNTRUSTED_CERTIFIER = UNTRUSTED_CERTIFIER
R_ARTIFACT_HASH_MISMATCH = "artifact_hash_mismatch"
R_PROOF_HASH_MISMATCH = "proof_hash_mismatch"
R_IMPORT_MISMATCH = "import_mismatch"
R_MALFORMED_BINARY = "malformed_binary"
R_DISALLOWED_IMPORT = "disallowed_import"
R_STALE_OR_UNKNOWN_WHITELIST = "stale_or_unknown_whitelist"
R_CONCLUSION_NOT_PURE = "conclusion_not_pure"

CACHE_INVALIDATION_CAUSES = ("whitelist_changed", "keys_rotated", "manual")


@dataclass(frozen=True)
class Admission:
    """What an acceptance verified, and the version range it was verified
    against; a cache hit must present equal ones."""

    whitelist: Whitelist
    cert: PurityCertificate
    proof: PurityProof
    minimum_version: int
    known_hashes: dict[int, bytes]  # a copy; {} when none were given


@dataclass(frozen=True)
class GateDecision:
    verdict: str
    reason: str | None = None
    detail: str | None = None
    failed_step: int | None = None
    from_cache: bool = False
    # Hash of the exact bytes this decision was made for.
    artifact_hash: bytes | None = None
    # An acceptance's compile handle for those bytes and what it admitted;
    # neither is part of the decision's identity or its log record.
    compiled: ModuleCell | None = field(default=None, compare=False, repr=False)
    admitted: Admission | None = field(default=None, compare=False, repr=False)

    @property
    def accepted(self) -> bool:
        return self.verdict == ACCEPT

    def to_json(self) -> dict[str, Any]:
        return {
            "verdict": self.verdict,
            "reason": self.reason,
            "detail": self.detail,
            "failed_step": self.failed_step,
            "from_cache": self.from_cache,
            "artifact_hash": (
                self.artifact_hash.hex() if self.artifact_hash else None
            ),
        }

    @functools.cached_property
    def log_fields(self) -> dict[str, Any]:
        """A hit's decision-log fields after the timestamp, rendered once:
        a hit's runtime whitelist has the admitted one's version and content
        hash, the two the record names. Kept outside equality and repr."""
        return _log_fields(self, self.admitted.whitelist)


def _log_fields(decision: GateDecision, whitelist: Whitelist) -> dict[str, Any]:
    return {
        **decision.to_json(),
        "whitelist_version": whitelist.version,
        "whitelist_hash": whitelist.content_hash.hex(),
    }


@dataclass
class GateCache:
    """Accepting decisions for one version range (minimum_version,
    known_hashes): a caller that gates under two ranges holds two caches.

    Keyed by the exact bytes each acceptance admitted, so a hit is one dict
    lookup and hashes nothing. For a bytes input the key is the object its
    compile handle holds, so the cache keeps no second copy; any other
    input is keyed by a bytes copy of its buffer."""

    # admitted bytes -> the acceptance a hit serves, with from_cache set
    accepted: dict[bytes, GateDecision] = field(default_factory=dict)

    def lookup(
        self,
        binary: bytes,
        runtime: Whitelist,
        cert: PurityCertificate,
        proof: PurityProof,
        trusted_keys: Collection[bytes],
        minimum_version: int,
        known_hashes: Mapping[int, bytes] | None,
    ) -> GateDecision | None:
        hit = self.accepted.get(binary)
        if hit is None:
            return None
        admitted = hit.admitted
        whitelist = admitted.whitelist
        # the very objects admitted are the common case; equal ones also hit
        if (
            (
                whitelist is not runtime
                and (
                    whitelist.version != runtime.version
                    or whitelist.content_hash != runtime.content_hash
                )
            )
            or (admitted.cert is not cert and admitted.cert != cert)
            or (admitted.proof is not proof and admitted.proof != proof)
            or cert.metadata.certifier_key not in trusted_keys
            or admitted.minimum_version != minimum_version
            or admitted.known_hashes != (known_hashes or {})
        ):
            return None
        return hit


class DecisionLog:
    """Append-only record of gate decisions and cache events.

    Kept in memory always; mirrored to a JSONL file when a path is given.
    acceptances indexes the log's witnesses: the (artifact hash, whitelist
    hash) pair, both in hex, of every accepting gate decision recorded. Only
    record_decision adds one; an event appended by hand is stored, not
    believed.
    """

    def __init__(self, path: Path | None = None):
        self.path = Path(path) if path is not None else None
        self.events: list[dict[str, Any]] = []
        self.acceptances: set[tuple[str, str]] = set()

    def append(self, event: dict[str, Any]) -> None:
        self.events.append(event)
        if self.path is not None:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(canonical_bytes(event).decode("utf-8") + "\n")

    def record_decision(
        self, decision: GateDecision, now: float, runtime_whitelist: Whitelist
    ) -> None:
        fields = (
            decision.log_fields
            if decision.from_cache and decision.admitted is not None
            else _log_fields(decision, runtime_whitelist)
        )
        self.append({"event": "gate_decision", "timestamp": now, **fields})
        if decision.accepted:
            self.acceptances.add((fields["artifact_hash"], fields["whitelist_hash"]))

    def record_invalidation(self, cause: str, now: float) -> None:
        self.append({"event": "cache_invalidated", "timestamp": now, "cause": cause})

    @staticmethod
    def read_events(path: Path) -> list[dict[str, Any]]:
        return load_lines(path, CanonicalError, "decision log")


def _reject(
    reason: str, step: int, artifact_hash: bytes, detail: str | None = None
) -> GateDecision:
    return GateDecision(
        verdict=REJECT,
        reason=reason,
        detail=detail,
        failed_step=step,
        artifact_hash=artifact_hash,
    )


def gate_verify(
    binary_bytes: bytes,
    cert: PurityCertificate,
    proof: PurityProof,
    runtime_whitelist: Whitelist,
    trusted_keys: Collection[bytes],
    minimum_version: int = 1,
    cache: GateCache | None = None,
    known_hashes: Mapping[int, bytes] | None = None,
    log: DecisionLog | None = None,
    now: float | None = None,
) -> GateDecision:
    """Run the six checks (or serve a cached acceptance) and log the outcome."""
    decision = None
    if cache is not None:
        key = binary_bytes
        if type(key) is not bytes:
            # a bytearray may change once admitted, and a subclass may redefine
            # __eq__, __hash__ or __bytes__: key by the bytes SHA-256 reads
            key = bytes(memoryview(key))
        decision = cache.lookup(
            key,
            runtime_whitelist,
            cert,
            proof,
            trusted_keys,
            minimum_version,
            known_hashes,
        )
    if decision is None:
        decision = _run_checks(
            binary_bytes,
            hashlib.sha256(binary_bytes).digest(),
            cert,
            proof,
            runtime_whitelist,
            trusted_keys,
            minimum_version,
            known_hashes,
        )
        if decision.accepted and cache is not None:
            held = decision.compiled.binary
            cache.accepted[held if type(held) is bytes else key] = GateDecision(
                ACCEPT,
                from_cache=True,
                artifact_hash=decision.artifact_hash,
                compiled=decision.compiled,
                admitted=decision.admitted,
            )
    if log is not None:
        log.record_decision(
            decision, time.time() if now is None else now, runtime_whitelist
        )
    return decision


def check_certificate(
    artifact_hash: bytes,
    cert: PurityCertificate,
    proof: PurityProof,
    trusted_keys: Collection[bytes],
) -> GateDecision | None:
    """Steps 1-3: certifier trust and signature, then the certificate's
    binding to the artifact hash and to the proof.

    Returns the rejection, or None when all three hold.
    """
    # step 1: trust establishment, then signature verification
    refusal = verify_certificate_signature(cert, trusted_keys)
    if refusal is not None:
        return _reject(refusal, 1, artifact_hash)

    # step 2: artifact binding
    if artifact_hash != cert.artifact_hash:
        return _reject(R_ARTIFACT_HASH_MISMATCH, 2, artifact_hash)

    # step 3: proof binding
    if proof_hash(proof) != cert.proof_hash:
        return _reject(R_PROOF_HASH_MISMATCH, 3, artifact_hash)
    return None


def _run_checks(
    binary_bytes: bytes,
    artifact_hash: bytes,
    cert: PurityCertificate,
    proof: PurityProof,
    runtime_whitelist: Whitelist,
    trusted_keys: Collection[bytes],
    minimum_version: int,
    known_hashes: Mapping[int, bytes] | None,
) -> GateDecision:
    rejection = check_certificate(artifact_hash, cert, proof, trusted_keys)
    if rejection is not None:
        return rejection

    # step 4: independent import extraction
    try:
        module = parse_imports(binary_bytes)
    except MalformedBinary:
        return _reject(R_MALFORMED_BINARY, 4, artifact_hash)
    if module.imports != proof.imports:
        return _reject(R_IMPORT_MISMATCH, 4, artifact_hash)

    # step 5: re-classification against the runtime whitelist, then currency
    for imp in module.imports:
        if classify_import(imp, runtime_whitelist).verdict == DISALLOWED:
            return _reject(
                R_DISALLOWED_IMPORT,
                5,
                artifact_hash,
                detail=f"{imp.namespace}.{imp.name}",
            )
    stale = check_version_range(
        cert.metadata.whitelist_version,
        cert.metadata.whitelist_hash,
        runtime_whitelist,
        minimum_version,
        known_hashes,
    )
    if stale is not None:
        return _reject(R_STALE_OR_UNKNOWN_WHITELIST, 5, artifact_hash, detail=stale)
    if (
        proof.whitelist_version != cert.metadata.whitelist_version
        or proof.whitelist_hash != cert.metadata.whitelist_hash
    ):
        return _reject(
            R_STALE_OR_UNKNOWN_WHITELIST,
            5,
            artifact_hash,
            detail="proof/certificate disagree",
        )

    # step 6: conclusion
    if proof.conclusion != PURE:
        return _reject(R_CONCLUSION_NOT_PURE, 6, artifact_hash)

    return GateDecision(
        verdict=ACCEPT,
        artifact_hash=artifact_hash,
        compiled=_vm().compile_handle(binary_bytes, module.header),
        admitted=Admission(
            runtime_whitelist, cert, proof, minimum_version, dict(known_hashes or {})
        ),
    )


@functools.cache
def _vm():
    """wasmvm, imported at the first acceptance: only an acceptance takes a
    compile handle, and the six checks never call the VM. Cached, because an
    import statement in every acceptance made perfbench's onboard op_p50_us
    about 6 us (1.3%) slower (2-vCPU Xeon host, CPython 3.11)."""
    from . import wasmvm

    return wasmvm


def invalidate_cache(
    cache: GateCache,
    cause: str,
    log: DecisionLog | None = None,
    now: float | None = None,
) -> GateCache:
    if cause not in CACHE_INVALIDATION_CAUSES:
        raise ValueError(f"unknown invalidation cause: {cause!r}")
    if log is not None:
        log.record_invalidation(cause, time.time() if now is None else now)
    cache.accepted.clear()
    return cache
