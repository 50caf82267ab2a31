"""Purity proofs: the structured evidence that a module's imports are pure.

A proof pairs a module's import list with per-import classifications and a
conclusion (pure iff no verdict is disallowed). Impurity is a proof outcome,
not an error: building a proof never raises, and rejection happens later at
certification or at the gate. Each proof embeds the version and content hash
of the whitelist it was classified against so the gate can check currency.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Mapping

from .canonical import canonical_bytes, load_object
from .canonical import read_field, read_hex, read_int, read_list
from .wasm_inspect import ImportRecord, MalformedBinary, ModuleImports, parse_imports
from .whitelist import DISALLOWED, Classification, Whitelist, classify_import

PURE = "pure"
IMPURE = "impure"

IMPORT_MISMATCH = "ImportMismatch"
MALFORMED_BINARY = "MalformedBinary"


class ProofFormatError(ValueError):
    """A proof document does not satisfy the proof invariants."""


@dataclass(frozen=True)
class PurityProof:
    imports: tuple[ImportRecord, ...]
    classifications: tuple[Classification, ...]
    conclusion: str
    whitelist_version: int
    whitelist_hash: bytes

    @cached_property
    def digest(self) -> bytes:
        """SHA-256 of the canonical bytes, encoded at most once per object:
        the fields are frozen tuples, bytes, ints and strings, so it cannot
        go stale, and dataclasses.replace builds an object that hashes
        afresh."""
        return hashlib.sha256(proof_bytes(self)).digest()


def build_proof(module: ModuleImports, whitelist: Whitelist) -> PurityProof:
    """Classify every import in binary order and draw the conclusion."""
    classifications = tuple(classify_import(imp, whitelist) for imp in module.imports)
    impure = any(c.verdict == DISALLOWED for c in classifications)
    return PurityProof(
        imports=module.imports,
        classifications=classifications,
        conclusion=IMPURE if impure else PURE,
        whitelist_version=whitelist.version,
        whitelist_hash=whitelist.content_hash,
    )


def proof_to_json(proof: PurityProof) -> dict[str, Any]:
    return {
        "imports": [imp.to_json() for imp in proof.imports],
        "classifications": [c.to_json() for c in proof.classifications],
        "conclusion": proof.conclusion,
        "whitelist_version": proof.whitelist_version,
        "whitelist_hash": proof.whitelist_hash.hex(),
    }


def proof_from_json(doc: Mapping[str, Any]) -> PurityProof:
    try:
        proof = PurityProof(
            imports=tuple(
                ImportRecord.from_json(i)
                for i in read_list(doc, "imports", read_field, dict)
            ),
            classifications=tuple(
                Classification.from_json(c)
                for c in read_list(doc, "classifications", read_field, dict)
            ),
            conclusion=read_field(doc, "conclusion", str),
            whitelist_version=read_int(doc, "whitelist_version"),
            whitelist_hash=read_hex(doc, "whitelist_hash", 32),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProofFormatError(f"bad proof document: {exc}") from exc
    if proof.conclusion not in (PURE, IMPURE):
        raise ProofFormatError(f"unknown conclusion: {proof.conclusion!r}")
    if len(proof.imports) != len(proof.classifications):
        raise ProofFormatError("classifications not parallel to imports")
    return proof


def proof_bytes(proof: PurityProof) -> bytes:
    """Canonical serialization (fixed key order, imports in binary order)."""
    return canonical_bytes(proof_to_json(proof))


def proof_hash(proof: PurityProof) -> bytes:
    return proof.digest


def save_proof(proof: PurityProof, path: Path) -> None:
    Path(path).write_bytes(proof_bytes(proof) + b"\n")


def load_proof(path: Path) -> PurityProof:
    return proof_from_json(load_object(path, ProofFormatError, "proof"))


def validate_proof_against_binary(
    proof: PurityProof, binary_bytes: bytes
) -> str | None:
    """Independently re-parse the binary and demand exact import equality:
    the refusal, or None when the binary's imports are the proof's.

    Order matters: a reordered import list is a different module as far as
    evidence binding is concerned, so it is rejected.
    """
    try:
        module = parse_imports(binary_bytes)
    except MalformedBinary:
        return MALFORMED_BINARY
    if module.imports != proof.imports:
        return IMPORT_MISMATCH
    return None
