"""Versioned pure host-function whitelist and import classification.

The whitelist W is the union of two partitions: pure_data (reads, pure
computation) and pure_directive (constructors that append effect descriptions
to an output buffer without performing them). Classification is exact-match
on (namespace, name, type_signature) with kind=function; anything else is
disallowed. Whitelists are content-addressed: a version number plus the
SHA-256 of the canonical serialization, optionally signed by an authority.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import MappingProxyType
from typing import Any, Iterable, Mapping

from . import signing
from .canonical import canonical_bytes as _canonical_json
from .canonical import load_object, read_field, read_hex, read_int, read_list
from .wasm_inspect import ImportRecord

PURE_DATA = "pure_data"
PURE_DIRECTIVE = "pure_directive"
DISALLOWED = "disallowed"

PURITY_CLASSES = (PURE_DATA, PURE_DIRECTIVE)
VERDICTS = (PURE_DATA, PURE_DIRECTIVE, DISALLOWED)

STALE_WHITELIST = "StaleWhitelist"
UNKNOWN_WHITELIST_HASH = "UnknownWhitelistHash"
FUTURE_WHITELIST = "FutureWhitelist"


class DuplicateEntry(ValueError):
    """Two whitelist entries share (namespace, name)."""


class WhitelistFormatError(ValueError):
    """A whitelist file does not match the expected structure."""


@dataclass(frozen=True)
class WhitelistEntry:
    namespace: str
    name: str
    purity_class: str
    type_signature: str

    def __post_init__(self) -> None:
        if self.purity_class not in PURITY_CLASSES:
            raise ValueError(f"unknown purity class: {self.purity_class!r}")

    def to_json(self) -> dict[str, Any]:
        return {
            "namespace": self.namespace,
            "name": self.name,
            "class": self.purity_class,
            "type_signature": self.type_signature,
        }

    @classmethod
    def from_json(cls, obj: Mapping[str, Any]) -> "WhitelistEntry":
        keys = ("namespace", "name", "class", "type_signature")
        return cls(*(read_field(obj, key, str) for key in keys))


@dataclass(frozen=True)
class Whitelist:
    version: int
    entries: tuple[WhitelistEntry, ...]
    content_hash: bytes
    authority_key: bytes | None = None
    authority_signature: bytes | None = None
    # (namespace, name) -> the first entry with that key
    index: Mapping[tuple[str, str], WhitelistEntry] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        index: dict[tuple[str, str], WhitelistEntry] = {}
        for entry in self.entries:
            index.setdefault((entry.namespace, entry.name), entry)
        object.__setattr__(self, "index", MappingProxyType(index))

    def lookup(self, namespace: str, name: str) -> WhitelistEntry | None:
        return self.index.get((namespace, name))


@dataclass(frozen=True)
class Classification:
    import_record: ImportRecord
    verdict: str

    def to_json(self) -> dict[str, Any]:
        return {"import": self.import_record.to_json(), "verdict": self.verdict}

    @classmethod
    def from_json(cls, obj: Mapping[str, Any]) -> "Classification":
        verdict = read_field(obj, "verdict", str)
        if verdict not in VERDICTS:
            raise ValueError(f"unknown verdict: {verdict!r}")
        return cls(ImportRecord.from_json(read_field(obj, "import", dict)), verdict)


# ---------------------------------------------------------------------------
# canonical form and hashing
# ---------------------------------------------------------------------------

def _sorted_entries(entries: Iterable[WhitelistEntry]) -> tuple[WhitelistEntry, ...]:
    ordered = tuple(sorted(entries, key=lambda e: (e.namespace, e.name)))
    seen: set[tuple[str, str]] = set()
    for entry in ordered:
        key = (entry.namespace, entry.name)
        if key in seen:
            raise DuplicateEntry(f"duplicate whitelist entry {key[0]}.{key[1]}")
        seen.add(key)
    return ordered


def canonicalize(version: int, entries: Iterable[WhitelistEntry]) -> bytes:
    """Deterministic byte form hashed into content_hash; signature excluded."""
    ordered = _sorted_entries(entries)
    return _canonical_json(
        {"entries": [e.to_json() for e in ordered], "version": version}
    )


def content_hash(version: int, entries: Iterable[WhitelistEntry]) -> bytes:
    return hashlib.sha256(canonicalize(version, entries)).digest()


def make_whitelist(version: int, entries: Iterable[WhitelistEntry]) -> Whitelist:
    if version < 1:
        raise ValueError("whitelist version must be a positive integer")
    ordered = _sorted_entries(entries)
    return Whitelist(
        version=version,
        entries=ordered,
        content_hash=content_hash(version, ordered),
    )


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def classify_import(imp: ImportRecord, whitelist: Whitelist) -> Classification:
    """Exact-match lookup; a near miss of any kind is disallowed, not an error."""
    if imp.kind != "function":
        return Classification(imp, DISALLOWED)
    entry = whitelist.lookup(imp.namespace, imp.name)
    if entry is None or entry.type_signature != imp.type_signature:
        return Classification(imp, DISALLOWED)
    return Classification(imp, entry.purity_class)


# ---------------------------------------------------------------------------
# version-range currency
# ---------------------------------------------------------------------------

def check_version_range(
    cert_whitelist_version: int,
    cert_whitelist_hash: bytes,
    runtime: Whitelist,
    minimum_required: int,
    known_hashes: Mapping[int, bytes] | None = None,
) -> str | None:
    """The refusal, or None when the certificate's whitelist is within the
    acceptable range.

    known_hashes maps every accepted historical version to its content hash;
    when omitted the runtime's own version is the only known one. A version
    inside the range whose hash is not on record is rejected rather than
    trusted.
    """
    table = dict(known_hashes) if known_hashes else {}
    table.setdefault(runtime.version, runtime.content_hash)

    if cert_whitelist_version < minimum_required:
        return STALE_WHITELIST
    if cert_whitelist_version > runtime.version:
        return FUTURE_WHITELIST
    expected = table.get(cert_whitelist_version)
    if expected is None or expected != cert_whitelist_hash:
        return UNKNOWN_WHITELIST_HASH
    return None


# ---------------------------------------------------------------------------
# authority signing
# ---------------------------------------------------------------------------

def sign_whitelist(whitelist: Whitelist, seed: bytes) -> Whitelist:
    private_key = signing.private_key_from_seed(seed)
    signature = signing.sign(private_key, whitelist.content_hash)
    key = signing.public_key_bytes(private_key)
    return replace(whitelist, authority_key=key, authority_signature=signature)


def verify_whitelist_signature(whitelist: Whitelist) -> bool:
    if whitelist.authority_key is None or whitelist.authority_signature is None:
        return False
    return signing.verify(
        whitelist.authority_key,
        whitelist.authority_signature,
        whitelist.content_hash,
    )


# ---------------------------------------------------------------------------
# file form
# ---------------------------------------------------------------------------

def whitelist_to_json(whitelist: Whitelist) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "version": whitelist.version,
        "entries": [e.to_json() for e in whitelist.entries],
        "content_hash": whitelist.content_hash.hex(),
    }
    if whitelist.authority_key is not None:
        doc["authority_key"] = whitelist.authority_key.hex()
    if whitelist.authority_signature is not None:
        doc["authority_signature"] = whitelist.authority_signature.hex()
    return doc


def whitelist_from_json(doc: Mapping[str, Any]) -> Whitelist:
    try:
        built = make_whitelist(
            read_int(doc, "version"),
            [
                WhitelistEntry.from_json(e)
                for e in read_list(doc, "entries", read_field, dict)
            ],
        )
        recorded, key, signature = (
            None if doc.get(name) is None else read_hex(doc, name, nbytes)
            for name, nbytes in (
                ("content_hash", 32),
                ("authority_key", signing.PUBLIC_KEY_BYTES),
                ("authority_signature", signing.SIGNATURE_BYTES),
            )
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise WhitelistFormatError(f"bad whitelist document: {exc}") from exc
    if recorded is not None and recorded != built.content_hash:
        raise WhitelistFormatError(
            "recorded content_hash does not match the canonical entries"
        )
    if key is not None and signature is not None:
        built = replace(built, authority_key=key, authority_signature=signature)
    return built


def save_whitelist(whitelist: Whitelist, path: Path) -> None:
    Path(path).write_bytes(_canonical_json(whitelist_to_json(whitelist)) + b"\n")


def load_whitelist(path: Path) -> Whitelist:
    return whitelist_from_json(load_object(path, WhitelistFormatError, "whitelist"))


# ---------------------------------------------------------------------------
# shipped whitelists
# ---------------------------------------------------------------------------

HOST_NAMESPACE = "mashin"

# Directive-constructor host functions and the directive kind each one emits.
# They share one ABI: a (ptr, len) JSON payload appended to the output
# directive list.
CONSTRUCTOR_KINDS = {
    "directive_llm_call": "llm_call",
    "directive_llm_call_stream": "llm_call",
    "directive_http_request": "http_request",
    "directive_file_op": "file_op",
    "directive_call_machine": "call_machine",
    "directive_memory_op": "memory_op",
    "directive_db_op": "memory_op",
    "directive_exec_op": "code_eval",
    "directive_emit_event": "emit_event",
    "directive_broadcast": "emit_event",
}

# v1: the four-function profile every shipped executor fixture compiles
# against; v2-extended: v1 plus the full design-envelope surface.
_BUILTIN_FILES = {1: "v1.json", 2: "v2-extended.json"}


@functools.cache
def builtin_whitelist(version: int) -> Whitelist:
    """The whitelists this distribution ships: v1 (default) and v2-extended.

    Their one definition is the package's whitelists/ files. Each version is
    read once, refused unless its entries canonicalize to the content_hash
    the file records; every call returns that object.
    """
    name = _BUILTIN_FILES.get(version)
    if name is None:
        raise ValueError(f"no builtin whitelist version {version}")
    return load_whitelist(Path(__file__).parent / "whitelists" / name)
