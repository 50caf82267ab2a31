"""Canonical structured-text serialization shared by every file format.

One canonicalizer, one audit surface: whitelists, proofs, certificates,
attestations, provenance records, and the WASM boundary documents all hash
and round-trip through this module. The canonical form is JSON with sorted
keys, no insignificant whitespace, UTF-8 bytes, and digests rendered as
lowercase hex. Identical values produce identical bytes on every platform.

Every document that comes from outside, file or line, is read here too:
`load_object` and `loads_object` accept one JSON object and turn any other
input (unreadable, not JSON, not an object) into the caller's format error,
and `of_type` refuses a field whose JSON type is not the one the decoder
expects.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any


class CanonicalError(ValueError):
    """The value cannot be represented in the canonical form."""


# built once: json.dumps builds an encoder on every call with these flags
_ENCODER = json.JSONEncoder(
    sort_keys=True,
    separators=(",", ":"),
    ensure_ascii=False,
    allow_nan=False,
)


def canonical_dumps(value: Any) -> str:
    """Render a JSON-compatible value in canonical text form."""
    try:
        return _ENCODER.encode(value)
    except (TypeError, ValueError) as exc:
        raise CanonicalError(str(exc)) from exc


def canonical_bytes(value: Any) -> bytes:
    """Canonical UTF-8 bytes of a JSON-compatible value."""
    return canonical_dumps(value).encode("utf-8")


def canonical_loads(data: bytes | str) -> Any:
    """Parse a canonical (or merely valid JSON) document."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise CanonicalError(f"invalid document: {exc}") from exc


def loads_object(
    data: bytes | str, error: type[ValueError], what: str
) -> dict[str, Any]:
    """Parse a document that must be a JSON object; any failure raises error."""
    try:
        doc = canonical_loads(data)
    except (ValueError, RecursionError) as exc:
        raise error(f"cannot read {what}: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{what} must hold a JSON object, not {type(doc).__name__}")
    return doc


def load_object(path: Path, error: type[ValueError], what: str) -> dict[str, Any]:
    """Read and parse a document file that must hold one JSON object."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    return loads_object(data, error, f"{what} {path}")


def of_type(value: Any, kind: type, what: str) -> Any:
    """value if its type is exactly kind, else TypeError. Exactly, because
    JSON's true decodes to a bool, which Python counts as an int."""
    if type(value) is not kind:
        raise TypeError(f"{what} must be {kind.__name__}, not {type(value).__name__}")
    return value


def is_hex_digest(value: Any, *, nbytes: int = 32) -> bool:
    """True if value is a lowercase-hex rendering of an nbytes digest."""
    if not isinstance(value, str) or len(value) != 2 * nbytes:
        return False
    return all(c in "0123456789abcdef" for c in value)
