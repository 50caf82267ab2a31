"""Canonical structured-text serialization shared by every file format.

One canonicalizer, one audit surface: whitelists, proofs, certificates,
attestations, provenance records, and the WASM boundary documents all hash
and round-trip through this module. The canonical form is JSON with sorted
keys, no insignificant whitespace, UTF-8 bytes, and digests rendered as
lowercase hex. Identical values produce identical bytes on every platform.
"""

from __future__ import annotations

import json
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


def is_hex_digest(value: Any, *, nbytes: int = 32) -> bool:
    """True if value is a lowercase-hex rendering of an nbytes digest."""
    if not isinstance(value, str) or len(value) != 2 * nbytes:
        return False
    return all(c in "0123456789abcdef" for c in value)
