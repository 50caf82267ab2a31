"""Canonical structured-text serialization shared by every file format.

One canonicalizer, one audit surface: whitelists, proofs, certificates,
attestations, provenance records, and the WASM boundary documents all hash
and round-trip through this module. The canonical form is JSON with sorted
keys, no insignificant whitespace, UTF-8 bytes, and digests rendered as
lowercase hex. Identical values produce identical bytes on every platform.

Every failure to encode is a CanonicalError: a value of a type JSON does
not have, a NaN or infinity, a string holding a lone surrogate (which has no
UTF-8 form), and a value that is cyclic or nested too deeply to encode.

The form has sorted keys and no whitespace (RFC 8785 section 3.2.3), so a
document can be spliced from members already encoded: `join_list` and
`object_writer` are the one writer of such documents, and give the bytes
`canonical_bytes` gives the whole value.

Every document that comes from outside, file or line, is read here too:
`load_object`, `loads_object` and `load_lines` accept JSON objects and turn
any other input (unreadable, not JSON, not an object) into the caller's
format error, and every decoder reads its fields through the typed readers
(`read_field`, `read_int`, `read_hex`, `read_list`), which refuse a field
that is missing or of another type or shape, and name it.
"""

from __future__ import annotations

import json
import math
import re
from json.encoder import c_make_encoder, encode_basestring
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping


class CanonicalError(ValueError):
    """The value cannot be represented in the canonical form."""


# built once: json.dumps builds an encoder on every call with these flags.
# No cycle markers: the C encoder's recursion guard already stops a cyclic
# value (as a RecursionError, like one nested too deeply), and the markers
# cost every encode a dict entry per list and object.
_ENCODER = json.JSONEncoder(
    sort_keys=True,
    separators=(",", ":"),
    ensure_ascii=False,
    allow_nan=False,
    check_circular=False,
)


if c_make_encoder is None:  # no C accelerator: the encoder's own path
    _encode = _ENCODER.encode
else:
    # JSONEncoder.encode builds a C encoder on every call; this one is built
    # once, with the arguments encode passes it
    _iterencode = c_make_encoder(
        None,
        _ENCODER.default,
        encode_basestring,
        _ENCODER.indent,
        _ENCODER.key_separator,
        _ENCODER.item_separator,
        _ENCODER.sort_keys,
        _ENCODER.skipkeys,
        _ENCODER.allow_nan,
    )

    def _encode(value: Any) -> str:
        if isinstance(value, str):  # encode's fast path
            return encode_basestring(value)
        return "".join(_iterencode(value, 0))


def canonical_dumps(value: Any) -> str:
    """Render a JSON-compatible value in canonical text form."""
    try:
        return _encode(value)
    except (TypeError, ValueError, RecursionError) as exc:
        raise CanonicalError(str(exc)) from exc


def canonical_bytes(value: Any) -> bytes:
    """Canonical UTF-8 bytes of a JSON-compatible value."""
    text = canonical_dumps(value)
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise CanonicalError(f"no UTF-8 form: {exc}") from exc


def join_list(members: Iterable[bytes]) -> bytes:
    """The canonical bytes of a list, from the canonical bytes of its members."""
    return b"[" + b",".join(members) + b"]"


def object_writer(*keys: str) -> Callable[..., bytes]:
    """A writer of objects that have exactly these keys.

    Called with the canonical bytes of each key's value, in the order the
    keys are given here, it returns the object's canonical bytes: each
    member is its key's canonical string, a colon and those bytes, in the
    key order sort_keys gives. The layout is worked out here, once."""
    if len(set(keys)) != len(keys) or not all(isinstance(k, str) for k in keys):
        raise CanonicalError(f"object keys must be distinct strings: {keys!r}")
    order = sorted(range(len(keys)), key=keys.__getitem__)
    template = b"{%s}" % b",".join(
        canonical_bytes(keys[i]).replace(b"%", b"%%") + b":%s" for i in order
    )
    pick = itemgetter(*order) if len(keys) > 1 else tuple

    def write(*values: bytes) -> bytes:
        return template % pick(values)

    return write


def _refuse(text: str) -> Any:
    raise CanonicalError(f"invalid document: {text} has no canonical form")


def _finite_float(text: str) -> float:
    value = float(text)
    return value if math.isfinite(value) else _refuse(text)


# built once, like _ENCODER, and refusing the numbers the encoder refuses: a
# NaN or an infinity is stopped on the way in, not after an effect on the way out
_DECODER = json.JSONDecoder(parse_constant=_refuse, parse_float=_finite_float)


_SURROGATE = re.compile("[\ud800-\udfff]")


def _holds_surrogate(value: Any) -> bool:
    """Whether a string or key anywhere in a decoded value holds a surrogate.

    The decoder joins each escaped pair into one character, so any surrogate
    left is alone. Iterative, so that depth costs no recursion."""
    pending = [value]
    while pending:
        item = pending.pop()
        if type(item) is str:
            if _SURROGATE.search(item):
                return True
        elif type(item) is list:
            pending.extend(item)
        elif type(item) is dict:
            pending.extend(item)
            pending.extend(item.values())
    return False


def canonical_loads(data: bytes | str) -> Any:
    """Parse a canonical (or merely valid JSON) document.

    The literals NaN, Infinity and -Infinity, a number too large for a
    float (1e999), and a string or key holding a lone surrogate ("\\ud800")
    have no canonical form and are refused; -0.0 and 1e308 are read as
    floats. A document nested too deeply for the parser is invalid too, so
    every failure to parse is a CanonicalError (or the ValueError of bytes
    that are not UTF-8).
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")  # strict: it lets no surrogate through
    elif _SURROGATE.search(data):
        _refuse("a lone surrogate")
    try:
        value = _DECODER.decode(data)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CanonicalError(f"invalid document: {exc}") from exc
    # only an escape makes a surrogate, and text with no backslash holds none
    if "\\" in data and _holds_surrogate(value):
        _refuse("a lone surrogate")
    return value


def loads_object(
    data: bytes | str, error: type[ValueError], what: str
) -> dict[str, Any]:
    """Parse a document that must be a JSON object; any failure raises error."""
    try:
        doc = canonical_loads(data)
    except ValueError as exc:
        raise error(f"cannot read {what}: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{what} must hold a JSON object, not {type(doc).__name__}")
    return doc


def _read_bytes(path: Path, error: type[ValueError], what: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def load_object(path: Path, error: type[ValueError], what: str) -> dict[str, Any]:
    """Read and parse a document file that must hold one JSON object."""
    return loads_object(_read_bytes(path, error, what), error, f"{what} {path}")


def load_lines(path: Path, error: type[ValueError], what: str) -> list[dict[str, Any]]:
    """Read a file that holds one JSON object a line; blank lines are skipped."""
    return [
        loads_object(line, error, f"{what} {path} line {number}")
        for number, line in enumerate(_read_bytes(path, error, what).splitlines(), 1)
        if line.strip()
    ]


_HEX_DIGITS = frozenset("0123456789abcdef")


def read_field(doc: Mapping[str, Any], key: str, kind: type) -> Any:
    """doc[key] if its JSON type is exactly kind, so that true is no int."""
    if key not in doc:
        raise ValueError(f"missing field {key}")
    if type(doc[key]) is not kind:
        raise TypeError(f"{key} must be {kind.__name__}, not {type(doc[key]).__name__}")
    return doc[key]


def read_int(doc: Mapping[str, Any], key: str, minimum: int | None = None) -> int:
    """doc[key] if it is an int (not a bool, float or string) >= minimum."""
    value = read_field(doc, key, int)
    if minimum is not None and value < minimum:
        raise ValueError(f"{key} must be >= {minimum}, not {value}")
    return value


def parse_hex(text: str, nbytes: int, name: str) -> bytes:
    """The nbytes that text spells in exactly 2 * nbytes lowercase hex digits.

    The one hex reader for documents, key files and keys given on the
    command line, so none of them takes uppercase or spaced hex."""
    if len(text) != 2 * nbytes or not _HEX_DIGITS.issuperset(text):
        raise ValueError(f"{name} must be {nbytes} bytes in lowercase hex")
    return bytes.fromhex(text)


def read_hex(doc: Mapping[str, Any], key: str, nbytes: int) -> bytes:
    """The nbytes that doc[key] spells in exactly 2 * nbytes lowercase hex digits."""
    return parse_hex(read_field(doc, key, str), nbytes, key)


def read_list(doc: Mapping[str, Any], key: str, read: Callable, *args: Any) -> tuple:
    """Each item of the list doc[key], read by read(..., *args) as the field key[i]."""
    named = {f"{key}[{i}]": item for i, item in enumerate(read_field(doc, key, list))}
    return tuple(read(named, name, *args) for name in named)
