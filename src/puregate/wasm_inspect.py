"""Read-only WebAssembly binary inspection.

The single decoder of WASM bytes: the gate, the certifier and the VM all
read a module's section framing, type section and import section through
decode_header(), so they cannot disagree on what a module imports.
parse_imports() is that decoder plus the acceptance size limits; it keeps
the bytes it decoded and hashes them only when a caller reads the artifact
hash. Nothing here executes code or trusts the producer; a binary that
cannot be parsed raises MalformedBinary so the caller rejects it rather
than treating it as import-free.

Every byte is read by one set of positional functions (_u32_at, _s32_at,
_name_at, _limits_at, ...): each takes (data, pos, section end) and returns
the value and the next position, or raises MalformedBinary. The VM reads
the sections after the header through the same functions.

parse_imports() decodes each artifact's header once per process. A repeat
call on the same bytes (an exact bytes object, compared by value) is served
from a bounded memo, so sign_certificate's re-check and gate step 4 take the
header the certifier decoded. It pays only where the certifier and the gate
see the same bytes in one process, and in a lone `puregate certify`, whose
re-check decodes nothing. Gate step 4 stays independent of the proof: a hit
is decode_header's own output on byte-identical input. The memo keeps at
most 64 binaries of at most 16 KiB (1 MiB of keys) and their headers, whose
objects measure at most about 25 bytes per byte decoded. A larger binary, a
bytearray and a bytes subclass (which could redefine equality or hashing)
are decoded on every call, and a MalformedBinary keeps nothing. Like every
memo.BoundedMemo, it is for one thread.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Mapping, Sequence

from .canonical import read_field
from .memo import BoundedMemo

WASM_MAGIC = b"\x00asm"
WASM_VERSION = b"\x01\x00\x00\x00"
MAX_BINARY_BYTES = 64 * 1024 * 1024

SECTION_TYPE = 1
SECTION_IMPORT = 2

_VALTYPE = {
    0x7F: "i32",
    0x7E: "i64",
    0x7D: "f32",
    0x7C: "f64",
    0x7B: "v128",
    0x70: "funcref",
    0x6F: "externref",
}

IMPORT_KINDS = ("function", "table", "memory", "global")


class MalformedBinary(ValueError):
    """The bytes are not a parseable WASM module; reject the artifact."""


def hash_bytes(data: bytes) -> bytes:
    """SHA-256 digest of data (32 raw bytes; rendered lowercase hex in files)."""
    return hashlib.sha256(data).digest()


@dataclass(frozen=True)
class ImportRecord:
    """One entry of a module's import section, exactly as declared."""

    namespace: str
    name: str
    kind: str
    type_signature: str

    def to_json(self) -> dict[str, Any]:
        return {
            "namespace": self.namespace,
            "name": self.name,
            "kind": self.kind,
            "type_signature": self.type_signature,
        }

    @classmethod
    def from_json(cls, obj: Mapping[str, Any]) -> "ImportRecord":
        keys = ("namespace", "name", "kind", "type_signature")
        rec = cls(*(read_field(obj, key, str) for key in keys))
        if rec.kind not in IMPORT_KINDS:
            raise ValueError(f"unknown import kind: {rec.kind!r}")
        return rec


def _u32_at(data: bytes, pos: int, end: int) -> tuple[int, int]:
    """Unsigned LEB128 at pos, at most 5 bytes, fitting 32 bits: (value, next pos)."""
    if pos < end and data[pos] < 0x80:  # almost every integer of a small module
        return data[pos], pos + 1
    result = 0
    shift = 0
    for _ in range(5):
        if pos >= end:
            raise MalformedBinary("truncated binary")
        b = data[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if not (b & 0x80):
            if result >= 1 << 32:
                raise MalformedBinary("LEB128 value exceeds u32")
            return result, pos
        shift += 7
    raise MalformedBinary("overlong LEB128 encoding")


def _s32_at(data: bytes, pos: int, end: int) -> tuple[int, int]:
    """Signed LEB128 at pos, at most 5 bytes, fitting 32 bits: (value, next pos)."""
    if pos < end and data[pos] < 0x80:  # one byte, its sign in bit 6
        b = data[pos]
        return (b - 0x80 if b & 0x40 else b), pos + 1
    result = 0
    shift = 0
    for _ in range(5):
        if pos >= end:
            raise MalformedBinary("truncated binary")
        b = data[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        shift += 7
        if not (b & 0x80):
            # a fifth byte's bits 4-6 must copy bit 3, the sign of an i32
            if shift == 35 and (b & 0x78) not in (0x00, 0x78):
                raise MalformedBinary("signed LEB128 value exceeds s32")
            if b & 0x40:
                result -= 1 << shift
            return result, pos
    raise MalformedBinary("overlong signed LEB128")


def _vec_at(data: bytes, pos: int, end: int) -> tuple[bytes, int]:
    """A length-prefixed byte vector at pos: (bytes, next pos)."""
    n, pos = _u32_at(data, pos, end)
    stop = pos + n
    if stop > end:
        raise MalformedBinary("truncated binary")
    return data[pos:stop], stop


def _name_at(data: bytes, pos: int, end: int) -> tuple[str, int]:
    """A length-prefixed UTF-8 name at pos: (name, next pos)."""
    # _vec_at inlined: names are most of the reads of an import section
    n, pos = _u32_at(data, pos, end)
    stop = pos + n
    if stop > end:
        raise MalformedBinary("truncated binary")
    try:
        return data[pos:stop].decode("utf-8"), stop
    except UnicodeDecodeError as exc:
        raise MalformedBinary("import name is not valid UTF-8") from exc


def _byte_at(data: bytes, pos: int, end: int) -> int:
    """The byte at pos, which must lie before end."""
    if pos >= end:
        raise MalformedBinary("truncated binary")
    return data[pos]


def _valtype_at(data: bytes, pos: int, end: int) -> str:
    """The value type whose one-byte code is at pos."""
    b = _byte_at(data, pos, end)
    if b not in _VALTYPE:
        raise MalformedBinary(f"unknown value type 0x{b:02x}")
    return _VALTYPE[b]


def _limits_at(data: bytes, pos: int, end: int) -> tuple[tuple[int, int | None], int]:
    """Memory or table limits at pos: ((min, max or None), next pos)."""
    flag = _byte_at(data, pos, end)
    if flag == 0x00:
        lo, pos = _u32_at(data, pos + 1, end)
        return (lo, None), pos
    if flag == 0x01:
        lo, pos = _u32_at(data, pos + 1, end)
        hi, pos = _u32_at(data, pos, end)
        return (lo, hi), pos
    raise MalformedBinary(f"invalid limits flag 0x{flag:02x}")


FuncType = tuple[tuple[str, ...], tuple[str, ...]]  # (params, results)


@dataclass(frozen=True)
class ModuleHeader:
    """Framing, type and import sections of a module, decoded once.

    func_import_types holds the type of each function-kind import, in
    import order; sections holds (id, start, end) of every other section.
    """

    types: tuple[FuncType, ...]
    imports: tuple[ImportRecord, ...]
    func_import_types: tuple[FuncType, ...]
    sections: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class ModuleImports:
    """A module's decoded header and the bytes it was decoded from.

    The gate hands the header on with its acceptance, so the VM decodes
    only the sections after it.
    """

    header: ModuleHeader
    binary: bytes = field(repr=False)

    @property
    def imports(self) -> tuple[ImportRecord, ...]:
        return self.header.imports

    @cached_property
    def artifact_hash(self) -> bytes:
        """SHA-256 of the full binary, taken on first read."""
        return hash_bytes(self.binary)


def render_func_signature(params: Sequence[str], results: Sequence[str]) -> str:
    """Canonical text form of a function type, e.g. "(i32, i32) -> ()"."""
    left = "(" + ", ".join(params) + ")"
    if len(results) == 1:
        right = results[0]
    else:
        right = "(" + ", ".join(results) + ")"
    return f"{left} -> {right}"


def _valtypes(data: bytes, pos: int, end: int) -> tuple[tuple[str, ...], int]:
    """A vector of value types at pos: (types, next pos)."""
    n, pos = _u32_at(data, pos, end)
    stop = pos + n
    chunk = data[pos : stop if stop <= end else end]
    try:
        types = tuple([_VALTYPE[b] for b in chunk])
    except KeyError:
        b = next(b for b in chunk if b not in _VALTYPE)
        raise MalformedBinary(f"unknown value type 0x{b:02x}") from None
    if stop > end:
        raise MalformedBinary("truncated binary")
    return types, stop


def _read_types(data: bytes, pos: int, end: int) -> tuple[tuple[FuncType, ...], int]:
    """The type section's entries at pos: (types, next pos)."""
    count, pos = _u32_at(data, pos, end)
    types = []
    for _ in range(count):
        if pos >= end:
            raise MalformedBinary("truncated binary")
        if data[pos] != 0x60:
            raise MalformedBinary("type section entry is not a function type")
        params, pos = _valtypes(data, pos + 1, end)
        results, pos = _valtypes(data, pos, end)
        types.append((params, results))
    return tuple(types), pos


def _render_limits(limits: tuple[int, int | None]) -> str:
    lo, hi = limits
    return f"{lo}" if hi is None else f"{lo} {hi}"


def _other_import(
    data: bytes, pos: int, end: int, namespace: str, name: str, desc: int
) -> tuple[ImportRecord, int]:
    """A table, memory or global import whose descriptor byte precedes pos:
    (record, next pos)."""
    if desc == 0x01:
        reftype = _valtype_at(data, pos, end)
        if reftype not in ("funcref", "externref"):
            raise MalformedBinary(f"table element type {reftype} is not a reftype")
        limits, pos = _limits_at(data, pos + 1, end)
        sig = f"(table {_render_limits(limits)} {reftype})"
        return ImportRecord(namespace, name, "table", sig), pos
    if desc == 0x02:
        limits, pos = _limits_at(data, pos, end)
        sig = f"(memory {_render_limits(limits)})"
        return ImportRecord(namespace, name, "memory", sig), pos
    if desc == 0x03:
        vt = _valtype_at(data, pos, end)
        mut = _byte_at(data, pos + 1, end)
        if mut not in (0x00, 0x01):
            raise MalformedBinary("invalid global mutability flag")
        sig = f"(global (mut {vt}))" if mut else f"(global {vt})"
        return ImportRecord(namespace, name, "global", sig), pos + 2
    raise MalformedBinary(f"unknown import descriptor 0x{desc:02x}")


def _read_imports(
    data: bytes, pos: int, end: int, types: tuple[FuncType, ...]
) -> tuple[list[tuple[ImportRecord, FuncType | None]], int]:
    """The import section's entries at pos: ((record, function type), next pos)."""
    count, pos = _u32_at(data, pos, end)
    signatures: list[str | None] = [None] * len(types)  # rendered on first use
    decoded: list[tuple[ImportRecord, FuncType | None]] = []
    for _ in range(count):
        namespace, pos = _name_at(data, pos, end)
        name, pos = _name_at(data, pos, end)
        if not namespace or not name:
            raise MalformedBinary("empty import namespace or name")
        if pos >= end:
            raise MalformedBinary("truncated binary")
        desc = data[pos]
        if desc != 0x00:
            record, pos = _other_import(data, pos + 1, end, namespace, name, desc)
            decoded.append((record, None))
            continue
        typeidx, pos = _u32_at(data, pos + 1, end)
        if typeidx >= len(types):
            raise MalformedBinary(f"import references unknown type index {typeidx}")
        sig = signatures[typeidx]
        if sig is None:
            sig = signatures[typeidx] = render_func_signature(*types[typeidx])
        decoded.append((ImportRecord(namespace, name, "function", sig), types[typeidx]))
    return decoded, pos


def decode_header(data: bytes) -> ModuleHeader:
    """The one reader of a module's framing, type and import sections."""
    end = len(data)
    if end < 4:
        raise MalformedBinary("truncated binary")
    if data[:4] != WASM_MAGIC:
        raise MalformedBinary("bad magic bytes")
    if end < 8:
        raise MalformedBinary("truncated binary")
    if data[4:8] != WASM_VERSION:
        raise MalformedBinary("unsupported WASM version")
    pos = 8
    seen: set[int] = set()
    types: tuple[FuncType, ...] = ()
    decoded: list[tuple[ImportRecord, FuncType | None]] = []
    sections: list[tuple[int, int, int]] = []
    while pos < end:
        section_id = data[pos]
        size, start = _u32_at(data, pos + 1, end)
        if section_id > 12:
            raise MalformedBinary(f"unknown section id {section_id}")
        if section_id != 0:
            if section_id in seen:
                raise MalformedBinary(f"duplicate section id {section_id}")
            seen.add(section_id)
        pos = start + size
        if pos > end:
            raise MalformedBinary("truncated binary")
        if section_id == SECTION_TYPE:
            types, stop = _read_types(data, start, pos)
        elif section_id == SECTION_IMPORT:
            decoded, stop = _read_imports(data, start, pos, types)
        else:
            sections.append((section_id, start, pos))
            continue
        if stop != pos:
            name = "type" if section_id == SECTION_TYPE else "import"
            raise MalformedBinary(f"trailing bytes in {name} section")
    return ModuleHeader(
        types=types,
        imports=tuple(rec for rec, _ in decoded),
        func_import_types=tuple(ft for _, ft in decoded if ft is not None),
        sections=tuple(sections),
    )


_HEADER_MEMO_BYTES = 16 * 1024  # every executor in the fixture set is under 1 KiB
_HEADERS = BoundedMemo(64)  # exact bytes -> their ModuleHeader


def parse_imports(binary_bytes: bytes) -> ModuleImports:
    """Extract the complete import section of a WASM binary, in order."""
    if not binary_bytes:
        raise MalformedBinary("empty input")
    if len(binary_bytes) > MAX_BINARY_BYTES:
        raise MalformedBinary("binary exceeds the 64 MiB acceptance limit")
    if type(binary_bytes) is bytes and len(binary_bytes) <= _HEADER_MEMO_BYTES:
        header = _HEADERS.get(binary_bytes, decode_header, binary_bytes)
    else:
        header = decode_header(binary_bytes)
    return ModuleImports(header=header, binary=binary_bytes)
