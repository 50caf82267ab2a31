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
memo.BoundedMemo, it is safe for threads.

A binary never seen before still shares its entries with earlier ones: the
gate admits only exact whitelist entries, so honest modules declare few
distinct types and imports. Each distinct type entry (keyed by its bytes)
is decoded to one shared FuncType, and each distinct function import (keyed
by the bytes of its two names and its FuncType) to one shared ImportRecord,
which encodes its canonical bytes at most once; ImportRecord.from_json
returns the same record for equal fields. Two bounded memos hold them (256
types, 512 records). A key is short: an entry is interned only when each
of its lengths, counts and indices takes one byte, so its bytes are at most
257, and an import's type has at most 256 value types. Any other entry, and
every entry of a bytearray or a bytes subclass, is decoded as before; the
lookup itself reads only bytes within the section and never raises, so
every MalformedBinary keeps its message.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Mapping, Sequence

from .canonical import canonical_bytes, read_field
from .memo import BoundedMemo

WASM_MAGIC = b"\x00asm"
WASM_VERSION = b"\x01\x00\x00\x00"
MAX_BINARY_BYTES = 64 * 1024 * 1024

SECTION_TYPE = 1
SECTION_IMPORT = 2
# the place of each non-custom section in the order the spec requires:
# ids 1-9, then data count (12), code (10) and data (11)
_SECTION_RANK = {
    section_id: rank
    for rank, section_id in enumerate((1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 10, 11), 1)
}

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

    @cached_property
    def encoded(self) -> bytes:
        """The canonical bytes of to_json(), encoded at most once per record:
        the fields are frozen, so they cannot go stale."""
        return canonical_bytes(self.to_json())

    @classmethod
    def from_json(cls, obj: Mapping[str, Any]) -> "ImportRecord":
        """The record obj describes: the interned one when its fields are
        short, so a proof read from a file shares the decoder's records."""
        keys = ("namespace", "name", "kind", "type_signature")
        namespace, name, kind, signature = (read_field(obj, key, str) for key in keys)
        if kind not in IMPORT_KINDS:
            raise ValueError(f"unknown import kind: {kind!r}")
        return _interned(namespace, name, kind, signature)


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


# the spec's bound on a memory's size, in 64 KiB pages (4 GiB)
MAX_PAGES = 65536


def _limits_at(
    data: bytes, pos: int, end: int, memory: bool = False
) -> tuple[tuple[int, int | None], int]:
    """Memory or table limits at pos: ((min, max or None), next pos).

    The minimum may not exceed the maximum, and a memory's limits may not
    exceed MAX_PAGES, as the spec's validation requires.
    """
    flag = _byte_at(data, pos, end)
    if flag == 0x00:
        lo, pos = _u32_at(data, pos + 1, end)
        hi = None
    elif flag == 0x01:
        lo, pos = _u32_at(data, pos + 1, end)
        hi, pos = _u32_at(data, pos, end)
        if lo > hi:
            raise MalformedBinary("size minimum must not be greater than maximum")
    else:
        raise MalformedBinary(f"invalid limits flag 0x{flag:02x}")
    if memory and max(lo, hi or 0) > MAX_PAGES:
        raise MalformedBinary(f"memory size must be at most {MAX_PAGES} pages (4GiB)")
    return (lo, hi), pos


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


def _func_type_at(data: bytes, pos: int, end: int) -> tuple[FuncType, int]:
    """The type section entry at pos: (its function type, next pos)."""
    if pos >= end:
        raise MalformedBinary("truncated binary")
    if data[pos] != 0x60:
        raise MalformedBinary("type section entry is not a function type")
    params, pos = _valtypes(data, pos + 1, end)
    results, pos = _valtypes(data, pos, end)
    return (params, results), pos


def _func_type(entry: bytes) -> FuncType:
    """The function type of a type section entry's own bytes."""
    return _func_type_at(entry, 0, len(entry))[0]


def _type_entry_end(data: bytes, pos: int, end: int) -> int:
    """Where the type entry at pos ends, if it can be interned: it is in
    exact bytes, both its counts take one byte (so it is at most 257 bytes
    long), and it ends before end. Else 0. Reads only bytes before end,
    never raises."""
    if type(data) is not bytes or pos + 3 > end or data[pos] != 0x60:
        return 0
    at = pos + 2 + data[pos + 1]  # the results count, when params' is one byte
    if data[pos + 1] >= 0x80 or at >= end or data[at] >= 0x80:
        return 0
    stop = at + 1 + data[at]
    return stop if stop <= end else 0


def _read_types(data: bytes, pos: int, end: int) -> tuple[tuple[FuncType, ...], int]:
    """The type section's entries at pos: (types, next pos)."""
    count, pos = _u32_at(data, pos, end)
    types = []
    for _ in range(count):
        stop = _type_entry_end(data, pos, end)
        if stop:
            entry = data[pos:stop]
            types.append(_FUNC_TYPES.get(entry, _func_type, entry))
            pos = stop
        else:
            func_type, pos = _func_type_at(data, pos, end)
            types.append(func_type)
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
        limits, pos = _limits_at(data, pos, end, memory=True)
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


def _function_import_end(
    data: bytes, pos: int, end: int, types: tuple[FuncType, ...]
) -> int:
    """Where the import entry at pos ends, if it can be interned: it is in
    exact bytes, a function import whose name lengths and type index take
    one byte each (so its names are at most 256 bytes long), its type index
    is in types, and its type has at most _ENTRY_KEY_MAX value types. Else
    0. Reads only bytes before end, never raises."""
    if type(data) is not bytes or pos >= end or data[pos] >= 0x80:
        return 0
    at = pos + 1 + data[pos]  # the name's length
    if at >= end or data[at] >= 0x80:
        return 0
    at += 1 + data[at]  # the descriptor
    if at + 1 >= end or data[at] != 0x00 or data[at + 1] >= min(len(types), 0x80):
        return 0
    params, results = types[data[at + 1]]
    return at + 2 if len(params) + len(results) <= _ENTRY_KEY_MAX else 0


def _function_import(names: bytes, func_type: FuncType) -> ImportRecord:
    """The record of a function import of this type whose namespace and
    name are the length-prefixed names."""
    namespace, pos = _name_at(names, 0, len(names))
    name, _ = _name_at(names, pos, len(names))
    if not namespace or not name:
        raise MalformedBinary("empty import namespace or name")
    signature = render_func_signature(*func_type)
    return _interned(namespace, name, "function", signature)


def _interned(namespace: str, name: str, kind: str, signature: str) -> ImportRecord:
    """The one ImportRecord of these fields in the entry memo when they take
    at most _ENTRY_KEY_MAX characters; else a new one."""
    fields = (namespace, name, kind, signature)
    if len(namespace) + len(name) + len(kind) + len(signature) > _ENTRY_KEY_MAX:
        return ImportRecord(*fields)
    return _IMPORTS.get(fields, ImportRecord, *fields)


def _read_imports(
    data: bytes, pos: int, end: int, types: tuple[FuncType, ...]
) -> tuple[list[ImportRecord], list[FuncType], int]:
    """The import section's entries at pos: (records, the types of the
    function imports, next pos)."""
    count, pos = _u32_at(data, pos, end)
    signatures: list[str | None] = [None] * len(types)  # rendered on first use
    records: list[ImportRecord] = []
    func_types: list[FuncType] = []
    for _ in range(count):
        stop = _function_import_end(data, pos, end, types)
        if stop:
            func_type = types[data[stop - 1]]
            names = data[pos : stop - 2]
            records.append(
                _IMPORTS.get((names, func_type), _function_import, names, func_type)
            )
            func_types.append(func_type)
            pos = stop
            continue
        namespace, pos = _name_at(data, pos, end)
        name, pos = _name_at(data, pos, end)
        if not namespace or not name:
            raise MalformedBinary("empty import namespace or name")
        if pos >= end:
            raise MalformedBinary("truncated binary")
        desc = data[pos]
        if desc != 0x00:
            record, pos = _other_import(data, pos + 1, end, namespace, name, desc)
            records.append(record)
            continue
        typeidx, pos = _u32_at(data, pos + 1, end)
        if typeidx >= len(types):
            raise MalformedBinary(f"import references unknown type index {typeidx}")
        sig = signatures[typeidx]
        if sig is None:
            sig = signatures[typeidx] = render_func_signature(*types[typeidx])
        records.append(ImportRecord(namespace, name, "function", sig))
        func_types.append(types[typeidx])
    return records, func_types, pos


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
    last = 0  # _SECTION_RANK of the last non-custom section
    types: tuple[FuncType, ...] = ()
    records: list[ImportRecord] = []
    func_types: list[FuncType] = []
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
            if _SECTION_RANK[section_id] < last:
                raise MalformedBinary(f"section id {section_id} out of order")
            last = _SECTION_RANK[section_id]
        pos = start + size
        if pos > end:
            raise MalformedBinary("truncated binary")
        if section_id == SECTION_TYPE:
            types, stop = _read_types(data, start, pos)
        elif section_id == SECTION_IMPORT:
            records, func_types, stop = _read_imports(data, start, pos, types)
        else:
            sections.append((section_id, start, pos))
            continue
        if stop != pos:
            name = "type" if section_id == SECTION_TYPE else "import"
            raise MalformedBinary(f"trailing bytes in {name} section")
    return ModuleHeader(
        types=types,
        imports=tuple(records),
        func_import_types=tuple(func_types),
        sections=tuple(sections),
    )


# Each distinct type entry and import record is made once per process: the
# gate admits only exact whitelist entries, so honest entries are few. One-byte
# lengths and counts keep a type entry's or an import's names' bytes under 258
_ENTRY_KEY_MAX = 256  # value types of an import's type, characters of fields
_FUNC_TYPES = BoundedMemo(256)  # a type entry's bytes -> its FuncType
# the bytes of a function import's names and its FuncType, or its four
# fields -> that ImportRecord
_IMPORTS = BoundedMemo(512)

_HEADER_MEMO_BYTES = 16 * 1024  # every executor in the fixture set is under 1 KiB
_HEADERS = BoundedMemo(64)  # exact bytes -> their ModuleHeader


def by_bytes(memo: BoundedMemo, binary: bytes, make: Callable[..., Any], *args: Any) -> Any:
    """memo.get(binary, make, *args) for an exact bytes object of at most
    16 KiB, else make(*args), kept nowhere."""
    if type(binary) is bytes and len(binary) <= _HEADER_MEMO_BYTES:
        return memo.get(binary, make, *args)
    return make(*args)


def parse_imports(binary_bytes: bytes) -> ModuleImports:
    """Extract the complete import section of a WASM binary, in order."""
    if not binary_bytes:
        raise MalformedBinary("empty input")
    if len(binary_bytes) > MAX_BINARY_BYTES:
        raise MalformedBinary("binary exceeds the 64 MiB acceptance limit")
    header = by_bytes(_HEADERS, binary_bytes, decode_header, binary_bytes)
    return ModuleImports(header=header, binary=binary_bytes)
