"""Assembler for a small WebAssembly text-format subset.

Turns the fixture corpus (.wat files) into binary modules deterministically,
so binaries never need to be committed. Supported surface: imports of all
four kinds, one optional local memory, active data segments, flat-form
function bodies over the i32 instruction set, inline and standalone exports.
Instructions are encoded from wasmvm.INSTRUCTIONS, the one definition of the
subset, so the assembler emits exactly what the VM decodes. This is an
assembler, not a validator: it resolves names and emits sections; index
bounds, block structure, stack heights and branch targets are checked and
resolved when the VM decodes the module.

Folded expression bodies are out of scope on purpose; fixture sources are
written flat (plain instruction sequences with block/loop/if ... end).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .wasm_inspect import WASM_MAGIC, WASM_VERSION
from .wasmvm import INSTRUCTIONS


class AssembleError(ValueError):
    """The source is outside the supported subset or malformed."""


# ---------------------------------------------------------------------------
# s-expression reader
# ---------------------------------------------------------------------------

def _tokenize(src: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    n = len(src)
    while i < n:
        c = src[i]
        if c in " \t\r\n":
            i += 1
        elif src.startswith(";;", i):
            j = src.find("\n", i)
            i = n if j < 0 else j + 1
        elif src.startswith("(;", i):
            j = src.find(";)", i)
            if j < 0:
                raise AssembleError("unterminated block comment")
            i = j + 2
        elif c == "(" or c == ")":
            tokens.append(c)
            i += 1
        elif c == '"':
            j = i + 1
            while j < n and src[j] != '"':
                if src[j] == "\\":
                    j += 1
                j += 1
            if j >= n:
                raise AssembleError("unterminated string literal")
            tokens.append(src[i : j + 1])
            i = j + 1
        else:
            j = i
            while j < n and src[j] not in ' \t\r\n()";':
                j += 1
            tokens.append(src[i:j])
            i = j
    return tokens


def _parse_sexpr(tokens: list[str], pos: int) -> tuple[Any, int]:
    tok = tokens[pos]
    if tok == "(":
        items = []
        pos += 1
        while tokens[pos] != ")":
            item, pos = _parse_sexpr(tokens, pos)
            items.append(item)
        return items, pos + 1
    if tok == ")":
        raise AssembleError("unbalanced parenthesis")
    return tok, pos + 1


def parse_sexprs(src: str) -> list[Any]:
    tokens = _tokenize(src)
    out = []
    pos = 0
    while pos < len(tokens):
        node, pos = _parse_sexpr(tokens, pos)
        out.append(node)
    return out


_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "'": "'", "\\": "\\"}


def _string_bytes(token: str) -> bytes:
    if not (token.startswith('"') and token.endswith('"')):
        raise AssembleError(f"expected string literal, got {token!r}")
    body = token[1:-1]
    out = bytearray()
    i = 0
    while i < len(body):
        c = body[i]
        if c != "\\":
            out.extend(c.encode("utf-8"))
            i += 1
            continue
        nxt = body[i + 1]
        if nxt in _ESCAPES:
            out.extend(_ESCAPES[nxt].encode("utf-8"))
            i += 2
        else:
            out.append(int(body[i + 1 : i + 3], 16))
            i += 3
    return bytes(out)


def _string_text(token: str) -> str:
    return _string_bytes(token).decode("utf-8")


# ---------------------------------------------------------------------------
# encoding helpers
# ---------------------------------------------------------------------------

def uleb(value: int) -> bytes:
    if value < 0:
        raise AssembleError("unsigned LEB128 of negative value")
    out = bytearray()
    while True:
        b = value & 0x7F
        value >>= 7
        if value:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def sleb(value: int) -> bytes:
    out = bytearray()
    more = True
    while more:
        b = value & 0x7F
        value >>= 7
        if (value == 0 and not (b & 0x40)) or (value == -1 and (b & 0x40)):
            more = False
        else:
            b |= 0x80
        out.append(b)
    return bytes(out)


def _vec(items: list[bytes]) -> bytes:
    return uleb(len(items)) + b"".join(items)


def _section(section_id: int, payload: bytes) -> bytes:
    return bytes([section_id]) + uleb(len(payload)) + payload


def _name(text: str) -> bytes:
    raw = text.encode("utf-8")
    return uleb(len(raw)) + raw


_VALTYPE_CODE = {"i32": 0x7F, "i64": 0x7E, "f32": 0x7D, "f64": 0x7C}
_REFTYPE_CODE = {"funcref": 0x70, "externref": 0x6F}


# ---------------------------------------------------------------------------
# module model
# ---------------------------------------------------------------------------

@dataclass
class _FuncType:
    params: tuple[str, ...]
    results: tuple[str, ...]

    def encode(self) -> bytes:
        return (
            b"\x60"
            + _vec([bytes([_VALTYPE_CODE[p]]) for p in self.params])
            + _vec([bytes([_VALTYPE_CODE[r]]) for r in self.results])
        )


@dataclass
class _Import:
    namespace: str
    name: str
    kind: str
    desc: Any  # functype index | limits | (limits, reftype) | (valtype, mut)


@dataclass
class _Func:
    name: str | None
    type_index: int
    param_names: list[str | None]
    locals: list[tuple[str | None, str]]
    body: list[Any]
    export: str | None = None


@dataclass
class _ModuleBuilder:
    types: list[_FuncType] = field(default_factory=list)
    imports: list[_Import] = field(default_factory=list)
    funcs: list[_Func] = field(default_factory=list)
    memory: tuple[int, int | None] | None = None
    data: list[tuple[int, bytes]] = field(default_factory=list)
    exports: list[tuple[str, str, int]] = field(default_factory=list)

    def type_index(self, ft: _FuncType) -> int:
        for i, existing in enumerate(self.types):
            if existing == ft:
                return i
        self.types.append(ft)
        return len(self.types) - 1


def _parse_sig(items: list[Any]) -> tuple[_FuncType, list[str | None], list[Any]]:
    """Split leading (param ...)/(result ...) clauses from a func form."""
    params: list[str] = []
    param_names: list[str | None] = []
    results: list[str] = []
    rest = list(items)
    while rest and isinstance(rest[0], list) and rest[0] and rest[0][0] in (
        "param",
        "result",
    ):
        clause = rest.pop(0)
        if clause[0] == "param":
            body = clause[1:]
            if body and isinstance(body[0], str) and body[0].startswith("$"):
                param_names.append(body[0])
                params.extend(body[1:])
            else:
                param_names.extend([None] * len(body))
                params.extend(body)
        else:
            results.extend(clause[1:])
    for t in params + results:
        if t not in _VALTYPE_CODE:
            raise AssembleError(f"unsupported value type {t!r}")
    return _FuncType(tuple(params), tuple(results)), param_names, rest


def _parse_limits(items: list[Any]) -> tuple[int, int | None]:
    nums = [int(x) for x in items]
    if len(nums) == 1:
        return nums[0], None
    if len(nums) == 2:
        return nums[0], nums[1]
    raise AssembleError(f"bad limits: {items!r}")


def _encode_limits(limits: tuple[int, int | None]) -> bytes:
    lo, hi = limits
    if hi is None:
        return b"\x00" + uleb(lo)
    return b"\x01" + uleb(lo) + uleb(hi)


# ---------------------------------------------------------------------------
# instruction encoding
# ---------------------------------------------------------------------------

def _int_atom(tok: str) -> int:
    return int(tok, 0)


def _i32_atom(tok: str) -> int:
    """An i32 literal as the signed value its s32 immediate encodes: the text
    format reads -2**31 .. 2**32 - 1 and wraps the upper half."""
    value = _int_atom(tok)
    if not -(2**31) <= value < 2**32:
        raise AssembleError(f"i32 constant {tok} out of range")
    return value - 2**32 if value >= 2**31 else value


def _encode_body(
    body: list[Any],
    func_index: dict[str, int],
    local_index: dict[str, int],
) -> bytes:
    out = bytearray()
    items = list(body)
    pos = 0

    def resolve(table: dict[str, int], tok: str, what: str) -> int:
        if tok.startswith("$"):
            if tok not in table:
                raise AssembleError(f"unknown {what} {tok}")
            return table[tok]
        return _int_atom(tok)

    while pos < len(items):
        tok = items[pos]
        pos += 1
        if isinstance(tok, list):
            raise AssembleError(
                f"folded expression {tok[:1]}... not supported; write flat bodies"
            )
        if tok not in INSTRUCTIONS:
            raise AssembleError(f"unsupported instruction {tok!r}")
        opcode, kind, _, _ = INSTRUCTIONS[tok]
        out.append(opcode)
        if kind == "blocktype":
            # optional (result t) annotation immediately after
            if (
                pos < len(items)
                and isinstance(items[pos], list)
                and items[pos]
                and items[pos][0] == "result"
            ):
                clause = items[pos]
                pos += 1
                if len(clause) != 2 or clause[1] not in _VALTYPE_CODE:
                    raise AssembleError(f"bad block result {clause!r}")
                out.append(_VALTYPE_CODE[clause[1]])
            else:
                out.append(0x40)  # empty block type
        elif kind in ("label", "local", "func", "i32"):
            operand = items[pos]
            pos += 1
            if kind == "i32":
                out.extend(sleb(_i32_atom(operand)))
            elif kind == "local":
                out.extend(uleb(resolve(local_index, operand, "local")))
            elif kind == "func":
                out.extend(uleb(resolve(func_index, operand, "function")))
            else:
                out.extend(uleb(_int_atom(operand)))
        elif kind == "zero":
            out.append(0x00)
        elif kind.startswith("memarg"):
            align = int(kind[len("memarg") :])
            offset = 0
            while pos < len(items) and isinstance(items[pos], str):
                if items[pos].startswith("offset="):
                    offset = _int_atom(items[pos].split("=", 1)[1])
                    pos += 1
                elif items[pos].startswith("align="):
                    align = _int_atom(items[pos].split("=", 1)[1]).bit_length() - 1
                    pos += 1
                else:
                    break
            out.extend(uleb(align))
            out.extend(uleb(offset))
    return bytes(out)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def _build(module_form: list[Any]) -> _ModuleBuilder:
    mb = _ModuleBuilder()
    for form in module_form:
        if not isinstance(form, list) or not form:
            raise AssembleError(f"unexpected module field {form!r}")
        head = form[0]
        if head == "import":
            _build_import(mb, form)
        elif head == "memory":
            if mb.memory is not None:
                raise AssembleError("multiple memories not supported")
            mb.memory = _parse_limits(form[1:])
        elif head == "data":
            offset_form = form[1]
            if (
                not isinstance(offset_form, list)
                or offset_form[0] != "i32.const"
            ):
                raise AssembleError("data offset must be (i32.const N)")
            offset = _i32_atom(offset_form[1])
            payload = b"".join(_string_bytes(tok) for tok in form[2:])
            mb.data.append((offset, payload))
        elif head == "func":
            _build_func(mb, form)
        elif head == "export":
            export_name = _string_text(form[1])
            desc = form[2]
            mb.exports.append((export_name, desc[0], desc[1]))
        else:
            raise AssembleError(f"unsupported module field {head!r}")
    return mb


def _build_import(mb: _ModuleBuilder, form: list[Any]) -> None:
    if mb.funcs:
        raise AssembleError("imports must precede function definitions")
    namespace = _string_text(form[1])
    name = _string_text(form[2])
    desc = form[3]
    kind = desc[0]
    if kind == "func":
        items = desc[1:]
        func_name = None
        if items and isinstance(items[0], str) and items[0].startswith("$"):
            func_name = items[0]
            items = items[1:]
        ft, _, rest = _parse_sig(items)
        if rest:
            raise AssembleError("imported functions have no body")
        mb.imports.append(
            _Import(namespace, name, "func", (mb.type_index(ft), func_name))
        )
    elif kind == "memory":
        mb.imports.append(_Import(namespace, name, "memory", _parse_limits(desc[1:])))
    elif kind == "table":
        reftype = desc[-1]
        if reftype not in _REFTYPE_CODE:
            raise AssembleError(f"bad table reftype {reftype!r}")
        limits = _parse_limits(desc[1:-1])
        mb.imports.append(_Import(namespace, name, "table", (limits, reftype)))
    elif kind == "global":
        inner = desc[1]
        if isinstance(inner, list):
            if inner[0] != "mut" or inner[1] not in _VALTYPE_CODE:
                raise AssembleError(f"bad global type {inner!r}")
            mb.imports.append(_Import(namespace, name, "global", (inner[1], True)))
        else:
            if inner not in _VALTYPE_CODE:
                raise AssembleError(f"bad global type {inner!r}")
            mb.imports.append(_Import(namespace, name, "global", (inner, False)))
    else:
        raise AssembleError(f"unsupported import kind {kind!r}")


def _build_func(mb: _ModuleBuilder, form: list[Any]) -> None:
    items = form[1:]
    func_name = None
    export = None
    if items and isinstance(items[0], str) and items[0].startswith("$"):
        func_name = items[0]
        items = items[1:]
    if items and isinstance(items[0], list) and items[0][:1] == ["export"]:
        export = _string_text(items[0][1])
        items = items[1:]
    ft, param_names, rest = _parse_sig(items)
    locals_: list[tuple[str | None, str]] = []
    while rest and isinstance(rest[0], list) and rest[0][:1] == ["local"]:
        clause = rest.pop(0)
        body = clause[1:]
        if body and isinstance(body[0], str) and body[0].startswith("$"):
            locals_.append((body[0], body[1]))
            if len(body) > 2:
                raise AssembleError("named locals take one type each")
        else:
            locals_.extend((None, t) for t in body)
    mb.funcs.append(
        _Func(
            name=func_name,
            type_index=mb.type_index(ft),
            param_names=param_names,
            locals=locals_,
            body=rest,
            export=export,
        )
    )


_EXPORT_KIND_CODE = {"func": 0, "table": 1, "memory": 2, "global": 3}
_IMPORT_DESC_KIND = {"func": 0x00, "table": 0x01, "memory": 0x02, "global": 0x03}


def assemble(source: str) -> bytes:
    """Assemble one (module ...) form into a binary module."""
    forms = parse_sexprs(source)
    if len(forms) != 1 or not isinstance(forms[0], list) or forms[0][:1] != ["module"]:
        raise AssembleError("source must contain exactly one (module ...) form")
    mb = _build(forms[0][1:])

    func_index: dict[str, int] = {}
    n_imported = 0
    for imp in mb.imports:
        if imp.kind == "func":
            _, fname = imp.desc
            if fname:
                func_index[fname] = n_imported
            n_imported += 1
    for i, fn in enumerate(mb.funcs):
        if fn.name:
            func_index[fn.name] = n_imported + i

    # sections
    type_sec = _section(1, _vec([ft.encode() for ft in mb.types]))

    import_entries = []
    for imp in mb.imports:
        entry = _name(imp.namespace) + _name(imp.name)
        entry += bytes([_IMPORT_DESC_KIND[imp.kind]])
        if imp.kind == "func":
            entry += uleb(imp.desc[0])
        elif imp.kind == "memory":
            entry += _encode_limits(imp.desc)
        elif imp.kind == "table":
            limits, reftype = imp.desc
            entry += bytes([_REFTYPE_CODE[reftype]]) + _encode_limits(limits)
        else:
            valtype, mutable = imp.desc
            entry += bytes([_VALTYPE_CODE[valtype], 1 if mutable else 0])
        import_entries.append(entry)
    import_sec = _section(2, _vec(import_entries)) if import_entries else b""

    func_sec = (
        _section(3, _vec([uleb(fn.type_index) for fn in mb.funcs]))
        if mb.funcs
        else b""
    )
    memory_sec = (
        _section(5, _vec([_encode_limits(mb.memory)])) if mb.memory else b""
    )

    export_entries = []
    for fn_i, fn in enumerate(mb.funcs):
        if fn.export is not None:
            export_entries.append(
                _name(fn.export) + b"\x00" + uleb(n_imported + fn_i)
            )
    for export_name, kind, target in mb.exports:
        if kind == "func":
            idx = func_index[target] if target.startswith("$") else int(target)
        elif kind == "memory":
            idx = int(target)
        else:
            raise AssembleError(f"unsupported export kind {kind!r}")
        export_entries.append(
            _name(export_name) + bytes([_EXPORT_KIND_CODE[kind]]) + uleb(idx)
        )
    export_sec = _section(7, _vec(export_entries)) if export_entries else b""

    code_entries = []
    for fn in mb.funcs:
        local_index: dict[str, int] = {}
        for i, pname in enumerate(fn.param_names):
            if pname:
                local_index[pname] = i
        n_params = len(fn.param_names)
        runs: list[bytes] = []
        prev_t: str | None = None
        count = 0
        for i, (lname, t) in enumerate(fn.locals):
            if lname:
                local_index[lname] = n_params + i
            if t == prev_t:
                count += 1
            else:
                if prev_t is not None:
                    runs.append(uleb(count) + bytes([_VALTYPE_CODE[prev_t]]))
                prev_t = t
                count = 1
        if prev_t is not None:
            runs.append(uleb(count) + bytes([_VALTYPE_CODE[prev_t]]))
        body = _encode_body(fn.body, func_index, local_index) + b"\x0b"
        entry = _vec(runs) + body
        code_entries.append(uleb(len(entry)) + entry)
    code_sec = _section(10, _vec(code_entries)) if code_entries else b""

    data_entries = [
        b"\x00" + b"\x41" + sleb(offset) + b"\x0b" + uleb(len(payload)) + payload
        for offset, payload in mb.data
    ]
    data_sec = _section(11, _vec(data_entries)) if data_entries else b""

    return (
        WASM_MAGIC
        + WASM_VERSION
        + type_sec
        + import_sec
        + func_sec
        + memory_sec
        + export_sec
        + code_sec
        + data_sec
    )
