"""Minimal in-process WebAssembly virtual machine.

Executes the i32 subset the fixture corpus uses: structured control flow,
locals, linear memory with active data segments, host-function imports, and
metered execution (instruction fuel, memory ceiling, wall-clock deadline).
No package index here ships a WASM runtime, so this repo carries its own;
it is an interpreter for gate-accepted modules, not a general engine:
floats, i64, tables, globals, and element/start sections are rejected at
decode. Every defined function, block type and call is i32-only; an
imported function may declare another numeric type (the host signature
check resolves it) but no code may call it.

The subset is defined once, by INSTRUCTIONS, with each instruction's
operand-stack pops and pushes; the assembler encodes from it and the
decoder rejects every opcode outside it. Each function body is decoded and
validated in one pass: it tracks the operand-stack height, checks every
block's result count, block types and memarg alignments, rejects
out-of-range local, function and branch indices and more than MAX_LOCALS
locals and memory instructions in a module without a memory, and resolves
every branch to its target, the stack height to cut back to and the count
of values kept. Execution therefore keeps no label stack and checks no
stack heights. Calls nest at most MAX_CALL_DEPTH deep; deeper recursion
traps.

Each decoded body is split into basic blocks: straight-line runs that start
at a branch target or after an if, else, br, br_if or call. Every op costs
one unit of fuel and entering a host function one more, as if fuel were
charged per op, but a block is charged once, up front, and only its ops
that do work are dispatched (block, loop, end and nop cost fuel and are
skipped). The count stays exact:
- exhaustion: when the fuel left is below a block's cost, only the ops a
  per-op budget would have paid for run, then FuelExhausted leaves fuel at
  -1;
- traps: when an op traps, the units of the block's ops after it are
  refunded, so fuel at a trap counts exactly the ops that ran;
- the wall-clock deadline is checked each time fuel crosses a multiple of
  4096.

Compile once, instantiate many times: parse_module turns the bytes into a
ParsedModule, which is immutable (tuples, bytes and a read-only export map)
and so may be shared by any number of instances. A ModuleCell is one
artifact's compile handle; it parses on first use and keeps the module, so
the gate's acceptance can carry it and a warm plan only builds an Instance.

Isolation properties the host relies on: each Instance owns a private linear
memory created at instantiation, with the data segments copied into it (no
state survives between instances, and nothing an instance does reaches the
shared module), and the only way a module touches the outside world is
through the host-function table passed in by the embedder.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from .wasm_inspect import (
    FuncType,
    ImportRecord,
    MalformedBinary,
    ModuleHeader,
    decode_header,
)
from .wasm_inspect import _Reader  # shared bounded cursor

PAGE_BYTES = 65536
# each wasm call takes two interpreter frames; this stays well below
# Python's default recursion limit of 1000
MAX_CALL_DEPTH = 256


class VMError(Exception):
    """Base class for execution failures."""


class Trap(VMError):
    """Deterministic abnormal termination (unreachable, div-by-zero, OOB)."""


class FuelExhausted(VMError):
    """The instruction budget ran out."""


class MemoryExceeded(VMError):
    """The module asked for more linear memory than the limit allows."""


class Timeout(VMError):
    """The wall-clock deadline passed."""


class MissingExport(VMError):
    """The requested export does not exist or is not a function."""


class InstantiationError(VMError):
    """The module needs features or imports this VM does not provide."""


@dataclass(frozen=True)
class HostFunc:
    """One host capability: a canonical signature plus its implementation.

    The callable receives the running Instance (for memory access) and the
    i32 arguments; it returns an int for single-result signatures or None.
    """

    signature: str
    fn: Callable[..., int | None]


# ---------------------------------------------------------------------------
# module structure
# ---------------------------------------------------------------------------

# (fuel cost, work ops, terminator opcode or None, a, b, c); see _basic_blocks
_Block = tuple[int, tuple[tuple[int, object, int], ...], int | None, int, int, int]


@dataclass(frozen=True)
class _Code:
    locals_count: int
    blocks: tuple[_Block, ...]  # in body order


@dataclass(frozen=True)
class ParsedModule:
    """Everything derived from the bytes; instances add only runtime state.

    Immutable all the way down, so one module may back many instances.
    """

    imported_funcs: tuple[ImportRecord, ...]
    func_types: tuple[FuncType, ...]  # by function index, imports first
    memory: tuple[int, int | None] | None
    exports: Mapping[str, tuple[int, int]]  # name -> (kind, index), read-only
    codes: tuple[_Code, ...]
    data: tuple[tuple[int, bytes], ...]


class ModuleCell:
    """One artifact's compile handle: parses on first use, then memoises.

    The header must be the one decoded from the bytes later passed to
    module(). A module the VM rejects is not memoised, so every use raises
    the same InstantiationError.
    """

    __slots__ = ("header", "_module")

    def __init__(self, header: ModuleHeader):
        self.header = header
        self._module: ParsedModule | None = None

    def module(self, binary: bytes) -> ParsedModule:
        if self._module is None:
            self._module = parse_module(binary, self.header)
        return self._module


def _i32_only(func_type: FuncType) -> bool:
    params, results = func_type
    return all(t == "i32" for t in params + results)


def parse_module(binary: bytes, header: ModuleHeader | None = None) -> ParsedModule:
    """Decode the executable module; reject anything outside the subset.

    header, when given, is binary's already decoded header, and only the
    sections after it are read. Every structural fault, including bytes the
    shared decoder cannot read, raises InstantiationError, so the VM fails
    only with VMError subclasses.
    """
    try:
        if header is None:
            header = decode_header(binary)
        return _parse_module(binary, header)
    except MalformedBinary as exc:
        raise InstantiationError(f"malformed module: {exc}") from exc


def _parse_module(binary: bytes, header: ModuleHeader) -> ParsedModule:
    # a type no defined function can have is admitted only for imports,
    # whose signatures the host check compares as text
    for func_type in header.types:
        if not _i32_only(func_type) and func_type not in header.func_import_types:
            raise InstantiationError("only i32 value types are supported")
    for imp in header.imports:
        if imp.kind != "function":
            raise InstantiationError(
                f"import {imp.namespace}.{imp.name}: only function imports "
                "are instantiable"
            )
    func_types = list(header.func_import_types)
    memory: tuple[int, int | None] | None = None
    exports: dict[str, tuple[int, int]] = {}
    bodies: list[bytes] = []
    data: list[tuple[int, bytes]] = []

    for section_id, start, end in header.sections:
        if section_id == 0:  # custom sections are ignored
            continue
        r = _Reader(binary, start, end)
        if section_id == 3:
            for _ in range(r.u32()):
                type_index = r.u32()
                if type_index >= len(header.types):
                    raise InstantiationError(f"unknown type index {type_index}")
                if not _i32_only(header.types[type_index]):
                    raise InstantiationError("only i32 functions are supported")
                func_types.append(header.types[type_index])
        elif section_id == 5:
            count = r.u32()
            if count > 1:
                raise InstantiationError("multiple memories are not supported")
            if count == 1:
                memory = r.limits()
        elif section_id == 7:
            for _ in range(r.u32()):
                name = r.name()
                kind = r.byte()
                exports[name] = (kind, r.u32())
        elif section_id == 10:
            bodies.extend(r.take(r.u32()) for _ in range(r.u32()))
        elif section_id == 11:
            for _ in range(r.u32()):
                if r.byte() != 0x00:
                    raise InstantiationError("only active data segments supported")
                if r.byte() != 0x41:
                    raise InstantiationError("data offset must be i32.const")
                offset = _read_sleb32(r) & 0xFFFFFFFF  # u32, as the spec reads it
                if r.byte() != 0x0B:
                    raise InstantiationError("malformed data offset expression")
                data.append((offset, bytes(r.take(r.u32()))))
        else:
            raise InstantiationError(
                f"section id {section_id} is outside the supported subset"
            )
        if r.pos != end:
            raise InstantiationError(f"trailing bytes in section {section_id}")

    n_imported = len(header.func_import_types)
    if len(bodies) != len(func_types) - n_imported:
        raise InstantiationError("function and code section counts differ")
    codes = [
        _decode_body(
            body, func_types[n_imported + i], func_types, n_imported,
            memory is not None,
        )
        for i, body in enumerate(bodies)
    ]
    for kind, index in exports.values():
        if kind == 0 and index >= len(func_types):
            raise InstantiationError(f"export of unknown function {index}")
    return ParsedModule(
        imported_funcs=header.imports,
        func_types=tuple(func_types),
        memory=memory,
        exports=MappingProxyType(exports),
        codes=tuple(codes),
        data=tuple(data),
    )


def _read_sleb32(r: _Reader) -> int:
    result = 0
    shift = 0
    while True:
        b = r.byte()
        result |= (b & 0x7F) << shift
        shift += 7
        if not (b & 0x80):
            if shift < 32 and (b & 0x40):
                result -= 1 << shift
            return result
        if shift >= 35:
            raise MalformedBinary("overlong signed LEB128")


# ---------------------------------------------------------------------------
# the instruction subset
# ---------------------------------------------------------------------------

# mnemonic -> (opcode, immediate kind, pops, pushes). Every instruction
# outside this table is absent from the compilation target: the assembler
# cannot emit it and the decoder rejects it. Immediate kinds: "none";
# "blocktype" (one byte: 0x40, empty, or 0x7F, i32); "label", "local" and
# "func" (u32 indices); "i32" (signed LEB128 constant); "memargN" (u32
# alignment exponent, at most N for natural 2^N bytes, then u32 offset);
# "zero" (the reserved memory index byte). Pops and pushes count the i32
# operands an instruction takes and leaves; a call's come from the callee's
# type, and branches and block ends also carry their label's results.
INSTRUCTIONS: dict[str, tuple[int, str, int, int]] = {
    "unreachable": (0x00, "none", 0, 0),
    "nop": (0x01, "none", 0, 0),
    "block": (0x02, "blocktype", 0, 0),
    "loop": (0x03, "blocktype", 0, 0),
    "if": (0x04, "blocktype", 1, 0),
    "else": (0x05, "none", 0, 0),
    "end": (0x0B, "none", 0, 0),
    "br": (0x0C, "label", 0, 0),
    "br_if": (0x0D, "label", 1, 0),
    "return": (0x0F, "none", 0, 0),
    "call": (0x10, "func", 0, 0),
    "drop": (0x1A, "none", 1, 0),
    "select": (0x1B, "none", 3, 1),
    "local.get": (0x20, "local", 0, 1),
    "local.set": (0x21, "local", 1, 0),
    "local.tee": (0x22, "local", 1, 1),
    "i32.load": (0x28, "memarg2", 1, 1),
    "i32.load8_s": (0x2C, "memarg0", 1, 1),
    "i32.load8_u": (0x2D, "memarg0", 1, 1),
    "i32.load16_s": (0x2E, "memarg1", 1, 1),
    "i32.load16_u": (0x2F, "memarg1", 1, 1),
    "i32.store": (0x36, "memarg2", 2, 0),
    "i32.store8": (0x3A, "memarg0", 2, 0),
    "i32.store16": (0x3B, "memarg1", 2, 0),
    "memory.size": (0x3F, "zero", 0, 1),
    "memory.grow": (0x40, "zero", 1, 1),
    "i32.const": (0x41, "i32", 0, 1),
    "i32.eqz": (0x45, "none", 1, 1),
    "i32.eq": (0x46, "none", 2, 1),
    "i32.ne": (0x47, "none", 2, 1),
    "i32.lt_s": (0x48, "none", 2, 1),
    "i32.lt_u": (0x49, "none", 2, 1),
    "i32.gt_s": (0x4A, "none", 2, 1),
    "i32.gt_u": (0x4B, "none", 2, 1),
    "i32.le_s": (0x4C, "none", 2, 1),
    "i32.le_u": (0x4D, "none", 2, 1),
    "i32.ge_s": (0x4E, "none", 2, 1),
    "i32.ge_u": (0x4F, "none", 2, 1),
    "i32.add": (0x6A, "none", 2, 1),
    "i32.sub": (0x6B, "none", 2, 1),
    "i32.mul": (0x6C, "none", 2, 1),
    "i32.div_s": (0x6D, "none", 2, 1),
    "i32.div_u": (0x6E, "none", 2, 1),
    "i32.rem_s": (0x6F, "none", 2, 1),
    "i32.rem_u": (0x70, "none", 2, 1),
    "i32.and": (0x71, "none", 2, 1),
    "i32.or": (0x72, "none", 2, 1),
    "i32.xor": (0x73, "none", 2, 1),
    "i32.shl": (0x74, "none", 2, 1),
    "i32.shr_s": (0x75, "none", 2, 1),
    "i32.shr_u": (0x76, "none", 2, 1),
    "i32.rotl": (0x77, "none", 2, 1),
    "i32.rotr": (0x78, "none", 2, 1),
}
# opcode -> (immediate kind, pops, pushes, largest alignment exponent)
_DECODE = {
    opcode: (kind, pops, pushes, int(kind[6:]) if kind.startswith("memarg") else 0)
    for opcode, kind, pops, pushes in INSTRUCTIONS.values()
}

# declared locals plus params per function, as in wasmparser; each call
# allocates them all
MAX_LOCALS = 50_000


def _decode_body(
    body: bytes,
    func_type: FuncType,
    func_types: Sequence[FuncType],
    n_imported: int,
    has_memory: bool,
) -> _Code:
    """Decode and validate one body in one pass, then split it into blocks.

    The pass tracks the operand-stack height (every value is an i32, so the
    height is the whole stack type) and checks each block's result count at
    its else and end. Code after br, return or unreachable follows the
    spec's polymorphic-stack rule: it may pop values below its block's
    entry height. Forward branches are patched when their block ends, so
    every op is final when the pass is over. Memory instructions in a
    module that declares no memory are rejected.
    """
    r = _Reader(body)
    params, results = func_type
    locals_count = 0
    for _ in range(r.u32()):
        locals_count += r.u32()
        if r.byte() != 0x7F:
            raise InstantiationError("only i32 locals are supported")
        if len(params) + locals_count > MAX_LOCALS:
            raise InstantiationError(f"more than {MAX_LOCALS} locals")
    n_locals = len(params) + locals_count
    n_funcs = len(func_types)
    # (opcode, a, b, c), a being the immediate, with every jump resolved: an
    # if's a is its false-jump target (past its else, or past its end), an
    # else's a is its end + 1; br and br_if hold (target, the stack height
    # to cut back to, the count of values kept), and return is decoded as a
    # br to past the body's end; a call's b is its argument count
    ops: list[tuple[int, int, int, int]] = []
    # open blocks, the function's own first: [opener opcode, opener index,
    # entry height, result count, the enclosing code's unreachable flag,
    # indices of the ops whose target becomes this block's end + 1]. An if's
    # own false jump is the first of those until its else takes its place.
    frames = [[0x02, -1, 0, len(results), False, []]]
    base = height = 0
    unreachable = False
    byte = r.byte
    while True:
        op = byte()
        if op not in _DECODE:
            raise InstantiationError(f"unsupported opcode 0x{op:02x}")
        kind, pops, pushes, align = _DECODE[op]
        a = b = c = 0
        if kind == "none":
            pass
        elif kind == "i32":
            a = _read_sleb32(r) & 0xFFFFFFFF
        elif kind == "local":
            a = r.u32()
            if a >= n_locals:
                raise InstantiationError(f"unknown local {a}")
        elif kind == "label":
            a = r.u32()
            if a >= len(frames):  # the function's own label is the outermost
                raise InstantiationError(f"branch depth {a} exceeds nesting")
        elif kind == "func":
            a = r.u32()
            if a >= n_funcs:
                raise InstantiationError(f"call to unknown function {a}")
            if not _i32_only(func_types[a]):
                raise InstantiationError(f"call to function {a} of a non-i32 type")
            pops = b = len(func_types[a][0])
            pushes = len(func_types[a][1])
        elif kind == "blocktype":
            t = byte()
            if t != 0x40 and t != 0x7F:  # empty or i32
                raise InstantiationError(f"unsupported block type 0x{t:02x}")
            arity = int(t == 0x7F)
        elif kind == "zero":
            if not has_memory:
                raise InstantiationError("memory instruction without a memory")
            if byte() != 0x00:
                raise InstantiationError("multi-memory instructions unsupported")
        else:  # memarg
            if not has_memory:
                raise InstantiationError("memory instruction without a memory")
            if r.u32() > align:
                raise InstantiationError("alignment exceeds the natural one")
            a = r.u32()
        if pops:
            height -= pops
            if height < base:
                if not unreachable:
                    raise InstantiationError("operand stack underflow")
                height = base
        height += pushes

        if op < 0x10:  # control
            if op == 0x0F:  # return: a br to the function's own label
                op, a = 0x0C, len(frames) - 1
            if 0x02 <= op <= 0x04:  # block, loop, if
                fixups = [len(ops)] if op == 0x04 else []
                frames.append([op, len(ops), height, arity, unreachable, fixups])
                base = height
                unreachable = False
            elif op == 0x05 or op == 0x0B:  # else, end
                opener, start, _, arity, outer, fixups = frames[-1]
                extra = height - base
                if extra != arity and (extra > arity or not unreachable):
                    raise InstantiationError(
                        f"block leaves {extra} values where it yields {arity}"
                    )
                if op == 0x05:
                    if opener != 0x04:
                        raise InstantiationError("else without matching if")
                    ops[start] = (0x04, len(ops) + 1, 0, 0)
                    fixups[0] = len(ops)
                    frames[-1][0] = 0x05
                    height = base
                    unreachable = False
                else:
                    if opener == 0x04 and arity:
                        raise InstantiationError("if with a result needs an else")
                    for i in fixups:
                        o = ops[i]
                        ops[i] = (o[0], len(ops) + 1, o[2], o[3])
                    frames.pop()
                    if not frames:  # the body's own end
                        ops.append((op, 0, 0, 0))
                        break
                    height = base + arity
                    base = frames[-1][2]
                    unreachable = outer
            elif op == 0x0C or op == 0x0D:  # br, br_if
                opener, start, b, c, _, fixups = frames[-1 - a]
                if opener == 0x03:  # a loop's label re-enters it and keeps none
                    a = start + 1
                    c = 0
                else:
                    fixups.append(len(ops))
                if height - c < base and not unreachable:
                    raise InstantiationError("operand stack underflow")
            if op == 0x00 or op == 0x0C:  # unreachable, br (and return)
                height = base
                unreachable = True
        ops.append((op, a, b, c))
    if r.pos != r.end:
        raise InstantiationError("bytes after the end of a function body")
    return _Code(locals_count, _basic_blocks(ops, n_imported))


# ops that only mark structure: they cost fuel but are never dispatched
_NO_WORK = frozenset([0x01, 0x02, 0x03, 0x0B])  # nop, block, loop, end
# ops that end a basic block: if, else, br, br_if, call
_TERMINATORS = frozenset([0x04, 0x05, 0x0C, 0x0D, 0x10])


def _basic_blocks(
    ops: list[tuple[int, int, int, int]], n_imported: int
) -> tuple[_Block, ...]:
    """Split final ops into basic blocks, each run with one fuel charge.

    A block starts at op 0, at every branch target and after every
    terminator. Each is (cost, work, terminator, a, b, c):
    - cost is its op count, plus the unit entering a host function costs
      when it ends in a call to an import;
    - work holds (opcode, immediate, units after it) for the ops that do
      work, a binary operator's immediate being its function; the units
      after an op are what a trap in it leaves unspent;
    - the terminator is the last op's opcode, or None when the block falls
      through, with its (a, b, c) and any branch target as a block index.
      The index one past the last block returns from the function.
    """
    n = len(ops)
    starts = {0, n}
    for i, (op, a, _, _) in enumerate(ops):
        if op in _TERMINATORS:
            starts.add(i + 1)
            if op != 0x10:
                starts.add(a)
    order = sorted(starts)
    block_of = {start: k for k, start in enumerate(order)}
    blocks = []
    for start, stop in zip(order, order[1:]):
        term, a, b, c = ops[stop - 1]
        if term in _TERMINATORS:
            stop -= 1
            if term != 0x10:
                a = block_of[a]
            cost = stop - start + 1 + (term == 0x10 and a < n_imported)
        else:
            term, a, b, c = None, 0, 0, 0
            cost = stop - start
        work = []
        rest = cost
        for op, x, _, _ in ops[start:stop]:
            rest -= 1
            if op not in _NO_WORK:
                work.append((op, _BINARY.get(op, x), rest))
        blocks.append((cost, tuple(work), term, a, b, c))
    return tuple(blocks)


# ---------------------------------------------------------------------------
# instance and execution
# ---------------------------------------------------------------------------

class Instance:
    """One private instantiation: memory, resolved imports, fuel, deadline."""

    def __init__(
        self,
        module: ParsedModule,
        host_funcs: Mapping[tuple[str, str], HostFunc],
        max_memory_bytes: int,
    ):
        self.module = module
        self.max_pages = max_memory_bytes // PAGE_BYTES

        self.host_table: list[HostFunc] = []
        for imp in module.imported_funcs:
            host = host_funcs.get((imp.namespace, imp.name))
            if host is None:
                raise InstantiationError(
                    f"unresolved import {imp.namespace}.{imp.name}"
                )
            if imp.type_signature != host.signature:
                raise InstantiationError(
                    f"import {imp.namespace}.{imp.name} signature "
                    f"{imp.type_signature} does not match host {host.signature}"
                )
            self.host_table.append(host)

        self.mem_max_declared: int | None = None
        if module.memory is not None:
            min_pages, max_decl = module.memory
            if min_pages > self.max_pages:
                raise MemoryExceeded(
                    f"module requests {min_pages} pages; limit is "
                    f"{self.max_pages}"
                )
            self.memory = bytearray(min_pages * PAGE_BYTES)
            self.mem_max_declared = max_decl
        else:
            self.memory = bytearray(0)

        for offset, payload in module.data:
            if offset + len(payload) > len(self.memory):
                raise InstantiationError("data segment outside memory bounds")
            self.memory[offset : offset + len(payload)] = payload

        self.fuel = 0
        self.deadline = float("inf")

    # -- memory access -----------------------------------------------------

    def mem_pages(self) -> int:
        return len(self.memory) // PAGE_BYTES

    def mem_grow(self, delta_pages: int) -> int:
        old = self.mem_pages()
        new = old + delta_pages
        ceiling = self.max_pages
        if self.mem_max_declared is not None:
            ceiling = min(ceiling, self.mem_max_declared)
        if new > ceiling:
            return 0xFFFFFFFF  # -1: grow refused
        self.memory.extend(bytes(delta_pages * PAGE_BYTES))
        return old

    def read_mem(self, ptr: int, length: int) -> bytes:
        if ptr < 0 or length < 0 or ptr + length > len(self.memory):
            raise Trap(f"memory read out of bounds: [{ptr}, {ptr + length})")
        return bytes(self.memory[ptr : ptr + length])

    def write_mem(self, ptr: int, payload: bytes) -> None:
        if ptr < 0 or ptr + len(payload) > len(self.memory):
            raise Trap(f"memory write out of bounds at {ptr}")
        self.memory[ptr : ptr + len(payload)] = payload

    # -- execution ---------------------------------------------------------

    def invoke(
        self,
        export_name: str,
        args: list[int],
        fuel: int,
        wall_clock_ms: int,
    ) -> list[int]:
        entry = self.module.exports.get(export_name)
        if entry is None or entry[0] != 0:
            raise MissingExport(f"no exported function {export_name!r}")
        self.fuel = fuel
        self.deadline = time.monotonic() + wall_clock_ms / 1000.0
        # the only unvalidated call: decoded code passes what callees take
        n_params = len(self.module.func_types[entry[1]][0])
        if len(args) != n_params:
            raise Trap(f"function expects {n_params} arguments, got {len(args)}")
        if entry[1] < len(self.module.imported_funcs):
            # an exported import: no block charges the unit of entering it
            self.fuel -= 1
            if self.fuel < 0:
                raise FuelExhausted("instruction budget exhausted")
        # i32 arguments are taken mod 2**32, so every value is a u32
        return self._call_function(entry[1], [v & 0xFFFFFFFF for v in args], 1)

    def _call_function(
        self, func_index: int, args: list[int], depth: int
    ) -> list[int]:
        n_imported = len(self.module.imported_funcs)
        if func_index < n_imported:
            host = self.host_table[func_index]
            result = host.fn(self, *args)
            if not self.module.func_types[func_index][1]:
                return []
            if result is None:
                raise Trap(f"host {host.signature} returned no value")
            return [result & 0xFFFFFFFF]

        if depth > MAX_CALL_DEPTH:
            raise Trap(f"call depth exceeds {MAX_CALL_DEPTH}")
        code = self.module.codes[func_index - n_imported]
        locals_ = list(args) + [0] * code.locals_count
        return self._run(code, locals_, depth)

    def _run(self, code: _Code, locals_: list[int], depth: int) -> list[int]:
        # decoding validated every stack height and every memory op's memory,
        # so no op checks for underflow, a branch needs no label stack, and
        # the stack left at the end holds exactly the results
        blocks = code.blocks
        n_blocks = len(blocks)
        memory = self.memory  # grown in place, never replaced
        stack: list[int] = []
        push = stack.append
        pop = stack.pop
        k = 0
        while k < n_blocks:
            cost, work, term, a, b, c = blocks[k]
            fuel = self.fuel - cost
            self.fuel = fuel
            if fuel < 0:
                # run what a per-op budget would have run: the ops whose own
                # unit fits, never the terminator or a host call's unit
                work = [w for w in work if w[2] + fuel >= 0]
            elif (fuel ^ (fuel + cost)) > 4095:  # crossed a 4096 boundary
                if time.monotonic() > self.deadline:
                    raise Timeout("wall-clock deadline exceeded")
            try:
                for op, x, rest in work:
                    if op == 0x20:  # local.get
                        push(locals_[x])
                    elif op == 0x41:  # i32.const
                        push(x)
                    elif op >= 0x46:  # binary operators, x being the function
                        v = pop()
                        push(x(pop(), v) & 0xFFFFFFFF)
                    elif op == 0x21:  # local.set
                        locals_[x] = pop()
                    elif op == 0x2D:  # i32.load8_u
                        ptr = pop() + x
                        if ptr >= len(memory):
                            raise Trap(
                                f"memory read out of bounds: [{ptr}, {ptr + 1})"
                            )
                        push(memory[ptr])
                    elif op == 0x45:  # i32.eqz
                        push(0 if pop() else 1)
                    elif op == 0x22:  # local.tee
                        locals_[x] = stack[-1]
                    elif op == 0x3A:  # i32.store8
                        v = pop()
                        ptr = pop() + x
                        if ptr >= len(memory):
                            raise Trap(f"memory write out of bounds at {ptr}")
                        memory[ptr] = v & 0xFF
                    elif op == 0x28:  # i32.load
                        ptr = pop() + x
                        if ptr + 4 > len(memory):
                            raise Trap(
                                f"memory read out of bounds: [{ptr}, {ptr + 4})"
                            )
                        push(int.from_bytes(memory[ptr : ptr + 4], "little"))
                    elif op == 0x36:  # i32.store
                        v = pop()
                        ptr = pop() + x
                        if ptr + 4 > len(memory):
                            raise Trap(f"memory write out of bounds at {ptr}")
                        memory[ptr : ptr + 4] = v.to_bytes(4, "little")
                    elif op == 0x1A:  # drop
                        pop()
                    elif op == 0x1B:  # select
                        v = pop()
                        v2 = pop()
                        if not v:
                            stack[-1] = v2
                    elif op == 0x2C:  # i32.load8_s
                        ptr = pop() + x
                        if ptr >= len(memory):
                            raise Trap(
                                f"memory read out of bounds: [{ptr}, {ptr + 1})"
                            )
                        v = memory[ptr]
                        push((v - 256 if v >= 128 else v) & 0xFFFFFFFF)
                    elif op == 0x2E or op == 0x2F:  # i32.load16_s, i32.load16_u
                        ptr = pop() + x
                        if ptr + 2 > len(memory):
                            raise Trap(
                                f"memory read out of bounds: [{ptr}, {ptr + 2})"
                            )
                        v = int.from_bytes(memory[ptr : ptr + 2], "little")
                        if op == 0x2E and v >= 32768:
                            v = (v - 65536) & 0xFFFFFFFF
                        push(v)
                    elif op == 0x3B:  # i32.store16
                        v = pop()
                        ptr = pop() + x
                        if ptr + 2 > len(memory):
                            raise Trap(f"memory write out of bounds at {ptr}")
                        memory[ptr : ptr + 2] = (v & 0xFFFF).to_bytes(2, "little")
                    elif op == 0x3F:  # memory.size
                        push(len(memory) // PAGE_BYTES)
                    elif op == 0x40:  # memory.grow
                        push(self.mem_grow(pop()))
                    else:  # the decoder admits only unreachable beyond this
                        raise Trap("unreachable executed")
            except VMError:
                self.fuel += rest  # the ops after the one that trapped
                raise
            if fuel < 0:
                self.fuel = -1
                raise FuelExhausted("instruction budget exhausted")
            if term is None:
                k += 1
            elif term == 0x0D:  # br_if
                if pop():
                    del stack[b : len(stack) - c]
                    k = a
                else:
                    k += 1
            elif term == 0x10:  # call
                call_args = stack[len(stack) - b :]
                del stack[len(stack) - b :]
                stack.extend(self._call_function(a, call_args, depth + 1))
                k += 1
            elif term == 0x04:  # if
                k = k + 1 if pop() else a
            elif term == 0x0C:  # br
                del stack[b : len(stack) - c]
                k = a
            else:  # else, reached from the then-arm
                k = a
        return stack


def _signed(x: int) -> int:
    return x - 0x100000000 if x >= 0x80000000 else x


def _divisor(b: int) -> int:
    if b == 0:
        raise Trap("integer divide by zero")
    return b


def _div_s(a: int, b: int) -> int:
    q = int(_signed(a) / _signed(_divisor(b)))  # truncation toward zero
    if q > 0x7FFFFFFF:
        raise Trap("integer overflow in division")
    return q


def _rem_s(a: int, b: int) -> int:
    sa, sb = _signed(a), _signed(_divisor(b))
    return sa - sb * int(sa / sb)


def _rotl(a: int, b: int) -> int:
    n = b % 32
    return (a << n) | (a >> (32 - n))


# binary operator opcode -> function of the two u32 operands; the interpreter
# masks the result to u32 (a comparison's bool masks to 0 or 1)
_BINARY: dict[int, Callable[[int, int], int]] = {
    0x46: operator.eq,
    0x47: operator.ne,
    0x48: lambda a, b: _signed(a) < _signed(b),
    0x49: operator.lt,
    0x4A: lambda a, b: _signed(a) > _signed(b),
    0x4B: operator.gt,
    0x4C: lambda a, b: _signed(a) <= _signed(b),
    0x4D: operator.le,
    0x4E: lambda a, b: _signed(a) >= _signed(b),
    0x4F: operator.ge,
    0x6A: operator.add,
    0x6B: operator.sub,
    0x6C: operator.mul,
    0x6D: _div_s,
    0x6E: lambda a, b: a // _divisor(b),
    0x6F: _rem_s,
    0x70: lambda a, b: a % _divisor(b),
    0x71: operator.and_,
    0x72: operator.or_,
    0x73: operator.xor,
    0x74: lambda a, b: a << (b % 32),
    0x75: lambda a, b: _signed(a) >> (b % 32),
    0x76: lambda a, b: a >> (b % 32),
    0x77: _rotl,
    0x78: lambda a, b: _rotl(a, 32 - b % 32),
}


def instantiate(
    module: ParsedModule,
    host_funcs: Mapping[tuple[str, str], HostFunc],
    max_memory_bytes: int,
) -> Instance:
    """Fresh instance over a private store; only the immutable module is shared."""
    return Instance(module, host_funcs, max_memory_bytes)
