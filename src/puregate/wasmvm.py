"""Minimal in-process WebAssembly virtual machine.

Executes the i32 subset the fixture corpus uses: structured control flow,
locals, linear memory with active data segments, host-function imports, and
metered execution (instruction fuel, memory ceiling, wall-clock deadline).
No package index here ships a WASM runtime, so this repo carries its own;
it runs gate-accepted modules, not a general engine: floats, i64, tables,
globals, and element/start sections are rejected at decode. Every defined
function, block type and call is i32-only with at most one result; an
imported function may declare another type (the host signature check
resolves it) but no code may call it.

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
charged per op, but a block is charged once, up front. The count stays
exact:
- exhaustion: when the fuel left is below a block's cost, only the ops a
  per-op budget would have paid for run, then FuelExhausted leaves fuel at
  -1;
- traps: when an op traps, the units of the block's ops after it are
  refunded, so fuel at a trap counts exactly the ops that ran;
- the wall-clock deadline is checked each time fuel crosses a multiple of
  4096.

Two tiers run the blocks, with the same fuel, traps and messages:
- tier 1 interprets them, dispatching only the ops that do work (block,
  loop, end and nop cost fuel and are skipped);
- tier 2 (compile_tier2) translates each validated body into one Python
  function: wasm local i is the Python local l<i>, operand-stack entries
  are folded into expressions, and a dispatch loop picks blocks by index,
  except that a wasm loop whose body is one region of blocks runs as a
  Python while loop of its own, its back edge a continue. It charges
  once per chain of blocks that fall into one another (up to and including
  the first call), not once per block; a branch out of a chain gives back
  the costs of the blocks it skips, and each trap site refunds a constant
  that counts them too. A chain fuel cannot cover is handed, with its
  locals and stack, to tier 1, which charges block by block and so stops
  where a per-op budget would, or runs on to the function's end when a
  branch leaves the chain first. A loop whose body is one chain runs in
  batches: as many iterations as the fuel above the next multiple of 4096
  pays for, with no charge of their own, behind one guard that checks the
  deadline or hands off to tier 1; an exit or trap in iteration i takes
  its fuel from i. A batched loop that scans for a zero byte as strlen
  does (a one-byte load from local A + local I or from local I alone,
  eqz, a br_if out carrying no values, then I += 1, entered with an empty
  stack) runs a batch whose bytes lie in memory, at addresses that do not
  wrap, as one bytearray.find: a zero in iteration i advances I by i and
  leaves with iteration i's fuel, and none advances I by the batch and
  spends its fuel; any other batch runs each iteration, so a scan that
  leaves memory traps with the same fuel and address. A one-byte load or
  store tests no bounds: its address is never negative, so the
  bytearray's IndexError raises the trap; only a function with a wider
  access or memory.size keeps memory's length in a local. Only
  per-opcode templates and integers the validator has bounded reach the
  generated source; no name, byte string or type text from the module
  does, and trap messages that need such text are built at run time.

Compile once, instantiate many times: parse_module turns the bytes into a
ParsedModule, which is immutable (tuples, bytes and a read-only export map)
and so may be shared by any number of instances. A ModuleCell is one
artifact's compile handle: it holds the bytes, parses them on first use and
keeps the module, the embedder's import binding (resolve_imports) once
made, the fuel the module's runs have spent and, once that fuel repays the
compile, the tier-2 functions. compile_handle() gives one handle per
artifact per process: a memo holds the handles of the HANDLES_MAX binaries
admitted last, keyed by their exact bytes as wasm_inspect's header memo
is. So an artifact admitted again, by a new session or after the gate's
cache is cleared, keeps its module, binding, fuel count and tier. A
bytearray, a bytes subclass, a binary over 16 KiB and an artifact evicted
from the memo get a fresh handle, which waits for the fuel rule again.
It tiers up once the module's runs have spent TIER_UP_FUEL_PER_OP units per
op, and the generated source grows linearly with the ops, so compile time
stays of the order of the time already spent interpreting.

Isolation properties the host relies on: each Instance owns a private linear
memory created at instantiation, with the data segments copied into it (no
state survives between instances, and nothing an instance does reaches the
shared module), and the only way a module touches the outside world is
through the host-function table passed in by the embedder, which both tiers
read at each call. Host functions reach per-instance embedder state only
through the instance they are called with (Instance.embedder), so one
resolved table may serve every instance.
"""

from __future__ import annotations

import operator
import struct
import threading
import time
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable, Mapping, MutableMapping, Sequence

from .memo import BoundedMemo
from .wasm_inspect import (
    IMPORT_KINDS,
    FuncType,
    ImportRecord,
    MalformedBinary,
    ModuleHeader,
    by_bytes,
    decode_header,
)
# the decoder's one reader: (data, pos, end) -> (value, next pos)
from .wasm_inspect import _byte_at, _limits_at, _name_at, _s32_at, _u32_at, _vec_at

PAGE_BYTES = 65536
# each wasm call takes two interpreter frames in tier 1 and one in tier 2;
# this stays well below Python's default recursion limit of 1000
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

    It keeps the bytes it was made for with their decoded header, so the
    module it parses is always the one those bytes encode. A module the VM
    rejects is not memoised, so every use raises the same
    InstantiationError.

    The cell also tiers the module up: add_fuel() counts the fuel its runs
    spend, and once that reaches TIER_UP_FUEL_PER_OP times the module's op
    count, tier2() translates the module (compile_tier2) and keeps the
    functions. So a module run once below that never compiles.

    It keeps the module's import binding too (bound()), so that the imports
    are resolved once per artifact, not on every instantiation.

    A cell may serve several threads: two that race to make the module,
    binding or functions, each a pure function of the bytes, may both make
    it, and either serves. Fuel is added under a lock, so none is lost.
    """

    __slots__ = (
        "binary", "header", "_module", "_threshold", "_fuel", "_tier2", "_binding"
    )

    def __init__(self, binary: bytes, header: ModuleHeader):
        self.binary = binary
        self.header = header
        self._module: ParsedModule | None = None
        self._threshold = 0
        self._fuel = 0
        self._tier2: Tier2 | None = None
        self._binding: Any = None

    def module(self) -> ParsedModule:
        if self._module is None:
            module = parse_module(self.binary, self.header)
            self._threshold = TIER_UP_FUEL_PER_OP * module_size(module)
            self._module = module
        return self._module

    def bound(self, bind: Callable[[ParsedModule], Any]) -> Any:
        """bind(module), made on the first call and then kept.

        The binding is a function of the module alone, so one serves every
        call. A bind that raises keeps nothing, so every call raises afresh.
        module() must have parsed first.
        """
        if self._binding is None:
            self._binding = bind(self._module)
        return self._binding

    def add_fuel(self, used: int) -> None:
        with _FUEL_LOCK:
            self._fuel += used

    def tier2(self) -> Tier2 | None:
        """The tier-2 functions once the module is hot, else None."""
        if (
            self._tier2 is None
            and self._module is not None
            and self._fuel >= self._threshold
        ):
            self._tier2 = compile_tier2(self._module)
        return self._tier2


_FUEL_LOCK = threading.Lock()  # every cell's add_fuel
HANDLES_MAX = 16  # perfbench's warm workloads plan 5 and 6 artifacts
_HANDLES = BoundedMemo(HANDLES_MAX)  # exact bytes -> their ModuleCell


def compile_handle(binary: bytes, header: ModuleHeader) -> ModuleCell:
    """The process's compile handle for binary, whose decoded header is
    header: the one in the handle memo, keyed as the header memo is."""
    return by_bytes(_HANDLES, binary, ModuleCell, binary, header)


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
        if section_id not in (3, 5, 7, 10, 11):
            raise InstantiationError(
                f"section id {section_id} is outside the supported subset"
            )
        count, pos = _u32_at(binary, start, end)
        if section_id == 3:
            for _ in range(count):
                type_index, pos = _u32_at(binary, pos, end)
                if type_index >= len(header.types):
                    raise InstantiationError(f"unknown type index {type_index}")
                if not _i32_only(header.types[type_index]):
                    raise InstantiationError("only i32 functions are supported")
                if len(header.types[type_index][1]) > 1:
                    raise InstantiationError("functions return at most one value")
                func_types.append(header.types[type_index])
        elif section_id == 5:
            if count > 1:
                raise InstantiationError("multiple memories are not supported")
            if count == 1:
                memory, pos = _limits_at(binary, pos, end, memory=True)
        elif section_id == 7:
            for _ in range(count):
                name, pos = _name_at(binary, pos, end)
                kind = _byte_at(binary, pos, end)
                if kind > 0x03:
                    raise InstantiationError(f"unknown export kind 0x{kind:02x}")
                if name in exports:
                    raise InstantiationError(f"duplicate export name {name!r}")
                index, pos = _u32_at(binary, pos + 1, end)
                exports[name] = (kind, index)
        elif section_id == 10:
            for _ in range(count):
                body, pos = _vec_at(binary, pos, end)
                bodies.append(body)
        elif section_id == 11:
            if count and memory is None:
                # a segment initialises memory 0, which this module lacks
                raise InstantiationError("data segment without a memory")
            for _ in range(count):
                if _byte_at(binary, pos, end) != 0x00:
                    raise InstantiationError("only active data segments supported")
                if _byte_at(binary, pos + 1, end) != 0x41:
                    raise InstantiationError("data offset must be i32.const")
                offset, pos = _s32_at(binary, pos + 2, end)
                if _byte_at(binary, pos, end) != 0x0B:
                    raise InstantiationError("malformed data offset expression")
                init, pos = _vec_at(binary, pos + 1, end)
                # the offset is a u32, as the spec reads it
                data.append((offset & 0xFFFFFFFF, bytes(init)))
        if pos != end:
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
    # functions, tables, memories and globals: the subset has no table or global
    defined = (len(func_types), 0, 0 if memory is None else 1, 0)
    for kind, index in exports.values():
        if index >= defined[kind]:
            raise InstantiationError(f"export of unknown {IMPORT_KINDS[kind]} {index}")
    return ParsedModule(
        imported_funcs=header.imports,
        func_types=tuple(func_types),
        memory=memory,
        exports=MappingProxyType(exports),
        codes=tuple(codes),
        data=tuple(data),
    )


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
    end = len(body)
    params, results = func_type
    locals_count = 0
    groups, pos = _u32_at(body, 0, end)
    for _ in range(groups):
        n, pos = _u32_at(body, pos, end)
        locals_count += n
        if _byte_at(body, pos, end) != 0x7F:
            raise InstantiationError("only i32 locals are supported")
        pos += 1
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
    while True:
        if pos >= end:  # _byte_at inlined: the opcode is the commonest read
            raise MalformedBinary("truncated binary")
        op = body[pos]
        pos += 1
        if op not in _DECODE:
            raise InstantiationError(f"unsupported opcode 0x{op:02x}")
        kind, pops, pushes, align = _DECODE[op]
        a = b = c = 0
        if kind == "none":
            pass
        elif kind == "i32":
            a, pos = _s32_at(body, pos, end)
            a &= 0xFFFFFFFF
        elif kind == "local":
            a, pos = _u32_at(body, pos, end)
            if a >= n_locals:
                raise InstantiationError(f"unknown local {a}")
        elif kind == "label":
            a, pos = _u32_at(body, pos, end)
            if a >= len(frames):  # the function's own label is the outermost
                raise InstantiationError(f"branch depth {a} exceeds nesting")
        elif kind == "func":
            a, pos = _u32_at(body, pos, end)
            if a >= n_funcs:
                raise InstantiationError(f"call to unknown function {a}")
            if not _i32_only(func_types[a]):
                raise InstantiationError(f"call to function {a} of a non-i32 type")
            if len(func_types[a][1]) > 1:  # only an import's type can have
                raise InstantiationError(f"call to import {a} with several results")
            pops = b = len(func_types[a][0])
            pushes = len(func_types[a][1])
        elif kind == "blocktype":
            t = _byte_at(body, pos, end)
            pos += 1
            if t != 0x40 and t != 0x7F:  # empty or i32
                raise InstantiationError(f"unsupported block type 0x{t:02x}")
            arity = int(t == 0x7F)
        elif kind == "zero":
            if not has_memory:
                raise InstantiationError("memory instruction without a memory")
            if _byte_at(body, pos, end) != 0x00:
                raise InstantiationError("multi-memory instructions unsupported")
            pos += 1
        else:  # memarg
            if not has_memory:
                raise InstantiationError("memory instruction without a memory")
            exponent, pos = _u32_at(body, pos, end)
            if exponent > align:
                raise InstantiationError("alignment exceeds the natural one")
            a, pos = _u32_at(body, pos, end)
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
    if pos != end:
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

def resolve_imports(
    module: ParsedModule, host_for: Callable[[ImportRecord], HostFunc | None]
) -> tuple[HostFunc, ...]:
    """The host function for each of module's imports, in import order.

    host_for gives the embedder's host function for an import record, or
    None when it has none. Every import must resolve to a host function of
    exactly its signature. The result depends only on module and host_for,
    so an embedder whose host functions keep no state of their own may
    resolve once and pass the same tuple to every instance.
    """
    resolved = []
    for imp in module.imported_funcs:
        host = host_for(imp)
        if host is None:
            raise InstantiationError(f"unresolved import {imp.namespace}.{imp.name}")
        if imp.type_signature != host.signature:
            raise InstantiationError(
                f"import {imp.namespace}.{imp.name} signature "
                f"{imp.type_signature} does not match host {host.signature}"
            )
        resolved.append(host)
    return tuple(resolved)


class Instance:
    """One private instantiation: memory, resolved imports, fuel, deadline.

    host_table is resolve_imports(module, ...): the host function of each
    import, by import index. embedder is whatever the embedder attaches to
    this instance, for its host functions to reach through the instance
    they are given; the VM never reads it.
    """

    def __init__(
        self,
        module: ParsedModule,
        host_table: Sequence[HostFunc],
        max_memory_bytes: int,
        tier2: Tier2 | None = None,
        embedder: Any = None,
    ):
        self.module = module
        self.host_table = host_table
        self.tier2 = tier2  # compile_tier2(module), or None to interpret
        self.embedder = embedder
        self.max_pages = max_memory_bytes // PAGE_BYTES

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
        # fuel is set first, so that fuel - self.fuel is the fuel spent
        # whatever the outcome
        self.fuel = fuel
        entry = self.module.exports.get(export_name)
        if entry is None or entry[0] != 0:
            raise MissingExport(f"no exported function {export_name!r}")
        self.deadline = time.monotonic() + wall_clock_ms / 1000.0
        # the only unvalidated call: decoded code passes what callees take
        index = entry[1]
        params, results = self.module.func_types[index]
        if len(args) != len(params):
            raise Trap(f"function expects {len(params)} arguments, got {len(args)}")
        # i32 arguments are taken mod 2**32, so every value is a u32
        args = [v & 0xFFFFFFFF for v in args]
        n_imported = len(self.module.imported_funcs)
        if index < n_imported:
            # an exported import: no block charges the unit of entering it
            self.fuel -= 1
            if self.fuel < 0:
                raise FuelExhausted("instruction budget exhausted")
        elif self.tier2 is not None:
            out = self.tier2[index - n_imported](self, 1, *args)
            return [out] if results else []
        return self._call_function(index, args, 1)

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

    def _run(
        self,
        code: _Code,
        locals_: MutableMapping[int, int],
        depth: int,
        k: int = 0,
        stack: list[int] | None = None,
    ) -> list[int]:
        # decoding validated every stack height and every memory op's memory,
        # so no op checks for underflow, a branch needs no label stack, and
        # the stack left at the end holds exactly the results. Tier 2 enters
        # at block k with its stack, and with its locals as a mapping that
        # holds every index the code reads.
        blocks = code.blocks
        n_blocks = len(blocks)
        memory = self.memory  # grown in place, never replaced
        if stack is None:
            stack = []
        push = stack.append
        pop = stack.pop
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


# ---------------------------------------------------------------------------
# tier 2: each validated body translated into one Python function
# ---------------------------------------------------------------------------

# a cell tiers up once its runs have spent this much fuel per op of the
# module: compile() takes about 25 us per op, an interpreted unit 0.15 us
TIER_UP_FUEL_PER_OP = 170

# one generated function per defined function, in code-section order
Tier2 = tuple[Callable[..., Any], ...]


def module_size(module: ParsedModule) -> int:
    """The op count tier-up scales with: every op, and every parameter."""
    n_imported = len(module.imported_funcs)
    return sum(
        sum(block[0] for block in code.blocks) + len(module.func_types[i][0])
        for i, code in enumerate(module.codes, n_imported)
    )


def compile_tier2(module: ParsedModule) -> Tier2:
    """Tier-2 functions for module, in a namespace of their own.

    Function i is called as f(instance, depth, *args) and returns its result,
    or None when it has none.
    """
    n_imported = len(module.imported_funcs)
    namespace = dict(_TIER2_NAMES)
    for i, code in enumerate(module.codes, n_imported):
        source = _Translator(code, i, module.func_types, n_imported).source()
        exec(compile(source, f"<tier2 f{i}>", "exec"), namespace)
    return tuple(namespace[f"f{i}"] for i in range(n_imported, len(module.func_types)))


def _tier1(inst, fuel, index, k, frame, height, depth):
    """Hand the chain from block k, which fuel cannot cover, to the block
    interpreter, and return what the generated function would.

    fuel is the fuel left before the chain's charge. frame is the generated
    function's locals(): its l<i> are the wasm locals the code reads and
    s0..s<height-1> the operand stack. The interpreter charges block by
    block: it runs what fuel pays for and raises FuelExhausted, unless a
    branch leaves the chain before fuel runs out, and then it runs on to
    the function's end, whose result it returns as tier 2 does (the value,
    or None).
    """
    inst.fuel = fuel
    locals_ = {int(name[1:]): v for name, v in frame.items() if name[0] == "l"}
    stack = [frame[f"s{p}"] for p in range(height)]
    code = inst.module.codes[index - len(inst.module.imported_funcs)]
    results = inst._run(code, locals_, depth, k, stack)
    return results[0] if results else None


def _tick(inst, fuel):
    """Fuel crossed a multiple of 4096: check the deadline, return the next."""
    if time.monotonic() > inst.deadline:
        inst.fuel = fuel
        raise Timeout("wall-clock deadline exceeded")
    return fuel & -4096


# trap builders: each sets the fuel left at the trap, and any text the
# message needs is read at run time
def _trap(inst, fuel, message):
    inst.fuel = fuel
    return Trap(message)


def _oob_read(inst, fuel, ptr, width):
    inst.fuel = fuel
    return Trap(f"memory read out of bounds: [{ptr}, {ptr + width})")


def _oob_write(inst, fuel, ptr):
    inst.fuel = fuel
    return Trap(f"memory write out of bounds at {ptr}")


def _no_value(host):
    return Trap(f"host {host.signature} returned no value")


def _too_deep():
    return Trap(f"call depth exceeds {MAX_CALL_DEPTH}")


# everything generated code can name besides its own functions
_TIER2_NAMES: dict[str, Any] = {
    "__builtins__": {"len": len, "locals": locals, "range": range},
    "_index_error": IndexError,
    "_tier1": _tier1,
    "_tick": _tick,
    "_trap": _trap,
    "_oob_read": _oob_read,
    "_oob_write": _oob_write,
    "_no_value": _no_value,
    "_too_deep": _too_deep,
    "_u32": struct.Struct("<I").unpack_from,
    "_u16": struct.Struct("<H").unpack_from,
    "_p32": struct.Struct("<I").pack_into,
    "_p16": struct.Struct("<H").pack_into,
    "_div_s": _div_s,
    "_rem_s": _rem_s,
    "_rotl": _rotl,
}

# operators that cannot trap -> (template over the u32 operands, whether
# the result is a Python bool that becomes 1 or 0 where used as a value)
_PURE_BINARY: dict[int, tuple[str, bool]] = {
    0x46: ("({a} == {b})", True),
    0x47: ("({a} != {b})", True),
    0x48: ("(({a} ^ 2147483648) < ({b} ^ 2147483648))", True),
    0x49: ("({a} < {b})", True),
    0x4A: ("(({a} ^ 2147483648) > ({b} ^ 2147483648))", True),
    0x4B: ("({a} > {b})", True),
    0x4C: ("(({a} ^ 2147483648) <= ({b} ^ 2147483648))", True),
    0x4D: ("({a} <= {b})", True),
    0x4E: ("(({a} ^ 2147483648) >= ({b} ^ 2147483648))", True),
    0x4F: ("({a} >= {b})", True),
    0x6A: ("(({a} + {b}) & 4294967295)", False),
    0x6B: ("(({a} - {b}) & 4294967295)", False),
    0x6C: ("(({a} * {b}) & 4294967295)", False),
    0x71: ("({a} & {b})", False),
    0x72: ("({a} | {b})", False),
    0x73: ("({a} ^ {b})", False),
    0x74: ("(({a} << ({b} & 31)) & 4294967295)", False),
    0x75: ("(((({a} ^ 2147483648) - 2147483648) >> ({b} & 31)) & 4294967295)", False),
    0x76: ("({a} >> ({b} & 31))", False),
    0x77: ("(_rotl({a}, {b}) & 4294967295)", False),
    0x78: ("(_rotl({a}, 32 - {b} % 32) & 4294967295)", False),
}
# div_s, div_u, rem_s, rem_u, once the divisor is known to be nonzero (and
# div_s not to overflow)
_DIVISION = {
    0x6D: "(_div_s({a}, {b}) & 4294967295)",
    0x6E: "({a} // {b})",
    0x6F: "(_rem_s({a}, {b}) & 4294967295)",
    0x70: "({a} % {b})",
}
# loads -> (width, template over the in-bounds address)
_LOADS = {
    0x28: (4, "_u32(mem, {p})[0]"),
    0x2C: (1, "((mem[{p}] ^ 128) - 128) & 4294967295"),
    0x2D: (1, "mem[{p}]"),
    0x2E: (2, "((_u16(mem, {p})[0] ^ 32768) - 32768) & 4294967295"),
    0x2F: (2, "_u16(mem, {p})[0]"),
}
# stores -> (width, template over the in-bounds address and the value)
_STORES = {
    0x36: (4, "_p32(mem, {p}, {v})"),
    0x3A: (1, "mem[{p}] = {v} & 255"),
    0x3B: (2, "_p16(mem, {p}, {v} & 65535)"),
}
# the ops whose code reads size, memory's length in bytes
_READS_SIZE = frozenset(
    op for op, (width, _) in (_LOADS | _STORES).items() if width > 1
) | {0x3F}
# the last six ops of a byte scan's body: its load, i32.eqz, and then
# local.get I, i32.const 1, i32.add, local.set I
_SCAN_TAILS = {(load, 0x45, 0x20, 0x41, 0x6A, 0x21) for load in (0x2C, 0x2D)}
# bounds that keep the source linear in the ops: an expression folding more
# ops is bound to a temporary, and when more entries than this wait above
# the slots they are written to them
_MAX_FOLDED = 16
_MAX_PENDING = 16


class _Value:
    """An operand-stack entry as a pure expression over locals and temps.

    test marks a Python bool (a comparison) that reads as 1 or 0 where it
    is used as a value; locals are the wasm locals it reads, so that a
    write to one of them binds it to a temporary first; folded counts the
    ops it holds.
    """

    __slots__ = ("expr", "locals", "folded", "test")

    def __init__(self, expr, locals_=frozenset(), folded=0, test=False):
        self.expr = expr
        self.locals = locals_
        self.folded = folded
        self.test = test

    @property
    def int(self) -> str:
        return f"(1 if {self.expr} else 0)" if self.test else self.expr


class _Stack:
    """A region's operand stack: slots s0..s<base-1> hold their own values,
    and the entries above them wait as expressions.

    An entry at height h reads only slots at h or above, so writing the
    waiting entries to their slots from the bottom up is safe.
    """

    __slots__ = ("base", "top")

    def __init__(self, base: int):
        self.base = base
        self.top: list[_Value] = []

    def __len__(self) -> int:
        return self.base + len(self.top)

    def append(self, value: _Value) -> None:
        self.top.append(value)

    def pop(self) -> _Value:
        if self.top:
            return self.top.pop()
        self.base -= 1
        return _Value(f"s{self.base:d}")

    def values(self, lo: int) -> list[_Value]:
        """The entries from height lo up, slots included."""
        slots = [_Value(f"s{p:d}") for p in range(lo, self.base)]
        return slots + self.top[max(lo - self.base, 0) :]


class _Translator:
    """Source of one function: basic blocks in regions, picked by a loop.

    Wasm local i is the Python local l<i> and the operand-stack slot at
    height h is s<h>. Inside a region the entries above the slots are pure
    expressions (_Stack); ops that read memory, may trap or have effects
    become statements, and the slots are written only where control leaves
    the region or too many entries wait. A region is a block that a branch
    enters, or that more than one edge enters, plus every block after it
    that only its predecessor falls into. A dispatch loop picks regions by
    index: loop headers are tested first, the rest by binary search, so a
    jump costs tests logarithmic in the number of regions.

    A region that branches back to its own head (a wasm loop whose body is
    one region) runs inside an inner while loop of its own: the back edge
    is continue, and every other jump out of it sets k and breaks, after
    which the later tests and then the dispatch loop find the target. So
    an iteration of such a loop never goes back through the dispatch.
    When that region is one chain ending in the back edge, the loop runs
    in batches (batched()), and a one-byte access is checked by the
    bytearray's own index (access()). A batched byte scan (scan()) runs
    each batch as one mem.find when its bytes lie in memory (kernel()),
    and as a batch of iterations otherwise.

    Fuel is charged once per chain: a region's blocks from its head, or from
    the block after a call, through each block the last falls or branches
    conditionally into, up to and including the first call (whose callee
    must see exactly the fuel left). A br_if or if that leaves the chain
    early adds back the costs of the chain's later blocks, and a trap site's
    refund counts them too. When fuel falls below the multiple of 4096
    under the chain's starting fuel, a slow path either hands a chain fuel
    cannot cover to _tier1 or checks the deadline.

    Only per-opcode templates, the fixed control words (while True, for i
    in range, try, continue, break) and integers reach the source:
    immediates, indices and costs, all formatted with :d.
    """

    def __init__(self, code, index, func_types, n_imported):
        self.blocks = code.blocks
        self.index = index
        self.func_types = func_types
        self.n_imported = n_imported
        self.returns = bool(func_types[index][1])
        self.lines: list[str] = []
        self.temps = 0
        ops = {op for block in self.blocks for op, _, _ in block[1]}
        # whether the code reads memory's length (2- and 4-byte accesses,
        # memory.size), and whether it reads memory at all
        self.size = not ops.isdisjoint(_READS_SIZE)
        self.memory = self.size or not ops.isdisjoint((0x2C, 0x2D, 0x3A))
        self.heights, preds = self._flow()
        # the blocks only their predecessor falls into, and the loop headers
        self.inlined = {
            j for j, edges in preds.items() if edges == [(j - 1, False)]
        }
        self.loops = {
            j for j, edges in preds.items() if any(jump and src >= j for src, jump in edges)
        }
        # the loop headers branched back to from their own region: from a
        # block at or after the head reached through inlined blocks only
        self.self_loops = {
            j for j in self.loops
            if any(
                jump and src >= j and all(i in self.inlined for i in range(j + 1, src + 1))
                for src, jump in preds[j]
            )
        }
        self.first: list[int] = []  # the entries tested before the search
        self.head: int | None = None  # the self-loop region being emitted
        self.batch = 0  # the cost of that loop's one chain, when batched

    def _flow(self):
        """Stack height entering each reachable block, and each one's edges."""
        blocks = self.blocks
        heights = {0: 0}
        preds: dict[int, list[tuple[int, bool]]] = {}
        todo = [0]
        while todo:
            k = todo.pop()
            h = heights[k]
            _, work, term, a, b, c = blocks[k]
            for op, _, _ in work:
                if op == 0x00:  # unreachable: nothing after it runs
                    break
                _, pops, pushes, _ = _DECODE[op]
                h += pushes - pops
            else:
                if term is None:
                    edges = [(k + 1, h, False)]
                elif term == 0x0D:
                    edges = [(a, b + c, True), (k + 1, h - 1, False)]
                elif term == 0x0C:
                    edges = [(a, b + c, True)]
                elif term == 0x04:
                    edges = [(k + 1, h - 1, False), (a, h - 1, True)]
                elif term == 0x05:
                    edges = [(a, h, True)]
                else:
                    edges = [(k + 1, h - b + len(self.func_types[a][1]), False)]
                for target, height, jump in edges:
                    if target == len(blocks):  # returns
                        continue
                    preds.setdefault(target, []).append((k, jump))
                    if target not in heights:
                        heights[target] = height
                        todo.append(target)
        return heights, preds

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def temp(self, indent: int, expr: str, test: bool = False) -> _Value:
        name = f"t{self.temps:d}"
        self.temps += 1
        self.emit(indent, f"{name} = {expr}")
        return _Value(name, test=test)

    def pure(self, indent, expr, operands, test=False) -> _Value:
        folded = 1 + sum(v.folded for v in operands)
        if folded > _MAX_FOLDED:
            return self.temp(indent, expr, test)
        return _Value(expr, frozenset().union(*(v.locals for v in operands)), folded, test)

    def atom(self, indent: int, value: _Value) -> _Value:
        """value, or a temporary holding it, to be read more than once."""
        if value.folded == 0 and not value.test:
            return value
        return self.temp(indent, value.int)

    def write_slots(self, stack: _Stack, ind: int) -> None:
        """Write the waiting entries to their slots, bottom up."""
        for p, v in enumerate(stack.top, stack.base):
            self.emit(ind, f"s{p:d} = {v.int}")

    def source(self) -> str:
        emit = self.emit
        params = len(self.func_types[self.index][0])
        read = sorted({
            x for block in self.blocks for op, x, _ in block[1] if 0x20 <= op <= 0x22
        })
        emit(0, f"def f{self.index:d}(inst, depth{''.join(f', l{i:d}' for i in range(params))}):")
        emit(1, f"if depth > {MAX_CALL_DEPTH:d}:")
        emit(2, "raise _too_deep()")
        declared = [f"l{i:d}" for i in read if i >= params]
        if declared:
            emit(1, " = ".join(declared) + " = 0")
        if self.memory:
            emit(1, "mem = inst.memory")
        if self.size:
            emit(1, "size = len(mem)")
        emit(1, "fuel = inst.fuel")
        emit(1, "mark = fuel & -4096 if fuel > 0 else 0")
        emit(1, "k = 0")
        emit(1, "while True:")
        entries = sorted(set(self.heights) - self.inlined)
        # loop headers, inner ones first, are tested one by one before the
        # search while that costs no more tests than the search itself
        if len(self.loops) <= len(entries).bit_length():
            self.first = sorted(self.loops, reverse=True)
        for k in self.first:
            self.region(k, 2)
        self.search([k for k in entries if k not in self.first], 2)
        return "\n".join(self.lines) + "\n"

    def search(self, entries: list[int], ind: int) -> None:
        """Dispatch on k by binary search down to runs of a few tests."""
        if len(entries) <= 4:
            for k in entries:
                self.region(k, ind)
            return
        mid = len(entries) // 2
        self.emit(ind, f"if k < {entries[mid]:d}:")
        self.search(entries[:mid], ind + 1)
        self.emit(ind, "else:")
        self.search(entries[mid:], ind + 1)

    def region(self, k: int, ind: int) -> None:
        self.emit(ind, f"if k == {k:d}:")
        self.temps = 0
        self.head = k if k in self.self_loops else None
        if self.head is not None:
            ind += 1
            self.emit(ind, "while True:")
        stack = _Stack(self.heights[k])
        next_k: int | None = k
        while next_k is not None:
            next_k = self.chain(next_k, stack, ind + 1)

    def goes_on(self, k: int) -> bool:
        """Whether block k's chain goes on with block k + 1: k ends in no
        call, no op in it always traps, and it falls or branches
        conditionally into k + 1, which nothing else enters."""
        _, work, term, _, _, _ = self.blocks[k]
        return (
            (term is None or term == 0x0D or term == 0x04)
            and k + 1 in self.inlined
            and all(op != 0x00 for op, _, _ in work)
        )

    def chain(self, k: int, stack: _Stack, ind: int) -> int | None:
        """Emit the chain from block k under one fuel charge; return the
        block its region goes on with after a call, if any."""
        emit = self.emit
        chain = [k]
        while self.goes_on(chain[-1]):
            chain.append(chain[-1] + 1)
        later = total = sum(self.blocks[j][0] for j in chain)
        if k == self.head and self.whole(chain):
            self.batched(chain, total, stack, ind)
            return None
        emit(ind, f"fuel -= {total:d}")
        emit(ind, "if fuel < mark:")
        emit(ind + 1, "if fuel < 0:")
        self.write_slots(stack, ind + 2)
        emit(
            ind + 2,
            f"return _tier1(inst, fuel + {total:d}, {self.index:d}, {k:d}, locals(), "
            f"{len(stack):d}, depth)",
        )
        emit(ind + 1, "mark = _tick(inst, fuel)")
        for j in chain:
            later -= self.blocks[j][0]
            next_k = self.block(j, stack, ind, later)
        return next_k

    def whole(self, chain: list[int]) -> bool:
        """Whether a self-loop's chain from its head is the loop's whole
        body at one cost: it ends in the br back to the head, no other
        branch in it goes back, and no op in it always traps."""
        head = chain[0]
        _, _, term, a, _, _ = self.blocks[chain[-1]]
        return (
            term == 0x0C
            and a == head
            and not any(self.blocks[j][2:4] == (0x0D, head) for j in chain)
            and all(op != 0x00 for j in chain for op, _, _ in self.blocks[j][1])
        )

    def batched(self, chain: list[int], cost: int, stack: _Stack, ind: int) -> None:
        """Emit a self-loop whose body is one chain of the given cost as
        batches of iterations, each batch as many as the fuel above mark
        pays for, so an iteration is charged nothing of its own.

        The guard runs the iteration that would cross mark as a chain's
        charge would: it hands off to tier 1 when fuel cannot cover it and
        otherwise checks the deadline. Within a batch fuel holds its value
        from before the batch, so iteration i has spent cost * (i + 1)."""
        emit = self.emit
        emit(ind, f"if fuel - mark < {cost:d}:")
        emit(ind + 1, f"if fuel < {cost:d}:")
        emit(
            ind + 2,
            f"return _tier1(inst, fuel, {self.index:d}, {chain[0]:d}, locals(), "
            f"{len(stack):d}, depth)",
        )
        emit(ind + 1, f"mark = _tick(inst, fuel - {cost:d})")
        self.batch = later = cost
        self.kernel(chain, ind)
        emit(ind, f"for i in range((fuel - mark) // {cost:d}):")
        for j in chain:
            later -= self.blocks[j][0]
            self.block(j, stack, ind + 1, later)
        self.batch = 0
        emit(ind, "else:")
        emit(ind + 1, f"fuel -= {cost:d} * i + {cost:d}")
        emit(ind + 1, "continue")
        emit(ind, "break")

    def scan(self, chain: list[int]) -> tuple[int | None, int, int] | None:
        """(A, I, offset) when a batched loop's body, entered with an empty
        stack, is a byte scan: an i32.load8_u or i32.load8_s at offset from
        local A + local I (either order) or, with A None, from local I
        alone; i32.eqz; a br_if that carries no values; then local I
        incremented by one and the br back. None otherwise."""
        if len(chain) != 2 or self.heights[chain[0]]:
            return None
        (_, test, term, _, _, kept), (_, step, _, _, _, _) = (self.blocks[j] for j in chain)
        if term != 0x0D or kept or len(step) != 4:
            return None
        ops = tuple(op for op, _, _ in test + step)
        args = [x for _, x, _ in test + step]
        index = args[-1]
        if ops[-6:] not in _SCAN_TAILS or (args[-4], args[-3]) != (index, 1):
            return None
        offset = args[-6]
        if ops[:-6] == (0x20,) and args[0] == index:
            return None, index, offset
        if ops[:-6] == (0x20, 0x20, 0x6A) and index in args[:2] and args[0] != args[1]:
            return ({args[0], args[1]} - {index}).pop(), index, offset
        return None

    def kernel(self, chain: list[int], ind: int) -> None:
        """When the batched loop is a byte scan, emit its batch as one
        bytearray.find, before the batch's own for loop, which runs instead
        when the batch's bytes are not all in memory or their addresses
        wrap.

        a is iteration 0's address before the offset and n the batch's
        iterations. No zero byte: I advances by n and the batch's fuel is
        spent. A zero byte in iteration i: I advances by i and the br_if's
        exit leaves as from the for loop, with fuel from i."""
        scan = self.scan(chain)
        if scan is None:
            return
        emit = self.emit
        base, index, offset = scan
        cost = self.batch
        emit(ind, f"n = (fuel - mark) // {cost:d}")
        if base is None:
            emit(ind, f"a = l{index:d}")
        else:
            emit(ind, f"a = (l{base:d} + l{index:d}) & 4294967295")
        first, back = (f"a + {offset:d}", f"a - {offset:d}") if offset else ("a", "a")
        emit(ind, f"if a + n <= 4294967296 and {first} + n <= len(mem):")
        emit(ind + 1, f"i = mem.find(0, {first}, {first} + n) - {back}")
        emit(ind + 1, "if i < 0:")
        emit(ind + 2, f"l{index:d} = (l{index:d} + n) & 4294967295")
        emit(ind + 2, f"fuel -= {cost:d} * n")
        emit(ind + 2, "continue")
        emit(ind + 1, f"l{index:d} = (l{index:d} + i) & 4294967295")
        _, _, _, target, height, kept = self.blocks[chain[0]]
        self.goto(target, _Stack(0), ind + 1, False, (height, kept), refund=self.blocks[chain[1]][0])

    def left(self, rest: int) -> str:
        """The fuel left where the chain's last rest units go unspent."""
        if self.batch:
            return f"fuel - {self.batch:d} * i - {self.batch - rest:d}"
        return f"fuel + {rest:d}"

    def block(self, k: int, stack: _Stack, ind: int, later: int) -> int | None:
        """Emit block k, whose chain charged later units for the blocks
        after it; return the block its region goes on with, if any."""
        emit = self.emit
        _, work, term, a, b, c = self.blocks[k]
        for op, x, rest in work:
            if not self.op(op, x, rest + later, stack, ind):
                return None
            if len(stack.top) > _MAX_PENDING:
                self.write_slots(stack, ind)
                stack.base = len(stack)
                stack.top.clear()
        if term is None:
            return self.fall(k + 1, stack, ind)
        if term == 0x0D:  # br_if
            cond = stack.pop()
            emit(ind, f"if {cond.expr}:")
            self.goto(a, stack, ind + 1, False, (b, c), refund=later)
            return self.fall(k + 1, stack, ind)
        if term == 0x0C:  # br
            self.goto(a, stack, ind, True, (b, c))
            return None
        if term == 0x04:  # if
            cond = stack.pop()
            emit(ind, f"if not {cond.expr}:")
            self.goto(a, stack, ind + 1, False, refund=later)
            return self.fall(k + 1, stack, ind)
        if term == 0x05:  # else, reached from the then-arm
            self.goto(a, stack, ind, True)
            return None
        self.call(a, b, stack, ind)
        return self.fall(k + 1, stack, ind)

    def fall(self, j: int, stack: _Stack, ind: int) -> int | None:
        if j in self.inlined:
            return j
        self.goto(j, stack, ind, True)
        return None

    def goto(
        self,
        target: int,
        stack: _Stack,
        ind: int,
        tail: bool,
        cut: tuple[int, int] | None = None,
        refund: int = 0,
    ) -> None:
        """Leave the region for block target, with the stack or, for a
        branch, the entries below height b and the c on top, giving back
        the refund charged for the chain's blocks this skips."""
        emit = self.emit
        if refund or (self.batch and target != self.head):
            emit(ind, f"fuel = {self.left(refund)}")
        if target == len(self.blocks):  # return
            emit(ind, "inst.fuel = fuel")
            if self.returns:
                emit(ind, f"return {stack.values(len(stack) - 1)[0].int}")
            else:
                emit(ind, "return")
            return
        if cut is None:
            self.write_slots(stack, ind)
        else:
            b, c = cut
            for p, v in enumerate(stack.top[: max(b - stack.base, 0)], stack.base):
                emit(ind, f"s{p:d} = {v.int}")
            for p, v in enumerate(stack.values(len(stack) - c), b):
                if v.expr != f"s{p:d}":
                    emit(ind, f"s{p:d} = {v.int}")
        if self.head is not None:
            # inside a self-loop's own while loop: the back edge goes round
            # it, any other jump leaves it for the later tests
            if target == self.head:
                emit(ind, "continue")
            else:
                emit(ind, f"k = {target:d}")
                emit(ind, "break")
            return
        emit(ind, f"k = {target:d}")
        # a jump at a region's end falls into the later tests, and the loop
        # goes round when none matches; a target tested first goes round now
        if not tail or target in self.first:
            emit(ind, "continue")

    def call(self, func: int, n_args: int, stack: _Stack, ind: int) -> None:
        emit = self.emit
        args = "".join(f", {v.int}" for v in reversed([stack.pop() for _ in range(n_args)]))
        n_results = len(self.func_types[func][1])
        emit(ind, "inst.fuel = fuel")
        if func < self.n_imported:  # read the table now: embedders may swap it
            if n_results:
                emit(ind, f"h = inst.host_table[{func:d}]")
                result = self.temp(ind, f"h.fn(inst{args})")
                emit(ind, f"if {result.expr} is None:")
                emit(ind + 1, "raise _no_value(h)")
                emit(ind, f"{result.expr} &= 4294967295")
                stack.append(result)
            else:
                emit(ind, f"inst.host_table[{func:d}].fn(inst{args})")
        else:
            call = f"f{func:d}(inst, depth + 1{args})"
            if n_results:
                stack.append(self.temp(ind, call))
            else:
                emit(ind, call)
            emit(ind, "fuel = inst.fuel")
            emit(ind, "mark = fuel & -4096")
        if self.size:
            emit(ind, "size = len(mem)")

    def op(self, op: int, x: Any, rest: int, stack: _Stack, ind: int) -> bool:
        """Emit one op that does work; False when it always traps."""
        emit = self.emit
        if op == 0x20:  # local.get
            stack.append(_Value(f"l{x:d}", frozenset([x])))
        elif op == 0x41:  # i32.const
            stack.append(_Value(f"{x:d}"))
        elif op in _PURE_BINARY:
            template, test = _PURE_BINARY[op]
            rhs = stack.pop()
            lhs = stack.pop()
            expr = template.format(a=lhs.int, b=rhs.int)
            stack.append(self.pure(ind, expr, (lhs, rhs), test))
        elif op == 0x21 or op == 0x22:  # local.set, local.tee
            value = stack.pop()
            for i, v in enumerate(stack.top):  # entries that read the old value
                if x in v.locals:
                    stack.top[i] = self.temp(ind, v.expr, v.test)
            emit(ind, f"l{x:d} = {value.int}")
            if op == 0x22:
                stack.append(_Value(f"l{x:d}", frozenset([x])))
        elif op == 0x45:  # i32.eqz
            value = stack.pop()
            stack.append(self.pure(ind, f"(not {value.expr})", (value,), True))
        elif op == 0x1A:  # drop
            stack.pop()
        elif op == 0x1B:  # select
            cond = stack.pop()
            other = stack.pop()
            first = stack.pop()
            expr = f"({first.int} if {cond.expr} else {other.int})"
            stack.append(self.pure(ind, expr, (first, other, cond)))
        elif op in _LOADS:
            width, template = _LOADS[op]
            ptr = self.address(stack.pop(), x, width, ind)
            value = _Value(f"t{self.temps:d}")
            self.temps += 1
            trap = f"_oob_read(inst, {self.left(rest)}, {ptr}, {width:d})"
            self.access(ptr, width, f"{value.expr} = {template.format(p=ptr)}", trap, ind)
            stack.append(value)
        elif op in _STORES:
            width, template = _STORES[op]
            value = stack.pop()
            ptr = self.address(stack.pop(), x, width, ind)
            trap = f"_oob_write(inst, {self.left(rest)}, {ptr})"
            self.access(ptr, width, template.format(p=ptr, v=value.int), trap, ind)
        elif op in _DIVISION:
            divisor = self.atom(ind, stack.pop())
            dividend = stack.pop()
            emit(ind, f"if not {divisor.expr}:")
            emit(ind + 1, f"raise _trap(inst, {self.left(rest)}, 'integer divide by zero')")
            if op == 0x6D:
                dividend = self.atom(ind, dividend)
                emit(ind, f"if {divisor.expr} == 4294967295 and {dividend.expr} == 2147483648:")
                emit(
                    ind + 1,
                    f"raise _trap(inst, {self.left(rest)}, 'integer overflow in division')",
                )
            expr = _DIVISION[op].format(a=dividend.int, b=divisor.expr)
            stack.append(self.pure(ind, expr, (dividend, divisor)))
        elif op == 0x3F:  # memory.size
            stack.append(self.temp(ind, "size >> 16"))
        elif op == 0x40:  # memory.grow
            stack.append(self.temp(ind, f"inst.mem_grow({stack.pop().int})"))
            if self.size:
                emit(ind, "size = len(mem)")
        else:  # unreachable, the only other op the decoder admits
            emit(ind, f"raise _trap(inst, {self.left(rest)}, 'unreachable executed')")
            return False
        return True

    def address(self, base: _Value, offset: int, width: int, ind: int) -> str:
        """The address expression; a temporary unless only a one-byte
        access reads it, whose trap alone reads it again."""
        ptr = f"{base.int} + {offset:d}" if offset else base.int
        if width == 1:
            return ptr
        return self.temp(ind, ptr).expr if offset else self.atom(ind, base).expr

    def access(self, ptr: str, width: int, statement: str, trap: str, ind: int) -> None:
        """Emit statement, an access of width bytes at ptr, raising trap
        where the access leaves memory. A one-byte access runs unguarded:
        an address is a u32 plus a u32 offset, never negative, so the
        bytearray's own IndexError is the bounds check."""
        if width == 1:
            self.emit(ind, "try:")
            self.emit(ind + 1, statement)
            self.emit(ind, "except _index_error:")
            self.emit(ind + 1, f"raise {trap} from None")
        else:
            self.emit(ind, f"if {ptr} + {width:d} > size:")
            self.emit(ind + 1, f"raise {trap}")
            self.emit(ind, statement)


def instantiate(
    module: ParsedModule,
    host_table: Sequence[HostFunc],
    max_memory_bytes: int,
    tier2: Tier2 | None = None,
    embedder: Any = None,
) -> Instance:
    """Fresh instance over a private store; only the immutable module is shared.

    host_table is resolve_imports(module, ...). tier2, from
    compile_tier2(module), runs the module's functions as generated code;
    without it they are interpreted. embedder is attached to the instance
    for the host functions (Instance.embedder).
    """
    return Instance(module, host_table, max_memory_bytes, tier2, embedder)
