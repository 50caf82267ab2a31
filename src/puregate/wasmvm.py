"""Minimal in-process WebAssembly virtual machine.

Executes the i32 subset the fixture corpus uses: structured control flow,
locals, linear memory with active data segments, host-function imports, and
metered execution (instruction fuel, memory ceiling, wall-clock deadline).
No package index here ships a WASM runtime, so this repo carries its own;
it is an interpreter for gate-accepted modules, not a general engine:
floats, i64, tables, globals, and element/start sections are rejected at
instantiation.

Isolation properties the host relies on: each Instance owns a private linear
memory created at instantiation (no state survives between instances), and
the only way a module touches the outside world is through the host-function
table passed in by the embedder.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from .wasm_inspect import FuncType, ImportRecord, MalformedBinary, decode_header
from .wasm_inspect import _Reader  # shared bounded cursor

PAGE_BYTES = 65536


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

@dataclass(frozen=True)
class _Code:
    locals_count: int
    ops: tuple[tuple[int, int, int], ...]  # (opcode, imm_a, imm_b)
    ends: Mapping[int, int]  # block/loop/if index -> its end index
    elses: Mapping[int, int]  # if index -> else index (or end index)


@dataclass(frozen=True)
class ParsedModule:
    """Everything derived from the bytes; instances add only runtime state."""

    imported_funcs: tuple[ImportRecord, ...]
    func_types: tuple[FuncType, ...]  # by function index, imports first
    memory: tuple[int, int | None] | None
    exports: Mapping[str, tuple[int, int]]  # name -> (kind, index)
    codes: tuple[_Code, ...]
    data: tuple[tuple[int, bytes], ...]


_NUMERIC_TYPES = frozenset(["i32", "i64", "f32", "f64"])


def parse_module(binary: bytes) -> ParsedModule:
    """Decode the executable module; reject anything outside the subset.

    Every structural fault, including bytes the shared decoder cannot read,
    raises InstantiationError, so the VM fails only with VMError subclasses.
    """
    try:
        return _parse_module(binary)
    except MalformedBinary as exc:
        raise InstantiationError(f"malformed module: {exc}") from exc


def _parse_module(binary: bytes) -> ParsedModule:
    header = decode_header(binary)
    for params, results in header.types:
        if not _NUMERIC_TYPES.issuperset(params + results):
            raise InstantiationError("only numeric value types are supported")
    for imp in header.imports:
        if imp.kind != "function":
            raise InstantiationError(
                f"import {imp.namespace}.{imp.name}: only function imports "
                "are instantiable"
            )
    func_types = list(header.func_import_types)
    memory: tuple[int, int | None] | None = None
    exports: dict[str, tuple[int, int]] = {}
    codes: list[_Code] = []
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
            codes.extend(_decode_body(r.take(r.u32())) for _ in range(r.u32()))
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

    if len(codes) != len(func_types) - len(header.func_import_types):
        raise InstantiationError("function and code section counts differ")
    for kind, index in exports.values():
        if kind == 0 and index >= len(func_types):
            raise InstantiationError(f"export of unknown function {index}")
    return ParsedModule(
        imported_funcs=header.imports,
        func_types=tuple(func_types),
        memory=memory,
        exports=exports,
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
# decoded instructions
# ---------------------------------------------------------------------------

_NO_IMM = frozenset(
    [0x00, 0x01, 0x05, 0x0B, 0x0F, 0x1A, 0x1B]
    + list(range(0x45, 0x50))
    + list(range(0x6A, 0x79))
)
_MEM_OPS = frozenset([0x28, 0x2C, 0x2D, 0x2E, 0x2F, 0x36, 0x3A, 0x3B])


def _decode_body(body: bytes) -> _Code:
    r = _Reader(body)
    locals_count = 0
    for _ in range(r.u32()):
        n = r.u32()
        if r.byte() != 0x7F:
            raise InstantiationError("only i32 locals are supported")
        locals_count += n
    ops: list[tuple[int, int, int]] = []
    while r.pos < r.end:
        op = r.byte()
        if op in _NO_IMM:
            ops.append((op, 0, 0))
        elif op in (0x02, 0x03, 0x04):  # block/loop/if
            bt = r.byte()
            arity = 0 if bt == 0x40 else 1
            ops.append((op, arity, 0))
        elif op in (0x0C, 0x0D):  # br/br_if
            ops.append((op, r.u32(), 0))
        elif op in (0x20, 0x21, 0x22):  # local.*
            ops.append((op, r.u32(), 0))
        elif op == 0x10:  # call
            ops.append((op, r.u32(), 0))
        elif op == 0x41:  # i32.const
            ops.append((op, _read_sleb32(r) & 0xFFFFFFFF, 0))
        elif op in _MEM_OPS:
            _align = r.u32()
            offset = r.u32()
            ops.append((op, offset, 0))
        elif op in (0x3F, 0x40):  # memory.size/grow
            if r.byte() != 0x00:
                raise InstantiationError("multi-memory instructions unsupported")
            ops.append((op, 0, 0))
        else:
            raise InstantiationError(f"unsupported opcode 0x{op:02x}")

    ends: dict[int, int] = {}
    elses: dict[int, int] = {}
    stack: list[int] = []
    for i, (op, _, _) in enumerate(ops):
        if op in (0x02, 0x03, 0x04):
            stack.append(i)
        elif op == 0x05:
            if not stack or ops[stack[-1]][0] != 0x04:
                raise InstantiationError("else without matching if")
            elses[stack[-1]] = i
        elif op == 0x0B:
            if stack:
                start = stack.pop()
                ends[start] = i
                if ops[start][0] == 0x04 and start not in elses:
                    elses[start] = i
            # the final end of the function body closes the implicit frame
    if stack:
        raise InstantiationError("unclosed block in function body")
    return _Code(locals_count, tuple(ops), ends, elses)


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
        self._check_counter = 0

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

    def _spend(self, amount: int = 1) -> None:
        self.fuel -= amount
        if self.fuel < 0:
            raise FuelExhausted("instruction budget exhausted")
        self._check_counter += 1
        if self._check_counter >= 4096:
            self._check_counter = 0
            if time.monotonic() > self.deadline:
                raise Timeout("wall-clock deadline exceeded")

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
        self._check_counter = 0
        return self._call_function(entry[1], args)

    def _call_function(self, func_index: int, args: list[int]) -> list[int]:
        n_imported = len(self.module.imported_funcs)
        params, results = self.module.func_types[func_index]
        if len(args) != len(params):
            raise Trap(f"function expects {len(params)} arguments, got {len(args)}")
        if func_index < n_imported:
            host = self.host_table[func_index]
            self._spend()
            result = host.fn(self, *args)
            if not results:
                return []
            if result is None:
                raise Trap(f"host {host.signature} returned no value")
            return [result & 0xFFFFFFFF]

        code = self.module.codes[func_index - n_imported]
        locals_ = list(args) + [0] * code.locals_count
        return self._run(code, locals_, len(results))

    def _run(
        self, code: _Code, locals_: list[int], result_arity: int
    ) -> list[int]:
        ops = code.ops
        ends = code.ends
        elses = code.elses
        stack: list[int] = []
        # control entries: (kind_op, continuation_ip, stack_height, arity,
        #                   loop_start)
        control: list[tuple[int, int, int, int, int]] = []
        ip = 0
        n_ops = len(ops)

        def branch(depth: int) -> int:
            if depth >= len(control):
                # branching out of the function body: return
                return n_ops
            target = control[len(control) - 1 - depth]
            kind, cont, height, arity, loop_start = target
            if kind == 0x03:  # loop: jump back, keep the label
                del control[len(control) - depth :]
                del stack[height:]
                return loop_start + 1
            carried = stack[len(stack) - arity :] if arity else []
            del control[len(control) - 1 - depth :]
            del stack[height:]
            stack.extend(carried)
            return cont

        while ip < n_ops:
            op, a, _b = ops[ip]
            self._spend()
            if op == 0x41:  # i32.const
                stack.append(a)
            elif op == 0x20:  # local.get
                stack.append(locals_[a])
            elif op == 0x21:  # local.set
                locals_[a] = stack.pop()
            elif op == 0x22:  # local.tee
                locals_[a] = stack[-1]
            elif op == 0x02:  # block
                control.append((op, ends[ip] + 1, len(stack), a, ip))
            elif op == 0x03:  # loop
                control.append((op, ends[ip] + 1, len(stack), a, ip))
            elif op == 0x04:  # if
                cond = stack.pop()
                control.append((op, ends[ip] + 1, len(stack), a, ip))
                if not cond:
                    else_ip = elses.get(ip, ends[ip])
                    if else_ip == ends[ip]:
                        control.pop()
                        ip = ends[ip] + 1
                        continue
                    ip = else_ip + 1
                    continue
            elif op == 0x05:  # else reached by fallthrough: skip to end
                kind, cont, height, arity, _ls = control.pop()
                carried = stack[len(stack) - arity :] if arity else []
                del stack[height:]
                stack.extend(carried)
                ip = cont
                continue
            elif op == 0x0B:  # end
                if control:
                    control.pop()
            elif op == 0x0C:  # br
                ip = branch(a)
                continue
            elif op == 0x0D:  # br_if
                if stack.pop():
                    ip = branch(a)
                    continue
            elif op == 0x0F:  # return
                break
            elif op == 0x10:  # call
                n_args = len(self.module.func_types[a][0])
                call_args = stack[len(stack) - n_args :] if n_args else []
                del stack[len(stack) - n_args :]
                stack.extend(self._call_function(a, call_args))
            elif op == 0x00:  # unreachable
                raise Trap("unreachable executed")
            elif op == 0x01:  # nop
                pass
            elif op == 0x1A:  # drop
                stack.pop()
            elif op == 0x1B:  # select
                c = stack.pop()
                v2 = stack.pop()
                v1 = stack.pop()
                stack.append(v1 if c else v2)
            elif op == 0x28:  # i32.load
                ptr = stack.pop() + a
                stack.append(int.from_bytes(self.read_mem(ptr, 4), "little"))
            elif op == 0x2C:  # i32.load8_s
                ptr = stack.pop() + a
                v = self.read_mem(ptr, 1)[0]
                stack.append((v - 256 if v >= 128 else v) & 0xFFFFFFFF)
            elif op == 0x2D:  # i32.load8_u
                ptr = stack.pop() + a
                stack.append(self.read_mem(ptr, 1)[0])
            elif op == 0x2E:  # i32.load16_s
                ptr = stack.pop() + a
                v = int.from_bytes(self.read_mem(ptr, 2), "little")
                stack.append((v - 65536 if v >= 32768 else v) & 0xFFFFFFFF)
            elif op == 0x2F:  # i32.load16_u
                ptr = stack.pop() + a
                stack.append(int.from_bytes(self.read_mem(ptr, 2), "little"))
            elif op == 0x36:  # i32.store
                val = stack.pop()
                ptr = stack.pop() + a
                self.write_mem(ptr, (val & 0xFFFFFFFF).to_bytes(4, "little"))
            elif op == 0x3A:  # i32.store8
                val = stack.pop()
                ptr = stack.pop() + a
                self.write_mem(ptr, bytes([val & 0xFF]))
            elif op == 0x3B:  # i32.store16
                val = stack.pop()
                ptr = stack.pop() + a
                self.write_mem(ptr, (val & 0xFFFF).to_bytes(2, "little"))
            elif op == 0x3F:  # memory.size
                stack.append(self.mem_pages())
            elif op == 0x40:  # memory.grow
                stack.append(self.mem_grow(stack.pop()))
            elif 0x45 <= op <= 0x4F:
                stack.append(_compare(op, stack))
            elif 0x6A <= op <= 0x78:
                stack.append(_arith(op, stack))
            else:
                raise Trap(f"unhandled opcode 0x{op:02x}")
            ip += 1

        if len(stack) < result_arity:
            raise Trap("function returned too few values")
        return stack[len(stack) - result_arity :] if result_arity else []


def _signed(x: int) -> int:
    return x - 0x100000000 if x >= 0x80000000 else x


def _compare(op: int, stack: list[int]) -> int:
    if op == 0x45:  # eqz
        return 1 if stack.pop() == 0 else 0
    b = stack.pop()
    a = stack.pop()
    sa, sb = _signed(a), _signed(b)
    table = {
        0x46: a == b,
        0x47: a != b,
        0x48: sa < sb,
        0x49: a < b,
        0x4A: sa > sb,
        0x4B: a > b,
        0x4C: sa <= sb,
        0x4D: a <= b,
        0x4E: sa >= sb,
        0x4F: a >= b,
    }
    return 1 if table[op] else 0


def _arith(op: int, stack: list[int]) -> int:
    b = stack.pop()
    a = stack.pop()
    mask = 0xFFFFFFFF
    if op == 0x6A:
        return (a + b) & mask
    if op == 0x6B:
        return (a - b) & mask
    if op == 0x6C:
        return (a * b) & mask
    if op in (0x6D, 0x6F):  # div_s / rem_s
        if b == 0:
            raise Trap("integer divide by zero")
        sa, sb = _signed(a), _signed(b)
        if op == 0x6D:
            q = int(sa / sb)  # truncation toward zero
            if q > 0x7FFFFFFF or q < -0x80000000:
                raise Trap("integer overflow in division")
            return q & mask
        return (sa - sb * int(sa / sb)) & mask
    if op in (0x6E, 0x70):  # div_u / rem_u
        if b == 0:
            raise Trap("integer divide by zero")
        return (a // b if op == 0x6E else a % b) & mask
    if op == 0x71:
        return a & b
    if op == 0x72:
        return a | b
    if op == 0x73:
        return a ^ b
    if op == 0x74:
        return (a << (b % 32)) & mask
    if op == 0x75:
        return (_signed(a) >> (b % 32)) & mask
    if op == 0x76:
        return a >> (b % 32)
    if op == 0x77:  # rotl
        n = b % 32
        return ((a << n) | (a >> (32 - n))) & mask if n else a
    if op == 0x78:  # rotr
        n = b % 32
        return ((a >> n) | (a << (32 - n))) & mask if n else a
    raise Trap(f"unhandled arithmetic opcode 0x{op:02x}")


def instantiate(
    binary: bytes,
    host_funcs: Mapping[tuple[str, str], HostFunc],
    max_memory_bytes: int,
) -> Instance:
    """Fresh instance over a private store; nothing is shared or reused."""
    module = parse_module(binary)
    return Instance(module, host_funcs, max_memory_bytes)
