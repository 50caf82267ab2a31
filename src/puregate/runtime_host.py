"""Execution host for gate-accepted executors.

Runs only what the gate admitted: the bytes an acceptance's compile handle
holds, instantiated with exactly the host functions named in the whitelist
the gate admitted them under. It runs the module's `plan` export and
collects the output. All data crosses the WASM boundary through host calls:
the input document is fetched via get_input_len/get_input, the output
document leaves via set_output (at most once), log lines via log, and,
under the extended whitelist, directive constructors append effect
descriptions to a host-side accumulator.

The host functions keep no state of their own: each reaches the running
invocation's buffers (_HostState) through the instance it is called with
(Instance.embedder). So a module's imports are resolved and signature-checked
once per artifact, and the compile handle keeps that one binding, with
whether the module imports get_input_len or get_input; a warm plan binds
nothing.

The input is serialized to canonical JSON at most once per plan, just before
instantiation and so before any instruction runs, and only for a module that
imports get_input_len or get_input. A module reaches only the host functions
it imports, so one that imports neither can never observe the input, and its
input is never serialized: a non-canonical input (a NaN, a set) raises
CanonicalError before the plan starts for an executor that reads the input,
and is no error at all for one that does not.

plan's ABI: exported as `plan() -> i32`, 0 meaning ok and any nonzero value
an executor-declared error code (surfaced as PlanFailed, a deterministic
abnormal termination).

Every invocation gets a fresh instance, private memory and its own buffers;
nothing survives between calls. What invocations of one artifact share is
its compiled module and its import binding, which the gate's acceptance
carries: both are made on the first plan and are immutable, so later plans
only build the instance (fresh memory, data segments copied in, that call's
buffers attached).
Each plan adds the fuel it spent to the artifact's compile handle, which
tiers the module up to generated code once it has run enough to repay the
compile (wasmvm.ModuleCell).
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping

from .canonical import CanonicalError, canonical_bytes, canonical_loads
from .gate import GateDecision
from .wasmvm import (
    FuelExhausted,
    HostFunc,
    Instance,
    MemoryExceeded,
    MissingExport,
    ParsedModule,
    Timeout,
    Trap,
    VMError,
    instantiate,
    resolve_imports,
)
from .whitelist import CONSTRUCTOR_KINDS, Whitelist

# fuel, not the clock, stops a runaway plan: tier 1, the slower tier, spent
# 0.24-0.27 us per unit on fuel_burn, so a quarter of the default deadline
# covers at most about 930 000 units; this leaves room for a host at half
# that speed
DEFAULT_FUEL = 500_000
DEFAULT_MEMORY_MAX = 64 * 1024 * 1024
DEFAULT_WALL_CLOCK_MS = 1000

DIRECTIVE_KINDS = (
    "llm_call",
    "http_request",
    "file_op",
    "call_machine",
    "memory_op",
    "code_eval",
    "emit_event",
)


class GateNotPassed(Exception):
    """Refusal to instantiate: no acceptance admitted these bytes, or not
    under this whitelist."""


class MalformedOutput(VMError):
    """The executor's output protocol was violated."""


class PlanFailed(Trap):
    """plan returned a nonzero executor-declared error code."""

    def __init__(self, code: int):
        super().__init__(f"plan returned error code {code}")
        self.code = code


@dataclass(frozen=True)
class ResourceLimits:
    fuel: int = DEFAULT_FUEL
    memory_max: int = DEFAULT_MEMORY_MAX
    wall_clock_ms: int = DEFAULT_WALL_CLOCK_MS

    def __post_init__(self) -> None:
        if self.fuel <= 0 or self.memory_max <= 0 or self.wall_clock_ms <= 0:
            raise ValueError("resource limits must all be positive")


@dataclass(frozen=True)
class ExecutorInput:
    step_config: Any
    context: Any

    def serialize(self) -> bytes:
        return canonical_bytes(
            {"context": self.context, "step_config": self.step_config}
        )


@dataclass(frozen=True)
class Directive:
    kind: str
    payload: Any

    def __post_init__(self) -> None:
        if self.kind not in DIRECTIVE_KINDS:
            raise ValueError(f"unknown directive kind: {self.kind!r}")

    def to_json(self) -> dict[str, Any]:
        return {"kind": self.kind, "payload": self.payload}

    @classmethod
    def from_json(cls, obj: Mapping[str, Any]) -> "Directive":
        return cls(kind=obj["kind"], payload=obj["payload"])


@dataclass(frozen=True)
class ExecutorOutput:
    result: Any
    directives: tuple[Directive, ...]
    log_lines: tuple[str, ...]

    def to_json(self) -> dict[str, Any]:
        return {
            "result": self.result,
            "directives": [d.to_json() for d in self.directives],
            "log_lines": list(self.log_lines),
        }


@dataclass
class _HostState:
    """Per-invocation mutable buffers the host functions write into.

    Each instance carries its own as Instance.embedder. input_bytes is the
    executor input serialized, or None when the module imports neither
    get_input_len nor get_input.
    """

    input_bytes: bytes | None = None
    output_docs: list[bytes] = field(default_factory=list)
    directives: list[Directive] = field(default_factory=list)
    log_lines: list[str] = field(default_factory=list)


# the host functions: each reaches the running invocation's _HostState
# through the instance it is given, so one function serves every instance


def _get_input_len(inst: Instance) -> int:
    return len(inst.embedder.input_bytes)


def _get_input(inst: Instance, ptr: int) -> None:
    inst.write_mem(ptr, inst.embedder.input_bytes)


def _set_output(inst: Instance, ptr: int, length: int) -> None:
    output_docs = inst.embedder.output_docs
    if output_docs:
        raise MalformedOutput("set_output called more than once")
    output_docs.append(inst.read_mem(ptr, length))


def _log(inst: Instance, ptr: int, length: int) -> None:
    inst.embedder.log_lines.append(
        inst.read_mem(ptr, length).decode("utf-8", errors="replace")
    )


_PROVIDED = {
    "get_input_len": _get_input_len,
    "get_input": _get_input,
    "set_output": _set_output,
    "log": _log,
}


class _HostTable(Mapping[tuple[str, str], HostFunc]):
    """Import resolution over a whitelist: one key per entry, looked up in
    the whitelist's own index.

    A module binds only the few imports it names. The host functions are
    stateless, so the HostFunc of an entry is one object per (name,
    signature) in the process, shared by every binding.
    """

    def __init__(self, whitelist: Whitelist):
        self._whitelist = whitelist

    def __getitem__(self, key: tuple[str, str]) -> HostFunc:
        entry = self._whitelist.index[key]
        return _host_func(entry.name, entry.type_signature)

    def __contains__(self, key: object) -> bool:
        return key in self._whitelist.index

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return iter(self._whitelist.index)

    def __len__(self) -> int:
        return len(self._whitelist.index)


def build_host_functions(whitelist: Whitelist) -> Mapping[tuple[str, str], HostFunc]:
    """The import-resolution table: exactly one entry per whitelist entry.

    Capability closure depends on this being a bijection with the whitelist:
    nothing outside the whitelist is resolvable, and everything inside it is.
    Entries without a real implementation in this host profile resolve to a
    deterministic trap, which grants no effect capability.
    """
    return _HostTable(whitelist)


@functools.lru_cache(maxsize=256)
def _host_func(name: str, signature: str) -> HostFunc:
    return HostFunc(signature, _implementation_for(name))


def _implementation_for(name: str) -> Callable[..., int | None]:
    if name in _PROVIDED:
        return _PROVIDED[name]
    if name in CONSTRUCTOR_KINDS:
        kind = CONSTRUCTOR_KINDS[name]

        def construct(inst: Instance, ptr: int, length: int) -> None:
            raw = inst.read_mem(ptr, length)
            try:
                payload = canonical_loads(raw)
            except (CanonicalError, ValueError) as exc:
                raise MalformedOutput(
                    f"{name} payload is not a valid document: {exc}"
                ) from exc
            inst.embedder.directives.append(Directive(kind=kind, payload=payload))

        return construct

    def unprovided(inst: Instance, *args: int) -> None:
        # whitelisted but not implemented by this host profile; calling it
        # terminates deterministically and performs nothing
        raise Trap(f"host function {name} is not provided by this profile")

    return unprovided


@dataclass(frozen=True)
class _Binding:
    """A module's imports resolved under the whitelist that admitted it."""

    host_table: tuple[HostFunc, ...]
    reads_input: bool  # it imports get_input_len or get_input


def _bind(module: ParsedModule, whitelist: Whitelist) -> _Binding:
    host_table = resolve_imports(module, build_host_functions(whitelist))
    # every import resolved, so each is the whitelist entry of its own name
    reads_input = any(
        imp.name in ("get_input_len", "get_input") for imp in module.imported_funcs
    )
    return _Binding(host_table, reads_input)


def _parse_output_doc(raw: bytes, state: _HostState) -> ExecutorOutput:
    try:
        doc = canonical_loads(raw)
    except (CanonicalError, ValueError) as exc:
        raise MalformedOutput(f"output is not a valid document: {exc}") from exc
    if not isinstance(doc, dict) or "result" not in doc:
        raise MalformedOutput("output document must be an object with a result")
    doc_directives = doc.get("directives", [])
    if not isinstance(doc_directives, list):
        raise MalformedOutput("directives must be a list")
    directives = list(state.directives)
    for item in doc_directives:
        try:
            directives.append(Directive.from_json(item))
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedOutput(f"bad directive in output: {exc}") from exc
    return ExecutorOutput(
        result=doc["result"],
        directives=tuple(directives),
        log_lines=tuple(state.log_lines),
    )


def instantiate_and_plan(
    binary_bytes: bytes,
    decision: GateDecision,
    executor_input: ExecutorInput,
    limits: ResourceLimits = ResourceLimits(),
    runtime_whitelist: Whitelist | None = None,
) -> ExecutorOutput:
    """Run one gated invocation: fresh instance, plan call, output collection.

    Only what the gate admitted runs: the decision must be an acceptance
    whose compile handle holds exactly binary_bytes, and the imports are
    bound under the whitelist it was admitted under. runtime_whitelist
    checks that whitelist: when given, it must have the admitted one's
    content hash. Anything else refuses instantiation (GateNotPassed).
    The module is compiled and its imports resolved through the handle, so
    only the first plan of an artifact decodes or binds.

    The input is serialized only if the module imports get_input_len or
    get_input, just before instantiation: for such a module a non-canonical
    input raises CanonicalError before any instruction runs; for any other
    module the input never crosses the boundary and is not checked.
    """
    cell = decision.compiled
    if not decision.accepted or cell is None or binary_bytes != cell.binary:
        raise GateNotPassed(
            "no accepting gate decision for these bytes; refusing to run"
        )
    admitted = decision.admitted.whitelist
    if (
        runtime_whitelist is not None
        and runtime_whitelist.content_hash != admitted.content_hash
    ):
        raise GateNotPassed(
            "these bytes were admitted under another whitelist; refusing to run"
        )

    module = cell.module()
    binding = cell.bound(_bind, admitted)
    state = _HostState()
    if binding.reads_input:
        state.input_bytes = executor_input.serialize()
    instance = instantiate(
        module, binding.host_table, limits.memory_max, cell.tier2(), state
    )
    try:
        results = instance.invoke("plan", [], limits.fuel, limits.wall_clock_ms)
    finally:
        cell.add_fuel(limits.fuel - instance.fuel)

    code = results[0] if results else 0
    if code != 0:
        raise PlanFailed(code)
    if not state.output_docs:
        raise MalformedOutput("plan returned without calling set_output")
    return _parse_output_doc(state.output_docs[0], state)


def determinism_check(
    binary_bytes: bytes,
    decision: GateDecision,
    executor_input: ExecutorInput,
    limits: ResourceLimits = ResourceLimits(),
    n: int = 20,
) -> dict[str, Any]:
    """Run plan n times on identical input; count divergent serialized outputs.

    An errored run is represented by its error class and message, so n runs
    that all fail identically count as zero divergences.
    """
    digests: list[str] = []
    for _ in range(n):
        try:
            output = instantiate_and_plan(binary_bytes, decision, executor_input, limits)
            rendering = canonical_bytes(output.to_json())
        except (VMError, GateNotPassed) as exc:
            rendering = canonical_bytes(
                {"error": type(exc).__name__, "message": str(exc)}
            )
        digests.append(hashlib.sha256(rendering).hexdigest())
    divergences = sum(1 for d in digests if d != digests[0])
    return {"divergences": divergences, "outputs": digests}


__all__ = [
    "DIRECTIVE_KINDS",
    "CONSTRUCTOR_KINDS",
    "Directive",
    "ExecutorInput",
    "ExecutorOutput",
    "GateNotPassed",
    "MalformedOutput",
    "PlanFailed",
    "ResourceLimits",
    "build_host_functions",
    "determinism_check",
    "instantiate_and_plan",
    # re-exported execution errors
    "Trap",
    "FuelExhausted",
    "MemoryExceeded",
    "Timeout",
    "MissingExport",
]
