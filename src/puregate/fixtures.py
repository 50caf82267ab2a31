"""Fixture corpus: small executors assembled from committed text sources.

Binaries are never committed; every fixture is assembled deterministically
from its .wat source at use time. assemble_pure() is the builder used for
executors meant to be certified: it refuses sources whose imports fall
outside the whitelist, which is also why a nondeterministic fixture (say,
one importing a clock) cannot be built against the shipped whitelists.

Beyond the committed corpus, assemble_fixture() generates an executor from
a FixtureSpec: a declared import list plus one of a small set of behaviors
(echo, trap and memory_sentinel run the committed fixture's own body).
The generated module declares exactly the listed imports, so negative
fixtures (a WASI import, a table import) assemble fine and fail later at
the gate, where they should.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .canonical import canonical_dumps
from .certificate import KeyPair, PurityCertificate, sign_certificate
from .proof import PurityProof, build_proof
from .wasm_inspect import parse_imports
from .watasm import assemble
from .whitelist import DISALLOWED, Whitelist, classify_import

FIXTURE_DIR = Path(__file__).parent / "fixtures_wat"

# fixtures whose imports are pure under the default v1 whitelist
PURE_V1 = (
    "emit_call",
    "emit_reason",
    "emit_poc",
    "emit_event",
    "echo",
    "memory_sentinel",
    "no_output",
    "trap",
    "plan_error",
    "fuel_burn",
    "no_plan",
    "bypass_memory_hog",
)

# the four production-analog emitters used for determinism and timing runs
EMITTERS = ("emit_call", "emit_reason", "emit_poc", "emit_event")

# bypass-attempt fixtures that must never pass the gate under v1
IMPURE_V1 = (
    "bypass_undeclared",
    "bypass_wasi",
    "bypass_table_import",
    "bypass_second_namespace",
    "mismatched_sig",
    "v2_constructor",  # pure only under the extended whitelist
)


class ImpureFixture(ValueError):
    """assemble_pure refused a source with non-whitelisted imports."""


class UnknownFixture(KeyError):
    """No committed fixture under the requested name."""

    __str__ = Exception.__str__  # the message, not KeyError's repr of it


class UnimplementableBehavior(ValueError):
    """The requested behavior needs an import the FixtureSpec omits."""


def list_fixtures() -> tuple[str, ...]:
    return tuple(sorted(p.stem for p in FIXTURE_DIR.glob("*.wat")))


def fixture_source(name: str) -> str:
    path = FIXTURE_DIR / f"{name}.wat"
    if not path.exists():
        raise UnknownFixture(f"no fixture named {name!r}")
    return path.read_text(encoding="utf-8")


@lru_cache(maxsize=None)
def fixture_binary(name: str) -> bytes:
    return assemble(fixture_source(name))


def assemble_pure(source: str, whitelist: Whitelist) -> bytes:
    """Assemble an executor while refusing non-whitelisted capabilities."""
    binary = assemble(source)
    module = parse_imports(binary)
    for imp in module.imports:
        if classify_import(imp, whitelist).verdict == DISALLOWED:
            raise ImpureFixture(
                f"import {imp.namespace}.{imp.name} {imp.type_signature} is "
                "not in the whitelist"
            )
    return binary


def certified_bundle(
    name: str, key: KeyPair, whitelist: Whitelist, now: int
) -> tuple[bytes, PurityProof, PurityCertificate]:
    """Assemble, prove, and sign one fixture: the full certification path."""
    binary = fixture_binary(name)
    proof = build_proof(parse_imports(binary), whitelist)
    cert = sign_certificate(binary, proof, key, now)
    return binary, proof, cert


# ---------------------------------------------------------------------------
# generated fixtures
# ---------------------------------------------------------------------------

BEHAVIORS = (
    "echo",
    "call_machine_emitter",
    "llm_call_emitter",
    "memory_op_emitter",
    "code_eval_emitter",
    "no_output",
    "trap",
    "memory_sentinel",
)

# fixed output documents for the emitter behaviors
_EMITTER_DOCS = {
    "call_machine_emitter": {
        "result": {"planned": "call"},
        "directives": [
            {"kind": "call_machine", "payload": {"inputs": {}, "machine": "child"}}
        ],
    },
    "llm_call_emitter": {
        "result": {"planned": "llm"},
        "directives": [{"kind": "llm_call", "payload": {"prompt": "summarize"}}],
    },
    "memory_op_emitter": {
        "result": {"planned": "memory"},
        "directives": [
            {"kind": "memory_op", "payload": {"key": "note", "op": "put", "value": 1}}
        ],
    },
    "code_eval_emitter": {
        "result": {"planned": "eval"},
        "directives": [
            {"kind": "code_eval", "payload": {"language": "expr", "source": "1+1"}}
        ],
    },
}

_SET_OUTPUT = ("mashin", "set_output", "(i32, i32) -> ()")
_GET_INPUT_LEN = ("mashin", "get_input_len", "() -> i32")
_GET_INPUT = ("mashin", "get_input", "(i32) -> ()")

_BEHAVIOR_NEEDS = {
    "echo": (_GET_INPUT_LEN, _GET_INPUT, _SET_OUTPUT),
    "call_machine_emitter": (_SET_OUTPUT,),
    "llm_call_emitter": (_SET_OUTPUT,),
    "memory_op_emitter": (_SET_OUTPUT,),
    "code_eval_emitter": (_SET_OUTPUT,),
    "no_output": (),
    "trap": (),
    "memory_sentinel": (_SET_OUTPUT,),
}


@dataclass(frozen=True)
class FixtureSpec:
    name: str
    imports: tuple[tuple[str, str, str], ...]
    behavior: str

    def __post_init__(self) -> None:
        if self.behavior not in BEHAVIORS:
            raise ValueError(f"unknown behavior {self.behavior!r}")


def _wat_string(data: bytes) -> str:
    out = []
    for b in data:
        if b == 0x22:
            out.append('\\"')
        elif b == 0x5C:
            out.append("\\\\")
        elif 0x20 <= b < 0x7F:
            out.append(chr(b))
        else:
            out.append(f"\\{b:02x}")
    return "".join(out)


# behaviors whose memory, data and plan are those of the committed fixture
# of the same name
_COMMITTED_BODIES = ("echo", "trap", "memory_sentinel")


def _import_decl(label: str, namespace: str, name: str, signature: str) -> str:
    if signature.startswith(("(table ", "(memory ", "(global ")):
        return f'  (import "{namespace}" "{name}" {signature})'
    params, _, result = signature.partition(" -> ")
    inner = params.strip()[1:-1].strip()
    parts = [f"func {label}"]
    if inner:
        parts.append("(param " + " ".join(t.strip() for t in inner.split(",")) + ")")
    result = result.strip()
    if result != "()":
        parts.append(f"(result {result})")
    return f'  (import "{namespace}" "{name}" ({" ".join(parts)}))'


@lru_cache(maxsize=None)
def _committed_body(name: str) -> str:
    """A committed fixture's source after its imports, without the module's
    closing parenthesis: its memory, data and functions."""
    lines = fixture_source(name).splitlines()
    last_import = max(
        i for i, line in enumerate(lines) if line.lstrip().startswith("(import ")
    )
    body = "\n".join(lines[last_import + 1 :])
    return body[: body.rindex(")")]


def _emit_body(doc_bytes: bytes) -> list[str]:
    return [
        "  (memory 1)",
        f'  (data (i32.const 1024) "{_wat_string(doc_bytes)}")',
        "  (func $plan (export \"plan\") (result i32)",
        "    i32.const 1024",
        f"    i32.const {len(doc_bytes)}",
        "    call $set_output",
        "    i32.const 0)",
    ]


def fixture_spec_source(spec: FixtureSpec) -> str:
    """Render a FixtureSpec as deterministic WASM text.

    The imports a behavior needs are named as the committed sources name
    them ($get_input_len, $get_input, $set_output); any other function
    import is $h<index>.
    """
    needs = _BEHAVIOR_NEEDS[spec.behavior]
    named: set[tuple[str, str, str]] = set()
    lines = ["(module"]
    func_index = 0
    for imp in spec.imports:
        label = f"$h{func_index}"
        if imp in needs and imp not in named:
            label = f"${imp[1]}"
            named.add(imp)
        lines.append(_import_decl(label, *imp))
        if not imp[2].startswith(("(table ", "(memory ", "(global ")):
            func_index += 1

    for needed in needs:
        if needed not in named:
            raise UnimplementableBehavior(
                f"behavior {spec.behavior!r} needs import "
                f"{needed[0]}.{needed[1]} {needed[2]}"
            )

    if spec.behavior in _COMMITTED_BODIES:
        lines.append(_committed_body(spec.behavior))
    elif spec.behavior in _EMITTER_DOCS:
        doc = canonical_dumps(_EMITTER_DOCS[spec.behavior]).encode()
        lines.extend(_emit_body(doc))
    else:  # no_output
        lines.append("  (memory 1)")
        lines.append('  (func $plan (export "plan") (result i32)')
        lines.append("    i32.const 0)")
    lines.append(")")
    return "\n".join(lines) + "\n"


def assemble_fixture(spec: FixtureSpec) -> bytes:
    """Assemble a FixtureSpec; imports parse back exactly as declared."""
    return assemble(fixture_spec_source(spec))
