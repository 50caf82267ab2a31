"""The three workloads: inputs made from a seed, one timed op, reference checks.

Every workload is a closed loop with one caller. ``prepare(i)`` builds op i's
inputs outside the timed region, ``run(op)`` is the caller's request, timed
from call to return, and ``check`` compares what came back with the
independent results in ``reference``. Each op's choices come from a
``random.Random`` seeded by the workload seed, so the same seed gives the
same sequence of ops. The op mix is dealt from a ``Deck``: every kind of op
comes once per shuffled round, so the mix of any long window is the same
whatever the seed or the number of ops the run reaches, and a mean over the
run does not move with the luck of the draw.

A runtime session (gate cache plus decision log) serves ``SESSION_OPS`` ops
before it is replaced. Within a session both grow with every op, as they do
in a long-running runtime; replacing the session bounds that growth by op
count, so the memory a run reaches does not depend on how many ops the
machine manages in the measured time. ``machine`` primes each new
session's cache before its first op, outside the timed region; ``plan_warm``
keeps one warm cache and rotates only its decision log.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import reference
from puregate import (
    attestation,
    certificate,
    fixtures,
    gate,
    interpreter,
    proof,
    provenance,
    runtime_host,
    signing,
    wasm_inspect,
    watasm,
    whitelist,
)

WAT_DIR = Path(__file__).parent / "wat"
NOW = 1_700_000_000
SESSION_OPS = 25
MAX_CERT_BYTES = 4096

_WORDS = (
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel",
    "india", "juliet", "kilo", "lima", "mike", "november", "oscar", "papa",
)


@dataclass(frozen=True)
class Bundle:
    """A certified executor plus the WAT source its reference output comes from."""

    name: str
    binary: bytes
    proof: proof.PurityProof
    cert: certificate.PurityCertificate
    source: str


class Deck:
    """Draws items in seeded shuffled rounds, each item once per round."""

    def __init__(self, items: list[Any], rng: random.Random):
        self.items = list(items)
        self.rng = rng
        self.queue: list[Any] = []

    def draw(self) -> Any:
        if not self.queue:
            self.queue = list(self.items)
            self.rng.shuffle(self.queue)
        return self.queue.pop()


def keypair(label: str, seed: int) -> certificate.KeyPair:
    return certificate.keypair_from_seed(
        hashlib.sha256(f"perfbench:{label}:{seed}".encode()).digest()
    )


def certify(
    binary: bytes, wl: whitelist.Whitelist, key: certificate.KeyPair
) -> tuple[proof.PurityProof, certificate.PurityCertificate]:
    """The certifier: parse_imports, then build_proof, then sign_certificate."""
    evidence = proof.build_proof(wasm_inspect.parse_imports(binary), wl)
    return evidence, certificate.sign_certificate(binary, evidence, key, NOW)


def certified(
    name: str, source: str, wl: whitelist.Whitelist, key: certificate.KeyPair
) -> Bundle:
    binary = watasm.assemble(source)
    evidence, cert = certify(binary, wl, key)
    return Bundle(name, binary, evidence, cert, source)


def bench_source(name: str) -> str:
    return (WAT_DIR / f"{name}.wat").read_text(encoding="utf-8")


def cert_size(cert: certificate.PurityCertificate) -> int:
    return len(certificate.certificate_bytes(cert))


def make_input(rng: random.Random, target_bytes: int) -> runtime_host.ExecutorInput:
    """A seeded input document of about ``target_bytes`` serialized bytes."""
    config = {"limit": rng.randrange(1, 100), "task": rng.choice(_WORDS)}
    messages: list[dict[str, Any]] = []
    context = {"messages": messages, "session": rng.randrange(10**6)}
    size = len(reference.json_bytes(reference.input_document(config, context)))
    while size < target_bytes:
        message = {
            "n": rng.randrange(1000),
            "role": rng.choice(("assistant", "user")),
            "text": " ".join(rng.choice(_WORDS) for _ in range(rng.randint(3, 12))),
        }
        messages.append(message)
        size += len(reference.json_bytes(message)) + 1
    return runtime_host.ExecutorInput(step_config=config, context=context)


def expected_plan_output(
    bundle_kind: str, source: str, executor_input: runtime_host.ExecutorInput
) -> tuple[Any, list[Any]]:
    """(result, directives) the reference says plan must return."""
    doc = reference.input_document(executor_input.step_config, executor_input.context)
    if bundle_kind == "echo":
        return doc, []
    if bundle_kind == "checksum":
        return {"checksum": reference.checksum(reference.json_bytes(doc))}, []
    emitted = reference.emitter_document(source)
    return emitted["result"], emitted.get("directives", [])


def plan_problems(
    output: runtime_host.ExecutorOutput | None, expected: tuple[Any, list[Any]]
) -> list[str]:
    if output is None:
        return ["plan did not run"]
    problems = []
    if output.result != expected[0]:
        problems.append("plan result differs from reference")
    if [d.to_json() for d in output.directives] != expected[1]:
        problems.append("plan directives differ from reference")
    return problems


def new_services(
    wl: whitelist.Whitelist, key: certificate.KeyPair
) -> interpreter.RuntimeServices:
    return interpreter.RuntimeServices(whitelist=wl, trusted_keys=(key.public_key,))


def gate_bundle(
    bundle: Bundle, services: interpreter.RuntimeServices
) -> gate.GateDecision:
    return gate.gate_verify(
        bundle.binary,
        bundle.cert,
        bundle.proof,
        services.whitelist,
        services.trusted_keys,
        cache=services.cache,
        log=services.decision_log,
    )


# ---------------------------------------------------------------------------
# onboard: every op is an executor the runtime has never seen
# ---------------------------------------------------------------------------

_SET_OUTPUT = ("mashin", "set_output", "(i32, i32) -> ()")
_GET_INPUT_LEN = ("mashin", "get_input_len", "() -> i32")
_GET_INPUT = ("mashin", "get_input", "(i32) -> ()")
_NEEDS = {
    "echo": (_GET_INPUT_LEN, _GET_INPUT, _SET_OUTPUT),
    "call_machine_emitter": (_SET_OUTPUT,),
    "llm_call_emitter": (_SET_OUTPUT,),
    "memory_op_emitter": (_SET_OUTPUT,),
    "code_eval_emitter": (_SET_OUTPUT,),
}
# imports outside every shipped whitelist; the forged-pure bundles carry one
_DISALLOWED = (
    ("wasi_snapshot_preview1", "fd_write", "(i32, i32, i32, i32) -> i32"),
    ("mashin", "clock_now", "() -> i64"),
    ("env", "random_seed", "() -> i32"),
)
_NONCE_SLOT = b"@" * 32
_NONCE_DATA = f'  (data (i32.const 768) "{_NONCE_SLOT.decode()}")\n'

HONEST = "honest"
# hostile kind -> (gate reason, failed step)
HOSTILE = {
    "wrong_key": (gate.R_UNTRUSTED_CERTIFIER, 1),
    "tampered_binary": (gate.R_ARTIFACT_HASH_MISMATCH, 2),
    "swapped_proof": (gate.R_PROOF_HASH_MISMATCH, 3),
    "forged_pure": (gate.R_DISALLOWED_IMPORT, 5),
}
# one op in five presents a hostile bundle, spread evenly over the kinds
KIND_WEIGHTS = {HONEST: 16, **{kind: 1 for kind in HOSTILE}}


@dataclass(frozen=True)
class Template:
    """A generated executor whose nonce slot each op overwrites."""

    behavior: str
    source: str
    binary: bytes
    imports: tuple[tuple[str, str, str], ...]
    proof: proof.PurityProof | None  # None for the forged-pure templates
    disallowed: str | None  # first disallowed import, "namespace.name"
    nonce_at: int


@dataclass(frozen=True)
class OnboardOp:
    kind: str
    template: Template
    binary: bytes
    executor_input: runtime_host.ExecutorInput
    decoy_proof: proof.PurityProof | None
    services: interpreter.RuntimeServices


class Onboard:
    """Certify, cold-gate and plan once an executor seen for the first time.

    Artifacts are seeded FixtureSpec variants: one template for each of the
    four emitter behaviours and echo with each count of 0 to 8 extra
    imports, drawn at random from the v2-extended whitelist, so the import
    count varies widely. A per-op nonce in a data segment makes every
    artifact hash new.
    """

    # one honest template per (behaviour, number of extra imports)
    MAX_EXTRA_IMPORTS = 8
    FORGED_TEMPLATES = 9
    INPUT_BYTES = 100

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(seed)
        self.wl = whitelist.builtin_whitelist(2)
        self.key = keypair("certifier", seed)
        self.rogue = keypair("rogue", seed)
        extras_pool = [
            (e.namespace, e.name, e.type_signature)
            for e in self.wl.entries
            if (e.namespace, e.name, e.type_signature) not in _NEEDS["echo"]
        ]
        self.honest = [
            self._template(rng, behavior, extras, extras_pool, None)
            for behavior in _NEEDS
            for extras in range(self.MAX_EXTRA_IMPORTS + 1)
        ]
        self.forged = [
            self._template(rng, "llm_call_emitter", j % (self.MAX_EXTRA_IMPORTS + 1),
                           extras_pool, _DISALLOWED[j % len(_DISALLOWED)])
            for j in range(self.FORGED_TEMPLATES)
        ]
        inputs = [make_input(rng, self.INPUT_BYTES) for _ in range(8)]
        self.rng = random.Random(seed + 1)
        self.kinds = Deck(
            [k for k, weight in KIND_WEIGHTS.items() for _ in range(weight)], self.rng
        )
        self.honest_deck = Deck(self.honest, self.rng)
        self.forged_deck = Deck(self.forged, self.rng)
        self.inputs = Deck(inputs, self.rng)
        self.services = new_services(self.wl, self.key)
        # sizes of the honest ops' certificates, compact so that their number
        # barely moves peak memory
        self.cert_bytes = array("l")

    def _template(self, rng, behavior, n_extras, extras_pool, disallowed) -> Template:
        extras = rng.sample(extras_pool, n_extras)
        imports = list(_NEEDS[behavior]) + extras
        rng.shuffle(imports)
        if disallowed is not None:
            imports.insert(rng.randrange(len(imports) + 1), disallowed)
        spec = fixtures.FixtureSpec("onboard", tuple(imports), behavior)
        text = fixtures.fixture_spec_source(spec)
        source = text[: text.rindex(")")] + _NONCE_DATA + ")\n"
        binary = watasm.assemble(source)
        if binary.count(_NONCE_SLOT) != 1:
            raise ValueError("nonce slot must appear exactly once in the binary")
        evidence = None
        if disallowed is None:
            evidence = proof.build_proof(wasm_inspect.parse_imports(binary), self.wl)
        return Template(
            behavior,
            source,
            binary,
            tuple(imports),
            evidence,
            f"{disallowed[0]}.{disallowed[1]}" if disallowed else None,
            binary.index(_NONCE_SLOT),
        )

    def prepare(self, i: int) -> OnboardOp:
        rng = self.rng
        if i % SESSION_OPS == 0:
            self.services = new_services(self.wl, self.key)
        kind = self.kinds.draw()
        deck = self.forged_deck if kind == "forged_pure" else self.honest_deck
        template = deck.draw()
        nonce = hashlib.blake2b(f"{self.seed}:{i}".encode(), digest_size=16)
        decoy = None
        if kind == "swapped_proof":
            others = [t for t in self.honest if t.imports != template.imports]
            decoy = others[rng.randrange(len(others))].proof
        return OnboardOp(
            kind=kind,
            template=template,
            binary=template.binary.replace(_NONCE_SLOT, nonce.hexdigest().encode()),
            executor_input=self.inputs.draw(),
            decoy_proof=decoy,
            services=self.services,
        )

    def run(self, op: OnboardOp):
        if op.kind == "forged_pure":
            evidence, cert = forge_pure(op.binary, self.wl, self.key)
        else:
            key = self.rogue if op.kind == "wrong_key" else self.key
            evidence, cert = certify(op.binary, self.wl, key)
        binary = op.binary
        if op.kind == "tampered_binary":
            binary = tamper(binary, op.template.nonce_at)
        if op.kind == "swapped_proof":
            evidence = op.decoy_proof
        services = op.services
        decision = gate.gate_verify(
            binary,
            cert,
            evidence,
            self.wl,
            services.trusted_keys,
            cache=services.cache,
            log=services.decision_log,
        )
        output = None
        if decision.accepted:
            output = runtime_host.instantiate_and_plan(
                binary, decision, op.executor_input, services.limits, self.wl
            )
        return binary, evidence, cert, decision, output

    def check(self, op: OnboardOp, result, verify_calls: int) -> list[str]:
        binary, evidence, cert, decision, output = result
        problems = []
        size = cert_size(cert)
        if size > MAX_CERT_BYTES:
            problems.append(f"certificate is {size} B")
        if op.kind == HONEST:
            self.cert_bytes.append(size)
            if not decision.accepted or decision.from_cache:
                problems.append(f"honest bundle: {decision.to_json()}")
            if verify_calls != 1:
                problems.append(f"cold gate made {verify_calls} signature checks")
            expected = expected_plan_output(
                "echo" if op.template.behavior == "echo" else "emitter",
                op.template.source,
                op.executor_input,
            )
            return problems + plan_problems(output, expected)

        reason, step = HOSTILE[op.kind]
        problems += _rejection_problems(op, decision, reason, step)
        if verify_calls != (0 if step == 1 else 1):
            problems.append(f"{op.kind}: {verify_calls} signature checks")
        # rejections are never cached: presenting the bundle again re-checks it
        before = signing.verify_call_count
        again = gate.gate_verify(
            binary,
            cert,
            evidence,
            self.wl,
            op.services.trusted_keys,
            cache=op.services.cache,
            log=op.services.decision_log,
        )
        if again != decision:
            problems.append(f"{op.kind}: second presentation decided {again.to_json()}")
        if signing.verify_call_count - before != (0 if step == 1 else 1):
            problems.append(f"{op.kind}: second presentation was not re-checked")
        return problems

    def log_events(self) -> int:
        return len(self.services.decision_log.events)


def _rejection_problems(op: OnboardOp, decision, reason: str, step: int) -> list[str]:
    if decision.accepted or decision.from_cache:
        return [f"{op.kind}: not rejected: {decision.to_json()}"]
    problems = []
    if decision.reason != reason or decision.failed_step != step:
        problems.append(
            f"{op.kind}: rejected with {decision.reason} at step "
            f"{decision.failed_step}, expected {reason} at step {step}"
        )
    if op.kind == "forged_pure" and decision.detail != op.template.disallowed:
        problems.append(f"forged_pure: detail {decision.detail!r}")
    return problems


def forge_pure(
    binary: bytes, wl: whitelist.Whitelist, key: certificate.KeyPair
) -> tuple[proof.PurityProof, certificate.PurityCertificate]:
    """What a compromised but trusted certifier ships for an impure binary:
    genuine imports, every classification forged to pure, validly signed."""
    module = wasm_inspect.parse_imports(binary)
    genuine = proof.build_proof(module, wl)
    forged = dataclasses.replace(
        genuine,
        classifications=tuple(
            whitelist.Classification(imp, whitelist.PURE_DATA) for imp in module.imports
        ),
        conclusion=proof.PURE,
    )
    digest = proof.proof_hash(forged)
    cert = certificate.PurityCertificate(
        artifact_hash=module.artifact_hash,
        proof_hash=digest,
        signature=signing.sign(
            key.private_key, certificate.signing_message(module.artifact_hash, digest)
        ),
        metadata=certificate.CertificateMetadata(
            certifier_key=key.public_key,
            timestamp=NOW,
            whitelist_version=wl.version,
            whitelist_hash=wl.content_hash,
        ),
    )
    return forged, cert


def tamper(binary: bytes, offset: int) -> bytes:
    """Flip one bit at ``offset``, inside the nonce: the module stays well formed."""
    mutated = bytearray(binary)
    mutated[offset] ^= 0x01
    return bytes(mutated)


# ---------------------------------------------------------------------------
# plan_warm: a fixed set of certified executors invoked again and again
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanOp:
    bundle: Bundle
    kind: str
    executor_input: runtime_host.ExecutorInput


class PlanWarm:
    """Warm gate (a cache hit) plus instantiate_and_plan on seeded inputs.

    The set is the four committed emitters, echo, and the benchmark's own
    checksum executor, whose fuel grows with input size. Inputs come in
    three sizes, about 0.1, 2 and 16 KB.
    """

    SIZES = (100, 2 * 1024, 16 * 1024)
    INPUTS_PER_SIZE = 6

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.wl = whitelist.builtin_whitelist(1)
        key = keypair("certifier", seed)
        self.bundles = [
            certified(name, fixtures.fixture_source(name), self.wl, key)
            for name in (*fixtures.EMITTERS, "echo")
        ] + [certified("checksum", bench_source("checksum"), self.wl, key)]
        self.services = new_services(self.wl, key)
        for bundle in self.bundles:
            if not gate_bundle(bundle, self.services).accepted:
                raise RuntimeError(f"{bundle.name} was not admitted")
        self.inputs = [
            [make_input(rng, size) for _ in range(self.INPUTS_PER_SIZE)]
            for size in self.SIZES
        ]
        self.rng = random.Random(seed + 1)
        self.combos = Deck(
            [(b, size) for b in self.bundles for size in range(len(self.SIZES))],
            self.rng,
        )
        self.cert_bytes = [cert_size(b.cert) for b in self.bundles]

    def prepare(self, i: int) -> PlanOp:
        rng = self.rng
        if i % SESSION_OPS == 0:
            # rotate the decision log; the warm cache stays
            self.services.decision_log = gate.DecisionLog()
        bundle, size = self.combos.draw()
        kind = bundle.name if bundle.name in ("echo", "checksum") else "emitter"
        docs = self.inputs[size]
        return PlanOp(bundle, kind, docs[rng.randrange(len(docs))])

    def run(self, op: PlanOp):
        decision = gate_bundle(op.bundle, self.services)
        output = runtime_host.instantiate_and_plan(
            op.bundle.binary,
            decision,
            op.executor_input,
            self.services.limits,
            self.wl,
        )
        return decision, output

    def check(self, op: PlanOp, result, verify_calls: int) -> list[str]:
        decision, output = result
        problems = []
        if not decision.accepted or not decision.from_cache:
            problems.append(f"warm gate missed the cache: {decision.to_json()}")
        if verify_calls:
            problems.append(f"warm path made {verify_calls} signature checks")
        expected = expected_plan_output(op.kind, op.bundle.source, op.executor_input)
        return problems + plan_problems(output, expected)

    def log_events(self) -> int:
        return len(self.services.decision_log.events)


# ---------------------------------------------------------------------------
# machine: whole governed runs with provenance and a cross-org hand-off
# ---------------------------------------------------------------------------

RUNTIME_IDENTITY = "perfbench-runtime"


@dataclass(frozen=True)
class MachineOp:
    doc: dict[str, Any]
    services: interpreter.RuntimeServices
    caller_run_hash: bytes


class Machine:
    """run_machine over a seeded 3-8 step document, then audit and hand-off.

    Steps are drawn from the four emitters and the benchmark's
    multi-directive executor, one of whose http_requests governance denies.
    Each run gets a fresh governance context; the runtime services, with
    their warm cache and growing decision log, are shared across the runs
    of a session. After the run the chain is verified, the last step's executor
    is attested, a peer organisation verifies the attestation, and the joint
    cross-org hash is formed.
    """

    MIN_STEPS = 3
    MAX_STEPS = 8

    def __init__(self, seed: int):
        self.seed = seed
        self.wl = whitelist.builtin_whitelist(1)
        self.key = keypair("certifier", seed)
        bundles = [
            certified(name, fixtures.fixture_source(name), self.wl, self.key)
            for name in fixtures.EMITTERS
        ] + [certified("multi_directive", bench_source("multi_directive"), self.wl, self.key)]
        self.bundles = {b.name: b for b in bundles}
        self.names = sorted(self.bundles)
        self.registry = {
            b.name: interpreter.WasmExecutor(b.binary, b.cert, b.proof) for b in bundles
        }
        self.documents = {b.name: reference.emitter_document(b.source) for b in bundles}
        self.env_key = keypair("environment", seed)
        self.env = attestation.EnvironmentDescriptor(
            runtime_identity=RUNTIME_IDENTITY,
            runtime_version="1",
            whitelist_version=self.wl.version,
            whitelist_hash=self.wl.content_hash,
            accepted_certifier_keys=(self.key.public_key,),
        )
        self.peer_policy = attestation.OrgPolicy(
            accepted_whitelists=frozenset([self.wl.content_hash]),
            trusted_runtimes=frozenset([RUNTIME_IDENTITY]),
            trusted_certifiers=frozenset([self.key.public_key]),
            minimum_required=1,
            trusted_env_keys=frozenset([self.env_key.public_key]),
        )
        self.peer_whitelists = {self.wl.content_hash: self.wl}
        self.tier_policy = interpreter.TierPolicy()
        self.rng = random.Random(seed + 1)
        self.lengths = Deck(list(range(self.MIN_STEPS, self.MAX_STEPS + 1)), self.rng)
        self.executors = Deck(self.names, self.rng)
        self.services = self.primed_services()
        self.cert_bytes = [cert_size(b.cert) for b in bundles]

    def primed_services(self) -> interpreter.RuntimeServices:
        services = new_services(self.wl, self.key)
        for bundle in self.bundles.values():
            if not gate_bundle(bundle, services).accepted:
                raise RuntimeError(f"{bundle.name} was not admitted")
        return services

    def prepare(self, i: int) -> MachineOp:
        rng = self.rng
        if i % SESSION_OPS == 0:
            self.services = self.primed_services()
        steps = [
            {
                "config": {"attempt": k, "label": rng.choice(_WORDS)},
                "executor_ref": self.executors.draw(),
            }
            for k in range(self.lengths.draw())
        ]
        doc = {
            "input": {"request": rng.choice(_WORDS), "size": rng.randrange(1000)},
            "name": f"machine-{i}",
            "steps": steps,
        }
        caller = hashlib.sha256(f"perfbench:caller:{self.seed}:{i}".encode()).digest()
        return MachineOp(doc, self.services, caller)

    def run(self, op: MachineOp):
        services = op.services
        record, step_results = interpreter.run_machine(
            op.doc,
            interpreter.default_governance(),
            self.tier_policy,
            self.registry,
            services,
        )
        chain = provenance.verify_chain(record)
        last = self.bundles[op.doc["steps"][-1]["executor_ref"]]
        handed = attestation.build_attestation(
            last.cert, last.proof, self.env, self.env_key, services.decision_log
        )
        verdict = attestation.verify_attestation(
            handed, self.peer_policy, self.peer_whitelists
        )
        joint = provenance.cross_org_hash(
            op.caller_run_hash, attestation.attestation_hash(handed), record.run_hash_vp
        )
        return record, step_results, chain, handed, verdict, joint

    def check(self, op: MachineOp, result, verify_calls: int) -> list[str]:
        record, step_results, chain, handed, verdict, joint = result
        problems = []
        if not chain.valid:
            problems.append(f"verify_chain: {chain.failure}")
        if not verdict.accepted:
            problems.append(f"attestation rejected at step {verdict.step}: {verdict.reason}")
        # the gates are warm: only the attestation's environment and
        # certificate signatures are checked
        if verify_calls != 2:
            problems.append(f"{verify_calls} signature checks, expected 2")
        steps = op.doc["steps"]
        if len(step_results) != len(steps) or len(record.steps) != len(steps):
            return problems + ["step count differs from the machine document"]

        components = []
        for step, outcome, link in zip(steps, step_results, record.steps):
            doc = self.documents[step["executor_ref"]]
            directives = doc.get("directives", [])
            denied = [d for d in directives if reference.denied_by_default_governance(d)]
            if outcome.output.result != doc["result"]:
                problems.append(f"step {link.step_index}: result differs from reference")
            if [d.to_json() for d in outcome.output.directives] != directives:
                problems.append(f"step {link.step_index}: directives differ")
            if len(outcome.denials) != len(denied) or any(
                (d.stage, d.reason) != ("permission", "http_host_allowlist")
                for d in outcome.denials
            ):
                problems.append(f"step {link.step_index}: denials {outcome.denials}")
            if len(outcome.results) != len(directives) - len(denied):
                problems.append(f"step {link.step_index}: governed result count")
            if link.directive_hash != reference.sha256(reference.json_bytes(directives)):
                problems.append(f"step {link.step_index}: directive hash")
            if link.purity_method != provenance.WASM_CERTIFIED:
                problems.append(f"step {link.step_index}: purity method")
            components.append(
                (link.directive_hash, link.governance_hash, link.result_hash,
                 link.purity_cert_hash)
            )

        values = reference.chain_values(components)
        if values != [link.execution_hash_vp for link in record.steps]:
            problems.append("chain values differ from the hashlib recomputation")
        if record.input_hash != reference.sha256(reference.json_bytes(op.doc["input"])):
            problems.append("input hash")
        if record.machine_version_hash != reference.sha256(reference.json_bytes(op.doc)):
            problems.append("machine version hash")
        expected_run = reference.run_value(
            record.machine_version_hash, record.input_hash, values[-1], record.output_hash
        )
        if record.final_execution_hash != values[-1] or record.run_hash_vp != expected_run:
            problems.append("run hash differs from the hashlib recomputation")
        expected_joint = reference.cross_org_value(
            op.caller_run_hash, attestation.attestation_hash(handed), record.run_hash_vp
        )
        if joint != expected_joint:
            problems.append("cross-org hash differs from the hashlib recomputation")
        return problems

    def log_events(self) -> int:
        return len(self.services.decision_log.events)


WORKLOADS = {"onboard": Onboard, "plan_warm": PlanWarm, "machine": Machine}

