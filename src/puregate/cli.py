"""Command-line entry point: one subcommand per pipeline stage.

Exit codes: 0 on success, 1 when a verifier rejects (gate, certificate,
attestation, provenance) or an admitted executor fails (any VMError: trap,
fuel, limits), 2 on usage or file errors, including any malformed document:
a file that cannot be read, is not JSON, is not a JSON object or has a field
of the wrong type or shape. Every subcommand accepts --json for
machine-readable output on stdout.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import Any, Mapping, Sequence

from .attestation import (
    EnvironmentDescriptor,
    GateNeverAccepted,
    build_attestation,
    attestation_hash,
    load_attestation,
    load_policy,
    save_attestation,
    verify_attestation,
)
from .canonical import canonical_dumps, load_object, parse_hex
from .canonical import read_field, read_list
from .certificate import (
    KeyPair,
    ProofBinaryMismatch,
    RefuseImpure,
    certificate_bytes,
    keypair_from_seed,
    load_certificate,
    save_certificate,
    sign_certificate,
)
from .gate import DecisionLog, GateDecision, check_certificate, gate_verify
from .interpreter import (
    ExecutorRejected,
    RuntimeServices,
    TierPolicy,
    WasmExecutor,
    default_governance,
    run_machine,
)
from .proof import build_proof, load_proof, save_proof
from .provenance import cross_org_hash, load_run_record, save_run_record, verify_chain
from .runtime_host import ExecutorInput, ResourceLimits, instantiate_and_plan
from .signing import PUBLIC_KEY_BYTES, generate_seed, load_public_key, load_seed
from .signing import save_keypair
from .wasm_inspect import hash_bytes, parse_imports
from .wasmvm import VMError
from .whitelist import (
    builtin_whitelist,
    load_whitelist,
    sign_whitelist,
    save_whitelist,
    verify_whitelist_signature,
)

KEY_DIR_ENV = "PUREGATE_KEY_DIR"

# every format error of a document, key or binary subclasses one of these
_USAGE_ERRORS = (OSError, ValueError, KeyError)
_DOMAIN_ERRORS = (RefuseImpure, ProofBinaryMismatch, GateNeverAccepted)

# the files of an executor: a subcommand's operands or a machine entry's keys
_EXECUTOR_FILES = ("wasm", "cert", "proof")


def _key_dir() -> Path:
    return Path(os.environ.get(KEY_DIR_ENV, "."))


def _key_file(name: str, suffix: str) -> Path | None:
    """The key file a name refers to: the path as given, else the bare name,
    else the name plus the role's suffix (.key or .pub), under the key dir."""
    for path in (Path(name), _key_dir() / name, _key_dir() / f"{name}{suffix}"):
        if path.exists():
            return path
    return None


def _load_keypair(name: str) -> KeyPair:
    path = _key_file(name, ".key") or Path(name)  # a missing file fails the read
    return keypair_from_seed(load_seed(path))


def _trusted_keys(values: Sequence[str]) -> list[bytes]:
    """Each value names a .pub key file or is a key in lowercase hex."""
    keys = []
    for value in values:
        path = _key_file(value, ".pub")
        if path is not None:
            keys.append(load_public_key(path))
        else:
            keys.append(parse_hex(value, PUBLIC_KEY_BYTES, "public key"))
    return keys


def _load_executor(paths: Mapping[str, str]) -> WasmExecutor:
    """An executor from the files paths names under _EXECUTOR_FILES: a
    subcommand's parsed arguments or an entry of a machine's executors."""
    wasm, cert, proof = (Path(paths[key]) for key in _EXECUTOR_FILES)
    return WasmExecutor(wasm.read_bytes(), load_certificate(cert), load_proof(proof))


def _load_runtime_whitelist(value: str | None):
    if value is None:
        return builtin_whitelist(1)
    if value in ("v1", "v2-extended"):
        return builtin_whitelist(1 if value == "v1" else 2)
    return load_whitelist(Path(value))


def _emit(args: argparse.Namespace, doc: dict[str, Any], human: str) -> None:
    if args.json:
        print(canonical_dumps(doc))
    else:
        print(human)


def _check_machine(doc: dict[str, Any], what: str) -> None:
    """Refuse a machine whose parts have a shape run_machine cannot read."""
    parts = {"executors": {}, "steps": [], **doc}
    try:
        executors = read_field(parts, "executors", dict)
        for name in executors:
            paths = read_field(executors, name, dict)
            for key in _EXECUTOR_FILES:
                read_field(paths, key, str)
        for step in read_list(parts, "steps", read_field, dict):
            ref = read_field(step, "executor_ref", str)
            if ref not in executors:
                raise ValueError(f"no executor named {ref!r}")
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_keygen(args: argparse.Namespace) -> int:
    out = Path(args.out)
    if not out.is_absolute() and out.parent == Path("."):
        out = _key_dir() / out
    out.parent.mkdir(parents=True, exist_ok=True)
    seed = generate_seed()
    key_path = save_keypair(out, seed)
    pair = keypair_from_seed(seed)
    _emit(
        args,
        {"key_file": str(key_path), "public_key": pair.public_key.hex()},
        f"wrote {key_path} (+.pub), public key {pair.public_key.hex()}",
    )
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    binary = Path(args.wasm).read_bytes()
    whitelist = _load_runtime_whitelist(args.whitelist)
    key = _load_keypair(args.key)
    module = parse_imports(binary)
    proof = build_proof(module, whitelist)
    timestamp = args.timestamp if args.timestamp is not None else int(time.time())
    cert = sign_certificate(binary, proof, key, timestamp)

    out_cert = Path(args.out_cert or f"{args.wasm}.cert")
    out_proof = Path(args.out_proof or f"{args.wasm}.proof")
    save_certificate(cert, out_cert)
    save_proof(proof, out_proof)
    _emit(
        args,
        {
            "artifact_hash": cert.artifact_hash.hex(),
            "proof_hash": cert.proof_hash.hex(),
            "certificate": str(out_cert),
            "proof": str(out_proof),
            "certificate_bytes": len(certificate_bytes(cert)),
        },
        f"certified {args.wasm}: artifact {cert.artifact_hash.hex()[:16]}…, "
        f"cert → {out_cert}, proof → {out_proof}",
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    ex = _load_executor(vars(args))
    trusted = set(_trusted_keys(args.trust))

    rejection = check_certificate(hash_bytes(ex.binary), ex.cert, ex.proof, trusted)
    reason = None if rejection is None else rejection.reason
    ok = reason is None
    _emit(
        args,
        {"verdict": "accept" if ok else "reject", "reason": reason},
        "accept" if ok else f"reject: {reason}",
    )
    return 0 if ok else 1


def _cmd_gate(args: argparse.Namespace) -> int:
    ex = _load_executor(vars(args))
    whitelist = _load_runtime_whitelist(args.whitelist)
    trusted = _trusted_keys(args.trust)
    log = DecisionLog(Path(args.log)) if args.log else None

    start = time.perf_counter()
    decision = gate_verify(
        ex.binary,
        ex.cert,
        ex.proof,
        whitelist,
        trusted,
        minimum_version=args.min_version,
        log=log,
    )
    gate_us = (time.perf_counter() - start) * 1e6
    doc = decision.to_json()
    doc["timings"] = {"gate_us": gate_us}
    human = (
        f"verdict={decision.verdict} reason={decision.reason} "
        f"failed_step={decision.failed_step}{_detail(decision)} gate_us={gate_us:.1f}"
    )
    _emit(args, doc, human)
    return 0 if decision.accepted else 1


def _gate_rejected(args: argparse.Namespace, decision: GateDecision) -> int:
    _emit(
        args,
        decision.to_json(),
        f"gate rejected: {decision.reason} (step {decision.failed_step}){_detail(decision)}",
    )
    return 1


def _detail(decision: GateDecision) -> str:
    """' detail=...' for a human gate line, or '' when the decision has
    none. The detail may hold an import's name, so each control character
    (and each backslash) is written as its escape: one line stays one."""
    if decision.detail is None:
        return ""
    return " detail=" + "".join(
        c if c.isprintable() and c != "\\" else ascii(c)[1:-1] for c in decision.detail
    )


def _executor_failed(args: argparse.Namespace, exc: VMError) -> int:
    doc = {"error": type(exc).__name__, "message": str(exc)}
    if args.json:
        print(canonical_dumps(doc))
    else:
        print(f"executor failed: {doc['error']}: {doc['message']}", file=sys.stderr)
    return 1


def _cmd_run(args: argparse.Namespace) -> int:
    ex = _load_executor(vars(args))
    whitelist = _load_runtime_whitelist(args.whitelist)
    trusted = _trusted_keys(args.trust)
    input_doc = load_object(Path(args.input), ValueError, "input")

    decision = gate_verify(ex.binary, ex.cert, ex.proof, whitelist, trusted)
    if not decision.accepted:
        return _gate_rejected(args, decision)

    limits = ResourceLimits(
        fuel=args.fuel, memory_max=args.mem_max, wall_clock_ms=args.timeout
    )
    executor_input = ExecutorInput(
        step_config=input_doc.get("step_config", input_doc),
        context=input_doc.get("context", {}),
    )
    totals = []
    for _ in range(args.repeat):
        start = time.perf_counter()
        try:
            output = instantiate_and_plan(ex.binary, decision, executor_input, limits)
        except VMError as exc:
            return _executor_failed(args, exc)
        totals.append((time.perf_counter() - start) * 1e6)
    result = output.to_json()
    doc = {"output": result, "timings": [{"total_us": t} for t in totals]}
    human_lines = [canonical_dumps(result), *(f"total_us={t:.1f}" for t in totals)]
    _emit(args, doc, "\n".join(human_lines))
    return 0


def _cmd_run_machine(args: argparse.Namespace) -> int:
    machine_path = Path(args.machine)
    machine_doc = load_object(machine_path, ValueError, "machine")
    _check_machine(machine_doc, f"machine {machine_path}")
    whitelist = _load_runtime_whitelist(args.whitelist)
    trusted = _trusted_keys(args.trust)

    registry = {
        name: _load_executor(paths)
        for name, paths in machine_doc.get("executors", {}).items()
    }

    services = RuntimeServices(whitelist=whitelist, trusted_keys=trusted)
    governance = default_governance(tuple(args.allow_host))
    try:
        record, step_results = run_machine(
            {k: v for k, v in machine_doc.items() if k != "executors"},
            governance,
            TierPolicy(),
            registry,
            services,
        )
    except ExecutorRejected as exc:
        return _gate_rejected(args, exc.decision)
    except VMError as exc:
        return _executor_failed(args, exc)

    chain_out = Path(args.chain_out or machine_path.with_suffix(".chain.jsonl"))
    effects_out = Path(args.effects_out or machine_path.with_suffix(".effects.jsonl"))
    save_run_record(record, chain_out)
    with open(effects_out, "w", encoding="utf-8") as fh:
        for entry in governance.sink.log:
            fh.write(canonical_dumps(entry) + "\n")

    doc = {
        "run_hash": record.run_hash_vp.hex(),
        "steps": len(record.steps),
        "chain_file": str(chain_out),
        "effects_file": str(effects_out),
        "results": [list(r.results) for r in step_results],
    }
    _emit(
        args,
        doc,
        f"ran {len(record.steps)} steps, run hash {record.run_hash_vp.hex()[:16]}…, "
        f"chain → {chain_out}, effects → {effects_out}",
    )
    return 0


def _cmd_attest(args: argparse.Namespace) -> int:
    ex = _load_executor(vars(args))
    env = EnvironmentDescriptor.from_json(
        load_object(Path(args.env), ValueError, "environment")
    )
    env_key = _load_keypair(args.env_key)
    whitelist = _load_runtime_whitelist(args.whitelist)
    trusted = _trusted_keys(args.trust) if args.trust else list(
        env.accepted_certifier_keys
    )

    log = DecisionLog()
    decision = gate_verify(ex.binary, ex.cert, ex.proof, whitelist, trusted, log=log)
    if not decision.accepted:
        return _gate_rejected(args, decision)

    record = build_attestation(ex.cert, ex.proof, env, env_key, log)
    out = Path(args.out or f"{args.wasm}.attest")
    save_attestation(record, out)
    _emit(
        args,
        {"attestation": str(out), "attestation_hash": attestation_hash(record).hex()},
        f"attestation → {out} ({attestation_hash(record).hex()[:16]}…)",
    )
    return 0


def _cmd_attest_verify(args: argparse.Namespace) -> int:
    record = load_attestation(Path(args.file))
    policy = load_policy(Path(args.policy))
    whitelists = None
    if args.whitelist:
        whitelists = {}
        for value in args.whitelist:
            wl = _load_runtime_whitelist(value)
            whitelists[wl.content_hash] = wl
    verdict = verify_attestation(record, policy, whitelists)
    doc: dict[str, Any] = {
        "accepted": verdict.accepted,
        "step": verdict.step,
        "reason": verdict.reason,
    }
    if verdict.compat is not None:
        doc["conjuncts"] = dict(verdict.compat.conjuncts)
    human = (
        "accept"
        if verdict.accepted
        else f"reject at step {verdict.step}: {verdict.reason}"
    )
    _emit(args, doc, human)
    return 0 if verdict.accepted else 1


def _cmd_whitelist_hash(args: argparse.Namespace) -> int:
    wl = _load_runtime_whitelist(args.file)
    _emit(
        args,
        {"version": wl.version, "content_hash": wl.content_hash.hex()},
        f"version {wl.version}, hash {wl.content_hash.hex()}",
    )
    return 0


def _cmd_whitelist_sign(args: argparse.Namespace) -> int:
    wl = _load_runtime_whitelist(args.file)
    signed = sign_whitelist(wl, _load_keypair(args.key).seed)
    out = Path(args.out or args.file)
    save_whitelist(signed, out)
    doc = {"file": str(out), "authority_key": signed.authority_key.hex()}
    _emit(args, doc, f"signed whitelist → {out}")
    return 0


def _cmd_whitelist_verify(args: argparse.Namespace) -> int:
    ok = verify_whitelist_signature(_load_runtime_whitelist(args.file))
    _emit(
        args,
        {"verdict": "accept" if ok else "reject"},
        "signature valid" if ok else "signature invalid or missing",
    )
    return 0 if ok else 1


def _cmd_provenance_verify(args: argparse.Namespace) -> int:
    record = load_run_record(Path(args.chain))
    verdict = verify_chain(record)
    doc = {"valid": verdict.valid, "failure": verdict.failure}
    _emit(
        args,
        doc,
        "chain valid" if verdict.valid else f"chain invalid at {verdict.failure}",
    )
    return 0 if verdict.valid else 1


def _cmd_provenance_cross_org(args: argparse.Namespace) -> int:
    caller = load_run_record(Path(args.caller))
    callee = load_run_record(Path(args.callee))
    record = load_attestation(Path(args.attestation))
    for name, rec in (("caller", caller), ("callee", callee)):
        verdict = verify_chain(rec)
        if not verdict.valid:
            _emit(
                args,
                {"valid": False, "chain": name, "failure": verdict.failure},
                f"{name} chain invalid at {verdict.failure}",
            )
            return 1
    combined = cross_org_hash(
        caller.run_hash_vp, attestation_hash(record), callee.run_hash_vp
    )
    _emit(
        args,
        {"cross_org_hash": combined.hex()},
        f"cross-org hash {combined.hex()}",
    )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import bench

    report = bench(args.metric, args.executor, args.samples, args.warmup)
    human = (
        f"{report.metric} executor={report.executor} samples={report.samples} "
        f"warmup={report.warmup} median={report.median_us:.2f} "
        f"mean={report.mean_us:.2f} p99={report.p99_us:.2f}"
    )
    _emit(args, report.to_json(), human)
    return 0


def _cmd_fixtures(args: argparse.Namespace) -> int:
    from .fixtures import fixture_binary, list_fixtures

    names = args.names or list(list_fixtures())
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name in names:
        binary = fixture_binary(name)
        path = out_dir / f"{name}.wasm"
        path.write_bytes(binary)
        written.append({"name": name, "path": str(path), "bytes": len(binary)})
    _emit(
        args,
        {"fixtures": written},
        "\n".join(f"{w['name']} → {w['path']} ({w['bytes']} B)" for w in written),
    )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="puregate",
        description="certified-purity toolchain and governed executor host",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, group=sub, **kwargs) -> argparse.ArgumentParser:
        p = group.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true", help="structured output")
        p.set_defaults(handler=handler)
        return p

    def actions(name: str, **kwargs):
        return sub.add_parser(name, **kwargs).add_subparsers(dest="action", required=True)

    # the operands _load_executor reads
    executor = argparse.ArgumentParser(add_help=False)
    executor.add_argument("wasm")
    executor.add_argument("--cert", required=True)
    executor.add_argument("--proof", required=True)

    # the certifier keys the gate trusts; attest declares its own optional form
    trust = argparse.ArgumentParser(add_help=False)
    trust.add_argument("--trust", nargs="+", required=True, metavar="PUBKEY")

    # the whitelist to classify or gate against; attest-verify takes a list
    wl = argparse.ArgumentParser(add_help=False)
    wl.add_argument("--whitelist", default=None, help="file, 'v1', or 'v2-extended'")
    gated = [executor, trust, wl]

    p = add("keygen", _cmd_keygen, help="generate an Ed25519 keypair")
    p.add_argument("--out", required=True, help="key file stem (bare names land in the key dir)")

    p = add("certify", _cmd_certify, parents=[wl], help="build a proof and sign a certificate")
    p.add_argument("wasm")
    p.add_argument("--key", required=True)
    p.add_argument("--out-cert", default=None)
    p.add_argument("--out-proof", default=None)
    p.add_argument("--timestamp", type=int, default=None)

    p = add(
        "verify", _cmd_verify, parents=[executor, trust],
        help="check a certificate against a binary",
    )

    p = add("gate", _cmd_gate, parents=gated, help="run the full admission gate")
    p.add_argument("--min-version", type=int, default=1)
    p.add_argument("--log", default=None, help="append decisions to this file")

    p = add("run", _cmd_run, parents=gated, help="gate and execute one executor")
    p.add_argument("--input", required=True)
    p.add_argument("--fuel", type=int, default=ResourceLimits().fuel)
    p.add_argument("--mem-max", type=int, default=ResourceLimits().memory_max)
    p.add_argument("--timeout", type=int, default=ResourceLimits().wall_clock_ms)
    p.add_argument("--repeat", type=int, default=1)

    p = add("run-machine", _cmd_run_machine, parents=[trust, wl], help="run a machine document")
    p.add_argument("machine")
    p.add_argument("--chain-out", default=None)
    p.add_argument("--effects-out", default=None)
    p.add_argument(
        "--allow-host",
        nargs="*",
        default=["example.org"],
        help="hosts the http_request guard admits",
    )

    p = add(
        "attest", _cmd_attest, parents=[executor, wl],
        help="gate locally and sign an attestation",
    )
    p.add_argument("--env", required=True)
    p.add_argument("--env-key", required=True)
    p.add_argument("--trust", nargs="*", default=None, metavar="PUBKEY")
    p.add_argument("--out", default=None)

    p = add("attest-verify", _cmd_attest_verify, help="verify a received attestation")
    p.add_argument("file")
    p.add_argument("--policy", required=True)
    p.add_argument("--whitelist", nargs="*", default=None)

    group = actions("whitelist", help="hash, sign, or verify a whitelist file")
    add("hash", _cmd_whitelist_hash, group).add_argument("file")
    p = add("sign", _cmd_whitelist_sign, group)
    p.add_argument("file")
    p.add_argument("--key", required=True)
    p.add_argument("--out", default=None)
    add("verify", _cmd_whitelist_verify, group).add_argument("file")

    group = actions("provenance", help="verify chains and cross-org links")
    add("verify", _cmd_provenance_verify, group).add_argument("chain")
    p = add("cross-org", _cmd_provenance_cross_org, group)
    for name in ("--caller", "--attestation", "--callee"):
        p.add_argument(name, required=True)

    p = add("bench", _cmd_bench, help="measure one evaluation metric")
    p.add_argument("--metric", required=True)
    p.add_argument("--executor", default="emit_call")
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--warmup", type=int, default=5)

    group = actions("fixtures", help="assemble the fixture corpus to disk")
    p = add("build", _cmd_fixtures, group)
    p.add_argument("names", nargs="*")
    p.add_argument("--out-dir", default="fixtures_out")

    return parser


def _validate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    if args.command == "run" and args.repeat < 1:
        parser.error("run --repeat must be at least 1")
    if args.handler is _cmd_whitelist_sign and args.file in ("v1", "v2-extended"):
        if not args.out:
            parser.error(f"whitelist sign of the built-in {args.file} requires --out")


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _validate(args, parser)
    try:
        return args.handler(args)
    except _DOMAIN_ERRORS as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 1
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
