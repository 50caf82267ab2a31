import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from puregate.attestation import OrgPolicy, save_policy
from _chain_tools import build_chain
from puregate.cli import main
from puregate.fixtures import assemble_pure
from puregate.provenance import ZERO_DIGEST, run_hash
from puregate.whitelist import builtin_whitelist

RUNTIME_ID = "mashin-sim"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv, "--json")
    return code, json.loads(out)


@pytest.fixture()
def workspace(tmp_path, monkeypatch, capsys):
    """Keys, a certified executor, and an input doc under one tmp root."""
    monkeypatch.setenv("PUREGATE_KEY_DIR", str(tmp_path / "keys"))
    monkeypatch.chdir(tmp_path)

    code, doc = run_json(capsys, "keygen", "--out", "certifier")
    assert code == 0
    pub = doc["public_key"]

    code, doc = run_json(
        capsys, "fixtures", "build", "emit_call", "echo", "--out-dir", "bins"
    )
    assert code == 0

    wasm = tmp_path / "bins" / "emit_call.wasm"
    code, doc = run_json(
        capsys,
        "certify", str(wasm),
        "--key", "certifier",
        "--timestamp", "1700000000",
    )
    assert code == 0
    (tmp_path / "input.json").write_text(
        json.dumps({"step_config": {"x": 1}, "context": {}})
    )
    return {
        "root": tmp_path,
        "pub": pub,
        "wasm": wasm,
        "cert": f"{wasm}.cert",
        "proof": f"{wasm}.proof",
    }


def test_keygen_writes_into_key_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PUREGATE_KEY_DIR", str(tmp_path / "keys"))
    code, doc = run_json(capsys, "keygen", "--out", "alpha")
    assert code == 0
    assert (tmp_path / "keys" / "alpha.key").exists()
    assert (tmp_path / "keys" / "alpha.pub").read_text().strip() == doc[
        "public_key"
    ]


def test_certify_then_verify_accepts(workspace, capsys):
    code, doc = run_json(
        capsys,
        "verify", str(workspace["wasm"]),
        "--cert", workspace["cert"],
        "--proof", workspace["proof"],
        "--trust", workspace["pub"],
    )
    assert code == 0
    assert doc == {"verdict": "accept", "reason": None}


def test_verify_rejects_tampered_binary(workspace, capsys):
    tampered = workspace["root"] / "tampered.wasm"
    data = bytearray(workspace["wasm"].read_bytes())
    data[-1] ^= 0xFF
    tampered.write_bytes(bytes(data))
    code, doc = run_json(
        capsys,
        "verify", str(tampered),
        "--cert", workspace["cert"],
        "--proof", workspace["proof"],
        "--trust", workspace["pub"],
    )
    assert code == 1
    assert doc["reason"] == "artifact_hash_mismatch"


def test_verify_rejects_bytes_that_are_not_a_module(workspace, capsys):
    junk = workspace["root"] / "junk.wasm"
    junk.write_bytes(b"not a module")
    code, doc = run_json(
        capsys,
        "verify", str(junk),
        "--cert", workspace["cert"],
        "--proof", workspace["proof"],
        "--trust", workspace["pub"],
    )
    assert code == 1
    assert doc == {"verdict": "reject", "reason": "artifact_hash_mismatch"}


def test_verify_and_gate_name_signature_rejections_alike(workspace, capsys):
    cert = json.loads(Path(workspace["cert"]).read_text())
    cert["signature"] = "00" * 64
    zeroed = workspace["root"] / "zero_signature.cert"
    zeroed.write_text(json.dumps(cert))
    for cert_file, trusted, reason in (
        (workspace["cert"], "ab" * 32, "untrusted_certifier"),
        (str(zeroed), workspace["pub"], "invalid_signature"),
    ):
        for command in ("verify", "gate"):
            code, doc = run_json(
                capsys,
                command, str(workspace["wasm"]),
                "--cert", cert_file,
                "--proof", workspace["proof"],
                "--trust", trusted,
            )
            assert (code, doc["verdict"], doc["reason"]) == (1, "reject", reason)


def test_gate_accepts_and_reports_timing(workspace, capsys):
    code, doc = run_json(
        capsys,
        "gate", str(workspace["wasm"]),
        "--cert", workspace["cert"],
        "--proof", workspace["proof"],
        "--trust", workspace["pub"],
    )
    assert code == 0
    assert doc["verdict"] == "accept"
    assert doc["timings"]["gate_us"] > 0


def test_trust_names_a_pub_file_in_the_key_dir(workspace, capsys):
    def gate(trusted):
        return main([
            "gate", str(workspace["wasm"]),
            "--cert", workspace["cert"],
            "--proof", workspace["proof"],
            "--trust", trusted,
        ])

    assert gate("certifier") == 0  # keys/certifier.pub
    capsys.readouterr()
    assert gate("nosuch") == 2
    assert "must be 32 bytes in lowercase hex" in capsys.readouterr().err


def test_gate_rejects_untrusted_certifier(workspace, capsys):
    code, doc = run_json(
        capsys,
        "gate", str(workspace["wasm"]),
        "--cert", workspace["cert"],
        "--proof", workspace["proof"],
        "--trust", "ab" * 32,
    )
    assert code == 1
    assert doc["reason"] == "untrusted_certifier"
    assert doc["failed_step"] == 1


def test_gate_rejection_reads_alike_from_run_run_machine_and_attest(workspace, capsys):
    root = workspace["root"]
    executor = ["--cert", workspace["cert"], "--proof", workspace["proof"]]
    machine = root / "machine.json"
    machine.write_text(json.dumps({
        "machine": "demo",
        "input": None,
        "steps": [{"executor_ref": "e"}],
        "executors": {"e": {"wasm": str(workspace["wasm"]), "cert": workspace["cert"],
                            "proof": workspace["proof"]}},
    }))
    (root / "env.json").write_text(json.dumps({
        "runtime_identity": RUNTIME_ID,
        "runtime_version": "1.0",
        "whitelist_version": 1,
        "whitelist_hash": builtin_whitelist(1).content_hash.hex(),
        "accepted_certifier_keys": [workspace["pub"]],
    }))
    untrusted = ["--trust", "ab" * 32]
    for argv in (
        ["run", str(workspace["wasm"]), *executor, "--input", str(root / "input.json")],
        ["run-machine", str(machine)],
        ["attest", str(workspace["wasm"]), *executor, "--env", str(root / "env.json"),
         "--env-key", "certifier"],
    ):
        assert run_cli(capsys, *argv, *untrusted) == (
            1, "gate rejected: untrusted_certifier (step 1)\n"
        )
        code, doc = run_json(capsys, *argv, *untrusted)
        assert code == 1
        assert (doc["verdict"], doc["reason"], doc["failed_step"]) == (
            "reject", "untrusted_certifier", 1
        )


def test_run_executes_and_reports_output(workspace, capsys):
    code, doc = run_json(
        capsys,
        "run", str(workspace["wasm"]),
        "--cert", workspace["cert"],
        "--proof", workspace["proof"],
        "--input", str(workspace["root"] / "input.json"),
        "--trust", workspace["pub"],
        "--repeat", "2",
    )
    assert code == 0
    kinds = [d["kind"] for d in doc["output"]["directives"]]
    assert kinds == ["call_machine"]
    assert len(doc["timings"]) == 2
    assert all(t["total_us"] > 0 for t in doc["timings"])
    assert all(set(t) == {"total_us"} for t in doc["timings"])


@pytest.mark.parametrize("repeat", ["0", "-1"])
def test_run_refuses_a_repeat_below_one(workspace, capsys, repeat):
    with pytest.raises(SystemExit) as exited:
        main([
            "run", str(workspace["wasm"]),
            "--cert", workspace["cert"], "--proof", workspace["proof"],
            "--input", str(workspace["root"] / "input.json"),
            "--trust", workspace["pub"], "--repeat", repeat,
        ])
    err = capsys.readouterr().err
    assert exited.value.code == 2
    assert "--repeat must be at least 1" in err and "Traceback" not in err


def test_run_machine_writes_chain_and_effects(workspace, capsys):
    root = workspace["root"]
    machine = root / "machine.json"
    machine.write_text(json.dumps({
        "machine": "demo",
        "input": {"q": 1},
        "steps": [
            {"executor_ref": "emitter", "config": {"n": 1}},
            {"executor_ref": "emitter", "config": {"n": 2}},
        ],
        "executors": {
            "emitter": {
                "wasm": str(workspace["wasm"]),
                "cert": workspace["cert"],
                "proof": workspace["proof"],
            }
        },
    }))
    code, doc = run_json(
        capsys,
        "run-machine", str(machine),
        "--trust", workspace["pub"],
        "--chain-out", str(root / "run.chain"),
        "--effects-out", str(root / "run.effects"),
    )
    assert code == 0
    assert doc["steps"] == 2
    assert len(doc["results"]) == 2

    code, doc = run_json(capsys, "provenance", "verify", str(root / "run.chain"))
    assert code == 0
    assert doc == {"valid": True, "failure": None}

    effects = [
        json.loads(line)
        for line in (root / "run.effects").read_text().splitlines()
    ]
    assert len(effects) == 2
    assert all(e["directive"]["kind"] == "call_machine" for e in effects)


def test_executor_failure_exits_1_with_error_document(workspace, capsys):
    root = workspace["root"]
    code, _ = run_json(capsys, "fixtures", "build", "trap", "--out-dir", "bins")
    assert code == 0
    wasm = root / "bins" / "trap.wasm"
    code, _ = run_json(
        capsys, "certify", str(wasm), "--key", "certifier", "--timestamp", "1700000000"
    )
    assert code == 0
    trapped = {"error": "Trap", "message": "unreachable executed"}

    code, doc = run_json(
        capsys,
        "run", str(wasm),
        "--cert", f"{wasm}.cert",
        "--proof", f"{wasm}.proof",
        "--input", str(root / "input.json"),
        "--trust", workspace["pub"],
    )
    assert code == 1
    assert doc == trapped

    code = main([
        "run", str(wasm),
        "--cert", f"{wasm}.cert",
        "--proof", f"{wasm}.proof",
        "--input", str(root / "input.json"),
        "--trust", workspace["pub"],
    ])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == "executor failed: Trap: unreachable executed\n"

    machine = root / "trap_machine.json"
    machine.write_text(json.dumps({
        "machine": "demo",
        "input": None,
        "steps": [{"executor_ref": "t"}],
        "executors": {
            "t": {"wasm": str(wasm), "cert": f"{wasm}.cert", "proof": f"{wasm}.proof"}
        },
    }))
    code, doc = run_json(capsys, "run-machine", str(machine), "--trust", workspace["pub"])
    assert code == 1
    assert doc == trapped


def test_a_non_finite_output_exits_1_as_malformed_output(workspace, capsys):
    root = workspace["root"]
    wasm = root / "nan.wasm"
    wasm.write_bytes(assemble_pure("""
    (module
      (import "mashin" "set_output" (func $so (param i32 i32)))
      (memory 1)
      (data (i32.const 0) "{\\"result\\":NaN}")
      (func (export "plan") (result i32)
        i32.const 0 i32.const 14 call $so
        i32.const 0))
    """, builtin_whitelist(1)))
    code, _ = run_json(
        capsys, "certify", str(wasm), "--key", "certifier", "--timestamp", "1700000000"
    )
    assert code == 0
    code, out = run_json(
        capsys,
        "run", str(wasm),
        "--cert", f"{wasm}.cert",
        "--proof", f"{wasm}.proof",
        "--input", str(root / "input.json"),
        "--trust", workspace["pub"],
    )
    assert code == 1
    assert out["error"] == "MalformedOutput"


def test_a_lone_surrogate_in_output_exits_1_as_malformed_output(workspace, capsys):
    root = workspace["root"]
    wasm = root / "surrogate.wasm"
    wasm.write_bytes(assemble_pure("""
    (module
      (import "mashin" "set_output" (func $so (param i32 i32)))
      (memory 1)
      (data (i32.const 0) "{\\"result\\":\\"\\\\ud800\\"}")
      (func (export "plan") (result i32)
        i32.const 0 i32.const 19 call $so
        i32.const 0))
    """, builtin_whitelist(1)))
    code, _ = run_json(
        capsys, "certify", str(wasm), "--key", "certifier", "--timestamp", "1700000000"
    )
    assert code == 0
    code, out = run_json(
        capsys,
        "run", str(wasm),
        "--cert", f"{wasm}.cert",
        "--proof", f"{wasm}.proof",
        "--input", str(root / "input.json"),
        "--trust", workspace["pub"],
    )
    assert code == 1
    assert out["error"] == "MalformedOutput"


def test_run_hash_is_the_canonical_machines(workspace, capsys):
    """Layout, key order and where the executor files lie are not part of a
    machine's version, so they do not move its run hash."""
    root = workspace["root"]
    moved = root / "moved"
    moved.mkdir()
    for key in ("wasm", "cert", "proof"):
        shutil.copy(workspace[key], moved / f"e.{key}")
    doc = _machine(workspace, input={"n": 1, "tags": ["a"]},
                   steps=[{"executor_ref": "e", "config": {"x": 1}}])
    indented = root / "indented.json"
    indented.write_text(json.dumps(dict(reversed(doc.items())), indent=2))
    compact = root / "compact.json"
    executors = {"e": {key: str(moved / f"e.{key}") for key in ("wasm", "cert", "proof")}}
    compact.write_text(json.dumps({**doc, "executors": executors}, separators=(",", ":")))
    hashes = []
    for machine in (indented, compact):
        code, out = run_json(capsys, "run-machine", str(machine), "--trust", workspace["pub"])
        assert code == 0
        hashes.append(out["run_hash"])
    assert hashes[0] == hashes[1]


def test_provenance_verify_rejects_tampered_chain(workspace, capsys):
    root = workspace["root"]
    machine = root / "m.json"
    machine.write_text(json.dumps({
        "machine": "demo",
        "input": None,
        "steps": [{"executor_ref": "e"}],
        "executors": {
            "e": {
                "wasm": str(workspace["wasm"]),
                "cert": workspace["cert"],
                "proof": workspace["proof"],
            }
        },
    }))
    code, _ = run_json(
        capsys, "run-machine", str(machine), "--trust", workspace["pub"],
        "--chain-out", str(root / "t.chain"),
    )
    assert code == 0
    lines = (root / "t.chain").read_text().splitlines()
    step = json.loads(lines[0])
    step["result_hash"] = ("00" * 32)
    lines[0] = json.dumps(step)
    (root / "t.chain").write_text("\n".join(lines) + "\n")
    code, doc = run_json(capsys, "provenance", "verify", str(root / "t.chain"))
    assert code == 1
    assert doc == {"valid": False, "failure": "step:1"}


def test_provenance_verify_rejects_a_run_with_no_steps(tmp_path, capsys):
    machine, inputs, output = bytes([1]) * 32, bytes([2]) * 32, bytes([3]) * 32
    run = {
        "type": "run",
        "machine_version_hash": machine.hex(),
        "input_hash": inputs.hex(),
        "final_execution_hash": ZERO_DIGEST.hex(),
        "output_hash": output.hex(),
        "run_hash_vp": run_hash(machine, inputs, ZERO_DIGEST, output).hex(),
    }
    chain = tmp_path / "empty.chain"
    chain.write_text(json.dumps(run) + "\n")
    code, doc = run_json(capsys, "provenance", "verify", str(chain))
    assert code == 1
    assert doc == {"valid": False, "failure": "step:1"}


def test_attest_and_attest_verify(workspace, capsys):
    root = workspace["root"]
    wl = builtin_whitelist(1)
    env = {
        "runtime_identity": RUNTIME_ID,
        "runtime_version": "1.0",
        "whitelist_version": 1,
        "whitelist_hash": wl.content_hash.hex(),
        "accepted_certifier_keys": [workspace["pub"]],
    }
    (root / "env.json").write_text(json.dumps(env))
    code, doc = run_json(
        capsys,
        "attest", str(workspace["wasm"]),
        "--cert", workspace["cert"],
        "--proof", workspace["proof"],
        "--env", str(root / "env.json"),
        "--env-key", "certifier",
        "--out", str(root / "record.attest"),
    )
    assert code == 0
    assert (root / "record.attest").exists()

    env_pub = (root / "keys" / "certifier.pub").read_text().strip()
    policy = OrgPolicy(
        accepted_whitelists=frozenset([wl.content_hash]),
        trusted_runtimes=frozenset([RUNTIME_ID]),
        trusted_certifiers=frozenset([bytes.fromhex(workspace["pub"])]),
        minimum_required=1,
        trusted_env_keys=frozenset([bytes.fromhex(env_pub)]),
    )
    save_policy(policy, root / "policy.json")
    code, doc = run_json(
        capsys,
        "attest-verify", str(root / "record.attest"),
        "--policy", str(root / "policy.json"),
        "--whitelist", "v1",
    )
    assert code == 0
    assert doc["accepted"] is True
    assert doc["conjuncts"] == {
        "whitelist_accepted": True,
        "runtime_trusted": True,
        "certifier_trusted": True,
        "version_current": True,
    }

    strict = OrgPolicy(
        accepted_whitelists=policy.accepted_whitelists,
        trusted_runtimes=policy.trusted_runtimes,
        trusted_certifiers=policy.trusted_certifiers,
        minimum_required=2,
        trusted_env_keys=policy.trusted_env_keys,
    )
    save_policy(strict, root / "strict.json")
    code, doc = run_json(
        capsys,
        "attest-verify", str(root / "record.attest"),
        "--policy", str(root / "strict.json"),
    )
    assert code == 1
    assert doc["step"] == 4
    assert doc["conjuncts"]["version_current"] is False


def test_whitelist_hash_sign_verify(workspace, capsys):
    root = workspace["root"]
    code, doc = run_json(capsys, "whitelist", "hash", "v1")
    assert code == 0
    assert doc["version"] == 1
    assert doc["content_hash"] == builtin_whitelist(1).content_hash.hex()

    src = root / "wl.json"
    shutil.copy(_builtin_v1_path(), src)
    code, doc = run_json(capsys, "whitelist", "verify", str(src))
    assert code == 1  # unsigned

    code, doc = run_json(
        capsys, "whitelist", "sign", str(src),
        "--key", "certifier", "--out", str(root / "wl_signed.json"),
    )
    assert code == 0
    code, doc = run_json(
        capsys, "whitelist", "verify", str(root / "wl_signed.json")
    )
    assert code == 0


@pytest.mark.parametrize("name", ["v1", "v2-extended"])
def test_signing_a_builtin_whitelist_requires_out(workspace, capsys, name):
    with pytest.raises(SystemExit) as exited:
        main(["whitelist", "sign", name, "--key", "certifier"])
    assert exited.value.code == 2
    assert f"built-in {name} requires --out" in capsys.readouterr().err
    assert not (workspace["root"] / name).exists()

    out = workspace["root"] / "signed.json"
    code, _ = run_json(capsys, "whitelist", "sign", name, "--key", "certifier",
                       "--out", str(out))
    assert code == 0
    assert run_json(capsys, "whitelist", "verify", str(out))[0] == 0


def _builtin_v1_path():
    import pathlib

    import puregate

    return pathlib.Path(puregate.__file__).parent / "whitelists" / "v1.json"


def test_bench_runs_one_metric(workspace, capsys):
    code, doc = run_json(
        capsys, "bench", "--metric", "cert_size", "--executor", "emit_call"
    )
    assert code == 0
    assert 0 < doc["median_us"] <= 4096


def test_bench_rejects_insufficient_samples(workspace, capsys):
    code = main(["bench", "--metric", "verify_latency", "--samples", "3"])
    assert code == 2


def test_missing_file_is_usage_error(workspace, capsys):
    code = main([
        "gate", "no_such.wasm",
        "--cert", "x.cert", "--proof", "x.proof", "--trust", "ab" * 32,
    ])
    assert code == 2


@pytest.mark.parametrize("spelling", ["uppercase", "spaced", "uppercase_pub_file"])
def test_trusted_keys_in_other_hex_spellings_are_usage_errors(
    workspace, capsys, spelling
):
    pub = workspace["pub"]
    pub_file = workspace["root"] / "upper.pub"
    pub_file.write_text(pub.upper() + "\n")
    trusted = {
        "uppercase": pub.upper(),
        "spaced": " ".join(pub[i:i + 2] for i in range(0, len(pub), 2)),
        "uppercase_pub_file": str(pub_file),
    }[spelling]
    code = main([
        "verify", str(workspace["wasm"]),
        "--cert", workspace["cert"], "--proof", workspace["proof"],
        "--trust", trusted,
    ])
    assert code == 2
    assert "must be 32 bytes in lowercase hex" in capsys.readouterr().err


def test_a_key_file_in_uppercase_hex_is_a_usage_error(workspace, capsys):
    key = workspace["root"] / "keys" / "certifier.key"
    key.write_text(key.read_text().upper())
    code = main(["certify", str(workspace["wasm"]), "--key", "certifier"])
    assert code == 2
    assert "must be 32 bytes in lowercase hex" in capsys.readouterr().err


def test_run_refuses_an_input_that_is_not_an_object(workspace, capsys):
    listed = workspace["root"] / "list_input.json"
    listed.write_text("[1, 2]")
    code = main([
        "run", str(workspace["wasm"]),
        "--cert", workspace["cert"], "--proof", workspace["proof"],
        "--input", str(listed), "--trust", workspace["pub"],
    ])
    assert code == 2
    assert "must hold a JSON object, not list" in capsys.readouterr().err


def test_run_machine_refuses_a_document_that_is_not_an_object(workspace, capsys):
    machine = workspace["root"] / "list_machine.json"
    machine.write_text('[{"executor_ref": "e"}]')
    code = main(["run-machine", str(machine), "--trust", workspace["pub"]])
    assert code == 2
    assert "must hold a JSON object, not list" in capsys.readouterr().err


def _machine(workspace, **parts):
    doc = {
        "machine": "demo",
        "input": None,
        "steps": [{"executor_ref": "e"}],
        "executors": {"e": {"wasm": str(workspace["wasm"]), "cert": workspace["cert"],
                            "proof": workspace["proof"]}},
    }
    return {**doc, **parts}


def _environment(workspace):
    return {
        "runtime_identity": RUNTIME_ID,
        "runtime_version": "1.0",
        "whitelist_version": 1,
        "whitelist_hash": builtin_whitelist(1).content_hash.hex(),
        "accepted_certifier_keys": [workspace["pub"]],
    }


def _attested(workspace):
    """An attestation of the certified executor and a policy that accepts it."""
    root = workspace["root"]
    (root / "env.json").write_text(json.dumps(_environment(workspace)))
    code = main([
        "attest", str(workspace["wasm"]),
        "--cert", workspace["cert"], "--proof", workspace["proof"],
        "--env", str(root / "env.json"), "--env-key", "certifier",
        "--out", str(root / "record.attest"),
    ])
    assert code == 0
    key = bytes.fromhex(workspace["pub"])
    policy = OrgPolicy(
        accepted_whitelists=frozenset([builtin_whitelist(1).content_hash]),
        trusted_runtimes=frozenset([RUNTIME_ID]),
        trusted_certifiers=frozenset([key]),
        minimum_required=1,
        trusted_env_keys=frozenset([key]),
    )
    save_policy(policy, root / "policy.json")
    return str(root / "record.attest"), str(root / "policy.json")


def _spaced(hex_text):
    return " ".join(hex_text[i:i + 2] for i in range(0, len(hex_text), 2))


def _chain(**first_step):
    """A valid two-step chain file's text with fields of its first step replaced."""
    record = build_chain(2)
    lines = [{"type": "step", **step.to_json()} for step in record.steps]
    lines.append({"type": "run", **record.to_json()})
    lines[0].update(first_step)
    return "".join(json.dumps(line) + "\n" for line in lines)


def _mistyped_documents(workspace, command):
    """Documents for the command that parse but have one field of the wrong type
    or shape. Read without a check, several would decode equal to the real one."""
    cert = json.loads(Path(workspace["cert"]).read_text())
    meta = cert["metadata"]
    proof = json.loads(Path(workspace["proof"]).read_text())
    import_0 = proof["imports"][0]
    whitelist = json.loads(_builtin_v1_path().read_text())
    signed = {**whitelist, "authority_key": "00" * 32, "authority_signature": "00" * 64}
    env = _environment(workspace)
    if command == "provenance":
        return [_chain(step_index=[1]), _chain(step_index="1"),
                _chain(directive_hash="00" * 31)]
    if command in ("attest-verify", "policy"):
        record, policy = (json.loads(Path(p).read_text()) for p in _attested(workspace))
    docs = {
        "verify": lambda: [
            {**cert, "signature": 5},
            {**cert, "artifact_hash": cert["artifact_hash"].upper()},
            {**cert, "signature": _spaced(cert["signature"])},
            {**cert, "metadata": {**meta, "timestamp": str(meta["timestamp"])}},
            {**cert, "metadata": {**meta, "format_version": 1.9}},
        ],
        "gate": lambda: [
            {**proof, "imports": 5},
            {**proof, "whitelist_version": True},
            {**proof, "imports": [{**import_0, "namespace": 5}, *proof["imports"][1:]]},
        ],
        "run": lambda: [{**whitelist, "version": [1]}],
        "run-machine": lambda: [_machine(workspace, steps=[{"executor_ref": ["e"]}])],
        "attest": lambda: [{**env, "whitelist_version": [1]}],
        "attest-verify": lambda: [
            {**record, "env": {**env, "whitelist_hash": 5}},
            {**record, "env_signature": record["env_signature"][:-2]},
            {**record, "env_key": record["env_key"][:-2]},
        ],
        "policy": lambda: [
            {**policy, "trusted_runtimes": RUNTIME_ID},
            {**policy, "minimum_required": True},
        ],
        "whitelist": lambda: [
            {**whitelist, "content_hash": 5},
            {**whitelist, "content_hash": whitelist["content_hash"].upper()},
            {**signed, "authority_key": "00" * 31},
            {**signed, "authority_signature": "00" * 63},
        ],
    }
    return [json.dumps(doc) + "\n" for doc in docs[command]()]


def _argv_reading(workspace, command, document):
    """The command line of a subcommand that reads the given document file."""
    executor = ["--cert", workspace["cert"], "--proof", workspace["proof"]]
    trust = ["--trust", workspace["pub"]]
    input_doc = ["--input", str(workspace["root"] / "input.json")]
    if command in ("attest-verify", "policy"):
        attestation, policy = _attested(workspace)
        if command == "attest-verify":
            return ["attest-verify", document, "--policy", policy]
        return ["attest-verify", attestation, "--policy", document]
    return {
        "verify": ["verify", str(workspace["wasm"]), "--cert", document,
                   "--proof", workspace["proof"], *trust],
        "gate": ["gate", str(workspace["wasm"]), "--cert", workspace["cert"],
                 "--proof", document, *trust],
        "run": ["run", str(workspace["wasm"]), *executor, *input_doc,
                "--whitelist", document, *trust],
        "run-machine": ["run-machine", document, *trust],
        "attest": ["attest", str(workspace["wasm"]), *executor, "--env", document,
                   "--env-key", "certifier"],
        "whitelist": ["whitelist", "hash", document],
        "provenance": ["provenance", "verify", document],
    }[command]


@pytest.mark.parametrize("bad", ["missing", "not_json", "list", "mistyped"])
@pytest.mark.parametrize(
    "command",
    ["verify", "gate", "run", "run-machine", "attest", "attest-verify", "policy",
     "whitelist", "provenance"],
)
def test_every_malformed_document_is_a_usage_error(workspace, capsys, command, bad):
    document = workspace["root"] / "document.json"
    argv = _argv_reading(workspace, command, str(document))
    contents = {
        "missing": [None],
        "not_json": ['{"version": '],
        "list": ["[1, 2]\n"],
    }.get(bad) or _mistyped_documents(workspace, command)
    for content in contents:
        if content is not None:
            document.write_text(content)
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2, content
        assert err.startswith("error:"), content
        assert "Traceback" not in err


def _wrongly_typed_fields(workspace):
    """(command, document) pairs whose only fault is a field's JSON type or
    length; each parses and, unchecked, would hash as if valid."""
    whitelist = json.loads(_builtin_v1_path().read_text())
    del whitelist["content_hash"]  # optional; its check would mask the fault
    entry = whitelist["entries"][0]
    env = _environment(workspace)
    return [
        ("run", {**whitelist, "version": 1.5}),
        ("run", {**whitelist, "version": True}),
        ("run", {**whitelist, "entries": [{**entry, "namespace": 5}]}),
        ("attest", {**env, "runtime_identity": 5}),
        ("attest", {**env, "runtime_version": None}),
        ("attest", {**env, "whitelist_hash": ""}),
    ]


def test_wrongly_typed_whitelists_and_environments_are_usage_errors(workspace, capsys):
    for command, doc in _wrongly_typed_fields(workspace):
        document = workspace["root"] / "document.json"
        document.write_text(json.dumps(doc) + "\n")
        code = main(_argv_reading(workspace, command, str(document)))
        err = capsys.readouterr().err
        assert code == 2, (command, doc)
        assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "parts",
    [
        {"executors": []},
        {"executors": {"a": "x"}},
        {"steps": "ab"},
        {"steps": ["a"]},
        {"steps": [{"executor_ref": ["a"]}]},
        {"steps": [{"executor_ref": "ghost"}]},
        {"executors": {"e": {"wasm": "e.wasm", "cert": "e.cert"}}},
    ],
    ids=["executors_list", "executor_string", "steps_string", "step_string",
         "executor_ref_list", "executor_ref_unknown", "executor_without_proof"],
)
def test_run_machine_refuses_misshapen_parts(workspace, capsys, parts):
    machine = workspace["root"] / "misshapen.json"
    machine.write_text(json.dumps(_machine(workspace, **parts)))
    code = main(["run-machine", str(machine), "--trust", workspace["pub"]])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: machine {machine}: ")


@pytest.mark.parametrize("line", ["[1]", "5", '"x"'])
def test_provenance_refuses_chain_lines_that_are_not_objects(workspace, capsys, line):
    chain = workspace["root"] / "bad.chain"
    chain.write_text(line + "\n")
    for argv in (
        ["provenance", "verify", str(chain)],
        ["provenance", "cross-org", "--caller", str(chain),
         "--attestation", str(chain), "--callee", str(chain)],
    ):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: chain file {chain} line 1 must hold a JSON object")


def test_unknown_fixture_is_usage_error(workspace, capsys):
    code = main(["fixtures", "build", "ghost_fixture"])
    assert code == 2
    assert capsys.readouterr().err == "error: no fixture named 'ghost_fixture'\n"


def test_bench_refuses_an_unknown_metric():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "puregate.cli", "bench", "--metric", "nope"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 2
    assert "nope" in proc.stderr and "Traceback" not in proc.stderr


def test_console_script_is_installed(tmp_path):
    """The installed console script, else the module's __main__ entry."""
    exe = shutil.which("puregate")
    command = [exe] if exe else [sys.executable, "-m", "puregate.cli"]
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [*command, "whitelist", "hash", "v1", "--json"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["version"] == 1
