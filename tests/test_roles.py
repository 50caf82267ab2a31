"""Each role loads the puregate modules README's role table names, and no more.

Every check imports a role's entry module in a fresh interpreter, so what
other tests imported does not count, and compares the set of puregate
modules then loaded with the table.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from puregate.attestation import (
    EnvironmentDescriptor,
    OrgPolicy,
    build_attestation,
    save_attestation,
    save_policy,
)
from puregate.certificate import save_certificate
from puregate.gate import DecisionLog, gate_verify
from puregate.proof import save_proof

ROOT = Path(__file__).resolve().parents[1]

# wasm_inspect keeps its decoded headers in a memo.BoundedMemo
CERTIFIER = {
    "canonical", "certificate", "memo", "proof", "signing", "wasm_inspect", "whitelist"
}
GATE = CERTIFIER | {"gate"}
RUNTIME = GATE | {"interpreter", "memo", "provenance", "runtime_host", "wasmvm"}
PEER_VERIFIER = CERTIFIER | {"attestation", "memo"}
# role -> (entry module, the puregate modules importing it loads)
ROLES = {
    "certifier": ("certificate", CERTIFIER),
    "gate": ("gate", GATE),
    "runtime": ("interpreter", RUNTIME),
    "peer verifier": ("attestation", PEER_VERIFIER),
}
# an acceptance builds the runtime's compile handle, which loads the VM
GATE_AFTER_ACCEPTANCE = GATE | {"memo", "wasmvm"}
CLI = RUNTIME | PEER_VERIFIER | {"cli"}

_REPORT = """
import json, sys
print(json.dumps(sorted(m[len("puregate."):] for m in sys.modules
                        if m.startswith("puregate."))))
"""


def _loaded(code, *argv):
    """The puregate modules a fresh interpreter holds after running code."""
    proc = subprocess.run(
        [sys.executable, "-c", code + _REPORT, *map(str, argv)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _readme_rows():
    """(role, entry module, module set, line count) of README's role table."""
    rows = re.findall(
        r"^\| ([a-z ]+) \| `(\w+)` \| ([`\w, ]+) \| ([\d ]+) \|$",
        (ROOT / "README.md").read_text(),
        re.MULTILINE,
    )
    return [
        (role, entry, set(re.findall(r"`(\w+)`", modules)), int(lines.replace(" ", "")))
        for role, entry, modules, lines in rows
    ]


def _readme_roles():
    """role -> (entry module, module set) from README's role table."""
    return {role: (entry, modules) for role, entry, modules, _ in _readme_rows()}


def test_readme_states_each_role_and_its_modules():
    assert _readme_roles() == ROLES


def test_readme_states_each_roles_line_count():
    for role, _, modules, lines in _readme_rows():
        counted = sum(
            len((ROOT / "src" / "puregate" / f"{m}.py").read_text().splitlines())
            for m in modules
        )
        assert lines == counted, role


@pytest.mark.parametrize("role", list(ROLES))
def test_each_role_loads_the_modules_of_its_row(role):
    entry, modules = ROLES[role]
    assert _loaded(f"import puregate.{entry}") == modules


@pytest.fixture
def certified_files(tmp_path, bundles, certifier_key):
    binary, proof, cert = bundles["emit_call"]
    (tmp_path / "x.wasm").write_bytes(binary)
    save_certificate(cert, tmp_path / "x.cert")
    save_proof(proof, tmp_path / "x.proof")
    (tmp_path / "trusted").write_text(certifier_key.public_key.hex())
    return tmp_path


_GATE_ONCE = """
import sys
from pathlib import Path
from puregate.certificate import load_certificate
from puregate.gate import gate_verify
from puregate.proof import load_proof
from puregate.whitelist import builtin_whitelist

root = Path(sys.argv[1])
trusted = [bytes.fromhex((root / "trusted").read_text())] if sys.argv[2] == "accept" else []
decision = gate_verify(
    (root / "x.wasm").read_bytes(),
    load_certificate(root / "x.cert"),
    load_proof(root / "x.proof"),
    builtin_whitelist(1),
    trusted,
)
assert decision.accepted == (sys.argv[2] == "accept"), decision
"""


def test_a_rejection_loads_no_vm_and_an_acceptance_does(certified_files):
    assert _loaded(_GATE_ONCE, certified_files, "reject") == GATE
    assert _loaded(_GATE_ONCE, certified_files, "accept") == GATE_AFTER_ACCEPTANCE


_ATTEST_VERIFY = """
import sys
from puregate.cli import main

assert main(["attest-verify", sys.argv[1], "--policy", sys.argv[2]]) == 0
"""


def test_the_cli_loads_no_assembler_fixtures_or_bench(
    tmp_path, bundles, certifier_key, env_keypair, wl_v1
):
    binary, proof, cert = bundles["emit_call"]
    log = DecisionLog()
    assert gate_verify(binary, cert, proof, wl_v1, [certifier_key.public_key], log=log).accepted
    env = EnvironmentDescriptor(
        runtime_identity="roles-test",
        runtime_version="1.0",
        whitelist_version=1,
        whitelist_hash=wl_v1.content_hash,
        accepted_certifier_keys=(certifier_key.public_key,),
    )
    save_attestation(
        build_attestation(cert, proof, env, env_keypair, log), tmp_path / "record.attest"
    )
    save_policy(
        OrgPolicy(
            accepted_whitelists=frozenset([wl_v1.content_hash]),
            trusted_runtimes=frozenset(["roles-test"]),
            trusted_certifiers=frozenset([certifier_key.public_key]),
            minimum_required=1,
            trusted_env_keys=frozenset([env_keypair.public_key]),
        ),
        tmp_path / "policy.json",
    )
    loaded = _loaded(_ATTEST_VERIFY, tmp_path / "record.attest", tmp_path / "policy.json")
    assert loaded == CLI
    assert not loaded & {"bench", "fixtures", "watasm"}
