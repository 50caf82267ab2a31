"""Execution provenance: a hash chain anchoring purity evidence per step.

Each step links five digests: the step's directives, its governance records,
its result, the purity certificate it ran under, and the previous step's
chain value. All concatenations are raw 32-byte digests in a fixed order;
the chain genesis is 32 zero bytes. A sealed run adds a run-level hash over
the machine version, input, final chain value, and output. Auditors recompute
everything from components; the first mismatch is reported.

Steps executed under the static-analysis or unchecked tiers have no
certificate; their purity_cert_hash is the 32-zero-byte placeholder and the
purity_method marker carries the tier.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from .canonical import canonical_bytes, loads_object

DIGEST_BYTES = 32
ZERO_DIGEST = bytes(DIGEST_BYTES)

WASM_CERTIFIED = "wasm_certified"
BEAM_STATIC_ANALYSIS = "beam_static_analysis"
BEAM_UNCHECKED = "beam_unchecked"
PURITY_METHODS = (WASM_CERTIFIED, BEAM_STATIC_ANALYSIS, BEAM_UNCHECKED)


class ChainFinalized(RuntimeError):
    """Append or re-finalize attempted on a sealed run."""


class EmptyChain(RuntimeError):
    """A run cannot be finalized before any step was appended."""


class ProvenanceFormatError(ValueError):
    """A chain file does not parse into a run record."""


def _require_digest(value: bytes, what: str) -> bytes:
    if not isinstance(value, bytes) or len(value) != DIGEST_BYTES:
        raise ValueError(f"{what} must be a raw {DIGEST_BYTES}-byte digest")
    return value


@dataclass(frozen=True)
class StepRecord:
    step_index: int
    directive_hash: bytes
    governance_hash: bytes
    result_hash: bytes
    purity_cert_hash: bytes
    purity_method: str
    execution_hash_vp: bytes

    def to_json(self) -> dict[str, Any]:
        return {
            "step_index": self.step_index,
            "directive_hash": self.directive_hash.hex(),
            "governance_hash": self.governance_hash.hex(),
            "result_hash": self.result_hash.hex(),
            "purity_cert_hash": self.purity_cert_hash.hex(),
            "purity_method": self.purity_method,
            "execution_hash_vp": self.execution_hash_vp.hex(),
        }

    @classmethod
    def from_json(cls, obj: Mapping[str, Any]) -> "StepRecord":
        rec = cls(
            step_index=int(obj["step_index"]),
            directive_hash=bytes.fromhex(obj["directive_hash"]),
            governance_hash=bytes.fromhex(obj["governance_hash"]),
            result_hash=bytes.fromhex(obj["result_hash"]),
            purity_cert_hash=bytes.fromhex(obj["purity_cert_hash"]),
            purity_method=obj["purity_method"],
            execution_hash_vp=bytes.fromhex(obj["execution_hash_vp"]),
        )
        if rec.purity_method not in PURITY_METHODS:
            raise ValueError(f"unknown purity_method: {rec.purity_method!r}")
        return rec


@dataclass(frozen=True)
class RunRecord:
    machine_version_hash: bytes
    input_hash: bytes
    final_execution_hash: bytes
    output_hash: bytes
    run_hash_vp: bytes
    steps: tuple[StepRecord, ...]

    def to_json(self) -> dict[str, Any]:
        return {
            "machine_version_hash": self.machine_version_hash.hex(),
            "input_hash": self.input_hash.hex(),
            "final_execution_hash": self.final_execution_hash.hex(),
            "output_hash": self.output_hash.hex(),
            "run_hash_vp": self.run_hash_vp.hex(),
        }


@dataclass(frozen=True)
class ChainVerdict:
    valid: bool
    failure: str | None = None  # "step:N" or "run_hash"


# ---------------------------------------------------------------------------
# the chain equations
# ---------------------------------------------------------------------------

def step_execution_hash(
    directive_hash: bytes,
    governance_hash: bytes,
    result_hash: bytes,
    purity_cert_hash: bytes,
    previous_execution_hash: bytes,
) -> bytes:
    """Chain value for one step: five raw digests hashed in this exact order."""
    message = (
        _require_digest(directive_hash, "directive_hash")
        + _require_digest(governance_hash, "governance_hash")
        + _require_digest(result_hash, "result_hash")
        + _require_digest(purity_cert_hash, "purity_cert_hash")
        + _require_digest(previous_execution_hash, "previous execution hash")
    )
    return hashlib.sha256(message).digest()


def run_hash(
    machine_version_hash: bytes,
    input_hash: bytes,
    final_execution_hash: bytes,
    output_hash: bytes,
) -> bytes:
    message = (
        _require_digest(machine_version_hash, "machine_version_hash")
        + _require_digest(input_hash, "input_hash")
        + _require_digest(final_execution_hash, "final execution hash")
        + _require_digest(output_hash, "output_hash")
    )
    return hashlib.sha256(message).digest()


def cross_org_hash(
    caller_run_hash: bytes,
    callee_attestation_hash: bytes,
    callee_run_hash: bytes,
) -> bytes:
    """Joint provenance anchor for a cross-organization call boundary."""
    message = (
        _require_digest(caller_run_hash, "caller_run_hash")
        + _require_digest(callee_attestation_hash, "callee_attestation_hash")
        + _require_digest(callee_run_hash, "callee_run_hash")
    )
    return hashlib.sha256(message).digest()


# ---------------------------------------------------------------------------
# chain construction
# ---------------------------------------------------------------------------

class RunChain:
    """A run's chain in progress: append steps, then seal exactly once."""

    def __init__(self) -> None:
        self.steps: list[StepRecord] = []
        self.sealed: RunRecord | None = None

    def append_step(
        self,
        directive_hash: bytes,
        governance_hash: bytes,
        result_hash: bytes,
        purity_cert_hash: bytes,
        purity_method: str,
    ) -> StepRecord:
        if self.sealed is not None:
            raise ChainFinalized("run already sealed; no further steps")
        if purity_method not in PURITY_METHODS:
            raise ValueError(f"unknown purity_method: {purity_method!r}")
        previous = (
            self.steps[-1].execution_hash_vp if self.steps else ZERO_DIGEST
        )
        record = StepRecord(
            step_index=len(self.steps) + 1,
            directive_hash=directive_hash,
            governance_hash=governance_hash,
            result_hash=result_hash,
            purity_cert_hash=purity_cert_hash,
            purity_method=purity_method,
            execution_hash_vp=step_execution_hash(
                directive_hash,
                governance_hash,
                result_hash,
                purity_cert_hash,
                previous,
            ),
        )
        self.steps.append(record)
        return record

    def finalize_run(
        self,
        machine_version_hash: bytes,
        input_hash: bytes,
        output_hash: bytes,
    ) -> RunRecord:
        if self.sealed is not None:
            raise ChainFinalized("run already sealed")
        if not self.steps:
            raise EmptyChain("cannot finalize a run with no steps")
        final = self.steps[-1].execution_hash_vp
        record = RunRecord(
            machine_version_hash=machine_version_hash,
            input_hash=input_hash,
            final_execution_hash=final,
            output_hash=output_hash,
            run_hash_vp=run_hash(
                machine_version_hash, input_hash, final, output_hash
            ),
            steps=tuple(self.steps),
        )
        self.sealed = record
        return record


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def verify_chain(record: RunRecord) -> ChainVerdict:
    """Recompute every chain value from components; report the first mismatch."""
    previous = ZERO_DIGEST
    for i, step in enumerate(record.steps, start=1):
        if step.step_index != i:
            return ChainVerdict(False, f"step:{i}")
        if step.purity_method not in PURITY_METHODS:
            return ChainVerdict(False, f"step:{i}")
        expected = step_execution_hash(
            step.directive_hash,
            step.governance_hash,
            step.result_hash,
            step.purity_cert_hash,
            previous,
        )
        if expected != step.execution_hash_vp:
            return ChainVerdict(False, f"step:{i}")
        previous = step.execution_hash_vp

    if record.final_execution_hash != previous:
        return ChainVerdict(False, "run_hash")
    expected_run = run_hash(
        record.machine_version_hash,
        record.input_hash,
        record.final_execution_hash,
        record.output_hash,
    )
    if expected_run != record.run_hash_vp:
        return ChainVerdict(False, "run_hash")
    return ChainVerdict(True)


# ---------------------------------------------------------------------------
# chain files: one step per line, sealed run record last
# ---------------------------------------------------------------------------

def save_run_record(record: RunRecord, path: Path) -> None:
    lines = [
        canonical_bytes({"type": "step", **step.to_json()}) for step in record.steps
    ]
    lines.append(canonical_bytes({"type": "run", **record.to_json()}))
    Path(path).write_bytes(b"\n".join(lines) + b"\n")


def load_run_record(path: Path) -> RunRecord:
    steps: list[StepRecord] = []
    run_doc: Mapping[str, Any] | None = None
    try:
        raw_lines = Path(path).read_bytes().splitlines()
    except OSError as exc:
        raise ProvenanceFormatError(f"cannot read chain file {path}: {exc}") from exc
    for number, line in enumerate(raw_lines, 1):
        if not line.strip():
            continue
        what = f"chain file {path} line {number}"
        doc = loads_object(line, ProvenanceFormatError, what)
        if run_doc is not None:
            raise ProvenanceFormatError("records found after the sealed run line")
        if doc.get("type") == "step":
            try:
                steps.append(StepRecord.from_json(doc))
            except (KeyError, TypeError, ValueError) as exc:
                raise ProvenanceFormatError(f"bad step record: {exc}") from exc
        elif doc.get("type") == "run":
            run_doc = doc
        else:
            raise ProvenanceFormatError(f"unknown record type {doc.get('type')!r}")
    if run_doc is None:
        raise ProvenanceFormatError("chain file has no sealed run record")
    try:
        return RunRecord(
            machine_version_hash=bytes.fromhex(run_doc["machine_version_hash"]),
            input_hash=bytes.fromhex(run_doc["input_hash"]),
            final_execution_hash=bytes.fromhex(run_doc["final_execution_hash"]),
            output_hash=bytes.fromhex(run_doc["output_hash"]),
            run_hash_vp=bytes.fromhex(run_doc["run_hash_vp"]),
            steps=tuple(steps),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProvenanceFormatError(f"bad run record: {exc}") from exc
