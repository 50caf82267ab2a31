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
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Mapping

from .canonical import canonical_bytes, load_lines, read_field, read_hex, read_int

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
            step_index=read_int(obj, "step_index"),
            directive_hash=read_hex(obj, "directive_hash", DIGEST_BYTES),
            governance_hash=read_hex(obj, "governance_hash", DIGEST_BYTES),
            result_hash=read_hex(obj, "result_hash", DIGEST_BYTES),
            purity_cert_hash=read_hex(obj, "purity_cert_hash", DIGEST_BYTES),
            purity_method=read_field(obj, "purity_method", str),
            execution_hash_vp=read_hex(obj, "execution_hash_vp", DIGEST_BYTES),
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
    """Recompute every chain value from components; report the first mismatch.

    A run with no steps fails at step:1, the step it lacks: finalize_run
    never seals one.
    """
    if not record.steps:
        return ChainVerdict(False, "step:1")
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
    docs = load_lines(path, ProvenanceFormatError, "chain file")
    types = [doc.get("type") for doc in docs]
    if types[-1:] != ["run"] or types.count("step") != len(types) - 1:
        raise ProvenanceFormatError(
            f"chain file {path} must hold step records, then one sealed run record"
        )
    try:
        return RunRecord(  # every field but the steps is a digest
            *(read_hex(docs[-1], f.name, DIGEST_BYTES) for f in fields(RunRecord)[:-1]),
            steps=tuple(StepRecord.from_json(doc) for doc in docs[:-1]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProvenanceFormatError(f"bad chain record: {exc}") from exc
