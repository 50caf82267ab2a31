import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from _chain_tools import (
    RUN_FIELDS,
    STEP_FIELDS,
    build_chain,
    mutate_run,
    mutate_step,
    sweep_cases,
)
from puregate.provenance import (
    PURITY_METHODS,
    WASM_CERTIFIED,
    ZERO_DIGEST,
    ChainFinalized,
    EmptyChain,
    ProvenanceFormatError,
    RunChain,
    RunRecord,
    StepRecord,
    cross_org_hash,
    load_run_record,
    run_hash,
    save_run_record,
    step_execution_hash,
    verify_chain,
)

GOLDEN = Path(__file__).parent / "golden"
ORACLE = Path(__file__).resolve().parents[1] / "scripts" / "golden_oracle.py"

digests = st.binary(min_size=32, max_size=32)


def test_golden_three_step_chain_replays_exactly():
    golden = json.loads((GOLDEN / "chain_3step.json").read_text())
    chain = RunChain()
    for step in golden["steps"]:
        record = chain.append_step(
            directive_hash=bytes.fromhex(step["directive_hash"]),
            governance_hash=bytes.fromhex(step["governance_hash"]),
            result_hash=bytes.fromhex(step["result_hash"]),
            purity_cert_hash=bytes.fromhex(step["purity_cert_hash"]),
            purity_method=WASM_CERTIFIED,
        )
        assert record.execution_hash_vp.hex() == step["execution_hash_vp"]
        assert record.step_index == step["step_index"]
    sealed = chain.finalize_run(
        machine_version_hash=bytes.fromhex(golden["machine_version_hash"]),
        input_hash=bytes.fromhex(golden["input_hash"]),
        output_hash=bytes.fromhex(golden["output_hash"]),
    )
    assert sealed.run_hash_vp.hex() == golden["run_hash_vp"]
    assert verify_chain(sealed).valid


def test_a_run_with_no_steps_fails_at_its_first_step():
    machine, inputs, output = bytes([1]) * 32, bytes([2]) * 32, bytes([3]) * 32
    record = RunRecord(
        machine_version_hash=machine,
        input_hash=inputs,
        final_execution_hash=ZERO_DIGEST,
        output_hash=output,
        run_hash_vp=run_hash(machine, inputs, ZERO_DIGEST, output),
        steps=(),
    )
    verdict = verify_chain(record)
    assert (verdict.valid, verdict.failure) == (False, "step:1")


@given(digests, digests, digests, digests, digests)
def test_step_hash_is_plain_sha256_of_concatenation(d, g, r, c, prev):
    expected = hashlib.sha256(d + g + r + c + prev).digest()
    assert step_execution_hash(d, g, r, c, prev) == expected


@given(digests, digests, digests, digests)
def test_run_hash_is_plain_sha256_of_concatenation(m, i, f, o):
    assert run_hash(m, i, f, o) == hashlib.sha256(m + i + f + o).digest()


def test_cross_org_golden():
    golden = json.loads((GOLDEN / "cross_org.json").read_text())
    computed = cross_org_hash(
        bytes.fromhex(golden["caller_run_hash"]),
        bytes.fromhex(golden["callee_attestation_hash"]),
        bytes.fromhex(golden["callee_run_hash"]),
    )
    assert computed.hex() == golden["cross_org_hash"]


@given(digests, digests, digests)
def test_cross_org_hash_is_order_sensitive(a, b, c):
    baseline = cross_org_hash(a, b, c)
    if len({a, b, c}) == 3:
        assert cross_org_hash(b, a, c) != baseline
        assert cross_org_hash(a, c, b) != baseline


@pytest.mark.parametrize("bad", [b"", b"\x00" * 31, b"\x00" * 33, "0" * 64])
def test_short_or_typed_wrong_digests_rejected(bad):
    good = bytes(32)
    with pytest.raises(ValueError):
        step_execution_hash(bad, good, good, good, good)
    with pytest.raises(ValueError):
        run_hash(good, bad, good, good)
    with pytest.raises(ValueError):
        cross_org_hash(good, good, bad)


def test_chain_prefix_is_stable_under_extension():
    short = build_chain(3)
    longer = build_chain(5)
    for a, b in zip(short.steps, longer.steps):
        assert a.execution_hash_vp == b.execution_hash_vp


def test_first_step_chains_from_zero_digest():
    record = build_chain(1)
    step = record.steps[0]
    assert step.execution_hash_vp == step_execution_hash(
        step.directive_hash,
        step.governance_hash,
        step.result_hash,
        step.purity_cert_hash,
        ZERO_DIGEST,
    )


def test_finalize_requires_steps_and_happens_once():
    chain = RunChain()
    with pytest.raises(EmptyChain):
        chain.finalize_run(bytes(32), bytes(32), bytes(32))
    chain.append_step(bytes(32), bytes(32), bytes(32), bytes(32), WASM_CERTIFIED)
    chain.finalize_run(bytes(32), bytes(32), bytes(32))
    with pytest.raises(ChainFinalized):
        chain.finalize_run(bytes(32), bytes(32), bytes(32))
    with pytest.raises(ChainFinalized):
        chain.append_step(
            bytes(32), bytes(32), bytes(32), bytes(32), WASM_CERTIFIED
        )


def test_append_rejects_unknown_purity_method():
    with pytest.raises(ValueError):
        RunChain().append_step(
            bytes(32), bytes(32), bytes(32), bytes(32), "vibes"
        )


@pytest.mark.parametrize("field", STEP_FIELDS)
def test_any_step_field_tamper_detected_at_its_index(field):
    record = build_chain(4)
    for index in (1, 2, 3, 4):
        verdict = verify_chain(mutate_step(record, index, field))
        assert not verdict.valid
        assert verdict.failure == f"step:{index}", (field, index)


@pytest.mark.parametrize("field", RUN_FIELDS)
def test_any_run_field_tamper_detected(field):
    verdict = verify_chain(mutate_run(build_chain(3), field))
    assert not verdict.valid
    assert verdict.failure == "run_hash"


def test_sweep_covers_all_fields_of_all_steps():
    record = build_chain(6)
    cases = list(sweep_cases(record))
    assert len(cases) == 6 * len(STEP_FIELDS) + len(RUN_FIELDS)
    for name, mutated, expected in cases:
        verdict = verify_chain(mutated)
        assert not verdict.valid, name
        assert verdict.failure == expected, name


def test_chain_file_round_trip(tmp_path):
    record = build_chain(4)
    path = tmp_path / "run.chain"
    save_run_record(record, path)
    loaded = load_run_record(path)
    assert loaded == record
    assert verify_chain(loaded).valid
    lines = path.read_text().splitlines()
    assert [json.loads(l)["type"] for l in lines] == ["step"] * 4 + ["run"]


def test_chain_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.chain"
    path.write_text("not json\n")
    with pytest.raises(ProvenanceFormatError):
        load_run_record(path)
    path.write_text(json.dumps({"type": "step", "step_index": 1}) + "\n")
    with pytest.raises(ProvenanceFormatError):
        load_run_record(path)
    save_run_record(build_chain(2), path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    for index, field, value in [
        (0, "step_index", "1"),
        (0, "step_index", True),
        (0, "directive_hash", "00" * 31),
        (1, "execution_hash_vp", lines[1]["execution_hash_vp"].upper()),
        (2, "run_hash_vp", "00" * 33),
    ]:
        mutated = [dict(line) for line in lines]
        mutated[index][field] = value
        path.write_text("".join(json.dumps(line) + "\n" for line in mutated))
        with pytest.raises(ProvenanceFormatError, match=field):
            load_run_record(path)
    with pytest.raises(ProvenanceFormatError):
        load_run_record(tmp_path / "absent.chain")


def test_step_record_round_trip_validates_method():
    record = build_chain(2)
    doc = record.steps[1].to_json()
    assert StepRecord.from_json(doc) == record.steps[1]
    doc["purity_method"] = "forged_method"
    with pytest.raises(ValueError):
        StepRecord.from_json(doc)


def test_independent_oracle_recomputes_saved_chain(tmp_path):
    record = build_chain(5, seed="oracle")
    path = tmp_path / "run.chain"
    save_run_record(record, path)
    proc = subprocess.run(
        [sys.executable, str(ORACLE), str(path)],
        capture_output=True,
        text=True,
        check=True,
    )
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 6
    for i, step in enumerate(record.steps, start=1):
        assert lines[i - 1] == f"step:{i} {step.execution_hash_vp.hex()}"
    assert lines[-1] == f"run {record.run_hash_vp.hex()}"
