"""Every document the program writes reads back as itself, and the goldens
under tests/golden are what scripts/freeze_goldens.py writes."""

import importlib.util
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from puregate.attestation import (
    AttestationRecord,
    EnvironmentDescriptor,
    OrgPolicy,
    attestation_from_json,
    attestation_to_json,
    policy_from_json,
    policy_to_json,
)
from puregate.canonical import canonical_bytes, canonical_loads
from puregate.certificate import (
    FORMAT_VERSION,
    CertificateMetadata,
    PurityCertificate,
    certificate_from_json,
    certificate_to_json,
)
from puregate.proof import IMPURE, PURE, PurityProof, proof_from_json, proof_to_json
from puregate.provenance import (
    PURITY_METHODS,
    RunRecord,
    StepRecord,
    load_run_record,
    save_run_record,
)
from puregate.wasm_inspect import IMPORT_KINDS, ImportRecord
from puregate.whitelist import (
    PURITY_CLASSES,
    VERDICTS,
    Classification,
    WhitelistEntry,
    make_whitelist,
    whitelist_from_json,
    whitelist_to_json,
)

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

texts = st.text(max_size=12)
ints = st.integers(min_value=-(2**70), max_value=2**70)
positive = st.integers(min_value=1, max_value=2**40)
digests = st.binary(min_size=32, max_size=32)
keys = digests
signatures = st.binary(min_size=64, max_size=64)

imports = st.builds(ImportRecord, texts, texts, st.sampled_from(IMPORT_KINDS), texts)


@st.composite
def whitelists(draw):
    entries = draw(
        st.lists(
            st.builds(WhitelistEntry, texts, texts, st.sampled_from(PURITY_CLASSES),
                      texts),
            max_size=5,
            unique_by=lambda e: (e.namespace, e.name),
        )
    )
    whitelist = make_whitelist(draw(positive), entries)
    if draw(st.booleans()):  # signed, as sign_whitelist leaves it
        return replace(
            whitelist, authority_key=draw(keys), authority_signature=draw(signatures)
        )
    return whitelist


@st.composite
def proofs(draw):
    records = draw(st.lists(imports, max_size=4))
    verdicts = draw(
        st.lists(st.sampled_from(VERDICTS), min_size=len(records),
                 max_size=len(records))
    )
    return PurityProof(
        imports=tuple(records),
        classifications=tuple(map(Classification, records, verdicts)),
        conclusion=draw(st.sampled_from((PURE, IMPURE))),
        whitelist_version=draw(ints),
        whitelist_hash=draw(digests),
    )


certificates = st.builds(
    PurityCertificate,
    artifact_hash=digests,
    proof_hash=digests,
    signature=signatures,
    metadata=st.builds(
        CertificateMetadata,
        certifier_key=keys,
        timestamp=ints,
        whitelist_version=ints,
        whitelist_hash=digests,
        format_version=st.just(FORMAT_VERSION),
    ),
)

environments = st.builds(
    EnvironmentDescriptor,
    texts,
    texts,
    positive,
    digests,
    st.lists(keys, max_size=3).map(tuple),
)

attestations = st.builds(
    AttestationRecord, certificates, proofs(), environments, signatures, keys
)

policies = st.builds(
    OrgPolicy,
    st.frozensets(digests, max_size=3),
    st.frozensets(texts, max_size=3),
    st.frozensets(keys, max_size=3),
    positive,
    st.frozensets(keys, max_size=3),
)

DOCUMENTS = {
    "whitelist": (whitelists(), whitelist_to_json, whitelist_from_json),
    "proof": (proofs(), proof_to_json, proof_from_json),
    "certificate": (certificates, certificate_to_json, certificate_from_json),
    "environment": (
        environments, EnvironmentDescriptor.to_json, EnvironmentDescriptor.from_json
    ),
    "attestation": (attestations, attestation_to_json, attestation_from_json),
    "policy": (policies, policy_to_json, policy_from_json),
}


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
@given(data=st.data())
def test_every_document_reads_back_as_itself(kind, data):
    strategy, encode, decode = DOCUMENTS[kind]
    value = data.draw(strategy)
    blob = canonical_bytes(encode(value))
    decoded = decode(canonical_loads(blob))
    assert decoded == value
    assert canonical_bytes(encode(decoded)) == blob


steps = st.builds(
    StepRecord, ints, digests, digests, digests, digests,
    st.sampled_from(PURITY_METHODS), digests,
)


@given(
    st.builds(
        RunRecord, digests, digests, digests, digests, digests,
        st.lists(steps, max_size=4).map(tuple),
    )
)
def test_every_chain_file_reads_back_as_itself(record):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "run.chain"
        save_run_record(record, path)
        blob = path.read_bytes()
        decoded = load_run_record(path)
        assert decoded == record
        save_run_record(decoded, path)
        assert path.read_bytes() == blob


def test_freeze_goldens_reproduces_the_committed_files(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "freeze_goldens", ROOT / "scripts" / "freeze_goldens.py"
    )
    freeze = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(freeze)
    monkeypatch.setattr(freeze, "OUT_DIR", tmp_path)
    assert freeze.main() == 0
    written = sorted(tmp_path.iterdir())
    assert [p.name for p in written] == [
        "chain_3step.json", "cross_org.json", "proof_emit_call.json",
        "whitelist_v1.json",
    ]
    for path in written:
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes(), path.name
