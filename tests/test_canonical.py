import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from puregate.canonical import (
    CanonicalError,
    canonical_bytes,
    canonical_dumps,
    canonical_loads,
    is_hex_digest,
    load_object,
    loads_object,
)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=20,
)


def test_fixed_key_order_and_separators():
    assert canonical_dumps({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


def test_non_ascii_stays_utf8():
    blob = canonical_bytes({"k": "héllo"})
    assert "héllo".encode() in blob


def test_nan_rejected():
    with pytest.raises(CanonicalError):
        canonical_dumps({"x": math.nan})


def test_unserializable_rejected():
    with pytest.raises(CanonicalError):
        canonical_dumps({"x": object()})


@given(json_values)
def test_round_trip_identity(value):
    assert canonical_loads(canonical_bytes(value)) == value


@given(json_values)
def test_serialization_is_deterministic(value):
    assert canonical_bytes(value) == canonical_bytes(value)


@given(st.dictionaries(st.text(), st.integers(), min_size=2))
def test_key_order_never_matters(doc):
    shuffled = dict(reversed(list(doc.items())))
    assert canonical_bytes(doc) == canonical_bytes(shuffled)


def test_matches_plain_json_under_same_flags():
    doc = {"z": [1.5, "é"], "a": None}
    expected = json.dumps(
        doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    )
    assert canonical_dumps(doc) == expected


def test_hex_digest_predicate():
    assert is_hex_digest("ab" * 32)
    assert not is_hex_digest("AB" * 32)
    assert not is_hex_digest("ab" * 31)
    assert not is_hex_digest("zz" * 32)


class DocumentError(ValueError):
    pass


def test_document_reader_returns_the_object(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(canonical_bytes({"a": [1, 2]}))
    assert load_object(path, DocumentError, "doc") == {"a": [1, 2]}
    assert loads_object(b'{"a": 1}', DocumentError, "doc") == {"a": 1}


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "cannot read doc {path}: "),
        (b"{not json", "cannot read doc {path}: invalid document: "),
        (b'"\xff"', "cannot read doc {path}: "),
        (b"[" * 100_000, "cannot read doc {path}: "),
        (b"[1, 2]", "doc {path} must hold a JSON object, not list"),
        (b"null", "doc {path} must hold a JSON object, not NoneType"),
    ],
    ids=["missing", "not_json", "not_utf8", "too_deep", "list", "null"],
)
def test_document_reader_raises_only_the_callers_error(tmp_path, content, message):
    path = tmp_path / "doc.json"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(DocumentError) as caught:
        load_object(path, DocumentError, "doc")
    assert str(caught.value).startswith(message.format(path=path))
