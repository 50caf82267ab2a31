import json
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from puregate.canonical import (
    CanonicalError,
    canonical_bytes,
    canonical_dumps,
    canonical_loads,
    load_object,
    loads_object,
    read_field,
    read_hex,
    read_int,
    read_list,
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


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"])
def test_a_non_finite_number_is_refused_on_read(literal):
    for text in (literal, '{"x":[%s]}' % literal):
        with pytest.raises(CanonicalError):
            canonical_loads(text)
        with pytest.raises(CanonicalError):
            canonical_loads(text.encode())


def test_finite_extremes_and_negative_zero_are_read():
    assert canonical_loads("1e308") == 1e308
    zero = canonical_loads("-0.0")
    assert zero == 0.0 and math.copysign(1.0, zero) == -1.0
    assert canonical_loads('{"a":[1.5,-2e-308]}') == {"a": [1.5, -2e-308]}


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


@given(json_values)
@example({"z": [1.5, "é"], "a": None})
def test_matches_plain_json_under_same_flags(doc):
    expected = json.dumps(
        doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    )
    assert canonical_dumps(doc) == expected


def _nested(depth):
    value: list = []
    for _ in range(depth):
        value = [value]
    return value


def _cyclic_list():
    value: list = []
    value.append(value)
    return value


def _cyclic_dict():
    value: dict = {}
    value["self"] = value
    return value


@pytest.mark.parametrize(
    "make", [lambda: _nested(100_000), _cyclic_list, _cyclic_dict],
    ids=["too_deep", "cyclic_list", "cyclic_dict"],
)
def test_a_value_that_cannot_be_encoded_is_a_canonical_error(make):
    value = make()
    with pytest.raises(CanonicalError):
        canonical_dumps(value)
    with pytest.raises(CanonicalError):
        canonical_bytes(value)


def test_a_lone_surrogate_is_a_canonical_error():
    with pytest.raises(CanonicalError):
        canonical_loads(b'{"result":"\\ud800"}')
    with pytest.raises(CanonicalError):
        canonical_bytes({"result": "\ud800"})


@pytest.mark.parametrize(
    "text",
    [
        r'"\udfff"',
        r'{"a":["x\ud800y"]}',
        r'{"\ud800":1}',
        r'"\ude00\ud83d"',  # a low then a high surrogate is no pair
        r'"\ud83d\\ude00"',  # an escaped backslash ends the pair
        "[" * 500 + r'"\ud800"' + "]" * 500,
    ],
    ids=["low", "nested", "key", "reversed", "escaped_backslash", "deep"],
)
def test_a_lone_surrogate_is_refused_on_read(text):
    for data in (text, text.encode()):
        with pytest.raises(CanonicalError):
            canonical_loads(data)


def test_a_raw_surrogate_in_text_is_refused_on_read():
    with pytest.raises(CanonicalError):
        canonical_loads('{"a":"\ud800"}')


def test_an_escaped_pair_and_an_escaped_backslash_are_read():
    assert canonical_loads(rb'"\ud83d\ude00"') == "\U0001f600"
    assert canonical_loads(rb'{"\\ud800":"\\"}') == {"\\ud800": "\\"}


def test_hex_reader():
    assert read_hex({"h": "ab" * 32}, "h", 32) == b"\xab" * 32
    for bad in ("AB" * 32, "ab" * 31, "ab" * 33, "zz" * 32, " ".join(["ab"] * 32)):
        with pytest.raises(ValueError, match="^h must be 32 bytes in lowercase hex$"):
            read_hex({"h": bad}, "h", 32)
    with pytest.raises(TypeError, match="^h must be str, not int$"):
        read_hex({"h": 5}, "h", 32)


@pytest.mark.parametrize(
    "read, doc, error, message",
    [
        (lambda d: read_field(d, "k", str), {}, ValueError, "missing field k"),
        (lambda d: read_field(d, "k", int), {"k": True}, TypeError,
         "k must be int, not bool"),
        (lambda d: read_field(d, "k", dict), {"k": []}, TypeError,
         "k must be dict, not list"),
        (lambda d: read_int(d, "k"), {"k": 1.0}, TypeError, "k must be int, not float"),
        (lambda d: read_int(d, "k"), {"k": "1"}, TypeError, "k must be int, not str"),
        (lambda d: read_int(d, "k", 1), {"k": 0}, ValueError, "k must be >= 1, not 0"),
        (lambda d: read_list(d, "k", read_field, str), {"k": "ab"}, TypeError,
         "k must be list, not str"),
        (lambda d: read_list(d, "k", read_field, str), {"k": ["a", 5]}, TypeError,
         r"k\[1\] must be str, not int"),
        (lambda d: read_list(d, "k", read_hex, 1), {"k": ["0a", "0"]}, ValueError,
         r"k\[1\] must be 1 bytes in lowercase hex"),
    ],
    ids=["missing", "bool_is_no_int", "list_is_no_object", "float", "int_string",
         "below_minimum", "string_is_no_list", "list_item_type", "list_item_hex"],
)
def test_field_readers_name_the_bad_field(read, doc, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        read(doc)


def test_field_readers_return_the_value():
    doc = {"s": "x", "n": 3, "h": "0aff", "l": ["00", "ff"]}
    assert read_field(doc, "s", str) == "x"
    assert read_int(doc, "n", 3) == 3
    assert read_hex(doc, "h", 2) == b"\x0a\xff"
    assert read_list(doc, "l", read_hex, 1) == (b"\x00", b"\xff")


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
