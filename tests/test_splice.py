"""Documents spliced from encoded members are the documents encoded whole.

`canonical.join_list` and `canonical.object_writer` join members already
encoded, and a governed step builds its three chained documents with them
from each directive's bytes (`interpreter._step_documents`). For drawn
directives, records and effect entries, in the shapes governance writes
and in shapes it does not, the spliced bytes must be `canonical_bytes` of
the whole value, and a value with no canonical form must fail the same way.
"""

import copy
import importlib.util
import json
import math
from collections import OrderedDict

import pytest
from hypothesis import given
from hypothesis import strategies as st

from puregate import canonical
from puregate.canonical import (
    CanonicalError,
    canonical_bytes,
    join_list,
    object_writer,
)
from puregate.interpreter import STAGES, _step_documents
from puregate.runtime_host import DIRECTIVE_KINDS, Directive, ExecutorOutput

# text() draws no surrogates; the sampled names add non-ASCII and '%'
names = st.text(max_size=8) | st.sampled_from(["allow_all", "é%s", "日本", "%%"])
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.floats(allow_nan=False, allow_infinity=False)
    | names,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(names, children, max_size=4),
    max_leaves=12,
)
directives = st.builds(
    Directive, kind=st.sampled_from(sorted(DIRECTIVE_KINDS)), payload=json_values
)


class Text(str):
    pass


class Count(int):
    pass


# values equal to a bool, None or a str that encode otherwise, or not at all;
# subclasses, which marshal refuses, and a tuple, which encodes as a list
strangers = st.sampled_from(
    [1, 0, 1.0, -0.0, [], {}, ["x"], "true"]
    + [Text("allow_all"), Count(1), OrderedDict(a=None), ("x",)]
)


@st.composite
def records(draw, directive):
    """A record as interpret_directive writes it, or one a check has changed."""
    entries = draw(
        st.lists(
            st.fixed_dictionaries(
                {
                    "stage": st.sampled_from(STAGES),
                    "check": st.none() | names,
                    "passed": st.booleans(),
                }
            ),
            max_size=8,
        )
    )
    record = {
        "directive": directive.to_json(),
        "stages": entries,
        "outcome": draw(st.sampled_from(["governed", "denied"])),
        "effect_performed": draw(st.booleans()),
        "guardrail_violations": draw(st.lists(names, max_size=3)),
    }
    if draw(st.booleans()):
        record["denied_stage"] = draw(st.sampled_from(STAGES))
        record["denied_check"] = draw(names)
    change = draw(st.sampled_from(["none"] * 4 + ["leaf", "stage", "key", "directive"]))
    if change == "leaf":
        record[draw(st.sampled_from(sorted(record)))] = draw(strangers)
    elif change == "stage" and entries:
        entry = draw(st.sampled_from(entries))
        field = draw(st.sampled_from(["stage", "check", "passed", "note"]))
        entry[field] = draw(strangers)
    elif change == "key":
        record[draw(names)] = draw(json_values)
    elif change == "directive":  # equal to the directive, but not its objects
        record["directive"] = json.loads(json.dumps(directive.to_json()))
    return record


@st.composite
def effects(draw, directive):
    entry = {"directive": directive.to_json(), "result": draw(json_values)}
    change = draw(st.sampled_from(["none"] * 3 + ["key", "directive"]))
    if change == "key":
        entry[draw(names)] = draw(json_values)
    elif change == "directive":
        entry["directive"] = {"kind": directive.kind, "payload": draw(json_values)}
    return entry


@st.composite
def steps(draw):
    planned = draw(st.lists(directives, max_size=5))
    step_records = [draw(records(d)) for d in planned]
    if planned and draw(st.booleans()):
        # a record drawn before, for its directive planned again, with its
        # effect flag as the equal float, which encodes otherwise
        place = draw(st.sampled_from(range(len(planned))))
        twin = copy.deepcopy(step_records[place])
        twin["directive"] = planned[place].to_json()
        if type(twin["effect_performed"]) is bool:
            twin["effect_performed"] = float(twin["effect_performed"])
        planned.append(planned[place])
        step_records.append(twin)
    # checks may add records, and sinks log what they like: pair any way
    step_records += draw(st.lists(json_values, max_size=1))
    places = st.sets(st.sampled_from(range(len(planned)))) if planned else st.just(set())
    performed = sorted(draw(places))
    step_effects = [draw(effects(planned[place])) for place in performed]
    if draw(st.booleans()):
        step_effects = draw(st.permutations(step_effects))
    output = ExecutorOutput(
        result=draw(json_values), directives=tuple(planned), log_lines=()
    )
    return output, step_records, step_effects, performed


def whole(output, step_records, step_effects):
    return (
        canonical_bytes([d.to_json() for d in output.directives]),
        canonical_bytes(step_records),
        canonical_bytes({"effects": step_effects, "result": output.result}),
    )


@given(steps())
def test_spliced_step_documents_are_the_whole_encodes(step):
    output, step_records, step_effects, performed = step
    spliced = _step_documents(output, step_records, step_effects, performed)
    assert spliced == whole(output, step_records, step_effects)
    # again, now that every frame drawn is kept
    assert _step_documents(output, step_records, step_effects, performed) == spliced


@given(st.dictionaries(names, json_values, max_size=6))
def test_object_writer_is_the_whole_encode(doc):
    keys = list(doc)
    write = object_writer(*keys)
    assert write(*[canonical_bytes(doc[k]) for k in keys]) == canonical_bytes(doc)


@given(st.lists(json_values, max_size=6))
def test_join_list_is_the_whole_encode(items):
    assert join_list(canonical_bytes(v) for v in items) == canonical_bytes(items)


def test_object_writer_refuses_keys_with_no_single_layout():
    for keys in (("a", "a"), ("a", 1)):
        with pytest.raises(CanonicalError):
            object_writer(*keys)


def _step(payload=None, result=None, check="allow", violation="v", extra=None):
    directive = Directive(kind="emit_event", payload=payload)
    record = {
        "directive": directive.to_json(),
        "stages": [
            {"stage": "execute", "check": None, "passed": True},
            {"stage": "guardrails", "check": check, "passed": False},
        ],
        "outcome": "governed",
        "effect_performed": True,
        "guardrail_violations": [violation],
        **(extra or {}),
    }
    entry = {"directive": directive.to_json(), "result": result}
    output = ExecutorOutput(result=None, directives=(directive,), log_lines=())
    return output, [record], [entry], [0]


@pytest.mark.parametrize(
    "bad",
    [
        {"payload": {"x": math.nan}},
        {"payload": ["\ud800"]},
        {"payload": {1, 2}},
        {"result": math.inf},
        {"result": {"k": object()}},
        {"check": "\udfff"},
        {"violation": "a\ud800"},
        {"extra": {1: "x"}},
    ],
    ids=["nan", "surrogate", "set", "infinite_result", "object_result",
         "surrogate_check", "surrogate_violation", "int_key"],
)
def test_no_canonical_form_fails_spliced_and_whole(bad):
    output, step_records, step_effects, performed = _step(**bad)
    with pytest.raises(CanonicalError):
        _step_documents(output, step_records, step_effects, performed)
    with pytest.raises(CanonicalError):
        whole(output, step_records, step_effects)


def test_without_the_c_encoder_the_bytes_and_errors_are_the_same(monkeypatch):
    """A Python with no _json accelerator encodes through JSONEncoder.encode."""
    monkeypatch.setattr("json.encoder.c_make_encoder", None)
    spec = importlib.util.spec_from_file_location("canonical_pure", canonical.__file__)
    pure = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pure)
    assert pure._encode == pure._ENCODER.encode
    for value in ({"b": [1, 2.5, None], "a": "é"}, "text", [True, {"k": {}}]):
        assert pure.canonical_bytes(value) == canonical_bytes(value)
    cyclic: list = []
    cyclic.append(cyclic)
    for value in (math.nan, {"x": "\ud800"}, {1, 2}, cyclic):
        with pytest.raises(pure.CanonicalError):
            pure.canonical_bytes(value)
