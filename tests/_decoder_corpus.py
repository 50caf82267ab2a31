"""A seeded corpus of mutated fixture binaries and the decoder's outcome on each.

Every case is a recipe over one fixture binary:
- {"cut": n}: the first n bytes;
- {"xor": [[offset, value], ...]}: bytes flipped in place;
- {"section": k, "size": hex}: section k's size field replaced by raw bytes
  (non-minimal, overlong or over-u32 LEB128 encodings);
- {"section": k, "at": i, "delete": d, "insert": hex}: section k's body
  edited at offset i, its size field re-encoded to fit.

The outcome of decode_header and of parse_module on each input is either the
decoded value or the exception class and message. The golden file holds the
recipes with the outcomes the decoder gave when it was frozen, so a change to
the decoder that alters any result or any error message fails the test. Each
distinct outcome is stored once, keyed by a short digest of its JSON, and a
case names its two outcomes by those keys.

Re-freeze (only when a change of outcome is intended):
    PYTHONPATH=src python3 tests/_decoder_corpus.py

List the cases whose outcome now differs from the golden, writing nothing
(exit status 1 when any does):
    PYTHONPATH=src python3 tests/_decoder_corpus.py --diff
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path
from typing import Any, Iterator

from puregate.fixtures import fixture_binary, list_fixtures
from puregate.wasm_inspect import decode_header
from puregate.wasmvm import parse_module

GOLDEN = Path(__file__).resolve().parent / "golden" / "decoder_corpus.json"
SEED = 8
TRUNCATED = ("emit_call", "v2_constructor")  # cut at every offset
FLIPS_PER_FIXTURE = 40
BODY_EDITS_PER_FIXTURE = 15
SLEB_EDITS_PER_FIXTURE = 3
OUTCOME_ID_HEX = 12  # hex digits of an outcome's digest that name it
# i32.const immediates: -1 and 63 in five bytes, -2**31, 2**31 - 1, a
# five-byte value with bits past 35, six bytes, and a value cut short
SLEB_VALUES = (
    "ffffffff7f", "bf80808000", "8080808078", "ffffffff07",
    "ffffffff4f", "808080808000", "ff",
)


def _uleb(value: int) -> bytes:
    out = bytearray()
    while True:
        b = value & 0x7F
        value >>= 7
        if value:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def _padded_uleb(value: int, width: int) -> bytes:
    """value in exactly width bytes: a non-minimal encoding when width is larger."""
    out = bytearray((value >> (7 * i)) & 0x7F | 0x80 for i in range(width))
    out[-1] &= 0x7F
    return bytes(out)


def _read_uleb(data: bytes, pos: int) -> tuple[int, int]:
    value = shift = 0
    while True:
        b = data[pos]
        pos += 1
        value |= (b & 0x7F) << shift
        shift += 7
        if not b & 0x80:
            return value, pos


def _sections(binary: bytes) -> list[tuple[int, bytes]]:
    """(id, body) of each section of a well-formed fixture."""
    pos, out = 8, []
    while pos < len(binary):
        section_id = binary[pos]
        size, pos = _read_uleb(binary, pos + 1)
        out.append((section_id, binary[pos : pos + size]))
        pos += size
    return out


def _edit(section_id: int, body: bytes, at: int, delete: int, insert: bytes) -> bytes:
    """body edited at offset at; in a code section the size field of the
    function body holding the edit is re-encoded too, so only the edited
    immediate changes."""
    if section_id == 10:
        count, pos = _read_uleb(body, 0)
        for _ in range(count):
            size, start = _read_uleb(body, pos)
            if start <= at and at + delete <= start + size:
                code = body[start:at] + insert + body[at + delete : start + size]
                return body[:pos] + _uleb(len(code)) + code + body[start + size :]
            pos = start + size
    return body[:at] + insert + body[at + delete :]


def _assemble(binary: bytes, sections: list[tuple[int, bytes, bytes]]) -> bytes:
    return binary[:8] + b"".join(bytes([i]) + size + body for i, size, body in sections)


def build(case: dict[str, Any]) -> bytes:
    """The input bytes a recipe describes."""
    binary = fixture_binary(case["fixture"])
    if "cut" in case:
        return binary[: case["cut"]]
    if "xor" in case:
        data = bytearray(binary)
        for offset, value in case["xor"]:
            data[offset] ^= value
        return bytes(data)
    sections = [(i, _uleb(len(body)), body) for i, body in _sections(binary)]
    k = case["section"]
    section_id, size, body = sections[k]
    if "size" in case:
        size = bytes.fromhex(case["size"])
    else:
        insert = bytes.fromhex(case["insert"])
        body = _edit(section_id, body, case["at"], case["delete"], insert)
        size = _uleb(len(body))
    sections[k] = (section_id, size, body)
    return _assemble(binary, sections)


def _plain(value: Any) -> Any:
    """A JSON rendering of a decoded value; functions are named, not addressed."""
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, bytes):
        return value.hex()
    if callable(value):
        return getattr(value, "__qualname__", repr(value))
    return value


def _digest(value: Any) -> str:
    return hashlib.sha256(json.dumps(_plain(value)).encode()).hexdigest()


def header_outcome(data: bytes) -> dict[str, Any]:
    try:
        header = decode_header(data)
    except Exception as exc:  # the golden pins the class, whatever it is
        return {"raises": type(exc).__name__, "message": str(exc)}
    return {
        "types": _plain(header.types),
        "imports": [
            [i.namespace, i.name, i.kind, i.type_signature] for i in header.imports
        ],
        "func_import_types": _plain(header.func_import_types),
        "sections": _plain(header.sections),
    }


def module_outcome(data: bytes) -> dict[str, Any]:
    try:
        module = parse_module(data)
    except Exception as exc:  # the golden pins the class, whatever it is
        return {"raises": type(exc).__name__, "message": str(exc)}
    return {
        "imported": [
            [i.namespace, i.name, i.type_signature] for i in module.imported_funcs
        ],
        "func_types": _plain(module.func_types),
        "memory": _plain(module.memory),
        "exports": {name: list(v) for name, v in module.exports.items()},
        "data": _digest(module.data),
        "codes": _digest([(c.locals_count, c.blocks) for c in module.codes]),
    }


def recipes() -> list[dict[str, Any]]:
    rng = random.Random(SEED)
    cases: list[dict[str, Any]] = []
    for name in TRUNCATED:
        cases += [{"fixture": name, "cut": n} for n in range(len(fixture_binary(name)))]
    for name in list_fixtures():
        binary = fixture_binary(name)
        for _ in range(FLIPS_PER_FIXTURE):
            flips = []
            for _ in range(rng.choice((1, 1, 2, 3))):
                # a set continuation bit is the commonest LEB128 corruption
                value = rng.choice((0x80, rng.randrange(1, 256)))
                flips.append([rng.randrange(8, len(binary)), value])
            cases.append({"fixture": name, "xor": flips})
        sections = _sections(binary)
        for k, (_, body) in enumerate(sections):
            n = len(body)
            for size in (
                _padded_uleb(n, 2),
                _padded_uleb(n, 5),
                _padded_uleb(n, 5)[:4] + b"\x1f",  # n + 2**32 and more
                _padded_uleb(n, 5)[:4] + b"\x80\x00",  # six bytes
                _padded_uleb(n, 4)[:3] + bytes([_padded_uleb(n, 4)[3] | 0x80]),
            ):
                cases.append({"fixture": name, "section": k, "size": size.hex()})
            if body and body[0] < 0x80:  # the vector count, re-encoded
                for width in (2, 5, 6):
                    cases.append(
                        {
                            "fixture": name,
                            "section": k,
                            "at": 0,
                            "delete": 1,
                            "insert": _padded_uleb(body[0], width).hex()
                            if width < 6
                            else (_padded_uleb(body[0], 5)[:4] + b"\x80\x00").hex(),
                        }
                    )
        consts = [
            (k, i + 1)
            for k, (section_id, body) in enumerate(sections)
            if section_id in (10, 11)
            for i in range(len(body) - 1)
            if body[i] == 0x41 and body[i + 1] < 0x80  # i32.const, one-byte value
        ]
        for k, i in rng.sample(consts, min(SLEB_EDITS_PER_FIXTURE, len(consts))):
            for insert in SLEB_VALUES:
                cases.append(
                    {"fixture": name, "section": k, "at": i, "delete": 1, "insert": insert}
                )
        edits = [(k, i) for k, (_, body) in enumerate(sections) for i in range(len(body))]
        for k, i in rng.sample(edits, min(BODY_EDITS_PER_FIXTURE, len(edits))):
            b = sections[k][1][i]
            insert = (
                bytes([b | 0x80, rng.choice((0x00, 0x7F))])  # a longer LEB128
                if b < 0x80
                else bytes([b & 0x7F])  # a LEB128 cut short
            )
            cases.append(
                {"fixture": name, "section": k, "at": i, "delete": 1, "insert": insert.hex()}
            )
    # drop a recipe drawn twice only now, so every draw above stays the same;
    # a repeated key keeps its first position
    return list({json.dumps(case, sort_keys=True): case for case in cases}.values())


def differences(golden: dict[str, Any]) -> Iterator[tuple[dict[str, Any], str, Any, Any]]:
    """(recipe, "header" or "module", golden outcome, current outcome) of
    each outcome that no longer matches the golden."""
    outcomes = golden["outcomes"]
    for case in golden["cases"]:
        data = build(case)
        recipe = {k: v for k, v in case.items() if k not in ("header", "module")}
        for key, outcome in (("header", header_outcome), ("module", module_outcome)):
            got = outcome(data)
            if got != outcomes[case[key]]:
                yield recipe, key, outcomes[case[key]], got


def diff() -> int:
    """Print each outcome that differs from the golden; 1 if any does."""
    found = 0
    for recipe, key, old, new in differences(json.loads(GOLDEN.read_text("utf-8"))):
        found += 1
        print(json.dumps({"recipe": recipe, "of": key, "old": old, "new": new}, sort_keys=True))
    print(f"{found} outcomes differ from {GOLDEN.name}", file=sys.stderr)
    return 1 if found else 0


def freeze() -> None:
    # each outcome is keyed by a digest of its own JSON, so a re-freeze that
    # adds or drops one outcome leaves every other key and line as it was
    outcomes: dict[str, dict[str, Any]] = {}

    def intern(outcome: dict[str, Any]) -> str:
        text = json.dumps(outcome, sort_keys=True)
        key = hashlib.sha256(text.encode()).hexdigest()[:OUTCOME_ID_HEX]
        if outcomes.setdefault(key, outcome) != outcome:
            raise SystemExit(f"outcome id {key} names two outcomes")
        return key

    lines = []
    for case in recipes():
        data = build(case)
        case = dict(case, header=intern(header_outcome(data)))
        case["module"] = intern(module_outcome(data))
        lines.append(json.dumps(case, sort_keys=True))
    fixtures = {
        name: hashlib.sha256(fixture_binary(name)).hexdigest() for name in list_fixtures()
    }
    text = (
        '{"fixtures": '
        + json.dumps(fixtures, sort_keys=True)
        + ',\n"outcomes": {\n'
        + ",\n".join(
            f"{json.dumps(key)}: {json.dumps(outcomes[key], sort_keys=True)}"
            for key in sorted(outcomes)
        )
        + '\n},\n"cases": [\n'
        + ",\n".join(lines)
        + "\n]}\n"
    )
    GOLDEN.write_text(text, encoding="utf-8")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--diff", action="store_true", help="compare with the golden instead of freezing"
    )
    if parser.parse_args().diff:
        sys.exit(diff())
    freeze()
