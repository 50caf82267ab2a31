"""Independent reference results for the benchmark's correctness checks.

Deliberately imports no puregate code: every expected value here comes from
the WAT source text, the standard library's json and hashlib, or a
restatement of a documented policy, so a defect in the program under test
cannot also hide in its reference.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Any
from urllib.parse import urlparse

GENESIS = bytes(32)

# the host allowlist of puregate.interpreter.default_governance()
DEFAULT_ALLOWED_HTTP_HOSTS = ("example.org",)

_DATA_AT = re.compile(r'\(data \(i32\.const (\d+)\) "((?:[^"\\]|\\.)*)"\)')
_ESCAPE = re.compile(r'\\([0-9a-fA-F]{2}|.)')
_NAMED_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "'": "'", "\\": "\\"}


def json_bytes(value: Any) -> bytes:
    """Canonical document bytes: sorted keys, no whitespace, UTF-8."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def wat_data_segment(source: str, offset: int) -> bytes:
    """Bytes of the active data segment placed at ``offset`` in WAT source."""
    for match in _DATA_AT.finditer(source):
        if int(match.group(1)) == offset:
            return _unescape(match.group(2))
    raise ValueError(f"no data segment at offset {offset}")


def _unescape(text: str) -> bytes:
    def one(match: re.Match[str]) -> str:
        token = match.group(1)
        if len(token) == 2:
            return chr(int(token, 16))
        return _NAMED_ESCAPES[token]

    return _ESCAPE.sub(one, text).encode("latin-1")


def emitter_document(source: str) -> dict[str, Any]:
    """The fixed output document an emitter hands to set_output."""
    return json.loads(wat_data_segment(source, 1024))


def input_document(step_config: Any, context: Any) -> dict[str, Any]:
    """The document an executor receives, as the host ABI defines it."""
    return {"context": context, "step_config": step_config}


def checksum(data: bytes) -> str:
    """What perfbench/wat/checksum.wat computes: one word every 64 bytes."""
    h = 0
    for i in range(0, len(data), 64):
        word = int.from_bytes(data[i : i + 4].ljust(4, b"\0"), "little")
        h = ((((h << 5) | (h >> 27)) & 0xFFFFFFFF) ^ word) * 0x9E3779B1
        h &= 0xFFFFFFFF
    return format(h, "08x")


def denied_by_default_governance(directive: dict[str, Any]) -> bool:
    """Whether default_governance's one deny rule stops this directive."""
    if directive["kind"] != "http_request":
        return False
    host = urlparse(str(directive["payload"].get("url", ""))).hostname
    return host not in DEFAULT_ALLOWED_HTTP_HOSTS


def chain_values(step_components: list[tuple[bytes, bytes, bytes, bytes]]) -> list[bytes]:
    """Execution hash of each step from its four component digests."""
    values = []
    previous = GENESIS
    for directive, governance, result, cert in step_components:
        previous = sha256(directive + governance + result + cert + previous)
        values.append(previous)
    return values


def run_value(
    machine_version: bytes, input_hash: bytes, final: bytes, output_hash: bytes
) -> bytes:
    return sha256(machine_version + input_hash + final + output_hash)


def cross_org_value(caller_run: bytes, attestation: bytes, callee_run: bytes) -> bytes:
    return sha256(caller_run + attestation + callee_run)
