#!/usr/bin/env python3
"""Print the tier-2 source that wasmvm generates for each function of a module.

    PYTHONPATH=src python3 scripts/tier2_source.py NAME|PATH.wasm

NAME is a committed fixture (`src/puregate/fixtures_wat`); an argument
ending in `.wasm` is read as a binary. The module is parsed and validated
as the gate's compile handle parses it, and nothing runs. Each defined
function follows a line `# f<index>` naming its function index, in
code-section order. Exit 1 when the VM rejects the module, 2 on a usage
error or an unreadable file.
"""

import sys
from pathlib import Path

from puregate import wasmvm
from puregate.fixtures import fixture_binary, list_fixtures


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: tier2_source.py NAME|PATH.wasm", file=sys.stderr)
        return 2
    (target,) = argv
    if target.endswith(".wasm"):
        try:
            binary = Path(target).read_bytes()
        except OSError as exc:
            print(f"error: cannot read {target}: {exc}", file=sys.stderr)
            return 2
    elif target in list_fixtures():
        binary = fixture_binary(target)
    else:
        print(f"error: no fixture {target!r} (and not a .wasm path)", file=sys.stderr)
        return 2
    try:
        module = wasmvm.parse_module(binary)
    except wasmvm.InstantiationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for key in wasmvm._translation_keys(module):
        print(f"# f{key[1]:d}")
        print(wasmvm._Translator(*key).source())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
