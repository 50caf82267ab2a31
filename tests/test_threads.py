"""The process-wide memos and the compile handles they share, under threads.

Each check runs the same work in 4 threads at once, with the interpreter
switching threads as often as it can, and compares what every thread got
with what one thread gets alone. A race shows only some of the time, so a
pass is evidence, not proof.
"""

import sys
import threading

from puregate import wasmvm
from puregate.canonical import canonical_bytes
from puregate.certificate import sign_certificate
from puregate.fixtures import PURE_V1
from puregate.gate import DecisionLog, GateCache, gate_verify
from puregate.proof import build_proof
from puregate.runtime_host import (
    ExecutorInput,
    GateNotPassed,
    ResourceLimits,
    instantiate_and_plan,
)
from puregate.wasm_inspect import decode_header, parse_imports
from puregate.watasm import assemble, uleb
from tests.conftest import FIXED_NOW

THREADS = 4


def _in_threads(work):
    """[work() in each of THREADS threads started together], under a switch
    interval of 1 us; the first exception a thread raised is raised here."""
    barrier = threading.Barrier(THREADS)
    results, errors = [None] * THREADS, []

    def run(i):
        try:
            barrier.wait(timeout=30)
            results[i] = work()
        except BaseException as exc:  # handed to the test's thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]
    return results


def test_parse_imports_is_total_under_threads():
    # 300 distinct small binaries, far past the header memo's bound of 64:
    # a module of one custom section named by its index
    binaries = []
    for k in range(300):
        name = str(k).encode()
        payload = uleb(len(name)) + name
        binaries.append(b"\x00asm\x01\x00\x00\x00\x00" + uleb(len(payload)) + payload)
    expected = [decode_header(binary) for binary in binaries]

    def work():
        return [parse_imports(b).header for _ in range(3) for b in binaries]

    for headers in _in_threads(work):
        assert headers == expected * 3


def _emitter(k):
    """A plan that outputs {"result":k}."""
    doc = f'{{"result":{k}}}'
    text = doc.replace('"', '\\"')
    return assemble(f"""
    (module
      (import "mashin" "set_output" (func $set_output (param i32 i32)))
      (memory 1)
      (data (i32.const 1024) "{text}")
      (func (export "plan") (result i32)
        i32.const 1024 i32.const {len(doc)} call $set_output i32.const 0))
    """)


def test_gating_and_planning_in_threads_gives_the_single_thread_results(
    bundles, certifier_key, wl_v1
):
    # more artifacts than the handle memo (16) and the header memo (64) hold
    artifacts = [bundles[name] for name in PURE_V1]
    for k in range(70):
        binary = _emitter(k)
        proof = build_proof(parse_imports(binary), wl_v1)
        artifacts.append((binary, proof, sign_certificate(binary, proof, certifier_key, FIXED_NOW)))
    keys = frozenset([certifier_key.public_key])
    # fuel, not the clock, ends fuel_burn, however slowly a thread runs
    limits = ResourceLimits(fuel=20_000, wall_clock_ms=60_000)
    executor_input = ExecutorInput(step_config={"i": 1}, context={"k": 1})

    def work():
        cache, log = GateCache(), DecisionLog()
        seen = []
        for _ in range(2):
            for binary, proof, cert in artifacts:
                decision = gate_verify(binary, cert, proof, wl_v1, keys, cache=cache, log=log)
                try:
                    output = instantiate_and_plan(binary, decision, executor_input, limits)
                    outcome = canonical_bytes(output.to_json())
                except (wasmvm.VMError, GateNotPassed) as exc:
                    outcome = (type(exc).__name__, str(exc))
                seen.append((decision.to_json(), outcome))
        return seen

    alone = work()
    wasmvm._HANDLES.clear()
    for seen in _in_threads(work):
        assert seen == alone


def test_entry_memos_are_total_under_threads():
    # 300 modules of two shared and one own import each: past the record
    # memo's bound of 512, so threads evict what other threads look up
    def module(k):
        own = b"g%d" % k
        names = [
            b"\x06mashin\x0aset_output", b"\x03env\x01f", b"\x03env" + uleb(len(own)) + own
        ]
        types = b"\x01\x06\x01\x60\x02\x7f\x7f\x00"  # (i32, i32) -> ()
        body = uleb(len(names)) + b"".join(name + b"\x00\x00" for name in names)
        return b"\x00asm\x01\x00\x00\x00" + types + b"\x02" + uleb(len(body)) + body

    binaries = [module(k) for k in range(300)]
    expected = [decode_header(binary) for binary in binaries]

    def work():
        return [decode_header(b) for _ in range(2) for b in binaries]

    for headers in _in_threads(work):
        assert headers == expected * 2
