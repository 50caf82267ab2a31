import pytest

from puregate.watasm import AssembleError, assemble
from puregate.wasmvm import (
    FuelExhausted,
    HostFunc,
    InstantiationError,
    MemoryExceeded,
    MissingExport,
    Timeout,
    Trap,
    instantiate,
)

MIB = 1024 * 1024


def _run(body: str, args=(), fuel=100_000, locals_decl="", result="(result i32)"):
    source = f"""
    (module
      (memory 1)
      (func $f (export "f") {result} {locals_decl}
        {body}))
    """
    instance = instantiate(assemble(source), {}, 64 * MIB)
    return instance.invoke("f", list(args), fuel, 1000)


def test_constants_and_arithmetic():
    assert _run("i32.const 2\n i32.const 3\n i32.add") == [5]
    assert _run("i32.const 10\n i32.const 3\n i32.rem_u") == [1]
    assert _run("i32.const -1\n i32.const 1\n i32.shr_u") == [0x7FFFFFFF]


def test_wraparound_is_modular():
    assert _run("i32.const 2147483647\n i32.const 1\n i32.add") == [0x80000000]


def test_division_by_zero_traps():
    with pytest.raises(Trap):
        _run("i32.const 1\n i32.const 0\n i32.div_u")


def test_signed_overflow_division_traps():
    with pytest.raises(Trap):
        _run("i32.const -2147483648\n i32.const -1\n i32.div_s")


def test_comparisons_and_select():
    assert _run("i32.const 3\n i32.const 5\n i32.lt_s") == [1]
    assert _run("i32.const 7\n i32.const 9\n i32.const 1\n select") == [7]
    assert _run("i32.const 7\n i32.const 9\n i32.const 0\n select") == [9]


def test_locals_params_and_branching():
    source = """
    (module
      (memory 1)
      (func $double_if_even (export "f") (param $x i32) (result i32)
        local.get $x
        i32.const 2
        i32.rem_u
        if (result i32)
          local.get $x
        else
          local.get $x
          i32.const 2
          i32.mul
        end))
    """
    instance = instantiate(assemble(source), {}, 64 * MIB)
    assert instance.invoke("f", [4], 1000, 1000) == [8]
    assert instance.invoke("f", [5], 1000, 1000) == [5]


def test_loop_with_break():
    body = """
        block
          loop
            local.get $n
            i32.const 10
            i32.ge_u
            br_if 1
            local.get $n
            i32.const 1
            i32.add
            local.set $n
            br 0
          end
        end
        local.get $n
    """
    assert _run(body, locals_decl="(local $n i32)") == [10]


def test_memory_store_load_round_trip():
    body = """
        i32.const 16
        i32.const 305419896
        i32.store
        i32.const 16
        i32.load
    """
    assert _run(body) == [305419896]


def test_out_of_bounds_access_traps():
    with pytest.raises(Trap):
        _run("i32.const 65536\n i32.load")


def test_memory_grow_and_size():
    body = """
        i32.const 2
        memory.grow
        drop
        memory.size
    """
    assert _run(body) == [3]


def test_memory_grow_refused_beyond_limit():
    source = """
    (module
      (memory 1 2)
      (func $f (export "f") (result i32)
        i32.const 5
        memory.grow))
    """
    instance = instantiate(assemble(source), {}, 64 * MIB)
    assert instance.invoke("f", [], 1000, 1000) == [0xFFFFFFFF]


def test_declared_memory_beyond_host_limit_rejected():
    source = "(module (memory 2) (func $f (export \"f\") (result i32) i32.const 0))"
    with pytest.raises(MemoryExceeded):
        instantiate(assemble(source), {}, 65536)


def test_data_segment_out_of_bounds_rejected():
    source = '(module (memory 1) (data (i32.const 65530) "0123456789"))'
    with pytest.raises(InstantiationError):
        instantiate(assemble(source), {}, 64 * MIB)


def test_fuel_exhaustion():
    with pytest.raises(FuelExhausted):
        _run("loop\n br 0\n end\n i32.const 0", fuel=10_000)


def test_wall_clock_timeout():
    source = """
    (module
      (memory 1)
      (func $f (export "f") (result i32)
        loop
          br 0
        end
        i32.const 0))
    """
    instance = instantiate(assemble(source), {}, 64 * MIB)
    with pytest.raises(Timeout):
        instance.invoke("f", [], 10**12, 20)


def test_unreachable_traps():
    with pytest.raises(Trap):
        _run("unreachable")


def test_missing_export():
    source = "(module (memory 1) (func $g (export \"g\") (result i32) i32.const 1))"
    instance = instantiate(assemble(source), {}, 64 * MIB)
    with pytest.raises(MissingExport):
        instance.invoke("f", [], 1000, 1000)


def test_unresolved_import_rejected():
    source = """
    (module
      (import "mashin" "mystery" (func $m (result i32)))
      (memory 1)
      (func $f (export "f") (result i32) call $m))
    """
    with pytest.raises(InstantiationError):
        instantiate(assemble(source), {}, 64 * MIB)


def test_import_signature_mismatch_rejected():
    source = """
    (module
      (import "mashin" "cap" (func $m (result i32)))
      (memory 1)
      (func $f (export "f") (result i32) call $m))
    """
    host = {("mashin", "cap"): HostFunc("(i32) -> ()", lambda inst, x: None)}
    with pytest.raises(InstantiationError):
        instantiate(assemble(source), host, 64 * MIB)


def test_host_function_call_and_memory_access():
    source = """
    (module
      (import "host" "peek" (func $peek (param i32) (result i32)))
      (memory 1)
      (data (i32.const 8) "\\2a")
      (func $f (export "f") (result i32)
        i32.const 8
        call $peek))
    """
    host = {
        ("host", "peek"): HostFunc(
            "(i32) -> i32", lambda inst, addr: inst.read_mem(addr, 1)[0]
        )
    }
    instance = instantiate(assemble(source), host, 64 * MIB)
    assert instance.invoke("f", [], 1000, 1000) == [42]


def test_folded_instructions_rejected():
    source = """
    (module
      (memory 1)
      (func $f (export "f") (result i32)
        (i32.add (i32.const 1) (i32.const 2))))
    """
    with pytest.raises(AssembleError):
        assemble(source)


def test_assembly_is_deterministic():
    source = '(module (memory 1) (data (i32.const 0) "abc") (func $f (export "f") (result i32) i32.const 7))'
    assert assemble(source) == assemble(source)


HEADER = b"\x00asm\x01\x00\x00\x00"
TYPE_VOID = b"\x01\x04\x01\x60\x00\x00"  # (type (func))
FUNC_0 = b"\x03\x02\x01\x00"  # one function of type 0
EXPORT_F0 = b"\x07\x05\x01\x01f\x00\x00"  # (export "f" (func 0))
CODE_END = b"\x0a\x04\x01\x02\x00\x0b"  # one body: no locals, end
MEMORY_1 = b"\x05\x03\x01\x00\x01"  # (memory 1)


@pytest.mark.parametrize(
    "binary",
    [
        # (type (func (param v128)))
        HEADER + b"\x01\x05\x01\x60\x01\x7b\x00",
        # (type (func (result externref)))
        HEADER + b"\x01\x05\x01\x60\x00\x01\x6f",
        # function section names type 5 of 1
        HEADER + TYPE_VOID + b"\x03\x02\x01\x05" + EXPORT_F0 + CODE_END,
        # (export "f" (func 3)) with one function
        HEADER + TYPE_VOID + FUNC_0 + b"\x07\x05\x01\x01f\x00\x03" + CODE_END,
        # one function declared, no code section
        HEADER + TYPE_VOID + FUNC_0 + EXPORT_F0,
        # a 10-byte body in a code section that holds 2
        HEADER + TYPE_VOID + FUNC_0 + EXPORT_F0 + b"\x0a\x04\x01\x0a\x00\x0b",
        # function section with a trailing 0xff
        HEADER + TYPE_VOID + b"\x03\x03\x01\x00\xff" + EXPORT_F0 + CODE_END,
        # (data (i32.const -2) "ABCD") in one page: offset 0xfffffffe as u32
        HEADER + MEMORY_1 + b"\x0b\x0a\x01\x00\x41\x7e\x0b\x04ABCD",
    ],
    ids=[
        "v128_param",
        "externref_result",
        "func_type_index_out_of_range",
        "export_func_index_out_of_range",
        "func_and_code_counts_differ",
        "truncated_code_section",
        "func_section_trailing_bytes",
        "negative_data_offset",
    ],
)
def test_structural_faults_are_instantiation_errors(binary):
    with pytest.raises(InstantiationError):
        instantiate(binary, {}, 64 * MIB).invoke("f", [], 1000, 1000)
