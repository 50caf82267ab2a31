import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puregate.fixtures import PURE_V1, fixture_binary
from puregate.runtime_host import (
    DEFAULT_MEMORY_MAX,
    ExecutorInput,
    _HostState,
    build_host_functions,
)
from puregate.watasm import AssembleError, assemble, sleb, uleb
from puregate.wasmvm import (
    FuelExhausted,
    HostFunc,
    INSTRUCTIONS,
    InstantiationError,
    MAX_CALL_DEPTH,
    MAX_LOCALS,
    MemoryExceeded,
    MissingExport,
    Timeout,
    Trap,
    VMError,
    compile_tier2,
    instantiate,
    parse_module,
    resolve_imports,
)
from puregate.whitelist import builtin_whitelist

MIB = 1024 * 1024
# tier 1 interprets basic blocks; tier 2 runs them as generated functions
TIERS = (1, 2)


def _instantiate(module, host_funcs, max_memory_bytes, tier=1, embedder=None):
    tier2 = compile_tier2(module) if tier == 2 else None
    host_table = resolve_imports(module, host_funcs)
    return instantiate(module, host_table, max_memory_bytes, tier2, embedder)


def over_tiers(names):
    """(name, tier) cases: each name in tier 1, then again in tier 2."""
    return [pytest.param(name, 1, id=name) for name in names] + [
        pytest.param(name, 2, id=f"{name}-tier2") for name in names
    ]


def _run(body: str, args=(), fuel=100_000, locals_decl="", result="(result i32)"):
    source = f"""
    (module
      (memory 1)
      (func $f (export "f") {result} {locals_decl}
        {body}))
    """
    instance = instantiate(parse_module(assemble(source)), {}, 64 * MIB)
    return instance.invoke("f", list(args), fuel, 1000)


def test_constants_and_arithmetic():
    assert _run("i32.const 2\n i32.const 3\n i32.add") == [5]
    assert _run("i32.const 10\n i32.const 3\n i32.rem_u") == [1]
    assert _run("i32.const -1\n i32.const 1\n i32.shr_u") == [0x7FFFFFFF]


def test_wraparound_is_modular():
    assert _run("i32.const 2147483647\n i32.const 1\n i32.add") == [0x80000000]


def test_i32_literals_above_2_31_wrap_to_their_s32_encoding():
    # the text format takes an i32 literal signed or unsigned; the binary
    # immediate is the signed value, which a spec decoder requires canonical
    assert _run("i32.const 0x9E3779B1") == [0x9E3779B1]
    source = '(module (memory 1) (data (i32.const {0}) "") (func (result i32) i32.const {0}))'
    for literal, value, encoded in (
        ("0x9E3779B1", 0x9E3779B1, sleb(-1640531535)),
        ("4294967295", 0xFFFFFFFF, b"\x7f"),
    ):
        binary = assemble(source.format(literal))
        assert binary.count(b"\x41" + encoded + b"\x0b") == 2  # code and data
        assert parse_module(binary).data == ((value, b""),)
    for literal in ("4294967296", "-2147483649"):
        with pytest.raises(AssembleError, match="out of range"):
            assemble(source.format(literal))


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
    instance = instantiate(parse_module(assemble(source)), {}, 64 * MIB)
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
    instance = instantiate(parse_module(assemble(source)), {}, 64 * MIB)
    assert instance.invoke("f", [], 1000, 1000) == [0xFFFFFFFF]


def test_declared_memory_beyond_host_limit_rejected():
    source = "(module (memory 2) (func $f (export \"f\") (result i32) i32.const 0))"
    with pytest.raises(MemoryExceeded):
        instantiate(parse_module(assemble(source)), {}, 65536)


def test_data_segment_out_of_bounds_rejected():
    source = '(module (memory 1) (data (i32.const 65530) "0123456789"))'
    with pytest.raises(InstantiationError):
        instantiate(parse_module(assemble(source)), {}, 64 * MIB)


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
    for tier in TIERS:
        instance = _instantiate(parse_module(assemble(source)), {}, 64 * MIB, tier)
        with pytest.raises(Timeout):
            instance.invoke("f", [], 10**12, 20)
        assert 0 < instance.fuel < 10**12, tier


def test_unreachable_traps():
    with pytest.raises(Trap):
        _run("unreachable")


def test_missing_export():
    source = "(module (memory 1) (func $g (export \"g\") (result i32) i32.const 1))"
    instance = instantiate(parse_module(assemble(source)), {}, 64 * MIB)
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
        _instantiate(parse_module(assemble(source)), {}, 64 * MIB)


def test_import_signature_mismatch_rejected():
    source = """
    (module
      (import "mashin" "cap" (func $m (result i32)))
      (memory 1)
      (func $f (export "f") (result i32) call $m))
    """
    host = {("mashin", "cap"): HostFunc("(i32) -> ()", lambda inst, x: None)}
    with pytest.raises(InstantiationError):
        _instantiate(parse_module(assemble(source)), host, 64 * MIB)


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
    instance = _instantiate(parse_module(assemble(source)), host, 64 * MIB)
    assert instance.invoke("f", [], 1000, 1000) == [42]


def test_invoking_an_exported_import_costs_its_host_unit():
    source = """
    (module
      (import "host" "inc" (func $inc (param i32) (result i32)))
      (export "f" (func $inc)))
    """
    host = {("host", "inc"): HostFunc("(i32) -> i32", lambda inst, x: x + 1)}
    instance = _instantiate(parse_module(assemble(source)), host, 0)
    assert instance.invoke("f", [41], 1, 1000) == [42]
    assert instance.fuel == 0
    with pytest.raises(FuelExhausted):
        instance.invoke("f", [41], 0, 1000)
    assert instance.fuel == -1


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
TYPE_I32 = b"\x01\x05\x01\x60\x00\x01\x7f"  # (type (func (result i32)))
# (type (func (param i64) (result f64)))
TYPE_I64_F64 = b"\x01\x06\x01\x60\x01\x7e\x01\x7c"


def _one_func(code, type_section=TYPE_VOID, memory=b""):
    """Module with one exported function "f": no locals, then code."""
    body = b"\x00" + code
    section = b"\x01" + uleb(len(body)) + body
    return (
        HEADER + type_section + FUNC_0 + memory + EXPORT_F0
        + b"\x0a" + uleb(len(section)) + section
    )


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
        # body: call 7, with one function
        HEADER + TYPE_VOID + FUNC_0 + EXPORT_F0 + b"\x0a\x06\x01\x04\x00\x10\x07\x0b",
        # body: local.get 5, with no params or locals
        HEADER + TYPE_VOID + FUNC_0 + EXPORT_F0 + b"\x0a\x06\x01\x04\x00\x20\x05\x0b",
        # body: br 1, with only the function label
        HEADER + TYPE_VOID + FUNC_0 + EXPORT_F0 + b"\x0a\x06\x01\x04\x00\x0c\x01\x0b",
        # body: block br 2 end, one label short
        HEADER + TYPE_VOID + FUNC_0 + EXPORT_F0
        + b"\x0a\x09\x01\x07\x00\x02\x40\x0c\x02\x0b\x0b",
        # body: i32.const 1 br_if 1, with only the function label
        HEADER + TYPE_VOID + FUNC_0 + EXPORT_F0
        + b"\x0a\x08\x01\x06\x00\x41\x01\x0d\x01\x0b",
        # block type 0x00: block 0x00 i32.const 5 end
        _one_func(b"\x02\x00\x41\x05\x0b\x0b", TYPE_I32),
        # i32.const 0 i32.load with alignment 2^9 > 4 bytes, drop
        _one_func(b"\x41\x00\x28\x09\x00\x1a\x0b", memory=MEMORY_1),
        # i32.add on an empty stack
        _one_func(b"\x6a\x0b"),
        # i32.const 0 if (result i32) i32.const 2 end: no else arm
        _one_func(b"\x41\x00\x04\x7f\x41\x02\x0b\x0b", TYPE_I32),
        # block (result i32) i32.const 1 i32.const 2 end: one value too many
        _one_func(b"\x02\x7f\x41\x01\x41\x02\x0b\x0b", TYPE_I32),
        # i32.const 5 end i32.const 6 end: bytes after the body's end
        _one_func(b"\x41\x05\x0b\x41\x06\x0b", TYPE_I32),
        # no memory: i32.const 1 memory.grow drop i32.const 8 i32.const 7
        # i32.store i32.const 8 i32.load
        _one_func(
            b"\x41\x01\x40\x00\x1a\x41\x08\x41\x07\x36\x02\x00"
            b"\x41\x08\x28\x02\x00\x0b",
            TYPE_I32,
        ),
        # (param i64) (result f64): local.get 0 i32.const 1 i32.add
        _one_func(b"\x20\x00\x41\x01\x6a\x0b", TYPE_I64_F64),
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
        "call_func_index_out_of_range",
        "local_index_out_of_range",
        "br_past_function_label",
        "br_past_block_labels",
        "br_if_past_function_label",
        "block_type_not_empty_or_value_type",
        "alignment_above_natural",
        "add_on_empty_stack",
        "if_with_result_without_else",
        "block_leaves_extra_value",
        "bytes_after_final_end",
        "memory_ops_without_memory",
        "i64_param_f64_result_function",
    ],
)
def test_structural_faults_are_instantiation_errors(binary):
    with pytest.raises(InstantiationError):
        module = parse_module(binary)
        instantiate(module, {}, 64 * MIB).invoke("f", [], 1000, 1000)


def _exports_module(exports: bytes) -> bytes:
    """Module with one function and the export section body given."""
    return HEADER + TYPE_VOID + FUNC_0 + b"\x07" + uleb(len(exports)) + exports + CODE_END


@pytest.mark.parametrize(
    "exports, message",
    [
        # (export "f" (func 0)) twice
        (b"\x02\x01f\x00\x00\x01f\x00\x00", "duplicate export name 'f'"),
        # "f" as function 0, then "g" as kind 0x09 index 5
        (b"\x02\x01f\x00\x00\x01g\x09\x05", "unknown export kind 0x09"),
        # "f" as function 0, then again as kind 0x09 index 5
        (b"\x02\x01f\x00\x00\x01f\x09\x05", "unknown export kind 0x09"),
    ],
    ids=["duplicate", "unknown_kind", "duplicate_of_unknown_kind"],
)
def test_export_names_are_distinct_and_kinds_known(exports, message):
    with pytest.raises(InstantiationError) as excinfo:
        parse_module(_exports_module(exports))
    assert str(excinfo.value) == message
    # kind 0x03, a global, is the last the spec defines
    module = parse_module(_exports_module(b"\x02\x01f\x00\x00\x01g\x03\x00"))
    assert dict(module.exports) == {"f": (0, 0), "g": (3, 0)}


INT_ADD = '(import "mashin" "int_add" (func $add (param i64 i64) (result i64)))'


@pytest.mark.parametrize(
    "source",
    [
        f'(module {INT_ADD} (func (export "f") i32.const 1 i32.const 2'
        " call $add drop))",
        f'(module {INT_ADD} (func (export "f") (param i64 i64) (result i64)'
        " i32.const 1))",
        '(module (func (export "f") (param f32)))',
        '(module (func (export "f") (result i64) i32.const 1))',
        *(
            f'(module (func (export "f") block (result {t}) i32.const 1 end drop))'
            for t in ("i64", "f32", "f64")
        ),
    ],
    ids=["call_to_i64_import", "shares_an_import_type", "f32_param", "i64_result",
         "i64_block", "f32_block", "f64_block"],
)
def test_code_is_i32_only(source):
    with pytest.raises(InstantiationError):
        parse_module(assemble(source))


def test_imports_may_declare_other_numeric_types():
    module = parse_module(
        assemble(f'(module {INT_ADD} (func (export "f") (result i32) i32.const 7))')
    )
    assert module.func_types[0] == (("i64", "i64"), ("i64",))
    host = {("mashin", "int_add"): HostFunc("(i64, i64) -> i64", lambda inst, a, b: 0)}
    assert _instantiate(module, host, 0).invoke("f", [], 100, 1000) == [7]


def test_branches_cut_the_stack_to_their_label():
    # br 1 keeps the top value and drops 2 and 1 above the outer block's
    # entry, but not the 100 beneath it
    body = """
        i32.const 100
        block (result i32)
          i32.const 1
          block
            i32.const 2
            i32.const 3
            br 1
          end
          unreachable
        end
        i32.add
    """
    assert _run(body) == [103]
    assert _run("i32.const 1\n i32.const 2\n return") == [2]
    loop = """
        i32.const 9
        loop
          local.get $n
          i32.const 1
          i32.add
          local.tee $n
          i32.const 3
          i32.lt_u
          br_if 0
        end
    """
    assert _run(loop, locals_decl="(local $n i32)") == [9]


def test_unreachable_code_follows_the_polymorphic_stack_rule():
    with pytest.raises(Trap, match="unreachable"):
        _run("unreachable\n i32.add")
    assert _run("block (result i32)\n i32.const 7\n br 0\n i32.add\n end") == [7]
    assert _run("i32.const 4\n return\n drop\n drop") == [4]
    for body in [
        "unreachable\n i32.const 1\n i32.const 2",
        "block\n br 0\n i32.const 1\n end\n i32.const 0",
    ]:
        with pytest.raises(InstantiationError):
            _run(body)


def test_decoder_rejects_every_opcode_outside_the_instruction_table():
    admitted = {opcode for opcode, _, _, _ in INSTRUCTIONS.values()}
    assert len(admitted) == len(INSTRUCTIONS)
    for opcode in sorted(set(range(256)) - admitted):
        code = b"\x0a\x06\x01\x04\x00" + bytes([opcode]) + b"\x00\x0b"
        binary = HEADER + TYPE_VOID + FUNC_0 + EXPORT_F0 + code
        with pytest.raises(InstantiationError, match="unsupported opcode"):
            instantiate(parse_module(binary), {}, 0)


def _locals_body(*runs):
    """One function body declaring (count, i32) local runs, then end."""
    body = uleb(len(runs)) + b"".join(uleb(n) + b"\x7f" for n in runs) + b"\x0b"
    code = b"\x01" + uleb(len(body)) + body
    return HEADER + TYPE_VOID + FUNC_0 + EXPORT_F0 + b"\x0a" + uleb(len(code)) + code


def test_declared_locals_are_bounded():
    # only instantiate: invoking a body with 2**31 locals would allocate them
    instantiate(parse_module(_locals_body(MAX_LOCALS)), {}, 64 * MIB)
    instantiate(parse_module(_locals_body(MAX_LOCALS - 1, 1)), {}, 64 * MIB)
    for runs in [(MAX_LOCALS + 1,), (MAX_LOCALS, 1), (2**31,), (2**31, 2**31)]:
        with pytest.raises(InstantiationError):
            instantiate(parse_module(_locals_body(*runs)), {}, 64 * MIB)


def test_call_depth_is_bounded_by_a_trap():
    source = """
    (module
      (func $f (export "f") (param $n i32) (result i32)
        local.get $n
        if (result i32)
          local.get $n
          i32.const 1
          i32.sub
          call $f
        else
          i32.const 7
        end))
    """
    for tier in TIERS:
        instance = _instantiate(parse_module(assemble(source)), {}, 0, tier)
        assert instance.invoke("f", [MAX_CALL_DEPTH - 1], 10**6, 10_000) == [7]
        with pytest.raises(Trap, match=f"call depth exceeds {MAX_CALL_DEPTH}"):
            instance.invoke("f", [MAX_CALL_DEPTH], 10**6, 10_000)
        deep = instance.fuel
        looping = '(module (func $f (export "f") call $f))'
        instance = _instantiate(parse_module(assemble(looping)), {}, 0, tier)
        with pytest.raises(Trap):
            instance.invoke("f", [], 10**6, 10_000)
        # the call at depth MAX_CALL_DEPTH traps on entry: every frame below
        # paid its six ops, or its one call, and no more
        assert (deep, instance.fuel) == (
            10**6 - 6 * MAX_CALL_DEPTH, 10**6 - MAX_CALL_DEPTH
        ), tier


# ---------------------------------------------------------------------------
# fuel goldens: the exact fuel each executor spends, so that no interpreter
# change can move the instruction at which FuelExhausted fires
# ---------------------------------------------------------------------------

GOLDEN_INPUT = ExecutorInput(step_config={"target": "child"}, context={"k": 1})
GOLDEN_BUDGET = 100_000

# executor -> (plan result or error class, fuel used from GOLDEN_BUDGET);
# None where no instruction ran. FuelExhausted is raised by the instruction
# that takes the budget below zero, so fuel_burn reads one past the budget.
FUEL_GOLDENS = {
    "emit_call": ([0], 1784),
    "emit_reason": ([0], 1927),
    "emit_poc": ([0], 6),
    "emit_event": ([0], 1583),
    "echo": ([0], 195),
    "memory_sentinel": ([0], 21),
    "no_output": ([0], 6),
    "trap": ("Trap", 1),
    "plan_error": ([42], 2),
    "fuel_burn": ("FuelExhausted", GOLDEN_BUDGET + 1),
    "no_plan": ("MissingExport", None),
    "bypass_memory_hog": ("MemoryExceeded", None),
}


def _plan_fuel(name, budget, tier=1):
    _, outcome, left, _ = _plan_host_calls(name, budget, tier)
    if left is None or outcome == "MissingExport":  # no instruction ran
        return outcome, None
    return outcome, budget - left


@pytest.mark.parametrize("name, tier", over_tiers(PURE_V1))
def test_fuel_golden(name, tier):
    assert _plan_fuel(name, GOLDEN_BUDGET, tier) == FUEL_GOLDENS[name]


@pytest.mark.parametrize(
    "name, tier",
    over_tiers(
        [n for n, (_, used) in FUEL_GOLDENS.items() if used not in (None, GOLDEN_BUDGET + 1)]
    ),
)
def test_exact_budget_passes_and_one_less_exhausts(name, tier):
    outcome, used = FUEL_GOLDENS[name]
    assert _plan_fuel(name, used, tier) == (outcome, used)
    assert _plan_fuel(name, used - 1, tier) == ("FuelExhausted", used)


# executor -> (host function, fuel used from GOLDEN_BUDGET on entering it)
# for every host call plan makes; entering a host function costs one unit
# on top of the call instruction
HOST_CALL_GOLDENS = {
    "emit_call": (("get_input_len", 2), ("log", 315), ("set_output", 1782)),
    "emit_reason": (("get_input_len", 2), ("log", 326), ("set_output", 1925)),
    "emit_poc": (("set_output", 4),),
    "emit_event": (("log", 290), ("set_output", 1581)),
    "echo": (("get_input_len", 2), ("get_input", 182), ("set_output", 193)),
    "memory_sentinel": (("set_output", 19),),
    "no_output": (("log", 4),),
    "trap": (),
    "plan_error": (),
    "fuel_burn": (),
    "no_plan": (),
    "bypass_memory_hog": (),
}


def _plan_host_calls(name, budget, tier=1):
    """(host calls with the fuel used on entry, outcome, fuel left, state)."""
    state = _HostState(input_bytes=GOLDEN_INPUT.serialize())
    host = build_host_functions(builtin_whitelist(1))
    try:
        module = parse_module(fixture_binary(name))
        instance = _instantiate(module, host, DEFAULT_MEMORY_MAX, tier, state)
    except VMError as exc:
        return (), type(exc).__name__, None, state
    calls = []

    def recording(imp, host_func):
        def fn(inst, *args):
            calls.append((imp.name, budget - inst.fuel))
            return host_func.fn(inst, *args)

        return HostFunc(host_func.signature, fn)

    instance.host_table = [
        recording(imp, h)
        for imp, h in zip(instance.module.imported_funcs, instance.host_table)
    ]
    try:
        outcome = instance.invoke("plan", [], budget, 60_000)
    except VMError as exc:
        outcome = type(exc).__name__
    return tuple(calls), outcome, instance.fuel, state


@pytest.mark.parametrize("name, tier", over_tiers(PURE_V1))
def test_host_call_golden(name, tier):
    assert _plan_host_calls(name, GOLDEN_BUDGET, tier)[0] == HOST_CALL_GOLDENS[name]


@pytest.mark.parametrize("name, tier", over_tiers(["emit_call", "echo"]))
def test_budget_sweep_reaches_exactly_the_host_calls_within_budget(name, tier):
    _, used = FUEL_GOLDENS[name]
    _, _, _, full = _plan_host_calls(name, used, tier)
    for budget in range(used):
        calls, outcome, left, state = _plan_host_calls(name, budget, tier)
        assert (outcome, left) == ("FuelExhausted", -1), budget
        reached = [
            call for call in HOST_CALL_GOLDENS[name] if call[1] <= budget
        ]
        assert list(calls) == reached, budget
        n_log = sum(1 for host, _ in reached if host == "log")
        n_out = sum(1 for host, _ in reached if host == "set_output")
        assert state.log_lines == full.log_lines[:n_log], budget
        assert state.output_docs == full.output_docs[:n_out], budget


# modules that trap with ops both before and after the trapping op in the
# same straight-line run of code; most trap on a later pass through a loop
MID_BLOCK_TRAPS = {
    "load_oob": """
    (module
      (memory 1)
      (func (export "f") (result i32) (local $i i32)
        loop
          local.get $i
          i32.const 1
          i32.add
          local.set $i
          i32.const 65528
          local.get $i
          i32.const 4
          i32.mul
          i32.add
          i32.load
          drop
          nop
          local.get $i
          i32.const 9
          i32.lt_u
          br_if 0
        end
        i32.const 0))
    """,
    "store8_oob": """
    (module
      (memory 1)
      (func (export "f") (result i32) (local $p i32)
        i32.const 65534
        local.set $p
        block
          loop
            local.get $p
            i32.const 7
            i32.store8
            local.get $p
            i32.const 1
            i32.add
            local.set $p
            br 0
          end
        end
        i32.const 1))
    """,
    "div_u_by_zero": """
    (module
      (func (export "f") (result i32) (local $d i32)
        i32.const 3
        local.set $d
        block
          loop
            local.get $d
            i32.const 1
            i32.sub
            local.set $d
            i32.const 100
            local.get $d
            i32.div_u
            drop
            local.get $d
            br_if 0
          end
        end
        i32.const 2))
    """,
    "unreachable": """
    (module
      (func (export "f") (result i32)
        i32.const 1
        i32.const 2
        i32.add
        drop
        unreachable
        i32.const 3
        drop
        i32.const 4))
    """,
    # the first call ends its run of code in a host call that succeeds; the
    # second enters a whitelisted import this host profile does not provide
    "trapping_host_call": """
    (module
      (import "mashin" "get_input_len" (func $len (result i32)))
      (import "mashin" "ctx_get_input" (func $unprovided (result i32)))
      (func (export "f") (result i32) (local $n i32)
        call $len
        local.set $n
        local.get $n
        i32.const 1
        i32.add
        drop
        call $unprovided
        local.set $n
        local.get $n))
    """,
    "trap_in_callee": """
    (module
      (import "mashin" "get_input_len" (func $len (result i32)))
      (memory 1)
      (func $g (param $x i32) (result i32)
        local.get $x
        i32.const 1
        i32.add
        i32.load8_u
        local.get $x
        i32.add)
      (func (export "f") (result i32)
        call $len
        i32.const 65530
        i32.add
        call $g
        i32.const 1
        i32.add))
    """,
}

# module -> (trap message, fuel used): the fuel of every op up to and
# including the trapping one, and none of the ops after it
MID_BLOCK_TRAP_GOLDENS = {
    "load_oob": ("memory read out of bounds: [65536, 65540)", 27),
    "store8_oob": ("memory write out of bounds at 65536", 23),
    "div_u_by_zero": ("integer divide by zero", 31),
    "unreachable": ("unreachable executed", 5),
    "trapping_host_call": (
        "host function ctx_get_input is not provided by this profile", 9
    ),
    "trap_in_callee": ("memory read out of bounds: [65541, 65542)", 9),
}


def _run_trapping(name, budget, tier=1):
    state = _HostState(input_bytes=b"0123456789")
    host = build_host_functions(builtin_whitelist(2))
    module = parse_module(assemble(MID_BLOCK_TRAPS[name]))
    instance = _instantiate(module, host, 64 * MIB, tier, state)
    with pytest.raises(VMError) as info:
        instance.invoke("f", [], budget, 60_000)
    return info.value, budget - instance.fuel, instance


@pytest.mark.parametrize("name, tier", over_tiers(sorted(MID_BLOCK_TRAPS)))
def test_mid_block_trap_golden(name, tier):
    message, used = MID_BLOCK_TRAP_GOLDENS[name]
    for budget in range(used + 3):
        exc, spent, instance = _run_trapping(name, budget, tier)
        if budget < used:
            assert (type(exc), spent, instance.fuel) == (
                FuelExhausted, budget + 1, -1
            ), budget
        else:
            assert (type(exc), str(exc), spent) == (Trap, message, used), budget
    if name == "store8_oob":  # the two in-bounds stores landed, nothing else
        assert instance.memory[65532:] == b"\x00\x00\x07\x07"


# ---------------------------------------------------------------------------
# operators against an independent reference
# ---------------------------------------------------------------------------

U32 = 0xFFFFFFFF
INT_MIN = 0x80000000
INT_MAX = 0x7FFFFFFF
EDGE_VALUES = [0, 1, U32, INT_MIN, INT_MAX, 31, 32, 33]


TRAP = object()


def _s32(x):
    return x - (1 << 32) if x & INT_MIN else x


def _ref_div_s(a, b):
    if b == 0 or (a == INT_MIN and b == U32):
        return TRAP
    q = abs(_s32(a)) // abs(_s32(b))
    return -q if (_s32(a) < 0) != (_s32(b) < 0) else q


def _ref_rem_s(a, b):
    if b == 0:
        return TRAP
    r = abs(_s32(a)) % abs(_s32(b))
    return -r if _s32(a) < 0 else r


def _ref_rotl(a, b):
    k = b % 32
    return (a << k) | (a >> (32 - k))


REFERENCE = {
    "i32.eq": lambda a, b: a == b,
    "i32.ne": lambda a, b: a != b,
    "i32.lt_s": lambda a, b: _s32(a) < _s32(b),
    "i32.lt_u": lambda a, b: a < b,
    "i32.gt_s": lambda a, b: _s32(a) > _s32(b),
    "i32.gt_u": lambda a, b: a > b,
    "i32.le_s": lambda a, b: _s32(a) <= _s32(b),
    "i32.le_u": lambda a, b: a <= b,
    "i32.ge_s": lambda a, b: _s32(a) >= _s32(b),
    "i32.ge_u": lambda a, b: a >= b,
    "i32.add": lambda a, b: a + b,
    "i32.sub": lambda a, b: a - b,
    "i32.mul": lambda a, b: a * b,
    "i32.div_s": _ref_div_s,
    "i32.div_u": lambda a, b: TRAP if b == 0 else a // b,
    "i32.rem_s": _ref_rem_s,
    "i32.rem_u": lambda a, b: TRAP if b == 0 else a % b,
    "i32.and": lambda a, b: a & b,
    "i32.or": lambda a, b: a | b,
    "i32.xor": lambda a, b: a ^ b,
    "i32.shl": lambda a, b: a << (b % 32),
    "i32.shr_s": lambda a, b: _s32(a) >> (b % 32),
    "i32.shr_u": lambda a, b: a >> (b % 32),
    "i32.rotl": _ref_rotl,
    "i32.rotr": lambda a, b: _ref_rotl(a, 32 - b % 32),
}
_OP_INSTANCES = {}


def _apply(op, *operands, tier=1):
    if (op, tier) not in _OP_INSTANCES:
        params = " ".join("(param i32)" for _ in operands)
        gets = "\n".join(f"local.get {i}" for i in range(len(operands)))
        source = f'(module (func (export "f") {params} (result i32) {gets}\n {op}))'
        _OP_INSTANCES[op, tier] = _instantiate(parse_module(assemble(source)), {}, 0, tier)
    return _OP_INSTANCES[op, tier].invoke("f", list(operands), 100, 1000)


def _check_binary(op, a, b, tier=1):
    expected = REFERENCE[op](a, b)
    if expected is TRAP:
        with pytest.raises(Trap):
            _apply(op, a, b, tier=tier)
    else:
        assert _apply(op, a, b, tier=tier) == [int(expected) & U32], (op, a, b)


def test_reference_covers_every_operator_in_the_table():
    operators = {
        name
        for name, (_, kind, _, _) in INSTRUCTIONS.items()
        if name.startswith("i32.") and kind == "none"
    }
    assert operators == set(REFERENCE) | {"i32.eqz"}
    assert len(REFERENCE) == 25


def test_eqz_against_reference():
    for tier in TIERS:
        for a in EDGE_VALUES:
            assert _apply("i32.eqz", a, tier=tier) == [int(a == 0)]


@pytest.mark.parametrize("op, tier", over_tiers(sorted(REFERENCE)))
def test_binary_operator_edges_against_reference(op, tier):
    for a in EDGE_VALUES:
        for b in EDGE_VALUES:
            _check_binary(op, a, b, tier)


@pytest.mark.parametrize("op, tier", over_tiers(sorted(REFERENCE)))
@given(a=st.integers(0, U32), b=st.integers(0, U32))
@settings(max_examples=60)
def test_binary_operator_against_reference(op, tier, a, b):
    _check_binary(op, a, b, tier)

