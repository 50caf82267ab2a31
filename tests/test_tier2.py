"""Tier 2 (generated Python functions) against tier 1 (the block interpreter).

The two tiers must agree on every outcome: result or error class and
message, fuel left, memory and the host calls made, at every budget.
"""

import ast
import functools
import importlib.util
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puregate import runtime_host, wasmvm
from puregate.fixtures import PURE_V1, fixture_binary
from puregate.memo import BoundedMemo
from puregate.gate import GateCache, gate_verify, invalidate_cache
from puregate.interpreter import (
    RuntimeServices,
    TierPolicy,
    WasmExecutor,
    default_governance,
    run_machine,
)
from puregate.provenance import save_run_record
from puregate.runtime_host import (
    ExecutorInput,
    ResourceLimits,
    _HostState,
    build_host_functions,
    determinism_check,
    instantiate_and_plan,
)
from puregate.watasm import assemble
from puregate.wasmvm import (
    FuelExhausted,
    HostFunc,
    Trap,
    VMError,
    compile_tier2,
    instantiate,
    parse_module,
    resolve_imports,
)
from puregate.whitelist import builtin_whitelist

INPUT = ExecutorInput(step_config={"target": "child"}, context={"k": 1})
MIB = 1024 * 1024
U32 = 0xFFFFFFFF

# ---------------------------------------------------------------------------
# random structured programs
# ---------------------------------------------------------------------------

BINARY_OPS = [
    "i32.eq", "i32.ne", "i32.lt_s", "i32.lt_u", "i32.gt_s", "i32.gt_u",
    "i32.le_s", "i32.le_u", "i32.ge_s", "i32.ge_u", "i32.add", "i32.sub",
    "i32.mul", "i32.div_s", "i32.div_u", "i32.rem_s", "i32.rem_u", "i32.and",
    "i32.or", "i32.xor", "i32.shl", "i32.shr_s", "i32.shr_u", "i32.rotl",
    "i32.rotr",
]
LOADS = [("i32.load", 4), ("i32.load8_s", 1), ("i32.load8_u", 1),
         ("i32.load16_s", 2), ("i32.load16_u", 2)]
STORES = [("i32.store", 4), ("i32.store8", 1), ("i32.store16", 2)]
CONSTANTS = [0, 1, 2, 3, 7, 31, 32, 255, 0x7FFFFFFF, 0x80000000, U32, 65535, 65536]
OFFSETS = [0, 0, 0, 0, 0, 0, 1, 3, 100, 65533, 65536]
GENERAL = 4  # general-purpose locals after the parameters
LOOP_LEVELS = 2  # one counter local per loop nesting level


class ProgramGenerator:
    """A random module: a few helper functions and an exported f.

    Every program validates: expressions leave one i32, statements none,
    and a branch, return or unreachable only ends a sequence.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng

    def module(self) -> str:
        helpers = [self.function(i, n_params=1 + i) for i in range(2)]
        main = self.function(None, n_params=0)
        return (
            "(module\n"
            '  (import "host" "emit" (func $emit (param i32 i32)))\n'
            '  (import "host" "mix" (func $mix (param i32) (result i32)))\n'
            "  (memory 1 2)\n"
            '  (data (i32.const 0) "\\01\\02\\03\\04\\80\\ff\\7f\\00tier")\n'
            + "".join(helpers) + main + ")\n"
        )

    def function(self, index, n_params):
        self.n_params = n_params
        self.labels = [1]  # the function's own label yields one value
        self.loop_level = 0
        self.budget = self.rng.randint(10, 50)  # bounds the program's size
        body = self.sequence(depth=0) + self.expr(depth=0)
        params = " (param i32)" * n_params
        name = f"$g{index}" if index is not None else '$f (export "f")'
        locals_decl = " (local i32)" * (GENERAL + LOOP_LEVELS)
        return f"  (func {name}{params} (result i32){locals_decl}\n    {' '.join(body)})\n"

    def local(self):
        return self.rng.randrange(self.n_params + GENERAL)

    def counter(self, level):
        return self.n_params + GENERAL + level

    def sequence(self, depth):
        out = []
        for _ in range(self.rng.randint(0, 3)):
            stmt, ends = self.stmt(depth)
            out += stmt
            if ends:
                break
        return out

    def expr(self, depth):
        rng = self.rng
        self.budget -= 1
        if depth > 3 or self.budget <= 0:
            kind = rng.choice(["const", "get"])
        else:
            kind = rng.choice([
                "const", "get", "binary", "binary", "eqz", "load", "call",
                "mix", "select", "size", "grow", "tee", "block", "if",
                "br_if_value", "br_value",
            ])
        if kind == "const":
            value = rng.choice(CONSTANTS + [rng.randrange(1 << 32)])
            return [f"i32.const {value - (1 << 32) if value & 0x80000000 else value}"]
        if kind == "get":
            return [f"local.get {self.local()}"]
        if kind == "binary":
            return self.expr(depth + 1) + self.expr(depth + 1) + [rng.choice(BINARY_OPS)]
        if kind == "eqz":
            return self.expr(depth + 1) + ["i32.eqz"]
        if kind == "load":
            op, _ = rng.choice(LOADS)
            return self.address(depth) + [f"{op} offset={rng.choice(OFFSETS)}"]
        if kind == "call":
            callee = rng.randrange(2)
            args = [x for _ in range(1 + callee) for x in self.expr(depth + 1)]
            return args + [f"call $g{callee}"]
        if kind == "mix":
            return self.expr(depth + 1) + ["call $mix"]
        if kind == "select":
            return (self.expr(depth + 1) + self.expr(depth + 1)
                    + self.expr(depth + 1) + ["select"])
        if kind == "size":
            return ["memory.size"]
        if kind == "grow":
            return [f"i32.const {rng.choice([0, 1, 1, 2])}", "memory.grow"]
        if kind == "tee":
            return self.expr(depth + 1) + [f"local.tee {self.local()}"]
        if kind == "block":
            self.labels.append(1)
            body = self.sequence(depth + 1) + self.expr(depth + 1)
            self.labels.pop()
            return ["block (result i32)"] + body + ["end"]
        if kind == "if":
            cond = self.expr(depth + 1)
            self.labels.append(1)
            then = self.sequence(depth + 1) + self.expr(depth + 1)
            other = self.sequence(depth + 1) + self.expr(depth + 1)
            self.labels.pop()
            return cond + ["if (result i32)"] + then + ["else"] + other + ["end"]
        # a branch carrying a value out of a result block
        self.labels.append(1)
        value = self.expr(depth + 1)
        if kind == "br_if_value":
            body = value + self.expr(depth + 1) + ["br_if 0", "i32.const 1", "i32.add"]
        else:
            body = self.sequence(depth + 1) + value + ["br 0"]
        self.labels.pop()
        return ["block (result i32)"] + body + ["end"]

    def address(self, depth):
        rng = self.rng
        pick = rng.randrange(8)
        if pick < 3:
            return [f"i32.const {rng.randrange(64)}"]
        if pick == 3:
            return [f"i32.const {rng.choice([65530, 65532, 65535, 131068, 131072])}"]
        if pick < 7:
            return self.expr(depth + 1) + ["i32.const 255", "i32.and"]
        return self.expr(depth + 1)

    def stmt(self, depth):
        """(instructions, whether they end the sequence)."""
        rng = self.rng
        self.budget -= 1
        if depth > 3 or self.budget <= 0:
            return self.expr(depth + 1) + [f"local.set {self.local()}"], False
        kind = rng.choice([
            "set", "set", "store", "drop", "emit", "block", "loop", "if",
            "br_if", "br", "return", "unreachable",
        ])
        if kind == "set":
            return self.expr(depth + 1) + [f"local.set {self.local()}"], False
        if kind == "store":
            op, _ = rng.choice(STORES)
            return (self.address(depth) + self.expr(depth + 1)
                    + [f"{op} offset={rng.choice(OFFSETS)}"]), False
        if kind == "drop":
            return self.expr(depth + 1) + ["drop"], False
        if kind == "emit":
            return self.expr(depth + 1) + self.expr(depth + 1) + ["call $emit"], False
        if kind == "block":
            self.labels.append(0)
            body = self.sequence(depth + 1)
            self.labels.pop()
            return ["block"] + body + ["end"], False
        if kind == "loop" and self.loop_level < LOOP_LEVELS:
            counter = self.counter(self.loop_level)
            self.loop_level += 1
            self.labels += [0, 0]  # the block, then the loop
            body = self.sequence(depth + 1)
            self.labels[-2:] = []
            self.loop_level -= 1
            trips = rng.randint(0, 8)
            return [
                "i32.const 0", f"local.set {counter}", "block", "loop",
                f"local.get {counter}", f"i32.const {trips}", "i32.ge_u", "br_if 1",
                *body,
                f"local.get {counter}", "i32.const 1", "i32.add",
                f"local.set {counter}", "br 0", "end", "end",
            ], False
        if kind == "if":
            cond = self.expr(depth + 1)
            self.labels.append(0)
            then = self.sequence(depth + 1)
            other = self.sequence(depth + 1)
            self.labels.pop()
            return cond + ["if"] + then + ["else"] + other + ["end"], False
        if kind in ("br_if", "br"):
            # only labels that yield nothing, so no value is needed
            targets = [d for d, arity in enumerate(reversed(self.labels)) if arity == 0]
            if not targets:
                return self.expr(depth + 1) + ["drop"], False
            label = rng.choice(targets)
            if kind == "br_if":
                return self.expr(depth + 1) + [f"br_if {label}"], False
            return [f"br {label}"], True
        if kind == "return" and rng.random() < 0.5:
            return self.expr(depth + 1) + ["return"], True
        if kind == "unreachable" and rng.random() < 0.1:
            return ["unreachable"], True
        return self.expr(depth + 1) + ["drop"], False


def _hosts(record):
    def emit(inst, a, b):
        record.append(("emit", a, b, inst.fuel, inst.read_mem(a & 0xFFFF, b & 7)))

    def mix(inst, x):
        record.append(("mix", x, inst.fuel))
        if x % 31 == 5:
            raise Trap("host refused")
        if x % 37 == 3:
            return None  # a result type, but no value
        return (x * 2654435761 + 12345) & U32

    return {
        ("host", "emit"): HostFunc("(i32, i32) -> ()", emit),
        ("host", "mix"): HostFunc("(i32) -> i32", mix),
    }


def _outcome(module, tier2, budget):
    record = []
    instance = instantiate(module, resolve_imports(module, _hosts(record)), 2 * 65536, tier2)
    try:
        result = instance.invoke("f", [], budget, 60_000)
    except VMError as exc:
        result = (type(exc).__name__, str(exc))
    return result, instance.fuel, bytes(instance.memory), record


def _agree_at_every_budget(module, cap):
    tier2 = compile_tier2(module)
    full = _outcome(module, None, cap)
    assert _outcome(module, tier2, cap) == full
    used = cap - full[1] if full[1] >= 0 else cap
    for budget in range(used + 2):
        assert _outcome(module, tier2, budget) == _outcome(module, None, budget), budget


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_programs_agree_in_both_tiers_at_every_budget(seed):
    source = ProgramGenerator(random.Random(seed)).module()
    _agree_at_every_budget(parse_module(assemble(source)), cap=400)


def test_the_generator_reaches_every_outcome():
    # the differential above is only as strong as the programs it draws
    outcomes = set()
    for seed in range(150):
        module = parse_module(assemble(ProgramGenerator(random.Random(seed)).module()))
        result, left, _, record = _outcome(module, None, 400)
        outcomes.add(result[1] if isinstance(result, tuple) else "ok")
        outcomes.add("host call" if record else "no host call")
    messages = " | ".join(sorted(outcomes))
    for expected in [
        "ok", "instruction budget exhausted", "host call", "integer divide by zero",
        "memory read out of bounds", "memory write out of bounds",
        "unreachable executed", "host refused", "returned no value",
    ]:
        assert expected in messages, expected


# ---------------------------------------------------------------------------
# fixtures in both tiers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", [n for n in PURE_V1 if n != "bypass_memory_hog"])
def test_fixtures_agree_in_both_tiers_across_budgets(name):
    module = parse_module(fixture_binary(name))

    def outcome(tier2, budget):
        state = _HostState(input_bytes=INPUT.serialize())
        host = resolve_imports(module, build_host_functions(builtin_whitelist(1)))
        instance = instantiate(module, host, 64 * MIB, tier2, state)
        try:
            result = instance.invoke("plan", [], budget, 60_000)
        except VMError as exc:
            result = (type(exc).__name__, str(exc))
        return result, instance.fuel, bytes(instance.memory), state

    tier2 = compile_tier2(module)
    for budget in range(0, 2000, 7):
        one, two = outcome(None, budget), outcome(tier2, budget)
        assert one[:3] == two[:3], budget
        assert (one[3].output_docs, one[3].log_lines) == (
            two[3].output_docs, two[3].log_lines
        ), budget


@pytest.mark.parametrize("tier", [1, 2])
def test_fuel_binds_before_the_clock_under_default_limits(tier):
    limits = ResourceLimits()
    module = parse_module(fixture_binary("fuel_burn"))
    instance = instantiate(
        module, {}, limits.memory_max, compile_tier2(module) if tier == 2 else None
    )
    with pytest.raises(FuelExhausted):
        instance.invoke("plan", [], limits.fuel, limits.wall_clock_ms)
    assert instance.fuel == -1


def test_functions_return_at_most_one_value():
    # as block types do; a call's results would otherwise each need a name
    # in the generated source at every call site
    pair = "(func $pair (result i32 i32) i32.const 1 i32.const 2)"
    for source in [
        f"(module {pair})",
        f'(module {pair} (export "pair" (func $pair)))',
        '(module (import "host" "two" (func $two (result i32 i32)))'
        ' (func (export "f") (result i32) call $two drop))',
    ]:
        with pytest.raises(wasmvm.InstantiationError):
            parse_module(assemble(source))


def test_many_regions_are_dispatched_by_search():
    # 300 if/else statements ahead of a loop whose body branches: the loop's
    # inner entry is found by binary search, not after every earlier one
    ifs = " ".join(
        f"local.get 0 i32.const {i} i32.eq if i32.const {i} local.set 1 "
        "else local.get 2 i32.const 1 i32.add local.set 2 end"
        for i in range(300)
    )
    source = f"""
    (module
      (func (export "f") (param i32) (result i32) (local i32 i32 i32)
        {ifs}
        block loop
          local.get 3 i32.const 50 i32.ge_u br_if 1
          local.get 3 i32.const 1 i32.and
          if local.get 1 i32.const 1 i32.add local.set 1
          else local.get 2 i32.const 3 i32.add local.set 2 end
          local.get 3 i32.const 1 i32.add local.set 3
          br 0
        end end
        local.get 1 local.get 2 i32.add))
    """
    module = parse_module(assemble(source))
    code = module.codes[0]
    assert "if k < " in wasmvm._Translator(code, 0, module.func_types, 0).source()
    tier2 = compile_tier2(module)
    for budget in (10**6, 2000, 4000, 4200):
        outcomes = []
        for functions in (None, tier2):
            instance = instantiate(module, {}, 0, functions)
            try:
                outcomes.append((instance.invoke("f", [7], budget, 60_000), instance.fuel))
            except FuelExhausted:
                outcomes.append(("FuelExhausted", instance.fuel))
        assert outcomes[0] == outcomes[1], budget


def test_a_deep_stack_waits_in_slots_across_blocks():
    # more entries wait than the translator keeps as expressions, across
    # calls, branches that carry a value and a loop
    pushes = " ".join(
        f"local.get 0 i32.const {i} i32.add" if i % 3 else f"i32.const {i}"
        for i in range(40)
    )
    adds = " ".join(["i32.add"] * 39)
    source = f"""
    (module
      (import "host" "mix" (func $mix (param i32) (result i32)))
      (memory 1)
      (func $g (param i32) (result i32) local.get 0 i32.const 7 i32.mul)
      (func (export "f") (result i32) (local i32)
        i32.const 3 local.set 0
        {pushes}
        block (result i32)
          loop
            local.get 0 call $g drop
            local.get 0 i32.const 1 i32.sub local.tee 0
            br_if 0
          end
          local.get 0 call $mix
          local.get 0
          br_if 0
          drop
          i32.const 11
        end
        {adds}
        i32.add))
    """
    module = parse_module(assemble(source))
    _agree_at_every_budget(module, cap=400)
    assert "s39 = " in wasmvm._Translator(module.codes[1], 2, module.func_types, 1).source()


def test_the_deadline_holds_across_calls():
    # a call resets tier 2's next 4096 mark from the callee's fuel
    source = """
    (module
      (func $g (result i32) i32.const 1)
      (func (export "f")
        loop
          call $g
          br_if 0
        end))
    """
    module = parse_module(assemble(source))
    for tier2 in (None, compile_tier2(module)):
        instance = instantiate(module, {}, 0, tier2)
        with pytest.raises(wasmvm.Timeout):
            instance.invoke("f", [], 10**8, 20)


def test_a_callee_handed_to_tier_1_returns_its_value_to_a_tier_2_caller(monkeypatch):
    # g's chain (the br_if block and the block it skips) costs 17, but a
    # nonzero argument leaves it after 4: with budgets 10 to 18, f has 2
    # units spent and tier 2 cannot charge the chain, so tier 1 runs g to
    # its end
    source = """
    (module
      (func $g (param i32) (result i32)
        block (result i32)
          i32.const 7
          local.get 0
          br_if 0
          drop
          i32.const 1 i32.const 2 i32.add i32.const 3 i32.add
          i32.const 4 i32.add i32.const 5 i32.add drop
          i32.const 9
        end)
      (func (export "f") (result i32)
        i32.const 1
        call $g
        i32.const 100
        i32.add))
    """
    handed = []
    tier1 = wasmvm._TIER2_NAMES["_tier1"]
    monkeypatch.setitem(
        wasmvm._TIER2_NAMES, "_tier1", lambda *args: handed.append(args[2]) or tier1(*args)
    )
    module = parse_module(assemble(source))
    tier2 = compile_tier2(module)
    for budget in range(10, 30):
        handed.clear()
        outcomes = []
        for functions in (None, tier2):
            instance = instantiate(module, (), 0, functions)
            outcomes.append((instance.invoke("f", [], budget, 60_000), instance.fuel))
        assert outcomes[0] == outcomes[1] == ([107], budget - 10), budget
        assert handed == ([0] if budget < 19 else []), budget


def test_a_trap_in_a_chains_second_block_leaves_the_same_fuel_in_both_tiers():
    # one charge covers both blocks before the branch target; the division
    # traps as the 11th op, and the 6 ops after it are given back
    source = """
    (module
      (func (export "f") (result i32) (local i32)
        block
          i32.const 5
          local.set 0
          local.get 0
          i32.eqz
          br_if 0
          i32.const 100
          local.get 0
          i32.const 5
          i32.sub
          i32.div_u
          local.set 0
          i32.const 1
          local.get 0
          i32.add
          local.set 0
        end
        local.get 0))
    """
    module = parse_module(assemble(source))
    assert "fuel -= 17" in wasmvm._Translator(module.codes[0], 0, module.func_types, 0).source()
    expected = (("Trap", "integer divide by zero"), 1000 - 11)
    for tier2 in (None, compile_tier2(module)):
        assert _outcome(module, tier2, 1000)[:2] == expected
    _agree_at_every_budget(module, cap=1000)


# ---------------------------------------------------------------------------
# loops whose body is one region
# ---------------------------------------------------------------------------

# a loop closed by br_if at its end, with a load and a store in the body
SUM_LOOP = """
(module
  (memory 1)
  (func (export "f") (result i32) (local i32 i32)
    i32.const 40 local.set 0
    loop
      local.get 0 local.get 0 i32.store8
      local.get 1 local.get 0 i32.load8_u i32.add local.set 1
      local.get 0 i32.const 1 i32.sub local.tee 0
      br_if 0
    end
    local.get 1))
"""


def _regions(source):
    """The dispatch tests `if k == n:` of a generated function, by n."""
    return {
        node.test.comparators[0].value: node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and isinstance(node.test.ops[0], ast.Eq)
        and getattr(node.test.left, "id", None) == "k"
    }


def _assigns_k(node, value):
    return any(
        isinstance(n, ast.Assign)
        and [getattr(t, "id", None) for t in n.targets] == ["k"]
        and getattr(n.value, "value", None) == value
        for n in ast.walk(node)
    )


@pytest.mark.parametrize("binary", [
    fixture_binary("emit_call"), fixture_binary("fuel_burn"), assemble(SUM_LOOP)
], ids=["emit_call", "fuel_burn", "inline"])
def test_a_loop_of_one_region_runs_in_a_while_loop_of_its_own(binary):
    looping = 0
    for key in wasmvm._translation_keys(parse_module(binary)):
        translator = wasmvm._Translator(*key)
        regions = _regions(translator.source())
        for head, region in regions.items():
            inner = [node for node in ast.walk(region) if isinstance(node, ast.While)]
            if head in translator.self_loops:
                looping += 1
                assert len(region.body) == 1 and inner == [region.body[0]], head
                assert isinstance(inner[0].test, ast.Constant) and inner[0].test.value is True
                assert any(isinstance(node, ast.Continue) for node in ast.walk(region))
                assert not _assigns_k(region, head), head
            else:
                assert not inner, head
    assert looping == 1  # strlen, the fixture's own loop, the inline loop


def _self_loop_heads(module):
    return [wasmvm._Translator(*key).self_loops for key in wasmvm._translation_keys(module)]


def test_a_loop_that_calls_a_defined_function_agrees_in_both_tiers():
    # the call ends the loop's first block, and the block after it goes on
    # in the same region up to the back edge
    source = """
    (module
      (func $g (param i32) (result i32)
        local.get 0 i32.const 3 i32.mul i32.const 1 i32.add)
      (func (export "f") (result i32) (local i32 i32)
        i32.const 6 local.set 0
        loop
          local.get 1 local.get 0 call $g i32.add local.set 1
          local.get 0 i32.const 1 i32.sub local.tee 0
          br_if 0
        end
        local.get 1))
    """
    module = parse_module(assemble(source))
    assert _self_loop_heads(module) == [set(), {1}]
    _agree_at_every_budget(module, cap=400)


def test_a_loop_left_for_a_label_two_levels_out_agrees_in_both_tiers():
    source = """
    (module
      (func (export "f") (result i32) (local i32 i32)
        block
          block
            loop
              local.get 0 i32.const 1 i32.add local.set 0
              local.get 0 i32.const 7 i32.ge_u
              br_if 2
              local.get 0 i32.const 100 i32.eq
              br_if 1
              br 0
            end
          end
          i32.const 1000 local.set 1
        end
        local.get 0 local.get 1 i32.add))
    """
    module = parse_module(assemble(source))
    assert _self_loop_heads(module) == [{1}]
    assert _outcome(module, None, 400)[0] == [7]
    _agree_at_every_budget(module, cap=400)


def test_a_loop_of_two_regions_agrees_in_both_tiers():
    # the if/else splits the body: the back edge leaves from the region
    # after the else, so the loop is dispatched as before
    source = """
    (module
      (func (export "f") (result i32) (local i32 i32)
        i32.const 9 local.set 0
        loop
          local.get 0 i32.const 1 i32.and
          if
            local.get 1 i32.const 3 i32.add local.set 1
          else
            local.get 1 i32.const 5 i32.xor local.set 1
          end
          local.get 0 i32.const 1 i32.sub local.tee 0
          br_if 0
        end
        local.get 1))
    """
    module = parse_module(assemble(source))
    translator = wasmvm._Translator(module.codes[0], 0, module.func_types, 0)
    assert translator.loops == {1} and not translator.self_loops
    _agree_at_every_budget(module, cap=400)


@pytest.mark.parametrize("past", [0, 1], ids=["top", "past_the_top"])
def test_a_loop_that_grows_memory_reads_the_new_size_in_both_tiers(past):
    # each pass grows memory by a page (the second grow fails: the limit is
    # two pages), then stores and loads the last byte below the top; with
    # past, the last pass stores one byte beyond it and traps
    source = f"""
    (module
      (memory 1)
      (func (export "f") (result i32) (local i32 i32 i32)
        i32.const 4 local.set 0
        loop
          i32.const 1 memory.grow drop
          memory.size i32.const 65536 i32.mul i32.const 1 i32.sub
          local.get 0 i32.const 1 i32.eq i32.const {past} i32.and i32.add
          local.set 2
          local.get 2 local.get 0 i32.store8
          local.get 1 local.get 2 i32.load8_u i32.add local.set 1
          local.get 0 i32.const 1 i32.sub local.tee 0
          br_if 0
        end
        local.get 1))
    """
    module = parse_module(assemble(source))
    assert _self_loop_heads(module) == [{1}]
    expected = ("Trap", "memory write out of bounds at 131072") if past else [10]
    assert _outcome(module, None, 400)[0] == expected
    _agree_at_every_budget(module, cap=400)


def test_loops_of_one_region_found_by_search_agree_in_both_tiers():
    # more loops than the dispatch tests one by one, so each is found by
    # binary search, and its break falls into the search's later tests
    loops = " ".join(
        f"i32.const {i % 3 + 1} local.set 0 "
        f"loop local.get 1 i32.const {i} i32.add local.set 1 "
        "local.get 0 i32.const 1 i32.sub local.tee 0 br_if 0 end"
        for i in range(12)
    )
    module = parse_module(assemble(
        f'(module (func (export "f") (result i32) (local i32 i32) {loops} local.get 1))'
    ))
    translator = wasmvm._Translator(module.codes[0], 0, module.func_types, 0)
    assert "if k < " in translator.source()
    assert len(translator.self_loops) == 12 and not translator.first
    assert _outcome(module, None, 400)[0] == [sum(i * (i % 3 + 1) for i in range(12))]
    _agree_at_every_budget(module, cap=400)


def test_the_deadline_holds_in_a_loop_of_one_region():
    module = parse_module(assemble('(module (func (export "f") loop br 0 end))'))
    assert _self_loop_heads(module) == [{1}]
    instance = instantiate(module, {}, 0, compile_tier2(module))
    with pytest.raises(wasmvm.Timeout):
        instance.invoke("f", [], 10**8, 20)


# ---------------------------------------------------------------------------
# the generated source
# ---------------------------------------------------------------------------

HOSTILE = """
(module
  (import "mashin\\"); __import__('os')" "x'); exec('y" (func $i (param i32)))
  (memory 1)
  (data (i32.const 0) "\\"); import os; (\\"")
  (func $f (export "__import__('os').system('z')") (result i32)
    i32.const 7
    call $i
    i32.const 0
    i32.load
    i32.const 0
    i32.div_u))
"""
TEMPLATE_TEXT = {"unreachable executed", "integer divide by zero",
                 "integer overflow in division"}


def test_no_text_from_the_module_reaches_the_generated_source():
    for binary in [assemble(HOSTILE)] + [fixture_binary(n) for n in ("echo", "emit_call")]:
        module = parse_module(binary)
        n = len(module.imported_funcs)
        for i, code in enumerate(module.codes, n):
            source = wasmvm._Translator(code, i, module.func_types, n).source()
            tree = ast.parse(source)
            strings = {
                node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)
            }
            assert strings <= TEMPLATE_TEXT
            names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for name in names:
                assert re.fullmatch(r"[lst]\d+|f\d+|_[a-z0-9_]+|[a-z]+", name), name
            assert "import" not in source and "exec" not in source


def test_the_source_script_prints_each_function_of_a_fixture_or_binary(capsys, tmp_path):
    spec = importlib.util.spec_from_file_location(
        "tier2_source", Path(__file__).resolve().parents[1] / "scripts" / "tier2_source.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["emit_call"]) == 0
    printed = capsys.readouterr().out
    assert printed == "".join(
        f"# f{key[1]}\n{wasmvm._Translator(*key).source()}\n"
        for key in wasmvm._translation_keys(parse_module(fixture_binary("emit_call")))
    )
    assert "while True:\n                fuel -= 11" in printed  # strlen's own loop
    path = tmp_path / "emit_call.wasm"
    path.write_bytes(fixture_binary("emit_call"))
    assert script.main([str(path)]) == 0 and capsys.readouterr().out == printed
    assert script.main(["no_such_fixture"]) == 2
    assert "no fixture 'no_such_fixture'" in capsys.readouterr().err
    path.write_bytes(b"\0asm")
    assert script.main([str(path)]) == 1
    assert "malformed module" in capsys.readouterr().err


@pytest.fixture
def memo():
    """The process-wide translation memo, emptied: earlier tests have warmed
    it, and a cell whose bodies are all in it tiers up on its first plan."""
    wasmvm._TRANSLATIONS.clear()
    return wasmvm._TRANSLATIONS


def test_translation_is_memoised_and_each_cell_gets_its_own_functions(memo):
    module = parse_module(fixture_binary("emit_call"))
    assert not wasmvm._translated(memo, module)
    first = compile_tier2(module)
    assert (memo.misses, memo.hits) == (len(module.codes), 0)
    again_module = parse_module(fixture_binary("emit_call"))
    assert wasmvm._translated(memo, again_module)
    again = compile_tier2(again_module)
    assert (memo.misses, memo.hits) == (len(module.codes), len(module.codes))
    assert all(a is not b and a.__code__ is b.__code__ for a, b in zip(first, again))
    assert first[0].__globals__ is not again[0].__globals__


def _constant_modules(n):
    """n modules of one distinct body each: (func (result i32) i32.const k)."""
    return [
        parse_module(assemble(f'(module (func (export "f") (result i32) i32.const {k}))'))
        for k in range(n)
    ]


def _translate_into(memo, module):
    for key in wasmvm._translation_keys(module):
        wasmvm._translate(memo, key)


def test_the_memo_evicts_the_least_recently_used_translation(memo):
    assert memo.maxsize == 512
    small = BoundedMemo(2)
    a, b, c = _constant_modules(3)
    _translate_into(small, a)
    _translate_into(small, b)
    assert wasmvm._translated(small, a)  # asking leaves a the least recently used
    _translate_into(small, c)
    assert [wasmvm._translated(small, m) for m in (a, b, c)] == [False, True, True]
    _translate_into(small, b)  # using b makes c the least recently used
    _translate_into(small, a)
    assert [wasmvm._translated(small, m) for m in (a, b, c)] == [True, True, False]
    assert len(small) == 2 and (small.misses, small.hits) == (4, 1)


# ---------------------------------------------------------------------------
# tier-up through the gate's compile handle
# ---------------------------------------------------------------------------

@pytest.fixture
def gated(bundles, certifier_key, wl_v1):
    keys = frozenset([certifier_key.public_key])

    def gate(name, cache=None, wl=wl_v1, **kwargs):
        binary, proof, cert = bundles[name]
        decision = gate_verify(binary, cert, proof, wl, keys, cache=cache, **kwargs)
        assert decision.accepted, decision.reason
        return binary, decision

    return gate


def _plans_to_tier_up(binary, decision):
    module = decision.compiled.module()
    threshold = wasmvm.TIER_UP_FUEL_PER_OP * wasmvm.module_size(module)
    return -(-threshold // 1784)  # emit_call spends 1784 units a plan


def _tiers_up_by_fuel(binary, decision):
    instantiate_and_plan(binary, decision, INPUT)
    needed = _plans_to_tier_up(binary, decision)
    assert needed > 1  # a module planned once, as onboard does, never compiles
    for _ in range(needed - 1):
        assert decision.compiled.tier2() is None
        instantiate_and_plan(binary, decision, INPUT)
    tier2 = decision.compiled.tier2()
    assert tier2 is not None and decision.compiled.tier2() is tier2


def _heat(binary, decision):
    for _ in range(_plans_to_tier_up(binary, decision)):
        instantiate_and_plan(binary, decision, INPUT)
    assert decision.compiled.tier2() is not None
    return decision.compiled


def test_a_cell_tiers_up_once_its_fuel_repays_the_compile(gated, memo):
    _tiers_up_by_fuel(*gated("emit_call"))


def test_a_cell_with_one_body_untranslated_waits_for_the_fuel_rule(gated, memo):
    binary, decision = gated("emit_call")
    module = parse_module(binary)
    assert len(module.codes) == 2
    wasmvm._translate(memo, wasmvm._translation_keys(module)[0])
    _tiers_up_by_fuel(binary, decision)


def test_a_cell_built_again_for_a_hot_artifact_runs_tier_2_from_its_first_plan(
    gated, memo
):
    cache = GateCache()
    hot = _heat(*gated("emit_call", cache))
    old = hot.tier2()
    invalidate_cache(cache, "manual")
    for fresh_cache in (cache, GateCache()):
        binary, decision = gated("emit_call", fresh_cache)
        fresh = decision.compiled
        assert fresh is not hot and fresh.tier2() is None  # not parsed yet
        misses, hits = memo.misses, memo.hits
        instantiate_and_plan(binary, decision, INPUT)
        new = fresh.tier2()
        assert new is not None and fresh.tier2() is new
        # compiled from the memo alone
        assert (memo.misses, memo.hits) == (misses, hits + len(new))
        assert all(a is not b and a.__code__ is b.__code__ for a, b in zip(old, new))
        assert new[0].__globals__ is not old[0].__globals__


def test_the_memo_holds_at_most_its_bound_and_an_evicted_body_waits_again(
    gated, memo
):
    cache = GateCache()
    _heat(*gated("emit_call", cache))
    for module in _constant_modules(memo.maxsize + 8):
        compile_tier2(module)
        assert len(memo) <= memo.maxsize
    assert len(memo) == memo.maxsize
    invalidate_cache(cache, "manual")
    _tiers_up_by_fuel(*gated("emit_call", cache))


def test_determinism_check_straddling_tier_up_finds_no_divergence(gated, memo):
    binary, decision = gated("emit_call")
    instantiate_and_plan(binary, decision, INPUT)
    needed = _plans_to_tier_up(binary, decision)
    report = determinism_check(binary, decision, INPUT, n=2 * needed)
    assert decision.compiled.tier2() is not None
    assert report["divergences"] == 0


def test_tier2_code_is_dropped_with_the_compile_handle(gated, wl_v1, wl_v2):
    def tier_up(cache, **kwargs):
        binary, decision = gated("fuel_burn", cache, **kwargs)
        for _ in range(2):
            with pytest.raises(FuelExhausted):
                instantiate_and_plan(
                    binary, decision, INPUT, ResourceLimits(fuel=50_000), kwargs.get("wl")
                )
        assert decision.compiled.tier2() is not None
        return decision.compiled

    cache = GateCache()
    hot = tier_up(cache)
    assert gated("fuel_burn", cache)[1].compiled is hot
    invalidate_cache(cache, "manual")
    fresh = gated("fuel_burn", cache)[1].compiled
    assert fresh is not hot and fresh.tier2() is None

    cache = GateCache()
    hot = tier_up(cache)
    # the v1 certificate stays current under v2 when v1's hash is on record
    known = {wl_v1.version: wl_v1.content_hash}
    fresh = gated("fuel_burn", cache, wl=wl_v2, known_hashes=known)[1].compiled
    assert fresh is not hot and fresh.tier2() is None
    again = gated("fuel_burn", cache)[1].compiled
    assert again is not hot and again.tier2() is None


def test_a_machine_run_is_byte_identical_across_a_session_swap(
    bundles, certifier_key, wl_v1, memo, monkeypatch, tmp_path
):
    tiers, fuel, host_calls = [], [], []  # per plan, per plan, per call
    instantiate = runtime_host.instantiate
    implementation_for = runtime_host._implementation_for
    add_fuel = wasmvm.ModuleCell.add_fuel

    def seen_instantiate(module, host_table, memory_max, tier2=None, embedder=None):
        tiers.append(tier2 is not None)
        return instantiate(module, host_table, memory_max, tier2, embedder)

    def counted_implementation(name):
        fn = implementation_for(name)

        def call(*args):
            host_calls.append(name)
            return fn(*args)

        return call

    def seen_fuel(cell, used):
        fuel.append(used)
        add_fuel(cell, used)

    monkeypatch.setattr(runtime_host, "instantiate", seen_instantiate)
    monkeypatch.setattr(runtime_host, "_implementation_for", counted_implementation)
    # host functions are shared across the process: count through a cache
    # of this test's own, so none built by an earlier test is served
    monkeypatch.setattr(
        runtime_host, "_host_func", functools.lru_cache(runtime_host._host_func.__wrapped__)
    )
    monkeypatch.setattr(wasmvm.ModuleCell, "add_fuel", seen_fuel)

    names = ("emit_call", "emit_event", "emit_reason")
    registry = {}
    for name in names:
        binary, proof, cert = bundles[name]
        registry[name] = WasmExecutor(binary=binary, cert=cert, proof=proof)
    doc = {
        "machine": "swap",
        "input": {"n": 3},
        "steps": [
            {"executor_ref": name, "config": {"i": i}}
            for i, name in enumerate(names + names)
        ],
    }

    def services():
        return RuntimeServices(whitelist=wl_v1, trusted_keys=(certifier_key.public_key,))

    def run(session, label):
        for seen in (tiers, fuel, host_calls):
            seen.clear()
        record, _ = run_machine(doc, default_governance(), TierPolicy(), registry, session)
        save_run_record(record, tmp_path / label)
        observed = ((tmp_path / label).read_bytes(), list(fuel), list(host_calls))
        return observed, list(tiers)

    hot_session = services()
    cold, cold_tiers = run(hot_session, "cold")
    assert not any(cold_tiers)  # the memo was empty: every plan interpreted
    assert len(cold[1]) == len(doc["steps"]) and cold[2]
    for attempt in range(50):
        hot, hot_tiers = run(hot_session, f"hot{attempt}")
        if all(hot_tiers):
            break
    assert all(hot_tiers)
    fresh, fresh_tiers = run(services(), "fresh")
    assert all(fresh_tiers)  # a new session starts in tier 2
    assert fresh == hot == cold
