"""Tier 2 (generated Python functions) against tier 1 (the block interpreter).

The two tiers must agree on every outcome: result or error class and
message, fuel left, memory and the host calls made, at every budget.
"""

import ast
import contextlib
import importlib.util
import random
import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puregate import runtime_host, wasmvm
from puregate.fixtures import PURE_V1, fixture_binary
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
    HOST_PROFILE,
    ExecutorInput,
    ResourceLimits,
    _HostState,
    determinism_check,
    instantiate_and_plan,
)
from puregate.wasm_inspect import decode_header
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
    hosts = _hosts(record)
    instance = instantiate(
        module,
        resolve_imports(module, lambda imp: hosts.get((imp.namespace, imp.name))),
        2 * 65536,
        tier2,
    )
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
        host = resolve_imports(
            module, lambda imp: HOST_PROFILE.get((imp.namespace, imp.name))
        )
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
    for translator in _translators(parse_module(binary)):
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


def _translators(module):
    """A translator for each defined function of module, in code order."""
    n = len(module.imported_funcs)
    return [
        wasmvm._Translator(code, i, module.func_types, n)
        for i, code in enumerate(module.codes, n)
    ]


def _self_loop_heads(module):
    return [translator.self_loops for translator in _translators(module)]


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
    source = wasmvm._Translator(module.codes[0], 0, module.func_types, 0).source()
    assert "for i in range((fuel - mark) // 1):" in source  # batched: one deadline per mark
    instance = instantiate(module, {}, 0, compile_tier2(module))
    with pytest.raises(wasmvm.Timeout):
        instance.invoke("f", [], 10**8, 20)


@st.composite
def batched_loops(draw):
    """(WAT source, the loop's chain cost): a loop of one chain that scans,
    copies or checksums bytes for as many iterations as cross 1-3
    multiples of 4096 units, maybe trapping in a drawn iteration on a byte
    load or store past memory's end, or on a divide by zero."""
    shape = draw(st.sampled_from(["scan", "copy", "checksum"]))
    trap = draw(st.sampled_from(
        {"scan": [None, "load"], "copy": [None, "load", "store"],
         "checksum": [None, "load", "divide"]}[shape]
    ))
    offset = draw(st.sampled_from([0, 3]))
    load = f"{draw(st.sampled_from(['i32.load8_u', 'i32.load8_s']))} offset={offset}"
    if shape == "scan":  # up to the string's zero byte, as strlen
        body = ["local.get $p", "local.get $i", "i32.add", load, "i32.eqz", "br_if 1"]
    else:  # i from 0 up to n
        body = ["local.get $i", "i32.const {n}", "i32.ge_u", "br_if 1"]
        byte = ["local.get $i", "i32.const {src}", "i32.add", load]
        if shape == "copy":
            body += ["local.get $i", "i32.const {dst}", "i32.add", *byte,
                     f"i32.store8 offset={offset}"]
        else:
            body += ["local.get $h", "i32.const 5", "i32.rotl", *byte, "i32.xor",
                     "i32.const -1640531535", "i32.mul", "local.set $h"]
            if trap == "divide" or draw(st.booleans()):
                divide = draw(st.sampled_from(["i32.div_u", "i32.rem_u", "i32.div_s"]))
                body += ["local.get $h", "i32.const {zero}", "local.get $i", "i32.sub",
                         divide, "local.set $h"]
    body += ["local.get $i", "i32.const 1", "i32.add", "local.set $i", "br 0"]
    cost = len(body)  # one unit an op, the loop's own op being before its head
    marks = draw(st.integers(1, 3))
    n = draw(st.integers(-(-marks * 4096 // cost), (marks + 1) * 4096 // cost))
    at = draw(st.integers(0, n - 1))  # the iteration that traps, if one does
    top = 65536 - offset  # the first address whose byte access traps
    src = top - at if trap == "load" else 64
    dst = top - at if trap == "store" else 32768
    fill = draw(st.sampled_from(["a", "\\ff"])) * min(n, top - src)  # nonzero bytes
    text = " ".join(body).format(n=n, src=src, dst=dst, zero=at if trap == "divide" else n + 1)
    source = f"""
    (module
      (import "host" "emit" (func $emit (param i32 i32)))
      (import "host" "mix" (func $mix (param i32) (result i32)))
      (memory 1)
      (data (i32.const {src + offset}) "{fill}")
      (func (export "f") (result i32) (local $i i32) (local $h i32) (local $p i32)
        i32.const 7 call $mix local.set $h
        i32.const {src} local.set $p
        block loop {text} end end
        local.get $i local.get $h call $emit
        local.get $h local.get $i i32.add))
    """
    return source, cost


def _budgets_around_each_mark(module, cost, data, cap=10**6):
    """cap, and budgets that run out in the loop at every residue mod its
    cost; that enter it at and around multiples of 4096, so that the guard
    crosses a mark on its first test; and that finish, or just fail to."""
    translator = wasmvm._Translator(module.codes[0], 2, module.func_types, 2)
    assert f"for i in range((fuel - mark) // {cost:d}):" in translator.source()
    used = cap - _outcome(module, None, cap)[1]
    q = data.draw(st.integers(0, used // cost))
    budgets = [max(used - q * cost - r, 0) for r in range(1, cost + 1)]
    budgets += [4096 * m + d for m in range(1, used // 4096 + 1) for d in (-cost, -1, 0, 1, cost)]
    return budgets + [used - 1, used, used + data.draw(st.integers(1, 8191)), cap]


@settings(max_examples=40, deadline=None)
@given(loop=batched_loops(), data=st.data())
def test_batched_loops_agree_in_both_tiers_around_each_mark(loop, data):
    source, cost = loop
    module = parse_module(assemble(source))
    tier2 = compile_tier2(module)
    for budget in _budgets_around_each_mark(module, cost, data):
        assert _outcome(module, tier2, budget) == _outcome(module, None, budget), budget


@st.composite
def byte_scans(draw):
    """(WAT source, the loop's chain cost, its first block's cost, where,
    z): a strlen-shaped loop that the kernel runs, reading bytes from a,
    u32 local A plus local I (either order) or local I alone, at an
    offset. Where the zero byte is: at iteration 0 ("first"), at a drawn
    iteration z that the budget makes the last of a batch ("last") or the
    one whose charge crosses a mark ("crossing"), or nowhere before
    memory's end ("nowhere"); or a lies just below 2**32, so that a + n
    wraps and the per-iteration batch traps ("wrap")."""
    form = draw(st.sampled_from(["base_index", "index_base", "index"]))
    load = draw(st.sampled_from(["i32.load8_u", "i32.load8_s"]))
    offset = draw(st.sampled_from([0, 3, 40000]))
    where = draw(st.sampled_from(["first", "last", "crossing", "nowhere", "wrap"]))
    address = {"base_index": ["local.get $p", "local.get $i", "i32.add"],
               "index_base": ["local.get $i", "local.get $p", "i32.add"],
               "index": ["local.get $i"]}[form]
    test = address + [f"{load} offset={offset}", "i32.eqz", "br_if 1"]
    step = ["local.get $i", "i32.const 1", "i32.add", "local.set $i", "br 0"]
    cost = len(test) + len(step)
    z = 0 if where == "first" else draw(st.integers(1, 3 * 4096 // cost))
    if where == "wrap":
        a = 2**32 - draw(st.integers(1, 8))
    elif where == "nowhere":  # z nonzero bytes, then memory's end
        a = 65536 - offset - z
    else:
        a = draw(st.integers(16, 1024))
    i = a if form == "index" else draw(st.sampled_from([0, 5, 2**32 - 7]))
    fill = draw(st.sampled_from(["a", "\\ff"])) * (0 if where == "wrap" else z)
    source = f"""
    (module
      (import "host" "emit" (func $emit (param i32 i32)))
      (import "host" "mix" (func $mix (param i32) (result i32)))
      (memory 1)
      (data (i32.const {(a + offset) % 2**32 if fill else 0}) "{fill}")
      (func (export "f") (result i32) (local $i i32) (local $h i32) (local $p i32)
        i32.const {i} local.set $i
        i32.const {(a - i) % 2**32} local.set $p
        i32.const 7 call $mix local.set $h
        block loop {" ".join(test + step)} end end
        local.get $i local.get $h call $emit
        local.get $h local.get $i i32.add))
    """
    return source, cost, len(test), where, z


def _ticking(module, kernel=True):
    """compile_tier2(module), without the byte-scan kernel unless kernel,
    and the list its deadline checks append the fuel they see to."""
    ticks = []

    def tick(inst, fuel):
        ticks.append(fuel)
        return wasmvm._tick(inst, fuel)

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.dict(wasmvm._TIER2_NAMES, _tick=tick))
        if not kernel:
            stack.enter_context(mock.patch.object(wasmvm._Translator, "scan", return_value=None))
        return compile_tier2(module), ticks


@settings(max_examples=60, deadline=None)
@given(scan=byte_scans(), data=st.data())
def test_byte_scans_agree_in_both_tiers_around_each_mark(scan, data):
    # tier 1 gives the outcome, and tier 2 without the kernel, which runs
    # each iteration, the fuel at each deadline check as well
    source, cost, first, where, z = scan
    module = parse_module(assemble(source))
    assert "= mem.find(0, " in wasmvm._Translator(module.codes[0], 2, module.func_types, 2).source()
    cap = 10**6
    result, _, _, record = _outcome(module, None, cap)
    # the fuel at the loop's head: at mix's entry, less local.set, block
    # and loop; after the exit in iteration z, two local.gets and the call
    # of emit, with its entry, leave it 4 units lower
    head = record[0][2] - 3
    if where in ("wrap", "nowhere"):
        assert result[0] == "Trap"
    else:
        assert record[1][3] == head - cost * z - first - 4
    if where in ("last", "crossing"):
        # iteration z, or for "last" the one after it, enters with fuel
        # r units above a multiple of 4096, so its charge crosses it
        z_crossing = z + (where == "last")
        r = data.draw(st.integers(0, cost - 1))
        cap = cap - head + 4096 * (cost * z_crossing // 4096 + 2) + (cost * z_crossing + r) % 4096
    (kernel, ticks), (each, each_ticks) = _ticking(module), _ticking(module, kernel=False)
    for budget in _budgets_around_each_mark(module, cost, data, cap):
        ticks.clear()
        each_ticks.clear()
        outcome = _outcome(module, kernel, budget)
        assert outcome == _outcome(module, None, budget), budget
        assert (outcome, ticks) == (_outcome(module, each, budget), each_ticks), budget


@pytest.mark.parametrize("name", ["emit_call", "emit_reason", "emit_event", "v2_constructor"])
def test_each_shipped_strlen_runs_as_one_find_per_batch(name):
    module = parse_module(fixture_binary(name))
    sources = [translator.source() for translator in _translators(module)]
    assert sum("i = mem.find(0, a, a + n) - a\n" in source for source in sources) == 1
    # one-byte accesses only: nothing reads memory's length
    assert not any("size" in source for source in sources)


SCAN = "local.get $p local.get $i i32.add i32.load8_u i32.eqz br_if 1"
STEP = "local.get $i i32.const 1 i32.add local.set $i br 0"


@pytest.mark.parametrize("body,result", [
    (f"{SCAN} {STEP}", ""),
    (f"{SCAN} {STEP.replace('i32.const 1', 'i32.const 2')}", ""),
    (f"{SCAN} local.get $p i32.const 0 i32.store8 {STEP}", ""),
    (f"{SCAN} local.get $p i32.const 1 i32.add local.set $p {STEP}", ""),
    (f"{SCAN.replace('$p', '$i')} {STEP}", ""),
    (f"local.get $i {SCAN} drop {STEP}", "(result i32)"),
], ids=["scan", "stride_2", "store", "written_base", "index_as_base", "br_if_value"])
def test_only_a_byte_scan_runs_as_a_find(body, result):
    # each loop but the first is batched and runs each iteration; all agree
    # in both tiers up to a byte past the string's zero
    inner, tail = ("unreachable", "drop") if result else ("", "")
    source = f"""
    (module
      (memory 1)
      (data (i32.const 64) "abcdefghij")
      (func (export "f") (result i32) (local $i i32) (local $p i32)
        i32.const 64 local.set $p
        block {result} loop {body} end {inner} end {tail}
        local.get $i))
    """
    module = parse_module(assemble(source))
    translator = wasmvm._Translator(module.codes[0], 0, module.func_types, 0)
    batched = translator.source()
    assert "for i in range((fuel - mark) // " in batched
    assert ("mem.find(0, " in batched) == (body == f"{SCAN} {STEP}")
    _agree_at_every_budget(module, cap=400)


def test_a_byte_scan_entered_with_values_on_the_stack_runs_each_iteration():
    source = f"""
    (module
      (memory 1)
      (data (i32.const 64) "abc")
      (func (export "f") (result i32) (local $i i32) (local $p i32)
        i32.const 64 local.set $p
        i32.const 9 block loop {SCAN} {STEP} end end
        local.get $i i32.add))
    """
    module = parse_module(assemble(source))
    batched = wasmvm._Translator(module.codes[0], 0, module.func_types, 0).source()
    assert "for i in range((fuel - mark) // 11):" in batched and "mem.find" not in batched
    _agree_at_every_budget(module, cap=400)


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
        f"# f{translator.index}\n{translator.source()}\n"
        for translator in _translators(parse_module(fixture_binary("emit_call")))
    )
    # strlen's own loop, in batches of iterations that fuel above mark pays
    # for, each batch one find when its bytes are in memory
    assert (
        "while True:\n                if fuel - mark < 11:" in printed
        and "\n                    i = mem.find(0, a, a + n) - a\n" in printed
        and "for i in range((fuel - mark) // 11):" in printed
    )
    path = tmp_path / "emit_call.wasm"
    path.write_bytes(fixture_binary("emit_call"))
    assert script.main([str(path)]) == 0 and capsys.readouterr().out == printed
    assert script.main(["no_such_fixture"]) == 2
    assert "no fixture 'no_such_fixture'" in capsys.readouterr().err
    path.write_bytes(b"\0asm")
    assert script.main([str(path)]) == 1
    assert "malformed module" in capsys.readouterr().err


def test_each_compile_makes_functions_of_its_own():
    module = parse_module(fixture_binary("emit_call"))
    first, again = compile_tier2(module), compile_tier2(module)
    assert len(first) == len(again) == len(module.codes)
    assert all(a is not b and a.__code__ is not b.__code__ for a, b in zip(first, again))
    assert first[0].__globals__ is not again[0].__globals__


def _constant_binaries(n):
    """n binaries of one distinct body each: (func (result i32) i32.const k)."""
    return [
        assemble(f'(module (func (export "f") (result i32) i32.const {k}))')
        for k in range(n)
    ]


def _handle(binary):
    return wasmvm.compile_handle(binary, decode_header(binary))


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


def test_a_cell_tiers_up_once_its_fuel_repays_the_compile(gated):
    _tiers_up_by_fuel(*gated("emit_call"))


def _tiers(monkeypatch):
    """Per plan, whether it ran in tier 2; and the modules compile_tier2 was
    called on."""
    tiers, compiles = [], []
    instantiate = runtime_host.instantiate
    compile_ = wasmvm.compile_tier2

    def seen_instantiate(module, host_table, memory_max, tier2=None, embedder=None):
        tiers.append(tier2 is not None)
        return instantiate(module, host_table, memory_max, tier2, embedder)

    monkeypatch.setattr(runtime_host, "instantiate", seen_instantiate)
    monkeypatch.setattr(
        wasmvm, "compile_tier2", lambda module: compiles.append(module) or compile_(module)
    )
    return tiers, compiles


def test_a_fresh_session_plans_a_hot_artifact_in_tier_2_without_compiling(
    gated, monkeypatch
):
    cache = GateCache()
    hot = _heat(*gated("emit_call", cache))
    tier2 = hot.tier2()
    tiers, compiles = _tiers(monkeypatch)
    invalidate_cache(cache, "manual")
    for fresh_cache in (cache, GateCache()):
        binary, decision = gated("emit_call", fresh_cache)
        assert not decision.from_cache and decision.compiled is hot
        instantiate_and_plan(binary, decision, INPUT)
    assert tiers == [True, True] and compiles == []
    assert hot.tier2() is tier2


def test_the_handle_memo_holds_at_most_its_bound_and_an_evicted_artifact_waits_again(
    gated,
):
    bound = wasmvm.HANDLES_MAX
    hot = _heat(*gated("emit_call"))
    others = _constant_binaries(2 * bound)
    first = _handle(others[0])
    for binary in others[1:bound - 1]:
        _handle(binary)
    assert len(wasmvm._HANDLES) == bound
    # a held artifact is served its one handle, and taking it keeps it held
    assert _handle(others[0]) is first
    assert gated("emit_call")[1].compiled is hot
    # so a miss at the bound evicts the least recently used: others[1]
    _handle(others[bound - 1])
    assert len(wasmvm._HANDLES) == bound
    misses = wasmvm._HANDLES.misses
    assert _handle(others[0]) is first and wasmvm._HANDLES.misses == misses
    _handle(others[1])
    assert wasmvm._HANDLES.misses == misses + 1
    for binary in others[bound:]:
        _handle(binary)
        assert len(wasmvm._HANDLES) == bound
    # emit_call is evicted: its next acceptance takes a fresh handle, which
    # parses, binds and waits for the fuel rule again
    binary, decision = gated("emit_call")
    assert decision.compiled is not hot and decision.compiled.tier2() is None
    _tiers_up_by_fuel(binary, decision)


def test_determinism_check_straddling_tier_up_finds_no_divergence(gated):
    binary, decision = gated("emit_call")
    instantiate_and_plan(binary, decision, INPUT)
    needed = _plans_to_tier_up(binary, decision)
    report = determinism_check(binary, decision, INPUT, n=2 * needed)
    assert decision.compiled.tier2() is not None
    assert report["divergences"] == 0


def test_tier2_code_is_dropped_with_the_compile_handle(gated, wl_v1, wl_v2):
    cache = GateCache()
    binary, decision = gated("fuel_burn", cache)
    for _ in range(2):
        with pytest.raises(FuelExhausted):
            instantiate_and_plan(binary, decision, INPUT, ResourceLimits(fuel=50_000))
    hot = decision.compiled
    tier2 = hot.tier2()
    assert tier2 is not None
    # invalidation and a whitelist change drop decisions, not the handle
    invalidate_cache(cache, "manual")
    assert gated("fuel_burn", cache)[1].compiled is hot
    # the v1 certificate stays current under v2 when v1's hash is on record
    known = {wl_v1.version: wl_v1.content_hash}
    assert gated("fuel_burn", cache, wl=wl_v2, known_hashes=known)[1].compiled is hot
    assert hot.tier2() is tier2
    # eviction drops the handle, and its functions with it, from every
    # acceptance made after it
    for other in _constant_binaries(wasmvm.HANDLES_MAX):
        _handle(other)
    held = gated("fuel_burn", cache, wl=wl_v2, known_hashes=known)[1]
    assert held.from_cache and held.compiled is hot
    fresh = gated("fuel_burn", GateCache())[1].compiled
    assert fresh is not hot and fresh.tier2() is None


def test_a_machine_run_is_byte_identical_across_a_session_swap(
    bundles, certifier_key, wl_v1, monkeypatch, tmp_path
):
    tiers, _ = _tiers(monkeypatch)
    fuel, host_calls = [], []  # per plan, per call
    add_fuel = wasmvm.ModuleCell.add_fuel
    instantiate = runtime_host.instantiate

    def counted(name, fn):
        def call(*args):
            host_calls.append(name)
            return fn(*args)

        return call

    def counted_instantiate(module, *args):
        # count through each instance's own table: the kept binding and
        # the host functions it shares stay as they are
        instance = instantiate(module, *args)
        instance.host_table = [
            HostFunc(host.signature, counted(imp.name, host.fn))
            for imp, host in zip(module.imported_funcs, instance.host_table)
        ]
        return instance

    def seen_fuel(cell, used):
        fuel.append(used)
        add_fuel(cell, used)

    monkeypatch.setattr(runtime_host, "instantiate", counted_instantiate)
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
    assert not any(cold_tiers)  # no handle was hot: every plan interpreted
    assert len(cold[1]) == len(doc["steps"]) and cold[2]
    for attempt in range(50):
        hot, hot_tiers = run(hot_session, f"hot{attempt}")
        if all(hot_tiers):
            break
    assert all(hot_tiers)
    fresh, fresh_tiers = run(services(), "fresh")
    assert all(fresh_tiers)  # a new session takes the hot handles
    assert fresh == hot == cold
