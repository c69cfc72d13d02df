"""Differential lock-down of the fast execution tiers.

The simulator has three cycle implementations: the interpretive
reference (every microword field re-decoded each cycle), the decoded
execution-plan fast path (``PLAN_ONLY``), and the compiled-trace tier
that PRODUCTION layers on top of the plans.  Every test here runs the
same scenario under all three configurations and requires bit-identical
results -- architectural state, performance counters, cycle counts,
hold-cause attribution, the supervisor's ``architectural_json`` digest,
and the whole storage image.  Property tests interleave microstore
rewrites with stepping (plans) and free-running (traces) to prove
neither cache ever goes stale.
"""

import dataclasses
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Assembler, Processor
from repro.config import INTERPRETED, PLAN_ONLY, PRODUCTION, MachineConfig
from repro.core.functions import EXTB_SELECTORS, FF, JUMP_PAGE_BASE, MEMBASE_SMALL_BASE
from repro.core.microword import (
    ASel,
    BSel,
    LoadControl,
    MicroInstruction,
    Misc,
    NextControl,
    NextType,
)
from repro.core.tracecache import TraceCache
from repro.fault.plan import FaultConfig
from repro.graphics.bitblt import BitBltFunction, build_bitblt_machine, run_bitblt
from repro.graphics.bitmap import Bitmap
from repro.io.disk import DiskController, DiskGeometry, disk_microcode
from repro.io.display import DisplayController, display_fast_microcode
from repro.perf.workloads import ALL_WORKLOADS
from repro.state import MachineState
from repro.supervise import architectural_json
from repro.types import MUNCH_WORDS

CONFIGS = (
    ("interp", INTERPRETED),
    ("plan", PLAN_ONLY),
    ("traced", PRODUCTION),
)


def machine_state(cpu: Processor) -> dict:
    """Everything observable about a machine, for bit-exact comparison."""
    regs = cpu.regs
    return {
        "counters": dataclasses.asdict(cpu.counters),
        "rm": list(regs.rm),
        "t": list(regs.t),
        "q": regs.q,
        "count": regs.count,
        "shiftctl": regs.shiftctl,
        "rbase": list(regs.rbase),
        "membase": list(regs.membase),
        "saved_carry": list(regs.saved_carry),
        "ioaddress": list(regs.ioaddress),
        "tpc": list(cpu.pipe.tpc),
        "this_task": cpu.pipe.this_task,
        "lines": cpu.pipe.lines,
        "ready": cpu.pipe.ready,
        "link": list(cpu.control.link),
        "this_pc": cpu.this_pc,
        "halted": cpu.halted,
        "now": cpu.now,
        "trace": list(cpu.console.trace),
        "notifications": list(cpu.console.notifications),
    }


def assert_same_machine(cpu_a: Processor, cpu_b: Processor) -> None:
    assert machine_state(cpu_a) == machine_state(cpu_b)
    assert architectural_json(cpu_a.snapshot()) == architectural_json(cpu_b.snapshot())
    assert cpu_a.memory.storage._data == cpu_b.memory.storage._data


def assert_clean_traces(cpu: Processor) -> None:
    """A traced-tier machine must never have abandoned a compile."""
    assert cpu._traces.failures == []


# --------------------------------------------------------------------------
# Every benchmark workload, all three configurations
# --------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
def test_workload_parity(name):
    runs = {}
    for label, config in CONFIGS:
        workload = ALL_WORKLOADS[name](config=config)
        cycles = workload.run()
        runs[label] = (cycles, workload.ctx.cpu)
    assert_clean_traces(runs["traced"][1])
    for label in ("plan", "traced"):
        assert runs[label][0] == runs["interp"][0], (
            f"{label} cycle count diverged from the reference"
        )
        # Hold-cause attribution is part of the counters, but call it
        # out on its own: a trace that mis-charges a held cycle shows
        # up here with a readable diff.
        assert (
            runs[label][1].counters.hold_causes
            == runs["interp"][1].counters.hold_causes
        )
        assert_same_machine(runs[label][1], runs["interp"][1])


# --------------------------------------------------------------------------
# A seeded fault plan under all three tiers
# --------------------------------------------------------------------------

#: Correctable storage errors are absorbed by ECC -- the workload still
#: verifies -- but the injector must fire on the same references and
#: bump the same counters on every tier.  ``last_cycle=0`` arms both
#: events immediately so they hit the workload's first storage reads.
_CORRECTABLE = FaultConfig(seed=9, storage_correctable=2, last_cycle=0)

#: Spurious map faults latch a fault the workload's microcode never
#: handles, so the run ends with a wrong result; all three tiers must
#: still agree on every bit of the wreckage (traces bail out to the
#: plan interpreter the moment the fault latch rises).
_FAULTING = FaultConfig(seed=9, storage_correctable=4, map_faults=2, last_cycle=3000)


def test_fault_plan_parity_verified():
    runs = {}
    for label, config in CONFIGS:
        faulted = dataclasses.replace(config, fault_injection=_CORRECTABLE)
        workload = ALL_WORKLOADS["lisp_cons_kernel"](config=faulted)
        cycles = workload.run()
        runs[label] = (cycles, workload.ctx.cpu)
    assert runs["interp"][1].counters.faults_injected > 0
    assert_clean_traces(runs["traced"][1])
    for label in ("plan", "traced"):
        assert runs[label][0] == runs["interp"][0]
        assert_same_machine(runs[label][1], runs["interp"][1])


def test_fault_plan_parity_latched():
    runs = {}
    for label, config in CONFIGS:
        faulted = dataclasses.replace(config, fault_injection=_FAULTING)
        workload = ALL_WORKLOADS["mesa_loop_sum"](config=faulted)
        # Run the machine directly: verification would (rightly) fail.
        cycles = workload.ctx.run(max_cycles=200_000)
        runs[label] = (cycles, workload.ctx.cpu)
    assert runs["interp"][1].memory.fault_flags, "fault never latched"
    assert_clean_traces(runs["traced"][1])
    for label in ("plan", "traced"):
        assert runs[label][0] == runs["interp"][0]
        assert_same_machine(runs[label][1], runs["interp"][1])


# --------------------------------------------------------------------------
# The report.py device scenarios: BitBlt, disk, fast-I/O display
# --------------------------------------------------------------------------

def _bitblt_run(config: MachineConfig):
    cpu = build_bitblt_machine(config)
    src = Bitmap(cpu.memory, 0x2000, 17, 16)
    dst = Bitmap(cpu.memory, 0x8000, 16, 16)
    src.load_pattern()
    dst.fill(0)
    cycles = run_bitblt(
        cpu, BitBltFunction.COPY, src_va=0x2000, dst_va=0x8000,
        words_per_row=16, rows=16, src_pitch=17, dst_pitch=16, shift=5,
    )
    cycles += run_bitblt(
        cpu, BitBltFunction.XOR, src_va=0x2000, dst_va=0x8000,
        words_per_row=16, rows=16, src_pitch=17, dst_pitch=16, shift=3,
    )
    return cycles, cpu


def test_bitblt_parity():
    cycles_i, cpu_i = _bitblt_run(INTERPRETED)
    for _, config in CONFIGS[1:]:
        cycles, cpu = _bitblt_run(config)
        assert cycles == cycles_i
        assert_same_machine(cpu, cpu_i)


def _disk_run(config: MachineConfig):
    asm = Assembler(config)
    asm.emit(idle=True)
    disk_microcode(asm)
    cpu = Processor(config)
    cpu.load_image(asm.assemble())
    cpu.memory.identity_map()
    disk = DiskController(DiskGeometry(sectors=4, words_per_sector=256))
    cpu.attach_device(disk)
    disk.fill_sector(1, [i & 0xFFFF for i in range(256)])
    disk.begin_read(cpu, sector=1, buffer_va=0x4000)
    cpu.run_until(lambda m: disk.done, max_cycles=100_000)
    for i in range(256):
        cpu.memory.debug_write(0x6000 + i, (i * 3) & 0xFFFF)
    disk.begin_write(cpu, sector=2, buffer_va=0x6000)
    cpu.run_until(lambda m: disk.done, max_cycles=100_000)
    return cpu


def test_disk_parity():
    cpu_i = _disk_run(INTERPRETED)
    for _, config in CONFIGS[1:]:
        assert_same_machine(_disk_run(config), cpu_i)


def _display_run(config: MachineConfig, explicit_notify: bool):
    asm = Assembler(config)
    asm.emit(idle=True)
    display_fast_microcode(asm)
    cpu = Processor(config)
    cpu.load_image(asm.assemble())
    cpu.memory.identity_map()
    display = DisplayController(
        munch_interval_cycles=8, explicit_notify=explicit_notify
    )
    cpu.attach_device(display)
    munches = 32
    for i in range(munches * MUNCH_WORDS):
        cpu.memory.debug_write(0x4000 + i, i & 0xFFFF)
    display.begin_band(cpu, 0x4000, munches)
    cpu.run_until(lambda m: display.done, max_cycles=200_000)
    assert display.underruns == 0
    return cpu


@pytest.mark.parametrize("explicit_notify", [False, True])
def test_display_parity(explicit_notify):
    cpu_i = _display_run(INTERPRETED, explicit_notify)
    for _, config in CONFIGS[1:]:
        assert_same_machine(_display_run(config, explicit_notify), cpu_i)


# --------------------------------------------------------------------------
# Every example program, across the execution tiers
# --------------------------------------------------------------------------

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)

# Re-runs the example with every Processor forced onto a slower tier,
# whatever configuration the script itself chose.
_FORCE_TIER = """
import runpy, sys
from repro.core.processor import Processor
_orig_init = Processor.__init__
def _init(self, *args, **kwargs):
    _orig_init(self, *args, **kwargs)
    self._trace_enabled = False
    if "{tier}" == "interp":
        self._plan_enabled = False
Processor.__init__ = _init
script = sys.argv[1]
sys.argv = [script]
runpy.run_path(script, run_name="__main__")
"""


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_parity(script):
    fast = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=300
    )
    assert fast.returncode == 0, fast.stdout + fast.stderr
    for tier in ("plan", "interp"):
        slow = subprocess.run(
            [sys.executable, "-c", _FORCE_TIER.format(tier=tier), str(script)],
            capture_output=True, text=True, timeout=300,
        )
        assert slow.returncode == 0, slow.stdout + slow.stderr
        assert fast.stdout == slow.stdout, f"{tier} tier output diverged"


# --------------------------------------------------------------------------
# Microstore rewrites must never leave a stale plan behind
# --------------------------------------------------------------------------

RING = 16  # ring of GOTOs within page 0


def _ring_inst(data: int, dest: int) -> MicroInstruction:
    """A side-effect-free instruction ending in GOTO *dest* (page 0).

    With a ``CONST_*`` BSelect the FF byte is constant data, not a
    function, so any *data* byte is architecturally safe; the ALU op and
    load control still exercise the bypass latch, saved carry, and the
    branch-condition datapath.
    """
    return MicroInstruction(
        rsel=data & 0xF,
        aluop=(data >> 2) & 0xF,
        bsel=BSel(BSel.CONST_LZ + ((data >> 6) & 0x3)),
        lc=LoadControl((data >> 4) & 0x3),
        asel=ASel.T if data & 0x100 else ASel.RM,
        ff=data & 0xFF,
        nc=NextControl.pack(NextType.GOTO, dest),
    )


def _twin_machines():
    pair = []
    for config in (PRODUCTION, INTERPRETED):
        cpu = Processor(config)
        for slot in range(RING):
            cpu.im[slot] = _ring_inst(slot * 37, (slot + 1) % RING)
        pair.append(cpu)
    return pair


def _light_state(cpu: Processor) -> tuple:
    regs = cpu.regs
    return (
        cpu.this_pc,
        tuple(regs.rm[:16]),
        regs.t[0],
        regs.q,
        tuple(regs.saved_carry[:1]),
        cpu.counters.cycles,
        cpu.counters.instructions,
    )


_action = st.one_of(
    st.tuples(st.just("step"), st.integers(1, 8)),
    st.tuples(st.just("console"), st.integers(0, RING - 1), st.integers(0, 0x1FF)),
    st.tuples(st.just("direct"), st.integers(0, RING - 1), st.integers(0, 0x1FF)),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_action, min_size=1, max_size=40))
def test_no_stale_decode_under_rewrites(actions):
    """Interleaved IM rewrites and stepping stay in lockstep.

    The fast machine compiles plans as it runs; every rewrite -- via the
    console's three-stage staging path or a direct ``im[...]`` poke --
    must drop the affected plan, or the two machines diverge on the very
    next visit to that slot.
    """
    fast, slow = _twin_machines()
    for action in actions:
        if action[0] == "step":
            for _ in range(action[1]):
                fast.step()
                slow.step()
        else:
            _, slot, data = action
            inst = _ring_inst(data, (slot + 1) % RING)
            if action[0] == "direct":
                fast.im[slot] = inst
                slow.im[slot] = inst
            else:
                bits = inst.encode()
                for cpu in (fast, slow):
                    console = cpu.console
                    console.latch_im_address(slot)
                    console.im_write_low(bits & 0xFFFF)
                    console.im_write_mid((bits >> 16) & 0xFFFF)
                    console.im_write_high(bits >> 32, cpu.im)
        assert _light_state(fast) == _light_state(slow)


# --------------------------------------------------------------------------
# ... and never a stale compiled trace either
# --------------------------------------------------------------------------

def _hot_twin_machines():
    """PRODUCTION vs INTERPRETED twins with a hair-trigger trace cache.

    The default hot threshold needs several trips around the ring before
    a trace exists; dropping it to 2 means nearly every ``run()`` below
    executes generated code, so a missed invalidation diverges fast.
    """
    fast, slow = _twin_machines()
    fast._traces = TraceCache(fast, hot_threshold=2)
    return fast, slow


_trace_action = st.one_of(
    st.tuples(st.just("run"), st.integers(1, 80)),
    st.tuples(st.just("console"), st.integers(0, RING - 1), st.integers(0, 0x1FF)),
    st.tuples(st.just("direct"), st.integers(0, RING - 1), st.integers(0, 0x1FF)),
    st.tuples(st.just("slice"), st.integers(0, RING - 1), st.integers(0, 0x1FF)),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(_trace_action, min_size=1, max_size=30))
def test_no_stale_trace_under_rewrites(actions):
    """Random mid-run IM pokes through every write path drop traces.

    Traces only execute inside ``run()``, so the machines free-run in
    matched bursts instead of stepping.  Any write path that failed to
    invalidate -- direct item assignment, slice assignment, or the
    console's staging registers -- would leave compiled code that still
    encodes the old microword, and the lockstep check would catch it on
    the next burst.
    """
    fast, slow = _hot_twin_machines()
    for action in actions:
        if action[0] == "run":
            fast.run(max_cycles=action[1])
            slow.run(max_cycles=action[1])
        else:
            _, slot, data = action
            inst = _ring_inst(data, (slot + 1) % RING)
            if action[0] == "direct":
                fast.im[slot] = inst
                slow.im[slot] = inst
            elif action[0] == "slice":
                fast.im[slot:slot + 1] = [inst]
                slow.im[slot:slot + 1] = [inst]
            else:
                bits = inst.encode()
                for cpu in (fast, slow):
                    console = cpu.console
                    console.latch_im_address(slot)
                    console.im_write_low(bits & 0xFFFF)
                    console.im_write_mid((bits >> 16) & 0xFFFF)
                    console.im_write_high(bits >> 32, cpu.im)
        assert _light_state(fast) == _light_state(slow)
    assert_clean_traces(fast)


def test_trace_property_is_not_vacuous():
    """The ring actually compiles to a trace at the lowered threshold."""
    fast, slow = _hot_twin_machines()
    fast.run(max_cycles=200)
    slow.run(max_cycles=200)
    assert _light_state(fast) == _light_state(slow)
    assert fast._traces.traces, "ring never became hot -- property is vacuous"
    assert fast._traces.entries > 0
    # A rewrite through each path empties the whole cache.
    fast.im[3] = _ring_inst(0o123, 4)
    slow.im[3] = _ring_inst(0o123, 4)
    assert not fast._traces.traces
    fast.run(max_cycles=200)
    slow.run(max_cycles=200)
    assert _light_state(fast) == _light_state(slow)
    assert_clean_traces(fast)


def _loop_loading_t(cpu: Processor, value: int) -> None:
    """Slots 0..1: load T with *value*, forever."""
    cpu.im[0] = MicroInstruction(
        aluop=7, bsel=BSel.CONST_LZ, lc=LoadControl.T, ff=value,
        nc=NextControl.pack(NextType.GOTO, 1),
    )
    cpu.im[1] = MicroInstruction(nc=NextControl.pack(NextType.GOTO, 0))


def test_direct_im_write_invalidates_plan():
    cpu = Processor()
    _loop_loading_t(cpu, 5)
    for _ in range(6):
        cpu.step()
    assert cpu.regs.t[0] == 5
    _loop_loading_t(cpu, 7)  # rewrite through plain item assignment
    for _ in range(4):
        cpu.step()
    assert cpu.regs.t[0] == 7


def test_console_im_write_invalidates_plan():
    cpu = Processor()
    _loop_loading_t(cpu, 5)
    for _ in range(6):
        cpu.step()
    bits = MicroInstruction(
        aluop=7, bsel=BSel.CONST_LZ, lc=LoadControl.T, ff=9,
        nc=NextControl.pack(NextType.GOTO, 1),
    ).encode()
    cpu.console.latch_im_address(0)
    cpu.console.im_write_low(bits & 0xFFFF)
    cpu.console.im_write_mid((bits >> 16) & 0xFFFF)
    cpu.console.im_write_high(bits >> 32, cpu.im)
    for _ in range(4):
        cpu.step()
    assert cpu.regs.t[0] == 9


def test_slice_im_write_invalidates_plans():
    cpu = Processor()
    _loop_loading_t(cpu, 5)
    for _ in range(6):
        cpu.step()
    replacement = Processor()
    _loop_loading_t(replacement, 11)
    cpu.im[0:2] = replacement.im[0:2]
    for _ in range(4):
        cpu.step()
    assert cpu.regs.t[0] == 11


def test_im_write_invalidates_hot_trace():
    """The T-loop, run hot enough to trace, then rewritten mid-run."""
    cpu = Processor(PRODUCTION)
    cpu._traces = TraceCache(cpu, hot_threshold=2)
    _loop_loading_t(cpu, 5)
    cpu.run(max_cycles=40)
    assert cpu.regs.t[0] == 5
    assert cpu._traces.traces
    _loop_loading_t(cpu, 7)
    assert not cpu._traces.traces
    cpu.run(max_cycles=8)
    assert cpu.regs.t[0] == 7
    assert_clean_traces(cpu)


# --------------------------------------------------------------------------
# Arbitrary microwords: the plan tier's step functions vs the reference
# --------------------------------------------------------------------------

#: Small storage and cache keep a full canonical snapshot per step cheap;
#: the short hold limit lets MEMDATA/NEXTMACRO holds reach the watchdog.
_SMALL = dict(storage_words=1 << 10, cache_lines=16, hold_limit=3)

#: FF functions that run without an attached device, IFU operand or a
#: cross-page target, so a ring built from them keeps running.
_RUNNABLE_FFS = sorted(
    int(ff) for ff in FF
    if ff not in (FF.INPUT, FF.OUTPUT, FF.OUTPUT_MD, FF.IOFETCH, FF.IOSTORE,
                  FF.BREAKPOINT, FF.A_IFUDATA)
    and ff not in EXTB_SELECTORS
)
_RUNNABLE_ASELS = (ASel.RM, ASel.T, ASel.RM_FETCH, ASel.RM_STORE, ASel.T_FETCH, ASel.T_STORE)
_RUNNABLE_MISC = (Misc.RETURN, Misc.DISPATCH8, Misc.RETURN_CALL, Misc.IDLE, Misc.NOTIFY)

#: An odd multiplier: a bijection on 34-bit words that spreads the small
#: integers Hypothesis favours across every field.
_SPREAD = 0x2545F4914F6CDD1D


def _microword(bits: int, runnable: bool) -> MicroInstruction:
    """The 34-bit microword *bits* (bit 22, the top LoadControl bit, is
    cleared: codes 4..7 are reserved and do not decode).

    A *runnable* word keeps its bits but is steered to keep running:
    B from RM, T or Q (so FF is a function), no IFUDATA/MEMDATA A
    source, FF bytes above the small-constant banks mapped onto
    functions that need no device, and no MISC kind that needs the IFU
    or a cross-page target.  The others cover every encodable word:
    bad selector/FF pairings, unimplemented FFs, every NextControl kind.
    """
    bits = (bits * _SPREAD) & ((1 << 34) - 1)
    inst = MicroInstruction.decode(bits & ~(1 << 22))
    if not runnable:
        return inst
    nc = inst.nc
    if NextControl.kind(nc) == NextType.MISC:
        misc = _RUNNABLE_MISC[(nc >> 3) % len(_RUNNABLE_MISC)]
        nc = NextControl.pack(NextType.MISC, (int(misc) << 3) | (nc & 7))
    ff = inst.ff
    if ff >= JUMP_PAGE_BASE or 0 < ff < MEMBASE_SMALL_BASE:
        ff = _RUNNABLE_FFS[ff % len(_RUNNABLE_FFS)]
    return dataclasses.replace(
        inst,
        bsel=(BSel.RM, BSel.T, BSel.Q)[int(inst.bsel) % 3],
        asel=_RUNNABLE_ASELS[int(inst.asel) % len(_RUNNABLE_ASELS)],
        ff=ff,
        nc=nc,
    )


_ring_words = st.lists(
    st.builds(_microword, st.integers(0, (1 << 34) - 1), st.sampled_from([True, True, False])),
    min_size=1, max_size=8,
)


def _snapshot_json(cpu: Processor) -> str:
    """The full canonical snapshot, less the tier switches."""
    data = dict(cpu.snapshot().data)
    data["config"] = dict(data["config"], plan_cache_enabled=None, trace_cache_enabled=None)
    return MachineState(data).to_json()


def _lockstep(words, seed: int = 0, steps: int = 16) -> int:
    """Single-step PLAN_ONLY and INTERPRETED twins over page 0 tiled with
    *words*, registers filled from *seed*; returns how many executed
    cycles ran an FF function."""
    pair = []
    for base in (PLAN_ONLY, INTERPRETED):
        cpu = Processor(dataclasses.replace(base, **_SMALL))
        for slot in range(cpu.config.page_size):
            cpu.im[slot] = words[slot % len(words)]
        rng = random.Random(seed)
        regs = cpu.regs
        regs.rm[:] = [rng.getrandbits(16) for _ in regs.rm]
        regs.t[:] = [rng.getrandbits(16) for _ in regs.t]
        regs.q, regs.count, regs.shiftctl = (rng.getrandbits(16) for _ in range(3))
        pair.append(cpu)
    plan, interp = pair
    ff_cycles = 0
    for _ in range(steps):
        inst = interp.im[interp.this_pc]
        executed = interp.counters.instructions
        outcomes = []
        for cpu in pair:
            try:
                cpu.step()
                outcomes.append(None)
            except Exception as exc:  # either tier may raise; both must agree
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]
        if outcomes[0] is not None:
            return ff_cycles
        assert _snapshot_json(plan) == _snapshot_json(interp)
        if interp.counters.instructions != executed and not inst.bsel.is_constant and inst.ff:
            ff_cycles += 1
    return ff_cycles


@settings(max_examples=60, deadline=None)
@given(_ring_words, st.integers(0, 2**32))
def test_arbitrary_microwords_step_identically(words, seed):
    """Any microword, stepped by the plan tier, matches the reference:
    same full snapshot after every cycle, or the same error."""
    _lockstep(words, seed)


@pytest.mark.slow
@settings(max_examples=400, deadline=None)
@given(_ring_words, st.integers(0, 2**32))
def test_arbitrary_microwords_step_identically_long(words, seed):
    _lockstep(words, seed, steps=48)


@pytest.mark.parametrize("field", ["ff", "nc"])
def test_every_ff_and_next_code_steps_identically(field):
    """Each of the 256 FF codes as a function (B from RM, or EXTB for
    the EXTB selectors), and each of the 256 NextControl codes, runs
    three lockstep cycles under two register seeds: no FF or NEXT kind
    is left to chance."""
    for code in range(256):
        if field == "ff":
            fields = dict(
                bsel=BSel.EXTB if code in EXTB_SELECTORS else BSel.RM,
                ff=code,
                nc=NextControl.pack(NextType.GOTO, code & 0x3F),
            )
        else:
            fields = dict(bsel=BSel.RM, ff=int(FF.NOP), nc=code)
        word = MicroInstruction(
            rsel=code & 0xF,
            aluop=code >> 4,
            lc=LoadControl(code & 3),
            asel=_RUNNABLE_ASELS[code % len(_RUNNABLE_ASELS)],
            **fields,
        )
        for seed in (code, code + 256):
            _lockstep([word], seed=seed, steps=3)


def test_arbitrary_microword_property_is_not_vacuous():
    """At least half the drawn rings execute an FF function."""
    ff_cycles = []

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(_ring_words, st.integers(0, 2**32))
    def probe(words, seed):
        ff_cycles.append(_lockstep(words, seed))

    probe()
    assert sum(1 for n in ff_cycles if n) * 2 >= len(ff_cycles)


# --------------------------------------------------------------------------
# SHIFTCTL decodes exactly once per shift instruction, on all paths
# --------------------------------------------------------------------------

@pytest.mark.parametrize("label,config", CONFIGS)
def test_shiftctl_decodes_once_per_shift(label, config, monkeypatch):
    """All three shift FFs decode the live SHIFTCTL exactly once.

    ``_result_override`` used to decode it up to three times per
    instruction; it and the generated step and trace functions each
    decode once, which this test pins by counting calls through the
    module-level ``ShiftControl`` reference of the interpreter and of
    the emitter.
    """
    import repro.core.processor as processor_mod
    import repro.core.tracecache as tracecache_mod
    from repro.core.functions import FF
    from repro.core.shifter import ShiftControl, field_control, shift, shift_masked

    calls = []

    class CountingShiftControl:
        @staticmethod
        def decode(value):
            calls.append(value)
            return ShiftControl.decode(value)

    monkeypatch.setattr(processor_mod, "ShiftControl", CountingShiftControl)
    monkeypatch.setattr(tracecache_mod, "ShiftControl", CountingShiftControl)

    control = field_control(4, 6)
    word, fill = 0x0A50, 0x9C01

    def build(asm):
        asm.register("w", 1)
        asm.register("addr", 2)
        asm.load_constant("w", word)
        asm.load_constant(3, control.encode())
        asm.emit(r=3, b="RM", ff=FF.SHIFTCTL_B)
        asm.emit(b=0, alu="B", load="T")
        asm.emit(r="w", ff=FF.SHIFT_OUT, load="T")
        asm.emit(b="T", ff=FF.TRACE)
        asm.emit(b=0, alu="B", load="T")
        asm.emit(r="w", ff=FF.SHIFT_MASKZ, load="T")
        asm.emit(b="T", ff=FF.TRACE)
        asm.emit(r="addr", b=0x0100, alu="B", load="RM")
        asm.emit(r="addr", a="RM", b=fill & 0xFF00, alu="B", store=True)
        asm.emit(r="addr", a="RM", fetch=True)
        asm.emit(b=0, alu="B", load="T")
        asm.emit(r="w", ff=FF.SHIFT_MASKMD, load="T")
        asm.emit(b="T", ff=FF.TRACE)

    from tests.conftest import run_microcode

    cpu = run_microcode(build, config=config)
    # One decode per executed shift microinstruction -- held cycles
    # (SHIFT_MASKMD waiting on MEMDATA) must not decode at all.
    assert len(calls) == 3
    # And each path produced the architecturally right value.
    raw = shift(control, word, 0)
    maskz = shift_masked(control, word, 0, 0)
    maskmd = shift_masked(control, word, 0, fill & 0xFF00)
    assert cpu.console.trace == [raw, maskz, maskmd]
