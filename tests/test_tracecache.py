"""Unit tests for the compiled-trace cache mechanism itself.

``tests/test_fastpath_parity.py`` proves the traced tier bit-identical
to the other two cycle implementations; this file pins the *mechanism*
around the generated code -- hot-region detection, recording cut-offs,
blacklisting, the process-wide compile memo, invalidation hooks, and
the stats surface -- on small hand-built machines where each edge is
easy to reach deliberately.
"""

import pytest

import repro.core.tracecache as tracecache_mod
from repro import Processor
from repro.config import INTERPRETED, PRODUCTION
from repro.core.functions import FF
from repro.core.microword import (
    BSel,
    LoadControl,
    MicroInstruction,
    NextControl,
    NextType,
)
from repro.core.tracecache import (
    HOT_THRESHOLD,
    MAX_TRACE_STEPS,
    MIN_STRAIGHT_STEPS,
    TraceCache,
)
from repro.io.display import DisplayController
from repro.perf.workloads import mesa_loop_sum


def _goto(dest: int, load: int = 0, ff: int = 0) -> MicroInstruction:
    return MicroInstruction(
        aluop=7, bsel=BSel.CONST_LZ, lc=LoadControl(load), ff=ff,
        nc=NextControl.pack(NextType.GOTO, dest),
    )


def _ring_machine(slots: int, hot_threshold: int = 2) -> Processor:
    """A PRODUCTION machine spinning a ring of *slots* GOTOs."""
    cpu = Processor(PRODUCTION)
    cpu._traces = TraceCache(cpu, hot_threshold=hot_threshold)
    for slot in range(slots):
        cpu.im[slot] = _goto((slot + 1) % slots, load=int(LoadControl.T), ff=slot & 0xFF)
    return cpu


# --------------------------------------------------------------------------
# detection and compilation
# --------------------------------------------------------------------------

def test_back_edge_counting_respects_threshold():
    cpu = _ring_machine(8, hot_threshold=3)
    cache = cpu._traces
    # One trip around the ring per 8 cycles; the back edge fires at the
    # wrap.  Below the threshold: counted, not yet recording.
    cpu.run(max_cycles=17)  # two back edges seen
    assert cache.counts.get((0, 0)) == 2
    assert not cache.traces
    cpu.run(max_cycles=24)  # third back edge arms recording, then compiles
    assert (0, 0) in cache.traces
    assert (0, 0) not in cache.counts
    assert cache.compiled == 1


def test_default_threshold_matches_module_constant():
    cpu = Processor(PRODUCTION)
    assert cpu._traces.hot_threshold == HOT_THRESHOLD


def test_trace_executes_and_counts_entries():
    cpu = _ring_machine(8)
    cpu.run(max_cycles=400)
    cache = cpu._traces
    assert cache.entries > 0
    assert cache.failures == []
    stats = cache.stats()
    assert stats["traces"] == 1
    assert stats["compiled"] == 1
    assert stats["entries"] == cache.entries
    assert stats["recording"] is False
    assert stats["failures"] == 0


def test_overlong_recording_compiles_straight_prefix(monkeypatch):
    """A hot region longer than MAX_TRACE_STEPS still compiles.

    GOTOs are page-local (64 slots), so instead of building a ring
    longer than the real cap, lower the cap under a 40-slot ring.
    """
    import repro.core.tracecache as tracecache_mod

    monkeypatch.setattr(tracecache_mod, "MAX_TRACE_STEPS", 12)
    cpu = _ring_machine(40)
    cpu.run(max_cycles=40 * 5)
    cache = cpu._traces
    assert (0, 0) in cache.traces
    assert cache.failures == []
    # The generated source covers exactly the capped prefix.
    assert cache.sources[(0, 0)].count("# -- step") == 12


def test_compile_memo_shares_code_not_closures(monkeypatch):
    """Twin machines share compiled code objects, never closures: a
    second fresh machine running the same workload compiles nothing."""
    compiled = []

    def counting_compile(*args):
        compiled.append(args[1])
        return compile(*args)

    monkeypatch.setattr(tracecache_mod, "compile", counting_compile, raising=False)
    monkeypatch.setattr(tracecache_mod, "_COMPILE_MEMO", {})
    a = _ring_machine(8)
    b = _ring_machine(8)
    a.run(max_cycles=200)
    first = mesa_loop_sum(config=PRODUCTION)
    first.run()
    assert compiled
    del compiled[:]
    b.run(max_cycles=200)
    second = mesa_loop_sum(config=PRODUCTION)
    second.run()
    assert compiled == []
    fn_a = a._traces.traces[(0, 0)]
    fn_b = b._traces.traces[(0, 0)]
    assert fn_a is not fn_b
    assert fn_a.__code__ is fn_b.__code__
    steps = first.ctx.cpu._traces.steps
    assert steps and steps.keys() == second.ctx.cpu._traces.steps.keys()
    for key, fn in steps.items():
        twin = second.ctx.cpu._traces.steps[key]
        assert twin.__code__ is fn.__code__
        assert twin is not fn or fn is Processor._step_interp


def test_compile_memo_evicts_oldest_instead_of_wiping(monkeypatch):
    monkeypatch.setattr(tracecache_mod, "_COMPILE_MEMO", {})
    monkeypatch.setattr(tracecache_mod, "_COMPILE_MEMO_LIMIT", 3)
    for n in range(5):
        tracecache_mod._compiled(n, "<memo test>", "f()", 0, lambda: f"    return {n}\n")
    assert list(tracecache_mod._COMPILE_MEMO) == [2, 3, 4]


# --------------------------------------------------------------------------
# step functions: the plan tier's cycle
# --------------------------------------------------------------------------

def test_plan_steps_run_step_functions_hooked_or_not(monkeypatch):
    """Every plain and hooked plan-tier cycle runs the slot's step
    function; none falls back to the interpretive cycle."""
    cpu = _ring_machine(8)
    seen = []
    cpu.run(max_cycles=5)
    monkeypatch.setattr(Processor, "_step_interp", None)
    cpu.trace_hook = lambda now, pc, inst, held: seen.append(
        (now, pc, inst, held, cpu.counters.cycles, cpu.pipe.tpc[0])
    )
    for _ in range(8):
        cpu.step()
    assert [pc for _, pc, _, _, _, _ in seen] == [5, 6, 7, 0, 1, 2, 3, 4]
    for now, pc, inst, held, cycles, tpc in seen:
        # Counters already count the cycle; TPC still holds its pc.
        assert cycles == now + 1 and tpc == pc and not held
        assert inst is cpu.im[pc]
    assert set(cpu._traces.steps) == {(0, pc) for pc in range(8)}


def test_untraceable_slot_steps_interpretively():
    cpu = _ring_machine(2)
    cpu.im[1] = MicroInstruction(
        bsel=BSel.RM, ff=int(FF.HALT), nc=NextControl.pack(NextType.GOTO, 0)
    )
    cpu.step()
    cpu.step()
    assert cpu.halted
    assert cpu._traces.steps[(0, 1)] is Processor._step_interp
    assert cpu._traces.steps[(0, 0)] is not Processor._step_interp


@pytest.mark.parametrize("event", ["im", "restore", "attach", "alufm"])
def test_invalidation_points_drop_step_functions(event):
    cpu = _ring_machine(8)
    snap = cpu.snapshot()
    cpu.run(max_cycles=20)
    assert cpu._traces.steps
    if event == "im":
        cpu.im[3] = _goto(4)
    elif event == "restore":
        cpu.restore(snap)
    elif event == "attach":
        cpu.attach_device(DisplayController(munch_interval_cycles=8))
    else:
        cpu._apply_ff(cpu.im[0], 0, int(FF.ALUFM_WRITE), 0, 0, 0, 0)
    assert not cpu._traces.steps


def test_trace_cycles_count_cycles_run_inside_traces():
    """E1's share of cycles inside traces, with parity unchanged."""
    traced = mesa_loop_sum(config=PRODUCTION)
    cycles = traced.run()
    reference = mesa_loop_sum(config=INTERPRETED)
    assert reference.run() == cycles
    stats = traced.ctx.cpu._traces.stats()
    assert 0 < stats["cycles"] <= traced.ctx.cpu.counters.cycles
    assert stats["entries"] > 0


# --------------------------------------------------------------------------
# recording cut-offs and the blacklist
# --------------------------------------------------------------------------

def test_short_straight_recording_is_blacklisted():
    cpu = _ring_machine(8)
    cpu.run(max_cycles=50)  # plans exist, cache warm
    cache = cpu._traces
    key = (0, 3)
    cache.begin_recording(key)
    assert cache.stats()["recording"] is True
    # Two traceable steps, then a task switch: under MIN_STRAIGHT_STEPS.
    assert MIN_STRAIGHT_STEPS > 2
    cache.record_step(0, 3, 0, 4)
    cache.record_step(0, 4, 1, 5)
    assert key in cache.blacklist
    assert key not in cache.traces
    assert cache._rec_key is None


def test_blacklisted_key_is_never_recompiled():
    cpu = _ring_machine(8)
    cpu.run(max_cycles=50)
    cache = cpu._traces
    cache.traces.clear()  # drop the compiled ring trace but keep counts
    cache.blacklist.add((0, 0))
    cpu.run(max_cycles=200)
    assert (0, 0) not in cache.traces


def test_abort_recording_discards_cleanly():
    cpu = _ring_machine(8)
    cpu.run(max_cycles=50)
    cache = cpu._traces
    cache.begin_recording((0, 2))
    cache.record_step(0, 2, 0, 3)
    cache.abort_recording()
    assert cache._rec_key is None
    assert cache._rec_steps is None
    assert (0, 2) not in cache.blacklist
    assert (0, 2) not in cache.traces


def test_untraceable_plan_cuts_the_recording():
    cpu = _ring_machine(8)
    cpu.run(max_cycles=50)
    cache = cpu._traces
    cpu._plans[5] = None  # simulate a slot the plan compiler rejected
    cache.begin_recording((0, 4))
    cache.record_step(0, 4, 0, 5)
    cache.record_step(0, 5, 0, 6)  # plan is None: finish as straight
    assert (0, 4) in cache.blacklist  # one step < MIN_STRAIGHT_STEPS
    assert cache._rec_key is None


# --------------------------------------------------------------------------
# invalidation
# --------------------------------------------------------------------------

def test_invalidate_all_clears_in_place_and_counts():
    cpu = _ring_machine(8)
    cpu.run(max_cycles=200)
    cache = cpu._traces
    traces_dict = cache.traces
    assert traces_dict
    before = cache.invalidations
    cache.invalidate_all()
    assert cache.traces is traces_dict and not traces_dict
    assert not cache.counts and not cache.blacklist and not cache.sources
    assert cache.invalidations == before + 1
    # A second sweep over an already-empty cache is not an invalidation.
    cache.invalidate_all()
    assert cache.invalidations == before + 1


def test_attach_device_drops_traces():
    cpu = _ring_machine(8)
    cpu.run(max_cycles=200)
    assert cpu._traces.traces
    cpu.attach_device(DisplayController(munch_interval_cycles=8))
    assert not cpu._traces.traces


def test_restore_drops_traces():
    cpu = _ring_machine(8)
    snap = cpu.snapshot()
    cpu.run(max_cycles=200)
    assert cpu._traces.traces
    cpu.restore(snap)
    assert not cpu._traces.traces


@pytest.mark.parametrize("poke", ["direct", "slice"])
def test_im_write_drops_traces_and_recording(poke):
    cpu = _ring_machine(8)
    cpu.run(max_cycles=200)
    cache = cpu._traces
    assert cache.traces
    inst = _goto(1)
    if poke == "direct":
        cpu.im[3] = inst
    else:
        cpu.im[3:4] = [inst]
    assert not cache.traces
    assert not cache.counts
    assert cache._rec_key is None


def test_supervisor_degrade_disables_the_traced_tier():
    cpu = _ring_machine(8)
    cpu.run(max_cycles=200)
    assert cpu._traces.traces
    cpu._trace_enabled = False  # what Supervisor._maybe_degrade sets
    cache_entries = cpu._traces.entries
    cpu.run(max_cycles=100)
    assert cpu._traces.entries == cache_entries  # never entered again
