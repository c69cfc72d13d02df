"""Service-level chaos: seeded storms, recovery, byte-identity under fire.

What is under test (DESIGN.md 5.10):

* :class:`repro.service.ServiceFaultPlan` -- deterministic expansion of
  a seeded config into a one-shot, op-indexed schedule, mirroring the
  machine-level ``repro.fault`` plan one layer up.
* the spool envelope -- sha256-checksummed, versioned checkpoint files
  whose reader *refuses* truncation, bit flips, and version skew.
* :class:`repro.service.Fleet` recovery -- dead workers respawn and
  warm-restore their sessions from their one spool file plus journal
  replay; lost/garbled/stalled messages retry idempotently; a corrupt
  spool file falls back to re-opening the admission spec and replaying
  the whole journal; slots that exhaust their respawn budget degrade
  to inline hosts (or shed load).
* the gate: a chaos loadtest converges to an artifact byte-identical
  to the clean serial run -- PR 5's recovery-convergence criterion at
  fleet level.
"""

import multiprocessing

import pytest

from repro.errors import ConfigError, OverloadError, ServiceError, SpoolCorruption
from repro.service import (
    Fleet,
    ServiceFaultConfig,
    ServiceFaultKind,
    ServiceFaultPlan,
    Session,
    loadtest_json,
    run_loadtest,
    spool_decode,
    spool_encode,
)
from repro.service.chaos import ChaosInjector

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="chaos targets forked workers",
)


# --------------------------------------------------------------------------
# the plan: seeded, sorted, validated, consumed once
# --------------------------------------------------------------------------

def test_plan_is_deterministic_and_sorted():
    config = ServiceFaultConfig(
        seed=7, worker_crashes=2, message_drops=3, spool_corruptions=2,
        first_op=5, last_op=50, first_spool=1, last_spool=10,
    )
    plan = ServiceFaultPlan.from_config(config)
    twin = ServiceFaultPlan.from_config(config)
    assert plan.events == twin.events  # same seed, same storm
    assert len(plan) == config.total_events == 7
    assert [e.op for e in plan.events] == sorted(e.op for e in plan.events)
    transport = plan.schedule("transport")
    spool = plan.schedule("spool")
    assert len(transport) == 5 and len(spool) == 2
    assert all(5 <= e.op <= 50 for e in transport)
    assert all(1 <= e.op <= 10 for e in spool)
    other = ServiceFaultPlan.from_config(
        ServiceFaultConfig(
            seed=8, worker_crashes=2, message_drops=3, spool_corruptions=2,
            first_op=5, last_op=50, first_spool=1, last_spool=10,
        )
    )
    assert other.events != plan.events  # the seed matters


def test_plan_config_validation():
    with pytest.raises(ConfigError, match="cannot be negative"):
        ServiceFaultConfig(worker_crashes=-1)
    with pytest.raises(ConfigError, match="first_op"):
        ServiceFaultConfig(first_op=9, last_op=3)
    with pytest.raises(ConfigError, match="first_spool"):
        ServiceFaultConfig(first_spool=0)
    assert ServiceFaultPlan.empty().is_empty


def test_injector_fires_each_event_once_in_order():
    from repro.service import ServiceFaultEvent

    plan = ServiceFaultPlan([
        # Two events scheduled for the same op: delivered on
        # consecutive operations, never together, never twice.
        ServiceFaultEvent(op=2, kind=ServiceFaultKind.MESSAGE_DROP),
        ServiceFaultEvent(op=2, kind=ServiceFaultKind.WORKER_CRASH),
        ServiceFaultEvent(op=1, kind=ServiceFaultKind.SPOOL_TRUNCATE, arg=9),
    ])
    injector = ChaosInjector(plan)
    fired = [injector.next_transport() for _ in range(5)]
    kinds = [e.kind for e in fired if e is not None]
    assert kinds == [ServiceFaultKind.MESSAGE_DROP,
                     ServiceFaultKind.WORKER_CRASH]
    assert fired[0] is None  # op 1: nothing due yet
    assert injector.next_spool().kind is ServiceFaultKind.SPOOL_TRUNCATE
    assert injector.next_spool() is None
    assert injector.pending == 0
    stats = injector.stats()
    assert stats == {"chaos_planned": 3, "chaos_fired": 3,
                     "chaos_pending": 0}


# --------------------------------------------------------------------------
# the spool envelope: refuse, don't guess
# --------------------------------------------------------------------------

def test_spool_envelope_roundtrip_and_refusals():
    payload = Session.build("mesa_loop_sum").suspend()
    blob = spool_encode(payload)
    assert spool_decode(blob) == payload

    with pytest.raises(SpoolCorruption, match="version"):
        spool_decode(blob.replace(b'"spool_version":1', b'"spool_version":99'))
    with pytest.raises(SpoolCorruption):   # truncated payload
        spool_decode(blob[:-10])
    with pytest.raises(SpoolCorruption):   # truncated to mid-header
        spool_decode(blob[:20])
    with pytest.raises(SpoolCorruption, match="separator"):
        spool_decode(b"no newline anywhere")
    with pytest.raises(SpoolCorruption, match="header"):
        spool_decode(b"not json\n" + b"body")

    header_end = blob.index(b"\n")
    for position in (0, header_end, header_end + 1, len(blob) - 2):
        flipped = bytearray(blob)
        flipped[position] ^= 0x01
        with pytest.raises(SpoolCorruption):
            spool_decode(bytes(flipped))


def test_spool_write_fsyncs_file_then_renames_then_fsyncs_directory(
    tmp_path, monkeypatch
):
    """A spool write is durable: fsync(tmp), rename, fsync(directory)."""
    import os
    import stat

    from repro.service.spool import spool_read, spool_write

    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
        calls.append(("fsync", kind))
        real_fsync(fd)

    def replace(src, dst):
        calls.append(("replace", os.path.basename(src), os.path.basename(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    path = str(tmp_path / "s1.spool")
    spool_write(path, "payload")
    assert calls == [
        ("fsync", "file"),
        ("replace", "s1.spool.tmp", "s1.spool"),
        ("fsync", "dir"),
    ]
    assert spool_read(path) == "payload"
    assert not os.path.exists(path + ".tmp")


def test_session_envelope_refusals_cover_corruption():
    """Session.resume refuses what the spool layer might let through."""
    envelope = Session.build("mesa_loop_sum").suspend()
    with pytest.raises(ServiceError, match="parseable"):
        Session.resume(envelope[: len(envelope) // 2])  # truncated text
    with pytest.raises(ServiceError):
        Session.resume(envelope.replace('"service_version":1',
                                        '"service_version":99'))


# --------------------------------------------------------------------------
# fleet recovery, one failure mode at a time
# --------------------------------------------------------------------------

def _reference_results(count=4, slices=6, cycles=700):
    results = {}
    for index in range(count):
        session = Session.build("mesa_loop_sum", name=f"s{index}")
        for _ in range(slices):
            if session.status != "running":
                break
            session.run_slice(cycles)
        results[f"s{index}"] = session.result()
    return results


def _drive(fleet, count=4, slices=6, cycles=700):
    for index in range(count):
        fleet.open_session(f"s{index}", "mesa_loop_sum")
    active = [f"s{index}" for index in range(count)]
    for _ in range(slices):
        if not active:
            break
        replies = fleet.run_round(active, cycles)
        active = [n for n in active if replies[n]["status"] == "running"]
    return {f"s{index}": fleet.result(f"s{index}") for index in range(count)}


@needs_fork
def test_fleet_recovers_from_injected_crashes(tmp_path):
    reference = _reference_results()
    chaos = {"seed": 3, "worker_crashes": 2, "first_op": 4, "last_op": 18}
    with Fleet(workers=2, capacity=2, spool_dir=str(tmp_path),
               chaos=chaos, checkpoint_every=2) as fleet:
        results = _drive(fleet)
        stats = fleet.stats()
    assert results == reference  # crashes left no trace in the answers
    assert stats["worker_crashes"] == 2
    assert stats["respawns"] == 2
    assert stats["chaos_pending"] == 0


@needs_fork
def test_fleet_retries_drops_garbles_and_stalls(tmp_path):
    reference = _reference_results()
    chaos = {"seed": 12, "message_drops": 2, "reply_garbles": 2,
             "worker_stalls": 1, "first_op": 3, "last_op": 20}
    slept = []
    with Fleet(workers=2, capacity=3, spool_dir=str(tmp_path), chaos=chaos,
               backoff_base=0.25, sleep=slept.append) as fleet:
        results = _drive(fleet)
        stats = fleet.stats()
    assert results == reference
    assert stats["retries"] >= 5  # at least one per injected mishap
    assert stats["worker_crashes"] == 0  # none escalated
    assert len(slept) == stats["retries"]  # every retry backed off
    assert slept[0] == 0.25  # base * 2**(attempt-1), injectable sleep


@needs_fork
def test_fleet_rebuilds_from_spec_past_corrupt_spool(tmp_path):
    reference = _reference_results(count=4)
    chaos = {"seed": 11, "spool_corruptions": 2, "spool_truncations": 1,
             "first_spool": 1, "last_spool": 6}
    with Fleet(workers=1, capacity=2, spool_dir=str(tmp_path),
               chaos=chaos, checkpoint_every=2) as fleet:
        results = _drive(fleet)
        stats = fleet.stats()
    assert results == reference  # spec re-open + replay, not wrong answers
    assert stats["checkpoint_corruptions"] == 3
    assert stats["chaos_pending"] == 0


@needs_fork
def test_fleet_degrades_slot_after_respawn_budget(tmp_path):
    reference = _reference_results()
    chaos = {"seed": 3, "worker_crashes": 3, "first_op": 3, "last_op": 15}
    with Fleet(workers=1, capacity=2, spool_dir=str(tmp_path),
               chaos=chaos, max_respawns=1, checkpoint_every=2) as fleet:
        results = _drive(fleet)
        stats = fleet.stats()
    assert results == reference
    assert stats["degrades"] == 1
    assert stats["degraded_workers"] == [0]
    assert stats["respawns"] == 1  # budget spent before degradation
    assert stats["worker_crashes"] >= 2


@needs_fork
def test_fleet_sheds_load_when_degradation_is_disabled(tmp_path):
    chaos = {"seed": 3, "worker_crashes": 3, "first_op": 2, "last_op": 10}
    with Fleet(workers=1, capacity=2, spool_dir=str(tmp_path), chaos=chaos,
               max_respawns=0, degrade=False, retry_after=7.5) as fleet:
        fleet.open_session("s0", "mesa_loop_sum")
        with pytest.raises(OverloadError) as info:
            for _ in range(30):
                fleet.run_slice("s0", 500)
        assert info.value.retry_after == 7.5


def test_frontend_sheds_load_with_retry_after(tmp_path):
    """OverloadError becomes a structured retry-after reply; the
    connection survives the shed."""
    import asyncio
    import json

    async def scenario():
        from repro.service import Frontend

        fleet = Fleet(workers=1, capacity=2, spool_dir=str(tmp_path))

        def overloaded(name, cycles):
            raise OverloadError("fleet saturated", retry_after=12.0)

        fleet.run_slice = overloaded
        frontend = Frontend(fleet)
        bound = asyncio.get_running_loop().create_future()
        server = asyncio.create_task(
            frontend.serve("127.0.0.1", 0, ready=bound.set_result)
        )
        host, port = await bound
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(json.dumps({"op": "run", "name": "x",
                                     "cycles": 10}).encode() + b"\n")
            await writer.drain()
            reply = json.loads(await reader.readline())
            assert not reply["ok"]
            assert reply["retry_after"] == 12.0
            writer.write(json.dumps({"op": "ping"}).encode() + b"\n")
            await writer.drain()
            assert json.loads(await reader.readline())["pong"]
        finally:
            writer.close()
            if not server.done():
                server.cancel()
            try:
                await server
            except asyncio.CancelledError:
                pass
            fleet.close()

    asyncio.run(scenario())


# --------------------------------------------------------------------------
# the gate: byte-identity under a full storm
# --------------------------------------------------------------------------

#: A compact storm with every fault kind, sized for the miniature
#: loadtest below (~40 transport ops, ~10 eviction writes at 2 workers).
MINI_STORM = {
    "seed": 1,
    "worker_crashes": 2,
    "message_drops": 2,
    "reply_garbles": 1,
    "worker_stalls": 1,
    "spool_corruptions": 1,
    "spool_truncations": 1,
    "first_op": 3,
    "last_op": 40,
    "first_spool": 1,
    "last_spool": 4,
}


@needs_fork
def test_chaos_loadtest_matches_serial_byte_for_byte():
    serial, _ = run_loadtest(sessions=6, capacity=2, serial=True)
    stormy, stats = run_loadtest(
        sessions=6, capacity=2, workers=2, chaos=MINI_STORM, max_respawns=1,
    )
    assert loadtest_json(stormy) == loadtest_json(serial)
    assert stats["worker_crashes"] > 0
    assert stats["respawns"] > 0
    assert stats["retries"] > 0
    assert stats["checkpoint_corruptions"] > 0
    assert stats["chaos_fired"] == stats["chaos_planned"] - stats["chaos_pending"]


@needs_fork
@pytest.mark.slow
def test_chaos_cli_artifact_matches_clean_serial(tmp_path, capsys):
    from repro.service.__main__ import main as service_main

    out_serial = tmp_path / "serial.json"
    out_chaos = tmp_path / "chaos.json"
    base = ["--sessions", "6", "--capacity", "2", "--slice-cycles", "1500"]
    assert service_main(["loadtest", *base, "--serial",
                         "--output", str(out_serial)]) == 0
    assert service_main([
        "chaos", *base, "--workers", "2", "--max-respawns", "1",
        "--worker-crashes", "2", "--message-drops", "2",
        "--reply-garbles", "1", "--worker-stalls", "1",
        "--spool-corruptions", "1", "--spool-truncations", "1",
        "--first-op", "3", "--last-op", "40",
        "--first-spool", "1", "--last-spool", "4",
        "--require-counters", "worker_crashes,respawns,retries",
        "--output", str(out_chaos),
    ]) == 0
    assert out_chaos.read_bytes() == out_serial.read_bytes()
    capsys.readouterr()


@needs_fork
def test_hot_sessions_background_checkpoint_and_warm_restore(tmp_path):
    """Sessions that never face eviction still checkpoint to their spool
    file in the background, so a late crash warm-restores from a checkpoint instead
    of replaying the whole journal from the admission spec."""
    reference = _reference_results(count=2, slices=8)
    # Capacity above the session count: no evictions, ever.  The crash
    # is scheduled late so background checkpoints exist by then.
    chaos = {"seed": 2, "worker_crashes": 1, "first_op": 12, "last_op": 14}
    with Fleet(workers=1, capacity=4, spool_dir=str(tmp_path),
               chaos=chaos, checkpoint_every=3) as fleet:
        results = _drive(fleet, count=2, slices=8)
        stats = fleet.stats()
    assert results == reference
    assert stats["evictions"] == 0  # nothing was ever pushed out...
    assert stats["checkpoints"] > 0  # ...yet spool files exist
    assert stats["worker_crashes"] == 1
    assert stats["respawns"] == 1
