"""The one timing harness behind every BENCH_*.json, and the files it wrote.

:func:`repro.perf.measure.timed` times every host-time number the
repository commits; :func:`~repro.perf.measure.compare_to_baseline`
gates a fresh document against a committed one.  The last tests load
the three committed ``BENCH_*.json`` files and check they came from the
harness: every timing block carries median, quartiles and call count,
and every traced corebench row really entered traces.
"""

import json
import pathlib
import types

import pytest

from repro.perf import measure
from repro.perf.measure import compare_to_baseline, timed

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDENS = json.loads((ROOT / "tests" / "goldens.json").read_text())


def test_timed_raises_when_runs_disagree():
    cycles = iter([100, 100, 101])
    with pytest.raises(AssertionError, match="disagree"):
        timed(lambda: next(cycles), repeats=2)


def test_timed_reports_median_and_quartiles():
    calls = []
    timing = timed(lambda: calls.append(1) or 42, repeats=5)
    assert len(calls) == 6  # one untimed warm-up, then the timed calls
    assert timing.result == 42
    assert timing.n == 5
    assert timing.min <= timing.q1 <= timing.median <= timing.q3
    block = timing.block()
    assert set(block) == {"median", "q1", "q3", "min", "n"}
    assert block["n"] == 5


def test_timed_rejects_zero_repeats():
    with pytest.raises(ValueError):
        timed(lambda: 0, repeats=0)


def test_timed_excludes_setup_time_and_collects_before_each_call(monkeypatch):
    clock = types.SimpleNamespace(now=0.0)
    clock.perf_counter = lambda: clock.now
    monkeypatch.setattr(measure, "time", clock)
    collections = []
    monkeypatch.setattr(measure.gc, "collect", lambda: collections.append(1))

    def setup():
        clock.now += 100.0  # building a machine: never timed
        return 7

    def run(machine):
        clock.now += 2.0
        return machine * 3

    timing = timed(run, repeats=3, setup=setup)
    assert timing.result == 21
    assert (timing.min, timing.q1, timing.median, timing.q3) == (2.0, 2.0, 2.0, 2.0)
    assert timing.per_second(10) == 5.0
    assert len(collections) == 4  # warm-up included


def test_compare_to_baseline_walks_the_whole_document():
    base = {
        "host": {"python": "3.0"},
        "workloads": {"E1": {"simulated_cycles": 4807, "speedup": 3.0}},
        "warm_start": {"simulated_cycles": 4807, "cold_seconds": {"median": 1.0}},
    }
    fresh = {
        "host": {"python": "3.12"},
        "workloads": {"E1": {"simulated_cycles": 4807, "speedup": 2.9}},
        "warm_start": {"simulated_cycles": 4807, "cold_seconds": {"median": 9.0}},
        "new_section": {"simulated_cycles": 1},
    }
    assert compare_to_baseline(fresh, base) == []

    fresh["warm_start"]["simulated_cycles"] = 4808
    fresh["workloads"]["E1"]["simulated_cycles"] = 4806
    problems = compare_to_baseline(fresh, base)
    assert len(problems) == 2
    assert problems[0].startswith("workloads/E1: simulated_cycles changed")
    assert problems[1].startswith("warm_start: simulated_cycles changed")

    del fresh["warm_start"]
    assert "warm_start missing from this run" in compare_to_baseline(fresh, base)
    del fresh["workloads"]["E1"]["speedup"]
    assert "workloads/E1: speedup missing from this run" in compare_to_baseline(fresh, base)


def test_compare_to_baseline_flags_a_traced_row_without_trace_entries():
    base = {"workloads": {"E1": {"simulated_cycles": 100, "trace_entries": 5,
                                 "traced_speedup": 1.2}}}
    fresh = {"workloads": {"E1": {"simulated_cycles": 100, "trace_entries": 0,
                                  "traced_speedup": 1.2}}}
    problems = compare_to_baseline(fresh, base)
    assert any("entered no traces" in p for p in problems)
    assert any("trace_entries changed" in p for p in problems)


def test_corebench_cli_baseline_gate(tmp_path, monkeypatch, capsys):
    """The CLI gate on canned rows: changed cycles exit 1, a baseline with
    no tier rows is refused (the benches themselves are tested elsewhere)."""
    from repro.perf import corebench

    row = {"simulated_cycles": 4807, "trace_entries": 789, "speedup": 3.0,
           "traced_speedup": 1.2, "interp_cycles_per_second": 1,
           "plan_cycles_per_second": 3, "traced_cycles_per_second": 4}
    monkeypatch.setattr(corebench, "run_corebench", lambda repeats: {"E1": dict(row)})
    monkeypatch.setattr(corebench, "run_warmstart_bench",
                        lambda repeats: {"simulated_cycles": 4807, "warm_speedup": 4.0})
    monkeypatch.setattr(corebench, "run_supervised_bench",
                        lambda repeats: {"simulated_cycles": 4807, "overhead_factor": 2.0})
    out = tmp_path / "bench.json"
    assert corebench.main(["--output", str(out), "--repeats", "1"]) == 0
    doc = json.loads(out.read_text())
    argv = ["--output", str(tmp_path / "again.json"), "--repeats", "1",
            "--baseline", str(out), "--tolerance", "0.5"]
    assert corebench.main(argv) == 0

    # A baseline without the tier rows is refused, not silently passed.
    for bad in ({}, 3, {"warm_start": {"simulated_cycles": 4807}}):
        (tmp_path / "bad.json").write_text(json.dumps(bad))
        with pytest.raises(SystemExit) as exc:
            corebench.main(argv[:4] + ["--baseline", str(tmp_path / "bad.json")])
        assert exc.value.code != 0
    assert "no workloads section" in capsys.readouterr().err

    doc["workloads"]["E1"]["simulated_cycles"] += 1
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert corebench.main(argv) == 1
    assert "simulated_cycles changed" in capsys.readouterr().out


# --------------------------------------------------------------------------
# the committed documents
# --------------------------------------------------------------------------

BENCH_FILES = ("BENCH_core.json", "BENCH_service.json", "BENCH_cluster.json")


def _timing_blocks(node, path=""):
    """(path, value) of every ``*seconds`` entry anywhere in a document."""
    if isinstance(node, dict):
        for key, value in node.items():
            where = f"{path}/{key}"
            if key.endswith("seconds"):
                yield where, value
            else:
                yield from _timing_blocks(value, where)
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _timing_blocks(value, f"{path}[{index}]")


@pytest.mark.parametrize("name", BENCH_FILES)
def test_committed_bench_documents_come_from_the_harness(name):
    doc = json.loads((ROOT / name).read_text())
    assert set(doc["host"]) == {"python", "platform"}
    blocks = list(_timing_blocks(doc))
    assert blocks, f"{name} has no timing blocks"
    for where, block in blocks:
        assert isinstance(block, dict), f"{name}{where} is a bare number"
        assert {"median", "q1", "q3", "n"} <= set(block), f"{name}{where}"
        assert block["q1"] <= block["median"] <= block["q3"], f"{name}{where}"
        assert block["n"] >= 1


def test_committed_core_document_rows_are_traced_for_real():
    doc = json.loads((ROOT / "BENCH_core.json").read_text())
    rows = doc["workloads"]
    assert {n: r["simulated_cycles"] for n, r in rows.items()} == GOLDENS["corebench_cycles"]
    assert "traced_speedup" not in rows["E4_display_fast_io"]
    traced = [r for r in rows.values() if "traced_speedup" in r]
    assert traced
    for row in traced:
        assert row["trace_entries"] > 0
