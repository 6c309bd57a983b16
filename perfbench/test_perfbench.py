"""The benchmark's own checks: run with `python3 -m pytest -q perfbench`."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_package()

import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def small(monkeypatch):
    """Shrink the traced pass and its probes so one run takes seconds."""
    monkeypatch.setattr(run, "IMPORT_PROBES", 1)
    monkeypatch.setattr(run, "TRACED_JOBS", {"crypt_loop": 2, "plain_loop": 3,
                                             "fresh_programs": 12})
    monkeypatch.setattr(run, "HELDOUT_JOBS", {"crypt_loop": 1, "plain_loop": 1,
                                              "fresh_programs": 3})
    monkeypatch.setattr(workloads, "FRESH_POOL", 40)


def test_wrappers_are_gone_after_the_traced_pass(small):
    originals = [getattr(owner, attr) for owner, attr, _ in tracer.SPANS + tracer.COUNTERS]
    ledger, metrics, _ = run.per_layer("crypt_loop", 3)
    assert ledger.failed == 0
    assert tracer.wrapped_attributes() == []
    assert [getattr(owner, attr) for owner, attr, _ in
            tracer.SPANS + tracer.COUNTERS] == originals
    assert metrics["des.decrypts_per_block"][0] > 100


def test_wrappers_are_gone_when_a_job_raises():
    tr = tracer.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tr.installed():
            workloads.des.key_schedule(1)
            1 / 0
    assert tracer.wrapped_attributes() == []
    assert tr.summary().calls_of("job", "des.key_schedule") == 1


def test_self_times_never_exceed_their_parent_span(small):
    tr = tracer.Tracer()
    wl = workloads.make_workload("fresh_programs", 5, pool=6)
    with tr.installed():
        for job in wl.jobs:
            with tr.span("job"):
                assert not wl.run_job(job).errors
    records = tr.records
    child = [0.0] * len(records)
    for name, start, end, parent, _ in records:
        if parent >= 0:
            child[parent] += end - start
    assert len(records) > 1000
    for index, (name, start, end, parent, _) in enumerate(records):
        own = end - start - child[index]
        assert own >= 0, name
        if parent >= 0:
            p_start, p_end = records[parent][1:3]
            assert p_start <= start <= end <= p_end
            assert own <= p_end - p_start
    assert tr.summary().violations == 0


def test_per_layer_counts_repeat_for_one_seed(small):
    def counts():
        ledger, metrics, _ = run.per_layer("fresh_programs", 11)
        assert ledger.failed == 0
        return {k: v for k, (v, unit) in metrics.items() if unit == "count"}

    first, second = counts(), counts()
    assert first == second
    assert first["des.decrypt_calls"] > 0 and first["isa.encode_calls"] > 0


def test_decrypts_per_block_by_workload(small):
    def ratio(name):
        ledger, metrics, _ = run.per_layer(name, 2)
        assert ledger.failed == 0
        return metrics["des.decrypts_per_block"][0], metrics["des.decrypt_calls"][0]

    assert ratio("plain_loop") == (0.0, 0.0)
    fresh, _ = ratio("fresh_programs")
    assert 0.8 <= fresh <= 1.1


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_jobs_pass_their_checks_and_repeat(name):
    wl = workloads.make_workload(name, 9, pool=5)
    first = [wl.run_job(job) for job in wl.jobs]
    again = [wl.run_job(job) for job in wl.jobs]
    assert all(not r.errors for r in first)
    assert [r.stats for r in first] == [r.stats for r in again]
    assert workloads.make_workload(name, 9, pool=5).digest == wl.digest
    assert workloads.make_workload(name, 10, pool=5).digest != wl.digest


def test_loop_check_catches_a_wrong_stat():
    job = workloads.make_loop_input(1, crypt=True, n=5)
    state = workloads.pipeline.CpuState(workloads._memory(job.image),
                                        workloads._memory(job.data))
    workloads.pipeline.run(state)
    assert workloads.check_loop(job, state, state.stats) == []
    state.stats.flushes += 1
    assert workloads.check_loop(job, state, state.stats)


def test_tail_percentile_leaves_ten_jobs_beyond_it():
    for n in (20, 57, 100, 101, 999, 2500):
        pct = run.tail_percentile(n)
        times = list(range(n))
        assert sum(t > run.nearest_rank(times, pct) for t in times) >= 10
        assert sum(t > run.nearest_rank(times, pct + 1) for t in times) < 10


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "work"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "crypt_loop", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


def test_windowed_tail_is_the_median_of_window_tails():
    assert [len(w) for w in run.tail_windows(57)] == [57]
    assert [len(w) for w in run.tail_windows(250)] == [run.TAIL_WINDOW] * 2
    quiet = [1.0] * 89 + [2.0] * 11
    burst = [1.0] * 50 + [50.0] * 50        # a slow spell inside one window
    assert run.windowed_tail(quiet * 2 + burst) == 2.0
    assert run.windowed_tail(quiet * 2 + burst + [99.0] * 5) == 2.0
