"""Layered host-time benchmark for encmips; see README.md in this directory.

    python3 perfbench/run.py --workload crypt_loop --seed 1 --seconds 25 --trace 0

Runs one workload as a closed loop (one client; the next job starts when
the previous one ends) in this process, checks every job's output, and
prints a details object and then, as the last line, the result:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones, measured with no wrappers installed; with
--trace 1 they are the per-layer ones from a traced pass. Set-up and
import times come from fresh interpreters started one at a time.

Host time is what the simulator takes on the machine running it;
simulated time is cycles of the modelled pipeline.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

SETUP_PROBES = 5          # fresh interpreters timed from start to first job
IMPORT_PROBES = 3         # fresh interpreters timed around `import encmips`
MIN_JOBS = {"crypt_loop": 40, "plain_loop": 40, "fresh_programs": 200}
WARMUP_JOBS = {"crypt_loop": 1, "plain_loop": 1, "fresh_programs": 20}
HELDOUT_JOBS = {"crypt_loop": 2, "plain_loop": 4, "fresh_programs": 40}
TRACED_JOBS = {"crypt_loop": 8, "plain_loop": 30, "fresh_programs": 200}
TAIL_WINDOW = 100         # jobs per window of job_ms_tail (p90 within a window)
KNOWN_GAPS = [
    "pipeline._decode binds isa.decode at import, so decode time inside "
    "the pipeline stays in pipeline.step self time and cannot be told "
    "apart from decode calls made elsewhere",
]


def load_package() -> float:
    """Import encmips from this checkout's src; returns the import's host seconds.

    The benchmark's modules that import encmips (workloads, tracer) are
    imported only after this call.
    """
    if not (SRC / "encmips" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'encmips'} not found; run from a checkout "
                 "of the repository")
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    package = importlib.import_module("encmips")
    elapsed = perf_counter() - start
    if Path(package.__file__).resolve().parent != SRC / "encmips":
        sys.exit(f"error: imported encmips from {package.__file__}, not {SRC}")
    return elapsed


# -------------------------------------------------------------------- jobs


class Ledger:
    """Counts attempted and failed jobs; prints the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, label: str, fn, *args):
        """Run one job; returns its JobResult, or None when it raised."""
        self.attempted += 1
        try:
            result = fn(*args)
        except Exception:  # a job boundary: count it, report it, go on
            self.fail(f"{label} job raised:\n{traceback.format_exc()}")
            return None
        if result.errors:
            self.fail(f"{label} job failed checks: {result.errors}")
        return result

    def fail(self, message: str) -> None:
        self.failed += 1
        if self.failed <= 3:
            print(message, file=sys.stderr)


def prepare(name: str, seed: int, ledger: Ledger):
    """Everything before the first timed job: inputs, assembly, warm-up."""
    import workloads

    wl = workloads.make_workload(name, seed)
    warm = wl
    if name == "fresh_programs":   # warm up on other programs: timed ones stay fresh
        warm = workloads.make_workload(
            name, workloads.derived_seed(seed, "warmup"), pool=WARMUP_JOBS[name])
    run_jobs(warm, WARMUP_JOBS[name], ledger)
    return wl


def run_jobs(wl, count: int, ledger: Ledger) -> list:
    return [ledger.run(wl.name, wl.run_job, wl.jobs[i % len(wl.jobs)])
            for i in range(count)]


def timed_jobs(wl, seconds: float, min_jobs: int, ledger: Ledger) -> dict:
    """Closed loop over the workload's jobs for `seconds` of host time.

    A calibration sample is taken before the first job and after every
    job, outside the jobs' own times; job i is scaled by the mean of the
    samples on either side of it.
    """
    times, cycles, retired, kernel = [], [], [], [calibration.sample()]
    start = end = perf_counter()
    deadline = start + seconds
    while end < deadline or len(times) < min_jobs:
        job = wl.jobs[len(times) % len(wl.jobs)]
        t0 = perf_counter()
        result = ledger.run(wl.name, wl.run_job, job)
        end = perf_counter()
        kernel.append(calibration.sample())
        times.append(end - t0)
        cycles.append(result.stats.cycles if result else 0)
        retired.append(result.stats.retired if result else 0)
    scaled = [t * calibration.scale((k0 + k1) / 2)
              for t, k0, k1 in zip(times, kernel, kernel[1:])]
    return {"times": times, "scaled": scaled, "cycles": cycles, "retired": retired,
            "kernel": kernel, "elapsed": perf_counter() - start,
            "wraps": (len(times) - 1) // len(wl.jobs)}


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten jobs beyond it."""
    return max(0, math.floor(100 * (n - 10) / n))


def nearest_rank(values, pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def tail_windows(n: int) -> list:
    """Consecutive windows of TAIL_WINDOW job indices (one window of all n
    jobs when there are fewer); jobs after the last full window are left out."""
    size = min(n, TAIL_WINDOW)
    return [range(i, i + size) for i in range(0, n - size + 1, size)]


def windowed_tail(times) -> float:
    """Median over the windows of each window's tail job time.

    A slow spell of the shared host that lasts a few jobs lifts the tail of
    the windows it falls in, not the median of them all.
    """
    windows = tail_windows(len(times))
    pct = tail_percentile(len(windows[0]))
    return statistics.median(nearest_rank([times[i] for i in w], pct) for w in windows)


def job_figures(times, cycles) -> dict:
    busy = sum(times)
    return {"jobs_per_s": len(times) / busy, "sim_cycles_per_s": sum(cycles) / busy,
            "job_ms_p50": statistics.median(times) * 1e3,
            "job_ms_tail": windowed_tail(times) * 1e3}


def heldout_run(name: str, seed: int, ledger: Ledger) -> dict:
    """A few jobs of a second seed, derived from the first, beside the main run."""
    import workloads

    hseed = workloads.derived_seed(seed, "heldout")
    count = HELDOUT_JOBS[name]
    wl = workloads.make_workload(name, hseed, pool=count)
    failed_before = ledger.failed
    start = perf_counter()
    results = [r for r in run_jobs(wl, count, ledger) if r]
    elapsed = perf_counter() - start
    cycles = sum(r.stats.cycles for r in results)
    return {"seed": hseed, "jobs": count, "failed": ledger.failed - failed_before,
            "unscaled_jobs_per_s": count / elapsed,
            "unscaled_sim_cycles_per_s": cycles / elapsed,
            "sim_cpi": _ratio(cycles, sum(r.stats.retired for r in results))}


@contextlib.contextmanager
def scaled_timer():
    """Host seconds of the block, scaled by calibration samples taken just
    before and after it, in out["s"]."""
    out = {}
    before = statistics.median(calibration.sample() for _ in range(5))
    start = perf_counter()
    yield out
    elapsed = perf_counter() - start
    after = statistics.median(calibration.sample() for _ in range(5))
    out["s"] = elapsed * calibration.scale((before + after) / 2)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# ------------------------------------------------------ fresh interpreters


def probe(name: str, seed: int, repeats: int, mode: str, ledger: Ledger) -> dict:
    """Time `repeats` fresh interpreters, one after another.

    Mode "setup" runs `prepare` in the child, so the host time from
    process start to its "ready" line, less the child's calibration
    samples, is the set-up a user pays before the first job. "scaled"
    holds those times scaled by the child's own calibration samples.
    Each child also reports its import time and an input digest.
    """
    raw, scaled, imports, digests = [], [], [], []
    for _ in range(repeats):
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(seed), "--probe", mode]
        ledger.attempted += 1
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = perf_counter()
            proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        fields = line.split()
        if proc.returncode != 0 or len(fields) != 6 or fields[0] != "ready" \
                or fields[3] != "0":
            ledger.fail(f"{mode} probe failed: exit {proc.returncode}, {line!r}")
            continue
        kernel_s, kernel_spent = float(fields[4]), float(fields[5])
        raw.append(ready - start - kernel_spent)
        scaled.append(raw[-1] * calibration.scale(kernel_s))
        imports.append(float(fields[1]))
        digests.append(fields[2])
    return {"raw": raw, "scaled": scaled, "imports": imports, "digests": digests}


def child_probe(name: str, seed: int, mode: str, import_s: float) -> None:
    """The child side of `probe`: set up, then print one "ready" line."""
    ledger = Ledger()
    kernel = [calibration.sample()]
    digest = prepare(name, seed, ledger).digest if mode == "setup" else "-"
    kernel.append(calibration.sample())
    print(f"ready {import_s!r} {digest} {ledger.failed} {statistics.mean(kernel)!r} "
          f"{sum(kernel)!r}", flush=True)


# ----------------------------------------------------------------- trace 0


def end_to_end(name: str, seed: int, seconds: float) -> tuple:
    ledger = Ledger()
    probes = probe(name, seed, SETUP_PROBES, "setup", ledger)
    start = perf_counter()
    wl = prepare(name, seed, ledger)
    setup_in_process = perf_counter() - start
    if any(d != wl.digest for d in probes["digests"]):
        ledger.fail("setup probes generated other inputs for the same seed")

    gc.freeze()   # the input pool is the benchmark's, not the simulator's, garbage
    run = timed_jobs(wl, seconds, MIN_JOBS[name], ledger)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    heldout = heldout_run(name, seed, ledger)

    n = len(run["times"])
    windows = tail_windows(n)
    figures = job_figures(run["scaled"], run["cycles"])
    prefix = MIN_JOBS[name]   # a fixed prefix, so sim_cpi repeats exactly
    metrics = {
        "sim_cycles_per_s": (figures["sim_cycles_per_s"], "cycles/s"),
        "jobs_per_s": (figures["jobs_per_s"], "1/s"),
        "job_ms_p50": (figures["job_ms_p50"], "ms"),
        "job_ms_tail": (figures["job_ms_tail"], "ms"),
        "setup_s": (statistics.median(probes["scaled"]) if probes["scaled"] else 0.0, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "sim_cpi": (_ratio(sum(run["cycles"][:prefix]), sum(run["retired"][:prefix])),
                    "cycles/instr"),
    }
    kernel_ms = sorted(k * 1e3 for k in run["kernel"])
    details = {
        "timed_jobs": n,
        "job_ms_tail_percentile": tail_percentile(len(windows[0])),
        "job_ms_tail_window_jobs": len(windows[0]),
        "job_ms_tail_windows": len(windows),
        "job_ms_tail_whole_run": nearest_rank(run["scaled"], tail_percentile(n)) * 1e3,
        "job_ms_tail_whole_run_percentile": tail_percentile(n),
        "host_seconds": run["elapsed"],
        "calibration_ms": {"reference": calibration.REFERENCE_S * 1e3,
                           "min": kernel_ms[0], "median": statistics.median(kernel_ms),
                           "max": kernel_ms[-1]},
        "unscaled": dict(job_figures(run["times"], run["cycles"]),
                         setup_s=statistics.median(probes["raw"]) if probes["raw"] else 0.0),
        "sim_cpi_first_jobs": prefix,
        "pool_wraps": run["wraps"],
        "setup_s_samples": probes["scaled"],
        "setup_in_process_s": setup_in_process,
        "import_ms_samples": [s * 1e3 for s in probes["imports"]],
        "heldout": heldout,
    }
    return ledger, metrics, details


# ----------------------------------------------------------------- trace 1


def per_layer(name: str, seed: int) -> tuple:
    import tracer as tracing
    import workloads

    ledger = Ledger()
    imports = probe(name, seed, IMPORT_PROBES, "import", ledger)
    wl = prepare(name, seed, ledger)
    count = TRACED_JOBS[name]
    untraced_wl = traced_wl = wl
    if name == "fresh_programs":   # two disjoint batches, so neither warms the other
        untraced_wl, traced_wl = (
            workloads.make_workload(name, workloads.derived_seed(seed, stream), pool=count)
            for stream in ("untraced", "traced"))
    crypt_loop = workloads.make_loop_input(seed, crypt=True)
    cli_files = workloads.write_loop_files(crypt_loop, WORK)
    gc.freeze()

    with scaled_timer() as untraced:
        run_jobs(untraced_wl, count, ledger)

    tr = tracing.Tracer()
    try:
        with tr.installed():
            if name != "fresh_programs":   # the loops assemble once, in set-up
                with tr.span("setup", scope="setup"):
                    built = workloads.make_loop_input(seed, crypt=name == "crypt_loop")
                    tr.count("source_lines", built.source_lines)
                    tr.count("encrypted_blocks", workloads.encrypted_blocks(built.image))
            with scaled_timer() as traced:
                for i in range(count):
                    with tr.span("job", scope="job"):
                        result = ledger.run(name, traced_wl.run_job,
                                            traced_wl.jobs[i % len(traced_wl.jobs)])
                    if result:
                        tr.count("encrypted_blocks", result.encrypted_blocks)
                        tr.count("source_lines", result.source_lines)
                        tr.count("hex_blocks", result.hex_blocks)
                        tr.count("interp_executed", result.interp_executed)
                        tr.count("cycles", result.stats.cycles)
            with tr.span("cli", scope="cli"):
                ledger.run("cli", workloads.run_cli_job, crypt_loop, *cli_files)
            with tr.span("trace_line", scope="trace_line"):
                ledger.run("trace_line", workloads.run_loop_job, crypt_loop, [])
    finally:
        for path in cli_files:
            path.unlink()
    left = tracing.wrapped_attributes()
    if left:
        ledger.fail(f"wrappers left in place after the traced pass: {left}")
    summary = tr.summary()
    if summary.violations:
        ledger.fail(f"{summary.violations} spans with self time above their parent")
    heldout = heldout_run(name, seed, ledger)

    untraced_jps, traced_jps = count / untraced["s"], count / traced["s"]
    metrics = layer_metrics(tr, summary, count,
                            "job" if name == "fresh_programs" else "setup")
    metrics["import_ms"] = (statistics.median(imports["imports"]) * 1e3
                            if imports["imports"] else 0.0, "ms")
    metrics["tracing.overhead_jobs_per_s"] = (untraced_jps - traced_jps, "1/s")
    details = {
        "traced_jobs": count,
        "scaled_to_calibration": ["untraced_jobs_per_s", "traced_jobs_per_s",
                                  "tracing.overhead_jobs_per_s"],
        "untraced_jobs_per_s": untraced_jps,
        "traced_jobs_per_s": traced_jps,
        "spans": len(tr.records),
        "span_self_time_violations": summary.violations,
        "layer_table": [
            {"scope": s, "span": n, "parent": p, "calls": summary.calls[s, n, p],
             "total_s": summary.total[s, n, p], "self_s": summary.self_time[s, n, p]}
            for (s, n, p) in sorted(summary.calls)],
        "counters": [{"scope": s, "name": n, "parent": p, "count": c}
                     for (s, n, p), c in sorted(tr.counts.items())],
        "heldout": heldout,
        "known_gaps": KNOWN_GAPS,
    }
    return ledger, metrics, details


def layer_metrics(tr, sm, jobs: int, asm_scope: str) -> dict:
    """Per-layer figures of the traced pass. Counts are per traced job;
    times are host time with the wrappers' own cost included."""
    J = "job"
    job_s = sm.total_of(J, "job")
    des_names = ("des.decrypt_block", "des.encrypt_block", "des.key_schedule")
    step = ("pipeline.step",)
    interp = ("pipeline.reference_interpret",)
    pipeline_self = (sm.self_of(J, "pipeline.run", "pipeline.step", "pipeline.fetch_word")
                     + sm.self_of(J, "pipeline.mem_stage", parent=step))
    interp_self = (sm.self_of(J, *interp)
                   + sm.self_of(J, "pipeline.mem_stage", parent=interp))
    asm_names = ("asm.build_image", "asm.parse", "asm.assemble",
                 "asm.encrypt_image", "asm.write_hex", "asm.read_hex")

    def us_per_call(scope, names, self_time=False, parent=None):
        spent = (sm.self_of if self_time else sm.total_of)(scope, *names, parent=parent)
        return _ratio(spent, sm.calls_of(scope, *names, parent=parent)) * 1e6

    def per_job(name):
        return sm.calls_of(J, name) / jobs

    return {
        "des.decrypt_calls": (per_job("des.decrypt_block"), "count"),
        "des.encrypt_calls": (per_job("des.encrypt_block"), "count"),
        "des.key_schedule_calls": (per_job("des.key_schedule"), "count"),
        "des.decrypts_per_block": (_ratio(sm.calls_of(J, "des.decrypt_block"),
                                          tr.counted(J, "encrypted_blocks")), "ratio"),
        "des.block_us": (us_per_call(J, ("des.decrypt_block", "des.encrypt_block")), "us"),
        "des.key_schedule_us": (us_per_call(J, ("des.key_schedule",)), "us"),
        "des.share": (_ratio(sm.total_of(J, *des_names), job_s), "ratio"),
        "pipeline.step_us": (us_per_call(J, step, True), "us"),
        "pipeline.fetch_word_us": (us_per_call(J, ("pipeline.fetch_word",), True), "us"),
        "pipeline.mem_stage_us": (us_per_call(J, ("pipeline.mem_stage",), True, step), "us"),
        "pipeline.share": (_ratio(pipeline_self, job_s), "ratio"),
        "pipeline.interp_instr_per_s": (_ratio(tr.counted(J, "interp_executed"),
                                               sm.total_of(J, *interp)), "instr/s"),
        "pipeline.interp_share": (_ratio(interp_self, job_s), "ratio"),
        "pipeline.trace_line_us": (us_per_call("trace_line",
                                               ("pipeline.format_trace_line",)), "us"),
        "asm.lines_per_s": (_ratio(tr.counted(asm_scope, "source_lines"),
                                   sm.total_of(asm_scope, "asm.parse", "asm.assemble")),
                            "lines/s"),
        "asm.encrypt_image_us_per_block": (
            _ratio(sm.total_of(asm_scope, "asm.encrypt_image"),
                   tr.counted(asm_scope, "encrypted_blocks")) * 1e6, "us"),
        "asm.hex_us_per_block": (_ratio(sm.total_of(J, "asm.write_hex", "asm.read_hex"),
                                        tr.counted(J, "hex_blocks")) * 1e6, "us"),
        "asm.share": (_ratio(sm.self_of(J, *asm_names), job_s), "ratio"),
        "isa.encode_calls": (per_job("isa.encode"), "count"),
        "isa.encode_us": (us_per_call(asm_scope, ("isa.encode",)), "us"),
        "machine.load_image_us_per_block": (
            _ratio(sm.total_of(J, "machine.load_image"),
                   tr.counted(J, "machine.write_block", parent="machine.load_image"))
            * 1e6, "us"),
        "machine.read_block_calls": (tr.counted(J, "machine.read_block") / jobs, "count"),
        "machine.write_block_calls": (tr.counted(J, "machine.write_block") / jobs, "count"),
        "sim_cycles_per_job": (tr.counted(J, "cycles") / jobs, "count"),
        "cli.self_ms": (sm.self_of("cli", "cli.main") * 1e3, "ms"),
    }


# -------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="host seconds of timed jobs; --trace 1 runs a fixed "
                             "batch instead, so that its counts repeat exactly")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "import"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_s = load_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.probe:
        child_probe(args.workload, args.seed, args.probe, import_s)
        return 0
    if args.trace:
        ledger, metrics, details = per_layer(args.workload, args.seed)
    else:
        ledger, metrics, details = end_to_end(args.workload, args.seed, args.seconds)
    details.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "cores": os.cpu_count(),
        "python": platform.python_version(), "platform": platform.platform(),
        "loop": "closed, one client, one process",
        "error_rate": ledger.failed / ledger.attempted,
    })
    correct = ledger.failed == 0
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
