"""Golden-result corpus: the pipeline's results on seeded programs, recorded
once and compared on every run, so a change that moves any result fails.

Each seed gives one plain program and one crypt program (tests/progen.py,
with extras). The plain program runs as is; the crypt program runs in four
modes: encrypted, encrypted with --decrypt-loads, encrypted under a key
other than the one it loads, and encrypted with a limit of 5 + seed % 40
cycles, which most runs hit mid-flight. Every run stores the six
statistics, a hash of the architectural state, the fault (pc, cycle, cause
class and text) or null, and hashes of the retired log and of the full
trace. The records are recorded from traced
runs; the same runs untraced must match them in every field but the trace:
traced or not, the cycle loop writes its state back only where it stops, and
a trace line is made from the loop's locals. The halting
runs that have a plaintext image also check the timing model of
tests/progen.py against the reference interpreter.

`tests/golden/results.json` may change only with a stated reason for each
result that moved. To record it again:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import progen
from encmips import asm, pipeline

RESULTS = Path(__file__).parent / "golden" / "results.json"
SEEDS = range(400)
MAX_CYCLES = 2000
WRONG_KEY = 0x1F2E3D4C5B6A7988
MODES = ("plain", "encrypted", "decrypt_loads", "wrong_key", "cycle_limit")


def _hash(value) -> str:
    return hashlib.blake2b(repr(value).encode(), digest_size=8).hexdigest()


def _state(image, entries, **kwargs):
    """A fresh core with image in imem and entries in dmem."""
    return pipeline.CpuState(progen.memory(image.entries), progen.memory(entries),
                             record_retired=True, **kwargs)


def _run(image, entries, max_cycles=MAX_CYCLES, trace=None, stepped=False,
         **kwargs):
    """The state a pipeline run of image leaves, and the Fault or
    CycleLimitExceeded it stopped with (None for a halt). stepped runs it
    as a loop of pipeline.step, one call per cycle, instead of one call
    of pipeline.run."""
    state = _state(image, entries, **kwargs)
    try:
        if stepped:
            while not state.halted:
                if state.stats.cycles >= max_cycles:
                    raise pipeline.CycleLimitExceeded(state, max_cycles)
                pipeline.step(state)
        else:
            pipeline.run(state, max_cycles=max_cycles, trace=trace)
    except (pipeline.Fault, pipeline.CycleLimitExceeded) as exc:
        return state, exc
    return state, None


def run_record(image, entries, max_cycles=MAX_CYCLES, traced=True, **kwargs) -> dict:
    """One run's record; the state is the one the run halted, faulted or hit
    its cycle limit in. An untraced run records no trace hash."""
    lines = []
    state, stop = _run(image, entries, max_cycles,
                       lines.append if traced else None, **kwargs)
    fault = None
    if isinstance(stop, pipeline.Fault):
        fault = [stop.pc, stop.cycle, type(stop.cause).__name__, str(stop.cause)]
    elif stop is not None:
        fault = [state.pc, state.stats.cycles, "CycleLimitExceeded", ""]
    st = state.stats
    return {
        "stats": [st.cycles, st.retired, st.stalls, st.flushes,
                  st.crypt_fetches, st.encrypted_stores],
        "state": _hash((pipeline.architectural_state(state), state.pc)),
        "fault": fault,
        "retired": _hash(state.retired_log),
        "trace": _hash("\n".join(lines)) if traced else None,
    }


def seed_runs(seed: int):
    """One seed's runs, mode -> (image run, its plaintext image or None,
    run options), and the data memory entries they all start from."""
    rng = random.Random(seed)
    plain = progen.plant_unknown_word(
        rng, asm.build_image(progen.gen_program(rng, extras=True)))
    crypt = progen.plant_unknown_word(
        rng, asm.build_image(progen.gen_crypt_program(rng, extras=True)))
    entries = progen.gen_dmem_entries(rng, with_key=True, alt_key=True)
    encrypted = asm.encrypt_image(crypt, progen.KEY)
    return {
        "plain": (plain, plain, {}),
        "encrypted": (encrypted, crypt, {}),
        "decrypt_loads": (encrypted, crypt, {"decrypt_loads": True}),
        # the oracle cannot fetch what a wrong key decrypts
        "wrong_key": (asm.encrypt_image(crypt, WRONG_KEY), None, {}),
        "cycle_limit": (encrypted, crypt, {"max_cycles": 5 + seed % 40}),
    }, entries


def seed_records(seed: int, traced: bool = True) -> dict:
    """The records of one seed's programs in every mode, keyed mode/seed."""
    runs, entries = seed_runs(seed)
    return {f"{mode}/{seed}": run_record(image, entries, traced=traced, **options)
            for mode, (image, _, options) in runs.items()}


def all_records(traced: bool = True) -> dict:
    records = {}
    for seed in SEEDS:
        records.update(seed_records(seed, traced))
    return records


def _assert_unmoved(actual: dict, skip=()) -> None:
    expected = json.loads(RESULTS.read_text())
    assert sorted(actual) == sorted(expected)
    moved = [f"{key} {field}: {expected[key][field]} -> {actual[key][field]}"
             for key in expected for field in expected[key]
             if field not in skip and actual[key][field] != expected[key][field]]
    assert not moved, f"{len(moved)} results moved:\n" + "\n".join(moved[:20])


def test_golden_results_unchanged():
    _assert_unmoved(all_records())


def test_golden_results_unchanged_untraced():
    # the corpus is recorded traced; untraced, the cycle loop must leave the
    # same state where it stops, having made no trace line from its locals
    _assert_unmoved(all_records(traced=False), skip=("trace",))


def _latch(value):
    """A latch as a comparable value: the bubble's kind, or the slot's
    fields."""
    if value.instr is None:
        return value.kind
    return value.pc, value.word, value.dest


def _full_state(state, stop) -> tuple:
    st = state.stats
    return (tuple(_latch(latch) for latch in
                  (state.ifid, state.idex, state.exmem, state.memwb)),
            (state.idex_mode, state.exmem_mode, state.exmem_alu, state.memwb_alu),
            state.pc, state.crypt_mode, state.halted,
            (st.cycles, st.retired, st.stalls, st.flushes, st.crypt_fetches,
             st.encrypted_stores),
            state.retired_log, pipeline.architectural_state(state),
            type(stop).__name__, getattr(stop, "pc", None), getattr(stop, "cycle", None))


def test_run_leaves_the_state_a_loop_of_step_leaves():
    # run() keeps the latches, pc and counters in locals for the whole run
    # and step() for one cycle; each writes them back where it stops
    stops = set()
    for seed in SEEDS[::4]:
        runs, entries = seed_runs(seed)
        for mode, (image, _, options) in runs.items():
            state, stop = _run(image, entries, **options)
            if stop is None:
                continue
            stops.add(type(getattr(stop, "cause", stop)).__name__)
            assert (_full_state(state, stop)
                    == _full_state(*_run(image, entries, stepped=True, **options))), \
                f"{mode}/{seed}"
    assert stops == {"UnknownInstruction", "UnalignedAccess", "KeyNotLoaded",
                     "CycleLimitExceeded"}


class _SinkStop(Exception):
    pass


def test_a_raising_trace_sink_leaves_the_state_its_cycle_left():
    # the cycle loop writes its state back only in its finally, so a sink
    # that raises on cycle k's line leaves what k calls of step leave
    checked = 0
    for seed in SEEDS[::14]:
        runs, entries = seed_runs(seed)
        for mode, (image, _, options) in runs.items():
            options = dict(options)
            max_cycles = options.pop("max_cycles", MAX_CYCLES)
            for k in (1, 7, 23):
                lines = []

                def sink(line):
                    lines.append(line)
                    if len(lines) == k:
                        raise _SinkStop

                state = _state(image, entries, **options)
                try:
                    pipeline.run(state, max_cycles=max_cycles, trace=sink)
                except (_SinkStop, pipeline.Fault, pipeline.CycleLimitExceeded):
                    pass
                if len(lines) < k:
                    continue    # the run stopped before line k
                stepped = _state(image, entries, **options)
                for _ in range(k):
                    pipeline.step(stepped)
                assert _full_state(state, None) == _full_state(stepped, None), \
                    f"{mode}/{seed} k={k}"
                checked += 1
    assert checked >= 300


def _traced_lines(state, max_cycles):
    """The trace lines a run of state prints up to where it stops."""
    lines = []
    try:
        pipeline.run(state, max_cycles=max_cycles, trace=lines.append)
    except (pipeline.Fault, pipeline.CycleLimitExceeded):
        pass
    return lines


def test_a_traced_run_after_step_prints_the_rest_of_the_trace():
    # a traced run's first "before" is the state it starts from, so after k
    # calls of step it prints lines k+1 onwards of the run traced from cycle 1
    checked = 0
    for seed in SEEDS[::14]:
        runs, entries = seed_runs(seed)
        for mode, (image, _, options) in runs.items():
            options = dict(options)
            max_cycles = options.pop("max_cycles", MAX_CYCLES)
            full = _traced_lines(_state(image, entries, **options), max_cycles)
            for k in (1, 7, 23):
                if len(full) <= k:
                    continue    # the run stopped by cycle k
                state = _state(image, entries, **options)
                for _ in range(k):
                    pipeline.step(state)
                assert _traced_lines(state, max_cycles) == full[k:], f"{mode}/{seed} k={k}"
                checked += 1
    assert checked >= 300


def test_timing_model_predicts_every_halting_run():
    # the oracle runs the plaintext image; a wrong key's run has none. The
    # oracle is the reference here, not results.json, so this test samples
    # seeds past the recorded ones
    checked = 0
    for seed in range(540):
        runs, entries = seed_runs(seed)
        for mode, (image, plaintext, options) in runs.items():
            state, stop = _run(image, entries, **options)
            if stop is not None or plaintext is None:
                continue
            ref = pipeline.reference_interpret(
                progen.memory(plaintext.entries), progen.memory(entries),
                decrypt_loads=options.get("decrypt_loads", False), record_retired=True)
            assert ref.retired_log == state.retired_log, f"{mode}/{seed}"
            progen.assert_timing(state.stats, ref, f"{mode}/{seed}")
            checked += 1
    assert checked >= 900


def test_golden_corpus_reaches_its_corners():
    # the corpus is only as strong as the cases it holds
    expected = json.loads(RESULTS.read_text())
    faults = [r["fault"] for r in expected.values() if r["fault"] is not None]
    causes = {fault[2] for fault in faults}
    assert {"UnknownInstruction", "UnalignedAccess", "KeyNotLoaded",
            "CycleLimitExceeded"} <= causes
    for mode in MODES:
        runs = [r for key, r in expected.items() if key.startswith(mode + "/")]
        assert len(runs) >= 300
        assert any(r["fault"] is None for r in runs), mode


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    records = all_records()
    RESULTS.write_text("{\n" + ",\n".join(
        f"{json.dumps(key)}: {json.dumps(records[key])}" for key in sorted(records))
        + "\n}\n")
    print(f"wrote {RESULTS}")
