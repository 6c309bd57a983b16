"""Golden-result corpus: the pipeline's results on seeded programs, recorded
once and compared on every run, so a change that moves any result fails.

Each seed gives one plain program and one crypt program (tests/progen.py,
with extras). The plain program runs as is; the crypt program runs in four
modes: encrypted, encrypted with --decrypt-loads, encrypted under a key
other than the one it loads, and encrypted with a limit of 5 + seed % 40
cycles, which most runs hit mid-flight. A seed of LONG_SEEDS also gives
one long_loop run, drawn from its own random.Random: a loop long enough
for the cycle loop to compile and replay its segments, plain or
encrypted, that halts, faults on a pointer that turns unaligned after
the replays began, or hits a limit among them. Every run stores the six
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
import pytest
from encmips import asm, pipeline

RESULTS = Path(__file__).parent / "golden" / "results.json"
SEEDS = range(400)
MAX_CYCLES = 2000
WRONG_KEY = 0x1F2E3D4C5B6A7988
MODES = ("plain", "encrypted", "decrypt_loads", "wrong_key", "cycle_limit")
LONG_SEEDS = range(40)
# a long loop's iterations: three times the visits that compile a segment, and more
LONG_ITERATIONS = 3 * pipeline._HOT_VISITS


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


def long_loop_run(seed: int):
    """The long_loop run of one seed: (image run, its plaintext image,
    run options) and its data memory entries. By seed it runs plain,
    encrypted or with decrypt_loads, and halts, faults in a load, in a
    store or in a store behind a stall, or stops at a cycle limit."""
    rng = random.Random(f"long_loop/{seed}")
    crypt = seed % 3 != 0
    stop = ("halt", "load", "store", "stall", "limit")[seed // 3 % 5]
    source = progen.gen_long_loop_program(
        rng, LONG_ITERATIONS + rng.randrange(20, 120), crypt,
        stop if stop in ("load", "store", "stall") else None)
    plain = asm.build_image(source)
    options = {"max_cycles": rng.randrange(1800, 3600) if stop == "limit" else 20_000}
    if seed % 3 == 2:
        options["decrypt_loads"] = True
    image = asm.encrypt_image(plain, progen.KEY) if crypt else plain
    return (image, plain, options), progen.long_loop_entries(rng)


# A loop closed by beq, whose body runs sub, and, or and sll: the rows
# gen_long_loop_program never puts in a replayed segment. It halts.
BEQ_LOOP = """\
addi $r1, $r0, 300
addi $r9, $r0, 1
addi $r2, $r0, 7
addi $r3, $r0, -3
L: sub $r5, $r2, $r3
and $r6, $r5, $r1
sll $r7, $r6, 2
or $r3, $r7, $r2
add $r4, $r4, $r3
addi $r2, $r2, 5
addi $r1, $r1, -1
slt $r6, $r1, $r9
beq $r6, $r0, L
sw $r4, 56($r0)
"""


def long_loop_records(traced: bool = True) -> dict:
    records = {}
    for seed in LONG_SEEDS:
        (image, _, options), entries = long_loop_run(seed)
        records[f"long_loop/{seed}"] = run_record(image, entries, traced=traced, **options)
    return records


def all_records(traced: bool = True) -> dict:
    records = {}
    for seed in SEEDS:
        records.update(seed_records(seed, traced))
    records.update(long_loop_records(traced))
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


def test_golden_results_unchanged_untraced(monkeypatch):
    # the corpus is recorded traced; untraced, the cycle loop must leave the
    # same state where it stops, having made no trace line from its locals,
    # also where it replayed compiled segments. No program of the five
    # seeded modes loops long enough to compile one.
    built, _ = progen.segments_built(monkeypatch)
    records = {}
    for seed in SEEDS:
        records.update(seed_records(seed, traced=False))
    assert not built
    records.update(long_loop_records(traced=False))
    _assert_unmoved(records, skip=("trace",))


def test_golden_results_unchanged_untraced_replaying_at_once(replay_at_once, monkeypatch):
    # with a configuration's second visit recording its segment, a loop
    # replays from its fourth pass: the seeded modes' loops of four passes
    # replay their last and stop at its guard, the long loops nearly all
    # of theirs. The untraced corpus must still leave what was recorded
    _, replays = progen.segments_built(monkeypatch)
    records = {}
    for seed in SEEDS:
        records.update(seed_records(seed, traced=False))
    assert len(replays) >= 250
    records.update(long_loop_records(traced=False))
    _assert_unmoved(records, skip=("trace",))


def _config(state) -> tuple:
    return state.pc, state.ifid, state.idex, state.exmem, state.memwb


def test_long_loops_replay_and_stop_inside_their_segments(monkeypatch):
    # the long_loop mode must judge the replay: most of its cycles replayed,
    # a segment that ends where it began ran many passes in one call, and a
    # replay stopped at a guard, before the cycle whose fault ends the run,
    # and short of a limit; a guard and a fault stopped one after a pass
    _, replays = progen.segments_built(monkeypatch)
    cycles = replayed = passes = 0
    stops, looped_stops = set(), set()
    for seed in LONG_SEEDS:
        (image, _, options), entries = long_loop_run(seed)
        del replays[:]
        state, stop = _run(image, entries, **options)
        cycles += state.stats.cycles
        replayed += sum(i * seg.n + k for seg, i, k in replays)
        passes = max([passes] + [i + (k == seg.n) for seg, i, k in replays])
        for seg, i, k in replays[:-1]:
            if k < seg.n:
                stops.add("guard")
                if i:
                    looped_stops.add("guard")
        if replays:
            seg, i, k = replays[-1]
            if k < seg.n:
                end = ("fault" if isinstance(stop, pipeline.Fault)
                       and _config(state) == seg.configs[k] else "guard")
                stops.add(end)
                if i:
                    looped_stops.add(end)
            if (isinstance(stop, pipeline.CycleLimitExceeded)
                    and any(_config(state) in seg.configs[1:-1] for seg, *_ in replays)):
                stops.add("limit")
    assert replayed >= cycles / 2
    assert stops == {"guard", "fault", "limit"}
    assert passes >= 2 and looped_stops == {"guard", "fault"}


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
            stepped, _ = _run(image, entries, stepped=True, **options)
            assert progen.full_state(state) == progen.full_state(stepped), f"{mode}/{seed}"
    assert stops == {"UnknownInstruction", "UnalignedAccess", "KeyNotLoaded",
                     "CycleLimitExceeded"}


class _SinkStop(Exception):
    pass


def _first_replay(monkeypatch, image, entries, max_cycles, **options):
    """The cycle count at the top of a run's first replay, and the segment
    it replays. That replay raises _SinkStop, so the cycle loop writes back
    the state it had there."""
    compile_segment = pipeline._segment

    def stopping(*args):
        seg = compile_segment(*args)

        def run(*run_args):
            raise _SinkStop(seg)

        seg.run = run
        return seg

    monkeypatch.setattr(pipeline, "_segment", stopping)
    state = _state(image, entries, **options)
    with pytest.raises(_SinkStop) as replay:
        pipeline.run(state, max_cycles=max_cycles)
    monkeypatch.undo()
    return state.stats.cycles, replay.value.args[0]


def test_every_stop_around_the_replays_is_a_stepped_runs_stop(monkeypatch):
    # run(max_cycles=k) replays the segments that fit under k and runs the
    # rest generically; step() never replays. For every k around the first
    # replays and the fault, k a few passes on into a segment that loops
    # (where the limit cuts its call), and seeded k elsewhere, both must
    # leave one state
    rng = random.Random(36)
    checked, ends, looped = 0, set(), 0
    # each image kind, fault kind and a halt; 16 and 24 loop in one call,
    # and so does BEQ_LOOP
    runs = [(f"long_loop/{seed}", *long_loop_run(seed)) for seed in (1, 3, 10, 16, 17, 23, 24)]
    runs.append(("beq_loop", (asm.build_image(BEQ_LOOP), None, {"max_cycles": 20_000}), []))
    for name, (image, _, options), entries in runs:
        options = dict(options)
        max_cycles = options.pop("max_cycles")
        end_state, end_stop = _run(image, entries, max_cycles, **options)
        end = end_state.stats.cycles
        first, seg = _first_replay(monkeypatch, image, entries, max_cycles, **options)
        if name == "beq_loop":
            rows = {slot.instr.spec.mnemonic for config in seg.configs[:-1]
                    for slot in config[1:5] if slot.kind is None}
            assert {"sub", "and", "or", "sll", "beq"} <= rows and seg.loops
        n, looped = seg.n, looped + (seg.loops and first + 40 * n < end)
        stops = {*range(first - 2, first + 2 * n + 3), *range(end - 2 * n - 2, end + 2),
                 *(first + m * n + j for m in (3, 10, 40) for j in (-1, 0, 1)),
                 *(rng.randrange(1, end + 2) for _ in range(10))}
        stepped = _state(image, entries, **options)
        for k in range(1, max(stops) + 1):
            try:
                pipeline.step(stepped)
            except pipeline.Fault:
                pass    # a faulted state raises its Fault again and clocks nothing
            if k in stops:
                state, _ = _run(image, entries, k, **options)
                assert progen.full_state(state) == progen.full_state(stepped), f"{name} k={k}"
                checked += 1
        ends.add(type(end_stop).__name__)
    assert ends == {"Fault", "NoneType"} and checked >= 250 and looped >= 3


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
                assert progen.full_state(state) == progen.full_state(stepped), \
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
    # seeds past the recorded ones, and the long loops, whose runs replay
    def runs():
        for seed in range(540):
            seeded, entries = seed_runs(seed)
            yield from ((f"{mode}/{seed}", run, entries) for mode, run in seeded.items())
        for seed in LONG_SEEDS:
            yield (f"long_loop/{seed}", *long_loop_run(seed))

    checked = []
    for what, (image, plaintext, options), entries in runs():
        state, stop = _run(image, entries, **options)
        if stop is not None or plaintext is None:
            continue
        ref = pipeline.reference_interpret(
            progen.memory(plaintext.entries), progen.memory(entries),
            decrypt_loads=options.get("decrypt_loads", False), record_retired=True)
        assert ref.retired_log == state.retired_log, what
        progen.assert_timing(state, ref, what)
        checked.append(what.split("/")[0])
    assert len(checked) >= 900 and checked.count("long_loop") >= 8


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
