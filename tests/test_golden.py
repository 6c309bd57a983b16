"""Golden-result corpus: the pipeline's results on seeded programs, recorded
once and compared on every run, so a change that moves any result fails.

Each seed gives one plain program and one crypt program (tests/progen.py,
with extras). The plain program runs as is; the crypt program runs in five
modes: encrypted, encrypted with --decrypt-loads, as a plaintext image with
the fetch decryptor off, encrypted under a key other than the one it loads,
and encrypted with a limit of 5 + seed % 40 cycles, which most runs hit
mid-flight. Every run stores the six statistics, a hash of the architectural
state, the fault (pc, cycle, cause class and text) or null, and hashes of
the retired log and of the full trace.

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
MODES = ("plain", "encrypted", "decrypt_loads", "crypt_fetch_off", "wrong_key",
         "cycle_limit")


def _hash(value) -> str:
    return hashlib.blake2b(repr(value).encode(), digest_size=8).hexdigest()


def run_record(image, entries, max_cycles=MAX_CYCLES, **kwargs) -> dict:
    """One run's record; the state is the one the run halted, faulted or hit
    its cycle limit in."""
    state = pipeline.CpuState(progen.memory(image.entries), progen.memory(entries),
                              record_retired=True, **kwargs)
    lines = []
    fault = None
    try:
        pipeline.run(state, max_cycles=max_cycles, trace=lines.append)
    except pipeline.Fault as exc:
        fault = [exc.pc, exc.cycle, type(exc.cause).__name__, str(exc.cause)]
    except pipeline.CycleLimitExceeded:
        fault = [state.pc, state.stats.cycles, "CycleLimitExceeded", ""]
    st = state.stats
    return {
        "stats": [st.cycles, st.retired, st.stalls, st.flushes,
                  st.crypt_fetches, st.encrypted_stores],
        "state": _hash((pipeline.architectural_state(state), state.pc)),
        "fault": fault,
        "retired": _hash(state.retired_log),
        "trace": _hash("\n".join(lines)),
    }


def seed_records(seed: int) -> dict:
    """The records of one seed's programs in every mode, keyed mode/seed."""
    rng = random.Random(seed)
    plain = progen.plant_unknown_word(
        rng, asm.build_image(progen.gen_program(rng, extras=True)))
    crypt = progen.plant_unknown_word(
        rng, asm.build_image(progen.gen_crypt_program(rng, extras=True)))
    entries = progen.gen_dmem_entries(rng, with_key=True, alt_key=True)
    encrypted = asm.encrypt_image(crypt, progen.KEY)
    runs = {
        "plain": run_record(plain, entries),
        "encrypted": run_record(encrypted, entries),
        "decrypt_loads": run_record(encrypted, entries, decrypt_loads=True),
        "crypt_fetch_off": run_record(crypt, entries, crypt_fetch=False),
        "wrong_key": run_record(asm.encrypt_image(crypt, WRONG_KEY), entries),
        "cycle_limit": run_record(encrypted, entries, max_cycles=5 + seed % 40),
    }
    return {f"{mode}/{seed}": runs[mode] for mode in MODES}


def all_records() -> dict:
    records = {}
    for seed in SEEDS:
        records.update(seed_records(seed))
    return records


def test_golden_results_unchanged():
    expected = json.loads(RESULTS.read_text())
    actual = all_records()
    assert sorted(actual) == sorted(expected)
    moved = [f"{key} {field}: {expected[key][field]} -> {actual[key][field]}"
             for key in expected for field in expected[key]
             if actual[key][field] != expected[key][field]]
    assert not moved, f"{len(moved)} results moved:\n" + "\n".join(moved[:20])


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
