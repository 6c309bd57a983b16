"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
"""

import functools
import random
import time

import progen
import worked
from encmips import asm, cli, des, pipeline


def criterion(number, name):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} ({name}): FAIL")
                raise
            elapsed = time.monotonic() - start
            print(f"\nACCEPTANCE {number} ({name}): PASS [{elapsed:.2f}s]")
        return inner
    return wrap


@criterion(1, "DES correctness, property-based + known answers")
def test_criterion_1_des():
    start = time.monotonic()

    # classic walkthrough vector, cross-checked against an independent
    # implementation (3DES with three equal keys degenerates to DES)
    from cryptography.hazmat.decrepit.ciphers.algorithms import TripleDES
    from cryptography.hazmat.primitives.ciphers import Cipher, modes

    def oracle(key, block):
        enc = Cipher(TripleDES(key.to_bytes(8, "big") * 3), modes.ECB()).encryptor()
        return int.from_bytes(enc.update(block.to_bytes(8, "big")), "big")

    key, pt, ct = 0x133457799BBCDFF1, 0x0123456789ABCDEF, 0x85E813540F0AB405
    assert oracle(key, pt) == ct
    assert des.encrypt_block(pt, des.key_schedule(key)) == ct

    rng = random.Random(0xDE5)

    # round-trip on 10^4 random (key, block) pairs
    for _ in range(10_000):
        k, x = rng.getrandbits(64), rng.getrandbits(64)
        sched = des.key_schedule(k)
        assert des.decrypt_block(des.encrypt_block(x, sched), sched) == x

    # complementation property on 10^3 pairs
    full = 0xFFFFFFFFFFFFFFFF
    for _ in range(1_000):
        k, x = rng.getrandbits(64), rng.getrandbits(64)
        a = des.encrypt_block(x, des.key_schedule(k))
        assert des.encrypt_block(x ^ full, des.key_schedule(k ^ full)) == a ^ full

    # parity-bit irrelevance on 10^3 pairs
    for _ in range(1_000):
        k, x = rng.getrandbits(64), rng.getrandbits(64)
        flipped = k ^ (1 << (8 * rng.randrange(8)))
        assert des.key_schedule(flipped) == des.key_schedule(k)

    assert time.monotonic() - start < 5.0


@criterion(2, "published ciphertext fixes the zero-pad convention")
def test_criterion_2_pad_convention():
    key_sched = des.key_schedule(0x4B4952415450414C)
    published_ct = 0x10539160018D5FF7
    candidates = {
        ("low", 0xCBA767EE): 0x00000000CBA767EE,
        ("high", 0xCBA767EE): 0xCBA767EE00000000,
        ("low", 0xCB97F7EE): 0x00000000CB97F7EE,
        ("high", 0xCB97F7EE): 0xCB97F7EE00000000,
    }
    matches = [tag for tag, block in candidates.items()
               if des.encrypt_block(block, key_sched) == published_ct]
    # exactly one variant reproduces the printed ciphertext: the printed
    # *input* value in the low half, which is the adopted convention
    assert matches == [("low", 0xCB97F7EE)]
    assert des.pad_word(0xCB97F7EE) == candidates[("low", 0xCB97F7EE)]
    assert des.decrypt_block(published_ct, key_sched) == des.pad_word(0xCB97F7EE)


@criterion(3, "end-to-end worked example, assembled + encrypted + run")
def test_criterion_3_worked_example(tmp_path, capsys):
    start = time.monotonic()
    prog = tmp_path / "sum.asm"
    prog.write_text(worked.CORRECTED)
    data = tmp_path / "sum_data.hex"
    data.write_text(worked.DATA_HEX)
    image = tmp_path / "sum.hex"

    assert cli.main(["asm", str(prog), "-o", str(image),
                     "--key", "4b4952415450414c"]) == 0
    assert cli.main(["run", str(image), "--dmem", str(data),
                     "--dump-regs", "r4", "--dump-mem", "56:64"]) == 0
    out = capsys.readouterr().out

    sched = des.key_schedule(worked.KEY)
    expected_block = des.encrypt_block(des.pad_word(0xCBA767EE), sched)
    assert "r4 = 0xcba767ee" in out
    assert f"38: {expected_block:016x}" in out

    # the same run at library level, checked exactly
    state = pipeline.CpuState(progen.memory(asm.read_hex(image.read_text()).entries),
                              worked.data_memory())
    pipeline.run(state)
    assert state.regs.read(4) == 0xCBA767EE
    assert state.dmem.read_block(56) == expected_block
    assert time.monotonic() - start < 1.0


@criterion(4, "pipeline matches the reference interpreter on 1000 programs")
def test_criterion_4_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(0xACC4)
    for _ in range(1_000):
        source = progen.gen_program(rng)
        state = progen.check_against_oracle(source, progen.gen_dmem_entries(rng))
        assert len(state.imem.blocks) <= 40
    assert time.monotonic() - start < 30.0


def _stats_for(source, entries=(), encrypt_key=None):
    image = asm.build_image(source)
    if encrypt_key is not None:
        image = asm.encrypt_image(image, encrypt_key)
    state = pipeline.CpuState(progen.memory(image.entries), progen.memory(entries))
    return pipeline.run(state, max_cycles=100_000)[1]


@criterion(5, "cycle accounting is exact on hazard micro-benchmarks")
def test_criterion_5_cycle_accounting():
    rng = random.Random(0xACC5)

    def check(stats, stalls=None, flushes=None):
        assert stats.cycles == stats.retired + stats.stalls + stats.flushes + 4
        if stalls is not None:
            assert stats.stalls == stalls
        if flushes is not None:
            assert stats.flushes == flushes

    for _ in range(25):
        a, b = rng.sample(range(1, 10), 2)
        off = 8 * rng.randrange(8)
        data = [(off, des.pad_word(rng.getrandbits(32)))]

        # load-use pair costs exactly 1 stall
        check(_stats_for(f"lw $r{a}, {off}($r0)\n"
                         f"add $r{b}, $r{a}, $r{a}\n"
                         "addi $r9, $r0, 0\n", data), stalls=1, flushes=0)
        # independent consumer costs nothing
        check(_stats_for(f"lw $r{a}, {off}($r0)\n"
                         f"add $r{b}, $r{b}, $r{b}\n"
                         "addi $r9, $r0, 0\n", data), stalls=0, flushes=0)
        # taken branch costs exactly 1 flush
        gap = "\n".join("addi $r9, $r9, 1" for _ in range(rng.randrange(1, 4)))
        check(_stats_for(f"beq $r0, $r0, Over\n{gap}\n"
                         "Over: addi $r8, $r0, 1\n"
                         "addi $r9, $r0, 0\n"), stalls=0, flushes=1)
        # jump costs exactly 1 flush
        check(_stats_for(f"j Over\n{gap}\n"
                         "Over: addi $r8, $r0, 1\n"
                         "addi $r9, $r0, 0\n"), stalls=0, flushes=1)
        # crypt transition costs exactly 1 flush
        check(_stats_for("addi $r1, $r0, 104\n"
                         "lklw 0($r1)\n"
                         "lkuw 8($r1)\n"
                         "nop\nnop\n"
                         "crypt 1\n"
                         f"addi $r{a}, $r0, {rng.randrange(64)}\n"
                         f"sw $r{a}, 32($r0)\n",
                         progen.gen_dmem_entries(rng, with_key=True),
                         encrypt_key=progen.KEY), stalls=0, flushes=1)

    # the identity also holds across randomized programs
    for _ in range(100):
        source = progen.gen_program(rng)
        check(_stats_for(source, progen.gen_dmem_entries(rng)))


@criterion(6, "instruction encryption is transparent up to the crypt flush")
def test_criterion_6_transparency():
    # the encrypted image run through the decryptor against the plaintext
    # image run in the oracle, which has no decryptor: the same instructions
    # retire and leave the same state, the stalls are the timing model's,
    # and the flushes are one per taken branch or jump and one for the
    # program's one crypt-mode switch, its crypt 1
    rng = random.Random(0xACC6)
    for i in range(100):
        source = progen.gen_crypt_program(rng)
        entries = progen.gen_dmem_entries(rng, with_key=True)
        image = asm.build_image(source)
        encrypted = asm.encrypt_image(image, progen.KEY)

        s_enc = pipeline.CpuState(progen.memory(encrypted.entries),
                                  progen.memory(entries), record_retired=True)
        pipeline.run(s_enc, max_cycles=100_000)
        ref = pipeline.reference_interpret(progen.memory(image.entries),
                                           progen.memory(entries), record_retired=True)

        assert s_enc.retired_log == ref.retired_log, f"program {i}:\n{source}"
        assert pipeline.architectural_state(s_enc) == pipeline.architectural_state(ref)
        stalls, _ = progen.predict_timing(zip(ref.retired_log, ref.taken))
        assert (s_enc.stats.stalls, s_enc.stats.flushes) == (stalls, sum(ref.taken) + 1)


@criterion(7, "hardware synthesis figures are out of scope; stats substituted")
def test_criterion_7_hardware_figures_note():
    # clock rate, slice/LUT utilization and raw throughput are properties of
    # the synthesized netlist, not reproducible in software; the simulator
    # reports cycle/stall/flush counts and CPI instead (criteria 4-6).
    stats = _stats_for("addi $r1, $r0, 1\naddi $r2, $r0, 2\n")
    assert stats.cpi() is not None
