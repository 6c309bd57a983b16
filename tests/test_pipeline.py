import random
import re
import traceback
from pathlib import Path

import pytest

import progen
import worked
from test_isa import encode_instruction
from encmips import asm, des, isa, machine, pipeline

ROOT = Path(__file__).resolve().parent.parent


def build_state(source, dmem=None, *, encrypt_key=None, **kwargs):
    image = asm.build_image(source)
    if encrypt_key is not None:
        image = asm.encrypt_image(image, encrypt_key)
    return pipeline.CpuState(progen.memory(image.entries), dmem, **kwargs)


def run_asm(source, dmem=None, max_cycles=10_000, **kwargs):
    state = build_state(source, dmem, **kwargs)
    return pipeline.run(state, max_cycles=max_cycles)


def assert_accounting(stats):
    assert stats.cycles == stats.retired + stats.stalls + stats.flushes + 4


STAT_NAMES = ("cycles", "retired", "stalls", "flushes", "crypt_fetches", "encrypted_stores")


def test_stats_start_at_zero_and_build_positionally():
    assert [getattr(pipeline.Stats(), name) for name in STAT_NAMES] == [0] * 6
    # the first four counts positionally, the rest zero, as perfbench builds them
    stats = pipeline.Stats(9, 5, 1, 2)
    assert [getattr(stats, name) for name in STAT_NAMES] == [9, 5, 1, 2, 0, 0]
    assert stats.cpi() == 9 / 5 and pipeline.Stats().cpi() is None


@pytest.mark.parametrize("name", STAT_NAMES)
def test_stats_compare_by_every_count(name):
    counts = dict(zip(STAT_NAMES, range(1, 7)))
    assert pipeline.Stats(**counts) == pipeline.Stats(1, 2, 3, 4, 5, 6)
    assert pipeline.Stats(**counts) != pipeline.Stats(**{**counts, name: 0})
    assert pipeline.Stats(**counts) != tuple(counts.values())


def test_stats_repr_names_every_count():
    assert repr(pipeline.Stats(1, 2, 3, 4, 5, 6)) == (
        "Stats(cycles=1, retired=2, stalls=3, flushes=4, crypt_fetches=5, encrypted_stores=6)")


def test_cpu_state_needs_two_memories():
    # a store into one shared memory could rewrite a pc the fetch cache
    # already holds, and run and a loop of step would then disagree
    mem = machine.Memory()
    with pytest.raises(ValueError, match="^imem and dmem must be two distinct memories$"):
        pipeline.CpuState(mem, mem)
    state = pipeline.CpuState(mem)
    assert state.imem is mem and state.dmem is not mem


def interp_asm(source, dmem=None, **kwargs):
    return pipeline.reference_interpret(
        progen.memory(asm.build_image(source).entries),
        dmem if dmem is not None else machine.Memory(), **kwargs)


# ---------------------------------------------------------------- basic runs

def test_single_instruction_latency():
    state, stats = run_asm("addi $r1, $r0, 104")
    assert state.regs.read(1) == 104
    assert stats.cycles == 5
    assert stats.retired == 1
    assert_accounting(stats)


def test_linear_program_fill_drain():
    n = 6
    source = "\n".join(f"addi $r{i + 1}, $r0, {i}" for i in range(n))
    state, stats = run_asm(source)
    assert stats.cycles == n + 4
    assert stats.retired == n
    assert stats.stalls == stats.flushes == 0


def test_empty_imem_drains_clean():
    state, stats = pipeline.run(pipeline.CpuState())
    assert stats.cycles == 4
    assert stats.retired == 0
    assert state.halted


def test_pc_stays_8_aligned():
    state = build_state(worked.CORRECTED, worked.data_memory(),
                        encrypt_key=worked.KEY)
    while not state.halted:
        pipeline.step(state)
        assert state.pc % 8 == 0


# ------------------------------------------------------------------- hazards

def test_load_use_stalls_once():
    dmem = progen.memory([(0, des.pad_word(5))])
    state, stats = run_asm(
        "lw $r6, 0($r0)\nadd $r4, $r4, $r6\naddi $r9, $r0, 0", dmem)
    assert state.regs.read(4) == 5
    assert stats.stalls == 1
    assert_accounting(stats)


def test_independent_instruction_after_load_no_stall():
    dmem = progen.memory([(0, des.pad_word(5))])
    _, stats = run_asm("lw $r6, 0($r0)\nadd $r4, $r3, $r3\naddi $r9, $r0, 0", dmem)
    assert stats.stalls == 0


def test_back_to_back_forwarding():
    state, stats = run_asm(
        "addi $r2, $r0, 3\n"
        "add $r5, $r2, $r2\n"
        "add $r5, $r5, $r5\n"
        "add $r5, $r5, $r5\n")
    assert state.regs.read(5) == 24
    assert stats.stalls == 0


def test_forwarding_distance_two_uses_memwb():
    # the addi is in MEMWB when the add is in EX; WB writes it to the
    # register file before EX reads there
    state, stats = run_asm(
        "addi $r2, $r0, 7\n"
        "nop\n"
        "add $r5, $r2, $r2\n")
    assert state.regs.read(5) == 14
    assert stats.stalls == 0


@pytest.mark.parametrize("producer, distance", [
    (producer, distance) for producer in ("addi", "lw") for distance in (1, 2, 3)])
def test_load_feeding_store_data(producer, distance):
    # sw's data producer is `distance` slots ahead of it; the store reads
    # its data in MEM, after the producer has written back
    dmem = progen.memory([(0, des.pad_word(0x1234))])
    first = "lw $r1, 0($r0)" if producer == "lw" else "addi $r1, $r0, 0x1234"
    state, stats = run_asm(
        "\n".join([first] + ["nop"] * (distance - 1)
                  + ["sw $r1, 8($r0)", "addi $r9, $r0, 0"]), dmem)
    assert state.dmem.read_block(8) == des.pad_word(0x1234)
    # sw's rt counts as a source, so only a load directly ahead stalls it
    assert stats.stalls == (producer == "lw" and distance == 1)


def test_r0_never_forwards_or_stalls():
    dmem = progen.memory([(0, des.pad_word(123))])
    state, stats = run_asm(
        "lw $r0, 0($r0)\nadd $r2, $r0, $r0\naddi $r9, $r0, 0", dmem)
    assert state.regs.read(0) == 0
    assert state.regs.read(2) == 0
    assert stats.stalls == 0


def test_r0_invariant_under_writes():
    state, _ = run_asm(
        "addi $r0, $r0, 5\nadd $r0, $r1, $r1\naddi $r1, $r0, 9\n")
    assert state.regs.read(0) == 0
    assert state.regs.read(1) == 9


# ------------------------------------------------------------ control flow

def test_taken_branch_flushes_once():
    state, stats = run_asm(
        "addi $r9, $r0, 0\n"
        "beq $r0, $r0, Skip\n"
        "addi $r1, $r0, 1\n"
        "Skip: addi $r2, $r0, 2\n"
        "addi $r3, $r0, 3\n")
    assert state.regs.read(1) == 0   # squashed
    assert state.regs.read(2) == 2
    assert stats.flushes == 1
    assert_accounting(stats)


def test_not_taken_branch_no_penalty():
    state, stats = run_asm(
        "addi $r1, $r0, 5\n"
        "nop\nnop\n"
        "bne $r1, $r1, Skip\n"
        "addi $r2, $r0, 2\n"
        "Skip: addi $r3, $r0, 3\n")
    assert state.regs.read(2) == 2
    assert stats.flushes == 0
    assert stats.stalls == 0


def test_jump_flushes_once():
    state, stats = run_asm(
        "j Skip\n"
        "addi $r1, $r0, 1\n"
        "Skip: addi $r2, $r0, 2\n"
        "addi $r3, $r0, 3\n")
    assert state.regs.read(1) == 0
    assert state.regs.read(2) == 2
    assert stats.flushes == 1


def test_branch_waits_for_producer_in_ex():
    state, stats = run_asm(
        "addi $r1, $r0, 1\n"
        "bne $r1, $r0, Take\n"
        "addi $r2, $r0, 9\n"
        "Take: addi $r3, $r0, 3\n")
    assert state.regs.read(2) == 0
    assert state.regs.read(3) == 3
    assert stats.stalls == 1
    assert stats.flushes == 1
    assert_accounting(stats)


def test_branch_after_load_stalls_twice():
    dmem = progen.memory([(0, des.pad_word(1))])
    state, stats = run_asm(
        "lw $r1, 0($r0)\n"
        "beq $r1, $r0, Skip\n"
        "addi $r2, $r0, 7\n"
        "Skip: addi $r3, $r0, 1\n", dmem)
    assert state.regs.read(2) == 7  # loaded 1, branch not taken
    assert stats.stalls == 2
    assert stats.flushes == 0


@pytest.mark.parametrize("between", ["addi $r2, $r0, 2", "add $r2, $r1, $r0"])
def test_branch_two_behind_a_load(between):
    # one stall either way: after the addi, the branch waits for the load
    # two slots ahead; the add's own load-use stall puts a bubble between
    # the load and the branch, which then waits for nothing
    dmem = progen.memory([(0, des.pad_word(1))])
    source = f"lw $r1, 0($r0)\n{between}\nbeq $r1, $r0, 1\naddi $r3, $r0, 1\n"
    _, stats = run_asm(source, dmem)
    assert stats.stalls == 1
    ref = interp_asm(source, dmem, record_retired=True)
    assert progen.predict_timing(zip(ref.retired_log, ref.taken)) == (1, 0)


def test_branch_taken_to_the_next_slot_flushes():
    # displacement 0 leads to pc + 8 whether the branch is taken or not, so
    # the retired log looks the same; the oracle's taken flag tells them
    # apart, and only the taken branch flushes
    pcs = set()
    for mnemonic, taken in (("beq", True), ("bne", False)):
        source = f"{mnemonic} $r0, $r0, 0\naddi $r1, $r0, 1\n"
        state, stats = run_asm(source)
        assert (stats.stalls, stats.flushes) == (0, int(taken))
        assert state.regs.read(1) == 1
        ref = interp_asm(source, record_retired=True)
        assert ref.taken == [taken, False]
        assert progen.predict_timing(zip(ref.retired_log, ref.taken)) == (0, int(taken))
        pcs.add(tuple(pc for pc, _ in ref.retired_log))
    assert pcs == {(0, 8)}


def test_backward_loop():
    state, stats = run_asm(
        "addi $r1, $r0, 3\n"
        "Loop: addi $r1, $r1, -1\n"
        "bne $r1, $r0, Loop\n"
        "addi $r2, $r0, 5\n")
    assert state.regs.read(1) == 0
    assert state.regs.read(2) == 5
    assert stats.flushes == 2  # two taken back edges
    assert_accounting(stats)


def test_branch_below_zero_wraps_and_halts():
    # 8 + 8 - 5*8 wraps to 0xffffffe8, past the end of imem, in both models
    source = "addi $r1, $r0, 1\nbeq $r0, $r0, -5\naddi $r2, $r0, 2\n"
    state, stats = run_asm(source)
    assert state.pc == 0xFFFFFFE8
    assert (stats.cycles, stats.retired, stats.flushes) == (7, 2, 1)
    ref = interp_asm(source)
    assert ref.executed == 2
    assert pipeline.architectural_state(state) == pipeline.architectural_state(ref)
    assert state.regs.read(1) == 1 and state.regs.read(2) == 0


def test_infinite_loop_hits_cycle_limit():
    # the pipeline's text is encmips run's exit-3 diagnostic; the oracle
    # counts instructions
    with pytest.raises(pipeline.CycleLimitExceeded,
                       match=r"^no halt within 500 cycles$"):
        run_asm("L: j L", max_cycles=500)
    with pytest.raises(pipeline.CycleLimitExceeded,
                       match=r"^no halt within 500 instructions$"):
        interp_asm("L: j L", max_steps=500)
    with pytest.raises(ValueError, match="max_cycles must be >= 1"):
        run_asm("nop", max_cycles=0)
    with pytest.raises(ValueError, match="max_steps must be >= 1"):
        interp_asm("nop", max_steps=0)


def test_sequential_pc_wraps_past_the_top_block():
    # nop; beq $r0, $r0, -3 at 0x8 branches to 0xfffffff8, whose nop falls
    # through to pc 0 again: both models loop to their limit, and no pc
    # leaves 32 bits
    imem = progen.memory(asm.read_hex(
        "0000000000000000\n000000001000fffd\n@fffffff8\n0000000000000000\n").entries)
    trace = []
    with pytest.raises(pipeline.CycleLimitExceeded) as exc:
        pipeline.run(pipeline.CpuState(imem, record_retired=True),
                     max_cycles=40, trace=trace.append)
    pcs = [int(line.split(" | ")[1], 16) for line in trace]
    assert 0xFFFFFFF8 in pcs and max(pcs) == 0xFFFFFFF8
    retired = [pc for pc, _ in exc.value.state.retired_log]
    with pytest.raises(pipeline.CycleLimitExceeded) as exc:
        pipeline.reference_interpret(imem, machine.Memory(), max_steps=40,
                                     record_retired=True)
    ref = [pc for pc, _ in exc.value.state.retired_log]
    assert retired == ref[:len(retired)]
    assert retired[:4] == [0x0, 0x8, 0xFFFFFFF8, 0x0]


# ------------------------------------------------------------ crypt behavior

KEY_PROLOG = ("addi $r1, $r0, 104\n"
              "lklw 0($r1)\n"
              "lkuw 8($r1)\n")


def key_dmem():
    return progen.memory([(104, des.pad_word(worked.KEY_LO)),
                          (112, des.pad_word(worked.KEY_HI))])


def test_crypt_transition_flush_and_refetch():
    source = KEY_PROLOG + "nop\nnop\ncrypt 1\naddi $r4, $r0, 42\nsw $r4, 56($r0)\n"
    state, stats = run_asm(source, key_dmem(), encrypt_key=worked.KEY)
    assert state.crypt_mode
    assert stats.flushes == 1
    assert stats.crypt_fetches == 2   # the two post-boundary slots
    assert stats.encrypted_stores == 1
    sched = des.key_schedule(worked.KEY)
    assert des.decrypt_block(state.dmem.read_block(56), sched) == des.pad_word(42)
    assert_accounting(stats)


def test_crypt_with_two_guard_nops_runs():
    source = KEY_PROLOG + "nop\nnop\ncrypt 1\naddi $r4, $r0, 7\n"
    state, _ = run_asm(source, key_dmem(), encrypt_key=worked.KEY)
    assert state.regs.read(4) == 7


def test_crypt_with_one_guard_nop_runs():
    # key halves commit at the end of MEM; one spacer is the exact minimum
    source = KEY_PROLOG + "nop\ncrypt 1\naddi $r4, $r0, 7\n"
    state, _ = run_asm(source, key_dmem(), encrypt_key=worked.KEY)
    assert state.regs.read(4) == 7


def test_crypt_without_guard_nops_faults():
    source = KEY_PROLOG + "crypt 1\naddi $r4, $r0, 7\n"
    with pytest.raises(pipeline.Fault) as exc:
        run_asm(source, key_dmem(), encrypt_key=worked.KEY)
    assert isinstance(exc.value.cause, machine.KeyNotLoaded)


def test_key_register_holds_after_load():
    source = KEY_PROLOG + "nop\nnop\ncrypt 1\naddi $r4, $r0, 1\n"
    state, _ = run_asm(source, key_dmem(), encrypt_key=worked.KEY)
    kr = state.keyreg
    assert kr.lower_loaded and kr.upper_loaded
    assert kr.upper << 32 | kr.lower == worked.KEY


def test_key_half_reload():
    dmem = key_dmem()
    dmem.write_block(0, des.pad_word(0xAAAA5555))
    source = KEY_PROLOG + "lklw 0($r0)\naddi $r9, $r0, 0\n"
    state, _ = run_asm(source, dmem)
    assert (state.keyreg.upper, state.keyreg.lower) == (worked.KEY_HI, 0xAAAA5555)


def test_crypt_toggle_off():
    # the image is encrypted from after crypt 1 through crypt 0: a store
    # between the two is encrypted, a store after crypt 0 is not
    source = (KEY_PROLOG + "nop\nnop\ncrypt 1\nsw $r1, 0($r0)\n"
              "crypt 0\nsw $r1, 8($r0)\naddi $r9, $r0, 0\n")
    state, stats = run_asm(source, key_dmem(), encrypt_key=worked.KEY)
    sched = des.key_schedule(worked.KEY)
    assert des.decrypt_block(state.dmem.read_block(0), sched) == des.pad_word(104)
    assert state.dmem.read_block(8) == des.pad_word(104)
    assert not state.crypt_mode


@pytest.mark.parametrize("flip", ["crypt 1", "crypt 0"], ids=["crypt1", "crypt0"])
def test_store_mode_snapshot_at_decode(flip):
    # a store one slot ahead of a flipping crypt is fetched and decoded in
    # the old mode, so it keeps that mode even though its MEM stage happens
    # after the flip: plain ahead of crypt 1, encrypted ahead of crypt 0.
    # The oracle cannot check the count of encrypted stores, so it is here
    encrypted = flip == "crypt 0"
    source = (KEY_PROLOG + "nop\nnop\n" + "crypt 1\n" * encrypted +
              f"sw $r1, 16($r0)\n{flip}\naddi $r9, $r0, 0\n")
    state, stats = run_asm(source, key_dmem(), encrypt_key=worked.KEY)
    block = des.pad_word(104)
    if encrypted:
        block = des.encrypt_block(block, des.key_schedule(worked.KEY))
    assert state.dmem.read_block(16) == block
    assert stats.encrypted_stores == encrypted
    ref = interp_asm(source, key_dmem())
    assert pipeline.architectural_state(state) == pipeline.architectural_state(ref)


def test_a_crypt_mode_access_before_the_key_faults_in_if_or_in_the_oracle_mem():
    # the pipeline refetches the slot after crypt 1 through the decryptor,
    # so IF needs the key before the access reaches MEM; the oracle fetches
    # the plaintext image and faults in MEM, after crypt executed
    for source, cause in (("crypt 1\nsw $r0, 0($r0)\n", "encrypted store before key loaded"),
                          ("crypt 1\nlw $r1, 0($r0)\n", "decrypting load before key loaded")):
        with pytest.raises(pipeline.Fault) as exc:
            run_asm(source, encrypt_key=worked.KEY, decrypt_loads=True)
        assert str(exc.value) == \
            "fault at pc 0x8 (cycle 3): decrypting fetch before key loaded"
        assert isinstance(exc.value.cause, machine.KeyNotLoaded)
        with pytest.raises(pipeline.Fault) as exc:
            interp_asm(source, decrypt_loads=True)
        assert (exc.value.pc, exc.value.cycle, str(exc.value.cause)) == (0x8, 1, cause)
        assert isinstance(exc.value.cause, machine.KeyNotLoaded)


def test_decrypt_loads_path():
    value = 99
    source = (KEY_PROLOG + "nop\nnop\ncrypt 1\n"
              f"addi $r4, $r0, {value}\n"
              "sw $r4, 48($r0)\n"
              "lw $r5, 48($r0)\n"
              "addi $r9, $r0, 0\n")
    sched = des.key_schedule(worked.KEY)
    cipher_low = des.extract_word(des.encrypt_block(des.pad_word(value), sched))

    plain, _ = run_asm(source, key_dmem(), encrypt_key=worked.KEY)
    assert plain.regs.read(5) == cipher_low  # loads do not decrypt by default

    dec, _ = run_asm(source, key_dmem(), encrypt_key=worked.KEY, decrypt_loads=True)
    assert dec.regs.read(5) == value

    ref = interp_asm(source, key_dmem(), decrypt_loads=True)
    assert pipeline.architectural_state(dec) == pipeline.architectural_state(ref)


def test_decrypt_loads_covers_a_load_into_r0():
    # the row's dest field decides, not the register it names: a load into
    # $r0 still reads through the decryptor, which has no key yet, in the
    # oracle and in the MEM access the pipeline makes
    source = "crypt 1\nlw $r0, 0($r0)\n"
    with pytest.raises(pipeline.Fault) as exc:
        interp_asm(source, decrypt_loads=True)
    assert isinstance(exc.value.cause, machine.KeyNotLoaded)
    assert str(exc.value.cause) == "decrypting load before key loaded"
    lw = isa.Instruction("lw", rs=0, rt=0, imm=0)
    with pytest.raises(machine.KeyNotLoaded, match="^decrypting load before key loaded$"):
        pipeline.mem_stage(lw.spec, 0, 0, True, machine.KeyRegister(), machine.Memory(),
                           decrypt_loads=True)
    # read raw, the same load needs no key
    assert interp_asm(source).executed == 2
    assert pipeline.mem_stage(lw.spec, 0, 0, True, machine.KeyRegister(), machine.Memory()) == 0


# -------------------------------------------------------------------- faults

def test_unknown_instruction_faults():
    # IF fetches the word in cycle 1 and ID raises its fault in cycle 2
    imem = progen.memory([(0, des.pad_word(0xFC000000))])
    with pytest.raises(pipeline.CycleLimitExceeded):
        pipeline.run(pipeline.CpuState(imem), max_cycles=1)
    with pytest.raises(pipeline.Fault) as exc:
        pipeline.run(pipeline.CpuState(imem), max_cycles=2)
    assert (exc.value.pc, exc.value.cycle) == (0x0, 2)
    assert isinstance(exc.value.cause, isa.UnknownInstruction)


def test_unknown_word_behind_load_use_stall():
    # the stall holds the consumer in ID a cycle longer, so the unknown word
    # behind it reaches ID, and faults, one cycle later
    imem = progen.memory(asm.read_hex(
        "000000008c060000\n0000000000862020\n00000000fc000000\n").entries)
    with pytest.raises(pipeline.Fault) as exc:
        pipeline.run(pipeline.CpuState(imem))
    assert (exc.value.pc, exc.value.cycle) == (0x10, 5)
    assert isinstance(exc.value.cause, isa.UnknownInstruction)


def test_squashed_unknown_word_never_faults():
    # IF does not fetch behind a taken j 2, so the unknown word never reaches ID
    imem = progen.memory(asm.read_hex(
        "0000000008000002\n00000000fc000000\n0000000000000000\n").entries)
    state, stats = pipeline.run(pipeline.CpuState(imem))
    assert (stats.retired, stats.flushes) == (2, 1)


def test_wrong_key_fails_loudly():
    wrong = key_dmem()
    wrong.write_block(104, des.pad_word(0x01010101))
    source = KEY_PROLOG + "nop\nnop\ncrypt 1\naddi $r4, $r0, 7\n"
    with pytest.raises(pipeline.Fault):
        run_asm(source, wrong, encrypt_key=worked.KEY)


# Runs through Top twice, reloading the lower key half from byte 120 in
# between; Top's blocks stay encrypted under the first key.
KEY_SWITCH = (KEY_PROLOG + "nop\nnop\ncrypt 1\n"
              "Top: addi $r2, $r2, 1\n"
              "addi $r3, $r0, 2\n"
              "beq $r2, $r3, Done\n"
              "lklw 16($r1)\n"
              "nop\nnop\n"
              "j Top\n"
              "Done: sw $r2, 0($r0)\n")


def test_key_change_refetch_decrypts_under_new_key():
    # a decryption made under the old key must not serve the refetch of Top
    dmem = key_dmem()
    dmem.write_block(120, des.pad_word(0x01010101))
    state = build_state(KEY_SWITCH, dmem, encrypt_key=worked.KEY)
    with pytest.raises(pipeline.Fault) as exc:
        pipeline.run(state, max_cycles=1000)
    assert (exc.value.pc, exc.value.cycle) == (0x30, 18)
    assert isinstance(exc.value.cause, isa.UnknownInstruction)
    assert state.regs.read(2) == 1
    assert (state.stats.crypt_fetches, state.stats.encrypted_stores) == (8, 0)


def test_the_assembler_pipeline_and_oracle_run_des_once_per_block(monkeypatch):
    # des.cipher is shared: the pipeline decrypts only blocks encrypt_image
    # encrypted, and the oracle's store encrypts the block the pipeline's did
    key = 0x0F1E2D3C4B5A6978        # under no other test, so no earlier pairs
    des.cipher.cache_clear()
    calls = {}

    def counted(name, real):
        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)
        return wrapper

    for name in ("decrypt_block", "encrypt_block", "key_schedule"):
        monkeypatch.setattr(des, name, counted(name, getattr(des, name)))
    plain = asm.build_image(worked.CORRECTED)
    image = asm.encrypt_image(plain, key)
    encrypted = calls.pop("encrypt_block")
    entries = [(a, b) for a, b in asm.read_hex(worked.DATA_HEX).entries if a < 104]
    entries += [(104, des.pad_word(key & 0xFFFFFFFF)), (112, des.pad_word(key >> 32))]
    state = pipeline.CpuState(progen.memory(image.entries), progen.memory(entries))
    _, stats = pipeline.run(state)
    assert calls == {"key_schedule": 1, "encrypt_block": 1}    # the sum's store
    ref = pipeline.reference_interpret(progen.memory(plain.entries), progen.memory(entries))
    assert calls == {"key_schedule": 1, "encrypt_block": 1}
    assert pipeline.architectural_state(state) == pipeline.architectural_state(ref)
    assert state.regs.read(4) == worked.SUM
    # 14 encrypted blocks, two of them the same `add $r5, $r5, $r5`
    assert encrypted == 13 and stats.crypt_fetches > encrypted
    assert stats.encrypted_stores == 1


def test_same_key_reload_keeps_running():
    dmem = key_dmem()
    dmem.write_block(120, des.pad_word(worked.KEY_LO))
    state, stats = run_asm(KEY_SWITCH, dmem, encrypt_key=worked.KEY, max_cycles=1000)
    assert state.regs.read(2) == 2
    assert state.dmem.read_block(0) == 0xCEE91D0BED9C2077   # sw of 2 under KEY
    assert (stats.cycles, stats.retired, stats.stalls, stats.flushes) == (26, 17, 2, 3)
    assert (stats.crypt_fetches, stats.encrypted_stores) == (11, 1)


def test_a_pc_fetched_in_both_modes_faults_on_its_decrypted_fetch():
    # Top is fetched in plaintext, then again through the decryptor after
    # the beq, which decodes to garbage. Four nops keep the key commit
    # before Top's first fetch, so only the crypt-mode flip stands between
    # the two fetches of Top.
    source = (KEY_PROLOG + "nop\nnop\nnop\nnop\n"
              "Top: addi $r2, $r2, 1\n"
              "crypt 1\n"
              "beq $r0, $r0, Top\n")
    state = build_state(source, key_dmem(), encrypt_key=worked.KEY)
    with pytest.raises(pipeline.Fault) as exc:
        pipeline.run(state, max_cycles=1000)
    assert (exc.value.pc, exc.value.cycle) == (0x38, 14)
    assert isinstance(exc.value.cause, isa.UnknownInstruction)
    st = state.stats
    assert (st.cycles, st.retired, st.stalls, st.flushes,
            st.crypt_fetches, st.encrypted_stores) == (14, 9, 0, 1, 2, 0)


def test_unknown_word_faults_at_its_pc_in_both_models():
    # addi $r1, $r0, 1 then the word 0xfc000000
    imem = progen.memory(asm.read_hex(
        "0000000020010001\n00000000fc000000\n").entries)
    with pytest.raises(pipeline.Fault) as exc:
        pipeline.run(pipeline.CpuState(imem))
    assert exc.value.pc == 0x8
    assert isinstance(exc.value.cause, isa.UnknownInstruction)
    with pytest.raises(pipeline.Fault) as exc:
        pipeline.reference_interpret(imem, machine.Memory())
    assert exc.value.pc == 0x8
    assert isinstance(exc.value.cause, isa.UnknownInstruction)


def test_unaligned_access_faults():
    with pytest.raises(pipeline.Fault) as exc:
        run_asm("lw $r1, 4($r0)\naddi $r9, $r0, 0\n")
    assert isinstance(exc.value.cause, machine.UnalignedAccess)


def test_an_unaligned_pc_faults_in_if():
    # only a pc set by hand can be unaligned: every pc a program reaches is
    # a multiple of 8
    state = build_state("addi $r1, $r0, 1\naddi $r2, $r0, 2\n")
    state.pc = 4
    with pytest.raises(pipeline.Fault) as exc:
        pipeline.run(state)
    assert isinstance(exc.value.cause, machine.UnalignedAccess)
    assert (exc.value.pc, exc.value.cycle) == (4, 1)


def test_pipeline_reports_faults_in_cycle_order():
    # sw $r1, 4($r0) would fault in MEM at cycle 4, but the unknown word two
    # slots behind it faults in ID at cycle 3; the oracle goes in program order
    imem = progen.memory(asm.read_hex(
        "00000000ac010004\n00000000fc000000\n0000000000000000\n").entries)
    with pytest.raises(pipeline.Fault) as exc:
        pipeline.run(pipeline.CpuState(imem))
    assert str(exc.value) == ("fault at pc 0x8 (cycle 3): unknown instruction word "
                              "0xfc000000 (opcode 0x3f, funct 0x00)")
    with pytest.raises(pipeline.Fault) as exc:
        pipeline.reference_interpret(imem, machine.Memory())
    assert str(exc.value) == ("fault at pc 0x0 (cycle 0): "
                              "unaligned 64-bit access at address 0x4")


def _step_to_fault(state):
    while True:
        try:
            pipeline.step(state)
        except pipeline.Fault as exc:
            return exc


def test_a_fault_is_final():
    # the lw faults in MEM in cycle 5, whose WB retired the addi; each later
    # step or run raises that Fault again and clocks nothing
    state = build_state("addi $r1, $r0, 1\nlw $r2, 4($r0)\n", record_retired=True)
    fault = _step_to_fault(state)
    assert (fault.pc, fault.cycle) == (0x8, 5)
    assert isinstance(fault.cause, machine.UnalignedAccess)
    assert state.stats == pipeline.Stats(5, 1)
    assert state.retired_log == [(0, 0x20010001)] and state.regs.read(1) == 1
    assert state.dmem.items() == [] and state.pc == 0x10 and not state.halted
    left = progen.full_state(state)     # what no later step or run may change
    depths = set()
    for again in (pipeline.step, pipeline.step, pipeline.run):
        with pytest.raises(pipeline.Fault) as exc:
            again(state)
        assert progen.full_state(state) == left
        assert exc.value is fault
        depths.add(len(traceback.extract_tb(fault.__traceback__)))
    assert len(depths) == 1     # each raise's traceback holds only its own frames


def test_a_faulted_run_raises_its_fault_not_the_cycle_limit():
    imem = progen.memory(asm.read_hex("00000000fc000000\n").entries)
    state = pipeline.CpuState(imem)
    with pytest.raises(pipeline.Fault) as exc:
        pipeline.run(state)
    fault = exc.value
    assert (fault.pc, fault.cycle) == (0x0, 2)
    for max_cycles in (1, 2, 100):
        with pytest.raises(pipeline.Fault) as exc:
            pipeline.run(state, max_cycles=max_cycles)
        assert exc.value is fault
    assert state.stats.cycles == 2 and not state.halted


def test_a_store_in_mem_when_id_faults_is_not_repeated():
    # the sw is in MEM in cycle 11, when the unknown word at 0x40, encrypted
    # like the crypt-mode slots before it, faults in ID
    image = asm.encrypt_image(
        asm.build_image(KEY_PROLOG + "nop\nnop\ncrypt 1\nsw $r1, 0($r0)\nnop\n"), worked.KEY)
    unknown = des.cipher(worked.KEY).encrypt(0xFC000000)
    state = pipeline.CpuState(progen.memory(image.entries + [(0x40, unknown)]), key_dmem())
    fault = _step_to_fault(state)
    assert (fault.pc, fault.cycle) == (0x40, 11)
    assert isinstance(fault.cause, isa.UnknownInstruction)
    stored = des.encrypt_block(des.pad_word(104), des.key_schedule(worked.KEY))
    assert state.dmem.read_block(0) == stored
    assert state.stats.encrypted_stores == 1
    with pytest.raises(pipeline.Fault) as exc:
        pipeline.step(state)
    assert state.dmem.read_block(0) == stored
    assert (state.stats.cycles, state.stats.encrypted_stores) == (11, 1)
    assert exc.value is fault


# ------------------------------------------------------------ worked example

def test_worked_example_end_to_end():
    state, stats = run_asm(worked.CORRECTED, worked.data_memory(),
                           encrypt_key=worked.KEY)
    assert state.regs.read(4) == worked.SUM
    sched = des.key_schedule(worked.KEY)
    assert state.dmem.read_block(56) == des.encrypt_block(des.pad_word(worked.SUM), sched)
    assert stats.retired == 75   # 11 setup + 7 iterations of 9 + final store
    assert stats.stalls == 14    # per iteration: load-use + branch compare
    assert stats.flushes == 7    # crypt transition + six taken back edges
    assert_accounting(stats)


def test_worked_example_traced_run():
    # every fetch after crypt 1 counts as a pass through the decryption
    # core, however many of them share one decrypted block
    lines = []
    state, stats = pipeline.run(
        build_state(worked.CORRECTED, worked.data_memory(), encrypt_key=worked.KEY),
        trace=lines.append)
    assert len(lines) == stats.cycles == 100
    assert sum("DEC_FETCH" in line for line in lines) == 68
    assert sum("ENC_STORE" in line for line in lines) == 1
    assert stats.crypt_fetches == 68
    assert stats.encrypted_stores == 1


def _worked_state():
    return build_state(worked.CORRECTED, worked.data_memory(), encrypt_key=worked.KEY)


def test_worked_example_stops_at_the_exact_cycle_limit():
    # the end bubble reaches WB in cycle 100: a limit of 100 is a clean
    # halt, 99 stops where 99 calls of step stop
    state, stats = pipeline.run(_worked_state(), max_cycles=100)
    assert state.halted and state.regs.read(4) == worked.SUM
    assert (stats.cycles, stats.retired, stats.stalls, stats.flushes,
            stats.crypt_fetches, stats.encrypted_stores) == (100, 75, 14, 7, 68, 1)
    with pytest.raises(pipeline.CycleLimitExceeded) as exc:
        pipeline.run(_worked_state(), max_cycles=99)
    stepped = _worked_state()
    for _ in range(99):
        pipeline.step(stepped)
    assert not stepped.halted and stepped.stats.cycles == 99
    assert progen.full_state(exc.value.state) == progen.full_state(stepped)


def test_a_halted_state_runs_no_further_cycle():
    state, _ = pipeline.run(_worked_state())
    halted = progen.full_state(state)
    pipeline.step(state)
    pipeline.run(state)
    assert progen.full_state(state) == halted and state.stats.cycles == 100


# Every trace event once or more: a load-use STALL (cycle 10), a
# branch-after-load double STALL (13, 14), a taken-branch FLUSH (15), a jump
# FLUSH (18), CRYPT_ON and CRYPT_OFF with their flushes (7, 20), DEC_FETCH
# and ENC_STORE. The block after `crypt 0` stays plaintext in the image.
GOLDEN_SOURCE = (ROOT / "demos" / "programs" / "crypt_toggle.asm").read_text()

GOLDEN_TRACE = [
    "1 | 0 | IF:addi $r1, $r0, 104 ID:bubble EX:bubble MEM:bubble WB:bubble | events: ",
    "2 | 8 | IF:lklw 0($r1) ID:addi $r1, $r0, 104 EX:bubble MEM:bubble WB:bubble | events: ",
    "3 | 10 | IF:lkuw 8($r1) ID:lklw 0($r1) EX:addi $r1, $r0, 104 MEM:bubble WB:bubble | events: ",
    "4 | 18 | IF:nop ID:lkuw 8($r1) EX:lklw 0($r1) MEM:addi $r1, $r0, 104 WB:bubble | events: ",
    "5 | 20 | IF:nop ID:nop EX:lkuw 8($r1) MEM:lklw 0($r1) WB:addi $r1, $r0, 104 | events: ",
    "6 | 28 | IF:crypt 1 ID:nop EX:nop MEM:lkuw 8($r1) WB:lklw 0($r1) | events: ",
    "7 | 30 | IF:bubble ID:crypt 1 EX:nop MEM:nop WB:lkuw 8($r1) | events: FLUSH CRYPT_ON",
    "8 | 30 | IF:lw $r2, 0($r0) ID:bubble EX:crypt 1 MEM:nop WB:nop | events: DEC_FETCH",
    "9 | 38 | IF:add $r3, $r2, $r2 ID:lw $r2, 0($r0) EX:bubble MEM:crypt 1 WB:nop | events: DEC_FETCH",
    "10 | 40 | IF:add $r3, $r2, $r2 ID:add $r3, $r2, $r2 EX:lw $r2, 0($r0) MEM:bubble WB:crypt 1 | events: STALL",
    "11 | 40 | IF:lw $r4, 8($r0) ID:add $r3, $r2, $r2 EX:bubble MEM:lw $r2, 0($r0) WB:bubble | events: DEC_FETCH",
    "12 | 48 | IF:bne $r4, $r0, 1 ID:lw $r4, 8($r0) EX:add $r3, $r2, $r2 MEM:bubble WB:lw $r2, 0($r0) | events: DEC_FETCH",
    "13 | 50 | IF:bne $r4, $r0, 1 ID:bne $r4, $r0, 1 EX:lw $r4, 8($r0) MEM:add $r3, $r2, $r2 WB:bubble | events: STALL",
    "14 | 50 | IF:bne $r4, $r0, 1 ID:bne $r4, $r0, 1 EX:bubble MEM:lw $r4, 8($r0) WB:add $r3, $r2, $r2 | events: STALL",
    "15 | 50 | IF:bubble ID:bne $r4, $r0, 1 EX:bubble MEM:bubble WB:lw $r4, 8($r0) | events: FLUSH",
    "16 | 58 | IF:sw $r3, 16($r0) ID:bubble EX:bne $r4, $r0, 1 MEM:bubble WB:bubble | events: DEC_FETCH",
    "17 | 60 | IF:j 14 ID:sw $r3, 16($r0) EX:bubble MEM:bne $r4, $r0, 1 WB:bubble | events: DEC_FETCH",
    "18 | 68 | IF:bubble ID:j 14 EX:sw $r3, 16($r0) MEM:bubble WB:bne $r4, $r0, 1 | events: FLUSH",
    "19 | 70 | IF:crypt 0 ID:bubble EX:j 14 MEM:sw $r3, 16($r0) WB:bubble | events: DEC_FETCH ENC_STORE",
    "20 | 78 | IF:bubble ID:crypt 0 EX:bubble MEM:j 14 WB:sw $r3, 16($r0) | events: FLUSH CRYPT_OFF",
    "21 | 78 | IF:addi $r7, $r0, 7 ID:bubble EX:crypt 0 MEM:bubble WB:j 14 | events: ",
    "22 | 80 | IF:bubble ID:addi $r7, $r0, 7 EX:bubble MEM:crypt 0 WB:bubble | events: ",
    "23 | 80 | IF:bubble ID:bubble EX:addi $r7, $r0, 7 MEM:bubble WB:crypt 0 | events: ",
    "24 | 80 | IF:bubble ID:bubble EX:bubble MEM:addi $r7, $r0, 7 WB:bubble | events: ",
    "25 | 80 | IF:bubble ID:bubble EX:bubble MEM:bubble WB:addi $r7, $r0, 7 | events: ",
]


def test_golden_trace_every_event():
    lines = []
    state, stats = pipeline.run(
        build_state(GOLDEN_SOURCE, worked.data_memory(), encrypt_key=worked.KEY),
        trace=lines.append)
    assert lines == GOLDEN_TRACE
    assert (stats.cycles, stats.retired, stats.stalls, stats.flushes,
            stats.crypt_fetches, stats.encrypted_stores) == (25, 14, 3, 4, 7, 1)
    assert state.regs.read(7) == 7 and not state.crypt_mode


def test_worked_example_verbatim_never_halts():
    with pytest.raises(pipeline.CycleLimitExceeded):
        run_asm(worked.VERBATIM, worked.data_memory(),
                encrypt_key=worked.KEY, max_cycles=10_000)


def _stop_programs():
    """(imem entries, dmem entries) of the worked example, crypt_toggle and
    22 seeded progen programs, every other one encrypted; the 21st has an
    unknown word for its last instruction, which faults in ID, and the
    22nd ends in an unaligned load, which faults in MEM."""
    data = asm.read_hex(worked.DATA_HEX).entries
    programs = [(asm.encrypt_image(asm.build_image(source), worked.KEY).entries, data)
                for source in (worked.CORRECTED, GOLDEN_SOURCE)]
    rng = random.Random(33)
    for i in range(22):
        crypt = i % 2 == 1
        source = progen.gen_crypt_program(rng) if crypt else progen.gen_program(rng)
        image = asm.build_image(source + ("lw $r1, 4($r0)\n" if i == 21 else ""))
        entries = list(asm.encrypt_image(image, progen.KEY).entries if crypt else image.entries)
        if i == 20:
            entries[-1] = (entries[-1][0], des.pad_word(0xFC000000))
        programs.append((entries, progen.gen_dmem_entries(rng, with_key=crypt)))
    return programs


def test_stats_obey_the_identity_at_every_stop():
    # WB counts stall and flush bubbles only, and retired is derived from
    # the identity with the min(cycles, 4) fill bubbles drained since reset;
    # so a run stopped at any cycle limit, at a fault or at its halt must
    # count its retired log, its WB log must hold one slot per cycle and
    # the counted bubbles, and a loop of step must count the same
    stops = []
    for imem_entries, dmem_entries in _stop_programs():
        imem = progen.memory(imem_entries)      # stores write dmem, never imem

        def fresh():
            return pipeline.CpuState(imem, progen.memory(dmem_entries), record_retired=True)

        stepped, k, stop = fresh(), 0, None
        while stop is None:
            k += 1
            state = fresh()
            try:
                pipeline.run(state, max_cycles=k)
                stop = "halt"
            except pipeline.CycleLimitExceeded:
                pass
            except pipeline.Fault as exc:
                stop = type(exc.cause).__name__
            try:
                pipeline.step(stepped)
            except pipeline.Fault as exc:
                assert type(exc.cause).__name__ == stop
            else:
                assert stop in (None, "halt")
            s = state.stats
            assert s.cycles == k and s.retired == len(state.retired_log)
            assert len(state.wb_log) == s.cycles
            kinds = [slot.kind for slot in state.wb_log]
            assert (kinds.count("stall"), kinds.count("flush")) == (s.stalls, s.flushes)
            assert s.cycles == s.retired + s.stalls + s.flushes + min(s.cycles, 4)
            assert stepped.stats == s, k
        stops.append(stop)
    assert stops == ["halt"] * 22 + ["UnknownInstruction", "UnalignedAccess"]


# ------------------------------------------------------------------ latches

def test_every_latch_holds_a_slot_and_no_stage_writes_a_bubble():
    # the cycle loop reads every latch as one class: a bubble is a Slot with
    # no instruction, and the four shared ones keep the fields they were
    # built with through a halt, a fault and a cycle limit
    def state(source):
        return build_state(source, worked.data_memory(), encrypt_key=worked.KEY)
    runs = [(state(worked.CORRECTED), "Halted"),
            (state("crypt 1\nsw $r0, 0($r0)\n"), "Fault"),
            (state(worked.VERBATIM), "Limit")]
    for cpu, expected in runs:
        stop = None
        while stop is None:
            try:
                pipeline.step(cpu)
            except pipeline.Fault:
                stop = "Fault"
            latches = (cpu.ifid, cpu.idex, cpu.exmem, cpu.memwb)
            assert [type(latch) for latch in latches] == [pipeline.Slot] * 4
            if cpu.halted:
                stop = "Halted"
            elif cpu.stats.cycles == 300:
                stop = "Limit"
        assert stop == expected
    # every stage field inert: with rare None, ID sends a bubble to the
    # load-use test, which its empty sources pass
    bubbles = (pipeline.FILL_BUBBLE, pipeline.STALL_BUBBLE, pipeline.FLUSH_BUBBLE,
               pipeline.END_BUBBLE)
    assert [(b.kind, b.pc, b.word, b.instr, b.crypt) + _stage_fields(b) for b in bubbles] == \
        [(kind, None, None, None, False) + INERT for kind in ("fill", "stall", "flush", "end")]


# what the later stages read of a slot, and its value on a slot no stage acts on
STAGE_FIELDS = ("rs", "rt", "sources", "dest", "alu", "mem", "redirect", "mode",
                "load_key", "rare", "next_pc")
INERT = (0, 0, (), None, None, None, None, None, None, None, 0)


def _stage_fields(slot):
    return tuple(getattr(slot, name) for name in STAGE_FIELDS)


def _fetched_slot(word, pc=0, key=None):
    """The slot IF builds of word at pc, read from IFID after one cycle; with
    a key, a crypt-mode fetch of word encrypted under it."""
    imem = machine.Memory()
    state = pipeline.CpuState(imem)
    block = des.pad_word(word)
    if key is not None:
        block = des.encrypt_block(block, des.key_schedule(key))
        state.keyreg, state.crypt_mode = loaded_keyreg(key), True
    imem.write_block(pc, block)
    state.pc = pc
    pipeline.step(state)
    return state.ifid


@pytest.mark.parametrize("mnemonic", list(isa.SPECS))
def test_if_copies_each_row_and_instruction_onto_its_slot(mnemonic):
    # every field is nonzero where the format has it, so a field read from
    # the wrong place shows; the top block's next_pc wraps to 0; rare sends
    # a branch, a jump and crypt past ID's load-use test; crypt is the mode
    # of the fetch, which the slot's memory access uses
    spec = isa.SPECS[mnemonic]
    instr = isa.Instruction(mnemonic, rs=3, rt=4, rd=5, shamt=6, imm=-7, target=9)
    word = encode_instruction(instr)
    rare = True if spec.redirect is not None or spec.mode is not None else None
    for pc, next_pc, key in ((0, 8, None), (0xFFFFFFF8, 0, None), (0, 8, worked.KEY)):
        slot = _fetched_slot(word, pc, key)
        assert type(slot) is pipeline.Slot and slot.kind is None
        assert (slot.pc, slot.word, slot.instr) == (pc, word, instr)
        assert slot.crypt is (key is not None)
        assert _stage_fields(slot) == (instr.rs, instr.rt, instr.sources, instr.dest,
                                       spec.alu, spec.mem, spec.redirect, spec.mode,
                                       spec.load_key, rare, next_pc)
        assert slot.rare is rare
        for name in ("alu", "redirect", "mode", "load_key"):
            assert getattr(slot, name) is getattr(spec, name), name


def test_a_slots_register_numbers_are_the_shared_int_objects():
    # EX and the branch compare test `exmem.dest is idex.rs`, which equals
    # `==` only while every register field is CPython's one int object of
    # its value: decode's field slices are, and None is no register
    shared = list(range(32))
    for mnemonic, spec in isa.SPECS.items():
        for r in range(32):
            instr = isa.Instruction(mnemonic, rs=r, rt=r, rd=r, target=r)
            slot = _fetched_slot(encode_instruction(instr))
            fields = [slot.rs, slot.rt, *slot.sources]
            fields += [] if slot.dest is None else [slot.dest]
            assert set(fields) <= {0, r}
            assert all(field is shared[field] for field in fields), (mnemonic, r)
            assert len(slot.sources) == len(spec.sources)
            assert (slot.dest is None) == (spec.dest is None or r == 0)


def test_an_unknown_words_slot_holds_inert_fields():
    # but for rare, which sends it to ID's fault, and next_pc, by which IF
    # moves pc as for any slot it makes; crypt is the mode of the fetch, as
    # on every slot IF makes
    for pc, next_pc, key in ((16, 24, None), (0xFFFFFFF8, 0, None), (16, 24, worked.KEY)):
        slot = _fetched_slot(0xFC000000, pc, key)
        assert (slot.pc, slot.word, slot.kind) == (pc, 0xFC000000, "unknown")
        assert slot.crypt is (key is not None)
        assert isinstance(slot.instr, isa.UnknownInstruction)
        assert slot.rare is True
        expected = {"rare": True, "next_pc": next_pc}
        assert _stage_fields(slot) == tuple(expected.get(name, value)
                                            for name, value in zip(STAGE_FIELDS, INERT))


def _fields(slot):
    """Every field a slot has, "unset" for one it lacks."""
    return tuple(getattr(slot, name, "unset") for name in type(slot).__slots__)


LOOP = "L: addi $r1, $r1, 1\nj L\n"


@pytest.mark.parametrize("source, encrypt_key", [
    (LOOP, None),
    (KEY_PROLOG + "nop\nnop\ncrypt 1\n" + LOOP, worked.KEY),
], ids=["plain", "encrypted"])
def test_no_slot_is_written_after_if_and_one_slot_sits_in_two_latches(
        monkeypatch, source, encrypt_key):
    # IF hands out the cached slot of a pc, so the loop's addi sits in IFID
    # and MEMWB at once; that is safe only while no stage writes a slot
    first_seen, shared = {}, 0
    format_trace_line = pipeline.format_trace_line

    def watch(cycle, before, after):
        nonlocal shared
        latches = after[1:5]
        for slot in latches:
            fields = _fields(slot)
            assert first_seen.setdefault(id(slot), (slot, fields))[1] == fields, cycle
        shared += latches[0] is latches[3] and latches[0].instr is not None
        return format_trace_line(cycle, before, after)

    monkeypatch.setattr(pipeline, "format_trace_line", watch)
    state = build_state(source, key_dmem(), encrypt_key=encrypt_key)
    with pytest.raises(pipeline.CycleLimitExceeded):
        pipeline.run(state, max_cycles=200, trace=lambda line: None)
    assert shared > 0
    stepped = build_state(source, key_dmem(), encrypt_key=encrypt_key)
    for _ in range(200):
        pipeline.step(stepped)
    assert progen.full_state(state) == progen.full_state(stepped)


# ----------------------------------------------------------- stage functions

def loaded_keyreg(key=worked.KEY):
    keyreg = machine.KeyRegister()
    keyreg.set_lower(key & 0xFFFFFFFF)
    keyreg.set_upper(key >> 32)
    return keyreg


def test_fetch_word_paths():
    imem = machine.Memory()
    imem.write_block(0, des.pad_word(0x20010068))
    sched = des.key_schedule(worked.KEY)
    imem.write_block(8, des.encrypt_block(des.pad_word(0x20010068), sched))
    empty = machine.KeyRegister()
    assert pipeline.fetch_word(imem, 0, False, empty) == 0x20010068
    assert pipeline.fetch_word(imem, 8, True, loaded_keyreg()) == 0x20010068
    assert pipeline.fetch_word(imem, 16, False, empty) is None  # past extent
    with pytest.raises(machine.UnalignedAccess):
        pipeline.fetch_word(imem, 4, False, empty)
    with pytest.raises(machine.KeyNotLoaded):
        pipeline.fetch_word(imem, 8, True, empty)


def test_mem_stage_store_paths():
    sched = des.key_schedule(worked.KEY)
    keyreg = loaded_keyreg()
    dmem = machine.Memory()
    sw = isa.Instruction("sw", rs=0, rt=4, imm=56)
    # published known-answer triple for this key and store value
    pipeline.mem_stage(sw.spec, 56, 0xCB97F7EE, True, keyreg, dmem)
    assert dmem.read_block(56) == 0x10539160018D5FF7
    # the stated array sum encrypts consistently: it decrypts back
    pipeline.mem_stage(sw.spec, 56, 0xCBA767EE, True, keyreg, dmem)
    assert des.decrypt_block(dmem.read_block(56), sched) == des.pad_word(0xCBA767EE)
    pipeline.mem_stage(sw.spec, 0, 0xDEAD, False, machine.KeyRegister(), dmem)
    assert dmem.read_block(0) == des.pad_word(0xDEAD)


def test_mem_stage_load_ignores_crypt_mode():
    dmem = machine.Memory()
    dmem.write_block(8, 0xFFFFFFFF12345678)
    lw = isa.Instruction("lw", rs=0, rt=1, imm=8)
    assert pipeline.mem_stage(lw.spec, 8, 0, False, machine.KeyRegister(), dmem) == 0x12345678
    assert pipeline.mem_stage(lw.spec, 8, 0, True, loaded_keyreg(), dmem) == 0x12345678


def _slot(instr, pc=0):
    """The slot IF makes of instr at pc."""
    return pipeline.Slot(pc, encode_instruction(instr), instr)


def _step_latches(ifid=pipeline.FILL_BUBBLE, idex=pipeline.FILL_BUBBLE,
                  exmem=pipeline.FILL_BUBBLE, memwb=pipeline.FILL_BUBBLE,
                  pc=0, regs=(), exmem_alu=0, memwb_alu=0):
    """One step over hand-built latches, the results beside EXMEM and MEMWB,
    an empty imem and registers set from (index, value) pairs; returns the
    state after it."""
    state = pipeline.CpuState()
    state.ifid, state.idex, state.exmem, state.memwb = ifid, idex, exmem, memwb
    state.exmem_alu, state.memwb_alu = exmem_alu, memwb_alu
    state.pc = pc
    for index, value in regs:
        state.regs.values[index] = value
    pipeline.step(state)
    return state


_NO_SLOT = (pipeline.FILL_BUBBLE, 0)


def _forwarded_a(reg, exmem, memwb):
    """The rs value EX takes for `add $r5, $reg, $r0` with 999 in $r1..$r31
    before the cycle's WB; exmem and memwb are (slot, result) pairs."""
    user = _slot(isa.Instruction("add", rs=reg, rt=0, rd=5))
    (exmem, exmem_alu), (memwb, memwb_alu) = exmem, memwb
    state = _step_latches(idex=user, exmem=exmem, memwb=memwb,
                          exmem_alu=exmem_alu, memwb_alu=memwb_alu,
                          regs=[(index, 999) for index in range(1, 32)])
    assert state.exmem is user
    return state.exmem_alu


def test_forward_value_priority():
    add = isa.Instruction("add", rs=1, rt=2, rd=3)
    exmem = (_slot(add), 111)
    memwb = (_slot(isa.Instruction("addi", rs=0, rt=3, imm=0)), 222)
    assert _forwarded_a(3, exmem, memwb) == 111
    assert _forwarded_a(3, _NO_SLOT, memwb) == 222
    assert _forwarded_a(4, exmem, memwb) == 999


def test_forward_value_ignores_r0_and_stores():
    zero_dest = (_slot(isa.Instruction("add", rs=1, rt=2, rd=0)), 5)
    assert _forwarded_a(0, zero_dest, _NO_SLOT) == 0
    store = (_slot(isa.Instruction("sw", rs=0, rt=3, imm=8)), 8)
    assert _forwarded_a(3, store, _NO_SLOT) == 999


def test_detect_hazards_load_use():
    lw = isa.Instruction("lw", rs=0, rt=6, imm=0)
    user = _slot(isa.Instruction("add", rs=4, rt=6, rd=4))
    state = _step_latches(ifid=user, idex=_slot(lw))
    assert state.idex is pipeline.STALL_BUBBLE and state.ifid is user
    other = _slot(isa.Instruction("add", rs=4, rt=5, rd=4))
    state = _step_latches(ifid=other, idex=_slot(lw))
    assert state.idex is other


def test_detect_hazards_key_loads_never_stall_crypt():
    lkuw = _slot(isa.Instruction("lkuw", rs=1, rt=0, imm=0))
    crypt = _slot(isa.Instruction("crypt", target=1))
    state = _step_latches(ifid=crypt, idex=lkuw)
    assert state.idex is crypt and state.crypt_mode


def test_resolve_branch_uses_exmem_forward():
    # r1 reads 0 from the register file, but EXMEM holds its fresh value 5
    beq = isa.Instruction("beq", rs=1, rt=0, imm=3)
    fresh = _slot(isa.Instruction("addi", rs=0, rt=1, imm=5))
    state = _step_latches(ifid=_slot(beq, pc=16), exmem=fresh, exmem_alu=5, pc=24)
    assert state.ifid is pipeline.END_BUBBLE and state.pc == 24    # not taken
    state = _step_latches(ifid=_slot(beq, pc=16), pc=24)
    assert state.ifid is pipeline.FLUSH_BUBBLE                     # taken
    assert state.pc == 16 + 8 + 3 * 8


# ------------------------------------------------ the calls a wrapper sees
# perfbench's tracer wraps isa.encode, pipeline.mem_stage and
# pipeline.fetch_word by module attribute, and reads its per-layer figures
# from the calls it sees; these pin how many there are

def _calls_to(monkeypatch, owner, name):
    """The argument tuples of every call made to owner.name through owner."""
    calls, real = [], getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_an_image_of_n_statements_calls_isa_encode_n_times(monkeypatch):
    # auto_nop's guard nops are statements too; a label-only line is none
    calls = _calls_to(monkeypatch, isa, "encode")
    for source, guards in ((worked.CORRECTED, 0),
                           ("lklw 0($r0)\nlkuw 8($r0)\nL: crypt 1\n\nEnd:\nj L\n", 2)):
        statements = sum(s.mnemonic is not None for s in asm.parse(source))
        for auto_nop in (False, True):
            calls.clear()
            image = asm.build_image(source, auto_nop=auto_nop)
            assert len(calls) == len(image.entries) == statements + auto_nop * guards


def test_a_run_calls_mem_stage_once_per_memory_instruction_in_mem(monkeypatch):
    # in a halting run every instruction that reaches MEM retires; the
    # oracle calls it once per memory instruction it executes
    calls = _calls_to(monkeypatch, pipeline, "mem_stage")
    rng = random.Random(29)
    for source, entries, key in (
            (worked.CORRECTED, asm.read_hex(worked.DATA_HEX).entries, worked.KEY),
            (progen.gen_program(rng), progen.gen_dmem_entries(rng), None)):
        state = build_state(source, progen.memory(entries), encrypt_key=key,
                            record_retired=True)
        calls.clear()
        pipeline.run(state)
        memory = [w for _, w in state.retired_log if isa.decode(w).spec.mem is not None]
        assert len(calls) == len(memory) > 0
        calls.clear()
        pipeline.reference_interpret(progen.memory(asm.build_image(source).entries),
                                     progen.memory(entries))
        assert len(calls) == len(memory)


def test_a_run_calls_fetch_word_once_per_fetch_cache_miss(monkeypatch):
    # IF fetches each pc of a loop many times and misses once per pc and
    # crypt mode; a fetch past imem's extent is never kept, so the drain
    # misses in each of the four cycles the end bubble takes to reach WB
    calls = _calls_to(monkeypatch, pipeline, "fetch_word")
    _, stats = run_asm("addi $r1, $r0, 10\nL: addi $r1, $r1, -1\n"
                       "bne $r1, $r0, L\naddi $r2, $r0, 1\n")
    assert [(pc, decrypt) for _, pc, decrypt, _ in calls] == \
        [(0, False), (8, False), (16, False), (24, False)] + [(32, False)] * 4
    assert stats.retired + stats.flushes > 30
    calls.clear()
    state = build_state(worked.CORRECTED, worked.data_memory(), encrypt_key=worked.KEY)
    _, stats = pipeline.run(state)
    # each pc once, plain up to `crypt 1` and decrypted after it, though
    # the loop body is fetched seven times
    crypt_pc = next(pc for pc, block in asm.build_image(worked.CORRECTED).entries
                    if isa.decode(block).spec.mode is not None)
    end = state.imem.extent
    fetched = [(pc, decrypt) for _, pc, decrypt, _ in calls]
    assert fetched == [(pc, pc > crypt_pc) for pc in range(0, end, 8)] + [(end, True)] * 4
    assert stats.crypt_fetches > len(fetched)


def _replayed_loop(fault=None):
    """(image, dmem entries) of an encrypted long loop whose segments the
    cycle loop compiles and replays; with fault, it faults once replayed."""
    rng = random.Random(36)
    source = progen.gen_long_loop_program(rng, 3 * pipeline._HOT_VISITS, True, fault)
    return asm.encrypt_image(asm.build_image(source), progen.KEY), progen.long_loop_entries(rng)


def _traced_and_untraced(calls, imem_entries, dmem_entries, **kwargs):
    """A traced and then an untraced run of imem_entries, each up to its
    halt or Fault: for each, the state it leaves and the calls it makes to
    the function _calls_to watches in calls."""
    runs = []
    for trace in ([].append, None):
        calls.clear()
        state = pipeline.CpuState(progen.memory(imem_entries), progen.memory(dmem_entries),
                                  **kwargs)
        try:
            pipeline.run(state, trace=trace)
        except pipeline.Fault:
            pass
        runs.append((state, list(calls)))
    return runs


def test_a_replayed_loop_calls_mem_stage_as_a_traced_run_does(monkeypatch):
    # a replay calls this module's mem_stage through its globals, once for
    # each instruction in MEM, in the same order and with the same
    # operands (the row, address, data and crypt mode) as the traced run,
    # up to the faulting call
    calls = _calls_to(monkeypatch, pipeline, "mem_stage")
    built, _ = progen.segments_built(monkeypatch)
    for fault in (None, "stall"):
        del built[:]
        image, entries = _replayed_loop(fault)
        (_, traced), (state, untraced) = _traced_and_untraced(
            calls, image.entries, entries, decrypt_loads=True)
        assert built and len(untraced) > 3 * pipeline._HOT_VISITS
        assert (state.fault is None) == (fault is None)
        assert [args[:4] for args in untraced] == [args[:4] for args in traced]


def test_a_second_run_reuses_segment_functions_and_its_wrapper_sees_the_replays(monkeypatch):
    # a segment's function is a pure function of its source, so a second run
    # of one loop in a process compiles nothing; the function reads
    # mem_stage in this module's globals at each call, so a wrapper of
    # mem_stage installed for the second run sees its replayed calls as a
    # traced run's
    runs, compile_segment = [], pipeline._segment

    def keeping(*args):
        seg = compile_segment(*args)
        runs.append(seg.run)
        return seg

    monkeypatch.setattr(pipeline, "_segment", keeping)
    image, entries = _replayed_loop()
    pipeline.run(pipeline.CpuState(progen.memory(image.entries), progen.memory(entries)))
    first, runs[:] = runs[:], []
    calls = _calls_to(monkeypatch, pipeline, "mem_stage")
    (_, traced), (_, untraced) = _traced_and_untraced(calls, image.entries, entries)
    assert first and len(runs) == len(first)
    assert all(run is old for run, old in zip(runs, first))
    assert len(untraced) > 3 * pipeline._HOT_VISITS
    assert [args[:4] for args in untraced] == [args[:4] for args in traced]


def test_a_replayed_loop_misses_in_the_fetch_cache_as_a_traced_run_does(monkeypatch):
    calls = _calls_to(monkeypatch, pipeline, "fetch_word")
    built, _ = progen.segments_built(monkeypatch)
    image, entries = _replayed_loop()
    (_, traced), (_, untraced) = _traced_and_untraced(calls, image.entries, entries)
    assert built and [args[1:3] for args in untraced] == [args[1:3] for args in traced]


def _flipping_loop(encrypted, gap, n):
    """Two passes of a loop that flips crypt mode, runs an inner loop of n
    passes in the other mode and flips back, gap nops before its back
    branch; encrypted runs the outer loop in crypt mode. The inner loop's
    first branch resolves two cycles after the flip into it, and its body
    stores and holds a crypt of the mode already set."""
    outer, inner = ("crypt 1", "crypt 0") if encrypted else ("crypt 0", "crypt 1")
    return "\n".join([
        KEY_PROLOG + "nop\nnop", *["crypt 1"] * encrypted, "addi $r1, $r0, 2",
        f"L: addi $r5, $r0, {n}", inner, "M: beq $r5, $r0, X", "addi $r4, $r4, 3",
        "sw $r4, 56($r0)", "addi $r5, $r5, -1", inner, "j M",
        "X: addi $r1, $r1, -1", outer, *["nop"] * gap, "bne $r1, $r0, L", ""])


@pytest.mark.parametrize("hot_visits", [1, 100])
@pytest.mark.parametrize("encrypted", [False, True], ids=["plain", "encrypted"])
def test_replays_between_crypt_flips_stop_where_a_stepped_run_does(
        monkeypatch, encrypted, hot_visits):
    # a configuration is pc and the four latches, and each access's crypt
    # mode is its slot's, which a replay writes as that access's literal.
    # Here branches resolve two and three cycles after a flip; at each stop
    # in and around the inner loop's replays, where at most 3 passes are
    # left, an untraced run leaves what a loop of step leaves, each latch's
    # crypt included
    monkeypatch.setattr(pipeline, "_HOT_VISITS", hot_visits)
    _, replays = progen.segments_built(monkeypatch)
    n, checked = hot_visits + 4, 0
    for gap in (0, 1):
        image = asm.encrypt_image(asm.build_image(_flipping_loop(encrypted, gap, n)), worked.KEY)
        stepped = pipeline.CpuState(progen.memory(image.entries), key_dmem())
        del replays[:]
        while not stepped.halted:
            pipeline.step(stepped)
            if stepped.regs.read(5) < 4:
                state = pipeline.CpuState(progen.memory(image.entries), key_dmem())
                try:
                    pipeline.run(state, max_cycles=stepped.stats.cycles)
                except pipeline.CycleLimitExceeded:
                    pass
                assert progen.full_state(state) == progen.full_state(stepped), \
                    (gap, stepped.stats.cycles)
                checked += 1
        assert stepped.regs.read(4) == 2 * 3 * n and stepped.crypt_mode == encrypted
        assert stepped.stats.encrypted_stores == (0 if encrypted else 2 * n)
        assert any(k < seg.n for seg, _, k in replays), gap   # a guard stopped one
    assert checked >= 100


@pytest.mark.parametrize("tail", ["end", "unknown"])
@pytest.mark.parametrize("encrypted", [False, True], ids=["plain", "encrypted"])
def test_a_loop_that_ends_imem_compiles_a_segment_it_never_replays(
        monkeypatch, encrypted, tail):
    # the recording that ends in the loop's exit also fetches there the end
    # bubble or an unknown word, which miss on every visit; its segment
    # compiles, but the run halts or faults behind it and looks up no
    # configuration again, so it never replays
    calls = _calls_to(monkeypatch, pipeline, "fetch_word")
    built, replays = progen.segments_built(monkeypatch)
    prolog = KEY_PROLOG + "nop\nnop\ncrypt 1\n" if encrypted else ""
    for n in range(pipeline._HOT_VISITS, pipeline._HOT_VISITS + 5):
        image = asm.build_image(prolog + f"addi $r1, $r0, {n}\nL: addi $r4, $r4, 3\n"
                                         "addi $r1, $r1, -1\nbne $r1, $r0, L\n")
        entries = (asm.encrypt_image(image, worked.KEY) if encrypted else image).entries
        if tail == "unknown":
            word = des.pad_word(0xFC000000)
            entries = entries + [(entries[-1][0] + 8, des.cipher(worked.KEY).encrypt(word)
                                  if encrypted else word)]
        (traced, traced_calls), (state, untraced_calls) = _traced_and_untraced(
            calls, entries, key_dmem().items(), record_retired=True)
        assert progen.full_state(state) == progen.full_state(traced), n
        assert [args[1:3] for args in untraced_calls] == [args[1:3] for args in traced_calls]
        assert state.halted == (tail == "end") and state.regs.read(4) == 3 * n
    ends = [seg for seg in built if seg.configs[-1][1] is pipeline.END_BUBBLE
            or seg.configs[-1][1].kind == "unknown"]
    assert ends and not any(seg in ends for seg, *_ in replays)


def test_the_worked_example_compiles_no_segment(monkeypatch):
    # its loop runs 7 times, far from the visits that pay for a compile;
    # the verbatim example's endless loop compiles, and stops at its limit
    # as the traced run does
    built, _ = progen.segments_built(monkeypatch)
    pipeline.run(_worked_state())
    assert not built
    states = []
    for trace in (None, [].append):
        state = build_state(worked.VERBATIM, worked.data_memory(), encrypt_key=worked.KEY)
        with pytest.raises(pipeline.CycleLimitExceeded):
            pipeline.run(state, max_cycles=5_000, trace=trace)
        states.append(progen.full_state(state))
    assert built and states[0] == states[1]


# ------------------------------------------------------------- differential

def test_store_path_correctness_invariant():
    # encrypted runs match the oracle on the plaintext image, stored blocks
    # included, with loads read raw and through the decryption core
    rng = random.Random(777)
    for _ in range(60):
        source = progen.gen_crypt_program(rng)
        entries = progen.gen_dmem_entries(rng, with_key=True)
        for decrypt_loads in (False, True):
            progen.check_against_oracle(source, entries, progen.KEY, decrypt_loads)


def _with_next_line_branches(rng, source):
    """source with a beq or bne, taken or not as its registers say, to a
    label on the very next line after about one instruction in five."""
    regs = [0] + progen.DATA_REGS
    *lines, last = source.splitlines()
    out = []
    for i, line in enumerate(lines):
        out.append(line)
        if not line.endswith(":") and rng.random() < 0.2:
            mnemonic = rng.choice(("beq", "bne"))
            out += [f"{mnemonic} $r{rng.choice(regs)}, $r{rng.choice(regs)}, next{i}",
                    f"next{i}:"]
    return "\n".join(out + [last]) + "\n"


def _with_accesses_between_flips(rng, source):
    """source with `crypt 0`, one more load or store and `crypt 1` after
    about half of its loads and stores, so an access sits directly ahead
    of, between and behind two flips; progen's own `crypt` lines follow a
    nop or an addi."""
    out = []
    for line in source.splitlines():
        out.append(line)
        if line.startswith(("lw ", "sw ")) and rng.random() < 0.5:
            if rng.random() < 0.5:
                access = f"lw $r{rng.choice(progen.DATA_REGS)}"
            else:
                access = f"sw $r{rng.choice([0] + progen.DATA_REGS)}"
            out += ["crypt 0", f"{access}, {8 * rng.randrange(16)}($r0)", "crypt 1"]
    return "\n".join(out) + "\n"


def test_differential_accesses_next_to_crypt_flips():
    # each access uses the crypt mode its instruction was fetched in, which
    # is the oracle's mode where it executes the instruction, though a
    # pipeline's flip in ID runs before the MEM of the access ahead of it
    rng = random.Random(2023)
    flips = 0
    for decrypt_loads in (False, True):
        for _ in range(100):
            source = _with_accesses_between_flips(rng, progen.gen_crypt_program(rng))
            flips += source.count("crypt 0")
            progen.check_against_oracle(source, progen.gen_dmem_entries(rng, with_key=True),
                                        progen.KEY, decrypt_loads)
    assert flips >= 200


def test_differential_programs_replaying_at_once(replay_at_once, monkeypatch):
    # with a configuration's second visit recording its segment, a loop
    # replays from its fourth pass: progen's loops of four passes replay
    # their last and stop at its guard; the pipeline must still match the
    # oracle. Those replay no whole pass in one call, so long loops of
    # 130-160 iterations, plain, encrypted and with decrypt_loads, put a
    # looping replay's whole passes in the WB log under the same check
    _, replays = progen.segments_built(monkeypatch)
    rng = random.Random(2022)
    for _ in range(100):
        source = _with_next_line_branches(rng, progen.gen_program(rng))
        progen.check_against_oracle(source, progen.gen_dmem_entries(rng))
    for decrypt_loads in (False, True):
        for _ in range(50):
            source = _with_next_line_branches(rng, progen.gen_crypt_program(rng))
            progen.check_against_oracle(source, progen.gen_dmem_entries(rng, with_key=True),
                                        progen.KEY, decrypt_loads)
    assert len(replays) >= 100
    del replays[:]
    rng = random.Random(41)
    for i in range(30):
        crypt = i % 3 != 0
        source = progen.gen_long_loop_program(rng, rng.randrange(130, 161), crypt)
        progen.check_against_oracle(source, progen.long_loop_entries(rng),
                                    progen.KEY if crypt else None, i % 3 == 2)
    assert any(passes >= 1 for _, passes, _ in replays)


def _with_loads_into_r0(rng, source):
    """source with about half of its loads turned into loads into $r0."""
    return re.sub(r"^lw \$r\d+,",
                  lambda m: "lw $r0," if rng.random() < 0.5 else m.group(),
                  source, flags=re.MULTILINE)


def test_differential_branches_to_the_next_slot():
    # progen's branches skip at least one instruction; one with displacement
    # 0 reaches pc + 8 taken or not, and must flush only when taken
    rng = random.Random(2020)
    for _ in range(100):
        source = _with_next_line_branches(rng, progen.gen_program(rng))
        progen.check_against_oracle(source, progen.gen_dmem_entries(rng))
    for _ in range(20):
        source = _with_next_line_branches(rng, progen.gen_crypt_program(rng))
        progen.check_against_oracle(source, progen.gen_dmem_entries(rng, with_key=True),
                                    progen.KEY)


def test_differential_loads_into_r0_read_through_the_decryptor(monkeypatch):
    # progen loads only into $r1-$r9. With the key loaded, a load into $r0
    # leaves the same state whether or not it decrypts, so the decryptor's
    # load calls are counted: under decrypt_loads each model makes one for
    # every load its crypt-mode body retires, $r0's included
    load_decrypts = []
    decrypt = machine.KeyRegister.decrypt

    def counting_decrypt(keyreg, block, what):
        if what == "decrypting load before key loaded":
            load_decrypts.append(block)
        return decrypt(keyreg, block, what)

    monkeypatch.setattr(machine.KeyRegister, "decrypt", counting_decrypt)
    rng = random.Random(2021)
    into_r0 = 0
    for _ in range(40):
        source = _with_loads_into_r0(
            rng, _with_next_line_branches(rng, progen.gen_crypt_program(rng)))
        load_decrypts.clear()
        state = progen.check_against_oracle(
            source, progen.gen_dmem_entries(rng, with_key=True), progen.KEY,
            decrypt_loads=True)
        loads = [instr for instr in (isa.decode(word) for _, word in state.retired_log)
                 if instr.spec.mnemonic == "lw"]
        assert len(load_decrypts) == 2 * len(loads), source
        into_r0 += sum(instr.rt == 0 for instr in loads)
    assert into_r0 >= 20    # retired loads into $r0
