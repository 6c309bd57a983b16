from types import SimpleNamespace

import pytest

from encmips import asm, cli, des, machine, pipeline


def test_r0_reads_zero():
    rf = machine.RegisterFile()
    assert rf.read(0) == 0


def test_key_register_assembles_paper_key():
    kr = machine.KeyRegister()
    kr.set_lower(0x5450414C)
    kr.set_upper(0x4B495241)
    assert (kr.upper, kr.lower) == (0x4B495241, 0x5450414C)
    # the key is upper << 32 | lower
    sched = des.key_schedule(0x4B4952415450414C)
    assert kr.encrypt(des.pad_word(7), "unused") == des.encrypt_block(des.pad_word(7), sched)


def test_key_register_incomplete():
    kr = machine.KeyRegister()
    with pytest.raises(machine.KeyNotLoaded):
        kr.encrypt(des.pad_word(7), "unused")
    kr.set_lower(1)
    assert kr.lower_loaded and not kr.upper_loaded
    with pytest.raises(machine.KeyNotLoaded):
        kr.encrypt(des.pad_word(7), "unused")


def test_key_register_reload_half():
    kr = machine.KeyRegister()
    kr.set_lower(0x11111111)
    kr.set_upper(0x22222222)
    kr.set_lower(0x33333333)
    assert (kr.upper, kr.lower) == (0x22222222, 0x33333333)


def test_key_register_cipher_waits_for_both_halves(monkeypatch):
    # before the second half no cipher is looked up, so no schedule derived
    derived, schedule = [], des.key_schedule
    monkeypatch.setattr(des, "key_schedule", lambda key: derived.append(key) or schedule(key))
    des.cipher.cache_clear()
    kr = machine.KeyRegister()
    kr.set_upper(0x4B495241)
    with pytest.raises(machine.KeyNotLoaded):
        kr.decrypt(0x10539160018D5FF7, "unused")
    assert derived == []
    kr.set_lower(0x5450414C)
    assert kr.decrypt(0x10539160018D5FF7, "unused") == des.pad_word(0xCB97F7EE)
    assert kr.encrypt(des.pad_word(0xCB97F7EE), "unused") == 0x10539160018D5FF7
    assert derived == [0x4B4952415450414C]


def test_key_register_changed_value_takes_the_new_keys_cipher():
    kr = machine.KeyRegister()
    kr.set_lower(0x5450414C)
    kr.set_upper(0x4B495241)
    kr.decrypt(0x10539160018D5FF7, "unused")
    kr.set_lower(0x11111111)
    new_sched = des.key_schedule(0x4B49524111111111)
    # the old key's pair is not served under the new key
    assert kr.decrypt(0x10539160018D5FF7, "unused") == \
        des.decrypt_block(0x10539160018D5FF7, new_sched)
    block = des.encrypt_block(des.pad_word(7), new_sched)
    assert kr.decrypt(block, "unused") == des.pad_word(7)
    assert kr.encrypt(des.pad_word(7), "unused") == block


def test_key_register_derives_one_schedule_per_key_used(monkeypatch):
    # keys loaded in turn, each load changing both halves, the last upper
    # half first, then the last key reloaded with the same values: the key
    # between a load's two halves is never used, so never derived, and a
    # reload of the key in use derives nothing new
    derived, schedule = [], des.key_schedule

    def counting(key):
        derived.append(key)
        return schedule(key)

    monkeypatch.setattr(des, "key_schedule", counting)
    des.cipher.cache_clear()
    kr = machine.KeyRegister()
    keys = (0x4B4952415450414C, 0x133457799BBCDFF1, 0x0E329232EA6D0D73)
    for i, key in enumerate(keys + keys[-1:]):
        if i == len(keys) - 1:
            kr.set_upper(key >> 32)
        kr.set_lower(key & 0xFFFFFFFF)
        kr.set_upper(key >> 32)
        block = kr.encrypt(des.pad_word(7), "unused")
        assert block == des.encrypt_block(des.pad_word(7), schedule(key))
        assert kr.decrypt(block, "unused") == des.pad_word(7)
    assert derived == list(keys)


def test_key_register_crypt_before_key_names_the_caller():
    kr = machine.KeyRegister()
    kr.set_lower(0x5450414C)
    with pytest.raises(machine.KeyNotLoaded, match="^decrypting fetch before key loaded$"):
        kr.decrypt(0x10539160018D5FF7, "decrypting fetch before key loaded")
    with pytest.raises(machine.KeyNotLoaded, match="^encrypted store before key loaded$"):
        kr.encrypt(des.pad_word(1), "encrypted store before key loaded")


def test_memory_reads_zero_when_empty():
    mem = machine.Memory()
    assert mem.read_block(0) == 0
    assert mem.extent == 0


def test_memory_write_read():
    mem = machine.Memory()
    mem.write_block(56, 0x10539160018D5FF7)
    assert mem.read_block(56) == 0x10539160018D5FF7
    assert mem.extent == 64


def test_memory_unaligned():
    mem = machine.Memory()
    with pytest.raises(machine.UnalignedAccess):
        mem.read_block(57)
    with pytest.raises(machine.UnalignedAccess):
        mem.write_block(4, 1)


def test_memory_last_writer_wins():
    mem = machine.Memory()
    mem.write_block(8, 1)
    mem.write_block(8, 2)
    assert mem.read_block(8) == 2


def test_load_image_paper_data_layout():
    # seven array elements at 0..55, key halves zero-padded at 104 and 112
    mem = machine.Memory()
    text = "\n".join(f"{des.pad_word(i + 1):016x}" for i in range(7))
    text += "\n@68\n000000005450414c\n000000004b495241\n"
    machine.load_image(mem, asm.read_hex(text))
    for i in range(7):
        assert mem.read_block(8 * i) == i + 1
    assert mem.read_block(104) == 0x5450414C
    assert mem.read_block(112) == 0x4B495241
    assert mem.extent == 120


def test_load_image_empty():
    mem = machine.Memory()
    machine.load_image(mem, asm.read_hex(""))
    assert mem.items() == []


def test_load_image_overlap_later_wins():
    mem = machine.Memory()
    image = asm.ProgramImage(entries=[(0, 1), (0, 2)])
    machine.load_image(mem, image)
    assert mem.read_block(0) == 2


def test_load_image_unaligned_entry_raises_after_the_ones_before_it():
    # as block-by-block writes would: the blocks before it placed and
    # counted in extent, none after it
    mem = machine.Memory()
    image = asm.ProgramImage(entries=[(24, 2), (8, 1), (4, 3), (40, 4)])
    with pytest.raises(machine.UnalignedAccess, match="0x4"):
        machine.load_image(mem, image)
    assert mem.items() == [(8, 1), (24, 2)]
    assert mem.extent == 32


def _dump(capsys, state, regs=None, mem=None):
    args = SimpleNamespace(dump_regs=regs, dump_mem=mem)
    cli._print_dumps(state, args)
    return capsys.readouterr().out


def test_format_registers(capsys):
    state = pipeline.CpuState()
    state.regs.values[4] = 0xCBA767EE
    assert _dump(capsys, state, regs=[4]) == "r4 = 0xcba767ee\n"


def test_format_memory(capsys):
    state = pipeline.CpuState()
    state.dmem.write_block(56, 0x10539160018D5FF7)
    assert _dump(capsys, state, mem=[(56, 64)]) == "38: 10539160018d5ff7\n"
    assert _dump(capsys, state, mem=[(48, 64)]) == (
        "30: 0000000000000000\n38: 10539160018d5ff7\n")
