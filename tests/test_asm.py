import random

import pytest

import worked
from encmips import asm, des, isa


def test_parse_nop_canonicalizes():
    (stmt,) = asm.parse("nop")
    assert stmt.mnemonic == "sll"
    assert stmt.operands == [asm.Reg(0), asm.Reg(0), asm.Imm(0)]


def test_parse_label_with_instruction():
    (stmt,) = asm.parse("Exit:  sw  $r4, 56($r0)")
    assert stmt.label == "Exit"
    assert stmt.mnemonic == "sw"
    assert stmt.operands == [asm.Reg(4), asm.MemRef(56, 0)]


def test_parse_crypt():
    (stmt,) = asm.parse("crypt 1")
    assert stmt.mnemonic == "crypt"
    assert stmt.operands == [asm.Imm(1)]


def test_parse_comments_and_blanks():
    stmts = asm.parse("# header\n\n  add $r1, $r2, $r3  ; trailing\n; whole line\n")
    assert len(stmts) == 1
    assert stmts[0].mnemonic == "add"
    assert stmts[0].line == 3


def test_parse_lkw_alias_and_bare_register_numbers():
    stmts = asm.parse("lkw 0($1)\nlkuw 8($r1)")
    assert stmts[0].mnemonic == "lklw"
    assert stmts[0].operands == [asm.MemRef(0, 1)]
    assert stmts[1].operands == [asm.MemRef(8, 1)]


def test_parse_hex_immediate():
    (stmt,) = asm.parse("addi $r1, $r0, 0x68")
    assert stmt.operands[2] == asm.Imm(104)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(asm.AsmSyntaxError) as exc:
        asm.parse("nop\nfrobnicate $r1")
    assert exc.value.line == 2
    with pytest.raises(asm.AsmSyntaxError):
        asm.parse("add $r1, $r2")  # wrong operand count
    with pytest.raises(asm.AsmSyntaxError):
        asm.parse("add $r1, $r2, 17")  # wrong operand kind
    with pytest.raises(asm.AsmSyntaxError):
        asm.parse("lw $r1, 0($r32)")  # no such register


def test_assemble_worked_example_layout():
    words, symbols = asm.assemble(asm.parse(worked.VERBATIM))
    assert len(words) == 21                       # byte addresses 0..167
    assert symbols == {"Loop": 88, "Exit": 160}   # Loop is word index 11
    assert words[0] == 0x20010068
    assert words[6] == 0x70000001
    assert words[20] == 0xAC040038


def test_assemble_jump_targets_slot():
    words, symbols = asm.assemble(asm.parse(worked.VERBATIM))
    assert symbols["Loop"] // 8 == 11
    assert words[19] == 0x0800000B  # j Loop


def test_assemble_self_branch():
    words, _ = asm.assemble(asm.parse("L: beq $r0, $r0, L"))
    assert words[0] & 0xFFFF == 0xFFFF  # displacement -1


def test_assemble_branch_displacement():
    source = "bne $r7, $r0, Next\nnop\nnop\nNext: nop"
    words, symbols = asm.assemble(asm.parse(source))
    assert symbols["Next"] == 24
    assert isa.decode(words[0]).imm == 2  # (24 - (0+8)) / 8


def test_label_only_line_attaches_to_next_word():
    words, symbols = asm.assemble(asm.parse("nop\nTop:\nadd $r1, $r1, $r1"))
    assert symbols["Top"] == 8
    assert len(words) == 2


def test_assemble_undefined_label():
    with pytest.raises(asm.UndefinedLabel):
        asm.assemble(asm.parse("j Nowhere"))


def test_assemble_duplicate_label():
    with pytest.raises(asm.DuplicateLabel):
        asm.assemble(asm.parse("L: nop\nL: nop"))


def test_assemble_branch_out_of_range():
    stmts = asm.parse("beq $r0, $r0, 40000")
    with pytest.raises(asm.BranchOutOfRange):
        asm.assemble(stmts)


def test_pack_zero_pads_each_word():
    assert asm.pack([0x00000000]) == [0x0000000000000000]
    assert asm.pack([0x20010068]) == [0x0000000020010068]
    blocks = asm.pack(list(range(21)))
    assert len(blocks) == 21


def test_build_image_addresses():
    image = asm.build_image(worked.VERBATIM)
    assert [addr for addr, _ in image.entries] == [8 * i for i in range(21)]
    assert image.entries[0] == (0, 0x0000000020010068)


def test_encrypt_image_boundary():
    image = asm.build_image(worked.VERBATIM)
    enc = asm.encrypt_image(image, worked.KEY)
    assert enc.crypt_boundary == 7  # crypt occupies word index 6
    sched = des.key_schedule(worked.KEY)
    for i, (addr, block) in enumerate(enc.entries):
        if i < 7:
            assert block == image.entries[i][1]
        else:
            assert block != image.entries[i][1]
            assert des.decrypt_block(block, sched) == image.entries[i][1]


def test_encrypt_image_no_tail():
    image = asm.build_image("nop\ncrypt 1")
    enc = asm.encrypt_image(image, worked.KEY)
    assert enc.crypt_boundary == 2
    assert enc.blocks == image.blocks


def test_encrypt_image_requires_single_crypt():
    with pytest.raises(asm.NoCryptInstruction):
        asm.encrypt_image(asm.build_image("nop"), worked.KEY)
    with pytest.raises(asm.MultipleCryptInstructions):
        asm.encrypt_image(asm.build_image("crypt 1\nnop\ncrypt 0"), worked.KEY)


def test_encrypt_image_explicit_boundary():
    image = asm.build_image("crypt 1\nnop\ncrypt 0")
    enc = asm.encrypt_image(image, worked.KEY, boundary=1)
    assert enc.crypt_boundary == 1
    assert enc.blocks[0] == image.blocks[0]
    assert enc.blocks[1] != image.blocks[1]


def test_hex_round_trip():
    image = asm.encrypt_image(asm.build_image(worked.VERBATIM), worked.KEY)
    text = asm.write_hex(image)
    back = asm.read_hex(text)
    assert back.entries == image.entries
    assert asm.write_hex(back) == text


def test_read_hex_address_directive():
    image = asm.read_hex("@68\n000000005450414c\n")
    assert image.entries == [(104, 0x5450414C)]


def test_read_hex_single_zero_block():
    image = asm.read_hex("0000000000000000\n")
    assert image.entries == [(0, 0)]


def test_read_hex_errors():
    with pytest.raises(asm.BadHexLine) as exc:
        asm.read_hex("00\n")
    assert exc.value.line == 1
    with pytest.raises(asm.UnalignedAddressDirective):
        asm.read_hex("@6b\n0000000000000000\n")
    for directive in ("@-8", "@+10", "@ 1_0", "@0x10", "@"):
        with pytest.raises(asm.UnalignedAddressDirective) as exc:
            asm.read_hex(f"0000000000000000\n{directive}\n0000000000000000\n")
        assert exc.value.line == 2


def test_write_hex_emits_gap_directive():
    image = asm.ProgramImage(entries=[(0, 1), (104, 2)])
    assert asm.write_hex(image) == "0000000000000001\n@68\n0000000000000002\n"


def test_auto_nop_inserts_guards():
    source = "lkuw 0($r1)\ncrypt 1"
    words, _ = asm.assemble(asm.parse(source), auto_nop=True)
    assert len(words) == 4
    assert words[1] == 0 and words[2] == 0
    assert isa.decode(words[3]).mnemonic == "crypt"


def test_auto_nop_partial_gap():
    source = "lkuw 0($r1)\nnop\ncrypt 1"
    words, _ = asm.assemble(asm.parse(source), auto_nop=True)
    assert len(words) == 4


def test_auto_nop_leaves_guarded_code_alone():
    verbatim, _ = asm.assemble(asm.parse(worked.VERBATIM))
    guarded, _ = asm.assemble(asm.parse(worked.VERBATIM), auto_nop=True)
    assert verbatim == guarded


def test_disassemble_parse_round_trip():
    rng = random.Random(5)
    mnemos = list(isa.SPECS)
    seen = set()
    for _ in range(300):
        word = _random_word(rng, mnemos)
        seen.add(isa.decode(word).mnemonic)
        listing = isa.disassemble(isa.decode(word))
        words, _ = asm.assemble(asm.parse(listing))
        assert words == [word]
    assert seen == set(isa.SPECS)


def _random_word(rng, mnemos):
    """A random word of one of `mnemos`, each operand drawn by its shape
    over the whole range of the field it fills."""
    spec = isa.SPECS[rng.choice(mnemos)]
    fields = {}
    for kind, name in zip(spec.shape, spec.operands):
        if kind == "r":
            fields[name] = rng.randrange(32)
        elif kind == "m":
            fields["rs"], fields["imm"] = rng.randrange(32), rng.randrange(-32768, 32768)
        elif name == "imm":
            fields[name] = rng.randrange(-32768, 32768)
        elif name == "shamt":
            fields[name] = rng.randrange(32)
        else:
            fields[name] = rng.randrange(1 << 26)
    return isa.encode(isa.build(spec.mnemonic, **fields))


def test_full_toolchain_round_trip():
    # disassemble a random recognized word list, reassemble, compare
    rng = random.Random(31)
    mnemos = ["add", "sub", "and", "or", "slt", "sll", "addi", "lw", "sw"]
    for _ in range(50):
        words = [_random_word(rng, mnemos) for _ in range(rng.randrange(1, 20))]
        listing = "\n".join(isa.disassemble(isa.decode(w)) for w in words)
        rewords, _ = asm.assemble(asm.parse(listing))
        assert rewords == words
