import random
import re
from pathlib import Path

import pytest

from encmips import asm, isa, machine, pipeline


def test_decode_nop_word():
    instr = isa.decode(0x00000000)
    assert instr == isa.Instruction("sll", rs=0, rt=0, rd=0, shamt=0)


def test_decode_addi():
    # hand-assembled: 0x08<<26 | 1<<16 | 0x0068
    assert isa.decode(0x20010068) == isa.Instruction("addi", rs=0, rt=1, imm=104)


def test_decode_crypt():
    # hand-assembled: 0x1C<<26 | 1
    assert isa.decode(0x70000001) == isa.Instruction("crypt", target=1)


def encode_instruction(instr):
    """isa.encode of an Instruction: its row and its six fields."""
    return isa.encode(instr.spec, instr.rs, instr.rt, instr.rd, instr.shamt,
                      instr.imm, instr.target)


def test_instruction_repr_and_compare():
    addi = isa.decode(0x20010068)
    assert repr(addi) == "Instruction('addi', rs=0, rt=1, rd=0, shamt=0, imm=104, target=0)"
    # an Instruction compares equal only to an Instruction of the same fields
    assert addi.__eq__(0x20010068) is NotImplemented
    assert addi != 0x20010068 and addi != addi._key()


def test_spec_sources_must_run_in_register_order():
    order = re.escape("x: sources must run in the order ('rs', 'rt', 'rd')")
    with pytest.raises(ValueError, match=f"^{order}$"):
        isa.InstrSpec("x", "R", 0x00, 0x3F, "rrr", ("rd", "rs", "rt"), sources=("rt", "rs"))
    spec = isa.InstrSpec("x", "R", 0x00, 0x3F, "rrr", ("rd", "rs", "rt"), sources=("rt", "rd"))
    assert spec.sources_at == slice(1, 3)


def test_encode_nop():
    assert isa.encode(isa.SPECS["sll"]) == 0x00000000


def test_encode_lw():
    # 0x23<<26 | 5<<21 | 6<<16
    assert isa.encode(isa.SPECS["lw"], rs=5, rt=6, imm=0) == 0x8CA60000


def test_encode_slt():
    # 2<<21 | 1<<16 | 7<<11 | 0x2A
    assert isa.encode(isa.SPECS["slt"], rs=2, rt=1, rd=7) == 0x0041382A


def test_disassemble_examples():
    assert isa.disassemble(isa.decode(0x20010068)) == "addi $r1, $r0, 104"
    assert isa.disassemble(isa.decode(0x00000000)) == "nop"
    # 0x2B<<26 | 4<<16 | 0x38
    assert isa.disassemble(isa.decode(0xAC040038)) == "sw $r4, 56($r0)"


def test_negative_immediate_round_trip():
    word = isa.encode(isa.SPECS["beq"], imm=-1)
    assert word & 0xFFFF == 0xFFFF
    assert isa.decode(word).imm == -1


def _random_recognized_word(rng):
    spec = rng.choice(list(isa.SPECS.values()))
    if spec.fmt == "R":
        return (rng.randrange(32) << 21 | rng.randrange(32) << 16
                | rng.randrange(32) << 11 | rng.randrange(32) << 6 | spec.funct)
    if spec.fmt == "I":
        return (spec.opcode << 26 | rng.randrange(32) << 21 | rng.randrange(32) << 16
                | rng.getrandbits(16))
    return spec.opcode << 26 | rng.getrandbits(26)


def test_word_round_trip():
    rng = random.Random(1234)
    for _ in range(2000):
        word = _random_recognized_word(rng)
        assert encode_instruction(isa.decode(word)) == word


def test_instruction_round_trip():
    rng = random.Random(99)
    for _ in range(2000):
        instr = isa.decode(_random_recognized_word(rng))
        assert isa.decode(encode_instruction(instr)) == instr


def test_opcode_table_is_bijective():
    # every mnemonic maps to exactly one (opcode, funct?) pair and back
    specs = list(isa.SPECS.values())
    codes = [(s.opcode, s.funct) for s in specs]
    assert len(set(codes)) == len(codes) == len(isa.SPECS)
    r_opcodes = {s.opcode for s in specs if s.fmt == "R"}
    for s in specs:
        assert (s.funct is not None) == (s.fmt == "R")
        assert s.fmt == "R" or s.opcode not in r_opcodes
        assert isa.spec_of(isa.encode(s)) is s


def test_field_widths_partition_word():
    # each format's fields cover all 32 bits with no overlap
    assert 6 + 5 + 5 + 5 + 5 + 6 == 32  # R
    assert 6 + 5 + 5 + 16 == 32         # I
    assert 6 + 26 == 32                 # J
    # every field but the opcode (and funct) all ones decodes to each
    # field's maximum, and encodes back to the same word
    words = {0x03FFFFE0: isa.Instruction("add", rs=31, rt=31, rd=31, shamt=31),
             0x23FFFFFF: isa.Instruction("addi", rs=31, rt=31, imm=-1),
             0x0BFFFFFF: isa.Instruction("j", target=0x3FFFFFF)}
    for word, instr in words.items():
        assert isa.decode(word) == instr
        assert encode_instruction(instr) == word


def test_unknown_opcode():
    with pytest.raises(isa.UnknownInstruction) as exc:
        isa.decode(0xFC000000)  # opcode 0x3F
    assert exc.value.word == 0xFC000000
    assert str(exc.value) == "unknown instruction word 0xfc000000 (opcode 0x3f, funct 0x00)"


def test_unknown_funct():
    with pytest.raises(isa.UnknownInstruction):
        isa.decode(0x0000003F)  # R-type funct 0x3F


# each field, a row whose format has it, and its widest values in and out
_WIDTHS = {"imm": ("addi", -32768, 32767), "rs": ("addi", 0, 31),
           "rt": ("addi", 0, 31), "rd": ("add", 0, 31), "shamt": ("sll", 0, 31),
           "target": ("j", 0, (1 << 26) - 1)}


def test_field_overflow():
    # each field encodes at both ends of its width and is named one past each
    for name, (mnemonic, lo, hi) in _WIDTHS.items():
        spec = isa.SPECS[mnemonic]
        for value in (lo, hi):
            assert isa.decode(isa.encode(spec, **{name: value})) == \
                isa.Instruction(mnemonic, **{name: value})
        for value in (lo - 1, hi + 1):
            with pytest.raises(isa.FieldOverflow) as exc:
                isa.encode(spec, **{name: value})
            assert (exc.value.field, exc.value.value) == (name, value)
            assert str(exc.value) == f"field {name} cannot hold {value}"


def test_encode_names_the_first_field_out_of_width_in_its_order():
    # the order is imm, rs, rt, rd, shamt, target; target is the J format's
    # only field, so these are all the pairs one format holds
    assert list(_WIDTHS) == ["imm", "rs", "rt", "rd", "shamt", "target"]
    for mnemonic, names in (("addi", ("imm", "rs", "rt")),
                            ("add", ("rs", "rt", "rd", "shamt"))):
        spec = isa.SPECS[mnemonic]
        for i, first in enumerate(names):
            for second in names[i + 1:]:
                fields = {n: _WIDTHS[n][2] + 1 for n in (second, first)}
                with pytest.raises(isa.FieldOverflow) as exc:
                    isa.encode(spec, **fields)
                assert exc.value.field == first, (mnemonic, first, second)


def test_disasm_word_never_raises():
    assert isa.disasm_word(0xFC123456) == ".word 0xfc123456"
    assert isa.disasm_word(0x00000000) == "nop"


# Written out by hand, not read from isa.SPECS: for one instance of every
# mnemonic, the registers it reads, the register it writes back, its memory
# access (see _memory), its ALU result for a = rs value, b = rt value, and
# its effect (see _effect): for a branch or jump the next pc at pc 16 with
# the same a and b, for crypt the mode it sets, for a key load the key
# register's (lower_loaded, upper_loaded, lower, upper) after it loads
# KEY_WORD.
KEY_WORD = 0x12345678
# the published encryption of the padded word 0xCB97F7EE under PAPER_KEY
PAPER_KEY = 0x4B4952415450414C      # "KIRATPAL"
PAPER_BLOCK = 0x10539160018D5FF7
PINNED = {
    "add": (isa.Instruction("add", rs=1, rt=2, rd=3), (1, 2), 3, None, 5, 7, 12, None),
    "sub": (isa.Instruction("sub", rs=1, rt=2, rd=3), (1, 2), 3, None, 5, 7, 0xFFFFFFFE, None),
    "and": (isa.Instruction("and", rs=1, rt=2, rd=3), (1, 2), 3, None, 0b1100, 0b1010, 0b1000,
            None),
    "or": (isa.Instruction("or", rs=1, rt=2, rd=3), (1, 2), 3, None, 0b1100, 0b1010, 0b1110,
           None),
    "slt": (isa.Instruction("slt", rs=1, rt=2, rd=3), (1, 2), 3, None, 0xFFFFFFFF, 1, 1, None),
    "sll": (isa.Instruction("sll", rs=0, rt=2, rd=3, shamt=4), (2,), 3, None,
            0, 0x80000001, 0x10, None),
    "addi": (isa.Instruction("addi", rs=1, rt=2, imm=-1), (1,), 2, None, 5, 0, 4, None),
    # a read into a register decrypts; a write stores the encrypted pad(99)
    "lw": (isa.Instruction("lw", rs=1, rt=2, imm=8), (1,), 2,
           (isa.READ, 0xCB97F7EE, PAPER_BLOCK), 16, 99, 24, None),
    "sw": (isa.Instruction("sw", rs=1, rt=2, imm=-8), (1, 2), None,
           (isa.WRITE, None, 0xDA2F91900405B18D), 16, 99, 8, None),
    "beq": (isa.Instruction("beq", rs=1, rt=2, imm=3), (1, 2), None, None, 5, 5, None, 48),
    "bne": (isa.Instruction("bne", rs=1, rt=2, imm=3), (1, 2), None, None, 5, 6, None, 48),
    "j": (isa.Instruction("j", target=5), (), None, None, 0, 0, None, 40),
    # a key load reads the raw low word, never through the decryptor
    "lklw": (isa.Instruction("lklw", rs=1, rt=0, imm=8), (1,), None,
             (isa.READ, 0x018D5FF7, PAPER_BLOCK), 16, 0, 24, (True, False, KEY_WORD, 0)),
    "lkuw": (isa.Instruction("lkuw", rs=1, rt=0, imm=-8), (1,), None,
             (isa.READ, 0x018D5FF7, PAPER_BLOCK), 16, 0, 8, (False, True, 0, KEY_WORD)),
    "crypt": (isa.Instruction("crypt", target=1), (), None, None, 0, 0, None, True),
}


def _memory(instr, addr, b):
    """(direction, the word pipeline.mem_stage returns, the block it leaves at
    addr) for the row's access at addr with rt value b, on a fresh memory
    holding PAPER_BLOCK at addr, in crypt mode under PAPER_KEY with
    decrypt_loads on; None for a row with no memory direction."""
    if instr.spec.mem is None:
        return None
    dmem = machine.Memory()
    dmem.write_block(addr, PAPER_BLOCK)
    keyreg = machine.KeyRegister()
    keyreg.set_lower(PAPER_KEY & 0xFFFFFFFF)
    keyreg.set_upper(PAPER_KEY >> 32)
    word = pipeline.mem_stage(instr.spec, addr, b, True, keyreg, dmem, decrypt_loads=True)
    return instr.spec.mem, word, dmem.read_block(addr)


def _effect(instr, a, b, pc=16):
    """What the row's redirect, mode or load_key gives; None for a row with
    none of them."""
    spec = instr.spec
    if spec.redirect is not None:
        return spec.redirect(pc, a, b, instr)
    if spec.mode is not None:
        return spec.mode(instr)
    if spec.load_key is not None:
        keyreg = machine.KeyRegister()
        spec.load_key(keyreg, KEY_WORD)
        return (keyreg.lower_loaded, keyreg.upper_loaded, keyreg.lower, keyreg.upper)
    return None


def test_every_mnemonic_is_pinned():
    assert set(PINNED) == set(isa.SPECS)


@pytest.mark.parametrize("mnemonic", sorted(PINNED))
def test_table_row_semantics(mnemonic):
    instr, sources, dest, memory, a, b, result, effect = PINNED[mnemonic]
    spec = instr.spec
    assert instr.sources == sources
    assert instr.dest == dest
    # the pipeline and the oracle act on at most one of these hooks, and a
    # load_key row is a read with no dest
    hooks = (spec.redirect, spec.mode, spec.load_key)
    assert sum(hook is not None for hook in hooks) <= 1
    direction = memory[0] if memory is not None else None
    assert (spec.load_key is not None) == (direction == isa.READ and spec.dest is None)
    alu = spec.alu
    assert (alu(a, b, instr) if alu is not None else None) == result
    assert _memory(instr, result, b) == memory
    assert _effect(instr, a, b) == effect
    # every stage reads both rs and rt; the operand whose field the row
    # does not read must not change the result
    if "rs" not in spec.sources:
        a = 0xDEADBEEF
    if "rt" not in spec.sources:
        b = 0xDEADBEEF
    assert (alu(a, b, instr) if alu is not None else None) == result
    assert _effect(instr, a, b) == effect


# Effects beyond PINNED's one instance per row: (instruction, pc, rs value,
# rt value, effect as in PINNED; None when a branch falls through)
EFFECTS = [
    (isa.Instruction("beq", rs=1, rt=2, imm=3), 16, 5, 6, None),
    (isa.Instruction("bne", rs=1, rt=2, imm=3), 16, 5, 5, None),
    (isa.Instruction("beq", rs=1, rt=2, imm=-2), 16, 0, 0, 8),
    # a target wraps like every pc, and 0 is a target, not a fall-through
    (isa.Instruction("beq", rs=1, rt=2, imm=-1), 0, 7, 7, 0),
    (isa.Instruction("beq", rs=1, rt=2, imm=-2), 0, 7, 7, 0xFFFFFFF8),
    (isa.Instruction("bne", rs=1, rt=2, imm=0), 0xFFFFFFF8, 7, 0, 0),
    (isa.Instruction("j", target=5), 0x100, 9, 9, 40),
    (isa.Instruction("j", target=0x3FFFFFF), 0, 0, 0, 0x1FFFFFF8),
    # crypt mode = flag != 0
    (isa.Instruction("crypt", target=0), 16, 0, 0, False),
    (isa.Instruction("crypt", target=5), 16, 0, 0, True),
    (isa.Instruction("crypt", target=0x3FFFFFF), 16, 0, 0, True),
]


@pytest.mark.parametrize("instr, pc, a, b, effect", EFFECTS)
def test_row_effect(instr, pc, a, b, effect):
    assert _effect(instr, a, b, pc) == effect


# slt beyond PINNED's -1 < 1: the signed corners, as (rs value, rt value, result)
SLT_CORNERS = [
    (0x80000000, 0x7FFFFFFF, 1), (0x7FFFFFFF, 0x80000000, 0),
    (0, 0xFFFFFFFF, 0), (0xFFFFFFFF, 0, 1),
    (0x80000000, 0x80000000, 0), (0xFFFFFFFF, 0xFFFFFFFF, 0), (7, 7, 0)]


@pytest.mark.parametrize("a, b, result", SLT_CORNERS)
def test_slt_compares_signed(a, b, result):
    slt = isa.Instruction("slt", rs=1, rt=2, rd=3)
    assert slt.spec.alu(a, b, slt) == result


# Template inputs beyond PINNED's, as (instruction, rs value, rt value)
TEMPLATE_CASES = [
    *((isa.Instruction("slt", rs=1, rt=2, rd=3), a, b) for a, b, _ in SLT_CORNERS),
    (isa.Instruction("sll", rt=2, rd=3, shamt=0), 0, 0x80000001),
    (isa.Instruction("sll", rt=2, rd=3, shamt=31), 0, 0xFFFFFFFF),
    (isa.Instruction("add", rs=1, rt=2, rd=3), 0xFFFFFFFF, 1),
    (isa.Instruction("add", rs=1, rt=2, rd=3), 0x80000000, 0x80000000),
    (isa.Instruction("sub", rs=1, rt=2, rd=3), 0, 1),
    (isa.Instruction("sub", rs=1, rt=2, rd=3), 0x7FFFFFFF, 0xFFFFFFFF),
    (isa.Instruction("addi", rs=1, rt=2, imm=-32768), 5, 0),
    (isa.Instruction("addi", rs=1, rt=2, imm=-32768), 0xFFFFFFFF, 0),
    (isa.Instruction("addi", rs=1, rt=2, imm=32767), 0xFFFFFFFF, 0),
    (isa.Instruction("addi", rs=1, rt=2, imm=32767), 0, 0),
    (isa.Instruction("beq", rs=1, rt=2, imm=3), 7, 7),
    (isa.Instruction("beq", rs=1, rt=2, imm=-3), 7, 8),
    (isa.Instruction("bne", rs=1, rt=2, imm=3), 7, 8),
    (isa.Instruction("bne", rs=1, rt=2, imm=-3), 7, 7),
]


@pytest.mark.parametrize("mnemonic", sorted(m for m, spec in isa.SPECS.items()
                                            if spec.alu_text or spec.taken_text))
def test_each_template_written_inline_agrees_with_its_function(mnemonic):
    # a compiled segment writes the row's template with its operands and
    # the instruction's fields as literals; the generic loop, the oracle
    # and PINNED call the function compiled from the same template
    pinned = PINNED[mnemonic]
    cases = [(pinned[0], pinned[4], pinned[5])] + [
        (instr, a, b) for instr, a, b in TEMPLATE_CASES if instr.spec.mnemonic == mnemonic]
    spec = isa.SPECS[mnemonic]
    for instr, a, b in cases:
        if spec.alu_text is not None:
            inline = eval(isa._render(spec.alu_text, str(a), str(b), instr))
            assert type(inline) is int and inline == spec.alu(a, b, instr), (instr, a, b)
            assert type(spec.alu(a, b, instr)) is int
        else:
            inline = eval(isa._render(spec.taken_text, str(a), str(b), instr))
            assert inline == (spec.redirect(16, a, b, instr) is not None), (instr, a, b)
    if mnemonic in ("beq", "bne"):      # both taken and not taken
        assert {spec.redirect(16, a, b, instr) is None for instr, a, b in cases} == {True, False}


def test_fields_a_format_lacks_read_zero():
    # the pipeline and the oracle read rs and rt of every instruction, so a
    # field outside the format must name $r0, whatever the word's bits
    jump = isa.decode(0x0BFFFFFF)     # j 0x3ffffff: rs and rt bits all ones
    assert (jump.rs, jump.rt, jump.rd, jump.shamt, jump.imm) == (0, 0, 0, 0, 0)
    add = isa.decode(0x03FFFFE0)      # add with every field all ones
    assert (add.imm, add.target) == (0, 0)
    addi = isa.decode(0x23FFFFFF)
    assert (addi.rd, addi.shamt, addi.target) == (0, 0, 0)
    assert isa.Instruction("crypt", rs=3, rt=4, target=1) == isa.decode(0x70000001)


def _unused_fields(spec):
    """The register and shamt fields of the row's format that no operand fills."""
    fields = {"R": ("rs", "rt", "rd", "shamt"), "I": ("rs", "rt"), "J": ()}[spec.fmt]
    filled = {part for operand in spec.operands for part in re.split(r"[()]", operand)}
    return tuple(name for name in fields if name not in filled)


def test_bits_outside_a_rows_operands_change_nothing_and_disassemble_away():
    # decode keeps a known row whatever its unused fields hold; those bits
    # change no result, and the disassembly drops them, so it reassembles to
    # the word with them clear
    shift = {"rs": 21, "rt": 16, "shamt": 6}
    unused = {m: _unused_fields(isa.SPECS[m]) for m in PINNED}
    assert {m: f for m, f in unused.items() if f} == {
        "add": ("shamt",), "sub": ("shamt",), "and": ("shamt",), "or": ("shamt",),
        "slt": ("shamt",), "sll": ("rs",), "lklw": ("rt",), "lkuw": ("rt",)}
    for mnemonic, fields in unused.items():
        if not fields:
            continue
        canonical, sources, dest, memory, a, b, result, effect = PINNED[mnemonic]
        canonical_word = encode_instruction(canonical)
        word = canonical_word
        for name in fields:
            word |= 0x1F << shift[name]
        assert word != canonical_word, mnemonic
        instr = isa.decode(word)
        assert (instr.spec, instr.sources, instr.dest) == (canonical.spec, sources, dest)
        assert instr.spec.alu(a, b, instr) == result, mnemonic
        assert _memory(instr, result, b) == memory, mnemonic
        assert _effect(instr, a, b) == effect, mnemonic
        words, _ = asm.assemble(asm.parse(isa.disassemble(instr)))
        assert words == [canonical_word], mnemonic
    assert isa.disasm_word(0x00221860) == "add $r3, $r1, $r2"


# Written out by hand, not read from isa.SPECS: each row's source register
# fields and the field it writes back
REGISTER_FIELDS = {
    "add": (("rs", "rt"), "rd"), "sub": (("rs", "rt"), "rd"), "and": (("rs", "rt"), "rd"),
    "or": (("rs", "rt"), "rd"), "slt": (("rs", "rt"), "rd"), "sll": (("rt",), "rd"),
    "addi": (("rs",), "rt"), "lw": (("rs",), "rt"), "sw": (("rs", "rt"), None),
    "beq": (("rs", "rt"), None), "bne": (("rs", "rt"), None), "j": ((), None),
    "lklw": (("rs",), None), "lkuw": (("rs",), None), "crypt": ((), None)}


def test_decode_matches_bit_slicing_on_random_words_of_every_row():
    # every bit outside the opcode (and an R row's funct) random, so the
    # fields a row's format lacks and its unused operand fields are set too;
    # the last word of each row has all of those bits set
    assert set(REGISTER_FIELDS) == set(isa.SPECS)
    rng = random.Random(2718)
    for spec in isa.SPECS.values():
        fixed, code = (0xFC00003F, spec.funct) if spec.fmt == "R" else (0xFC000000, 0)
        for word in [rng.getrandbits(32) for _ in range(400)] + [0xFFFFFFFF]:
            word = word & ~fixed | spec.opcode << 26 | code
            instr = isa.decode(word)
            assert instr.spec is spec
            bits = {"rs": word >> 21 & 31, "rt": word >> 16 & 31, "rd": word >> 11 & 31,
                    "shamt": word >> 6 & 31, "imm": (word & 0xFFFF) - (word & 0x8000) * 2,
                    "target": word & 0x3FFFFFF}
            kept = {"R": ("rs", "rt", "rd", "shamt"), "I": ("rs", "rt", "imm"),
                    "J": ("target",)}[spec.fmt]
            fields = {name: bits[name] if name in kept else 0 for name in bits}
            assert {name: getattr(instr, name) for name in fields} == fields, hex(word)
            sources, dest = REGISTER_FIELDS[spec.mnemonic]
            assert instr.sources == tuple(fields[name] for name in sources), hex(word)
            assert instr.dest == ((fields[dest] or None) if dest else None), hex(word)


def test_dest_r0_writes_nothing():
    assert isa.Instruction("add", rs=1, rt=2, rd=0).dest is None
    assert isa.Instruction("lw", rs=1, rt=0, imm=0).dest is None


def test_docs_opcode_table_matches_isa():
    # every row of the "Opcode table" in docs/isa.md: mnemonic, format,
    # opcode and funct agree with isa.SPECS; `nop` is the word 0
    doc = (Path(__file__).resolve().parent.parent / "docs" / "isa.md").read_text()
    section = doc.split("## Opcode table", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) < 4 or not cells[0].startswith("`"):
            continue
        mnemonic = cells[0].strip("`").split()[0]
        rows[mnemonic] = (cells[1], int(cells[2], 16),
                          int(cells[3], 16) if cells[3] else None)
    word0 = isa.decode(isa.NOP_WORD).spec
    assert rows.pop("nop") == (word0.fmt, word0.opcode, word0.funct)
    assert rows == {s.mnemonic: (s.fmt, s.opcode, s.funct) for s in isa.SPECS.values()}
