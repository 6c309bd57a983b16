import random
import re

import pytest

import worked
from encmips import asm, des, isa


def test_parse_nop_canonicalizes():
    (stmt,) = asm.parse("nop")
    assert stmt.mnemonic == "sll"
    assert stmt.fields == {"rd": 0, "rt": 0, "shamt": 0}


def test_parse_label_with_instruction():
    (stmt,) = asm.parse("Exit:  sw  $r4, 56($r0)")
    assert stmt.label == "Exit"
    assert stmt.mnemonic == "sw"
    assert stmt.fields == {"rt": 4, "imm": 56, "rs": 0}


def test_parse_crypt():
    (stmt,) = asm.parse("crypt 1")
    assert stmt.mnemonic == "crypt"
    assert stmt.fields == {"target": 1}


def test_parse_comments_and_blanks():
    stmts = asm.parse("# header\n\n  add $r1, $r2, $r3  ; trailing\n; whole line\n")
    assert len(stmts) == 1
    assert stmts[0].mnemonic == "add"
    assert stmts[0].line == 3


def test_parse_lkw_alias_and_bare_register_numbers():
    stmts = asm.parse("lkw 0($1)\nlkuw 8($r1)")
    assert stmts[0].mnemonic == "lklw"
    assert stmts[0].fields == {"imm": 0, "rs": 1}
    assert stmts[1].fields == {"imm": 8, "rs": 1}


def test_parse_hex_immediate():
    (stmt,) = asm.parse("addi $r1, $r0, 0x68")
    assert stmt.fields == {"rt": 1, "rs": 0, "imm": 104}


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


@pytest.mark.parametrize("source, expected", [
    ("add $r1, $r2", (asm.AsmSyntaxError, 1, "'add' takes 3 operand(s), got 2")),
    ("addi $r1, $r0, L", (asm.AsmSyntaxError, 1, "expected number, got 'L'")),
    ("beq $r1, $r2, $r3",
     (asm.AsmSyntaxError, 1, "expected label or number, got '$r3'")),
    ("beq $r0, $r0, 40000",
     (asm.BranchOutOfRange, 1, "branch displacement 40000 does not fit 16 bits")),
    ("j 67108864",
     (asm.BranchOutOfRange, 1, "jump target 67108864 does not fit 26 bits")),
    ("j -1", (asm.BranchOutOfRange, 1, "jump target -1 does not fit 26 bits")),
    ("sll $r1, $r2, 32", (asm.AsmError, 1, "field shamt cannot hold 32")),
    ("crypt 67108864", (asm.AsmError, 1, "field target cannot hold 67108864")),
    ("j Nowhere", (asm.UndefinedLabel, 1, "undefined label 'Nowhere'")),
    # the whole file parses before any label or range is checked
    ("addi $r1, $r0, 99999\nadd $r1, $r2\n",
     (asm.AsmSyntaxError, 2, "'add' takes 3 operand(s), got 2")),
    ("addi $r1, $r0, 99999\nL: nop\nL: nop\n",
     (asm.DuplicateLabel, 3, "duplicate label 'L'")),
    # 0x8000..0xFFFF fold into the signed range (docs/isa.md)
    ("lw $r1, 40000($r2)", [0x8C419C40]),
    ("addi $r1, $r0, 0xFFFF", [0x2001FFFF]),
    # errors no case above reaches
    ("lw $r1, $r2", (asm.AsmSyntaxError, 1, "expected offset($reg), got '$r2'")),
    ("nop $r1", (asm.AsmSyntaxError, 1, "nop takes no operands")),
    ("addi $r1, $r0, 99999", (asm.AsmError, 1, "immediate 99999 does not fit 16 bits")),
    # numbers and register indices are ASCII digits, and a decimal number
    # has no leading zero, which int(text, 0) rejects
    ("addi $r\u0664, $r0, 5", (asm.AsmSyntaxError, 1, "expected register, got '$r\u0664'")),
    ("j \u0661", (asm.AsmSyntaxError, 1, "expected label or number, got '\u0661'")),
    ("lw $r1, \u0668($r0)",
     (asm.AsmSyntaxError, 1, "expected offset($reg), got '\u0668($r0)'")),
    ("nop\naddi $r1, $r0, 010", (asm.AsmSyntaxError, 2, "expected number, got '010'")),
    ("lw $r1, 08($r0)", (asm.AsmSyntaxError, 1, "expected offset($reg), got '08($r0)'")),
    ("beq $r0, $r0, 07", (asm.AsmSyntaxError, 1, "expected label or number, got '07'")),
    ("j 00", [0x08000000]),
    ("addi $r01, $r0, 1", [0x20010001]),
    # a decimal literal longer than int() reads (4300 digits by default) is
    # a diagnostic; hex has no such limit, and a register's leading zeros
    # are dropped before it is read
    pytest.param("nop\naddi $r1, $r0, " + "9" * 5000,
                 (asm.AsmSyntaxError, 2, "number too long to read (5000 characters)"),
                 id="long-immediate"),
    pytest.param("lw $r1, -" + "9" * 5000 + "($r0)",
                 (asm.AsmSyntaxError, 1, "number too long to read (5001 characters)"),
                 id="long-offset"),
    pytest.param("j " + "1" * 5000,
                 (asm.AsmSyntaxError, 1, "number too long to read (5000 characters)"),
                 id="long-jump-target"),
    pytest.param("crypt " + "0" * 5000,
                 (asm.AsmSyntaxError, 1, "number too long to read (5000 characters)"),
                 id="long-crypt-zero"),
    pytest.param("add $r1, $r" + "9" * 5000 + ", $r0",
                 (asm.AsmSyntaxError, 1, "no such register '$r" + "9" * 5000 + "'"),
                 id="long-register"),
    pytest.param("sw $r1, 8($r" + "9" * 5000 + ")",
                 (asm.AsmSyntaxError, 1, "no such register '$r" + "9" * 5000 + "'"),
                 id="long-base-register"),
    pytest.param("lw $r" + "0" * 5000 + "1, 0x" + "0" * 5000 + "8($" + "0" * 5000 + "2)",
                 [0x8C410008], id="long-leading-zeros"),
    # a mnemonic is folded to lower case only when it is ASCII, so KELVIN
    # SIGN, which str.lower() folds to k, names no instruction
    pytest.param("nop\nl\u212alw 0($r1)",
                 (asm.AsmSyntaxError, 2, "unknown mnemonic 'l\u212alw'"),
                 id="non-ascii-mnemonic"),
    pytest.param("LKLW 0($r1)\nAdd $r1, $r2, $r3", [0x68200000, 0x00430820],
                 id="ascii-mnemonic-any-case"),
])
def test_assembler_diagnostics(source, expected):
    if isinstance(expected, list):
        assert asm.assemble(asm.parse(source))[0] == expected
        return
    cls, line, reason = expected
    with pytest.raises(asm.AsmError) as exc:
        asm.assemble(asm.parse(source))
    assert type(exc.value) is cls
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: {reason}"


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


def test_encrypt_image_requires_crypt_that_turns_mode_on():
    with pytest.raises(asm.NoCryptInstruction):
        asm.encrypt_image(asm.build_image("nop"), worked.KEY)
    # a crypt 0 alone leaves crypt mode off, so no block is fetched decrypted
    with pytest.raises(asm.NoCryptInstruction):
        asm.encrypt_image(asm.build_image("nop\ncrypt 0\naddi $r1, $r0, 5"),
                          worked.KEY)


def test_encrypt_image_region_rule():
    # (source, which blocks are encrypted, crypt_boundary)
    cases = [
        # two regions: each crypt comes through the path that fetches it
        ("crypt 1\nnop\ncrypt 0\nnop\ncrypt 1\nnop", [0, 1, 1, 0, 0, 1], 1),
        # a redundant crypt 1 while the mode is on changes nothing
        ("crypt 1\ncrypt 1\nnop", [0, 1, 1], 1),
        # any non-zero flag turns the mode on
        ("nop\ncrypt 3\nnop", [0, 0, 1], 2),
        # a crypt 0 while the mode is off changes nothing
        ("crypt 0\nnop\ncrypt 1\nnop", [0, 0, 0, 1], 3),
    ]
    sched = des.key_schedule(worked.KEY)
    for source, encrypted, boundary in cases:
        image = asm.build_image(source)
        enc = asm.encrypt_image(image, worked.KEY)
        assert enc.crypt_boundary == boundary, source
        assert enc.blocks == [des.encrypt_block(block, sched) if flag else block
                              for flag, block in zip(encrypted, image.blocks)], source


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
    for directive in ("@zz", "@-8", "@+10", "@ 1_0", "@0x10", "@"):
        with pytest.raises(asm.BadHexLine) as exc:
            asm.read_hex(f"0000000000000000\n{directive}\n0000000000000000\n")
        assert exc.value.line == 2
    # a block at 0xfffffff8 is the last one 32-bit addresses reach
    assert asm.read_hex("@fffffff8\n0000000000000000\n").entries == [(0xFFFFFFF8, 0)]
    for text, line in (("@fffffff8\n0000000000000000\n000000002005004d\n", 3),
                       ("@100000000\n0000000000000000\n", 2)):
        with pytest.raises(asm.BadHexLine) as exc:
            asm.read_hex(text)
        assert exc.value.line == line
        assert "past the 32-bit address space" in str(exc.value)


def test_write_hex_emits_gap_directive():
    image = asm.ProgramImage(entries=[(0, 1), (104, 2)])
    assert asm.write_hex(image) == "0000000000000001\n@68\n0000000000000002\n"


def test_auto_nop_inserts_guards():
    source = "lkuw 0($r1)\ncrypt 1"
    words, _ = asm.assemble(asm.parse(source), auto_nop=True)
    assert len(words) == 4
    assert words[1] == 0 and words[2] == 0
    assert isa.decode(words[3]).spec.mnemonic == "crypt"


def test_auto_nop_partial_gap():
    source = "lkuw 0($r1)\nnop\ncrypt 1"
    words, _ = asm.assemble(asm.parse(source), auto_nop=True)
    assert len(words) == 4


def test_auto_nop_leaves_its_input_alone():
    # the guard nop takes crypt's label in a copy, not in the caller's list
    stmts = asm.parse("lkuw 0($r1)\nC: crypt 1\nj C\n")
    guarded, symbols = asm.assemble(stmts, auto_nop=True)
    assert symbols == {"C": 8}
    words, symbols = asm.assemble(stmts)
    assert symbols == {"C": 8}
    assert len(guarded) == 5 and len(words) == 3


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
        seen.add(isa.decode(word).spec.mnemonic)
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
    return isa.encode(isa.Instruction(spec.mnemonic, **fields))


def test_full_toolchain_round_trip():
    # disassemble a random recognized word list, reassemble, compare
    rng = random.Random(31)
    mnemos = ["add", "sub", "and", "or", "slt", "sll", "addi", "lw", "sw"]
    for _ in range(50):
        words = [_random_word(rng, mnemos) for _ in range(rng.randrange(1, 20))]
        listing = "\n".join(isa.disassemble(isa.decode(w)) for w in words)
        rewords, _ = asm.assemble(asm.parse(listing))
        assert rewords == words


def _gap(rng):
    return rng.choice(("", "", " ", "  ", "\t", " \t"))


def _spell_register(index, rng):
    return rng.choice(("$r", "$R", "$")) + "0" * rng.choice((0, 0, 1, 3)) + str(index)


def _spell_number(value, rng):
    sign = "-" if value < 0 else rng.choice(("", "", "+"))
    value = abs(value)
    if value == 0:
        return sign + rng.choice(("0", "00", "0x0", "0X000"))
    return sign + rng.choice((str(value), f"0x{value:x}", f"0X{value:04X}"))


def _respell(listing, rng):
    """The disassembler's text of one instruction with every register and
    number spelled another way the dialect reads, and random blanks around
    its commas and inside its parentheses."""
    text = re.sub(r"\$r(\d+)", lambda m: _spell_register(int(m.group(1)), rng), listing)
    text = re.sub(r"(?<![\w$])-?\d+", lambda m: _spell_number(int(m.group()), rng), text)
    text = re.sub(r"\s*,\s*", lambda m: _gap(rng) + "," + _gap(rng), text)
    return text.replace("(", "(" + _gap(rng)).replace(")", _gap(rng) + ")")


# operand texts put in place of one operand of a well-formed line: good ones
# of each shape, and the near misses the dialect rejects
_OPERAND_SWAPS = (
    "$r1", "$R07", "$31", "$r0031", "$r" + "0" * 5000 + "7", "$r32", "$r99", "$r-1",
    "$r", "$x1", "r1", "$r\u0664", "$ r1", "0", "00", "+0", "-0x10", "0X7fff", "65535",
    "010", "08", "-07", "0x", "0xg", "1_000", "\u0661", "\uff11", "1e3", "+-1",
    "9" * 5000, "0" * 5000, "0x" + "0" * 5000 + "1", "L1", "_x", "L\u00e9", "L\u0661",
    "1L", "0($r1)", "-8( $R02 )", "0 ($r1)", "0($r1", "($r1)", "8($r32)", "8($r01)",
    "0x10($0)", "010($r1)", "", " ")


def _operand_corpus(rng, count):
    """(spec, operand text) pairs: `count` well-formed lines of every row,
    with labels for `t` operands, and mutants of each."""
    for spec in isa.SPECS.values():
        for _ in range(count):
            word = _random_word(rng, [spec.mnemonic])
            listing = _respell(isa.disassemble(isa.decode(word)), rng)
            operands = listing.split(None, 1)[1] if " " in listing else ""
            parts = re.split(r"(\s*,\s*)", operands)    # separators at odd indices
            if "t" in spec.shape and rng.random() < 0.5:
                parts[-1] = rng.choice(("Loop", "_end", "L\u00e9", "x9"))
            yield spec, "".join(parts)
            mutant = list(parts)
            mutant[2 * rng.randrange((len(parts) + 1) // 2)] = rng.choice(_OPERAND_SWAPS)
            yield spec, "".join(mutant)
            whole = "".join(parts)
            yield spec, rng.choice(("".join(parts[:-2]), whole + ", $r1", whole + ",",
                                    whole.replace(",", ",,")))


def test_row_patterns_accept_exactly_what_the_operand_walk_accepts():
    # a row pattern reads a whole operand list in one match; the walk reads
    # one operand at a time and names the first bad one. They must accept
    # the same lines with the same fields, and a line the pattern rejects
    # must fail with the walk's message
    seen = {True: 0, False: 0}
    for spec, operands in _operand_corpus(random.Random(25), 120):
        operands = operands.strip()     # as parse passes them on
        _, read = asm._MNEMONICS[spec.mnemonic]
        try:
            want, error = asm._parse_fields(spec, operands, 1), None
        except asm.AsmSyntaxError as exc:
            want, error = None, str(exc)
        got = read(operands)
        assert got == want, (spec.mnemonic, operands[:80])
        if got is not None:
            assert [type(v) for v in got.values()] == [type(v) for v in want.values()]
        seen[error is None] += 1
        line = f"{spec.mnemonic} {operands}"
        if error is None:
            (stmt,) = asm.parse(line)
            assert stmt.fields == want
        else:
            with pytest.raises(asm.AsmSyntaxError) as exc:
                asm.parse(line)
            assert str(exc.value) == error
    assert min(seen.values()) > 1000, seen
