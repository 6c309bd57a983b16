"""Instruction formats, the instruction table, and word-level encode/decode.

Field layout (32-bit word, bit 31 on the left). `decode(word)` gives an
`Instruction`, which holds all six fields, with 0 in each one its format
lacks; `encode(spec, rs=0, rt=0, rd=0, shamt=0, imm=0, target=0)` takes a
row and its fields, not an `Instruction`, the same way:
    R-type: opcode(6) | rs(5) | rt(5) | rd(5) | shamt(5) | funct(6)
    I-type: opcode(6) | rs(5) | rt(5) | imm(16, two's complement)
    J-type: opcode(6) | target(26)

`SPECS` is the one place an instruction is defined: its row for a mnemonic
gives the encoding, the assembler operands, the registers read and written,
the ALU operation, the memory direction, the key-register load, the branch
or jump target, the crypt mode it sets, and the disassembly. A row gives
its ALU operation and a compare branch its taken condition as expression
templates, compiled once into the row's functions; the pipeline's compiled
segments write the same templates inline (_render). The assembler, the
pipeline and the reference interpreter call the row's functions and name
no mnemonic, so a new ALU operation, branch, jump, read or write is one
row. The standard MIPS subset keeps its classic opcode/funct values; the
three key-handling instructions take otherwise unused opcodes.
"""

from __future__ import annotations

import functools
from collections.abc import Callable

WORD_MASK = 0xFFFFFFFF
NOP_WORD = 0x00000000

# Memory directions: what MEM does at the address the ALU computed. A read
# takes the low 32 bits of the block to the row's load_key, else to its dest.
READ = "read"
WRITE = "write"  # block = zero-padded rt, encrypted in crypt mode


# rs + imm: the result of addi and the address of every memory access
_ADD_IMM = "({a} + {imm}) & 0xFFFFFFFF"


def _render(text: str, a: str, b: str, instr: Instruction | None = None) -> str:
    """A row's template as Python source: a and b are the source of its rs
    and rt values, and the instruction's fields are instr's, as literals,
    or with no instr reads of the instruction `i`."""
    if instr is None:
        return text.format(a=a, b=b, imm="i.imm", shamt="i.shamt")
    return text.format(a=a, b=b, imm=f"({instr.imm})", shamt=f"({instr.shamt})")


def _branch(taken: str):
    """A compare branch's redirect: pc + 8 + imm*8, wrapped like every pc,
    when the template taken holds, else None."""
    return eval(f"lambda pc, a, b, i: (pc + 8 + i.imm * 8) & 0xFFFFFFFF "
                f"if {_render(taken, 'a', 'b')} else None")


# How the disassembly writes each operand shape; an `m` operand is imm(rs).
_OPERAND_TEXT = {"r": "$r{{i.{}}}", "i": "{{i.{}}}", "t": "{{i.{}}}",
                 "m": "{{i.imm}}($r{{i.rs}})"}


class InstrSpec:
    """One instruction's row in the table.

    fmt is "R", "I" or "J", and funct is None outside the R format. shape
    gives the assembler operands, one letter each: r register, i number,
    m offset(base), t label or raw number (a slot displacement into imm, a
    slot index into target); operands names the field each one fills.
    sources are the register fields read and dest the one written back.
    alu, None for none, is the 32-bit result as a template (see _render)
    over {a} and {b}, the rs and rt values, and {imm} and {shamt}; mem is
    the memory direction, READ or WRITE. A read with no dest has load_key:
    (machine.KeyRegister, read word) -> None, which sets one half. In ID a
    compare branch resolves by taken, its condition as a template over {a}
    and {b}, and a jump by redirect; crypt has mode: instruction -> the
    crypt mode it sets. aliases are other names the assembler accepts.

    Derived: alu_text and taken_text, the templates; alu, compiled from its
    own: (rs value, rt value, instruction) -> the result; a branch's
    redirect, from taken: (pc, rs value, rt value, instruction) -> the next
    pc, or None when it falls through; template, the disassembly as a
    str.format template over the instruction `i`; sources_at and dest_at,
    where the constructor's (rs, rt, rd, None) holds the sources' register
    numbers (a slice) and the dest's (an index, 3 for none); and stage,
    what the pipeline's later stages read, copied onto a slot at IF: alu,
    mem, redirect, mode, load_key, and rare, True for a row with redirect
    or mode, else None. Nothing writes a row after it is built.
    """

    def __init__(self, mnemonic: str, fmt: str, opcode: int, funct: int | None,
                 shape: str, operands: tuple[str, ...], sources: tuple[str, ...] = (),
                 dest: str | None = None, alu: str | None = None, mem: str | None = None,
                 load_key: Callable[[object, int], None] | None = None,
                 taken: str | None = None,
                 redirect: Callable[[int, int, int, Instruction], int | None] | None = None,
                 mode: Callable[[Instruction], bool] | None = None,
                 aliases: tuple[str, ...] = ()):
        self.mnemonic, self.fmt, self.opcode, self.funct = mnemonic, fmt, opcode, funct
        self.shape, self.operands, self.sources, self.dest = shape, operands, sources, dest
        self.alu_text, self.taken_text = alu, taken
        alu = eval(f"lambda a, b, i: {_render(alu, 'a', 'b')}") if alu else None
        redirect = _branch(taken) if taken else redirect
        self.alu, self.mem, self.load_key, self.redirect = alu, mem, load_key, redirect
        self.mode, self.aliases = mode, aliases
        text = ", ".join(_OPERAND_TEXT[kind].format(name)
                         for kind, name in zip(shape, operands))
        self.template = f"{mnemonic} {text}"
        regs = ("rs", "rt", "rd")
        first = regs.index(sources[0]) if sources else 0
        self.sources_at = slice(first, first + len(sources))
        if regs[self.sources_at] != sources:
            raise ValueError(f"{mnemonic}: sources must run in the order {regs}")
        self.dest_at = regs.index(dest) if dest else 3
        self.stage = (alu, mem, redirect, mode, load_key, True if redirect or mode else None)


SPECS: dict[str, InstrSpec] = {spec.mnemonic: spec for spec in (
    #         mnemonic fmt  opcode funct shape  operands
    InstrSpec("add",   "R", 0x00, 0x20, "rrr", ("rd", "rs", "rt"),
              sources=("rs", "rt"), dest="rd", alu="({a} + {b}) & 0xFFFFFFFF"),
    InstrSpec("sub",   "R", 0x00, 0x22, "rrr", ("rd", "rs", "rt"),
              sources=("rs", "rt"), dest="rd", alu="({a} - {b}) & 0xFFFFFFFF"),
    InstrSpec("and",   "R", 0x00, 0x24, "rrr", ("rd", "rs", "rt"),
              sources=("rs", "rt"), dest="rd", alu="{a} & {b}"),
    InstrSpec("or",    "R", 0x00, 0x25, "rrr", ("rd", "rs", "rt"),
              sources=("rs", "rt"), dest="rd", alu="{a} | {b}"),
    InstrSpec("slt",   "R", 0x00, 0x2A, "rrr", ("rd", "rs", "rt"),
              sources=("rs", "rt"), dest="rd",    # a flipped sign bit orders as signed
              alu="1 if ({a} ^ 0x80000000) < ({b} ^ 0x80000000) else 0"),
    InstrSpec("sll",   "R", 0x00, 0x00, "rri", ("rd", "rt", "shamt"),
              sources=("rt",), dest="rd", alu="({b} << {shamt}) & 0xFFFFFFFF"),
    InstrSpec("addi",  "I", 0x08, None, "rri", ("rt", "rs", "imm"),
              sources=("rs",), dest="rt", alu=_ADD_IMM),
    InstrSpec("lw",    "I", 0x23, None, "rm",  ("rt", "imm(rs)"),
              sources=("rs",), dest="rt", alu=_ADD_IMM, mem=READ),
    InstrSpec("sw",    "I", 0x2B, None, "rm",  ("rt", "imm(rs)"),
              sources=("rs", "rt"), alu=_ADD_IMM, mem=WRITE),
    InstrSpec("beq",   "I", 0x04, None, "rrt", ("rs", "rt", "imm"),
              sources=("rs", "rt"), taken="{a} == {b}"),
    InstrSpec("bne",   "I", 0x05, None, "rrt", ("rs", "rt", "imm"),
              sources=("rs", "rt"), taken="{a} != {b}"),
    InstrSpec("j",     "J", 0x02, None, "t",   ("target",),
              redirect=lambda pc, a, b, i: i.target * 8),
    InstrSpec("lklw",  "I", 0x1A, None, "m",   ("imm(rs)",),
              sources=("rs",), alu=_ADD_IMM, mem=READ, aliases=("lkw",),
              load_key=lambda keyreg, word: keyreg.set_lower(word)),
    InstrSpec("lkuw",  "I", 0x1B, None, "m",   ("imm(rs)",),
              sources=("rs",), alu=_ADD_IMM, mem=READ,
              load_key=lambda keyreg, word: keyreg.set_upper(word)),
    InstrSpec("crypt", "J", 0x1C, None, "i",   ("target",),
              mode=lambda i: i.target != 0),
)}

# funct is None outside the R format, so I and J rows key on the opcode alone
_BY_CODE = {(spec.opcode, spec.funct): spec for spec in SPECS.values()}


class UnknownInstruction(Exception):
    """Raised when a word's (opcode, funct) pair is not in the opcode table."""

    def __init__(self, word: int):
        self.word = word & WORD_MASK
        super().__init__(f"unknown instruction word 0x{self.word:08x} "
                         f"(opcode 0x{self.word >> 26:02x}, funct 0x{self.word & 0x3F:02x})")


class FieldOverflow(Exception):
    """Raised when an instruction field value exceeds its bit width."""

    def __init__(self, field: str, value: int):
        self.field = field
        self.value = value
        super().__init__(f"field {field} cannot hold {value}")


def _check(field: str, value: int, lo: int, hi: int) -> int:
    if not lo <= value <= hi:
        raise FieldOverflow(field, value)
    return value


class Instruction:
    """One decoded instruction: its table row `spec` and all six fields.
    The constructor keeps the fields of the row's format and sets the rest
    to 0, so every stage can read rs and rt unguarded: an absent one names
    $r0, and each ALU row ignores the operand it does not read. `sources`
    holds the source register numbers and `dest` the register written back
    (None for none or $r0).

    Instances are shared through decode's cache, so nothing may write to
    one after construction.
    """

    __slots__ = ("spec", "rs", "rt", "rd", "shamt", "imm", "target",
                 "sources", "dest")

    def __init__(self, mnemonic: str, rs: int = 0, rt: int = 0, rd: int = 0,
                 shamt: int = 0, imm: int = 0, target: int = 0):
        spec = SPECS[mnemonic]
        fmt = spec.fmt
        if fmt == "R":
            imm = target = 0
        elif fmt == "I":    # imm in its canonical signed form
            rd = shamt = target = 0
        else:
            rs = rt = rd = shamt = imm = 0
        self.spec, self.rs, self.rt, self.rd, self.shamt, self.imm, self.target = (
            spec, rs, rt, rd, shamt, imm, target)
        regs = (rs, rt, rd, None)
        self.sources = regs[spec.sources_at]
        self.dest = regs[spec.dest_at] or None

    def _key(self) -> tuple:
        return (self.spec.mnemonic, self.rs, self.rt, self.rd, self.shamt,
                self.imm, self.target)

    def __eq__(self, other) -> bool:
        if other.__class__ is not Instruction:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        return ("Instruction({!r}, rs={}, rt={}, rd={}, shamt={}, imm={}, "
                "target={})".format(*self._key()))


def spec_of(word: int) -> InstrSpec | None:
    """The table row a word encodes, or None for an unlisted (op, funct)."""
    opcode = (word >> 26) & 0x3F
    return _BY_CODE.get((opcode, word & 0x3F)) or _BY_CODE.get((opcode, None))


@functools.lru_cache(maxsize=4096)
def decode(word: int) -> Instruction:
    """Decode a 32-bit word; raises UnknownInstruction for unlisted (op, funct)."""
    spec = spec_of(word)
    if spec is None:
        raise UnknownInstruction(word)
    # every field's bits, imm sign-extended; the constructor keeps those of
    # the row's format
    return Instruction(spec.mnemonic, (word >> 21) & 0x1F, (word >> 16) & 0x1F,
                       (word >> 11) & 0x1F, (word >> 6) & 0x1F,
                       ((word & 0xFFFF) ^ 0x8000) - 0x8000, word & 0x3FFFFFF)


def encode(spec: InstrSpec, rs=0, rt=0, rd=0, shamt=0, imm=0, target=0) -> int:
    """The word of a row and its fields, the bit-exact inverse of decode;
    raises FieldOverflow on out-of-width fields.

    A field the row's format lacks is 0, so every field can be ORed in. One
    test finds any field out of its width (a negative value shifts to -1);
    the checks one at a time then name the first: imm, rs, rt, rd, shamt, target."""
    if (rs | rt | rd | shamt) >> 5 or (imm + 0x8000) >> 16 or target >> 26:
        _check("imm", imm, -32768, 32767)
        for name, value in (("rs", rs), ("rt", rt), ("rd", rd), ("shamt", shamt)):
            _check(name, value, 0, 31)
        _check("target", target, 0, 0x3FFFFFF)
    return (spec.opcode << 26 | rs << 21 | rt << 16 | rd << 11 | shamt << 6
            | (spec.funct or 0) | (imm & 0xFFFF) | target)


NOP = decode(NOP_WORD)


def disassemble(instr: Instruction) -> str:
    """Canonical text form, reparseable by the assembler.

    Branch and jump operands come out as raw field values (slot displacement
    for beq/bne, slot index for j) since labels are gone at this level.
    """
    return "nop" if instr == NOP else instr.spec.template.format(i=instr)


@functools.lru_cache(maxsize=4096)
def disasm_word(word: int) -> str:
    """Best-effort disassembly for traces; never raises."""
    try:
        return disassemble(decode(word))
    except UnknownInstruction:
        return f".word 0x{word & WORD_MASK:08x}"
