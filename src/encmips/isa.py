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
or jump target, the crypt mode it sets, and the disassembly. The assembler,
the pipeline and the reference interpreter call the row's functions and
name no mnemonic, so a new ALU operation, branch, jump, read or write is
one row. The standard MIPS subset keeps its classic opcode/funct values;
the three key-handling instructions take otherwise unused opcodes.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

WORD_MASK = 0xFFFFFFFF
NOP_WORD = 0x00000000

# Memory directions: what MEM does at the address the ALU computed. A read
# takes the low 32 bits of the block to the row's load_key, else to its dest.
READ = "read"
WRITE = "write"  # block = zero-padded rt, encrypted in crypt mode


def _add_imm(a: int, b: int, instr: Instruction) -> int:
    """rs + imm: the result of addi and the address of every memory access."""
    return (a + instr.imm) & WORD_MASK


def _branch(taken: Callable[[int, int], bool]):
    """A compare branch's redirect: pc + 8 + imm*8, wrapped like every pc,
    when taken(rs value, rt value) holds, else None."""
    def redirect(pc: int, a: int, b: int, instr: Instruction) -> Optional[int]:
        return (pc + 8 + instr.imm * 8) & WORD_MASK if taken(a, b) else None
    return redirect


# How the disassembly writes each operand shape; an `m` operand is imm(rs).
_OPERAND_TEXT = {"r": "$r{{i.{}}}", "i": "{{i.{}}}", "t": "{{i.{}}}",
                 "m": "{{i.imm}}($r{{i.rs}})"}


@dataclass(frozen=True)
class InstrSpec:
    """One instruction's row in the table."""

    mnemonic: str
    fmt: str                       # "R", "I" or "J"
    opcode: int
    funct: Optional[int]           # R format only
    # assembler operands: r register, i number, m offset(base), t label or
    # raw number (a slot displacement into imm, a slot index into target)
    shape: str
    operands: Tuple[str, ...]      # the field each operand fills
    sources: Tuple[str, ...] = ()  # register fields read
    dest: Optional[str] = None     # register field written back
    # ALU operation: (rs value, rt value, instruction) -> 32-bit result;
    # None when the instruction has no result
    alu: Optional[Callable[[int, int, Instruction], int]] = None
    mem: Optional[str] = None      # memory direction, READ or WRITE
    # reads with no dest: (machine.KeyRegister, read word) -> None, sets one half
    load_key: Optional[Callable[[object, int], None]] = None
    # branches and jumps, resolved in ID: (pc, rs value, rt value,
    # instruction) -> the next pc, or None when a branch falls through
    redirect: Optional[Callable[[int, int, int, Instruction], Optional[int]]] = None
    # crypt, resolved in ID: instruction -> the crypt mode it sets
    mode: Optional[Callable[[Instruction], bool]] = None
    aliases: Tuple[str, ...] = ()  # other names the assembler accepts
    # derived: disassembly as a str.format template over the instruction `i`
    template: str = field(init=False)
    # derived: where the constructor's (rs, rt, rd, None) holds the sources'
    # register numbers, a slice, and the dest's, an index (3 for none)
    sources_at: slice = field(init=False, repr=False, compare=False)
    dest_at: int = field(init=False, repr=False, compare=False)
    # derived: what the pipeline's later stages read, copied onto a slot at IF
    stage: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        text = ", ".join(_OPERAND_TEXT[kind].format(name)
                         for kind, name in zip(self.shape, self.operands))
        object.__setattr__(self, "template", f"{self.mnemonic} {text}")
        regs = ("rs", "rt", "rd")
        first = regs.index(self.sources[0]) if self.sources else 0
        at = slice(first, first + len(self.sources))
        if regs[at] != self.sources:
            raise ValueError(f"{self.mnemonic}: sources must run in the order {regs}")
        object.__setattr__(self, "sources_at", at)
        object.__setattr__(self, "dest_at", regs.index(self.dest) if self.dest else 3)
        object.__setattr__(self, "stage", (self.alu, self.mem, self.redirect, self.mode,
                                           self.load_key))


SPECS: Dict[str, InstrSpec] = {spec.mnemonic: spec for spec in (
    #         mnemonic fmt  opcode funct shape  operands
    InstrSpec("add",   "R", 0x00, 0x20, "rrr", ("rd", "rs", "rt"),
              sources=("rs", "rt"), dest="rd", alu=lambda a, b, i: (a + b) & WORD_MASK),
    InstrSpec("sub",   "R", 0x00, 0x22, "rrr", ("rd", "rs", "rt"),
              sources=("rs", "rt"), dest="rd", alu=lambda a, b, i: (a - b) & WORD_MASK),
    InstrSpec("and",   "R", 0x00, 0x24, "rrr", ("rd", "rs", "rt"),
              sources=("rs", "rt"), dest="rd", alu=lambda a, b, i: a & b),
    InstrSpec("or",    "R", 0x00, 0x25, "rrr", ("rd", "rs", "rt"),
              sources=("rs", "rt"), dest="rd", alu=lambda a, b, i: a | b),
    InstrSpec("slt",   "R", 0x00, 0x2A, "rrr", ("rd", "rs", "rt"),
              sources=("rs", "rt"), dest="rd",    # a flipped sign bit orders as signed
              alu=lambda a, b, i: int((a ^ 0x80000000) < (b ^ 0x80000000))),
    InstrSpec("sll",   "R", 0x00, 0x00, "rri", ("rd", "rt", "shamt"),
              sources=("rt",), dest="rd", alu=lambda a, b, i: (b << i.shamt) & WORD_MASK),
    InstrSpec("addi",  "I", 0x08, None, "rri", ("rt", "rs", "imm"),
              sources=("rs",), dest="rt", alu=_add_imm),
    InstrSpec("lw",    "I", 0x23, None, "rm",  ("rt", "imm(rs)"),
              sources=("rs",), dest="rt", alu=_add_imm, mem=READ),
    InstrSpec("sw",    "I", 0x2B, None, "rm",  ("rt", "imm(rs)"),
              sources=("rs", "rt"), alu=_add_imm, mem=WRITE),
    InstrSpec("beq",   "I", 0x04, None, "rrt", ("rs", "rt", "imm"),
              sources=("rs", "rt"), redirect=_branch(operator.eq)),
    InstrSpec("bne",   "I", 0x05, None, "rrt", ("rs", "rt", "imm"),
              sources=("rs", "rt"), redirect=_branch(operator.ne)),
    InstrSpec("j",     "J", 0x02, None, "t",   ("target",),
              redirect=lambda pc, a, b, i: i.target * 8),
    InstrSpec("lklw",  "I", 0x1A, None, "m",   ("imm(rs)",),
              sources=("rs",), alu=_add_imm, mem=READ, aliases=("lkw",),
              load_key=lambda keyreg, word: keyreg.set_lower(word)),
    InstrSpec("lkuw",  "I", 0x1B, None, "m",   ("imm(rs)",),
              sources=("rs",), alu=_add_imm, mem=READ,
              load_key=lambda keyreg, word: keyreg.set_upper(word)),
    InstrSpec("crypt", "J", 0x1C, None, "i",   ("target",),
              mode=lambda i: i.target != 0),
)}

# funct is None outside the R format, so I and J rows key on the opcode alone
_BY_CODE = {(spec.opcode, spec.funct): spec for spec in SPECS.values()}


class IsaError(Exception):
    pass


class UnknownInstruction(IsaError):
    """Raised when a word's (opcode, funct) pair is not in the opcode table."""

    def __init__(self, word: int):
        self.word = word & WORD_MASK
        super().__init__(f"unknown instruction word 0x{self.word:08x} "
                         f"(opcode 0x{self.word >> 26:02x}, funct 0x{self.word & 0x3F:02x})")


class FieldOverflow(IsaError):
    """Raised when an instruction field value exceeds its bit width."""

    def __init__(self, field: str, value: int):
        self.field = field
        self.value = value
        super().__init__(f"field {field} cannot hold {value}")


def sign_extend_16(value: int) -> int:
    value &= 0xFFFF
    return value - 0x10000 if value & 0x8000 else value


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

    Instances are shared through the pipeline's decode cache, so nothing
    may write to one after construction.
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


def spec_of(word: int) -> Optional[InstrSpec]:
    """The table row a word encodes, or None for an unlisted (op, funct)."""
    opcode = (word >> 26) & 0x3F
    return _BY_CODE.get((opcode, word & 0x3F)) or _BY_CODE.get((opcode, None))


def decode(word: int) -> Instruction:
    """Decode a 32-bit word; raises UnknownInstruction for unlisted (op, funct)."""
    spec = spec_of(word)
    if spec is None:
        raise UnknownInstruction(word)
    # every field's bits; the constructor keeps those of the row's format
    return Instruction(spec.mnemonic, (word >> 21) & 0x1F, (word >> 16) & 0x1F,
                       (word >> 11) & 0x1F, (word >> 6) & 0x1F,
                       sign_extend_16(word), word & 0x3FFFFFF)


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


def disasm_word(word: int) -> str:
    """Best-effort disassembly for traces; never raises."""
    try:
        return disassemble(decode(word))
    except UnknownInstruction:
        return f".word 0x{word & WORD_MASK:08x}"
