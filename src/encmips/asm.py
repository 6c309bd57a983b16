"""Two-pass assembler, 64-bit block packing, image encryption, hex image I/O.

Source dialect: one statement per line, `label:` prefixes, `#` or `;`
comments, registers `$r0..$r31` (or `$0..$31`), decimal or 0x-hex
immediates, `offset($reg)` memory operands, label or raw-number branch and
jump targets. Instruction words sit 8 bytes apart (one per 64-bit block),
so jump targets and branch displacements are counted in 8-byte slots.

`parse` reads a line's operands with one match of its row's pattern,
compiled at import from the shapes of the row's operands, with one group
per instruction field. A line the pattern rejects goes to the walk,
`_parse_fields`, which reads the operands one at a time by the same
grammar only to name the first bad one; the two accept the same lines.
`assemble` places the labels of the whole file, then resolves label
targets, range-checks immediates and encodes line by line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple, Union

from . import des, isa


class AsmError(Exception):
    """Base for assembler errors; carries the source line when known."""

    def __init__(self, reason: str, line: Optional[int] = None):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}" if line is not None else reason)


class AsmSyntaxError(AsmError):
    pass


class UndefinedLabel(AsmError):
    pass


class DuplicateLabel(AsmError):
    pass


class BranchOutOfRange(AsmError):
    pass


class NoCryptInstruction(AsmError):
    def __init__(self):
        super().__init__("no crypt instruction turns crypt mode on")


class BadHexLine(AsmError):
    pass


class UnalignedAddressDirective(AsmError):
    pass


Fields = Dict[str, Union[int, str]]


@dataclass(slots=True)
class Statement:
    """One source line: its label, and the table row it names with the value
    of each field its operands fill. A `t` operand's field holds a number or
    a label name, which assemble resolves; an `m` operand fills imm and rs.
    Immediates are range-checked by assemble, not here."""

    label: Optional[str]
    mnemonic: Optional[str]  # None for a label-only line
    fields: Fields
    line: int


@dataclass
class ProgramImage:
    """64-bit blocks with their byte addresses, plus assembler metadata.

    Assembler output is contiguous from address 0 (block i at byte 8*i);
    images read back from hex text may be sparse. crypt_boundary, when set,
    is the entry index of the first encrypted block.
    """

    entries: List[Tuple[int, int]] = field(default_factory=list)
    symbols: Dict[str, int] = field(default_factory=dict)
    crypt_boundary: Optional[int] = None

    @property
    def blocks(self) -> List[int]:
        return [block for _, block in self.entries]


_IDENT = r"[A-Za-z_]\w*"
_LABEL_RE = re.compile(rf"({_IDENT})\s*:")
# the one number grammar of the assembler and the CLI: ASCII digits only,
# and exactly the decimal or 0x-prefixed hex that int(text, 0) reads
NUM_RE = re.compile(r"[+-]?(?:0[xX][0-9a-fA-F]+|0+|[1-9][0-9]*)")
_REG_RE = re.compile(r"\$[rR]?([0-9]+)")
_MEM_RE = re.compile(rf"({NUM_RE.pattern})\(\s*(\$[rR]?[0-9]+)\s*\)")
_IDENT_RE = re.compile(_IDENT)


def _number(text: str) -> int:
    return int(text, 0)


def _number_or_label(text: str) -> Union[int, str]:
    return int(text, 0) if text[0] in "+-0123456789" else text


# A row pattern joins one piece per operand with commas. A piece is an
# operand shape's pattern, built from those above with a group for each
# field it fills, and each group's converter; a register's group holds
# $r0..$r31 without its leading zeros.
_REG = _REG_RE.pattern.replace("([0-9]+)", "0*(3[01]|[12]?[0-9])")
_NUM = f"({NUM_RE.pattern})"
_PIECES = {"r": (_REG, (int,)), "i": (_NUM, (_number,)),
           "t": (f"({NUM_RE.pattern}|{_IDENT})", (_number_or_label,)),
           "m": (rf"{_NUM}\(\s*{_REG}\s*\)", (_number, int))}


def _row_reader(spec: isa.InstrSpec) -> Callable[[str], Optional[Fields]]:
    """The row's operand list -> the fields it fills, read with one match of
    the row pattern; None for a list `_parse_fields` must diagnose."""
    pieces = [_PIECES[kind] for kind in spec.shape]
    fullmatch = re.compile(r"\s*,\s*".join(text for text, _ in pieces)).fullmatch
    names = [name for kind, name in zip(spec.shape, spec.operands)
             for name in (("imm", "rs") if kind == "m" else (name,))]
    pairs = list(zip(names, [convert for _, converts in pieces for convert in converts]))
    # one to three groups (more fail to unpack); a dict display per count
    # builds the fields in about two thirds of the time a comprehension takes
    (a, ra), (b, rb), (c, rc) = pairs + [(None, None)] * (3 - len(pairs))

    def read(operands: str) -> Optional[Fields]:
        m = fullmatch(operands)
        if m is None:
            return None
        g = m.groups()
        try:
            if c is not None:
                return {a: ra(g[0]), b: rb(g[1]), c: rc(g[2])}
            return {a: ra(g[0]), b: rb(g[1])} if b is not None else {a: ra(g[0])}
        except ValueError:  # a literal with more digits than int() reads
            return None
    return read


# every name the assembler accepts for a table row: the row and its reader
_MNEMONICS = {name: (spec, _row_reader(spec)) for spec in isa.SPECS.values()
              for name in (spec.mnemonic, *spec.aliases)}


def _read_number(text: str, line: int) -> int:
    try:
        return int(text, 0)
    except ValueError:  # more digits than int() reads
        raise AsmSyntaxError(f"number too long to read ({len(text)} characters)",
                             line) from None


def _parse_reg(text: str, line: int) -> int:
    m = _REG_RE.fullmatch(text)
    if not m:
        raise AsmSyntaxError(f"expected register, got '{text}'", line)
    digits = m.group(1).lstrip("0") or "0"
    if len(digits) > 2 or int(digits) > 31:
        raise AsmSyntaxError(f"no such register '{text}'", line)
    return int(digits)


def _parse_fields(spec: isa.InstrSpec, operands: str, line: int) -> Fields:
    """The operands read one at a time, by shape, into the fields they
    fill, raising at the first bad one: the walk that names what a row
    pattern rejected."""
    texts = [t.strip() for t in operands.split(",")] if operands else []
    if len(texts) != len(spec.shape):
        raise AsmSyntaxError(
            f"'{spec.mnemonic}' takes {len(spec.shape)} operand(s), got {len(texts)}",
            line)
    fields: Fields = {}
    for text, kind, name in zip(texts, spec.shape, spec.operands):
        if kind == "r":
            fields[name] = _parse_reg(text, line)
        elif kind == "m":
            m = _MEM_RE.fullmatch(text)
            if not m:
                raise AsmSyntaxError(f"expected offset($reg), got '{text}'", line)
            fields["imm"] = _read_number(m.group(1), line)
            fields["rs"] = _parse_reg(m.group(2), line)
        elif NUM_RE.fullmatch(text):
            fields[name] = _read_number(text, line)
        elif kind == "i":
            raise AsmSyntaxError(f"expected number, got '{text}'", line)
        elif _IDENT_RE.fullmatch(text):  # kind == "t": a label
            fields[name] = text
        else:
            raise AsmSyntaxError(f"expected label or number, got '{text}'", line)
    return fields


def parse(source: str) -> List[Statement]:
    """Parse assembly text into one Statement per non-empty line."""
    statements = []
    for lineno, raw in enumerate(source.splitlines(), start=1):
        text = raw.partition("#")[0].partition(";")[0].strip()
        if not text:
            continue
        label = None
        if ":" in text and (m := _LABEL_RE.match(text)):
            label = m.group(1)
            text = text[m.end():].strip()
            if not text:
                statements.append(Statement(label, None, {}, lineno))
                continue
        parts = text.split(None, 1)
        mnemonic = parts[0]
        if mnemonic.isascii():  # str.lower() would fold KELVIN SIGN to k
            mnemonic = mnemonic.lower()
        operands = parts[1] if len(parts) > 1 else ""
        if mnemonic == "nop":
            if operands:
                raise AsmSyntaxError("nop takes no operands", lineno)
            statements.append(_nop(label, lineno))
            continue
        row = _MNEMONICS.get(mnemonic)
        if row is None:
            raise AsmSyntaxError(f"unknown mnemonic '{parts[0]}'", lineno)
        spec, read = row
        fields = read(operands)
        if fields is None:
            fields = _parse_fields(spec, operands, lineno)  # raises
        statements.append(Statement(label, spec.mnemonic, fields, lineno))
    return statements


# what `nop` stands for: isa.NOP's row with its own operand fields
_NOP_FIELDS = {name: getattr(isa.NOP, name) for name in isa.NOP.spec.operands}


def _nop(label: Optional[str], line: int) -> Statement:
    return Statement(label, isa.NOP.spec.mnemonic, dict(_NOP_FIELDS), line)


def _signed_imm(value: int, line: int) -> int:
    # accept unsigned-style 0x8000..0xFFFF and fold into the signed range
    if 32768 <= value <= 65535:
        value -= 65536
    if not -32768 <= value <= 32767:
        raise AsmError(f"immediate {value} does not fit 16 bits", line)
    return value


def _ensure_key_load_guards(statements: List[Statement]) -> List[Statement]:
    """Guarantee at least two instructions between a key load and crypt."""
    out: List[Statement] = []
    owed = 0    # the guard nops a crypt here still needs
    for stmt in statements:
        spec = isa.SPECS.get(stmt.mnemonic)  # None for a label-only line
        if spec is not None and spec.mode is not None:
            # the first guard nop takes crypt's label, in a copy of crypt
            for _ in range(owed):
                out.append(_nop(stmt.label, stmt.line))
                stmt = replace(stmt, label=None)
            owed = 0
        out.append(stmt)
        if spec is not None:
            owed = 2 if spec.load_key is not None else max(owed - 1, 0)
    return out


def assemble(statements: List[Statement],
             auto_nop: bool = False) -> Tuple[List[int], Dict[str, int]]:
    """Two passes: place labels at byte addresses 8*i, then encode words."""
    if auto_nop:
        statements = _ensure_key_load_guards(statements)

    symbols: Dict[str, int] = {}
    addr = 0
    for stmt in statements:
        if stmt.label is not None:
            if stmt.label in symbols:
                raise DuplicateLabel(f"duplicate label '{stmt.label}'", stmt.line)
            symbols[stmt.label] = addr
        if stmt.mnemonic is not None:
            addr += 8

    words = []
    addr = 0
    for stmt in statements:
        if stmt.mnemonic is None:
            continue
        words.append(_encode_statement(stmt, addr, symbols))
        addr += 8
    return words, symbols


def _target(name: str, value: Union[int, str], addr: int,
            symbols: Dict[str, int], line: int) -> int:
    """A `t` field's value. A label gives a byte address, which becomes a
    slot displacement from the next instruction when it fills imm (a branch)
    and a slot index when it fills target (a jump); a number is already the
    raw field value."""
    if isinstance(value, str):
        if value not in symbols:
            raise UndefinedLabel(f"undefined label '{value}'", line)
        value = symbols[value]
        value = (value - (addr + 8)) // 8 if name == "imm" else value // 8
    if name == "imm" and not -32768 <= value <= 32767:
        raise BranchOutOfRange(f"branch displacement {value} "
                               "does not fit 16 bits", line)
    if name == "target" and not 0 <= value <= 0x3FFFFFF:
        raise BranchOutOfRange(f"jump target {value} "
                               "does not fit 26 bits", line)
    return value


def _encode_statement(stmt: Statement, addr: int, symbols: Dict[str, int]) -> int:
    spec, line, fields = isa.SPECS[stmt.mnemonic], stmt.line, stmt.fields
    # a copy of the fields only where a label or an immediate is rewritten
    if "t" in spec.shape:
        name = spec.operands[spec.shape.index("t")]
        fields = {**fields, name: _target(name, fields[name], addr, symbols, line)}
    elif "imm" in fields and not -32768 <= fields["imm"] <= 32767:
        fields = {**fields, "imm": _signed_imm(fields["imm"], line)}
    # isa.encode checks the width of every other field
    try:
        return isa.encode(isa.Instruction(spec.mnemonic, **fields))
    except isa.FieldOverflow as exc:
        raise AsmError(str(exc), line) from exc


def pack(words: List[int]) -> List[int]:
    """Zero-pad each 32-bit word into its own 64-bit block."""
    return [des.pad_word(w) for w in words]


def build_image(source: str, auto_nop: bool = False) -> ProgramImage:
    """Parse + assemble + pack a source file into a contiguous image."""
    words, symbols = assemble(parse(source), auto_nop=auto_nop)
    blocks = pack(words)
    return ProgramImage(entries=[(8 * i, b) for i, b in enumerate(blocks)],
                        symbols=dict(symbols))


def encrypt_image(image: ProgramImage, key: int) -> ProgramImage:
    """Encrypt the blocks that straight-line fetch reads in crypt mode.

    The walk starts with the mode off and encrypts a block when the mode is
    on as it reaches it; a `crypt` block, fetched through the old path, then
    sets the mode its row's `mode` gives (flag != 0). crypt_boundary is the block after the first
    `crypt` that turns the mode on.
    """
    encrypt = des.cipher(key).encrypt
    entries, on, boundary = [], False, None
    for i, (addr, block) in enumerate(image.entries):
        entries.append((addr, encrypt(block) if on else block))
        word = des.extract_word(block)
        spec = isa.spec_of(word)
        if spec is not None and spec.mode is not None:
            on = spec.mode(isa.decode(word))
            if on and boundary is None:
                boundary = i + 1
    if boundary is None:
        raise NoCryptInstruction()
    return ProgramImage(entries=entries, symbols=dict(image.symbols),
                        crypt_boundary=boundary)


# int(..., 16) alone would also take a sign, underscores, spaces or 0x
HEX16_RE = re.compile(r"[0-9a-fA-F]{16}")
_HEX_ADDR_RE = re.compile(r"^[0-9a-fA-F]+$")


def write_hex(image: ProgramImage) -> str:
    """One 16-hex-digit block per line; `@addr` directives mark gaps."""
    lines = []
    next_addr = 0
    for addr, block in image.entries:
        if addr != next_addr:
            lines.append(f"@{addr:x}")
        lines.append(f"{block:016x}")
        next_addr = addr + 8
    return "\n".join(lines) + ("\n" if lines else "")


def read_hex(text: str) -> ProgramImage:
    """Inverse of write_hex; accepts `#` comments and blank lines."""
    entries: List[Tuple[int, int]] = []
    addr = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("@"):
            if not _HEX_ADDR_RE.match(line[1:]):
                raise BadHexLine(f"bad address directive '{line}'", lineno)
            addr = int(line[1:], 16)
            if addr % 8 != 0:
                raise UnalignedAddressDirective(
                    f"address directive '{line}' not 8-aligned", lineno)
            continue
        if not HEX16_RE.fullmatch(line):
            raise BadHexLine(f"expected 16 hex digits, got '{line}'", lineno)
        if addr > 0xFFFFFFF8:
            raise BadHexLine(f"block address {addr:#x} is past the 32-bit "
                             "address space", lineno)
        entries.append((addr, int(line, 16)))
        addr += 8
    return ProgramImage(entries=entries)
