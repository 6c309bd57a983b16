"""Two-pass assembler, 64-bit block packing, image encryption, hex image I/O.

Source dialect: one statement per line, `label:` prefixes, `#` or `;`
comments, registers `$r0..$r31` (or `$0..$31`), decimal or 0x-hex
immediates, `offset($reg)` memory operands, label or raw-number branch and
jump targets. Instruction words sit 8 bytes apart (one per 64-bit block),
so jump targets and branch displacements are counted in 8-byte slots.

One grammar reads and diagnoses operands: a piece per operand shape.
`parse` reads a line's operands with one match of its row's pattern, the
pieces of the row's operands joined by commas, with one group per
instruction field. A line the pattern rejects is matched one operand at a
time against the same pieces, only to name the first bad operand.
`assemble` places the labels of the whole file, then resolves label
targets and encodes line by line; `isa.encode` checks every field's width.
"""

from __future__ import annotations

import re
from collections.abc import Callable

from . import des, isa


class AsmError(Exception):
    """An assembler or hex-reader error; carries the source line when known."""

    def __init__(self, reason: str, line: int | None = None):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}" if line is not None else reason)


class Statement:
    """One source line: its label, and the table row it names (None for a
    label-only line) with the value of each field its operands fill. A `t`
    operand's field holds a number or a label name, which assemble resolves;
    an `m` operand fills imm and rs. Field widths are checked when assemble
    encodes the statement, not here."""

    __slots__ = ("label", "mnemonic", "fields", "line")

    def __init__(self, label: str | None, mnemonic: str | None,
                 fields: dict[str, int | str], line: int):
        self.label, self.mnemonic, self.fields, self.line = label, mnemonic, fields, line


class ProgramImage:
    """64-bit blocks with their byte addresses, plus assembler metadata.

    Assembler output is contiguous from address 0 (block i at byte 8*i);
    images read back from hex text may be sparse. crypt_boundary, when set,
    is the entry index of the first encrypted block.
    """

    def __init__(self, entries: list[tuple[int, int]] | None = None,
                 symbols: dict[str, int] | None = None, crypt_boundary: int | None = None):
        self.entries = [] if entries is None else entries
        self.symbols = {} if symbols is None else symbols
        self.crypt_boundary = crypt_boundary

    @property
    def blocks(self) -> list[int]:
        return [block for _, block in self.entries]


_IDENT = r"[A-Za-z_]\w*"
_LABEL_RE = re.compile(rf"({_IDENT})\s*:")
# the one number grammar of the assembler and the CLI: ASCII digits only,
# and exactly the decimal or 0x-prefixed hex that int(text, 0) reads
NUM_RE = re.compile(r"[+-]?(?:0[xX][0-9a-fA-F]+|0+|[1-9][0-9]*)")


def _number(text: str) -> int:
    return int(text, 0)


def _number_or_label(text: str) -> int | str:
    return int(text, 0) if text[0] in "+-0123456789" else text


# A row pattern joins one piece per operand with commas. A piece is an
# operand shape's pattern, built from those above with a group for each
# field it fills, each group's converter, and what a diagnostic calls the
# shape; a register's group holds $r0..$r31 without its leading zeros.
_REG = r"\$[rR]?0*(3[01]|[12]?[0-9])"
_NUM = f"({NUM_RE.pattern})"
_PIECES = {"r": (_REG, (int,), "register"), "i": (_NUM, (_number,), "number"),
           "t": (f"({NUM_RE.pattern}|{_IDENT})", (_number_or_label,), "label or number"),
           "m": (rf"{_NUM}\(\s*{_REG}\s*\)", (_number, int), "offset($reg)")}


def _row_reader(spec: isa.InstrSpec) -> Callable[[str], dict[str, int | str] | None]:
    """The row's operand list -> the fields it fills, read with one match of
    the row pattern; None for a list `_diagnosis` must name the fault of."""
    pieces = [_PIECES[kind] for kind in spec.shape]
    fullmatch = re.compile(r"\s*,\s*".join(text for text, _, _ in pieces)).fullmatch
    names = [name for kind, name in zip(spec.shape, spec.operands)
             for name in (("imm", "rs") if kind == "m" else (name,))]
    pairs = list(zip(names, [convert for _, converts, _ in pieces for convert in converts]))
    # one to three groups (more fail to unpack); a dict display per count
    # builds the fields in about two thirds of the time a comprehension takes
    (a, ra), (b, rb), (c, rc) = pairs + [(None, None)] * (3 - len(pairs))

    def read(operands: str) -> dict[str, int | str] | None:
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


def _diagnosis(spec: isa.InstrSpec, operands: str, line: int) -> AsmError:
    """The first bad operand of a list the row pattern rejected: each
    operand is matched alone against its piece, with any digit run for a
    register, and its groups are then read left to right."""
    texts = [t.strip() for t in operands.split(",")] if operands else []
    if len(texts) != len(spec.shape):
        return AsmError(
            f"'{spec.mnemonic}' takes {len(spec.shape)} operand(s), got {len(texts)}", line)
    for text, kind in zip(texts, spec.shape):
        piece, converts, what = _PIECES[kind]
        m = re.fullmatch(piece.replace(_REG, r"(\$[rR]?[0-9]+)"), text)
        if m is None:
            return AsmError(f"expected {what}, got '{text}'", line)
        for group, convert in zip(m.groups(), converts):
            if group[0] != "$":
                try:
                    convert(group)
                except ValueError:  # a number with more digits than int() reads
                    return AsmError(f"number too long to read ({len(group)} characters)", line)
            elif not re.fullmatch(_REG, group):
                return AsmError(f"no such register '{group}'", line)


def parse(source: str) -> list[Statement]:
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
                raise AsmError("nop takes no operands", lineno)
            statements.append(_nop(label, lineno))
            continue
        row = _MNEMONICS.get(mnemonic)
        if row is None:
            raise AsmError(f"unknown mnemonic '{parts[0]}'", lineno)
        spec, read = row
        fields = read(operands)
        if fields is None:
            raise _diagnosis(spec, operands, lineno)
        statements.append(Statement(label, spec.mnemonic, fields, lineno))
    return statements


# what `nop` stands for: isa.NOP's row with its own operand fields
_NOP_FIELDS = {name: getattr(isa.NOP, name) for name in isa.NOP.spec.operands}


def _nop(label: str | None, line: int) -> Statement:
    return Statement(label, isa.NOP.spec.mnemonic, dict(_NOP_FIELDS), line)


def _ensure_key_load_guards(statements: list[Statement]) -> list[Statement]:
    """Guarantee at least two instructions between a key load and crypt."""
    out: list[Statement] = []
    owed = 0    # the guard nops a crypt here still needs
    for stmt in statements:
        spec = isa.SPECS.get(stmt.mnemonic)  # None for a label-only line
        if spec is not None and spec.mode is not None:
            # the first guard nop takes crypt's label, in a copy of crypt
            for _ in range(owed):
                out.append(_nop(stmt.label, stmt.line))
                stmt = Statement(None, stmt.mnemonic, stmt.fields, stmt.line)
            owed = 0
        out.append(stmt)
        if spec is not None:
            owed = 2 if spec.load_key is not None else max(owed - 1, 0)
    return out


def assemble(statements: list[Statement],
             auto_nop: bool = False) -> tuple[list[int], dict[str, int]]:
    """Two passes: place labels at byte addresses 8*i, then encode words."""
    if auto_nop:
        statements = _ensure_key_load_guards(statements)

    symbols: dict[str, int] = {}
    addr = 0
    for stmt in statements:
        if stmt.label is not None:
            if stmt.label in symbols:
                raise AsmError(f"duplicate label '{stmt.label}'", stmt.line)
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


# what a FieldOverflow from isa.encode reads as, by its field and whether a
# `t` operand filled it; any other field keeps the exception's own text
_TOO_WIDE = {("imm", False): "immediate {} does not fit 16 bits",
             ("imm", True): "branch displacement {} does not fit 16 bits",
             ("target", True): "jump target {} does not fit 26 bits"}


def _encode_statement(stmt: Statement, addr: int, symbols: dict[str, int]) -> int:
    """The statement's word; isa.encode checks the width of every field.

    A `t` operand's label gives a byte address, which becomes a slot
    displacement from the next instruction when it fills imm (a branch) and
    a slot index when it fills target (a jump); a number is already the raw
    field value. Any other imm takes unsigned-style 0x8000..0xFFFF, folded
    into the signed range."""
    spec, fields = isa.SPECS[stmt.mnemonic], stmt.fields
    # a copy of the fields only where a label or an immediate is rewritten
    if "t" in spec.shape:
        name = spec.operands[spec.shape.index("t")]
        label = fields[name]
        if isinstance(label, str):
            if label not in symbols:
                raise AsmError(f"undefined label '{label}'", stmt.line)
            at = symbols[label]
            fields = {**fields, name: (at - (addr + 8)) // 8 if name == "imm" else at // 8}
    elif "imm" in fields and 32768 <= fields["imm"] <= 65535:
        fields = {**fields, "imm": fields["imm"] - 65536}
    try:
        return isa.encode(spec, **fields)
    except isa.FieldOverflow as exc:
        text = _TOO_WIDE.get((exc.field, "t" in spec.shape))
        raise AsmError(text.format(exc.value) if text else str(exc), stmt.line) from exc


def build_image(source: str, auto_nop: bool = False) -> ProgramImage:
    """Parse + assemble a source file into a contiguous image: each word
    zero-padded into its own 64-bit block, block i at byte 8*i."""
    words, symbols = assemble(parse(source), auto_nop=auto_nop)
    return ProgramImage(entries=[(8 * i, des.pad_word(w)) for i, w in enumerate(words)],
                        symbols=dict(symbols))


# encrypt_image looks up the row of a block with an opcode of a `mode` row only
_MODE_OPCODES = frozenset(spec.opcode for spec in isa.SPECS.values()
                          if spec.mode is not None)


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
        if block >> 26 & 0x3F in _MODE_OPCODES:     # the word's opcode
            word = des.extract_word(block)
            spec = isa.spec_of(word)
            if spec is not None and spec.mode is not None:
                on = spec.mode(isa.decode(word))
                if on and boundary is None:
                    boundary = i + 1
    if boundary is None:
        raise AsmError("no crypt instruction turns crypt mode on")
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
    entries: list[tuple[int, int]] = []
    addr = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("@"):
            if not _HEX_ADDR_RE.match(line[1:]):
                raise AsmError(f"bad address directive '{line}'", lineno)
            addr = int(line[1:], 16)
            if addr % 8 != 0:
                raise AsmError(f"address directive '{line}' not 8-aligned", lineno)
            continue
        if not HEX16_RE.fullmatch(line):
            raise AsmError(f"expected 16 hex digits, got '{line}'", lineno)
        if addr > 0xFFFFFFF8:
            raise AsmError(f"block address {addr:#x} is past the 32-bit "
                           "address space", lineno)
        entries.append((addr, int(line, 16)))
        addr += 8
    return ProgramImage(entries=entries)
