"""Command-line front end: assemble, run, raw DES blocks, image dumps.

Dumps and hex output are lowercase hex; addresses in dumps carry no 0x
prefix. Numeric arguments accept decimal or 0x-prefixed hex. Trace output
goes to standard error so machine-readable standard output stays stable.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from . import asm, des, isa, machine, pipeline


class _Parser(argparse.ArgumentParser):
    """Raises a usage error for `main` to report, instead of exiting 2, the
    status `run` gives a fault; subcommand parsers inherit the class."""

    def error(self, message: str):
        raise argparse.ArgumentError(None, message)


# The converters below raise ArgumentTypeError, whose text argparse
# prefixes with the argument's name: `argument --key: expected ...`.

def _parse_hex16(text: str) -> int:
    value = text[2:] if text.lower().startswith("0x") else text
    if not asm.HEX16_RE.fullmatch(value):
        raise argparse.ArgumentTypeError(f"expected 16 hex digits, got '{text}'")
    return int(value, 16)


def _parse_int(text: str) -> int:
    if not asm.NUM_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected an integer, got '{text}'")
    try:
        return int(text, 0)
    except ValueError:  # more digits than int() reads
        raise argparse.ArgumentTypeError("expected an integer, got a number too long "
                                         f"to read ({len(text)} characters)") from None


def _parse_cycle_limit(text: str) -> int:
    limit = _parse_int(text)
    if limit < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return limit


# a --dump-regs entry: r4, $r4, R4 or 4, in ASCII decimal digits only
_DUMP_REG_RE = re.compile(r"\$?[rR]?([0-9]+)")


def _parse_reg_list(text: str) -> list[int]:
    regs = []
    for part in text.split(","):
        m = _DUMP_REG_RE.fullmatch(part.strip())
        if not m:
            raise argparse.ArgumentTypeError(f"no such register '{part.strip()}'")
        index = m.group(1).lstrip("0") or "0"     # as the assembler reads $r0007
        if len(index) > 2 or int(index) > 31:
            raise argparse.ArgumentTypeError(f"no such register r{index}")
        regs.append(int(index))
    return regs


def _parse_mem_ranges(text: str) -> list[tuple[int, int]]:
    ranges = []
    for part in text.split(","):
        start_text, colon, stop_text = part.partition(":")
        if not colon:
            raise argparse.ArgumentTypeError(f"expected START:STOP, got '{part.strip()}'")
        start = _parse_int(start_text.strip())
        stop = _parse_int(stop_text.strip())
        if start < 0:
            raise argparse.ArgumentTypeError(f"start {start:#x} is negative")
        if start % 8 != 0:
            raise argparse.ArgumentTypeError(f"start {start:#x} is not 8-aligned")
        if stop <= start:
            raise argparse.ArgumentTypeError(f"range {start:#x}:{stop:#x} selects no "
                                             "block: stop must be above start")
        if stop > 1 << 32:
            raise argparse.ArgumentTypeError(f"stop {stop:#x} is past the 32-bit "
                                             "address space")
        ranges.append((start, stop))
    return ranges


def _read_image(path: str) -> asm.ProgramImage:
    """A hex image file, read by asm.read_hex."""
    try:
        return asm.read_hex(Path(path).read_text())
    except (OSError, UnicodeDecodeError, asm.AsmError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def cmd_asm(args) -> int:
    source = Path(args.source)
    text = source.read_text()
    out = Path(args.output) if args.output else source.with_suffix(".hex")
    if out.exists() and out.samefile(source):
        print(f"error: output {out} is the source file; name another with -o",
              file=sys.stderr)
        return 1
    image = asm.build_image(text, auto_nop=args.auto_nop)
    if args.key is not None:
        image = asm.encrypt_image(image, args.key)
    out.write_text(asm.write_hex(image))
    for name, addr in sorted(image.symbols.items(), key=lambda kv: kv[1]):
        print(f"{name} = {addr:x}")
    if image.crypt_boundary is not None:
        print(f"crypt boundary = {image.crypt_boundary}")
    return 0


def _print_stats(stats: pipeline.Stats) -> None:
    cpi = stats.cpi()
    print(f"cycles = {stats.cycles}")
    print(f"retired = {stats.retired}")
    print(f"stalls = {stats.stalls}")
    print(f"flushes = {stats.flushes}")
    print(f"cpi = {cpi:.4f}" if cpi is not None else "cpi = n/a")


def _block_line(addr: int, block: int) -> str:
    return f"{addr:x}: {block:016x}"


def _print_dumps(state: pipeline.CpuState, args) -> None:
    """One line per register, then one per block, each printed as it is
    read: a range is never held in memory."""
    for index in args.dump_regs or ():
        print(f"r{index} = 0x{state.regs.read(index):08x}")
    for start, stop in args.dump_mem or ():
        for addr in range(start, stop, 8):
            print(_block_line(addr, state.dmem.read_block(addr)))


def cmd_run(args) -> int:
    imem, dmem = machine.Memory(), machine.Memory()
    machine.load_image(imem, args.image)
    if args.dmem is not None:
        machine.load_image(dmem, args.dmem)
    state = pipeline.CpuState(imem, dmem, decrypt_loads=args.decrypt_loads)
    trace = (lambda line: print(line, file=sys.stderr)) if args.trace else None
    code = 0
    try:
        pipeline.run(state, max_cycles=args.max_cycles, trace=trace)
    except pipeline.Fault as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except pipeline.CycleLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 3
    _print_stats(state.stats)
    _print_dumps(state, args)
    return code


def cmd_des(args) -> int:
    op = des.encrypt_block if args.operation == "encrypt" else des.decrypt_block
    print(f"{op(args.block, des.key_schedule(args.key)):016x}")
    return 0


def cmd_dump(args) -> int:
    for addr, block in args.image.entries:
        line = _block_line(addr, block)
        if args.disasm:
            line += f"  {isa.disasm_word(des.extract_word(block))}"
        print(line)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="encmips",
        description="assembler and pipeline simulator for the encrypted "
                    "MIPS instruction set")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("asm", help="assemble a source file into a hex image")
    p.add_argument("source")
    p.add_argument("-o", "--output",
                   help="output path, never the source itself (default: source with .hex)")
    p.add_argument("--key", type=_parse_hex16,
                   help="16-hex-digit DES key: encrypt under it every block "
                        "from after a crypt that turns crypt mode on up to "
                        "and including the next crypt 0")
    p.add_argument("--auto-nop", action="store_true",
                   help="insert the two guard nops between key load and crypt")
    p.set_defaults(func=cmd_asm)

    p = sub.add_parser("run", help="run an instruction image to completion")
    p.add_argument("image", type=_read_image, help="instruction memory hex image")
    p.add_argument("--dmem", type=_read_image, help="data memory hex image")
    p.add_argument("--max-cycles", type=_parse_cycle_limit, default=100000,
                   metavar="N")
    p.add_argument("--trace", action="store_true",
                   help="per-cycle pipeline trace on standard error")
    p.add_argument("--decrypt-loads", action="store_true",
                   help="route lw data through the decryption core in crypt mode")
    p.add_argument("--dump-regs", type=_parse_reg_list, metavar="LIST",
                   help="registers to dump, e.g. r4,r7")
    p.add_argument("--dump-mem", type=_parse_mem_ranges, metavar="RANGES",
                   help="byte ranges to dump, e.g. 56:64")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("des", help="encrypt or decrypt one 64-bit block")
    p.add_argument("operation", choices=("encrypt", "decrypt"))
    p.add_argument("--key", type=_parse_hex16, required=True,
                   help="16-hex-digit DES key")
    p.add_argument("--block", type=_parse_hex16, required=True,
                   help="16-hex-digit block")
    p.set_defaults(func=cmd_des)

    p = sub.add_parser("dump", help="pretty-print a hex image")
    p.add_argument("image", type=_read_image)
    p.add_argument("--disasm", action="store_true",
                   help="disassemble each block's payload word")
    p.set_defaults(func=cmd_dump)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (argparse.ArgumentError, OSError, UnicodeDecodeError, asm.AsmError) as exc:
        # a command line the parser rejects, an assembly source that is
        # missing, unreadable or malformed, or a standard output closed by
        # its reader
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
