"""Named source mutants that the tier-1 suite must kill.

    python tests/mutants.py            # run every mutant
    python tests/mutants.py NAME...    # run the named ones

Each mutant is one text replacement in one file of src/, chosen by hand to
break one rule the pipeline, the machine, the table or the assembler keeps.
The runner copies src/ to a temporary directory, makes the replacement
there, runs the tier-1 suite on the copy (with -x, -p no:cacheprovider and
PYTHONPATH pointing at the copy), and requires it to fail within
TIMEOUT_S. It exits 1 when a mutant survives, times out or does not
apply. Nothing in the checkout is written.

tests/test_mutants.py checks, in tier-1, that each mutant's old text
occurs exactly once in its file, so a change that moves the code fails
there and updates its mutants in the same change. A mutant that survives
is a gap in the tests: answer it with a test, do not drop it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# tier-1 takes about 7 s on a 2-core x86-64; a mutant's run that takes this
# long has made some run unbounded, and counts as not killed
TIMEOUT_S = 120


class Mutant(NamedTuple):
    name: str
    file: str       # relative to src/
    old: str        # must occur exactly once in the file
    new: str


PIPELINE, ISA, MACHINE, ASM, DES = ("encmips/pipeline.py", "encmips/isa.py",
                                    "encmips/machine.py", "encmips/asm.py",
                                    "encmips/des.py")

MUTANTS = [
    # the fetch cache: what a pc fetches changes with the crypt mode and the key
    Mutant("no fetch-cache drop on a mode flip", PIPELINE,
           "fetched.clear()     # before IF reads it, this cycle", "pass"),
    Mutant("no fetch-cache drop on a key commit", PIPELINE,
           "fetched.clear()     # after IF used the old key, this cycle", "pass"),
    Mutant("a mode flip leaves the fetch path", PIPELINE,
           "word = fetch_word(imem, pc, crypt_mode, keyreg)",
           "word = fetch_word(imem, pc, state.crypt_mode, keyreg)"),
    Mutant("crypt_fetches not counted on a cache hit", PIPELINE,
           "ifid, pc = slot, slot.next_pc\n"
           "                        if crypt_mode:\n"
           "                            crypt_fetches += 1",
           "ifid, pc = slot, slot.next_pc"),
    # the cycle loop's end
    Mutant("a halt counts the cycle it never ran", PIPELINE,
           "cycles -= 1     # halted before this cycle, which never ran", "pass"),
    Mutant("retired derived without the fill bubbles", PIPELINE,
           "st.retired = cycles - stalls - flushes - fills", "st.retired = cycles - stalls - flushes"),
    # ID's handoff to IF, and the key half MEM hands to the cycle's end
    Mutant("IF keeps a redirect it took", PIPELINE,
           "next_idex, ifid, pc, handoff = ifid, flush_bubble, handoff, None",
           "next_idex, ifid, pc = ifid, flush_bubble, handoff"),
    Mutant("a key half commits again in every later cycle", PIPELINE,
           "load_key(keyreg, key_word)\n                    load_key = None", "load_key(keyreg, key_word)"),
    # forwarding and hazards
    Mutant("EX operands from the register file only", PIPELINE,
           "a = exmem_alu if exmem.dest is idex.rs else regs[idex.rs]\n"
           "                    b = exmem_alu if exmem.dest is idex.rt else regs[idex.rt]",
           "a, b = regs[idex.rs], regs[idex.rt]"),
    Mutant("EXMEM's result forwarded for every register", PIPELINE,
           "a = exmem_alu if exmem.dest is idex.rs else regs[idex.rs]\n"
           "                    b = exmem_alu if exmem.dest is idex.rt else regs[idex.rt]",
           "a = exmem_alu if exmem.dest is not None else regs[idex.rs]\n"
           "                    b = exmem_alu if exmem.dest is not None else regs[idex.rt]"),
    Mutant("branch compare from the register file only", PIPELINE,
           "a = exmem_alu if exmem.dest is ifid.rs else regs[ifid.rs]\n"
           "                        b = exmem_alu if exmem.dest is ifid.rt else regs[ifid.rt]",
           "a, b = regs[ifid.rs], regs[ifid.rt]"),
    Mutant("no load-use stall", PIPELINE,
           "if idex.mem is not None and idex.dest in ifid.sources:", "if False:"),
    Mutant("load-use stalls on any memory row in EX", PIPELINE,
           "if idex.mem is not None and idex.dest in ifid.sources:",
           "if idex.mem is not None:"),
    Mutant("a branch does not wait for a producer in EX", PIPELINE,
           "if idex.dest in sources or exmem.mem is not None and exmem.dest in sources:",
           "if exmem.mem is not None and exmem.dest in sources:"),
    Mutant("a branch does not wait for a load in MEM", PIPELINE,
           "if idex.dest in sources or exmem.mem is not None and exmem.dest in sources:",
           "if idex.dest in sources:"),
    # flushes: a redirect in ID squashes the one slot IF fetched behind it
    Mutant("a taken branch fetches its target with no flush", PIPELINE,
           "handoff = ifid.redirect(ifid.pc, a, b, ifid.instr)",
           "handoff = ifid.redirect(ifid.pc, a, b, ifid.instr)\n"
           "                        if handoff is not None and sources:\n"
           "                            pc, handoff = handoff, None"),
    Mutant("a jump fetches its target with no flush", PIPELINE,
           "handoff = ifid.redirect(ifid.pc, a, b, ifid.instr)",
           "handoff = ifid.redirect(ifid.pc, a, b, ifid.instr)\n"
           "                        if handoff is not None and not sources:\n"
           "                            pc, handoff = handoff, None"),
    Mutant("a crypt-mode switch keeps the slot fetched on the old path", PIPELINE,
           "handoff = pc        # refetch what IF reads on the old path", "pass"),
    # the replay of compiled segments: what it may assume, where it stops,
    # and the state it leaves where it stops
    Mutant("a replay skips its guard", PIPELINE,
           'lines.append(f"if not ({cond}): {stop}" if taken else f"if {cond}: {stop}")',
           "pass"),
    Mutant("a replay skips its alignment guard", PIPELINE,
           'lines.append(f"if {x} & 7: {stop}")     # the alignment guard', "pass"),
    Mutant("a replay forwards nothing", PIPELINE,
           "return x if exmem.dest is r else y if memwb.dest is r else",
           "return y if memwb.dest is r else"),
    Mutant("a recording never ends", PIPELINE, "if not resolved:", "if True:"),
    Mutant("a recording compiles before its resolution", PIPELINE,
           "if not resolved:", "if False:"),
    Mutant("a replay runs past the limit", PIPELINE,
           "_Segment and cycles + seg.n <= limit:", "_Segment and cycles < limit:"),
    Mutant("a fault in a replay restores the latches one cycle on", PIPELINE,
           'lines.append(f"if {x} & 7: {stop}")     # the alignment guard',
           'lines.append(f"if {x} & 7: return i, {c + 1}, {x}, {y}")'),
    Mutant("a fault in a replay leaves out its cycle's WB stall", PIPELINE,
           "elif memwb is stall_bubble:\n                    stalls += 1",
           "elif memwb is stall_bubble:\n"
           "                    stalls += exmem.mem is None or exmem_alu % 8 == 0"),
    Mutant("a replay adds no retired_log entries", PIPELINE,
           "retired_log += seg.retired * i + seg.retired[:k - d_stalls - d_flushes]", "pass"),
    # a segment that ends in its first configuration runs its passes in one call
    Mutant("a looping replay runs one pass past the limit", PIPELINE,
           "(limit - cycles) // seg.n if seg.loops",
           "(limit - cycles) // seg.n + 1 if seg.loops"),
    Mutant("a looping replay counts only one pass's stalls and flushes", PIPELINE,
           "stalls + i * p_stalls + d_stalls\n"
           "                flushes += i * p_flushes + d_flushes",
           "stalls + d_stalls\n                flushes += d_flushes"),
    Mutant("a looping replay logs only one pass's retired entries", PIPELINE,
           "retired_log += seg.retired * i + seg.retired[", "retired_log += seg.retired["),
    Mutant("every segment loops", PIPELINE,
           "seg.loops = seg.configs[n] == seg.configs[0]", "seg.loops = True"),
    Mutant("the memo caches the bound function, not the code", PIPELINE,
           "seg.run = FunctionType(code.co_consts[0], names)",
           "seg.run = _compile.__dict__.setdefault(code, FunctionType(code.co_consts[0], names))"),
    Mutant("a replay's mem_stage is bound at import", PIPELINE,
           "def _segment(record: list, decrypt_loads: bool) -> _Segment:",
           "def _segment(record: list, decrypt_loads: bool, mem_stage=mem_stage) -> _Segment:"),
    # the trace line: a snapshot of the locals after each cycle's work
    Mutant("DEC_FETCH never reported", PIPELINE,
           'events.append("DEC_FETCH")', "pass"),
    Mutant("ENC_STORE never reported", PIPELINE,
           'events.append("ENC_STORE")', "pass"),
    Mutant("a traced cycle's before is its own after", PIPELINE,
           "before, after = after, (pc, ifid, idex, exmem, memwb, crypt_mode,",
           "before = after = (pc, ifid, idex, exmem, memwb, crypt_mode,"),
    Mutant("the trace's IF column shows the old IFID", PIPELINE,
           "IF:{_slot_text(new_ifid)}", "IF:{_slot_text(ifid)}"),
    # faults and slots
    Mutant("an unknown word never faults", PIPELINE,
           "raise Fault(ifid.instr, ifid.pc, cycles) from ifid.instr", "pass"),
    Mutant("an unknown word's slot takes ID's load-use path alone", PIPELINE,
           "self.rare = None if instr is None else True", "self.rare = None"),
    Mutant("a redirect row takes ID's load-use path alone", ISA,
           "True if redirect or mode else None", "True if mode else None"),
    Mutant("a slot's next_pc does not wrap", PIPELINE,
           "self.next_pc = 0 if pc is None else (pc + 8) & 0xFFFFFFFF",
           "self.next_pc = 0 if pc is None else pc + 8"),
    Mutant("a faulted core clocks again", PIPELINE,
           "    if state.fault is not None:     # a Fault is final: no cycle runs after it\n"
           "        raise state.fault.with_traceback(None)     # no traceback grows per raise\n",
           ""),
    Mutant("a slot's mem copied from the wrong row field", ISA,
           "self.stage = (alu, mem, redirect, mode, load_key,",
           "self.stage = (alu, load_key, redirect, mode, load_key,"),
    # the crypt paths and the key register
    Mutant("stores never encrypted", MACHINE,
           "        if crypt_mode:\n            block = keyreg.encrypt(",
           "        if False:\n            block = keyreg.encrypt("),
    Mutant("a reloaded lower key half keeps its old value", MACHINE,
           "self.lower, self.lower_loaded = value & WORD_MASK, True",
           "self.lower, self.lower_loaded = (\n"
           "            self.lower if self.lower_loaded else value & WORD_MASK), True"),
    Mutant("a key half looks its cipher up when loaded, not when used", MACHINE,
           "self.upper, self.upper_loaded = value & WORD_MASK, True",
           "self.upper, self.upper_loaded = value & WORD_MASK, True\n"
           "        if self.lower_loaded and self.upper_loaded:\n"
           "            des.cipher(self.upper << 32 | self.lower)"),
    Mutant("one memory serves as imem and dmem", PIPELINE,
           "if self.imem is self.dmem:", "if False:"),
    Mutant("an unaligned read is not a fault", MACHINE,
           "    def read_block(self, addr: int) -> int:\n"
           "        if addr % 8:",
           "    def read_block(self, addr: int) -> int:\n"
           "        if False:"),
    Mutant("MEM reads an unaligned address", MACHINE,
           "    if addr % 8:\n        raise UnalignedAccess(addr)\n"
           "    block = dmem.blocks.get(addr, 0)",
           "    block = dmem.blocks.get(addr, 0)"),
    Mutant("load_image keeps extent only when no entry raises", MACHINE,
           "    finally:    # extent as write_block would leave it, also when an entry raised\n"
           "        mem.extent = extent",
           "    except UnalignedAccess:\n        raise\n    mem.extent = extent"),
    # the DES tables: two entries of each swapped
    Mutant("IP entries swapped", DES,
           "_IP = [\n    58, 50,", "_IP = [\n    50, 58,"),
    Mutant("FP entries swapped", DES,
           "_FP = [\n    40, 8,", "_FP = [\n    8, 40,"),
    Mutant("E entries swapped", DES,
           "_E = [\n    32,  1,", "_E = [\n     1, 32,"),
    Mutant("P entries swapped", DES,
           "_P = [\n    16,  7,", "_P = [\n     7, 16,"),
    Mutant("PC-1 entries swapped", DES,
           "_PC1 = [\n    57, 49,", "_PC1 = [\n    49, 57,"),
    Mutant("PC-2 entries swapped", DES,
           "_PC2 = [\n    14, 17,", "_PC2 = [\n    17, 14,"),
    Mutant("key-schedule shifts swapped", DES,
           "_SHIFTS = [1, 1, 2,", "_SHIFTS = [1, 2, 1,"),
    Mutant("S-box 1 entries swapped", DES,
           "    [14,  4, 13,", "    [ 4, 14, 13,"),
    # the table's templates, each compiled into its row's function and
    # written inline in the replay's segments
    Mutant("add does not wrap", ISA,
           'alu="({a} + {b}) & 0xFFFFFFFF"', 'alu="{a} + {b}"'),
    Mutant("sub subtracts rs from rt", ISA,
           'alu="({a} - {b}) & 0xFFFFFFFF"', 'alu="({b} - {a}) & 0xFFFFFFFF"'),
    Mutant("and reads rs twice", ISA, 'alu="{a} & {b}"', 'alu="{a} & {a}"'),
    Mutant("or is exclusive", ISA, 'alu="{a} | {b}"', 'alu="{a} ^ {b}"'),
    Mutant("slt compares unsigned", ISA,
           'alu="1 if ({a} ^ 0x80000000) < ({b} ^ 0x80000000) else 0"',
           'alu="1 if {a} < {b} else 0"'),
    Mutant("sll does not wrap", ISA,
           'alu="({b} << {shamt}) & 0xFFFFFFFF"', 'alu="{b} << {shamt}"'),
    Mutant("addi and every address subtract the immediate", ISA,
           '_ADD_IMM = "({a} + {imm}) & 0xFFFFFFFF"', '_ADD_IMM = "({a} - {imm}) & 0xFFFFFFFF"'),
    Mutant("beq is taken when rs <= rt", ISA, 'taken="{a} == {b}"', 'taken="{a} <= {b}"'),
    Mutant("bne is taken when rs > rt", ISA, 'taken="{a} != {b}"', 'taken="{a} > {b}"'),
    # the assembler
    Mutant("encode checks rt before rs", ISA,
           'for name, value in (("rs", rs), ("rt", rt),',
           'for name, value in (("rt", rt), ("rs", rs),'),
    Mutant("encode checks imm after the registers", ISA,
           '        _check("imm", imm, -32768, 32767)\n'
           '        for name, value in (("rs", rs), ("rt", rt), ("rd", rd), ("shamt", shamt)):\n'
           '            _check(name, value, 0, 31)\n',
           '        for name, value in (("rs", rs), ("rt", rt), ("rd", rd), ("shamt", shamt)):\n'
           '            _check(name, value, 0, 31)\n'
           '        _check("imm", imm, -32768, 32767)\n'),
    Mutant("a branch overflow reads as an immediate's", ASM,
           '_TOO_WIDE.get((exc.field, "t" in spec.shape))', "_TOO_WIDE.get((exc.field, False))"),
    Mutant("the crypt-row opcodes taken from the branch rows", ASM,
           "                          if spec.mode is not None)",
           "                          if spec.redirect is not None)"),
    Mutant("a non-ASCII mnemonic is folded", ASM,
           "if mnemonic.isascii():", "if True:"),
    Mutant("the register piece takes $r32", ASM,
           r'_REG = r"\$[rR]?0*(3[01]|[12]?[0-9])"',
           r'_REG = r"\$[rR]?0*(3[0-2]|[12]?[0-9])"'),
    Mutant("the number piece reads decimal only", ASM,
           '"i": (_NUM, (_number,), "number")', '"i": (_NUM, (int,), "number")'),
    Mutant("the target piece takes labels only", ASM,
           '"t": (f"({NUM_RE.pattern}|{_IDENT})"', '"t": (f"({_IDENT})"'),
    Mutant("the memory piece takes no blanks inside its parentheses", ASM,
           r'"m": (rf"{_NUM}\(\s*{_REG}\s*\)"', r'"m": (rf"{_NUM}\({_REG}\)"'),
    # the diagnosis of a rejected operand list
    Mutant("a register out of range is diagnosed as misshapen", ASM,
           r'm = re.fullmatch(piece.replace(_REG, r"(\$[rR]?[0-9]+)"), text)',
           "m = re.fullmatch(piece, text)"),
    Mutant("one operand too many passes the operand count", ASM,
           "if len(texts) != len(spec.shape):",
           "if not 0 <= len(texts) - len(spec.shape) <= 1:"),
    Mutant("a number too long to read escapes as int()'s ValueError", ASM,
           "                try:\n"
           "                    convert(group)\n"
           "                except ValueError:  # a number with more digits than int() reads\n"
           '                    return AsmError(f"number too long to read ({len(group)} characters)", '
           'line)\n',
           "                convert(group)\n"),
]


def apply(mutant: Mutant, src: Path) -> None:
    """Make the mutant's replacement in the copy of src/ at src."""
    path = src / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: old text occurs {text.count(mutant.old)} "
                         f"times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new))


def run(mutant: Mutant) -> str:
    """What tier-1 makes of the mutant: "killed" when it fails, "SURVIVED"
    when it passes, "TIMED OUT" when it runs past TIMEOUT_S."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        apply(mutant, src)
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run([sys.executable, "-c", "import encmips; print(encmips.__file__)"],
                               env=env, cwd=ROOT, capture_output=True, text=True, check=True)
        if not Path(where.stdout.strip()).is_relative_to(src):
            raise RuntimeError(f"the suite would import {where.stdout.strip()}, not the copy")
        try:
            result = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 "--continue-on-collection-errors"],
                env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "TIMED OUT"
        if result.returncode not in (0, 1):
            raise RuntimeError(f"{mutant.name}: pytest exited {result.returncode}")
        return "killed" if result.returncode == 1 else "SURVIVED"


def main(argv) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"no such mutant: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 1
    survivors = []
    for mutant in chosen:
        start = time.perf_counter()
        outcome = run(mutant)
        print(f"{outcome}  {time.perf_counter() - start:5.1f} s  {mutant.name}", flush=True)
        if outcome != "killed":
            survivors.append(mutant.name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
