"""Named source mutants that the tier-1 suite must kill.

    python tests/mutants.py            # run every mutant
    python tests/mutants.py NAME...    # run the named ones

Each mutant is one text replacement in one file of src/, chosen by hand to
break one rule the pipeline, the machine, the table or the assembler keeps.
The runner copies src/ to a temporary directory, makes the replacement
there, runs the tier-1 suite on the copy (with -x, -p no:cacheprovider and
PYTHONPATH pointing at the copy), and requires it to fail. It exits 1 when
a mutant survives or does not apply. Nothing in the checkout is written.

tests/test_mutants.py checks, in tier-1, only that each mutant's old text
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


class Mutant(NamedTuple):
    name: str
    file: str       # relative to src/
    old: str        # must occur exactly once in the file
    new: str


PIPELINE, ISA, MACHINE, ASM = ("encmips/pipeline.py", "encmips/isa.py",
                               "encmips/machine.py", "encmips/asm.py")

MUTANTS = [
    # the fetch cache: what a pc fetches changes with the crypt mode and the key
    Mutant("no fetch-cache drop on a mode flip", PIPELINE,
           "fetched.clear()     # before IF reads it, this cycle", "pass"),
    Mutant("no fetch-cache drop on a key commit", PIPELINE,
           "fetched.clear()     # after IF used the old key, this cycle", "pass"),
    Mutant("a mode flip leaves the fetch path", PIPELINE,
           "decrypting = crypt_mode and crypt_fetch\n                    fetched.clear()",
           "fetched.clear()"),
    Mutant("crypt_fetches not counted on a cache hit", PIPELINE,
           "ifid, pc = slot, slot.next_pc\n"
           "                    if decrypting:\n"
           "                        crypt_fetches += 1",
           "ifid, pc = slot, slot.next_pc"),
    # forwarding and hazards
    Mutant("EX operands from the register file only", PIPELINE,
           "a = exmem_alu if exmem.dest == idex.rs else regs[idex.rs]\n"
           "                b = exmem_alu if exmem.dest == idex.rt else regs[idex.rt]",
           "a, b = regs[idex.rs], regs[idex.rt]"),
    Mutant("branch compare from the register file only", PIPELINE,
           "a = exmem_alu if exmem.dest == ifid.rs else regs[ifid.rs]\n"
           "                    b = exmem_alu if exmem.dest == ifid.rt else regs[ifid.rt]",
           "a, b = regs[ifid.rs], regs[ifid.rt]"),
    Mutant("no load-use stall", PIPELINE,
           "if idex.dest in ifid.sources and idex.mem is not None:", "if False:"),
    Mutant("a branch does not wait for a producer in EX", PIPELINE,
           "if idex.dest in sources or exmem.dest in sources and exmem.mem is not None:",
           "if exmem.dest in sources and exmem.mem is not None:"),
    Mutant("a branch does not wait for a load in MEM", PIPELINE,
           "if idex.dest in sources or exmem.dest in sources and exmem.mem is not None:",
           "if idex.dest in sources:"),
    # faults and slots
    Mutant("an unknown word never faults", PIPELINE,
           "if ifid.kind is not None and ifid.instr is not None:", "if False:"),
    Mutant("a slot's next_pc does not wrap", PIPELINE,
           "self.next_pc = (pc + 8) & 0xFFFFFFFF", "self.next_pc = pc + 8"),
    Mutant("a slot's mem copied from the wrong row field", ISA,
           "(self.alu, self.mem, self.redirect, self.mode,",
           "(self.alu, self.load_key, self.redirect, self.mode,"),
    # the crypt paths and the key register
    Mutant("stores never encrypted", PIPELINE,
           "        if crypt_mode:\n            block = keyreg.encrypt(",
           "        if False:\n            block = keyreg.encrypt("),
    Mutant("a new lower key half keeps the old cipher", MACHINE,
           "self.lower, self.lower_loaded = value, True\n            self._cipher = None",
           "self.lower, self.lower_loaded = value, True"),
    Mutant("an unaligned read is not a fault", MACHINE,
           "    def read_block(self, addr: int) -> int:\n"
           "        if addr % 8:",
           "    def read_block(self, addr: int) -> int:\n"
           "        if False:"),
    # the table and the assembler
    Mutant("slt compares unsigned", ISA,
           "alu=lambda a, b, i: int((a ^ 0x80000000) < (b ^ 0x80000000))",
           "alu=lambda a, b, i: int(a < b)"),
    Mutant("a non-ASCII mnemonic is folded", ASM,
           "if mnemonic.isascii():", "if True:"),
]


def apply(mutant: Mutant, src: Path) -> None:
    """Make the mutant's replacement in the copy of src/ at src."""
    path = src / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: old text occurs {text.count(mutant.old)} "
                         f"times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new))


def run(mutant: Mutant) -> bool:
    """Whether tier-1 fails on the mutant (it is killed)."""
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
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"],
            env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if result.returncode not in (0, 1):
            raise RuntimeError(f"{mutant.name}: pytest exited {result.returncode}")
        return result.returncode == 1


def main(argv) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"no such mutant: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 1
    survivors = []
    for mutant in chosen:
        start = time.perf_counter()
        killed = run(mutant)
        print(f"{'killed' if killed else 'SURVIVED'}  {time.perf_counter() - start:5.1f} s  "
              f"{mutant.name}", flush=True)
        if not killed:
            survivors.append(mutant.name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
