"""The worked array-sum example shared by assembler, pipeline, CLI and
acceptance tests: load the key from data memory, enable crypt mode, sum a
7-element array in a loop, store the sum at byte address 56.

VERBATIM ends the loop with an unconditional jump and therefore never
terminates; CORRECTED replaces it with the intended conditional branch.
"""

import progen
from encmips import asm, des, machine

KEY = 0x4B4952415450414C        # "KIRATPAL"
KEY_LOWER = KEY & 0xFFFFFFFF    # "TPAL", at byte address 104
KEY_UPPER = KEY >> 32           # "KIRA", at byte address 112
SUM = 0xCBA767EE

# seven 32-bit elements at byte addresses 0..55 summing to SUM mod 2^32
DATA = [0x11111111] * 6 + [0x65410188]

_BODY = """\
addi $r1, $r0, 104
lkw 0($r1)
addi $r1, $r1, 8
lkuw 0($r1)
nop
nop
crypt 1
addi $r1, $r0, 7
add $r2, $r0, $r0
addi $r3, $r0, 0
addi $r4, $r0, 0
Loop:  add $r5, $r2, $r2
      add $r5, $r5, $r5
      add $r5, $r5, $r5
      add $r5, $r5, $r3
      lw  $r6, 0($r5)
      add $r4, $r4, $r6
      addi $r2, $r2, 1
      slt $r7, $r2, $r1
      {loop_end}
Exit:  sw  $r4, 56($r0)
"""

VERBATIM = _BODY.format(loop_end="j  Loop")
CORRECTED = _BODY.format(loop_end="bne $r7, $r0, Loop")


def data_hex() -> str:
    lines = [f"{des.pad_word(v):016x}" for v in DATA]
    lines += ["@68", f"{des.pad_word(KEY_LOWER):016x}", f"{des.pad_word(KEY_UPPER):016x}"]
    return "\n".join(lines) + "\n"


def data_memory() -> machine.Memory:
    return progen.memory(asm.read_hex(data_hex()).entries)
