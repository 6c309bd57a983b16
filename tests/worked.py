"""The worked array-sum example shared by assembler, pipeline, CLI and
acceptance tests: load the key from data memory, enable crypt mode, sum a
7-element array in a loop, store the sum at byte address 56.

The sources and the data image are the ones in demos/programs. VERBATIM
(`sum_array_verbatim.asm`) ends the loop with an unconditional jump and
therefore never terminates; CORRECTED (`sum_array.asm`) replaces it with
the intended conditional branch. DATA_HEX is `sum_array_data.hex`.
"""

from pathlib import Path

import progen
from encmips import asm, machine

PROGRAMS = Path(__file__).resolve().parent.parent / "demos" / "programs"

KEY = 0x4B4952415450414C        # "KIRATPAL"
KEY_LO = KEY & 0xFFFFFFFF       # "TPAL", at byte address 104
KEY_HI = KEY >> 32              # "KIRA", at byte address 112
SUM = 0xCBA767EE                # the seven array elements' sum mod 2^32

VERBATIM = (PROGRAMS / "sum_array_verbatim.asm").read_text()
CORRECTED = (PROGRAMS / "sum_array.asm").read_text()
DATA_HEX = (PROGRAMS / "sum_array_data.hex").read_text()


def data_memory() -> machine.Memory:
    return progen.memory(asm.read_hex(DATA_HEX).entries)
