"""Toolchain for a 32-bit MIPS-style pipeline with DES-encrypted
instruction fetch and data store: assembler, block cipher, machine state,
cycle-accurate 5-stage simulator, and reference interpreter."""

from .asm import (ProgramImage, assemble, build_image, encrypt_image, pack,
                  parse, read_hex, write_hex)
from .des import (decrypt_block, encrypt_block, extract_word, key_schedule,
                  pad_word)
from .isa import Instruction, decode, disassemble, encode
from .machine import (KeyRegister, Memory, RegisterFile, load_image)
from .pipeline import (CpuState, CycleLimitExceeded, Fault, Stats,
                       architectural_state, reference_interpret, run, step)

__all__ = [
    "ProgramImage", "assemble", "build_image", "encrypt_image", "pack",
    "parse", "read_hex", "write_hex",
    "decrypt_block", "encrypt_block", "extract_word", "key_schedule",
    "pad_word",
    "Instruction", "decode", "disassemble", "encode",
    "KeyRegister", "Memory", "RegisterFile", "load_image",
    "CpuState", "CycleLimitExceeded", "Fault", "Stats",
    "architectural_state", "reference_interpret", "run", "step",
]
