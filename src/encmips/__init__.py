"""Toolchain for a 32-bit MIPS-style pipeline with DES-encrypted
instruction fetch and data store: assembler, block cipher, machine state,
cycle-accurate 5-stage simulator, and reference interpreter."""
