"""Architectural state: register file, key register, block-addressed memory.

Memories are byte addressed but only ever accessed in aligned 64-bit blocks
(address multiple of 8). Within a block the byte at address a is bits 7..0,
i.e. little-endian for byte-level inspection.
"""

from __future__ import annotations

from typing import List, Tuple

from . import des
from .des import BLOCK_MASK
from .isa import WORD_MASK


class MachineError(Exception):
    pass


class UnalignedAccess(MachineError):
    def __init__(self, addr: int):
        self.addr = addr
        super().__init__(f"unaligned 64-bit access at address {addr:#x}")


class KeyNotLoaded(MachineError):
    def __init__(self, what: str = "key register incomplete"):
        super().__init__(what)


class RegisterFile:
    """32 general registers; register 0 is hardwired to zero.

    `values` is the register list itself. The pipeline reads and writes it
    directly, so a direct write must skip register 0 and keep 32 bits, as
    write() does.
    """

    def __init__(self):
        self.values: List[int] = [0] * 32

    def read(self, index: int) -> int:
        return self.values[index]

    def write(self, index: int, value: int) -> None:
        if index != 0:
            self.values[index] = value & WORD_MASK

    def snapshot(self) -> Tuple[int, ...]:
        return tuple(self.values)


class KeyRegister:
    """Two 32-bit halves of the DES key, loaded independently by lklw/lkuw.

    Once both halves are set the value persists until a half is reloaded.
    The register feeds the DES cores through the key's shared `des.cipher`,
    looked up by the full key on every use, so a key that is only passed
    through while both halves are reloaded derives no schedule.
    """

    def __init__(self):
        self.lower = 0
        self.upper = 0
        self.lower_loaded = False
        self.upper_loaded = False

    def set_lower(self, value: int) -> None:
        self.lower, self.lower_loaded = value & WORD_MASK, True

    def set_upper(self, value: int) -> None:
        self.upper, self.upper_loaded = value & WORD_MASK, True

    @property
    def loaded(self) -> bool:
        return self.lower_loaded and self.upper_loaded

    def key_value(self) -> int:
        if not self.loaded:
            raise KeyNotLoaded()
        return (self.upper << 32) | self.lower

    def encrypt(self, block: int, what: str) -> int:
        """DES encryption of block; KeyNotLoaded(what) before the key is loaded."""
        if not (self.lower_loaded and self.upper_loaded):
            raise KeyNotLoaded(what)
        return des.cipher(self.upper << 32 | self.lower).encrypt(block)

    def decrypt(self, block: int, what: str) -> int:
        """DES decryption of block; KeyNotLoaded(what) before the key is loaded."""
        if not (self.lower_loaded and self.upper_loaded):
            raise KeyNotLoaded(what)
        return des.cipher(self.upper << 32 | self.lower).decrypt(block)


class Memory:
    """Sparse block store. Unwritten aligned addresses read as zero;
    extent (highest loaded address + 8) marks where instruction fetch stops.

    `blocks` maps each written aligned address to its block. IF's fetch,
    MEM's reads and the oracle's fetch read it directly after their own
    alignment test (the oracle's pc is always a multiple of 8);
    load_image writes it directly and keeps `extent`.
    """

    def __init__(self):
        self.blocks: dict[int, int] = {}
        self.extent = 0

    def read_block(self, addr: int) -> int:
        if addr % 8:
            raise UnalignedAccess(addr)
        return self.blocks.get(addr, 0)

    def write_block(self, addr: int, block: int) -> None:
        if addr % 8:
            raise UnalignedAccess(addr)
        self.blocks[addr] = block & BLOCK_MASK
        if addr + 8 > self.extent:
            self.extent = addr + 8

    def items(self) -> List[Tuple[int, int]]:
        return sorted(self.blocks.items())


def load_image(mem: Memory, image) -> None:
    """Place a ProgramImage's blocks at their byte addresses (later blocks
    win); an unaligned entry raises after the ones before it are placed."""
    blocks, extent = mem.blocks, mem.extent
    try:
        for addr, block in image.entries:
            if addr % 8:
                raise UnalignedAccess(addr)
            blocks[addr] = block & BLOCK_MASK
            if addr + 8 > extent:
                extent = addr + 8
    finally:    # extent as write_block would leave it, also when an entry raised
        mem.extent = extent
