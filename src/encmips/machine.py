"""Architectural state and its memory paths: register file, key register,
block-addressed memory, and IF's fetch_word and MEM's mem_stage. It owns the
blocks, their alignment, a store's zero padding and the DES on both paths.

Memories are byte addressed but only ever accessed in aligned 64-bit blocks
(address multiple of 8). Within a block the byte at address a is bits 7..0,
i.e. little-endian for byte-level inspection.
"""

from __future__ import annotations

from . import des, isa
from .des import BLOCK_MASK
from .isa import WORD_MASK


class MachineError(Exception):
    pass


class UnalignedAccess(MachineError):
    def __init__(self, addr: int):
        self.addr = addr
        super().__init__(f"unaligned 64-bit access at address {addr:#x}")


class KeyNotLoaded(MachineError):
    """A DES access before both key halves are loaded; its text names the access."""


class RegisterFile:
    """32 general registers; register 0 is hardwired to zero.

    `values` is the register list itself. The pipeline and the reference
    interpreter write it directly, so each write skips register 0 and keeps
    32 bits.
    """

    def __init__(self):
        self.values: list[int] = [0] * 32

    def read(self, index: int) -> int:
        return self.values[index]

    def snapshot(self) -> tuple[int, ...]:
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

    `blocks` maps each written aligned address to its block. Only this
    module touches it: the methods, and load_image, fetch_word and MEM's
    read inline, which measured faster than the methods (2-core x86-64,
    Python 3.11: per loop job, MEM 1.0-1.8%, load_image 1.1-1.7%; IF's
    miss 0.4% of fresh_programs bytecodes).
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

    def items(self) -> list[tuple[int, int]]:
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


def fetch_word(imem: Memory, pc: int, decrypt: bool, keyreg: KeyRegister) -> int | None:
    """IF-stage read: the 32-bit payload at pc, decrypted by the key register
    when crypt mode routes the fetch through the decryption core. None past
    imem's extent."""
    if pc >= imem.extent:
        return None
    if pc % 8:
        raise UnalignedAccess(pc)
    block = imem.blocks.get(pc, 0)
    if decrypt:
        block = keyreg.decrypt(block, "decrypting fetch before key loaded")
    return block & WORD_MASK


def mem_stage(instr: isa.Instruction, addr: int, store_data: int, crypt_mode: bool,
              keyreg: KeyRegister, dmem: Memory, decrypt_loads: bool = False) -> int | None:
    """MEM-stage access. A read tests its alignment itself and returns the
    low 32 bits of the block in dmem.blocks, which the caller passes to the
    row's load_key, else to its dest; a write returns None and stores the
    zero-padded word, DES-encrypted in crypt mode. A read into a register
    field, $r0 included, goes through the decryptor when decrypt_loads and
    crypt mode are on; a key load never does.
    """
    spec = instr.spec
    if spec.mem == isa.WRITE:
        block = des.pad_word(store_data)
        if crypt_mode:
            block = keyreg.encrypt(block, "encrypted store before key loaded")
        dmem.write_block(addr, block)
        return None
    if addr % 8:
        raise UnalignedAccess(addr)
    block = dmem.blocks.get(addr, 0)
    if decrypt_loads and crypt_mode and spec.dest is not None:
        block = keyreg.decrypt(block, "decrypting load before key loaded")
    return block & WORD_MASK
