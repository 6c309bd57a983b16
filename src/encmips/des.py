"""Bit-exact DES block cipher over plain integers.

Tables are the FIPS 46-3 originals (1-based bit positions counted from the
most significant bit). The block kernel follows Outerbridge's D3DES and the
SPtrans tables of Eric Young's libdes:

- IP and FP are five swaps of masked bit groups between the two 32-bit
  halves each, with no table.
- A round expands the right half with four byte lookups (E), XORs the
  48-bit subkey, and substitutes with four lookups in 4096-entry tables.
  Each of those pairs two adjacent S-boxes with P already applied, so one
  12-bit slice of the expanded half gives its share of f directly.
- The key schedule compiles PC-1 and PC-2 into per-byte lookup tables.

Keys and blocks are 64-bit ints. The 8 parity bits of a key are ignored,
never validated. No cipher modes: one call, one 64-bit ECB block.
cipher(key) remembers the blocks computed under a key, for every caller.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, Tuple

BLOCK_MASK = 0xFFFFFFFFFFFFFFFF

# Initial permutation and its inverse, the reference for _ip and _fp.
_IP = [
    58, 50, 42, 34, 26, 18, 10, 2,
    60, 52, 44, 36, 28, 20, 12, 4,
    62, 54, 46, 38, 30, 22, 14, 6,
    64, 56, 48, 40, 32, 24, 16, 8,
    57, 49, 41, 33, 25, 17,  9, 1,
    59, 51, 43, 35, 27, 19, 11, 3,
    61, 53, 45, 37, 29, 21, 13, 5,
    63, 55, 47, 39, 31, 23, 15, 7,
]
_FP = [
    40, 8, 48, 16, 56, 24, 64, 32,
    39, 7, 47, 15, 55, 23, 63, 31,
    38, 6, 46, 14, 54, 22, 62, 30,
    37, 5, 45, 13, 53, 21, 61, 29,
    36, 4, 44, 12, 52, 20, 60, 28,
    35, 3, 43, 11, 51, 19, 59, 27,
    34, 2, 42, 10, 50, 18, 58, 26,
    33, 1, 41,  9, 49, 17, 57, 25,
]

# Round function: expansion of the 32-bit half and the P permutation.
_E = [
    32,  1,  2,  3,  4,  5,
     4,  5,  6,  7,  8,  9,
     8,  9, 10, 11, 12, 13,
    12, 13, 14, 15, 16, 17,
    16, 17, 18, 19, 20, 21,
    20, 21, 22, 23, 24, 25,
    24, 25, 26, 27, 28, 29,
    28, 29, 30, 31, 32,  1,
]
_P = [
    16,  7, 20, 21, 29, 12, 28, 17,
     1, 15, 23, 26,  5, 18, 31, 10,
     2,  8, 24, 14, 32, 27,  3,  9,
    19, 13, 30,  6, 22, 11,  4, 25,
]

# Key schedule: PC-1 drops parity bits, PC-2 picks each round's 48 bits.
_PC1 = [
    57, 49, 41, 33, 25, 17,  9,
     1, 58, 50, 42, 34, 26, 18,
    10,  2, 59, 51, 43, 35, 27,
    19, 11,  3, 60, 52, 44, 36,
    63, 55, 47, 39, 31, 23, 15,
     7, 62, 54, 46, 38, 30, 22,
    14,  6, 61, 53, 45, 37, 29,
    21, 13,  5, 28, 20, 12,  4,
]
_PC2 = [
    14, 17, 11, 24,  1,  5,
     3, 28, 15,  6, 21, 10,
    23, 19, 12,  4, 26,  8,
    16,  7, 27, 20, 13,  2,
    41, 52, 31, 37, 47, 55,
    30, 40, 51, 45, 33, 48,
    44, 49, 39, 56, 34, 53,
    46, 42, 50, 36, 29, 32,
]
_SHIFTS = [1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1]

_SBOXES = [
    [14,  4, 13,  1,  2, 15, 11,  8,  3, 10,  6, 12,  5,  9,  0,  7,
      0, 15,  7,  4, 14,  2, 13,  1, 10,  6, 12, 11,  9,  5,  3,  8,
      4,  1, 14,  8, 13,  6,  2, 11, 15, 12,  9,  7,  3, 10,  5,  0,
     15, 12,  8,  2,  4,  9,  1,  7,  5, 11,  3, 14, 10,  0,  6, 13],
    [15,  1,  8, 14,  6, 11,  3,  4,  9,  7,  2, 13, 12,  0,  5, 10,
      3, 13,  4,  7, 15,  2,  8, 14, 12,  0,  1, 10,  6,  9, 11,  5,
      0, 14,  7, 11, 10,  4, 13,  1,  5,  8, 12,  6,  9,  3,  2, 15,
     13,  8, 10,  1,  3, 15,  4,  2, 11,  6,  7, 12,  0,  5, 14,  9],
    [10,  0,  9, 14,  6,  3, 15,  5,  1, 13, 12,  7, 11,  4,  2,  8,
     13,  7,  0,  9,  3,  4,  6, 10,  2,  8,  5, 14, 12, 11, 15,  1,
     13,  6,  4,  9,  8, 15,  3,  0, 11,  1,  2, 12,  5, 10, 14,  7,
      1, 10, 13,  0,  6,  9,  8,  7,  4, 15, 14,  3, 11,  5,  2, 12],
    [ 7, 13, 14,  3,  0,  6,  9, 10,  1,  2,  8,  5, 11, 12,  4, 15,
     13,  8, 11,  5,  6, 15,  0,  3,  4,  7,  2, 12,  1, 10, 14,  9,
     10,  6,  9,  0, 12, 11,  7, 13, 15,  1,  3, 14,  5,  2,  8,  4,
      3, 15,  0,  6, 10,  1, 13,  8,  9,  4,  5, 11, 12,  7,  2, 14],
    [ 2, 12,  4,  1,  7, 10, 11,  6,  8,  5,  3, 15, 13,  0, 14,  9,
     14, 11,  2, 12,  4,  7, 13,  1,  5,  0, 15, 10,  3,  9,  8,  6,
      4,  2,  1, 11, 10, 13,  7,  8, 15,  9, 12,  5,  6,  3,  0, 14,
     11,  8, 12,  7,  1, 14,  2, 13,  6, 15,  0,  9, 10,  4,  5,  3],
    [12,  1, 10, 15,  9,  2,  6,  8,  0, 13,  3,  4, 14,  7,  5, 11,
     10, 15,  4,  2,  7, 12,  9,  5,  6,  1, 13, 14,  0, 11,  3,  8,
      9, 14, 15,  5,  2,  8, 12,  3,  7,  0,  4, 10,  1, 13, 11,  6,
      4,  3,  2, 12,  9,  5, 15, 10, 11, 14,  1,  7,  6,  0,  8, 13],
    [ 4, 11,  2, 14, 15,  0,  8, 13,  3, 12,  9,  7,  5, 10,  6,  1,
     13,  0, 11,  7,  4,  9,  1, 10, 14,  3,  5, 12,  2, 15,  8,  6,
      1,  4, 11, 13, 12,  3,  7, 14, 10, 15,  6,  8,  0,  5,  9,  2,
      6, 11, 13,  8,  1,  4, 10,  7,  9,  5,  0, 15, 14,  2,  3, 12],
    [13,  2,  8,  4,  6, 15, 11,  1, 10,  9,  3, 14,  5,  0, 12,  7,
      1, 15, 13,  8, 10,  3,  7,  4, 12,  5,  6, 11,  0, 14,  9,  2,
      7, 11,  4,  1,  9, 12, 14,  2,  0,  6, 10, 13, 15,  3,  5,  8,
      2,  1, 14,  7,  4, 10,  8, 13, 15, 12,  9,  0,  3,  5,  6, 11],
]


def _compile(table: Sequence[int], in_width: int):
    """Turn a 1-based bit permutation into per-input-byte OR tables."""
    out_width = len(table)
    luts = [[0] * 256 for _ in range(in_width // 8)]
    for out_pos, in_pos in enumerate(table):
        out_bit = 1 << (out_width - 1 - out_pos)
        chunk, bit = divmod(in_pos - 1, 8)
        probe = 1 << (7 - bit)
        lut = luts[chunk]
        for v in range(256):
            if v & probe:
                lut[v] |= out_bit
    return luts


def _apply(luts, value: int, in_width: int) -> int:
    out = 0
    shift = in_width
    for lut in luts:
        shift -= 8
        out |= lut[(value >> shift) & 0xFF]
    return out


_E0, _E1, _E2, _E3 = _compile(_E, 32)
_P_LUT = _compile(_P, 32)
_PC1_LUT = _compile(_PC1, 64)
_PC2_LUT = _compile(_PC2, 56)

# S-boxes fused with P: _SP[i][v] is P(S_i(v) placed at nibble i).
_SP = []
for _i, _box in enumerate(_SBOXES):
    _lut = []
    for _v in range(64):
        _row = ((_v >> 4) & 0x2) | (_v & 0x1)
        _col = (_v >> 1) & 0xF
        _lut.append(_apply(_P_LUT, _box[_row * 16 + _col] << (28 - 4 * _i), 32))
    _SP.append(_lut)
del _i, _box, _lut, _v, _row, _col


def _pair(hi, lo):
    """Two adjacent S-box tables paired: entry v is hi[v >> 6] | lo[v & 0x3F].

    A pair has at most 256 distinct outputs, so equal entries share one int.
    """
    shared = {}
    return [shared.setdefault(a | b, a | b) for a in hi for b in lo]


_SP01, _SP23, _SP45, _SP67 = (_pair(_SP[i], _SP[i + 1]) for i in range(0, 8, 2))

KeySchedule = Tuple[int, ...]


def key_schedule(key: int) -> KeySchedule:
    """Derive the 16 48-bit round subkeys from a 64-bit key.

    Only the 56 non-parity bits matter. The left-rotation schedule sums to
    28, so the 28-bit halves end round 16 back at their initial state.
    """
    cd = _apply(_PC1_LUT, key & BLOCK_MASK, 64)
    c, d = cd >> 28, cd & 0xFFFFFFF
    subkeys = []
    for shift in _SHIFTS:
        c = ((c << shift) | (c >> (28 - shift))) & 0xFFFFFFF
        d = ((d << shift) | (d >> (28 - shift))) & 0xFFFFFFF
        subkeys.append(_apply(_PC2_LUT, (c << 28) | d, 56))
    return tuple(subkeys)


def _ip(block: int) -> int:
    """Initial permutation as five swaps of masked bit groups between halves."""
    left, right = (block >> 32) & 0xFFFFFFFF, block & 0xFFFFFFFF
    t = ((left >> 4) ^ right) & 0x0F0F0F0F; right ^= t; left ^= t << 4
    t = ((left >> 16) ^ right) & 0x0000FFFF; right ^= t; left ^= t << 16
    t = ((right >> 2) ^ left) & 0x33333333; left ^= t; right ^= t << 2
    t = ((right >> 8) ^ left) & 0x00FF00FF; left ^= t; right ^= t << 8
    t = ((left >> 1) ^ right) & 0x55555555; right ^= t; left ^= t << 1
    return (left << 32) | right


def _fp(block: int) -> int:
    """Inverse of _ip: each swap undoes itself, so the same five in reverse."""
    left, right = block >> 32, block & 0xFFFFFFFF
    t = ((left >> 1) ^ right) & 0x55555555; right ^= t; left ^= t << 1
    t = ((right >> 8) ^ left) & 0x00FF00FF; left ^= t; right ^= t << 8
    t = ((right >> 2) ^ left) & 0x33333333; left ^= t; right ^= t << 2
    t = ((left >> 16) ^ right) & 0x0000FFFF; right ^= t; left ^= t << 16
    t = ((left >> 4) ^ right) & 0x0F0F0F0F; right ^= t; left ^= t << 4
    return (left << 32) | right


def _cipher(block: int, subkeys: Sequence[int]) -> int:
    x = _ip(block)
    left, right = x >> 32, x & 0xFFFFFFFF
    e0, e1, e2, e3 = _E0, _E1, _E2, _E3
    sp01, sp23, sp45, sp67 = _SP01, _SP23, _SP45, _SP67
    for k in subkeys:
        x = (e0[right >> 24] | e1[(right >> 16) & 0xFF] | e2[(right >> 8) & 0xFF]
             | e3[right & 0xFF]) ^ k
        left, right = right, left ^ (sp01[x >> 36] | sp23[(x >> 24) & 0xFFF]
                                     | sp45[(x >> 12) & 0xFFF] | sp67[x & 0xFFF])
    return _fp((right << 32) | left)


def encrypt_block(plaintext: int, sched: KeySchedule) -> int:
    """One ECB block: IP, 16 forward rounds, half swap, inverse IP."""
    return _cipher(plaintext, sched)


def decrypt_block(ciphertext: int, sched: KeySchedule) -> int:
    """Inverse of encrypt_block: same structure, subkeys in reverse order."""
    return _cipher(ciphertext, sched[::-1])


CIPHERS = 16     # ciphers cipher() keeps, least recently used dropped first
PAIRS = 1024     # pairs a Cipher keeps before it empties its dicts


class Cipher:
    """DES under one key, running each distinct block through the rounds
    once: DES under a key is a bijection, so a pair found in either
    direction serves both. `_ct` and `_pt` hold the same pairs and are
    emptied together at PAIRS, so cipher()'s LRU holds at most
    2 * CIPHERS * PAIRS = 32768 dict entries."""

    def __init__(self, key: int):
        self.sched = key_schedule(key)
        self._ct, self._pt = {}, {}     # plaintext -> ciphertext, and back

    def encrypt(self, block: int) -> int:
        if (out := self._ct.get(block)) is None:
            self._keep(block, out := encrypt_block(block, self.sched))
        return out

    def decrypt(self, block: int) -> int:
        if (out := self._pt.get(block)) is None:
            self._keep(out := decrypt_block(block, self.sched), block)
        return out

    def _keep(self, plain: int, ciphertext: int) -> None:
        if len(self._ct) >= PAIRS:
            self._ct, self._pt = {}, {}
        self._ct[plain] = ciphertext
        self._pt[ciphertext] = plain


cipher = lru_cache(maxsize=CIPHERS)(Cipher)     # one Cipher per key, shared


# 32-bit values live in the low half of their 64-bit memory block; the high
# half is zero. Pinned by the published triple (key 4b4952415450414c,
# word cb97f7ee, block ciphertext 10539160018d5ff7).
def pad_word(word: int) -> int:
    """Embed a 32-bit value in a 64-bit block, upper half zero."""
    return word & 0xFFFFFFFF


def extract_word(block: int) -> int:
    """Inverse of pad_word: the 32-bit payload of a zero-padded block."""
    return block & 0xFFFFFFFF
