"""Bit-exact DES block cipher over plain integers.

Tables are the FIPS 46-3 originals (1-based bit positions counted from the
most significant bit). The block kernel keeps both 32-bit halves in their
48-bit expanded form E(half) through all the rounds. E only copies bits, so
E(L ^ f) = E(L) ^ E(f), and no round needs E:

- The prologue is IP followed by E of both halves, as eight lookups, one per
  block byte, that give E(L0) << 48 | E(R0).
- A round XORs the 48-bit subkey into the expanded right half and
  substitutes with four lookups in 4096-entry tables. Each pairs two
  adjacent S-boxes with P and then E applied, so one 12-bit slice gives its
  share of E(f) directly, after the SPtrans tables of Eric Young's libdes.
- The epilogue is E inverted, the middle 4 bits of each 6-bit group, and FP:
  eight lookups of a squeezed 12-bit slice, one per byte of R16 || L16.
- The key schedule compiles PC-1 and PC-2 into per-byte lookup tables.

Each per-byte table is built from the output bits of its 8 input bits, and
each 4096-entry table row by row with map, so the import stays cheap.

Keys and blocks are 64-bit ints. The 8 parity bits of a key are ignored,
never validated. No cipher modes: one call, one 64-bit ECB block.
cipher(key) remembers the blocks computed under a key, for every caller.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain

BLOCK_MASK = 0xFFFFFFFFFFFFFFFF

# Initial permutation and its inverse.
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


def _bits(table: list[int], in_width: int) -> list[int]:
    """Per input bit, most significant first: the output bits a 1-based
    bit-copy table (a permutation, E or a selection) copies it to."""
    out = [0] * in_width
    for out_pos, in_pos in enumerate(table):
        out[in_pos - 1] |= 1 << (len(table) - 1 - out_pos)
    return out


def _bytes(single: list[int]) -> list[list[int]]:
    """Per-input-byte OR tables from each input bit's output bits: the entry
    of v is the entry of v without its top bit, OR that bit's output."""
    luts = []
    for chunk in range(0, len(single), 8):
        lut = [0]
        for bit in reversed(single[chunk:chunk + 8]):
            lut += [*map(bit.__or__, lut)]
        luts.append(lut)
    return luts


def _pair(hi: list[int], lo: list[int]) -> list[int]:
    """A 12-bit table from two 6-bit ones: entry v is hi[v >> 6] | lo[v & 0x3F]."""
    rows = {a: [*map(a.__or__, lo)] for a in set(hi)}
    return [*chain.from_iterable(map(rows.__getitem__, hi))]


def _apply(luts, value: int, in_width: int) -> int:
    out = 0
    shift = in_width
    for lut in luts:
        shift -= 8
        out |= lut[(value >> shift) & 0xFF]
    return out


_PC1_LUT = _bytes(_bits(_PC1, 64))
_PC2_LUT = _bytes(_bits(_PC2, 56))

# E of each bit of a half. _EP[i][v] is E(P(v at byte i of P's input)),
# where byte i is the output of S-boxes 2i and 2i + 1.
_E_BITS = _bits(_E, 32)
_EP = _bytes([_E_BITS[32 - out.bit_length()] for out in _bits(_P, 32)])

# The middle 4 bits of a 6-bit group: an S-box column, and E inverted.
# _S[i][v] is S-box i of the 6-bit input v.
_MID = [(v >> 1) & 0xF for v in range(64)]
_S = [[box[((v >> 4) & 0x2 | v & 0x1) * 16 + _MID[v]] for v in range(64)]
      for box in _SBOXES]

# Round tables: entry v of _SP01 is E(P(S_0(v >> 6) || S_1(v & 0x3F))),
# and so on for the other pairs. Each has at most 256 distinct entries,
# and equal entries share one int.
_SP01, _SP23, _SP45, _SP67 = (
    [*map(_EP[i >> 1].__getitem__, _pair([s << 4 for s in _S[i]], _S[i + 1]))]
    for i in range(0, 8, 2))

def key_schedule(key: int) -> tuple[int, ...]:
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


# Prologue: per block byte, IP followed by E of both halves, as
# E(L0) << 48 | E(R0). q is where IP moves a block bit, counted from the top.
_IPE = _bytes([_E_BITS[q] << 48 if q < 32 else _E_BITS[q - 32]
               for q in (64 - out.bit_length() for out in _bits(_IP, 64))])

# Epilogue: per byte of R16 || L16, FP; an expanded half gives that byte
# through _SQUEEZE, the middle 4 bits of each 6-bit group of 12 bits.
_FPB = _bytes(_bits(_FP, 64))
_SQUEEZE = _pair([m << 4 for m in _MID], _MID)


def _cipher(block: int, subkeys: tuple[int, ...]) -> int:
    ipe, fp, sq = _IPE, _FPB, _SQUEEZE
    x = (ipe[0][block >> 56] | ipe[1][(block >> 48) & 0xFF]
         | ipe[2][(block >> 40) & 0xFF] | ipe[3][(block >> 32) & 0xFF]
         | ipe[4][(block >> 24) & 0xFF] | ipe[5][(block >> 16) & 0xFF]
         | ipe[6][(block >> 8) & 0xFF] | ipe[7][block & 0xFF])
    left, right = x >> 48, x & 0xFFFFFFFFFFFF
    sp01, sp23, sp45, sp67 = _SP01, _SP23, _SP45, _SP67
    for k in subkeys:
        x = right ^ k
        left, right = right, left ^ (sp01[x >> 36] | sp23[(x >> 24) & 0xFFF]
                                     | sp45[(x >> 12) & 0xFFF] | sp67[x & 0xFFF])
    return (fp[0][sq[right >> 36]] | fp[1][sq[(right >> 24) & 0xFFF]]
            | fp[2][sq[(right >> 12) & 0xFFF]] | fp[3][sq[right & 0xFFF]]
            | fp[4][sq[left >> 36]] | fp[5][sq[(left >> 24) & 0xFFF]]
            | fp[6][sq[(left >> 12) & 0xFFF]] | fp[7][sq[left & 0xFFF]])


def encrypt_block(plaintext: int, sched: tuple[int, ...]) -> int:
    """One ECB block: IP, 16 forward rounds, half swap, inverse IP."""
    return _cipher(plaintext, sched)


def decrypt_block(ciphertext: int, sched: tuple[int, ...]) -> int:
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
