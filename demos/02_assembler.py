"""From assembly text to an encrypted 64-bit-block image: parse, assemble,
pack, encrypt the blocks fetched in crypt mode, write hex.

Run:  python demos/02_assembler.py
"""

from pathlib import Path

from encmips import asm, des, isa

PROGRAMS = Path(__file__).parent / "programs"

###############################################################################
# Two-pass assembly. Each instruction occupies its own 64-bit block, so
# words sit 8 bytes apart and the PC strides by 8; jump targets and branch
# displacements are counted in those 8-byte slots.

source = (PROGRAMS / "sum_array.asm").read_text()
words, symbols = asm.assemble(asm.parse(source))
print(f"{len(words)} words, labels: "
      + ", ".join(f"{name} at byte {addr}" for name, addr in sorted(symbols.items(),
                                                                    key=lambda kv: kv[1])))

print("\naddr  word      instruction")
for i, word in enumerate(words):
    print(f"{8 * i:>4}  {word:08x}  {isa.disassemble(isa.decode(word))}")

###############################################################################
# Packing zero-pads each word into the low half of its block. Encryption
# then replaces every block that fetch reads in crypt mode with its DES
# ciphertext: here every block strictly after `crypt 1`, as no `crypt 0`
# turns the mode off again. The boundary is recorded in the image.

image = asm.build_image(source)
encrypted = asm.encrypt_image(image, key=0x4B4952415450414C)
print(f"\ncrypt boundary: block index {encrypted.crypt_boundary}")

print("\nidx  plaintext block    encrypted block")
for i, ((_, plain), (_, cipher)) in enumerate(zip(image.entries, encrypted.entries)):
    marker = "  <- boundary" if i == encrypted.crypt_boundary else ""
    print(f"{i:>3}  {plain:016x}  {cipher:016x}{marker}")

###############################################################################
# The hex image format is one block per line with @address directives for
# gaps; it is what `encmips asm` writes and `encmips run` loads. Every
# encrypted block decrypts back to its packed word, so the image is
# loss-free for anyone holding the key.

sched = des.key_schedule(0x4B4952415450414C)
assert [des.decrypt_block(b, sched) for b in encrypted.blocks[7:]] == image.blocks[7:]
print("\nfirst lines of the hex image:")
print("\n".join(asm.write_hex(encrypted).splitlines()[:9]))
