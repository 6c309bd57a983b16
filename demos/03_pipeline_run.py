"""Running the encrypted worked example on the cycle-accurate pipeline:
decrypted fetches, the encrypted store, statistics and dumps.

Run:  python demos/03_pipeline_run.py
"""

from pathlib import Path

from encmips import asm, des, machine, pipeline

PROGRAMS = Path(__file__).parent / "programs"

###############################################################################
# Build the encrypted image and load both memories.

source = (PROGRAMS / "sum_array.asm").read_text()
image = asm.encrypt_image(asm.build_image(source), key=0x4B4952415450414C)

imem = machine.Memory()
machine.load_image(imem, image)
dmem = machine.Memory()
data = asm.read_hex((PROGRAMS / "sum_array_data.hex").read_text())
machine.load_image(dmem, data)

###############################################################################
# Run with a trace hook. Every line is one clock cycle; watch the crypt
# transition squash the one wrongly-fetched slot (FLUSH) and every fetch
# after it go through the decryptor (DEC_FETCH).

state = pipeline.CpuState(imem, dmem)
trace = []
state, stats = pipeline.run(state, trace=trace.append)

print("cycles 6-12 around the crypt transition:")
for line in trace[5:12]:
    print(" ", line)

###############################################################################
# Final statistics. The identity cycles == retired + stalls + flushes + 4
# holds exactly: 4 cycles of fill/drain, one cycle per retired instruction,
# one per stall bubble, one per squashed slot.

print(f"\ncycles = {stats.cycles}, retired = {stats.retired}, "
      f"stalls = {stats.stalls}, flushes = {stats.flushes}, "
      f"cpi = {stats.cpi():.4f}")
print(f"decrypted fetches = {stats.crypt_fetches}, "
      f"encrypted stores = {stats.encrypted_stores}")
assert stats.cycles == stats.retired + stats.stalls + stats.flushes + 4

###############################################################################
# Architectural results: the register sum and the ciphertext block the
# final store left at byte address 56.

print()
for r in (2, 4, 7):
    print(f"r{r} = 0x{state.regs.read(r):08x}")
stored = state.dmem.read_block(56)
print(f"38: {stored:016x}")

sched = des.key_schedule(0x4B4952415450414C)
print(f"stored block decrypts to {des.decrypt_block(stored, sched):016x} "
      f"(sum = {state.regs.read(4):08x})")
