"""Hazard timing one case at a time: forwarding, the load-use stall,
branch and jump flushes, and what the crypt transition costs.

Run:  python demos/04_hazards_and_timing.py
"""

from encmips import asm, des, machine, pipeline


def run(source, dmem=None):
    imem = machine.Memory()
    machine.load_image(imem, asm.build_image(source))
    state = pipeline.CpuState(imem, dmem if dmem is not None else machine.Memory())
    return pipeline.run(state)[1]


def show(label, stats):
    print(f"{label:<34} cycles={stats.cycles:>3} retired={stats.retired:>3} "
          f"stalls={stats.stalls} flushes={stats.flushes}")
    assert stats.cycles == stats.retired + stats.stalls + stats.flushes + 4


###############################################################################
# Forwarding hides every register-to-register dependency: a chain of
# dependent adds runs at one instruction per cycle.

show("dependent add chain", run(
    "addi $r2, $r0, 3\n"
    "add $r5, $r2, $r2\n"
    "add $r5, $r5, $r5\n"
    "add $r5, $r5, $r5\n"))

###############################################################################
# A value coming from memory is one cycle too late for forwarding alone:
# consuming a load's result in the very next slot costs one stall.

data = machine.Memory()
data.write_block(0, des.pad_word(5))
show("load-use pair", run(
    "lw $r6, 0($r0)\nadd $r4, $r4, $r6\naddi $r9, $r0, 0\n", data))
data = machine.Memory()
data.write_block(0, des.pad_word(5))
show("load + independent instruction", run(
    "lw $r6, 0($r0)\nadd $r4, $r3, $r3\naddi $r9, $r0, 0\n", data))

###############################################################################
# Control flow: branches resolve in ID, so a taken branch or jump squashes
# exactly the one slot fetched behind it. A fall-through branch is free.

show("taken branch", run(
    "beq $r0, $r0, Over\naddi $r1, $r0, 1\nOver: addi $r2, $r0, 2\n"
    "addi $r9, $r0, 0\n"))
show("not-taken branch", run(
    "addi $r1, $r0, 5\nnop\nnop\nbne $r1, $r1, Over\naddi $r2, $r0, 2\n"
    "Over: addi $r9, $r0, 0\n"))
show("jump", run(
    "j Over\naddi $r1, $r0, 1\nOver: addi $r2, $r0, 2\naddi $r9, $r0, 0\n"))

###############################################################################
# The crypt transition costs one flush too: the slot fetched while crypt
# was in decode came through the wrong path and is refetched through the
# decryptor. Compare an encrypted run against the reference interpreter on
# the plaintext image, which has no decryptor and no pipeline: the same
# instructions retire into the same state, and with no load feeding the
# slot behind it and no branch, the one flush is the crypt switch's.

source = (
    "addi $r1, $r0, 104\n"
    "lklw 0($r1)\n"
    "lkuw 8($r1)\n"
    "nop\nnop\n"
    "crypt 1\n"
    "addi $r4, $r0, 42\n"
    "sw $r4, 56($r0)\n")


def key_dmem():
    mem = machine.Memory()
    mem.write_block(104, des.pad_word(0x5450414C))
    mem.write_block(112, des.pad_word(0x4B495241))
    return mem


image = asm.build_image(source)
encrypted = asm.encrypt_image(image, 0x4B4952415450414C)

imem = machine.Memory()
machine.load_image(imem, encrypted)
s_enc = pipeline.CpuState(imem, key_dmem(), record_retired=True)
pipeline.run(s_enc)
show("crypt program, encrypted image", s_enc.stats)

imem = machine.Memory()
machine.load_image(imem, image)
ref = pipeline.reference_interpret(imem, key_dmem(), record_retired=True)
print(f"{'plaintext image, interpreter':<34} retired={ref.executed:>3} "
      f"taken={sum(ref.taken)}")

assert s_enc.retired_log == ref.retired_log
assert pipeline.architectural_state(s_enc) == pipeline.architectural_state(ref)
assert s_enc.stats.stalls == 0
assert s_enc.stats.flushes == sum(ref.taken) + 1
print("\nencryption changed timing by exactly the one crypt flush")
