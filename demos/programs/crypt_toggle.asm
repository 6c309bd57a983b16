# Turn crypt mode on and off again, with every pipeline event on the way:
# a load-use stall, a branch-after-load double stall, a taken-branch flush,
# a jump flush, an encrypted store, and a flush at each crypt-mode switch.
# Assembled with --key, the blocks from after `crypt 1` up to and including
# `crypt 0` are encrypted; the last block stays plaintext. Run it with
# --dmem sum_array_data.hex, which holds the key; it ends with r7 = 7.

addi $r1, $r0, 104      # base address of the key in data memory
lklw 0($r1)
lkuw 8($r1)
nop
nop
crypt 1                 # fetches decrypt from here on
lw $r2, 0($r0)
add $r3, $r2, $r2       # load-use stall
lw $r4, 8($r0)
bne $r4, $r0, Skip      # two stalls behind the load, then a taken branch
addi $r5, $r0, 1
Skip: sw $r3, 16($r0)   # encrypted store
j Off
addi $r6, $r0, 1
Off: crypt 0            # fetched decrypted; plaintext fetch after it
addi $r7, $r0, 7
