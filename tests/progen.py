"""Random bounded assembly programs for differential testing, and the one
check that runs a program in both the pipeline and the reference
interpreter.

Every generated program halts: loops are counted down in a reserved
register the body never touches, and all other branches go forward.
Memory operands stay 8-aligned and inside a small data window.

With `extras`, the generators also reach the corners the golden-result
corpus pins: unaligned accesses, mid-program key reloads of the same and
of a different value, a `crypt 0` with plaintext fetch after it, key
loads too close to `crypt`, and unknown instruction words planted in the
image. Such programs may fault; they still never run unbounded.

gen_long_loop_program builds the one kind of program whose loop runs long
enough for the cycle loop to compile and replay its segments.
"""

import random
from collections import deque
from typing import Iterable, List, Optional, Tuple

from encmips import asm, des, isa, machine, pipeline

DATA_REGS = list(range(1, 10))
BASE_REG = 10   # holds a small 8-aligned base address
LOOP_REG = 11   # loop counters only
KEY_REG = 12    # key base pointer in crypt programs
# a long loop's own registers: the thresholds of its flipping branch and
# of its planted pointer, the pointer, the word a stalled store writes,
# and the outer loop's count
FLIP_REG, LIMIT_REG, POINTER_REG, STALL_REG, OUTER_REG = 13, 14, 15, 16, 17

ARITH = ("add", "sub", "and", "or", "slt")

KEY = 0x4B4952415450414C
KEY_ADDR = 104
ALT_KEY = 0x0123456789ABCDEF    # a second key, for reloads of a different value
ALT_KEY_ADDR = 128
LONG_KEY_ADDR = 144     # KEY again, where no generated store reaches

# words no table row decodes: opcode 0x3f, and an R-type funct 0x3f
UNKNOWN_WORDS = (0xFC000000, 0x0000003F, 0xFC0F1234)


class _Gen:
    def __init__(self, rng: random.Random, extras: bool = False):
        self.rng = rng
        self.lines: List[str] = []
        self.labels = 0
        self.extras = extras

    def fresh_label(self, stem: str) -> str:
        self.labels += 1
        return f"{stem}{self.labels}"

    def dest_reg(self) -> int:
        # mostly scratch registers, occasionally r0 to exercise its pinning
        return 0 if self.rng.random() < 0.05 else self.rng.choice(DATA_REGS)

    def src_reg(self) -> int:
        return self.rng.choice([0] + DATA_REGS)

    def mem_operand(self) -> str:
        if self.rng.random() < 0.5:
            return f"{8 * self.rng.randrange(16)}($r0)"
        return f"{8 * self.rng.randrange(8)}($r{BASE_REG})"

    def plain_instr(self) -> str:
        if self.extras:
            r = self.rng.random()
            if r < 0.015:   # an unaligned access, which faults in MEM
                mn = self.rng.choice(("lw", "sw", "lklw"))
                operand = f"{8 * self.rng.randrange(8) + self.rng.randrange(1, 8)}($r0)"
                return f"lklw {operand}" if mn == "lklw" else f"{mn} $r1, {operand}"
            if r < 0.035:   # reload a key half with KEY's or ALT_KEY's value
                mn = self.rng.choice(("lklw", "lkuw"))
                base = self.rng.choice((KEY_ADDR, ALT_KEY_ADDR))
                return f"{mn} {base + (8 if mn == 'lkuw' else 0)}($r0)"
        r = self.rng.random()
        if r < 0.45:
            mn = self.rng.choice(ARITH)
            return f"{mn} $r{self.dest_reg()}, $r{self.src_reg()}, $r{self.src_reg()}"
        if r < 0.55:
            return f"sll $r{self.dest_reg()}, $r{self.src_reg()}, {self.rng.randrange(8)}"
        if r < 0.70:
            return f"addi $r{self.dest_reg()}, $r{self.src_reg()}, {self.rng.randrange(-64, 64)}"
        if r < 0.85:
            return f"lw $r{self.rng.choice(DATA_REGS)}, {self.mem_operand()}"
        return f"sw $r{self.src_reg()}, {self.mem_operand()}"

    def straight_block(self) -> None:
        n = self.rng.randrange(2, 7)
        for _ in range(n):
            self.lines.append(self.plain_instr())
        if self.rng.random() < 0.6:
            # forward branch (or jump) over a short run of instructions
            label = self.fresh_label("fwd")
            if self.rng.random() < 0.2:
                self.lines.append(f"j {label}")
            else:
                mn = self.rng.choice(("beq", "bne"))
                self.lines.append(f"{mn} $r{self.src_reg()}, $r{self.src_reg()}, {label}")
            for _ in range(self.rng.randrange(1, 4)):
                self.lines.append(self.plain_instr())
            self.lines.append(f"{label}:")

    def loop_block(self) -> None:
        label = self.fresh_label("loop")
        count = self.rng.randrange(2, 5)
        self.lines.append(f"addi $r{LOOP_REG}, $r0, {count}")
        self.lines.append(f"{label}:")
        for _ in range(self.rng.randrange(2, 6)):
            self.lines.append(self.plain_instr())
        self.lines.append(f"addi $r{LOOP_REG}, $r{LOOP_REG}, -1")
        self.lines.append(f"bne $r{LOOP_REG}, $r0, {label}")


def _body(g: _Gen, allow_loops: bool = True) -> None:
    rng = g.rng
    for reg in DATA_REGS[:4]:
        g.lines.append(f"addi $r{reg}, $r0, {rng.randrange(-100, 100)}")
    g.lines.append(f"addi $r{BASE_REG}, $r0, {8 * rng.randrange(8)}")
    for _ in range(rng.randrange(1, 4)):
        if allow_loops and rng.random() < 0.5:
            g.loop_block()
        else:
            g.straight_block()
    # keep the last hazard out of the drain shadow
    g.lines.append("addi $r1, $r1, 1")


def gen_program(rng: random.Random, allow_loops: bool = True,
                extras: bool = False) -> str:
    """Arith + memory + branch program; with extras it may reload key
    halves and make unaligned accesses."""
    g = _Gen(rng, extras)
    _body(g, allow_loops)
    return "\n".join(g.lines) + "\n"


def gen_crypt_program(rng: random.Random, extras: bool = False) -> str:
    """A random body behind the key-load / crypt prologue. With extras the
    prologue may leave fewer than the one spacer `crypt` needs, and a
    `crypt 0` may end the crypt region before a second, plaintext body."""
    spacers = rng.choice((0, 1, 2, 2, 2, 2)) if extras else 2
    g = _Gen(rng, extras)
    g.lines += [f"addi $r{KEY_REG}, $r0, {KEY_ADDR}",
                f"lklw 0($r{KEY_REG})",
                f"lkuw 8($r{KEY_REG})"] + ["nop"] * spacers + ["crypt 1"]
    _body(g)
    if extras and rng.random() < 0.4:
        g.lines.append("crypt 0")
        _body(g)
    return "\n".join(g.lines) + "\n"


def gen_long_loop_program(rng: random.Random, iterations: int, crypt: bool = False,
                          fault: Optional[str] = None) -> str:
    """A counted loop of `iterations` inside an outer loop that runs once or
    twice, behind the key-load / crypt prologue when crypt. Its body is plain
    instructions, and at times a jump over one, a `crypt` that keeps the
    mode, or a branch over one that turns taken once the counter falls
    below a threshold. After the hot loop the outer loop reloads a key
    half with KEY's own value and, when crypt, runs a `crypt 0` /
    `crypt 1` pair, so the loop runs again after both drop the fetch cache.

    fault plants a pointer that turns unaligned once the counter, which
    counts down to 0, falls below a threshold from 60 up to iterations // 2:
    "load" reads through it, "store" writes through it, and "stall" writes
    through it the word a load directly before it read, so the store waits
    a cycle behind a stall.
    A program without a fault halts; it reads LONG_KEY_ADDR, which
    long_loop_entries fills.
    """
    g = _Gen(rng)
    if crypt:
        g.lines += [f"addi $r{KEY_REG}, $r0, {KEY_ADDR}", f"lklw 0($r{KEY_REG})",
                    f"lkuw 8($r{KEY_REG})", "nop", "nop", "crypt 1"]
    for reg in DATA_REGS[:4]:
        g.lines.append(f"addi $r{reg}, $r0, {rng.randrange(-100, 100)}")
    g.lines += [f"addi $r{BASE_REG}, $r0, {8 * rng.randrange(8)}",
                f"addi $r{FLIP_REG}, $r0, {rng.randrange(1, iterations)}",
                f"addi $r{LIMIT_REG}, $r0, {rng.randrange(60, iterations // 2)}",
                f"addi $r{OUTER_REG}, $r0, {rng.randrange(1, 3)}",
                "outer:", f"addi $r{LOOP_REG}, $r0, {iterations}", "loop:"]
    for _ in range(rng.randrange(2, 6)):
        g.lines.append(g.plain_instr())
        r = rng.random()
        if r < 0.15:
            label = g.fresh_label("over")
            g.lines += [f"j {label}", g.plain_instr(), f"{label}:"]
        elif r < 0.25:
            g.lines.append("crypt 1" if crypt else "crypt 0")
        elif r < 0.4:
            label = g.fresh_label("flip")
            g.lines += [f"slt $r{POINTER_REG}, $r{LOOP_REG}, $r{FLIP_REG}",
                        f"bne $r{POINTER_REG}, $r0, {label}", g.plain_instr(), f"{label}:"]
    if fault is not None:
        offset = 8 * rng.randrange(8)
        g.lines += [f"slt $r{POINTER_REG}, $r{LOOP_REG}, $r{LIMIT_REG}",
                    f"sll $r{POINTER_REG}, $r{POINTER_REG}, {rng.choice((0, 1, 2))}",
                    f"add $r{POINTER_REG}, $r{POINTER_REG}, $r{BASE_REG}"]
        if fault == "load":
            g.lines.append(f"lw $r{rng.choice(DATA_REGS)}, {offset}($r{POINTER_REG})")
        elif fault == "store":
            g.lines.append(f"sw $r{g.src_reg()}, {offset}($r{POINTER_REG})")
        else:
            g.lines += [f"lw $r{STALL_REG}, {g.mem_operand()}",
                        f"sw $r{STALL_REG}, {offset}($r{POINTER_REG})"]
    g.lines += [f"addi $r{LOOP_REG}, $r{LOOP_REG}, -1", f"bne $r{LOOP_REG}, $r0, loop",
                rng.choice((f"lklw {LONG_KEY_ADDR}($r0)", f"lkuw {LONG_KEY_ADDR + 8}($r0)"))]
    if crypt:
        g.lines += ["crypt 0", g.plain_instr(), "crypt 1"]
    g.lines += [f"addi $r{OUTER_REG}, $r{OUTER_REG}, -1", f"bne $r{OUTER_REG}, $r0, outer",
                "addi $r1, $r1, 1"]
    return "\n".join(g.lines) + "\n"


def long_loop_entries(rng: random.Random) -> List[Tuple[int, int]]:
    """gen_dmem_entries with the key, and KEY again at LONG_KEY_ADDR."""
    return gen_dmem_entries(rng, with_key=True) + [
        (LONG_KEY_ADDR, des.pad_word(KEY & 0xFFFFFFFF)),
        (LONG_KEY_ADDR + 8, des.pad_word(KEY >> 32))]


def segments_built(monkeypatch) -> Tuple[list, list]:
    """Every segment pipeline._segment compiles from now on, and the
    (segment, i, k) of each of their replays in the order they ran: i whole
    passes ran, and then k cycles, k being the cycle at whose top a guard
    stopped it, or its n after the last pass. No configuration of a
    compiled segment holds a fill bubble."""
    built, replays, compile_segment = [], [], pipeline._segment

    def wrapper(*args):
        seg = compile_segment(*args)
        assert not any(pipeline.FILL_BUBBLE in config for config in seg.configs)
        run = seg.run

        def counted(*run_args):
            result = run(*run_args)
            replays.append((seg, *result[:2]))
            return result

        seg.run = counted
        built.append(seg)
        return seg

    monkeypatch.setattr(pipeline, "_segment", wrapper)
    return built, replays


def full_state(state: pipeline.CpuState) -> tuple:
    """Everything a stop leaves in a CpuState, as one comparable value: each
    latch as (kind, pc, word), which fix the rest of a slot (an unknown
    slot's instr is an exception, equal only to itself), the values beside
    the latches, pc, crypt mode, halted, the six stats, the retired log,
    the architectural state and the Fault as (pc, cycle, cause class,
    text) or None."""
    st, fault = state.stats, state.fault
    return (tuple((slot.kind, slot.pc, slot.word)
                  for slot in (state.ifid, state.idex, state.exmem, state.memwb)),
            (state.idex_mode, state.exmem_mode, state.exmem_alu, state.memwb_alu),
            state.pc, state.crypt_mode, state.halted,
            (st.cycles, st.retired, st.stalls, st.flushes, st.crypt_fetches,
             st.encrypted_stores),
            None if state.retired_log is None else tuple(state.retired_log),
            pipeline.architectural_state(state),
            None if fault is None else (fault.pc, fault.cycle, type(fault.cause).__name__,
                                        str(fault.cause)))


def _crypt_positions(image: asm.ProgramImage) -> List[int]:
    return [i for i, (_, block) in enumerate(image.entries)
            if (spec := isa.spec_of(des.extract_word(block))) is not None
            and spec.mode is not None]


def plant_unknown_word(rng: random.Random,
                       image: asm.ProgramImage) -> asm.ProgramImage:
    """The image with, at times, one block other than a `crypt` replaced
    by an unknown word."""
    if rng.random() >= 0.3:
        return image
    flags = _crypt_positions(image)
    entries = list(image.entries)
    i = rng.choice([i for i in range(len(entries)) if i not in flags])
    entries[i] = (entries[i][0], des.pad_word(rng.choice(UNKNOWN_WORDS)))
    return asm.ProgramImage(entries=entries)


def gen_dmem_entries(rng: random.Random, with_key: bool = False,
                     alt_key: bool = False) -> List[Tuple[int, int]]:
    """Initial data blocks at 0..120, plus the key halves when asked and
    the halves of ALT_KEY at ALT_KEY_ADDR with alt_key."""
    entries = [(8 * i, des.pad_word(rng.getrandbits(32))) for i in range(16)]
    keys: List[Tuple[int, int]] = []
    if with_key:
        keys.append((KEY_ADDR, KEY))
    if alt_key:
        keys.append((ALT_KEY_ADDR, ALT_KEY))
    for addr, key in keys:
        entries.append((addr, des.pad_word(key & 0xFFFFFFFF)))
        entries.append((addr + 8, des.pad_word(key >> 32)))
    return entries


def memory(entries: Iterable[Tuple[int, int]]) -> machine.Memory:
    """A memory holding each (address, block) entry; pass `image.entries`
    for a ProgramImage."""
    mem = machine.Memory()
    for addr, block in entries:
        mem.write_block(addr, block)
    return mem


def predict_timing(retired_log) -> Tuple[int, int]:
    """The (stalls, flushes) a halting pipeline run counts, predicted from
    the oracle's retired log as ((pc, word), taken) entries, taken being the
    oracle's InterpState.taken flag (zip(ref.retired_log, ref.taken)).

    It rebuilds the pipeline order, each bubble taking a slot, by the rules
    of docs/isa.md, Pipeline timing:
    - 1 stall before a consumer when the slot directly ahead is a load
      whose dest it reads;
    - for a branch whose sources the slot directly ahead writes, 1 stall,
      or 2 if that slot is a load;
    - otherwise, for a branch, 1 stall when the slot two ahead is a load
      whose dest it reads;
    - 1 flush after each taken branch, each jump and each `crypt` that
      changes the mode.
    """
    bubble = (None, False)
    ahead = deque([bubble, bubble], maxlen=2)     # (dest, is a load) per slot
    stalls = flushes = 0
    mode = False
    for (_, word), taken in retired_log:
        instr = isa.decode(word)
        spec, sources = instr.spec, instr.sources
        (dest2, load2), (dest1, load1) = ahead
        branch = spec.redirect is not None
        if branch and dest1 in sources:
            stall = 2 if load1 else 1
        else:
            stall = int(load1 and dest1 in sources
                        or branch and load2 and dest2 in sources)
        stalls += stall
        ahead.extend([bubble] * stall + [(instr.dest, spec.mem is not None)])
        switch = spec.mode is not None and spec.mode(instr) != mode
        if switch:
            mode = not mode
        if taken or switch:
            flushes += 1
            ahead.append(bubble)
    return stalls, flushes


def assert_timing(stats: pipeline.Stats, ref: pipeline.InterpState,
                  what: str = "") -> None:
    """The pipeline's stalls and flushes are what predict_timing makes of
    the oracle's run."""
    predicted = predict_timing(zip(ref.retired_log, ref.taken))
    assert predicted == (stats.stalls, stats.flushes), \
        f"timing model predicts (stalls, flushes) {predicted}, " \
        f"pipeline counted {(stats.stalls, stats.flushes)}:\n{what}"


def check_against_oracle(source: str, entries: List[Tuple[int, int]],
                         key: Optional[int] = None,
                         decrypt_loads: bool = False,
                         limit: int = 100_000) -> pipeline.CpuState:
    """Run source in the pipeline, its image encrypted under key when one
    is given, and its plaintext image in the reference interpreter, each on
    a fresh data memory of entries and within limit cycles or instructions;
    assert that both end in the same architectural state after the same
    retired log, that the pipeline's cycles obey the accounting identity,
    and that its stalls and flushes are the ones predict_timing makes of
    the oracle's run. Returns the pipeline's state."""
    image = asm.build_image(source)
    loaded = asm.encrypt_image(image, key) if key is not None else image
    state = pipeline.CpuState(memory(loaded.entries), memory(entries),
                              decrypt_loads=decrypt_loads, record_retired=True)
    _, stats = pipeline.run(state, max_cycles=limit)
    ref = pipeline.reference_interpret(memory(image.entries), memory(entries),
                                       decrypt_loads=decrypt_loads, max_steps=limit,
                                       record_retired=True)
    assert (pipeline.architectural_state(state)
            == pipeline.architectural_state(ref)), f"state differs:\n{source}"
    assert state.retired_log == ref.retired_log, f"retired log differs:\n{source}"
    assert stats.cycles == stats.retired + stats.stalls + stats.flushes + 4, \
        f"cycle identity fails:\n{source}"
    assert_timing(stats, ref, what=source)
    return state
