"""Cycle-accurate 5-stage pipeline (IF ID EX MEM WB) over the machine state.

Fetch decrypts instruction blocks while crypt mode is on; stores encrypt
their data block. The key register does both through the key's des.cipher,
which the assembler and the reference interpreter share. WB writes the
register file first in every cycle, so an operand is EXMEM's ALU result
when EXMEM writes its register, else the register file. EX and the ID
branch compare read their operands so, and a store reads its data from the
register file in MEM. A load's consumer directly behind it stalls one
cycle. Branches resolve in ID and squash one fetch slot when taken, as
does a crypt-mode change.

Each fetched instruction is one Slot record that rides the latches from
IFID to MEMWB by reference. IF sets all its fields, among them what each
later stage reads of the instruction and its table row, and nothing
writes them after; the values a stage computes in flight (the crypt mode
MEM uses, the result WB writes) shift in locals beside the latches. An
empty latch holds one of four shared bubbles: Slots with no instruction,
whose kind says why they exist (fill, stall, flush, end of program). A
stall or flush is charged to the statistics when its bubble drains past
WB, and the run halts when the end-of-program bubble reaches the WB
latch. Under that accounting
    cycles == retired + stalls + flushes + 4
holds exactly for every halting run, even when a squashed slot falls
inside the final drain.

One loop, _cycles(), clocks the pipeline for run() and step(), with the
latches, the values beside them, pc, crypt mode and the statistics in
locals that it writes back in one place, where it stops; a trace line is
made from those locals. Inside one call, IF fetches each pc once per crypt
mode and key: it keeps the Slot it made of the pc in a local dict, which a
crypt-mode flip and a key-half commit drop, and hands out that slot on
every later fetch, so a wrapper of fetch_word sees each miss, not each fetch.

A single-cycle reference interpreter with identical architectural
semantics serves as the correctness oracle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from . import des, isa, machine

class Fault(Exception):
    """An execution fault; halts the run with a diagnostic."""

    def __init__(self, cause: Exception, pc: int, cycle: int):
        self.cause = cause
        self.pc = pc
        self.cycle = cycle
        super().__init__(f"fault at pc 0x{pc:x} (cycle {cycle}): {cause}")


class CycleLimitExceeded(Exception):
    """The run hit its limit without draining; distinct from a clean halt.
    The pipeline counts the limit in cycles, the oracle in instructions."""

    def __init__(self, state, limit: int, unit: str = "cycles"):
        self.state = state
        self.limit = limit
        super().__init__(f"no halt within {limit} {unit}")


class Slot:
    """What IF made of one pc, set when the slot is built and never written
    after. It rides the latches by reference from IFID to MEMWB until WB
    retires it; the values a stage computes in flight are kept beside the
    latches (see _cycles), so IF may hand out one cached slot for every
    fetch of its pc, and one slot may sit in two latches at once.

    pc, word and instr say what IF fetched. The rest is what the later
    stages read, copied at IF: rs, rt, sources and dest (the register WB
    writes, None for none or $r0) from the instruction, alu, mem, redirect,
    mode and load_key from its row, and next_pc, the pc fetched after it.
    kind is None for an instruction. A bubble has no instruction and a kind
    that names it (fill, stall, flush, end); a word no row decodes has kind
    "unknown" and, as instr, the isa.UnknownInstruction that ID raises as a
    Fault in its own cycle. Their stage fields are inert: None, () and 0.
    """

    __slots__ = ("pc", "word", "instr", "kind", "rs", "rt", "sources", "dest",
                 "alu", "mem", "redirect", "mode", "load_key", "next_pc")

    def __init__(self, pc, word, instr, kind=None):
        # at most three names an assignment, so none builds a tuple first
        self.pc, self.word, self.instr = pc, word, instr
        self.kind = kind
        if kind is None:
            self.rs, self.rt = instr.rs, instr.rt
            self.sources, self.dest = instr.sources, instr.dest
            self.alu, self.mem, self.redirect, self.mode, self.load_key = instr.spec.stage
            self.next_pc = (pc + 8) & 0xFFFFFFFF    # wraps like every pc
        else:
            self.rs = self.rt = self.next_pc = 0
            self.sources = ()
            self.dest = self.alu = self.mem = self.redirect = self.mode = self.load_key = None


# The pipeline uses only these four bubbles; nothing forwards from them.
FILL_BUBBLE = Slot(None, None, None, "fill")
STALL_BUBBLE = Slot(None, None, None, "stall")
FLUSH_BUBBLE = Slot(None, None, None, "flush")
END_BUBBLE = Slot(None, None, None, "end")


@dataclass
class Stats:
    cycles: int = 0
    retired: int = 0
    stalls: int = 0
    flushes: int = 0
    crypt_fetches: int = 0
    encrypted_stores: int = 0

    def cpi(self) -> Optional[float]:
        return self.cycles / self.retired if self.retired else None


class CpuState:
    """All architectural and microarchitectural state of one core."""

    def __init__(self, imem: Optional[machine.Memory] = None,
                 dmem: Optional[machine.Memory] = None, *,
                 decrypt_loads: bool = False,
                 crypt_fetch: bool = True,
                 record_retired: bool = False):
        self.imem = imem if imem is not None else machine.Memory()
        self.dmem = dmem if dmem is not None else machine.Memory()
        self.regs = machine.RegisterFile()
        self.keyreg = machine.KeyRegister()
        self.pc = 0
        self.crypt_mode = False
        self.decrypt_loads = decrypt_loads
        # crypt_fetch=False runs a plaintext image with the fetch-side
        # decryptor disabled (store encryption still applies); used to
        # check that instruction encryption is timing-transparent.
        self.crypt_fetch = crypt_fetch
        self.ifid: Slot = FILL_BUBBLE
        self.idex: Slot = FILL_BUBBLE
        self.exmem: Slot = FILL_BUBBLE
        self.memwb: Slot = FILL_BUBBLE
        # beside the latches: the crypt mode an instruction takes from ID to
        # MEM, and EX's result (MEM's word, for a read) on its way to WB
        self.idex_mode = self.exmem_mode = False
        self.exmem_alu = self.memwb_alu = 0
        self.stats = Stats()
        self.retired_log: Optional[List[Tuple[int, int]]] = \
            [] if record_retired else None

    @property
    def halted(self) -> bool:
        """The end-of-program bubble has reached the WB latch."""
        return self.memwb is END_BUBBLE


def fetch_word(imem: machine.Memory, pc: int, decrypt: bool,
               keyreg: machine.KeyRegister) -> Optional[int]:
    """IF-stage read: the 32-bit payload at pc, decrypted by the key register
    when crypt mode routes the fetch through the decryption core. None past
    imem's extent."""
    if pc >= imem.extent:
        return None
    if pc % 8:
        raise machine.UnalignedAccess(pc)
    block = imem.blocks.get(pc, 0)
    if decrypt:
        block = keyreg.decrypt(block, "decrypting fetch before key loaded")
    return block & isa.WORD_MASK


def mem_stage(instr: isa.Instruction, addr: int, store_data: int,
              crypt_mode: bool, keyreg: machine.KeyRegister,
              dmem: machine.Memory, decrypt_loads: bool = False) -> Optional[int]:
    """MEM-stage access. A read returns the low 32 bits of the block, which
    the caller passes to the row's load_key, else to its dest; a write
    returns None and stores the zero-padded word, DES-encrypted in crypt
    mode. A read into a register field, $r0 included, goes through the
    decryptor when decrypt_loads and crypt mode are on; a key load never does.
    """
    spec = instr.spec
    if spec.mem == isa.WRITE:
        block = des.pad_word(store_data)
        if crypt_mode:
            block = keyreg.encrypt(block, "encrypted store before key loaded")
        dmem.write_block(addr, block)
        return None
    block = dmem.read_block(addr)
    if decrypt_loads and crypt_mode and spec.dest is not None:
        block = keyreg.decrypt(block, "decrypting load before key loaded")
    return des.extract_word(block)


_decode = functools.lru_cache(maxsize=4096)(isa.decode)


def _cycles(state: CpuState, limit: int,
            trace: Optional[Callable[[str], None]] = None) -> None:
    """Clock the pipeline until it halts or its cycle count reaches limit.

    The latches, the values in flight beside them, pc, crypt mode and the
    statistics are locals that only the finally writes back, so a Fault
    (carrying the cycle count), the limit or a raising trace sink leaves the
    state the last cycle left. A traced cycle takes one snapshot of those
    locals after its work, and the previous cycle's snapshot is its "before".

    Slots are never written after IF, so the in-flight values shift beside
    the latches: idex_mode and exmem_mode carry the crypt mode an
    instruction takes from ID to MEM, and exmem_alu and memwb_alu carry EX's
    result, or for a read the word MEM read in place of the address, to WB.
    Each stage writes only locals of its own, which the shift at the cycle's
    end moves into place, so every stage sees its inputs as the last cycle
    left them. EX and the ID branch compare read exmem_alu only for a
    register EXMEM writes; the load-use and branch stalls keep a read's
    consumers out of both while it is in MEM.

    Each stage tests one field of its latch: WB instr, MEM mem, EX alu, and
    ID redirect, then sources and mode (and the stalls IDEX's and EXMEM's
    mem); ID faults on an unknown word, the one slot with kind and instr.

    IF reads a dict local to this call first, which maps a pc to the Slot
    IF made of it; a hit is that slot itself, and pc moves on to its
    next_pc. A miss goes through fetch_word and decode, and its slot is
    kept unless the fetch raised, decoded to no row or was past imem's
    extent. ID's crypt-mode flip sets decrypting
    again and drops the dict before IF runs in the same cycle, and a
    key-half commit drops it at the cycle's end, after IF used the old key;
    stores write dmem, never imem. fetch_word and mem_stage go through the
    module, so wrappers see each call: each mem_stage, and each fetch that
    misses.
    """
    ifid, idex, exmem, memwb = state.ifid, state.idex, state.exmem, state.memwb
    idex_mode, exmem_mode = state.idex_mode, state.exmem_mode
    exmem_alu, memwb_alu = state.exmem_alu, state.memwb_alu
    pc, crypt_mode, st = state.pc, state.crypt_mode, state.stats
    cycles, retired, stalls, flushes = st.cycles, st.retired, st.stalls, st.flushes
    crypt_fetches, encrypted_stores = st.crypt_fetches, st.encrypted_stores
    regs, keyreg, imem, dmem = state.regs.values, state.keyreg, state.imem, state.dmem
    crypt_fetch, decrypt_loads, retired_log = \
        state.crypt_fetch, state.decrypt_loads, state.retired_log
    stall_bubble, flush_bubble, end_bubble = STALL_BUBBLE, FLUSH_BUBBLE, END_BUBBLE
    decrypting = crypt_mode and crypt_fetch     # does IF fetch through the decryptor?
    fetched = {}    # pc -> the Slot IF made of it: IF's cache, see above
    if trace is not None:
        after = (pc, ifid, idex, exmem, memwb, crypt_mode, crypt_fetches, encrypted_stores)
    try:
        # CPython 3.11 specializes code only after 8 calls or unconditional
        # jumps back: a `while cond` loop would leave the first 8 runs slow
        while True:
            if memwb is end_bubble or cycles >= limit:
                break
            cycles += 1

            # WB first, so later stages read its result in the register file;
            # dest is never $r0 and every result is 32 bits, so write directly.
            if memwb.instr is not None:
                if memwb.dest is not None:
                    regs[memwb.dest] = memwb_alu
                retired += 1
                if retired_log is not None:
                    retired_log.append((memwb.pc, memwb.word))
            elif memwb is stall_bubble:
                stalls += 1
            elif memwb is flush_bubble:
                flushes += 1

            # MEM: a key half commits at the cycle's end, after IF used the old
            load_key, mem_out = None, exmem_alu
            if exmem.mem is not None:
                # a store's data: every older instruction has written back
                try:
                    out = mem_stage(exmem.instr, exmem_alu, regs[exmem.rt], exmem_mode,
                                    keyreg, dmem, decrypt_loads)
                except machine.MachineError as exc:
                    raise Fault(exc, exmem.pc, cycles) from exc
                if exmem.load_key is not None:
                    load_key, key_word = exmem.load_key, out
                elif out is not None:   # a read: its word replaces the address
                    mem_out = out
                elif exmem_mode:
                    encrypted_stores += 1

            # EX: an operand is EXMEM's result when EXMEM writes its register,
            # else the register file; the row ignores an operand it does not read.
            ex_out = 0
            alu = idex.alu
            if alu is not None:
                a = exmem_alu if exmem.dest == idex.rs else regs[idex.rs]
                b = exmem_alu if exmem.dest == idex.rt else regs[idex.rt]
                ex_out = alu(a, b, idex.instr)

            # ID: fault on an unknown word, hazards, branch resolution and the
            # crypt-mode switch. Only the branch compare reads registers here.
            stall, redirect, next_idex = False, None, ifid
            if ifid.kind is not None and ifid.instr is not None:   # an unknown word
                raise Fault(ifid.instr, ifid.pc, cycles) from ifid.instr
            resolve = ifid.redirect
            if resolve is None:
                # load-use: a load (a memory row with a dest) in EX whose dest this reads
                if idex.dest in ifid.sources and idex.mem is not None:
                    stall, next_idex = True, stall_bubble
                elif ifid.mode is not None and ifid.mode(ifid.instr) != crypt_mode:
                    crypt_mode = not crypt_mode
                    decrypting = crypt_mode and crypt_fetch
                    fetched.clear()     # before IF reads it, this cycle
                    if crypt_fetch:     # refetch what IF reads on the old path
                        redirect = pc
            else:
                # a branch waits for any producer in EX (the compare forwards from
                # EXMEM only) and for a load in MEM (its data is in the registers
                # a cycle on); the compare reads its operands as EX does
                sources = ifid.sources
                if idex.dest in sources or exmem.dest in sources and exmem.mem is not None:
                    stall, next_idex = True, stall_bubble
                else:
                    a = exmem_alu if exmem.dest == ifid.rs else regs[ifid.rs]
                    b = exmem_alu if exmem.dest == ifid.rt else regs[ifid.rt]
                    redirect = resolve(ifid.pc, a, b, ifid.instr)

            # IF, unless stalled: the cached slot of pc, else a new one; a word
            # that decodes to no row rides to ID, which faults.
            if redirect is not None:
                ifid, pc = flush_bubble, redirect
            elif not stall:
                slot = fetched.get(pc)
                if slot is not None:
                    ifid, pc = slot, slot.next_pc
                    if decrypting:
                        crypt_fetches += 1
                else:
                    try:
                        word = fetch_word(imem, pc, decrypting, keyreg)
                    except machine.MachineError as exc:
                        raise Fault(exc, pc, cycles) from exc
                    if word is None:
                        slot = end_bubble
                    else:
                        try:
                            slot = fetched[pc] = Slot(pc, word, _decode(word))
                        except isa.UnknownInstruction as exc:
                            slot = Slot(pc, word, exc, "unknown")
                    ifid = slot
                    if slot is not end_bubble:
                        if decrypting:
                            crypt_fetches += 1
                        pc = (pc + 8) & 0xFFFFFFFF      # wraps like every pc

            # each latch shifts with the values beside it (these assignments
            # build no tuple); nothing reads a bubble's mode or result
            memwb, memwb_alu = exmem, mem_out
            exmem, exmem_alu, exmem_mode = idex, ex_out, idex_mode
            idex, idex_mode = next_idex, crypt_mode
            if load_key is not None:
                load_key(keyreg, key_word)
                fetched.clear()     # after IF used the old key, this cycle
            if trace is not None:
                before, after = after, (pc, ifid, idex, exmem, memwb, crypt_mode,
                                        crypt_fetches, encrypted_stores)
                trace(format_trace_line(cycles, before, after))
    finally:
        state.ifid, state.idex, state.exmem, state.memwb = ifid, idex, exmem, memwb
        state.idex_mode, state.exmem_mode = idex_mode, exmem_mode
        state.exmem_alu, state.memwb_alu = exmem_alu, memwb_alu
        state.pc, state.crypt_mode = pc, crypt_mode
        st.cycles, st.retired, st.stalls, st.flushes = cycles, retired, stalls, flushes
        st.crypt_fetches, st.encrypted_stores = crypt_fetches, encrypted_stores


def step(state: CpuState) -> None:
    """Advance one clock cycle, none once halted: one cycle of run()'s loop,
    which starts with an empty fetch cache."""
    _cycles(state, state.stats.cycles + 1)


def run(state: CpuState, max_cycles: int = 100_000,
        trace: Optional[Callable[[str], None]] = None) -> Tuple[CpuState, Stats]:
    """Clock the pipeline, in one call of the cycle loop, until it drains past
    the end of instruction memory; a trace sink gets each cycle's line.

    Raises Fault on an execution fault and CycleLimitExceeded when the
    program does not halt within max_cycles.
    """
    if max_cycles < 1:
        raise ValueError("max_cycles must be >= 1")
    _cycles(state, max_cycles, trace)
    if not state.halted:
        raise CycleLimitExceeded(state, max_cycles)
    return state, state.stats


_disasm_word = functools.lru_cache(maxsize=4096)(isa.disasm_word)


def _slot_text(slot: Slot) -> str:
    return "bubble" if slot.instr is None else _disasm_word(slot.word)


def format_trace_line(cycle: int, before: tuple, after: tuple) -> str:
    """The trace line of cycle, the one just run. `before` and `after` each
    hold pc, the four latches, crypt mode, crypt_fetches and
    encrypted_stores, as they were before the cycle and after it, and the
    events are read from what changed. Only this cycle's ID puts a stall
    bubble in IDEX and only its IF a flush bubble in IFID; CRYPT_ON/OFF is
    a change of mode; DEC_FETCH and ENC_STORE are steps of the counters.
    """
    pc, ifid, idex, exmem, memwb, crypt_mode, crypt_fetches, encrypted_stores = before
    _, new_ifid, new_idex, _, _, new_mode, new_fetches, new_stores = after
    events = []
    if new_idex is STALL_BUBBLE:
        events.append("STALL")
    if new_ifid is FLUSH_BUBBLE:
        events.append("FLUSH")
    if new_mode != crypt_mode:
        events.append("CRYPT_ON" if new_mode else "CRYPT_OFF")
    if new_fetches != crypt_fetches:
        events.append("DEC_FETCH")
    if new_stores != encrypted_stores:
        events.append("ENC_STORE")
    return (f"{cycle} | {pc:x} | IF:{_slot_text(new_ifid)} "
            f"ID:{_slot_text(ifid)} EX:{_slot_text(idex)} "
            f"MEM:{_slot_text(exmem)} WB:{_slot_text(memwb)} "
            f"| events: {' '.join(events)}")


@dataclass
class InterpState:
    """Final architectural state of a reference interpretation."""

    regs: machine.RegisterFile = field(default_factory=machine.RegisterFile)
    keyreg: machine.KeyRegister = field(default_factory=machine.KeyRegister)
    dmem: machine.Memory = field(default_factory=machine.Memory)
    crypt_mode: bool = False
    executed: int = 0
    retired_log: Optional[List[Tuple[int, int]]] = None
    taken: Optional[List[bool]] = None    # beside retired_log: redirected the fetch?


def reference_interpret(imem: machine.Memory, dmem: machine.Memory, *,
                        decrypt_loads: bool = False,
                        max_steps: int = 100_000,
                        record_retired: bool = False) -> InterpState:
    """Execute a plaintext program one instruction at a time, no pipeline.

    Architectural semantics match the pipelined model exactly: crypt flips
    the mode flag (stores encrypt from then on; fetches read the image
    as-is since it is already plaintext), lklw/lkuw load key halves.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    s = InterpState(dmem=dmem)
    if record_retired:
        s.retired_log, s.taken = [], []
    pc, regs = 0, s.regs.values
    while True:     # not `while cond`, for the reason the cycle loop gives
        if pc >= imem.extent:
            return s
        if s.executed >= max_steps:
            raise CycleLimitExceeded(s, max_steps, "instructions")
        word = des.extract_word(imem.read_block(pc))
        try:
            instr = _decode(word)
        except isa.UnknownInstruction as exc:
            raise Fault(exc, pc, s.executed) from exc
        spec = instr.spec
        next_pc, target = (pc + 8) & 0xFFFFFFFF, None
        try:
            a, b = regs[instr.rs], regs[instr.rt]
            value = spec.alu(a, b, instr) if spec.alu is not None else 0
            if spec.mem is not None:
                out = mem_stage(instr, value, b, s.crypt_mode, s.keyreg, s.dmem,
                                decrypt_loads)
                if spec.load_key is not None:
                    spec.load_key(s.keyreg, out)
                elif out is not None:
                    value = out
            if instr.dest is not None:
                s.regs.write(instr.dest, value)
            if spec.redirect is not None:
                # a target of 0 is falsy, so test it against None
                target = spec.redirect(pc, a, b, instr)
                if target is not None:
                    next_pc = target
            elif spec.mode is not None:
                s.crypt_mode = spec.mode(instr)
        except machine.MachineError as exc:
            raise Fault(exc, pc, s.executed) from exc
        s.executed += 1
        if s.retired_log is not None:
            s.retired_log.append((pc, word))
            s.taken.append(target is not None)
        pc = next_pc


def architectural_state(state) -> Tuple[Tuple[int, ...], Tuple[Tuple[int, int], ...],
                                        Tuple[bool, bool, int, int], bool]:
    """Comparable snapshot (registers, dmem, key register, crypt mode) of a
    CpuState or InterpState."""
    kr = state.keyreg
    return (state.regs.snapshot(),
            tuple(state.dmem.items()),
            (kr.lower_loaded, kr.upper_loaded, kr.lower, kr.upper),
            state.crypt_mode)
