"""Cycle-accurate 5-stage pipeline (IF ID EX MEM WB) over the machine state.

machine owns the memory paths, fetch_word and mem_stage, with their DES
use; this module keeps the timing and binds both names, so its loop, its
replayed segments and its oracle call them through its globals and a
wrapper sees each call. WB writes the register file first in every cycle,
so an operand is EXMEM's ALU result when EXMEM writes its register, else
the register file. EX and the ID branch compare read their operands so, and
a store reads its data from the register file in MEM. A load's consumer
directly behind it stalls one cycle. Branches resolve in ID and squash one
fetch slot when taken, as does a crypt-mode change; a memory access uses
the crypt mode its instruction was fetched in.

Each fetched instruction is one Slot record that rides the latches from
IFID to MEMWB by reference. IF sets all its fields, among them what each
later stage reads of the instruction and its table row and the crypt mode
of the fetch, and nothing writes them after; the values a stage computes
in flight (the result WB writes) shift in locals beside the latches. An
empty latch holds one of four shared bubbles: Slots with no instruction,
whose kind says why they exist (fill, stall, flush, end of program). WB
counts only the stall and flush bubbles that drain past it; the four fills
drain in cycles 1-4 of every run from reset. The run halts when the
end-of-program bubble reaches the WB latch. Each cycle's WB sees one slot,
so retired is derived from
    cycles == retired + stalls + flushes + min(cycles, 4)
which holds at every stop of a run from reset; a halting run has drained
all four fills, even when a squashed slot falls inside the final drain.
With record_retired, WB logs the slot it sees in every cycle that runs.

One loop, _cycles(), clocks the pipeline for run() and step(), with the
latches, the values beside them, pc, crypt mode and the statistics in
locals that it writes back in one place, where it stops; a trace line is
made from those locals. Inside one call, IF fetches each pc once per crypt
mode and key: it keeps the Slot it made of the pc in a local dict, which a
crypt-mode flip and a key-half commit drop, and hands out that slot on
every later fetch, so a wrapper of fetch_word sees each miss, not each fetch.
An untraced run replays hot loops as straight-line code with the rows'
templates inline, compiled from a self-contained source and cached whole; a
segment ending where it began runs its passes in one call.

A single-cycle reference interpreter with identical architectural
semantics serves as the correctness oracle.
"""

from __future__ import annotations

import functools
from collections.abc import Callable

from . import isa, machine
from .machine import fetch_word, mem_stage

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

    pc, word and instr say what IF fetched, and crypt the crypt mode it
    fetched in, which MEM uses for the slot's access: a flip squashes the
    one slot IF fetched in its cycle, so no slot crosses one. The rest is
    what the later stages read, copied at IF: rs, rt, sources and dest (the
    register WB writes, None for none or $r0) from the instruction, alu,
    mem, redirect, mode, load_key and rare from its row, and next_pc, the pc
    fetched after it. kind is None for an instruction. A bubble has no
    instruction, crypt False and a kind that names it (fill, stall, flush,
    end); a word no row decodes has kind "unknown" and, as instr, the
    isa.UnknownInstruction that ID raises as a Fault in its own cycle. Their
    stage fields are inert (None, (), 0), but an unknown word has its
    next_pc, and rare True for ID's fault.
    """

    __slots__ = ("pc", "word", "instr", "crypt", "kind", "rs", "rt", "sources", "dest",
                 "alu", "mem", "redirect", "mode", "load_key", "rare", "next_pc")

    def __init__(self, pc, word, instr, crypt=False, kind=None):
        # at most three names an assignment, so none builds a tuple first
        self.pc, self.word, self.instr = pc, word, instr
        self.crypt, self.kind = crypt, kind
        if kind is None:
            self.rs, self.rt = instr.rs, instr.rt
            self.sources, self.dest = instr.sources, instr.dest
            self.alu, self.mem, self.redirect, self.mode, self.load_key, self.rare = \
                instr.spec.stage
        else:
            self.rs = self.rt = 0
            self.sources = ()
            self.dest = self.alu = self.mem = self.redirect = self.mode = self.load_key = None
            self.rare = None if instr is None else True     # an unknown word faults in ID
        self.next_pc = 0 if pc is None else (pc + 8) & 0xFFFFFFFF    # wraps like every pc


# The pipeline uses only these four bubbles; nothing forwards from them.
FILL_BUBBLE = Slot(None, None, None, kind="fill")
STALL_BUBBLE = Slot(None, None, None, kind="stall")
FLUSH_BUBBLE = Slot(None, None, None, kind="flush")
END_BUBBLE = Slot(None, None, None, kind="end")


class Stats:
    """What a run counts; two Stats are equal when all six counts are."""

    __slots__ = ("cycles", "retired", "stalls", "flushes", "crypt_fetches",
                 "encrypted_stores")

    def __init__(self, cycles: int = 0, retired: int = 0, stalls: int = 0,
                 flushes: int = 0, crypt_fetches: int = 0, encrypted_stores: int = 0):
        self.cycles, self.retired, self.stalls = cycles, retired, stalls
        self.flushes, self.crypt_fetches, self.encrypted_stores = (
            flushes, crypt_fetches, encrypted_stores)

    def _counts(self) -> tuple[int, ...]:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if other.__class__ is not Stats:
            return NotImplemented
        return self._counts() == other._counts()

    def __repr__(self) -> str:
        return ("Stats(cycles={}, retired={}, stalls={}, flushes={}, crypt_fetches={}, "
                "encrypted_stores={})".format(*self._counts()))

    def cpi(self) -> float | None:
        return self.cycles / self.retired if self.retired else None


class CpuState:
    """All architectural and microarchitectural state of one core. imem and
    dmem are two distinct memories: a store never writes imem.

    With record_retired, wb_log holds the slot WB saw in each cycle that
    ran, bubbles included, so its length is stats.cycles at every stop;
    else it is None. The end bubble's cycle never runs, so it is not logged.
    """

    def __init__(self, imem: machine.Memory | None = None,
                 dmem: machine.Memory | None = None, *,
                 decrypt_loads: bool = False,
                 record_retired: bool = False):
        self.imem = imem if imem is not None else machine.Memory()
        self.dmem = dmem if dmem is not None else machine.Memory()
        if self.imem is self.dmem:
            raise ValueError("imem and dmem must be two distinct memories")
        self.regs = machine.RegisterFile()
        self.keyreg = machine.KeyRegister()
        self.pc = 0
        self.crypt_mode = False
        self.decrypt_loads = decrypt_loads
        self.ifid: Slot = FILL_BUBBLE
        self.idex: Slot = FILL_BUBBLE
        self.exmem: Slot = FILL_BUBBLE
        self.memwb: Slot = FILL_BUBBLE
        # beside the latches: EX's result (MEM's word, for a read) on its way to WB
        self.exmem_alu = self.memwb_alu = 0
        self.stats = Stats()
        self.fault: Fault | None = None     # the Fault that ended the run, raised again
        self.wb_log: list[Slot] | None = [] if record_retired else None

    @property
    def retired_log(self) -> list[tuple[int, int]] | None:
        """The (pc, word) of each instruction WB retired, in order, read from
        wb_log; None without record_retired."""
        if self.wb_log is None:
            return None
        return [(slot.pc, slot.word) for slot in self.wb_log if slot.instr is not None]

    @property
    def halted(self) -> bool:
        """The end-of-program bubble has reached the WB latch."""
        return self.memwb is END_BUBBLE


# Visits before a configuration's segment compiles, about one compile's cost in
# generic runs of it (the sum loop's: 0.28-0.45 ms, 12 cycles at 0.31 us each).
_HOT_VISITS = 100


@functools.lru_cache(maxsize=256)   # a pure function of the source
def _compiled(source: str) -> Callable:
    defined = {}    # run's globals are this module's, read at each call
    exec(compile(source, "<segment>", "exec"), globals(), defined)
    return defined["run"]


class _Segment:
    """n cycles compiled to run, and their configs, marks (counts), wb and loops."""


def _segment(record: list, decrypt_loads: bool) -> _Segment:
    """Compile record, the configuration and then the counts at the top of
    each cycle and after the last, which resolved a branch or jump; wb keeps
    the slot in MEMWB at the top of each cycle, the one its WB sees. Its
    source is self-contained: the rows' templates inline (isa._render),
    literals (each access's slot's crypt), locals, and the memory rows bound
    at run's top; run reads mem_stage, isa and range in this module's
    globals per call, so it is cached whole. run(regs, keyreg, dmem, e, m,
    times), e and m being the values beside EXMEM and MEMWB, does per cycle
    c WB's write, MEM's access (a read's word into m{c}) and EX's result
    into e{c} for up to times passes, and returns (i, k, e, m): i passes ran
    whole, and then k cycles of the next: k == n, or the cycle at whose top
    a guard stopped it for the generic loop to run: the last, whose compare
    would resolve the other way (a jump's slot fixes its target), or one
    whose MEM address is unaligned. That is the only MachineError MEM can
    raise in a replay: while a segment lives, fetched lives, so the key is
    the recording's, and each access's slot its crypt mode, under which it
    ran without a fault. A segment ending in its first configuration loops."""
    seg, n = _Segment(), len(record) - 1
    taken = record[n][1] is FLUSH_BUBBLE
    seg.n, seg.configs = n, [entry[:5] for entry in record]
    seg.loops = seg.configs[n] == seg.configs[0]    # slots compare by identity
    seg.marks = [tuple(x - y for x, y in zip(entry[5:], record[0][5:])) for entry in record]
    seg.wb = [config[4] for config in seg.configs[:n]]
    rows, lines = {}, []    # rows: a line for each memory row, which binds it at run's top
    x, y = "e", "m"     # the source of the values beside EXMEM and MEMWB
    for c, (_, ifid, idex, exmem, memwb) in enumerate(seg.configs[:n]):
        def operand(r):     # r as ID and EX read it, after this cycle's WB
            return x if exmem.dest is r else y if memwb.dest is r else f"regs[{r}]" if r else "0"
        stop = f"return i, {c}, {x}, {y}"
        if c == n - 1 and ifid.instr.spec.taken_text is not None:     # the branch guard
            cond = isa._render(ifid.instr.spec.taken_text, operand(ifid.rs), operand(ifid.rt))
            lines.append(f"if not ({cond}): {stop}" if taken else f"if {cond}: {stop}")
        if exmem.mem is not None:
            lines.append(f"if {x} & 7: {stop}")     # the alignment guard
        if memwb.dest is not None:
            lines.append(f"regs[{memwb.dest}] = {y}")
        if exmem.mem is not None:
            row = exmem.instr.spec.mnemonic
            rows[row] = f"    {row} = isa.SPECS[{row!r}]\n"
            call = (f"mem_stage({row}, {x}, regs[{exmem.rt}], {exmem.crypt}, keyreg, dmem, "
                    f"{decrypt_loads})")
            lines.append(call if exmem.mem == isa.WRITE else f"m{c} = {call}")
        if idex.alu is not None:
            lines.append(f"e{c} = " + isa._render(idex.instr.spec.alu_text, operand(idex.rs),
                                                  operand(idex.rt), idex.instr))
        x, y = f"e{c}" if idex.alu is not None else "0", f"m{c}" if exmem.mem == isa.READ else x
    body = "".join(f"        {line}\n" for line in lines)
    seg.run = _compiled(f"def run(regs, keyreg, dmem, e, m, times):\n{''.join(rows.values())}"
                        f"    for i in range(times):\n{body}"
                        f"        e, m = {x}, {y}\n    return times - 1, {n}, e, m\n")
    return seg


def _cycles(state: CpuState, limit: int,
            trace: Callable[[str], None] | None = None) -> None:
    """Clock the pipeline until it halts or its cycle count reaches limit.

    The latches, the values in flight beside them, pc, crypt mode and the
    statistics are locals that only the finally writes back, so a Fault
    (carrying the cycle count), the limit or a raising trace sink leaves the
    state the last cycle left; a Fault is kept there and raised again on
    entry. A traced cycle takes one snapshot of those locals after its
    work, and the previous cycle's snapshot is its "before".

    Slots are never written after IF, so the in-flight values shift beside
    the latches: exmem_alu and memwb_alu carry EX's result, or for a read
    the word MEM read in place of the address, to WB. MEM's access uses its
    slot's crypt, the mode IF fetched it in.
    Each stage writes only locals of its own, which the shift at the cycle's
    end moves into place, so every stage sees its inputs as the last cycle
    left them. EX and the ID branch compare read exmem_alu only for a
    register EXMEM writes, tested with `is`: CPython keeps one object for
    each int in 0..31, every register number, so `is` answers as `==` does
    and EXMEM's None (no dest) never takes the generic compare. The load-use
    and branch stalls keep a read's consumers out of both while it is in MEM.

    Each stage tests one field of its latch: WB instr, MEM mem, EX alu and
    ID rare, None where ID tests only for a load-use stall; its rare arm
    faults on an unknown word, else resolves a branch or jump, else crypt.
    The stalls read IDEX's or EXMEM's mem before sources. ID hands IF a
    stall or a redirect in handoff, None at the top of every cycle, which
    IF, the one writer of pc and ifid, resets where it acts on it; load_key
    is reset where its key half commits, and EX stores 0 only with no alu.

    IF reads a dict local to this call first, which maps a pc to the Slot
    IF made of it; a hit is that slot itself, and pc moves on to its
    next_pc. A miss goes through fetch_word and decode, and its slot is
    kept unless the fetch raised, decoded to no row or was past imem's
    extent. In crypt mode every fetch, a hit too, goes through the
    decryptor. ID's crypt-mode flip drops the dict before IF runs in the
    same cycle and hands IF its own pc, so the slot IF fetches that cycle on
    the old path is squashed and refetched on the new one; a key-half commit
    drops the dict at the cycle's end, after IF used the old key; stores
    write dmem, never imem.

    Between two resolutions of a branch or jump, every decision but the
    outcome and MEM's alignment reads only slot identity. Untraced, the loop
    breaks after a resolving cycle, and the segment loop around it looks up
    the configuration left, pc and the latches, in fetched, whose two drops
    so retire segments too. The visit after _HOT_VISITS records a cycle a
    pass up to the next resolution, for _segment: the count lived in
    fetched, so that path held no drop, nor a mode flip, and every fetch on
    it hits but the resolving cycle's of an end bubble or unknown word. Such
    a segment compiles and never replays: behind it ID sees only end
    bubbles or faults on the unknown word. A segment replays only when it
    fits under limit; one that ends in its first configuration runs every
    pass that fits in one call, and where a guard stops it, the loop takes
    that cycle's latches, values and counts and runs it. The WB log gains
    the recorded MEMWB slot of each cycle a replay ran. A traced run never
    breaks; step() never visits a configuration twice.
    """
    if state.fault is not None:     # a Fault is final: no cycle runs after it
        raise state.fault.with_traceback(None)     # no traceback grows per raise
    ifid, idex, exmem, memwb = state.ifid, state.idex, state.exmem, state.memwb
    exmem_alu, memwb_alu = state.exmem_alu, state.memwb_alu
    pc, crypt_mode, st = state.pc, state.crypt_mode, state.stats
    cycles, stalls, flushes = st.cycles, st.stalls, st.flushes
    crypt_fetches, encrypted_stores = st.crypt_fetches, st.encrypted_stores
    regs, keyreg, imem, dmem = state.regs.values, state.keyreg, state.imem, state.dmem
    decrypt_loads, wb_log = state.decrypt_loads, state.wb_log
    stall_bubble, flush_bubble, end_bubble = STALL_BUBBLE, FLUSH_BUBBLE, END_BUBBLE
    fetched = {}    # pc -> its Slot, and a configuration -> its _Segment or visits to it
    load_key = handoff = record = None
    resolved, stop = False, limit   # stop: where the counted loop ends this pass
    if trace is not None:
        after = (pc, ifid, idex, exmem, memwb, crypt_mode, crypt_fetches, encrypted_stores)
    try:
        while True:     # generic cycles up to a resolution, then a replay from it
            # counted, for an unconditional jump back: CPython 3.11 specializes a
            # `while cond` loop only from its 8th call. WB's end arm stops a run.
            for cycles in range(cycles + 1, stop + 1):
                # WB first, so later stages read its result in the register file;
                # dest is never $r0 and every result is 32 bits, so write directly.
                # A fill bubble, in one of the first 4 cycles, takes no arm.
                if memwb.instr is not None:
                    if memwb.dest is not None:
                        regs[memwb.dest] = memwb_alu
                elif memwb is stall_bubble:
                    stalls += 1
                elif memwb is flush_bubble:
                    flushes += 1
                elif memwb is end_bubble:
                    cycles -= 1     # halted before this cycle, which never ran
                    return
                if wb_log is not None:
                    wb_log.append(memwb)

                # MEM: a key half commits at the cycle's end, after IF used the old key
                mem_out = exmem_alu
                if exmem.mem is not None:
                    # a store's data: every older instruction has written back
                    try:
                        out = mem_stage(exmem.instr.spec, exmem_alu, regs[exmem.rt], exmem.crypt,
                                        keyreg, dmem, decrypt_loads)
                    except machine.MachineError as exc:
                        raise Fault(exc, exmem.pc, cycles) from exc
                    if exmem.load_key is not None:
                        load_key, key_word = exmem.load_key, out
                    elif out is not None:   # a read: its word replaces the address
                        mem_out = out
                    elif exmem.crypt:
                        encrypted_stores += 1

                # EX: an operand is EXMEM's result when EXMEM writes its register,
                # else the register file; the row ignores an operand it does not read.
                alu = idex.alu
                if alu is not None:
                    a = exmem_alu if exmem.dest is idex.rs else regs[idex.rs]
                    b = exmem_alu if exmem.dest is idex.rt else regs[idex.rt]
                    ex_out = alu(a, b, idex.instr)
                else:
                    ex_out = 0

                # ID: hazards, then a rare slot's fault, branch resolution or
                # crypt-mode switch. Only the branch compare reads registers here.
                if ifid.rare is None:
                    # load-use: a load (a memory row with a dest) in EX whose dest this reads
                    if idex.mem is not None and idex.dest in ifid.sources:
                        handoff = stall_bubble
                elif ifid.kind is not None:     # an unknown word
                    raise Fault(ifid.instr, ifid.pc, cycles) from ifid.instr
                elif ifid.redirect is not None:
                    # a branch waits for any producer in EX (the compare forwards from
                    # EXMEM only) and for a load in MEM (its data is in the registers
                    # a cycle on); the compare reads its operands as EX does
                    sources = ifid.sources
                    if idex.dest in sources or exmem.mem is not None and exmem.dest in sources:
                        handoff = stall_bubble
                    else:
                        a = exmem_alu if exmem.dest is ifid.rs else regs[ifid.rs]
                        b = exmem_alu if exmem.dest is ifid.rt else regs[ifid.rt]
                        handoff = ifid.redirect(ifid.pc, a, b, ifid.instr)
                        resolved = True
                elif ifid.mode(ifid.instr) != crypt_mode:
                    crypt_mode = not crypt_mode
                    fetched.clear()     # before IF reads it, this cycle
                    handoff = pc        # refetch what IF reads on the old path

                # IF, unless ID handed it a stall or a redirect: the cached slot of
                # pc, else a new one; a word that decodes to no row rides to ID.
                if handoff is None:
                    next_idex = ifid
                    slot = fetched.get(pc)
                    if slot is not None:
                        ifid, pc = slot, slot.next_pc
                        if crypt_mode:
                            crypt_fetches += 1
                    else:
                        try:
                            word = fetch_word(imem, pc, crypt_mode, keyreg)
                        except machine.MachineError as exc:
                            raise Fault(exc, pc, cycles) from exc
                        if word is None:
                            ifid = end_bubble
                        else:
                            try:
                                ifid = fetched[pc] = Slot(pc, word, isa.decode(word), crypt_mode)
                            except isa.UnknownInstruction as exc:
                                ifid = Slot(pc, word, exc, crypt_mode, "unknown")
                            pc = ifid.next_pc
                            if crypt_mode:
                                crypt_fetches += 1
                elif handoff is stall_bubble:      # IFID holds
                    next_idex, handoff = stall_bubble, None
                else:                               # a redirect squashes the fetch
                    next_idex, ifid, pc, handoff = ifid, flush_bubble, handoff, None

                # each latch shifts with the value beside it (these assignments
                # build no tuple); nothing reads a bubble's result
                memwb, memwb_alu = exmem, mem_out
                exmem, exmem_alu, idex = idex, ex_out, next_idex
                if load_key is not None:
                    load_key(keyreg, key_word)
                    load_key = None
                    fetched.clear()     # after IF used the old key, this cycle
                if trace is not None:
                    before, after = after, (pc, ifid, idex, exmem, memwb, crypt_mode,
                                            crypt_fetches, encrypted_stores)
                    trace(format_trace_line(cycles, before, after))
                elif resolved:
                    break
            if cycles >= limit:
                return
            # a cycle resolved a branch or jump, or a recording ran one (or none, first)
            config, stop = (pc, ifid, idex, exmem, memwb), limit
            if record is not None:
                record.append(config + (stalls, flushes, crypt_fetches, encrypted_stores))
                if not resolved:
                    stop = cycles + 1
                    continue
                fetched[record[0][:5]], record = _segment(record, decrypt_loads), None
            seg, resolved = fetched.get(config, 0), False
            while seg.__class__ is _Segment and cycles + seg.n <= limit:
                i, k, exmem_alu, memwb_alu = seg.run(regs, keyreg, dmem, exmem_alu, memwb_alu,
                                                     (limit - cycles) // seg.n if seg.loops else 1)
                p_stalls, p_flushes, p_fetch, p_store = seg.marks[-1]   # per whole pass
                d_stalls, d_flushes, d_fetch, d_store = seg.marks[k]
                cycles, stalls = cycles + i * seg.n + k, stalls + i * p_stalls + d_stalls
                flushes += i * p_flushes + d_flushes
                crypt_fetches += i * p_fetch + d_fetch
                encrypted_stores += i * p_store + d_store
                if wb_log is not None:      # pass by pass, with no list of i passes
                    for _ in range(i):
                        wb_log += seg.wb
                    wb_log += seg.wb[:k]
                pc, ifid, idex, exmem, memwb = config = seg.configs[k]
                if k < seg.n:
                    break       # the generic loop runs the cycle a guard stopped before
                seg = fetched.get(config, 0)
            if seg.__class__ is int:
                fetched[config] = seg + 1
                if seg == _HOT_VISITS:  # record from here, after a pass of no cycle
                    record, stop = [], cycles
    except Fault as fault:
        state.fault = fault
        raise
    finally:
        state.ifid, state.idex, state.exmem, state.memwb = ifid, idex, exmem, memwb
        state.exmem_alu, state.memwb_alu = exmem_alu, memwb_alu
        state.pc, state.crypt_mode = pc, crypt_mode
        st.cycles, st.stalls, st.flushes = cycles, stalls, flushes
        # each cycle's WB saw one slot, the fill bubbles in cycles 1-4
        st.retired = cycles - stalls - flushes - min(cycles, 4)
        st.crypt_fetches, st.encrypted_stores = crypt_fetches, encrypted_stores


def step(state: CpuState) -> None:
    """Advance one clock cycle (none once halted; a faulted state raises its
    Fault): one cycle of run()'s loop, which starts with an empty fetch cache."""
    _cycles(state, state.stats.cycles + 1)


def run(state: CpuState, max_cycles: int = 100_000,
        trace: Callable[[str], None] | None = None) -> tuple[CpuState, Stats]:
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


def _slot_text(slot: Slot) -> str:
    return "bubble" if slot.instr is None else isa.disasm_word(slot.word)


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


class InterpState:
    """Final architectural state of a reference interpretation. With
    record_retired, retired_log holds each executed (pc, word) and taken,
    beside it, whether that instruction redirected the fetch."""

    def __init__(self, dmem: machine.Memory, record_retired: bool = False):
        self.regs = machine.RegisterFile()
        self.keyreg = machine.KeyRegister()
        self.dmem = dmem
        self.crypt_mode = False
        self.executed = 0
        self.retired_log: list[tuple[int, int]] | None = [] if record_retired else None
        self.taken: list[bool] | None = [] if record_retired else None


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
    s = InterpState(dmem, record_retired)
    pc, regs = 0, s.regs.values
    while True:     # not `while cond`, for the reason the cycle loop gives
        if pc >= imem.extent:
            return s
        if s.executed >= max_steps:
            raise CycleLimitExceeded(s, max_steps, "instructions")
        word = imem.read_block(pc) & isa.WORD_MASK
        try:
            instr = isa.decode(word)
        except isa.UnknownInstruction as exc:
            raise Fault(exc, pc, s.executed) from exc
        spec = instr.spec
        next_pc, target = (pc + 8) & 0xFFFFFFFF, None
        try:
            a, b = regs[instr.rs], regs[instr.rt]
            value = spec.alu(a, b, instr) if spec.alu is not None else 0
            if spec.mem is not None:
                out = mem_stage(spec, value, b, s.crypt_mode, s.keyreg, s.dmem,
                                decrypt_loads)
                if spec.load_key is not None:
                    spec.load_key(s.keyreg, out)
                elif out is not None:
                    value = out
            if instr.dest is not None:      # never $r0, and value is 32 bits
                regs[instr.dest] = value
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


def architectural_state(state) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...],
                                        tuple[bool, bool, int, int], bool]:
    """Comparable snapshot (registers, dmem, key register, crypt mode) of a
    CpuState or InterpState."""
    kr = state.keyreg
    return (state.regs.snapshot(),
            tuple(state.dmem.items()),
            (kr.lower_loaded, kr.upper_loaded, kr.lower, kr.upper),
            state.crypt_mode)
