"""Seeded inputs, jobs and correctness checks for the three workloads.

Every input is generated from the seed before timing starts; a job hands
the simulator only those inputs, through the public functions of
`encmips.asm`, `des`, `machine`, `pipeline` and `cli`. A job returns its
simulated stats and a list of failed checks (empty when the output is
correct).

- crypt_loop: the worked example's sum loop over a long seeded array,
  behind the `lklw`/`lkuw`/`crypt 1` prologue, with the image encrypted
  after `crypt`. About ten hot blocks are fetched N times per job under
  one key, so every fetch pays a DES decrypt today.
- plain_loop: the same loop body and array with no prologue and no
  encryption; `pipeline.step` does the work and DES is idle.
- fresh_programs: a stream of distinct seeded straight-line programs,
  each under its own key, about 30% encrypted stores, each taken through
  the whole toolchain and checked against the reference interpreter.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from encmips import asm, cli, des, machine, pipeline

WORKLOADS = ("crypt_loop", "plain_loop", "fresh_programs")

LOOP_N = 1200             # array length of the loop workloads
LOOP_KEY_ADDR = 8 * LOOP_N + 64
LOOP_SUM_ADDR = 8 * LOOP_N + 8
FRESH_BODY = 64           # body instructions per fresh program
FRESH_POOL = 4000         # distinct fresh programs per run
FRESH_WINDOW = 32         # data blocks a fresh program loads and stores
FRESH_KEY_ADDR = 1024
KEY_REG, BASE_REG = 12, 10
DATA_REGS = tuple(range(1, 10))
_ARITH = ("add", "sub", "and", "or", "slt")
MAX_CYCLES = 1_000_000
MASK32 = 0xFFFFFFFF

_LOOP_BODY = """\
addi $r1, $r0, {n}
add $r2, $r0, $r0
addi $r3, $r0, 0
addi $r4, $r0, 0
Loop: add $r5, $r2, $r2
add $r5, $r5, $r5
add $r5, $r5, $r5
add $r5, $r5, $r3
lw $r6, 0($r5)
add $r4, $r4, $r6
addi $r2, $r2, 1
slt $r7, $r2, $r1
bne $r7, $r0, Loop
sw $r4, {sum_addr}($r0)
"""

# the worked example's key load: seven instructions, one crypt flush
_LOOP_PROLOGUE = """\
addi $r1, $r0, {key_addr}
lklw 0($r1)
addi $r1, $r1, 8
lkuw 0($r1)
nop
nop
crypt 1
"""

_FRESH_PROLOGUE = """\
addi $r{reg}, $r0, {key_addr}
lklw 0($r{reg})
lkuw 8($r{reg})
nop
nop
crypt 1
"""


@dataclass
class JobResult:
    stats: pipeline.Stats
    errors: List[str]
    encrypted_blocks: int   # blocks of the image that sit behind crypt
    source_lines: int = 0       # assembly lines this job assembled
    hex_blocks: int = 0         # blocks written to hex text and read back
    interp_executed: int = 0    # reference-interpreter instructions


@dataclass
class Workload:
    """A workload's generated inputs and the job that consumes them."""

    name: str
    jobs: List[object]      # per-job inputs, taken in order, wrapping around
    run_job: Callable[[object], JobResult]
    digest: str             # hash of every generated input


def _rng(name: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"{name}/{seed}/{stream}")


def _data_image(entries: List[Tuple[int, int]]) -> asm.ProgramImage:
    return asm.ProgramImage(entries=sorted(entries))


def _memory(image: asm.ProgramImage) -> machine.Memory:
    mem = machine.Memory()
    machine.load_image(mem, image)
    return mem


# ---------------------------------------------------------------- loops


@dataclass
class LoopInput:
    image: asm.ProgramImage       # what the simulator fetches
    data: asm.ProgramImage        # initial data memory
    crypt: bool
    n: int                        # array length
    total: int                    # array sum mod 2**32
    stored_block: int             # block the final sw must leave behind
    source_lines: int


def loop_source(n: int, crypt: bool) -> str:
    body = _LOOP_BODY.format(n=n, sum_addr=LOOP_SUM_ADDR)
    return _LOOP_PROLOGUE.format(key_addr=LOOP_KEY_ADDR) + body if crypt else body


def loop_expected_stats(n: int, crypt: bool) -> Tuple[int, int, int, int]:
    """Closed-form (cycles, retired, stalls, flushes) of the sum loop.

    Each iteration has one load-use stall (lw -> add) and one branch
    dependency stall (slt -> bne); every bne but the last is taken and
    flushes one slot, and `crypt 1` flushes one more.
    """
    retired = 9 * n + (12 if crypt else 5)
    stalls = 2 * n
    flushes = n if crypt else n - 1
    return retired + stalls + flushes + 4, retired, stalls, flushes


def make_loop_input(seed: int, crypt: bool, n: int = LOOP_N) -> LoopInput:
    # both loop workloads draw the same array and key from one seed
    rng = _rng("loop", seed, "array")
    values = [rng.getrandbits(32) for _ in range(n)]
    key = rng.getrandbits(64)
    total = sum(values) & MASK32
    source = loop_source(n, crypt)
    image = asm.build_image(source)
    entries = [(8 * i, des.pad_word(v)) for i, v in enumerate(values)]
    stored = des.pad_word(total)
    if crypt:
        image = asm.encrypt_image(image, key)
        entries += [(LOOP_KEY_ADDR, des.pad_word(key & MASK32)),
                    (LOOP_KEY_ADDR + 8, des.pad_word(key >> 32))]
        stored = des.encrypt_block(stored, des.key_schedule(key))
    return LoopInput(image, _data_image(entries), crypt, n, total, stored,
                     source.count("\n"))


def run_loop_job(job: LoopInput, trace_lines: Optional[List[str]] = None) -> JobResult:
    """One run of the loop; with `trace_lines`, every trace line lands there."""
    state = pipeline.CpuState(_memory(job.image), _memory(job.data))
    sink = trace_lines.append if trace_lines is not None else None
    _, stats = pipeline.run(state, max_cycles=MAX_CYCLES, trace=sink)
    errors = check_loop(job, state, stats)
    if trace_lines is not None and len(trace_lines) != stats.cycles:
        errors.append(f"{len(trace_lines)} trace lines for {stats.cycles} cycles")
    return JobResult(stats, errors, encrypted_blocks(job.image))


def run_cli_job(job: LoopInput, image_path: Path, data_path: Path) -> JobResult:
    """The same loop through `encmips run`, standard output captured."""
    argv = ["run", str(image_path), "--dmem", str(data_path), "--dump-regs", "r4",
            "--dump-mem", f"{LOOP_SUM_ADDR}:{LOOP_SUM_ADDR + 8}"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    cycles, retired, stalls, flushes = loop_expected_stats(job.n, job.crypt)
    expect = (f"cycles = {cycles}\nretired = {retired}\nstalls = {stalls}\n"
              f"flushes = {flushes}\ncpi = {cycles / retired:.4f}\n"
              f"r4 = 0x{job.total:08x}\n{LOOP_SUM_ADDR:x}: {job.stored_block:016x}\n")
    errors = []
    if code != 0 or out.getvalue() != expect:
        errors.append(f"cli exit {code}, output {out.getvalue()!r}")
    return JobResult(pipeline.Stats(cycles, retired, stalls, flushes), errors,
                     encrypted_blocks(job.image))


def write_loop_files(job: LoopInput, directory: Path) -> Tuple[Path, Path]:
    """Hex files of the loop's image and data memory, for the CLI job."""
    directory.mkdir(parents=True, exist_ok=True)
    image_path = directory / f"loop-{os.getpid()}.hex"
    data_path = directory / f"loop-{os.getpid()}-data.hex"
    image_path.write_text(asm.write_hex(job.image))
    data_path.write_text(asm.write_hex(job.data))
    return image_path, data_path


def encrypted_blocks(image: asm.ProgramImage) -> int:
    """Blocks of the image that sit behind the crypt instruction."""
    boundary = image.crypt_boundary
    return len(image.entries) - boundary if boundary is not None else 0


def check_loop(job: LoopInput, state, stats: pipeline.Stats) -> List[str]:
    errors = []
    if state.regs.read(4) != job.total:
        errors.append(f"r4 {state.regs.read(4):#x} != sum {job.total:#x}")
    if state.dmem.read_block(LOOP_SUM_ADDR) != job.stored_block:
        errors.append("stored sum block differs")
    got = (stats.cycles, stats.retired, stats.stalls, stats.flushes)
    want = loop_expected_stats(job.n, job.crypt)
    if got != want:
        errors.append(f"(cycles, retired, stalls, flushes) {got} != {want}")
    return errors


# ------------------------------------------------------- fresh programs


@dataclass
class FreshInput:
    source: str
    key: int
    data: asm.ProgramImage


class _ProgramGen:
    """Straight-line code with forward branches; about a third stores.

    Addresses stay 8-aligned inside a window well below the key, and the
    base register, key register and r0 are never written, so no program
    faults and every block is fetched about once.
    """

    def __init__(self, rng: random.Random):
        self.rand = rng.random
        self.lines: List[str] = []
        self.labels = 0

    def pick(self, n: int) -> int:
        return int(self.rand() * n)

    def reg(self) -> int:
        return DATA_REGS[self.pick(len(DATA_REGS))]

    def mem(self) -> str:
        if self.rand() < 0.5:
            return f"{8 * self.pick(FRESH_WINDOW)}($r0)"
        return f"{8 * self.pick(FRESH_WINDOW // 2)}($r{BASE_REG})"

    def instr(self) -> str:
        r = self.rand()
        if r < 0.38:
            return f"sw $r{self.reg()}, {self.mem()}"
        if r < 0.50:
            return f"lw $r{self.reg()}, {self.mem()}"
        if r < 0.80:
            mn = _ARITH[self.pick(len(_ARITH))]
            return f"{mn} $r{self.reg()}, $r{self.reg()}, $r{self.reg()}"
        if r < 0.88:
            return f"sll $r{self.reg()}, $r{self.reg()}, {self.pick(8)}"
        return f"addi $r{self.reg()}, $r{self.reg()}, {self.pick(128) - 64}"

    def body(self, count: int) -> None:
        while count > 0:
            run = min(count, 3 + self.pick(5))
            self.lines.extend(self.instr() for _ in range(run))
            count -= run
            if count > 4 and self.rand() < 0.6:
                self.labels += 1
                label = f"fwd{self.labels}"
                if self.rand() < 0.2:
                    self.lines.append(f"j {label}")
                else:
                    mn = "beq" if self.rand() < 0.5 else "bne"
                    self.lines.append(f"{mn} $r{self.reg()}, $r{self.reg()}, {label}")
                skip = 1 + self.pick(3)
                self.lines.extend(self.instr() for _ in range(skip))
                self.lines.append(f"{label}:")
                count -= skip + 1


def make_fresh_input(rng: random.Random) -> FreshInput:
    key = rng.getrandbits(64)
    g = _ProgramGen(rng)
    g.lines.append(_FRESH_PROLOGUE.format(reg=KEY_REG, key_addr=FRESH_KEY_ADDR).rstrip())
    for reg in DATA_REGS[:4]:
        g.lines.append(f"addi $r{reg}, $r0, {rng.randrange(-100, 100)}")
    g.lines.append(f"addi $r{BASE_REG}, $r0, {8 * rng.randrange(FRESH_WINDOW // 2)}")
    g.body(FRESH_BODY)
    g.lines.append("addi $r1, $r1, 1")
    entries = [(8 * i, des.pad_word(rng.getrandbits(32))) for i in range(FRESH_WINDOW)]
    entries += [(FRESH_KEY_ADDR, des.pad_word(key & MASK32)),
                (FRESH_KEY_ADDR + 8, des.pad_word(key >> 32))]
    return FreshInput("\n".join(g.lines) + "\n", key, _data_image(entries))


def make_fresh_inputs(seed: int, count: int) -> List[FreshInput]:
    rng = _rng("fresh_programs", seed, "programs")
    return [make_fresh_input(rng) for _ in range(count)]


def run_fresh_job(job: FreshInput) -> JobResult:
    """build -> encrypt -> hex out and back -> load -> run -> oracle."""
    plain = asm.build_image(job.source)
    image = asm.encrypt_image(plain, job.key)
    text = asm.write_hex(image)
    loaded = asm.read_hex(text)
    imem = machine.Memory()
    machine.load_image(imem, loaded)
    state = pipeline.CpuState(imem, _memory(job.data))
    _, stats = pipeline.run(state, max_cycles=MAX_CYCLES)
    ref = pipeline.reference_interpret(_memory(plain), _memory(job.data),
                                       max_steps=MAX_CYCLES)
    errors = []
    if loaded.entries != image.entries:
        errors.append("hex round trip changed the image")
    if pipeline.architectural_state(state) != pipeline.architectural_state(ref):
        errors.append("pipeline state differs from the reference interpreter")
    if stats.retired != ref.executed:
        errors.append(f"retired {stats.retired} != interpreted {ref.executed}")
    if stats.cycles != stats.retired + stats.stalls + stats.flushes + 4:
        errors.append("cycles != retired + stalls + flushes + 4")
    return JobResult(stats, errors, encrypted_blocks(image), job.source.count("\n"),
                     len(image.entries), ref.executed)


# ------------------------------------------------------------- workloads


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()[:16]


def make_workload(name: str, seed: int, *, pool: Optional[int] = None) -> Workload:
    """Generate every input of one workload and seed; `pool` caps the
    number of distinct fresh programs (default FRESH_POOL)."""
    if name in ("crypt_loop", "plain_loop"):
        job = make_loop_input(seed, name == "crypt_loop")
        digest = _digest([job.image.entries, job.data.entries])
        return Workload(name, [job], run_loop_job, digest)
    if name == "fresh_programs":
        jobs = make_fresh_inputs(seed, pool or FRESH_POOL)
        digest = _digest((j.source, j.key, j.data.entries) for j in jobs)
        return Workload(name, jobs, run_fresh_job, digest)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def derived_seed(seed: int, stream: str) -> int:
    """A second seed drawn from the first: held-out, warm-up, traced batch."""
    return int(hashlib.sha256(f"{seed}/{stream}".encode()).hexdigest()[:8], 16)
