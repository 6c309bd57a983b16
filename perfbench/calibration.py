"""A fixed pure-Python kernel that measures how fast the host runs right now.

On a shared host the same job can take twice as long for tens of seconds
while other tenants load the machine, and no statistic taken inside one run
removes a slow spell that lasts the whole run. The benchmark therefore runs
this kernel between jobs and scales each host time by REFERENCE_S / (the
kernel's time then), which gives the host time the job would take on a
host that runs the kernel in REFERENCE_S. The kernel imports nothing from
encmips, so a change to the package cannot move it; it mimics the
simulator's mix of small objects, isinstance tests, list and dict lookups
and 32-bit integer work, so that it slows down with the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

REFERENCE_S = 0.001    # scaled host times are "as if the kernel took 1 ms"
ROUNDS = 20


@dataclass
class _Slot:
    op: str
    a: int
    b: int


_TABLES = [[(v * 2654435761 >> k) & 0xFFFFFFFF for v in range(64)] for k in range(8)]
_PROGRAM = [_Slot("add" if i % 3 else "xor", i % 31 + 1, (i * 7) % 31 + 1)
            for i in range(64)]


def _kernel() -> int:
    regs = [0] * 32
    mem = {}
    acc = 0
    for rnd in range(ROUNDS):
        low, high = _TABLES[rnd & 7], _TABLES[(rnd + 1) & 7]
        for slot in _PROGRAM:
            if isinstance(slot, _Slot):
                if slot.op == "add":
                    v = (regs[slot.a] + regs[slot.b] + rnd) & 0xFFFFFFFF
                else:
                    v = regs[slot.a] ^ regs[slot.b] ^ rnd
                v ^= low[v & 0x3F] | high[(v >> 6) & 0x3F]
                regs[slot.a] = v
                mem[(slot.b << 3) & 0xF8] = v
                acc = (acc + mem.get((slot.a << 3) & 0xF8, 0)) & 0xFFFFFFFF
            _Slot(slot.op, slot.b, slot.a)
    return acc


_EXPECTED = _kernel()


def sample() -> float:
    """Host seconds for one pass of the kernel (about 3 ms on a quiet host)."""
    start = perf_counter()
    result = _kernel()
    elapsed = perf_counter() - start
    if result != _EXPECTED:
        raise RuntimeError("calibration kernel gave a different result")
    return elapsed


def scale(kernel_s: float) -> float:
    """Factor that turns host seconds measured at this kernel time into
    seconds at the reference speed."""
    return REFERENCE_S / kernel_s
