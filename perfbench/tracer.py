"""Spans and counters wrapped around the package's public functions.

`Tracer.installed()` replaces each target attribute (a module function
or a class method) with a wrapper for the duration of a `with` block and
then puts the original back, so untraced runs measure unpatched code. A span wrapper records
(name, start, end, parent, scope) in memory; a counter wrapper only
counts, keyed by the innermost open span, for calls that cost about as
much as the wrapper itself.

Self time is a span's duration minus the durations of its direct child
spans. Only calls made through a module attribute are seen: a function
bound under another name at import time bypasses its wrapper.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from encmips import asm, cli, des, isa, machine, pipeline

# (owner, attribute, span name); names are "<layer>.<function>"
SPANS = [
    (des, "decrypt_block", "des.decrypt_block"),
    (des, "encrypt_block", "des.encrypt_block"),
    (des, "key_schedule", "des.key_schedule"),
    (pipeline, "run", "pipeline.run"),
    (pipeline, "step", "pipeline.step"),
    (pipeline, "fetch_word", "pipeline.fetch_word"),
    (pipeline, "mem_stage", "pipeline.mem_stage"),
    (pipeline, "reference_interpret", "pipeline.reference_interpret"),
    (pipeline, "format_trace_line", "pipeline.format_trace_line"),
    (asm, "build_image", "asm.build_image"),
    (asm, "parse", "asm.parse"),
    (asm, "assemble", "asm.assemble"),
    (asm, "encrypt_image", "asm.encrypt_image"),
    (asm, "write_hex", "asm.write_hex"),
    (asm, "read_hex", "asm.read_hex"),
    (isa, "encode", "isa.encode"),
    (machine, "load_image", "machine.load_image"),
    (cli, "main", "cli.main"),
]
COUNTERS = [
    (machine.Memory, "read_block", "machine.read_block"),
    (machine.Memory, "write_block", "machine.write_block"),
]

Record = Tuple[str, float, float, int, str]   # name, start, end, parent, scope


@dataclass
class Summary:
    """Per (scope, name, parent name): calls, total and self seconds."""

    calls: Dict[Tuple[str, str, str], int] = field(default_factory=lambda: defaultdict(int))
    total: Dict[Tuple[str, str, str], float] = field(default_factory=lambda: defaultdict(float))
    self_time: Dict[Tuple[str, str, str], float] = field(default_factory=lambda: defaultdict(float))
    violations: int = 0    # spans whose self time exceeded their parent's duration

    def _sum(self, table, scope: Optional[str], names, parent=None) -> float:
        return sum(v for (s, n, p), v in table.items()
                   if (scope is None or s == scope) and n in names
                   and (parent is None or p in parent))

    def calls_of(self, scope, *names, parent=None) -> int:
        return int(self._sum(self.calls, scope, names, parent))

    def total_of(self, scope, *names, parent=None) -> float:
        return self._sum(self.total, scope, names, parent)

    def self_of(self, scope, *names, parent=None) -> float:
        return self._sum(self.self_time, scope, names, parent)


class Tracer:
    def __init__(self):
        self.records: List[Optional[Record]] = []
        # (scope, name, name of the innermost open span) -> calls
        self.counts: Dict[Tuple[str, str, str], int] = defaultdict(int)
        self.scope = "job"
        self._stack: List[Tuple[int, str]] = []     # open spans: (index, name)

    # ---------------------------------------------------------- wrappers

    def _span_wrapper(self, fn, name):
        records, stack = self.records, self._stack

        def traced(*args, **kwargs):
            index = len(records)
            records.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((index, name))
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                records[index] = (name, start, end, parent, self.scope)

        return traced

    def _count_wrapper(self, fn, name):
        counts, stack = self.counts, self._stack

        def counted(*args, **kwargs):
            counts[self.scope, name, stack[-1][1] if stack else ""] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then put the
        originals back, even when the block raises."""
        originals = []
        try:
            for targets, make in ((SPANS, self._span_wrapper),
                                  (COUNTERS, self._count_wrapper)):
                for owner, attr, name in targets:
                    original = getattr(owner, attr)
                    originals.append((owner, attr, original))
                    setattr(owner, attr, make(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    @contextmanager
    def span(self, name: str, scope: Optional[str] = None):
        """A span opened by the benchmark itself, e.g. one whole job."""
        outer = self.scope
        if scope is not None:
            self.scope = scope
        index = len(self.records)
        self.records.append(None)
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append((index, name))
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.records[index] = (name, start, end, parent, self.scope)
            self.scope = outer

    def count(self, name: str, n: int = 1) -> None:
        """Add to a count the benchmark keeps itself (blocks, lines, cycles)."""
        self.counts[self.scope, name, ""] += n

    def counted(self, scope: Optional[str], name: str, parent=None) -> int:
        return sum(v for (s, n, p), v in self.counts.items()
                   if (scope is None or s == scope) and n == name
                   and (parent is None or p == parent))

    # ---------------------------------------------------------- analysis

    def summary(self) -> Summary:
        out = Summary()
        child = [0.0] * len(self.records)
        for index in range(len(self.records) - 1, -1, -1):
            name, start, end, parent, _ = self.records[index]
            if parent >= 0:
                child[parent] += end - start
        for index, (name, start, end, parent, scope) in enumerate(self.records):
            duration = end - start
            own = duration - child[index]
            parent_name = self.records[parent][0] if parent >= 0 else ""
            if parent >= 0:
                p_start, p_end = self.records[parent][1:3]
                if own > p_end - p_start or start < p_start or end > p_end:
                    out.violations += 1
            if own < 0:
                out.violations += 1
            key = (scope, name, parent_name)
            out.calls[key] += 1
            out.total[key] += duration
            out.self_time[key] += own
        return out


_PRISTINE = [(owner, attr, name, getattr(owner, attr)) for owner, attr, name
             in SPANS + COUNTERS]


def wrapped_attributes() -> List[str]:
    """Names of targets that do not hold their original function now."""
    return [name for owner, attr, name, original in _PRISTINE
            if getattr(owner, attr) is not original]
