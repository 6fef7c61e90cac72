"""A sampling guest profiler on the *modeled-cycle* axis.

Real ``perf`` interrupts the CPU every N microseconds of wall time and
records the PC.  Inside a deterministic VP the equivalent clock is retired
modeled cycles: the profiler takes one sample every ``interval_cycles``
cycles of guest progress and attributes the interval to the call stack
observed at that point (DESIGN.md §10 discusses why the modeled axis is
the only one that is reproducible and host-independent).

The execution models report progress in *batches* — one ``KVM_RUN`` or one
``executor.run`` retires thousands of instructions, with a single exit PC.
The profiler therefore keeps a per-track carry: ``account(cycles, stack)``
adds the batch to the carry and converts every whole multiple of the
interval into samples at the batch's stack.  The remainder stays in the
carry and is attributed to the *last seen* stack on :meth:`flush`, so the
per-symbol attribution always sums to exactly the cycles observed — the
"within 1%" acceptance bound is met by construction, and any slack is the
batching skew, not bookkeeping loss.

Output formats: a per-symbol table (``per_symbol``), a JSON summary
(``write_json``), and folded stacks (``write_folded``) — one
``frame1;frame2 count`` line per unique stack, directly loadable by
``flamegraph.pl`` / speedscope / inferno.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple


class _Track:
    """Per-(platform, core) sampling state."""

    __slots__ = ("carry", "last_stack")

    def __init__(self):
        self.carry = 0
        self.last_stack: Optional[Tuple[str, ...]] = None


class GuestProfiler:
    """Accumulates modeled-cycle samples keyed by folded call stack."""

    def __init__(self, interval_cycles: int = 10_000):
        if interval_cycles <= 0:
            raise ValueError(f"sample interval must be positive: {interval_cycles}")
        self.interval = interval_cycles
        #: folded stack tuple -> attributed modeled cycles
        self.stacks: Dict[Tuple[str, ...], int] = {}
        self._tracks: Dict[str, _Track] = {}
        self.total_cycles = 0
        self.num_samples = 0

    # -- accounting -----------------------------------------------------------
    def account(self, track: str, cycles: int, stack: Tuple[str, ...]) -> None:
        """Advance ``track`` by ``cycles`` retired at ``stack``."""
        if cycles <= 0:
            return
        state = self._tracks.get(track)
        if state is None:
            state = self._tracks[track] = _Track()
        self.total_cycles += cycles
        state.carry += cycles
        state.last_stack = stack
        samples = state.carry // self.interval
        if samples:
            weight = samples * self.interval
            state.carry -= weight
            self.stacks[stack] = self.stacks.get(stack, 0) + weight
            self.num_samples += samples

    def flush(self) -> None:
        """Attribute every track's sub-interval remainder to its last stack.

        After a flush ``sum(stacks.values()) == total_cycles`` exactly.
        Accounting may continue afterwards; the carries simply restart at 0.
        """
        for state in self._tracks.values():
            if state.carry and state.last_stack is not None:
                self.stacks[state.last_stack] = (
                    self.stacks.get(state.last_stack, 0) + state.carry)
                state.carry = 0

    # -- outputs ----------------------------------------------------------------
    def per_symbol(self) -> Dict[str, int]:
        """Leaf-frame attribution: symbol -> modeled cycles."""
        self.flush()
        table: Dict[str, int] = {}
        for stack, cycles in self.stacks.items():
            leaf = stack[-1]
            table[leaf] = table.get(leaf, 0) + cycles
        return table

    def folded_lines(self) -> List[str]:
        """Folded-stack lines (``frame1;frame2 count``), sorted for stability."""
        self.flush()
        return [f"{';'.join(stack)} {cycles}"
                for stack, cycles in sorted(self.stacks.items())]

    def write_folded(self, path: str) -> int:
        lines = self.folded_lines()
        with open(path, "w") as stream:
            for line in lines:
                stream.write(line)
                stream.write("\n")
        return len(lines)

    def write_json(self, path: str) -> None:
        self.flush()
        summary = {
            "interval_cycles": self.interval,
            "total_cycles": self.total_cycles,
            "num_samples": self.num_samples,
            "per_symbol": self.per_symbol(),
        }
        with open(path, "w") as stream:
            json.dump(summary, stream, indent=2, sort_keys=True)
            stream.write("\n")


def parse_folded(text: str) -> Dict[Tuple[str, ...], int]:
    """Parse folded-stack text back into ``{stack_tuple: cycles}``.

    The inverse of :meth:`GuestProfiler.folded_lines` (round-trip tested);
    also accepts any well-formed file from other flamegraph tooling.
    """
    stacks: Dict[Tuple[str, ...], int] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        frames_part, _sep, count_part = line.rpartition(" ")
        if not frames_part or not count_part.isdigit():
            raise ValueError(f"malformed folded line {lineno}: {line!r}")
        stack = tuple(frames_part.split(";"))
        stacks[stack] = stacks.get(stack, 0) + int(count_part)
    return stacks
