"""Temporal decoupling: global quantum and quantum keeper.

Port of ``tlm_utils::tlm_quantumkeeper``.  A loosely-timed initiator keeps a
*local time offset* ahead of the SystemC time; it only yields back to the
kernel (synchronizes) when the offset exceeds the global quantum.  The
quantum is the paper's central performance knob: it determines the KVM run
budget per ``simulate()`` call and the synchronization frequency between the
simulated cores (Figs. 5 and 6).
"""

from __future__ import annotations

from typing import Optional

from ..systemc.kernel import Kernel, current_kernel
from ..systemc.time import SimTime


class GlobalQuantum:
    """Process-wide quantum value (``tlm::tlm_global_quantum``)."""

    def __init__(self, quantum: Optional[SimTime] = None):
        self.quantum = quantum if quantum is not None else SimTime.us(1)

    @property
    def quantum(self) -> SimTime:
        return self._quantum

    @quantum.setter
    def quantum(self, value: SimTime) -> None:
        if not isinstance(value, SimTime):
            raise TypeError("quantum must be a SimTime")
        if value.is_zero():
            raise ValueError("quantum must be non-zero")
        self._quantum = value
        #: the quantum as a plain int, read by the processor loop
        self.quantum_ps = value.picoseconds


class QuantumKeeper:
    """Tracks one initiator's local time offset against the global quantum.

    The offset is kept as an int of picoseconds.  The ``SimTime`` API
    (:meth:`current_time`, :meth:`remaining`, :meth:`inc`, :meth:`sync_wait`)
    converts at the boundary; the ``*_ps`` helpers are the processor loop's
    int-only path.
    """

    def __init__(self, global_quantum: GlobalQuantum, kernel: Optional[Kernel] = None):
        self.global_quantum = global_quantum
        self._kernel = kernel or current_kernel()
        self._offset_ps = 0

    # -- queries -----------------------------------------------------------
    @property
    def local_time_offset(self) -> SimTime:
        """How far this initiator has run ahead of SystemC time."""
        return SimTime(self._offset_ps)

    def current_time(self) -> SimTime:
        """Effective local time: kernel time plus the local offset."""
        return SimTime(self.current_time_ps())

    def current_time_ps(self) -> int:
        return self._kernel._now_ps + self._offset_ps

    def remaining(self) -> SimTime:
        """Budget left before a sync is needed."""
        return SimTime(self.remaining_ps())

    def remaining_ps(self) -> int:
        left = self.global_quantum.quantum_ps - self._offset_ps
        return left if left > 0 else 0

    def need_sync(self) -> bool:
        return self._offset_ps >= self.global_quantum.quantum_ps

    # -- mutation -------------------------------------------------------------
    def inc(self, delta: SimTime) -> None:
        if not isinstance(delta, SimTime):
            raise TypeError(f"expected SimTime, got {type(delta).__name__}")
        self._offset_ps += delta.picoseconds

    def inc_ps(self, delta_ps: int) -> None:
        self._offset_ps += delta_ps

    def set_offset(self, offset: SimTime) -> None:
        if not isinstance(offset, SimTime):
            raise TypeError(f"expected SimTime, got {type(offset).__name__}")
        self._offset_ps = offset.picoseconds

    def reset(self) -> None:
        self._offset_ps = 0

    def sync_wait(self) -> SimTime:
        """Return the wait duration that realizes the local offset.

        Usage inside an SC_THREAD::

            yield keeper.sync_wait()

        The keeper resets its offset; after the wait the process is
        synchronized with the global simulation time.
        """
        offset_ps = self._offset_ps
        self._offset_ps = 0
        return SimTime(offset_ps)
