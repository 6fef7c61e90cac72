"""The discrete-event simulation kernel.

Implements the SystemC scheduling semantics (IEEE 1666):

1. *Evaluation phase*: run every runnable process until it waits.
2. *Update phase*: apply primitive-channel (signal) update requests.
3. *Delta notification phase*: mature delta notifications; if any process
   became runnable, start a new delta cycle at the same simulation time.
4. *Time advance*: pop the earliest timed notification(s) and continue.

Processes are cooperative generators (see :mod:`repro.systemc.process`); the
scheduler itself always runs single-threaded and fully deterministic.  The
paper's parallel execution of CPU cores is modeled by the host-time ledger
(:mod:`repro.host.accounting`), which folds per-core lanes by their maximum
within each window; the simulated cores themselves run one after another
on this scheduler with temporal decoupling.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from collections import deque
from typing import Callable, Deque, Generator, List, Optional, Set, Tuple

from .event import Event
from .process import MethodProcess, Process, ProcessState
from .time import SimTime

# Bound once: every ``ProcessState.X`` lookup is a descriptor call on
# CPython 3.11, and both are tested on every dispatch.
_SUSPENDED = ProcessState.SUSPENDED
_FINISHED = ProcessState.FINISHED


class _KernelContext(threading.local):
    """Per-thread kernel resolution state.

    ``ambient`` is the most recently constructed (or explicitly adopted)
    kernel on this thread — the elaboration-time default.  ``stack`` tracks
    nested :meth:`Kernel.run` calls so a kernel running inside another
    kernel's process (or on another thread) never clobbers its neighbour:
    the stack top always wins over the ambient kernel.
    """

    def __init__(self):
        self.ambient: Optional["Kernel"] = None
        self.stack: List["Kernel"] = []


_context = _KernelContext()


def current_kernel() -> "Kernel":
    """Return the kernel currently elaborating or simulating on this thread."""
    if _context.stack:
        return _context.stack[-1]
    if _context.ambient is None:
        raise RuntimeError("no active simulation kernel; create a Kernel first")
    return _context.ambient


def set_ambient_kernel(kernel: Optional["Kernel"]) -> None:
    """Adopt ``kernel`` as this thread's elaboration-time default.

    Other threads inherit nothing from the main thread's
    :class:`threading.local` slot, so code elaborating on one adopts the
    kernel explicitly (or passes ``None`` to drop a finished platform).
    """
    _context.ambient = kernel


class _ProcessWakeup:
    """The timed-heap action that wakes a waiting process.

    A plain class instead of a closure so the snapshot subsystem
    (:mod:`repro.snapshot`) can introspect pending wakeups — which process,
    and whether the entry is a timeout — and re-create them verbatim when a
    saved event queue is restored into a fresh kernel.
    """

    __slots__ = ("kernel", "process", "timeout")

    def __init__(self, kernel: "Kernel", process: Process, timeout: bool):
        self.kernel = kernel
        self.process = process
        self.timeout = timeout

    def __call__(self) -> None:
        self.process._wake(self.kernel, self.timeout)


class _TimedEntry:
    """A cancellable entry in the timed-notification heap.

    The heap itself holds ``(due_ps, seq, entry)`` tuples, so ``heapq``
    orders entries by integer comparison in C; the entry is the handle a
    scheduler hands back for cancellation.
    """

    __slots__ = ("due_ps", "action", "cancelled")

    def __init__(self, due_ps: int, action: Callable[[], None]):
        self.due_ps = due_ps
        self.action = action
        self.cancelled = False

    @property
    def due(self) -> SimTime:
        return SimTime(self.due_ps)


class SimulationStopped(Exception):
    """Raised internally when ``Kernel.stop()`` is requested mid-cycle."""


class TraceHookHandle:
    """Opaque handle returned by :meth:`Kernel.add_trace_hook`."""

    __slots__ = ("hook", "priority", "seq")

    def __init__(self, hook: Callable[[str, int, str], None], priority: int, seq: int):
        self.hook = hook
        self.priority = priority
        self.seq = seq


class _TraceHookChain:
    """Priority-ordered fan-out for the class-level ``Kernel.trace_hook``.

    Historically the class-level hook was a single slot, so observers that
    needed to coexist (the SAN005 lane/window tagger, the DET001 digester)
    had to shadow each other in attach order — append-only and fragile.
    The chain replaces that: each observer registers with an explicit
    priority, and dispatch always runs lower priorities first regardless of
    attach order.  Ties dispatch in attach order.

    The documented priority bands are on :class:`Kernel`:

    * ``TRACE_PRIORITY_TAGGER`` (10) — context taggers that annotate the
      current dispatch for *later* hooks (SAN005's lane/window tagger).
    * ``TRACE_PRIORITY_DIGEST`` (20) — digesters that must observe the
      dispatch stream exactly as the kernel emitted it (DET001).
    * ``TRACE_PRIORITY_OBSERVER`` (30, default) — everything else.

    ``dispatch`` is a *bound method* on purpose: storing it in the class
    attribute ``Kernel.trace_hook`` must not turn it into a descriptor that
    re-binds to the kernel instance at lookup time.
    """

    def __init__(self):
        self._entries: List[TraceHookHandle] = []
        self._seq = itertools.count()

    def add(self, hook: Callable[[str, int, str], None], priority: int) -> TraceHookHandle:
        handle = TraceHookHandle(hook, priority, next(self._seq))
        self._entries.append(handle)
        self._entries.sort(key=lambda h: (h.priority, h.seq))
        return handle

    def remove(self, handle: TraceHookHandle) -> None:
        self._entries = [entry for entry in self._entries if entry is not handle]

    def hooks_at(self, priority: int) -> List[Callable[[str, int, str], None]]:
        return [entry.hook for entry in self._entries if entry.priority == priority]

    def __len__(self) -> int:
        return len(self._entries)

    def dispatch(self, kind: str, time_ps: int, name: str) -> None:
        for entry in self._entries:
            entry.hook(kind, time_ps, name)


_trace_chain = _TraceHookChain()


class Kernel:
    """A single-threaded SystemC-like discrete-event scheduler."""

    #: Optional observer called as ``trace_hook(kind, time_ps, name)`` for
    #: every process step ("step") and method run ("method") the scheduler
    #: dispatches.  Class-level so a checker can observe kernels it did not
    #: create (see repro.analysis.determinism); must never mutate state.
    #: Dispatch sites read the attribute through the instance, so a
    #: per-kernel hook (repro.telemetry) can shadow it — such a hook must
    #: chain to the class-level one to keep the determinism checker fed.
    #:
    #: Multiple class-level observers register through
    #: :meth:`add_trace_hook` with an explicit priority; the slot then
    #: holds the chain's dispatcher.  Direct assignment still works for a
    #: single observer but cannot coexist with the chain.
    trace_hook: Optional[Callable[[str, int, str], None]] = None

    #: trace-hook priority bands (lower runs earlier; see _TraceHookChain).
    #: The SAN005 lane/window tagger must run before the DET001 digester so
    #: the access tags a dispatch produces are in place before the dispatch
    #: is sealed into the determinism digest.
    TRACE_PRIORITY_TAGGER = 10
    TRACE_PRIORITY_DIGEST = 20
    TRACE_PRIORITY_OBSERVER = 30

    #: Optional observer called as ``time_hook(now_ps)`` after every
    #: simulated-time advance (never for delta cycles).  Read through the
    #: instance like ``trace_hook`` so a per-kernel observer (repro.obs uses
    #: it to close quantum windows at exact sim-time boundaries) can shadow
    #: a class default; must never mutate simulation state.
    time_hook: Optional[Callable[[int], None]] = None

    #: Optional observer called as ``error_hook(exc)`` when an exception
    #: escapes the scheduling loop (i.e. a model blew up inside dispatch).
    #: Read through the instance like ``trace_hook`` so a per-kernel hook
    #: (repro.flight's crash bundler) can shadow the class default.  The
    #: exception is re-raised afterwards either way; the hook is a last
    #: look at the wreckage, not a handler.
    error_hook: Optional[Callable[[BaseException], None]] = None

    # -- class-level trace-hook chain --------------------------------------
    @classmethod
    def add_trace_hook(cls, hook: Callable[[str, int, str], None],
                       priority: int = TRACE_PRIORITY_OBSERVER) -> TraceHookHandle:
        """Register a class-level trace observer with an explicit priority.

        Lower ``priority`` values run earlier on every dispatch; equal
        priorities run in attach order.  Use the documented bands
        (``TRACE_PRIORITY_TAGGER`` < ``TRACE_PRIORITY_DIGEST`` <
        ``TRACE_PRIORITY_OBSERVER``) so taggers always precede digesters no
        matter who attached first.  Returns a handle for
        :meth:`remove_trace_hook`.

        Any number of hooks may share one band: ties dispatch in
        deterministic FIFO attach order (the sort key is ``(priority,
        attach sequence)`` and the sort is stable), which is what lets two
        DIGEST-tier observers — the DET001 digester and the
        ``repro.divergence`` window ledger — fold the *same* event stream
        side by side without perturbing each other's digests.
        """
        if cls.trace_hook is not None and cls.trace_hook != _trace_chain.dispatch:
            raise RuntimeError(
                "Kernel.trace_hook is directly assigned; a directly-set hook "
                "cannot coexist with add_trace_hook() observers")
        handle = _trace_chain.add(hook, priority)
        Kernel.trace_hook = _trace_chain.dispatch
        return handle

    @classmethod
    def remove_trace_hook(cls, handle: TraceHookHandle) -> None:
        """Detach a hook registered via :meth:`add_trace_hook`."""
        _trace_chain.remove(handle)
        if not len(_trace_chain) and cls.trace_hook == _trace_chain.dispatch:
            Kernel.trace_hook = None

    @classmethod
    def trace_hooks_at(cls, priority: int) -> List[Callable[[str, int, str], None]]:
        """The hooks currently registered in one priority band (introspection)."""
        return _trace_chain.hooks_at(priority)

    def __init__(self):
        self._now = SimTime.zero()
        #: ``_now`` as a plain int; what the scheduler and the quantum path
        #: compute with (both are set together by :meth:`_set_now`)
        self._now_ps = 0
        self._runnable: Deque[Process] = deque()
        self._runnable_set = set()
        self._delta_events: List[Event] = []
        self._delta_wakeups: List[Process] = []
        self._timed: List[Tuple[int, int, _TimedEntry]] = []
        self._seq = itertools.count()
        self._processes: List[Process] = []
        self._methods: Deque[MethodProcess] = deque()
        self._update_requests: List = []
        self._update_request_ids: Set[int] = set()
        self._stop_requested = False
        self._running = False
        self._current_process: Optional[Process] = None
        self.delta_count = 0
        _context.ambient = self

    # -- registration -----------------------------------------------------
    def spawn(self, body: Callable[[], Generator], name: str = "process") -> Process:
        """Create a new SC_THREAD-like process and make it initially runnable."""
        process = Process(name, body, self)
        self._processes.append(process)
        self._make_runnable(process)
        return process

    def create_method(
        self, callback: Callable[[], None], name: str = "method", sensitive_to=()
    ) -> MethodProcess:
        method = MethodProcess(name, callback, self, sensitive_to)
        for event in method.sensitivity:
            event._attach(self)
            event._add_waiter(_MethodWaiter(method))
        return method

    def event(self, name: str = "event") -> Event:
        return Event(name, self)

    # -- state --------------------------------------------------------------
    @property
    def now(self) -> SimTime:
        return self._now

    def _set_now(self, now_ps: int) -> None:
        self._now_ps = now_ps
        self._now = SimTime(now_ps)

    @property
    def current_process(self) -> Optional[Process]:
        return self._current_process

    def pending_activity(self) -> bool:
        return bool(self._runnable or self._delta_events or self._delta_wakeups or self._timed)

    # -- scheduling hooks (used by Event/Process) ------------------------------

    def _make_runnable(self, process: Process) -> None:
        if process.state is _FINISHED:
            return
        if process not in self._runnable_set:
            self._runnable.append(process)
            self._runnable_set.add(process)

    def _trigger_event(self, event: Event) -> None:
        # Immediate notification: wake all waiters right now.
        for waiter in list(event._waiters):
            waiter._wake(self)

    def _schedule_delta_notification(self, event: Event) -> None:
        self._delta_events.append(event)

    def _schedule_delta_wakeup(self, process: Process) -> None:
        self._delta_wakeups.append(process)

    def _push_timed(self, due_ps: int, action: Callable[[], None]) -> _TimedEntry:
        """The one way into the timed heap: ``action`` runs at ``due_ps``.

        Entries due at the same time run in push (FIFO) order.
        """
        seq = next(self._seq)
        entry = _TimedEntry(due_ps, action)
        heapq.heappush(self._timed, (due_ps, seq, entry))
        return entry

    def _schedule_timed_notification(self, event: Event, due: SimTime) -> _TimedEntry:
        return self._push_timed(due.picoseconds, event._fire)

    def _schedule_timed_wakeup(self, process: Process, due_ps: int,
                               timeout: bool = False) -> _TimedEntry:
        return self._push_timed(due_ps, _ProcessWakeup(self, process, timeout))

    def schedule_callback(self, delay: SimTime, callback: Callable[[], None]) -> _TimedEntry:
        """Run ``callback`` after ``delay`` simulated time (kernel context)."""
        return self._push_timed((self._now + delay).picoseconds, callback)

    def _queue_method(self, method: MethodProcess) -> None:
        self._methods.append(method)

    def request_update(self, channel) -> None:
        """Primitive-channel update request (``sc_prim_channel``).

        Deduplicated by identity in O(1); the list keeps first-request
        order, which is the order ``_update()`` calls run in.
        """
        if id(channel) not in self._update_request_ids:
            self._update_requests.append(channel)
            self._update_request_ids.add(id(channel))

    # -- control ---------------------------------------------------------------
    def stop(self) -> None:
        self._stop_requested = True

    def run(self, duration: Optional[SimTime] = None) -> SimTime:
        """Run the simulation.

        With ``duration`` the kernel simulates at most that much additional
        time; without it, until no activity remains or :meth:`stop` is
        called.  Returns the simulation time reached.
        """
        _context.stack.append(self)
        deadline = None if duration is None else (self._now + duration).picoseconds
        self._stop_requested = False
        self._running = True
        try:
            while not self._stop_requested:
                self._delta_cycle()
                if self._stop_requested:
                    break
                if self._runnable:
                    continue
                if not self._advance_time(deadline):
                    break
        except Exception as exc:
            hook = self.error_hook
            if hook is not None:
                hook(exc)
            raise
        finally:
            self._running = False
            _context.stack.pop()
        if (not self._stop_requested and deadline is not None
                and self._now_ps < deadline and not self.pending_activity()):
            self._set_now(deadline)
        return self._now

    # -- internals --------------------------------------------------------------
    def _delta_cycle(self) -> None:
        """One evaluate/update/delta-notify cycle at the current time."""
        runnable, methods = self._runnable, self._methods
        progressed = bool(runnable or methods)
        # Evaluation phase.
        while runnable or methods:
            while methods:
                method = methods.popleft()
                hook = self.trace_hook
                if hook is not None:
                    hook("method", self._now_ps, method.name)
                method._run()
            if not runnable:
                break
            process = runnable.popleft()
            self._runnable_set.discard(process)
            state = process.state
            if state is _FINISHED or state is _SUSPENDED:
                continue
            self._current_process = process
            try:
                hook = self.trace_hook
                if hook is not None:
                    hook("step", self._now_ps, process.name)
                process._step(self)
            finally:
                self._current_process = None
            if self._stop_requested:
                return
        # Update phase.
        if self._update_requests:
            updates, self._update_requests = self._update_requests, []
            self._update_request_ids.clear()
            for channel in updates:
                channel._update()
        # Delta notification phase.
        delta_events, delta_wakeups = self._delta_events, self._delta_wakeups
        if delta_events or delta_wakeups:
            self._delta_events, self._delta_wakeups = [], []
            for event in delta_events:
                event._fire()
            for process in delta_wakeups:
                process._wake(self)
        elif not progressed:
            return
        self.delta_count += 1

    def _advance_time(self, deadline_ps: Optional[int]) -> bool:
        """Pop the earliest timed entries; return False when simulation ends."""
        timed = self._timed
        while timed and timed[0][2].cancelled:
            heapq.heappop(timed)
        if not timed:
            return False
        due_ps = timed[0][0]
        if deadline_ps is not None and due_ps > deadline_ps:
            self._set_now(deadline_ps)
            return False
        self._set_now(due_ps)
        hook = self.time_hook
        if hook is not None:
            hook(due_ps)
        while timed and timed[0][0] == due_ps:
            entry = heapq.heappop(timed)[2]
            if not entry.cancelled:
                entry.action()
        return True


class _MethodWaiter:
    """Adapter letting a MethodProcess sit in an Event's waiter list."""

    __slots__ = ("method",)

    def __init__(self, method: MethodProcess):
        self.method = method

    def _wake(self, kernel: "Kernel", timed_out: bool = False) -> None:
        self.method.trigger()
