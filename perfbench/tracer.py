"""Span tracer for the traced benchmark run.

Spans are recorded from this file, around the calls into each layer of the
simulator: the class methods listed in :data:`BOUNDARIES` are replaced by
recording wrappers for the duration of one traced operation and restored
afterwards, so no code under ``src/`` changes.  Observers are traced the same
way at the one place they all hook in: every instance wrapper an observer
installs through ``repro.telemetry.wrapping.WrapSet`` (telemetry, flight,
obs) and every class-level trace hook (the divergence ledger) is wrapped in a
span named after the observer.

A span is ``(name, start_ns, end_ns, parent)``.  Spans are kept in flat
arrays while the run lasts and written out when it ends.  A span's self time
is its duration minus the durations of its direct children, so the self times
of all spans add up exactly to the duration of the root spans (the traced
total).  Counts are taken at the same boundaries: every span is one call, and
the benchmark adds public counters (CPU exit counters, ``MemoryPort.stats()``,
a lowest-priority dispatch counter on the kernel trace-hook chain and a count
of ``SimTime`` constructions).
"""

from __future__ import annotations

import gzip
import json
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple

from repro.arch.mmu import Mmu
from repro.core.iss_cpu import IssCpu
from repro.core.kvm_cpu import KvmCpu
from repro.core.watchdog import Watchdog
from repro.fabric.port import MemoryPort
from repro.host.accounting import HostLedger
from repro.iss.dbt import DbtCostModel
from repro.iss.executor import GuestMemoryMap
from repro.iss.interpreter import Interpreter
from repro.iss.phase import PhaseExecutor
from repro.kvm.api import Vcpu
from repro.systemc.kernel import Kernel
from repro.systemc.time import SimTime
from repro.telemetry.wrapping import WrapSet
from repro.tlm.quantum import QuantumKeeper
from repro.vcml.processor import Processor

#: (class, method, span name): the layer boundaries timed inside a platform.
BOUNDARIES: Tuple[Tuple[type, str, str], ...] = (
    (Kernel, "run", "systemc.kernel"),
    (QuantumKeeper, "current_time", "tlm.quantum"),
    (QuantumKeeper, "inc", "tlm.quantum"),
    (QuantumKeeper, "sync_wait", "tlm.quantum"),
    (Processor, "bill_host_time", "vcml.bill"),
    (HostLedger, "add", "host.ledger"),
    (KvmCpu, "simulate", "core.kvm_cpu"),
    (IssCpu, "simulate", "core.iss_cpu"),
    (Watchdog, "schedule", "core.watchdog"),
    (Watchdog, "advance", "core.watchdog"),
    (Vcpu, "run", "kvm.run"),
    (PhaseExecutor, "run", "iss.phase"),
    (Interpreter, "run", "iss.interp"),
    (DbtCostModel, "charge", "iss.dbt"),
    (GuestMemoryMap, "read", "iss.memmap"),
    (GuestMemoryMap, "write", "iss.memmap"),
    (GuestMemoryMap, "find", "iss.memmap"),
    (Mmu, "translate", "arch.mmu"),
    (MemoryPort, "read", "fabric"),
    (MemoryPort, "write", "fabric"),
)

#: observer packages, traced where they hook into a platform
OBSERVERS = ("obs", "telemetry", "flight", "divergence")

#: the layers a share is reported for; ``bench`` is this harness itself
LAYERS = ("systemc", "tlm", "vcml", "host", "core", "kvm", "iss", "arch",
          "fabric", "vp", "workloads") + OBSERVERS + ("bench",)

#: span names whose self time and call count are reported individually
SPAN_METRICS = ("systemc.kernel", "tlm.quantum", "vcml.bill", "host.ledger",
                "core.kvm_cpu", "core.watchdog", "core.iss_cpu", "iss.dbt",
                "kvm.run", "iss.phase", "iss.interp", "iss.memmap",
                "arch.mmu", "fabric", "vp.build", "workloads.gen")

#: the platform-run root span; spans are written out grouped by it
PLATFORM_SPAN = "bench.platform"


def _observer_of(function) -> str:
    """``obs``/``telemetry``/``flight``/``divergence`` for observer code."""
    module = getattr(function, "__module__", None) or ""
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in OBSERVERS:
        return parts[1]
    return ""


class Tracer:
    """Records spans and counts; inert (``active`` false) until attached."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = [-1]
        self.counts: Dict[str, int] = defaultdict(int)
        self.active = False
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------
    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, function: Callable, name: str) -> Callable:
        """``function`` with every call recorded as a span called ``name``."""
        name_id = self._id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter_ns

        # The body of span(), inlined: this runs on every call of the
        # hottest methods, where a context manager would double the cost.
        def spanned(*args, **kwargs):
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return function(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return spanned

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        if not self.active:
            yield
            return
        index = len(self.span_name)
        self.span_name.append(self._id(name))
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0)
        self._stack.append(index)
        self.span_start.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.span_end[index] = time.perf_counter_ns()
            self._stack.pop()

    # -- attaching ----------------------------------------------------------
    def _patch(self, owner, attribute: str, value) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def attach(self) -> None:
        """Install every boundary wrapper; call :meth:`detach` to undo."""
        if self.active:
            raise RuntimeError("tracer already attached")
        self.active = True
        for owner, method, name in BOUNDARIES:
            self._patch(owner, method, self.wrap(owner.__dict__[method], name))

        counts = self.counts
        sim_time_init = SimTime.__init__

        def counted_init(instance, picoseconds=0):
            counts["systemc.time.objects"] += 1
            sim_time_init(instance, picoseconds)

        self._patch(SimTime, "__init__", counted_init)

        tracer = self
        wrapset_set = WrapSet.__dict__["set"]
        wrapset_wrap = WrapSet.__dict__["wrap"]

        def traced_set(wraps, target, attribute, value):
            observer = _observer_of(value)
            if observer and callable(value):
                value = tracer.wrap(value, observer)
            wrapset_set(wraps, target, attribute, value)

        def traced_wrap(wraps, target, attribute, factory):
            observer = _observer_of(factory)

            def traced_factory(original):
                wrapper = factory(original)
                return tracer.wrap(wrapper, observer) if observer else wrapper

            wrapset_wrap(wraps, target, attribute, traced_factory)

        self._patch(WrapSet, "set", traced_set)
        self._patch(WrapSet, "wrap", traced_wrap)

        add_trace_hook = Kernel.__dict__["add_trace_hook"].__func__

        def traced_add_trace_hook(cls, hook, priority=Kernel.TRACE_PRIORITY_OBSERVER):
            observer = _observer_of(hook)
            if observer:
                hook = tracer.wrap(hook, observer)
            return add_trace_hook(cls, hook, priority)

        self._patch(Kernel, "add_trace_hook", classmethod(traced_add_trace_hook))

        def count_dispatch(_kind, _time_ps, _name):
            counts["systemc.dispatches"] += 1

        # Lowest priority: every other observer has seen the dispatch first.
        self._dispatch_hook = Kernel.add_trace_hook(
            count_dispatch, Kernel.TRACE_PRIORITY_OBSERVER + 1000)

    def detach(self) -> None:
        Kernel.remove_trace_hook(self._dispatch_hook)
        for owner, attribute, original in reversed(self._undo):
            setattr(owner, attribute, original)
        self._undo.clear()
        self.active = False

    @contextmanager
    def attached(self):
        self.attach()
        try:
            yield self
        finally:
            self.detach()

    # -- analysis -----------------------------------------------------------
    def self_times(self) -> Tuple[Dict[str, int], Dict[str, int], Dict[str, int], int]:
        """Per span name: (self ns, inclusive ns, calls), plus the traced total.

        Inclusive time counts only outermost spans of a name, so a span
        nested in one of its own name (``find`` under ``read``) is not
        counted twice.
        """
        count = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        child_ns = array("q", bytes(8 * count))
        total = 0
        for index in range(count):
            parent = parents[index]
            duration = ends[index] - starts[index]
            if parent < 0:
                total += duration
            else:
                child_ns[parent] += duration
        self_ns: Dict[int, int] = defaultdict(int)
        inclusive_ns: Dict[int, int] = defaultdict(int)
        calls: Dict[int, int] = defaultdict(int)
        for index in range(count):
            name = names[index]
            duration = ends[index] - starts[index]
            self_ns[name] += duration - child_ns[index]
            calls[name] += 1
            parent = parents[index]
            if parent < 0 or names[parent] != name:
                inclusive_ns[name] += duration
        by_name = self.names
        return ({by_name[k]: v for k, v in self_ns.items()},
                {by_name[k]: v for k, v in inclusive_ns.items()},
                {by_name[k]: v for k, v in calls.items()},
                total)

    def write(self, path: str, platform_runs: List[dict]) -> int:
        """Write the spans out, one JSON line per platform run.

        ``platform_runs`` describes the ``bench.platform`` root spans in the
        order they were opened.  The spans of one platform run are
        contiguous; the operation's own spans around them (its set-up, claim
        checks and observer finalisation) go on lines with ``"platform_run":
        null``.  Each span is ``[index, name, start_ns, end_ns, parent]``
        with times from the first span and ``parent`` an index or -1.
        """
        count = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        platform_id = self._ids.get(PLATFORM_SPAN, -1)
        origin = starts[0] if count else 0
        described = iter(platform_runs)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write(json.dumps({
                "schema": "perfbench.spans/1", "names": self.names,
                "fields": ["index", "name", "start_ns", "end_ns", "parent"],
            }) + "\n")
            index = 0
            while index < count:
                if names[index] == platform_id:
                    run, stop = next(described), index + 1
                    while stop < count and starts[stop] < ends[index]:
                        stop += 1
                else:
                    run, stop = None, index + 1
                    while stop < count and names[stop] != platform_id:
                        stop += 1
                out.write('{"platform_run": %s, "spans": [' % json.dumps(run))
                out.write(",".join(
                    "[%d,%d,%d,%d,%d]" % (i, names[i], starts[i] - origin,
                                          ends[i] - origin, parents[i])
                    for i in range(index, stop)))
                out.write("]}\n")
                index = stop
        if next(described, None) is not None:
            raise ValueError("more platform runs described than recorded")
        return count
