"""Non-intrusive instrumentation of a virtual platform.

``enable_telemetry(vp)`` is the telemetry twin of
:func:`repro.trace.attach_platform`: one call, no model changes, pure
observation.  Every probe wraps a *bound callable on one instance* (the
same NISTT-style trick the TLM tracer uses on ``_transport_fn``), so

* models never know they are observed,
* behaviour is bit-for-bit identical with telemetry on and off (the
  determinism checker's DET001 digests do not move), and
* ``Telemetry.detach()`` restores every original callable.

Probes installed per platform:

=====================  ========================================================
``KvmCpu`` / ``Vcpu``  per-core exit-reason counters, per-reason wall-time and
                       cycle histograms, MMIO round-trip latency on the
                       modeled host axis
``Watchdog``           timers armed/fired, kick-id stale-vs-delivered counts,
                       fire-margin histogram (how late past the deadline the
                       software watchdog thread fires)
WFI / ``WAIT_IRQ``     suspend counter, idle cycles skipped, suspend→resume
                       span pairs on the simulated-time axis
``QuantumKeeper``      sync counter and quantum-utilization histogram (local
                       offset at sync / global quantum)
``MemoryPort``         fabric access counters keyed by the path that served
                       each access (DMI fast path / blocking transport /
                       debug transport), plus a failed-access counter
``Kernel``             scheduler dispatch counters and a runnable-queue depth
                       gauge, chained through the per-instance ``trace_hook``
                       seam without disturbing the class-level determinism
                       checker hook
``HostLedger``         the span timeline (:class:`~repro.telemetry.spans.
                       HostTimeline`) via the billing observer
=====================  ========================================================
"""

from __future__ import annotations

import contextlib
from typing import Callable, List, Optional, Tuple

from ..systemc.kernel import Kernel
from ..vcml.processor import SimulateAction
from .metrics import LazySeries, MetricsRegistry
from .spans import HostTimeline, SpanRecorder
from .wrapping import WrapSet

#: fraction-valued histogram bounds (quantum utilization)
FRACTION_BUCKETS = tuple(i / 10 for i in range(1, 11)) + (1.5, 2.0)


class _Series:
    """A scope's per-event instruments, bound on their first observation.

    Each attribute is a :class:`LazySeries` keyed by core (and then by exit
    reason or fabric path): a tap looks its instrument up with plain dict
    hits, shared by every platform of the scope, and a tap that never fires
    registers no empty series.
    """

    def __init__(self, registry: MetricsRegistry):
        def keyed(make, name: str, label: str, **labels) -> LazySeries:
            return LazySeries(
                lambda value: make(name, **{label: value}, **labels))

        def per_core(make, name: str, label: str, **labels) -> LazySeries:
            return LazySeries(
                lambda core: keyed(make, name, label, core=core, **labels))

        counter, histogram = registry.counter, registry.histogram
        self.syncs = keyed(counter, "quantum.syncs", "core")
        self.utilization = keyed(histogram, "quantum.utilization", "core",
                                 buckets=FRACTION_BUCKETS)
        self.skipped_cycles = keyed(counter, "wfi.skipped_cycles", "core")
        self.suspends = keyed(counter, "wfi.suspends", "core")
        self.blocked_runs = keyed(counter, "wfi.blocked_runs", "core")
        self.instructions = keyed(counter, "kvm.instructions", "core")
        self.mmio_roundtrip = keyed(histogram, "kvm.mmio_roundtrip_ns", "core")
        self.exits = per_core(counter, "kvm.exits", "reason")
        self.exit_wall = keyed(histogram, "kvm.exit_wall_ns", "reason")
        self.exit_cycles = keyed(histogram, "kvm.exit_cycles", "reason")
        self.accesses = per_core(counter, "fabric.accesses", "path")
        self.errors = per_core(counter, "fabric.errors", "path")
        self.armed = keyed(counter, "watchdog.armed", "core")
        self.fired = keyed(counter, "watchdog.fired", "core")
        self.fire_margin = keyed(histogram, "watchdog.fire_margin_ns", "core")
        self.kicks_delivered = keyed(counter, "watchdog.kicks_delivered", "core")
        self.kicks_stale = keyed(counter, "watchdog.kicks_stale", "core")


class Telemetry:
    """One collection scope: a registry, span recorders, attached platforms."""

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        # `is not None`, not truthiness: an empty registry is falsy via
        # __len__ but is still the caller's registry to share.
        self.registry = registry if registry is not None else MetricsRegistry()
        self._series = _Series(self.registry)
        #: simulated-time spans (picoseconds): WFI suspend→resume pairs
        self.sim_spans = SpanRecorder(unit="ps")
        #: (key, platform, HostTimeline or None) per attached platform
        self.platforms: List[Tuple[str, object, Optional[HostTimeline]]] = []
        self._wraps = WrapSet()
        self._attached = True

    # -- wrapping machinery -------------------------------------------------
    def _wrap(self, target: object, attribute: str,
              factory: Callable[[Callable], Callable]) -> None:
        """Replace ``target.attribute`` with ``factory(original)``, undoably."""
        self._wraps.wrap(target, attribute, factory)

    def detach(self) -> None:
        """Restore every wrapped callable and ledger observer."""
        self._wraps.restore()
        for _key, vp, timeline in self.platforms:
            if timeline is not None:
                timeline.detach()
            if getattr(vp, "telemetry", None) is self:
                vp.telemetry = None
        self._attached = False

    # -- attachment -----------------------------------------------------------
    def attach(self, vp) -> "Telemetry":
        """Instrument a whole virtual platform (idempotence-guarded)."""
        if getattr(vp, "telemetry", None) is not None:
            raise ValueError(f"platform {vp.name!r} already has telemetry attached")
        key = f"{vp.name}#{len(self.platforms)}"
        timeline = HostTimeline(vp.ledger) if vp.ledger is not None else None
        self.platforms.append((key, vp, timeline))
        vp.telemetry = self
        self._attach_kernel(vp.kernel)
        watchdog = getattr(vp, "watchdog", None)
        if watchdog is not None:
            self._attach_watchdog(watchdog)
        for cpu in vp.cpus:
            self._attach_cpu(key, cpu)
        return self

    # -- kernel ---------------------------------------------------------------
    def _attach_kernel(self, kernel: Kernel) -> None:
        registry = self.registry
        step_counter = registry.counter("kernel.dispatch", kind="step")
        method_counter = registry.counter("kernel.dispatch", kind="method")
        depth_gauge = registry.gauge("kernel.runnable_depth")

        runnable = kernel._runnable

        def hook(kind: str, time_ps: int, name: str) -> None:
            # Chain to the class-level hook (the determinism checker) first:
            # shadowing it would silently blind DET001.
            class_hook = Kernel.trace_hook
            if class_hook is not None:
                class_hook(kind, time_ps, name)
            # Runs on every dispatch: a bare increment, not Counter.inc()
            # and its sign check.
            (step_counter if kind == "step" else method_counter).value += 1
            depth_gauge.set(len(runnable))

        # A plain undoable set, not a wrap: the hook must chain to the
        # *class-level* attribute at call time, not to a captured original.
        self._wraps.set(kernel, "trace_hook", hook)

    # -- watchdog -------------------------------------------------------------
    def _attach_watchdog(self, watchdog) -> None:
        series = self._series
        # The watchdog thread's current wakeup time, shared by the wrappers
        # below.  A one-slot list, not an attribute of self: armed entries
        # keep their observed_callback closures alive after detach, and
        # through self they would keep every platform of the scope alive.
        watchdog_now: List[Optional[float]] = [None]

        def make_schedule(original):
            def schedule(core_id, now_ns, timeout_ns, callback, **meta):
                series.armed[core_id].inc()
                deadline_ns = now_ns + timeout_ns

                def observed_callback():
                    series.fired[core_id].inc()
                    fire_now = watchdog_now[0]
                    if fire_now is not None:
                        series.fire_margin[core_id].observe(
                            fire_now - deadline_ns)
                    callback()

                return original(core_id, now_ns, timeout_ns, observed_callback,
                                **meta)
            return schedule

        def make_advance(original):
            def advance(core_id, now_ns):
                # Expose the watchdog thread's wakeup time to the fire
                # callbacks so the margin histogram sees modeled time only.
                saved = watchdog_now[0]
                watchdog_now[0] = now_ns
                try:
                    return original(core_id, now_ns)
                finally:
                    watchdog_now[0] = saved
            return advance

        self._wrap(watchdog, "schedule", make_schedule)
        self._wrap(watchdog, "advance", make_advance)

    # -- CPU cores ---------------------------------------------------------------
    def _attach_cpu(self, platform_key: str, cpu) -> None:
        series = self._series
        core = cpu.core_id
        keeper = cpu.keeper

        # Quantum keeper: utilization at every sync.
        global_quantum = keeper.global_quantum

        def make_sync_wait(original):
            def sync_wait():
                series.syncs[core].inc()
                series.utilization[core].observe(
                    keeper._offset_ps / global_quantum.quantum_ps)
                return original()
            return sync_wait

        self._wrap(keeper, "sync_wait", make_sync_wait)

        # WFI / WAIT_IRQ: suspend counter, skipped idle cycles, span pairs.
        suspend_track = f"{platform_key}.core{core}"
        pending_suspend: List[int] = []   # begin timestamp (ps), len <= 1

        def make_simulate(original):
            def simulate(cycles):
                if pending_suspend:
                    begin_ps = pending_suspend.pop()
                    skipped_ps = max(0, keeper.current_time_ps() - begin_ps)
                    skipped_cycles = int(round(
                        skipped_ps * 1e-12 * cpu.clock_hz))
                    series.skipped_cycles[core].inc(skipped_cycles)
                    self.sim_spans.complete(suspend_track, "wfi_suspend",
                                            begin_ps, skipped_ps, core=core)
                result = original(cycles)
                # Pure observer: WAIT_IRQ is the only action with a metric;
                # every other action passes through untouched by design.
                if result.action is SimulateAction.WAIT_IRQ:  # repro: ignore[RPR004]
                    series.suspends[core].inc()
                    # The core will realize `result.cycles` of local time,
                    # sync, then sleep: the suspend begins there.
                    pending_suspend.append(keeper.current_time_ps()
                                           + cpu.clk.cycles_to_ps(result.cycles))
                return result
            return simulate

        self._wrap(cpu, "simulate", make_simulate)

        # Fabric port: which path (dmi / transport / debug) served each
        # access.  The observer slot is a plain undoable set — MemoryPort
        # ships with on_access=None, so there is no original to chain.
        mem = getattr(cpu, "mem", None)
        if mem is not None:
            accesses, errors = series.accesses[core], series.errors[core]

            def on_access(path: str, ok: bool) -> None:
                accesses[path].inc()
                if not ok:
                    errors[path].inc()

            self._wraps.set(mem, "on_access", on_access)

        # KVM-specific probes (duck-typed: IssCpu has no vcpu/kick path).
        vcpu = getattr(cpu, "vcpu", None)
        if vcpu is not None:
            exits = series.exits[core]

            def make_run(original):
                def run(wall_budget_ns, speed_factor=1.0):
                    exit_info = original(wall_budget_ns, speed_factor)
                    reason = exit_info.reason.value
                    exits[reason].inc()
                    series.exit_wall[reason].observe(exit_info.wall_ns)
                    series.exit_cycles[reason].observe(exit_info.instructions)
                    if exit_info.instructions:
                        series.instructions[core].inc(exit_info.instructions)
                    if exit_info.blocked_in_wfi:
                        series.blocked_runs[core].inc()
                    return exit_info
                return run

            self._wrap(vcpu, "run", make_run)

            def make_handle_mmio(original):
                def handle_mmio(request):
                    before_ns = cpu.host_now_ns
                    consumed = original(request)
                    series.mmio_roundtrip[core].observe(
                        cpu.host_now_ns - before_ns)
                    return consumed
                return handle_mmio

            self._wrap(cpu, "_handle_mmio", make_handle_mmio)

        guard = getattr(cpu, "kick_guard", None)
        if guard is not None:
            def make_kick(original):
                def kick(kick_id):
                    delivered = guard.num_kicks_delivered
                    filtered = guard.num_kicks_filtered
                    original(kick_id)
                    if guard.num_kicks_delivered > delivered:
                        series.kicks_delivered[core].inc()
                    if guard.num_kicks_filtered > filtered:
                        series.kicks_stale[core].inc()
                return kick

            self._wrap(guard, "kick", make_kick)

    # -- results ---------------------------------------------------------------
    def report(self) -> str:
        from .export import run_report
        return run_report(self)

    def chrome_trace(self) -> dict:
        from .export import chrome_trace
        return chrome_trace(self)

    def write_chrome_trace(self, path: str) -> None:
        from .export import write_chrome_trace
        write_chrome_trace(self, path)

    def metrics_snapshot(self) -> dict:
        return self.registry.snapshot()


def enable_telemetry(vp, registry: Optional[MetricsRegistry] = None) -> Telemetry:
    """Instrument ``vp`` with a fresh (or shared) registry; returns the
    :class:`Telemetry` handle, also reachable as ``vp.telemetry``.

    Idempotent: calling it again on an already-instrumented platform
    returns the existing handle instead of stacking a second set of probes
    (which would double every counter).  Pass a different ``registry`` and
    you still get the existing handle — detach first to re-instrument.
    """
    existing = getattr(vp, "telemetry", None)
    if existing is not None:
        return existing
    telemetry = Telemetry(registry)
    telemetry.attach(vp)
    return telemetry


# -- collection context (used by repro.bench and repro.vp.build_platform) ------

_ACTIVE: List[Telemetry] = []


def active_telemetry() -> Optional[Telemetry]:
    """The innermost open ``collecting()`` scope, if any."""
    return _ACTIVE[-1] if _ACTIVE else None


def maybe_attach(vp) -> Optional[Telemetry]:
    """Attach ``vp`` to the active collection scope (no-op without one)."""
    telemetry = active_telemetry()
    if telemetry is not None:
        telemetry.attach(vp)
    return telemetry


@contextlib.contextmanager
def collecting(registry: Optional[MetricsRegistry] = None):
    """Scope within which every ``build_platform`` auto-attaches telemetry.

    ``repro.bench.runner`` wraps each experiment in one of these so the
    metrics sidecar written next to the experiment result covers every
    platform the experiment built, without the experiments knowing.
    """
    telemetry = Telemetry(registry)
    _ACTIVE.append(telemetry)
    try:
        yield telemetry
    finally:
        _ACTIVE.remove(telemetry)
        telemetry.detach()
