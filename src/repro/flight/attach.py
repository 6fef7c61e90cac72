"""Wiring the flight recorder, profiler and crash bundler into a platform.

:class:`Flight` is the observability twin of
:class:`repro.telemetry.instrument.Telemetry`: one ``attach(vp)`` call, no
model changes, pure observation.  Every probe replaces a bound callable on
one instance through the shared :class:`repro.telemetry.wrapping.WrapSet`,
so behaviour is bit-for-bit identical with the recorder on and off (the
determinism checker's DET001 digests do not move) and ``detach()``
restores every original.  Telemetry and flight may be attached to the same
platform in either order; the outer wrapper simply chains to the inner.

Crash-bundle triggers (see ``repro.flight.bundle``):

* a **wedged core** — the kick-id guard delivered a second kick for a run
  id it had already kicked, i.e. the first SIGUSR1 failed to end KVM_RUN;
* an **exception escaping kernel dispatch** (``Kernel.error_hook``);
* a **runtime sanitizer finding** (when attached inside an active
  ``repro.analysis.sanitize`` scope);
* a **guest panic** via the ``SimControl`` panic register.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Tuple

from ..iss.executor import ExitReason
from ..systemc.kernel import Kernel
from ..telemetry.wrapping import WrapSet
from ..vcml.processor import SimulateAction
from .bundle import CrashBundler
from .profiler import GuestProfiler
from .recorder import FlightRecorder

#: a console line longer than this is journalled in chunks
CONSOLE_LINE_LIMIT = 256

#: the journal's name for each ISS exit reason
ISS_EXIT_NAMES = {reason: reason.name.lower() for reason in ExitReason}


class Flight:
    """One black-box scope: recorder + profiler + bundler, attached platforms."""

    def __init__(self, capacity: int = 4096,
                 profile_interval: Optional[int] = 10_000,
                 crash_dir: Optional[str] = None,
                 last_n: int = 256, max_bundles: int = 5,
                 bundles: bool = True):
        self.recorder = FlightRecorder(capacity)
        self.profiler = (GuestProfiler(profile_interval)
                         if profile_interval else None)
        if crash_dir is None:
            crash_dir = os.environ.get("REPRO_FLIGHT_CRASH_DIR", "crash-bundles")
        self.bundler = (CrashBundler(self, crash_dir, last_n, max_bundles)
                        if bundles else None)
        #: (key, platform) per attached platform
        self.platforms: List[Tuple[str, object]] = []
        self._wraps = WrapSet()
        self._fire_listeners: List[Tuple[object, Callable]] = []
        self._console_buffers: List[Tuple[str, object, bytearray]] = []
        self._sanitizer_hooked = False
        self._attached = True
        #: ring stats already published (publish_metrics records deltas)
        self._published_recorded = 0
        self._published_dropped = 0

    # -- attachment -----------------------------------------------------------
    def attach(self, vp) -> "Flight":
        """Instrument a whole virtual platform (idempotence-guarded)."""
        if getattr(vp, "flight", None) is not None:
            raise ValueError(f"platform {vp.name!r} already has a flight recorder")
        key = f"{vp.name}#{len(self.platforms)}"
        self.platforms.append((key, vp))
        vp.flight = self
        self._attach_kernel(vp)
        watchdog = getattr(vp, "watchdog", None)
        if watchdog is not None:
            self._attach_watchdog(vp, watchdog)
        self._attach_simctl(vp)
        self._attach_console(key, vp)
        self._attach_sanitizers()
        for cpu in vp.cpus:
            self._attach_cpu(key, vp, cpu)
        return self

    def detach(self) -> None:
        """Restore every wrapped callable; flush pending console/profile state."""
        for key, vp, buffer in self._console_buffers:
            if buffer:
                self._record_console(key, vp, buffer)
        self._console_buffers.clear()
        if self.profiler is not None:
            self.profiler.flush()
        self.publish_metrics()
        for watchdog, listener in self._fire_listeners:
            watchdog.remove_fire_listener(listener)
        self._fire_listeners.clear()
        self._wraps.restore()
        for _key, vp in self.platforms:
            if getattr(vp, "flight", None) is self:
                vp.flight = None
        self._sanitizer_hooked = False
        self._attached = False

    def publish_metrics(self) -> None:
        """Publish journal ring statistics as telemetry metrics.

        ``flight.journal.recorded`` / ``flight.journal.dropped`` counters
        and a ``flight.journal.capacity`` gauge land in every distinct
        registry among the attached platforms' telemetry (falling back to
        the active ``collecting()`` scope), so the metrics sidecar shows
        whether the ring was large enough for the run.  Called from
        :meth:`detach`; safe to call again (counters record deltas since
        the last publish).
        """
        registries = []
        for _key, vp in self.platforms:
            telemetry = getattr(vp, "telemetry", None)
            registry = getattr(telemetry, "registry", None)
            if registry is not None and not any(r is registry
                                                for r in registries):
                registries.append(registry)
        if not registries:
            from ..telemetry import active_telemetry
            active = active_telemetry()
            if active is not None:
                registries.append(active.registry)
        recorded = self.recorder.num_recorded - self._published_recorded
        dropped = self.recorder.num_dropped - self._published_dropped
        self._published_recorded = self.recorder.num_recorded
        self._published_dropped = self.recorder.num_dropped
        for registry in registries:
            registry.counter("flight.journal.recorded").inc(recorded)
            registry.counter("flight.journal.dropped").inc(dropped)
            registry.gauge("flight.journal.capacity").set(self.recorder.capacity)

    # -- outputs ----------------------------------------------------------------
    def write_journal(self, path: str, last: Optional[int] = None) -> int:
        return self.recorder.write_jsonl(path, last=last)

    def force_watchdog_fire(self, vp, core: int = 0) -> Optional[str]:
        """Simulate a wedged core for demos/tests: the same run id is armed
        twice with a zero budget, so advancing the watchdog delivers two
        kicks for one kick id — the bundler's wedge trigger.  Returns the
        bundle path (None if bundling is off or the cap was hit)."""
        cpu = vp.cpus[core]
        guard = cpu.kick_guard
        now_ns = cpu.host_now_ns
        bundles_before = len(self.bundler.bundles) if self.bundler else 0
        guard.arm(vp.watchdog, core, now_ns, 0.0)
        guard.arm(vp.watchdog, core, now_ns, 0.0)
        vp.watchdog.advance(core, now_ns)
        if self.bundler and len(self.bundler.bundles) > bundles_before:
            return self.bundler.bundles[-1]
        return None

    # -- kernel ---------------------------------------------------------------
    def _attach_kernel(self, vp) -> None:
        kernel = vp.kernel

        def error_hook(exc: BaseException) -> None:
            # Chain to the class-level hook first (same contract as
            # trace_hook: instance hooks must not blind class observers).
            class_hook = Kernel.error_hook
            if class_hook is not None:
                class_hook(exc)
            self.recorder.record("kernel_error", kernel._now_ps,
                                 error=f"{type(exc).__name__}: {exc}")
            if self.bundler is not None:
                self.bundler.trigger(vp, "kernel-error",
                                     detail=f"{type(exc).__name__}: {exc}")

        self._wraps.set(kernel, "error_hook", error_hook)

    # -- watchdog -------------------------------------------------------------
    def _attach_watchdog(self, vp, watchdog) -> None:
        kernel = vp.kernel

        def make_schedule(original):
            def schedule(core_id, now_ns, timeout_ns, callback, **meta):
                self.recorder.record("watchdog_arm", kernel._now_ps,
                                     host_ns=now_ns, core=core_id,
                                     budget_ns=round(timeout_ns, 3),
                                     kick_id=meta.get("kick_id"))
                return original(core_id, now_ns, timeout_ns, callback, **meta)
            return schedule

        self._wraps.wrap(watchdog, "schedule", make_schedule)

        def on_fire(payload) -> None:
            self.recorder.record(
                "watchdog_fire", kernel._now_ps,
                host_ns=payload.fired_at_ns, core=payload.core_id,
                kick_id=payload.kick_id,
                budget_ns=(None if payload.budget_ns is None
                           else round(payload.budget_ns, 3)),
                margin_ns=round(payload.margin_ns, 3))

        watchdog.add_fire_listener(on_fire)
        self._fire_listeners.append((watchdog, on_fire))

    # -- SimControl -----------------------------------------------------------
    def _attach_simctl(self, vp) -> None:
        simctl = getattr(vp, "simctl", None)
        if simctl is None:
            return
        kernel = vp.kernel

        def chained(slot: str, body) -> None:
            previous = getattr(simctl, slot)

            def callback(*args):
                if previous is not None:
                    previous(*args)
                body(*args)

            self._wraps.set(simctl, slot, callback)

        chained("on_boot_done", lambda when: self.recorder.record(
            "simctl", kernel._now_ps, what="boot_done"))
        chained("on_checkpoint", lambda value, when: self.recorder.record(
            "simctl", kernel._now_ps, what="checkpoint", value=value))
        chained("on_shutdown", lambda code: self.recorder.record(
            "simctl", kernel._now_ps, what="shutdown", code=code))

        def on_panic(code: int) -> None:
            self.recorder.record("simctl", kernel._now_ps,
                                 what="panic", code=code)
            if self.bundler is not None:
                self.bundler.trigger(vp, "guest-panic",
                                     detail=f"guest panic, code {code}")

        chained("on_panic", on_panic)

    # -- guest console ----------------------------------------------------------
    def _attach_console(self, key: str, vp) -> None:
        uart = getattr(vp, "uart", None)
        if uart is None:
            return
        buffer = bytearray()
        self._console_buffers.append((key, vp, buffer))
        previous = uart.on_tx

        def on_tx(byte: int) -> None:
            if previous is not None:
                previous(byte)
            if byte == 0x0A:
                self._record_console(key, vp, buffer)
            else:
                buffer.append(byte)
                if len(buffer) >= CONSOLE_LINE_LIMIT:
                    self._record_console(key, vp, buffer)

        self._wraps.set(uart, "on_tx", on_tx)

    def _record_console(self, key: str, vp, buffer: bytearray) -> None:
        text = bytes(buffer).decode("utf-8", errors="replace")
        del buffer[:]
        self.recorder.record("console", vp.kernel._now_ps, text=text)

    # -- runtime sanitizers ------------------------------------------------------
    def _attach_sanitizers(self) -> None:
        if self._sanitizer_hooked:
            return
        from ..analysis.sanitize import active_scope
        scope = active_scope()
        if scope is None:
            return

        def make_add(original):
            def add(finding):
                original(finding)
                vp = self.platforms[-1][1] if self.platforms else None
                if vp is None:
                    return
                self.recorder.record("sanitizer", vp.kernel._now_ps,
                                     rule=finding.rule, path=finding.path,
                                     message=finding.message)
                if self.bundler is not None:
                    self.bundler.trigger(
                        vp, "sanitizer",
                        detail=f"{finding.rule}: {finding.message}")
            return add

        self._wraps.wrap(scope.collector, "add", make_add)
        self._sanitizer_hooked = True

    # -- CPU cores ---------------------------------------------------------------
    def _attach_cpu(self, key: str, vp, cpu) -> None:
        kernel = vp.kernel
        keeper = cpu.keeper
        core = cpu.core_id
        record = self.recorder.record
        symbolize = self._symbolizer(vp)
        track = f"{key}.core{core}"
        base = (key, f"core{core}")
        vcpu = getattr(cpu, "vcpu", None)
        executor = vcpu.executor if vcpu is not None else cpu.executor

        state = getattr(executor, "state", None)
        #: pc -> lr -> symbolized stack; the image's symbols never change
        stacks: Dict[int, Dict[Optional[int], Tuple[str, ...]]] = {}

        def stack_at(pc: int, lr: Optional[int]) -> Tuple[str, ...]:
            frames = list(base)
            if lr is not None:
                caller = symbolize(lr, fallback=False)
                if caller is not None:
                    frames.append(caller)
            frames.append(symbolize(pc))
            stack = stacks.setdefault(pc, {})[lr] = tuple(frames)
            return stack

        profiler = self.profiler

        def account(cycles: int, pc: int) -> None:
            if profiler is not None and cycles > 0:
                lr = state.lr if state is not None else None
                by_lr = stacks.get(pc)
                stack = by_lr.get(lr) if by_lr is not None else None
                if stack is None:
                    stack = stack_at(pc, lr)
                profiler.account(track, cycles, stack)

        # MMIO: request/response events around the TLM round trip; both CPU
        # models funnel through _handle_mmio.
        def make_handle_mmio(original):
            def handle_mmio(request):
                is_write = bool(request.is_write)
                size = len(request.data) if is_write else request.size
                record("mmio_req", kernel._now_ps, host_ns=cpu.host_now_ns,
                       core=core, address=request.address, write=is_write,
                       size=size)
                errors_before = cpu.num_bus_errors
                consumed = original(request)
                record("mmio_resp", kernel._now_ps, host_ns=cpu.host_now_ns,
                       core=core, address=request.address, cycles=consumed,
                       error=cpu.num_bus_errors > errors_before)
                if vcpu is None:
                    # IssCpu retires the trapped instruction itself
                    # (instructions_retired += 1); mirror it here.  The KVM
                    # path counts it in vcpu.complete_mmio instead.
                    account(1, getattr(executor, "pc", 0))
                return consumed
            return handle_mmio

        self._wraps.wrap(cpu, "_handle_mmio", make_handle_mmio)

        # IRQ edges into the core.
        def make_on_interrupt(original):
            def on_interrupt(number, level):
                record("irq", kernel._now_ps, core=core, line=number,
                       level=bool(level))
                return original(number, level)
            return on_interrupt

        self._wraps.wrap(cpu, "on_interrupt", make_on_interrupt)

        # WFI suspend/resume pairs on the simulated-time axis.
        pending_suspend: List[int] = []

        def make_simulate(original):
            def simulate(cycles):
                if pending_suspend:
                    begin_ps = pending_suspend.pop()
                    now_ps = keeper.current_time_ps()
                    record("wfi_resume", now_ps, core=core,
                           skipped_ps=max(0, now_ps - begin_ps))
                result = original(cycles)
                # Pure observer: only WAIT_IRQ leaves a journal entry.
                if result.action is SimulateAction.WAIT_IRQ:  # repro: ignore[RPR004]
                    resume_ps = (keeper.current_time_ps()
                                 + cpu.clk.cycles_to_ps(result.cycles))
                    record("wfi_suspend", resume_ps, core=core)
                    pending_suspend.append(resume_ps)
                return result
            return simulate

        self._wraps.wrap(cpu, "simulate", make_simulate)

        # Quantum syncs.
        def make_sync_wait(original):
            def sync_wait():
                record("quantum_sync", kernel._now_ps, core=core,
                       offset_ps=keeper._offset_ps)
                return original()
            return sync_wait

        self._wraps.wrap(keeper, "sync_wait", make_sync_wait)

        if vcpu is not None:
            # KVM model: exits, kick filtering, wedge detection, profiling.
            def make_run(original):
                def run(wall_budget_ns, speed_factor=1.0):
                    info = original(wall_budget_ns, speed_factor)
                    record("kvm_exit", kernel._now_ps,
                           host_ns=cpu.host_now_ns + info.wall_ns, core=core,
                           reason=info.reason.value, pc=info.pc,
                           instructions=info.instructions,
                           wall_ns=round(info.wall_ns, 3),
                           blocked_in_wfi=info.blocked_in_wfi)
                    account(info.instructions, info.pc)
                    return info
                return run

            self._wraps.wrap(vcpu, "run", make_run)

            def make_complete_mmio(original):
                def complete_mmio(read_data=None):
                    original(read_data)
                    account(1, getattr(executor, "pc", 0))
                return complete_mmio

            self._wraps.wrap(vcpu, "complete_mmio", make_complete_mmio)

            def make_emulate(original):
                def emulate_instruction():
                    info = original()
                    account(info.instructions, info.pc)
                    return info
                return emulate_instruction

            self._wraps.wrap(vcpu, "emulate_instruction", make_emulate)
        else:
            # ISS model: one executor.run per quantum slice.
            def make_exec_run(original):
                def run(max_instructions):
                    info = original(max_instructions)
                    record("cpu_exit", kernel._now_ps, core=core,
                           reason=ISS_EXIT_NAMES[info.reason], pc=info.pc,
                           instructions=info.instructions)
                    account(info.instructions, info.pc)
                    return info
                return run

            self._wraps.wrap(executor, "run", make_exec_run)

        guard = getattr(cpu, "kick_guard", None)
        if guard is not None:
            def make_kick(original):
                def kick(kick_id):
                    delivered_before = guard.num_kicks_delivered
                    original(kick_id)
                    record("watchdog_kick", kernel._now_ps,
                           host_ns=cpu.host_now_ns, core=core, kick_id=kick_id,
                           delivered=guard.num_kicks_delivered > delivered_before)
                return kick

            self._wraps.wrap(guard, "kick", make_kick)

            if hasattr(guard, "on_repeat_kick"):
                previous = guard.on_repeat_kick

                def on_repeat_kick(kick_id: int) -> None:
                    if previous is not None:
                        previous(kick_id)
                    record("watchdog_wedge", kernel._now_ps,
                           host_ns=cpu.host_now_ns, core=core, kick_id=kick_id)
                    if self.bundler is not None:
                        self.bundler.trigger(
                            vp, "watchdog",
                            detail=(f"core {core} kicked twice for run "
                                    f"{kick_id}: SIGUSR1 did not end KVM_RUN"),
                            payload={"core": core, "kick_id": kick_id})

                self._wraps.set(guard, "on_repeat_kick", on_repeat_kick)

    # -- symbolization -----------------------------------------------------------
    @staticmethod
    def _symbolizer(vp):
        image = vp.software.image
        offset = vp.software.load_offset

        def symbolize(pc: int, fallback: bool = True) -> Optional[str]:
            name = image.symbol_at(pc - offset)
            if name is not None:
                return name
            return f"0x{pc:x}" if fallback else None

        return symbolize


def enable_flight(vp, **kwargs) -> Flight:
    """Attach a fresh :class:`Flight` to ``vp``; also reachable as
    ``vp.flight``."""
    flight = Flight(**kwargs)
    flight.attach(vp)
    return flight
