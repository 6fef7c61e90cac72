"""The benchmark's three workloads, driven through the simulator's public API.

Each workload is a closed batch loop: one caller builds a fresh platform, waits
for its simulation to finish and checks the guest-visible output before the
next one starts.  One *operation* is one pass of a workload (one boot, one
Dhrystone run, or the whole 48-platform Fig. 5 grid).

The seed perturbs only the generated guest inputs, within the ranges stated on
each ``make_inputs``; the simulator receives nothing but the generated
software and a platform configuration.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time
import traceback
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.experiment import Row
from repro.bench.fig5 import CORE_COUNTS, FULL_ITERATIONS, PLATFORMS, QUANTA_US, Fig5Dhrystone
from repro.divergence import WindowLedger
from repro.flight import recording
from repro.obs import observing
from repro.systemc.kernel import set_ambient_kernel
from repro.systemc.time import SimTime
from repro.telemetry import collecting
from repro.vp.config import VpConfig
from repro.vp.linux import LinuxBootParams, linux_boot_software
from repro.vp.platform import build_platform
from repro.workloads.dhrystone import DhrystoneParams, dhrystone_software
from repro.workloads.guest_programs import RESULT_ADDRESS, functional_dhrystone

from tracer import OBSERVERS, PLATFORM_SPAN, Tracer

#: iterations of each of the speed loop's two parts, and how often it runs
SAMPLE_ITERATIONS = 5_000
SAMPLE_STEPS = 600
SAMPLE_INTERVAL_S = 0.05
#: the loop's seconds at reference speed: its fast-state reading on the
#: 2-vCPU Xeon VM (Python 3.11.7) the benchmark was tuned on
REFERENCE_SAMPLE_S = 0.00065


class _Cell:
    __slots__ = ("acc",)


class _Tick:
    __slots__ = ("ps",)

    def __init__(self, ps: int):
        self.ps = ps

    def __add__(self, other: "_Tick") -> "_Tick":
        return _Tick(self.ps + other.ps)


def _add(cell, arg, _memory):
    cell.acc += arg


def _load(cell, arg, memory):
    cell.acc ^= memory[(cell.acc * 131 + arg) & 0xFFFFF]


def _store(cell, arg, memory):
    memory[(cell.acc + arg) & 0xFFFFF] = cell.acc & 0xFF


def _scale(cell, arg, _memory):
    cell.acc = (cell.acc * 3 + arg) & 0xFFFFFFFF


_STEPS = {0: _add, 1: _load, 2: _store, 3: _scale}
_PROGRAM = tuple((index % 4, index % 7) for index in range(64))


def speed_loop(memory: bytearray) -> int:
    """A fixed pure-Python loop: integer arithmetic, then a small dispatch
    loop over slotted objects, fresh small objects and a 1 MiB byte array —
    the kinds of work the simulator does, which slow phases of the host hit
    harder than arithmetic alone."""
    total = 0
    for value in range(SAMPLE_ITERATIONS):
        total += value * value & 0xFF
    cell = _Cell()
    cell.acc = 1
    tick = one = _Tick(1)
    for step in range(SAMPLE_STEPS):
        code, arg = _PROGRAM[step & 63]
        _STEPS[code](cell, arg, memory)
        tick = tick + one
    return total + cell.acc + tick.ps


class SpeedSampler:
    """Reads the machine's speed while an operation runs.

    A real-time interval timer interrupts the operation every
    ``SAMPLE_INTERVAL_S``, and the handler times :func:`speed_loop`.
    The median loop time gives the operation's speed factor, and
    :meth:`clock` is ``perf_counter`` less the time spent sampling, so the
    operation's own times exclude the sampler.
    """

    def __init__(self):
        self.samples: List[float] = []
        self.spent_s = 0.0
        self._memory = bytearray(1 << 20)

    def _sample(self, _signum=None, _frame=None) -> None:
        started = time.perf_counter()
        speed_loop(self._memory)
        elapsed = time.perf_counter() - started
        self.samples.append(elapsed)
        self.spent_s += elapsed

    def clock(self) -> float:
        return time.perf_counter() - self.spent_s

    @property
    def speed(self) -> float:
        """Machine speed over reference speed during the operation."""
        return REFERENCE_SAMPLE_S / statistics.median(self.samples)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self._sample()


@dataclass
class OpContext:
    """What every platform run of one operation shares."""

    tracer: Tracer
    clock: Callable[[], float]
    layer_counts: Optional[Dict]


@dataclass
class PlatformRun:
    """One fresh platform: build, run to completion, check its output."""

    key: str
    setup_s: float = 0.0
    wall_s: float = 0.0
    ok: bool = False
    error: Optional[str] = None
    #: the modeled clock: deterministic, identical on every repeat
    modeled: Dict[str, float] = field(default_factory=dict)


@dataclass
class OpResult:
    """One operation: its platform runs, claim checks and both clocks."""

    runs: List[PlatformRun]
    checks: List[Tuple[str, bool]]
    setup_s: float
    wall_s: float
    trace_digest: Optional[str] = None
    #: machine speed over reference speed; None for a traced operation
    speed: Optional[float] = None

    @property
    def attempted(self) -> int:
        return len(self.runs) + len(self.checks)

    @property
    def failed(self) -> int:
        return (sum(1 for run in self.runs if not run.ok)
                + sum(1 for _, passed in self.checks if not passed))

    @property
    def instructions(self) -> int:
        return sum(int(run.modeled.get("instructions", 0)) for run in self.runs)

    @property
    def modeled_wall_ns(self) -> float:
        return sum(run.modeled.get("modeled_wall_ns", 0.0) for run in self.runs)

    def modeled_outputs(self) -> Dict[str, Dict[str, float]]:
        return {run.key: run.modeled for run in self.runs}


def _modeled_outputs(vp, end_time: SimTime) -> Dict[str, float]:
    return {
        "instructions": vp.total_instructions(),
        "modeled_wall_ns": vp.ledger.wall_time_ns(),
        "sim_time_ps": end_time.picoseconds,
        "num_mmio": sum(cpu.num_mmio for cpu in vp.cpus),
        "num_syncs": sum(cpu.num_syncs for cpu in vp.cpus),
    }


def run_platform(ctx: OpContext, key: str, kind: str, config: VpConfig,
                 software: Callable, check: Callable, max_sim_seconds: float,
                 stop_on_boot: bool = False) -> PlatformRun:
    """Build and run one platform; an exception fails this run only.

    ``software`` returns the guest software (its time is set-up time);
    ``check(vp)`` returns an error string when the guest output is wrong.
    """
    run = PlatformRun(key)
    tracer, clock = ctx.tracer, ctx.clock
    with tracer.span(PLATFORM_SPAN):
        started = clock()
        dispatched = None
        try:
            with tracer.span("workloads.gen"):
                guest = software()
            with tracer.span("vp.build"):
                vp = build_platform(kind, config, guest)
            if stop_on_boot:
                vp.simctl.on_boot_done = lambda _t: vp.sim.stop()
            dispatched = clock()
            try:
                with tracer.span("vp.run"):
                    end_time = vp.run(SimTime.seconds(max_sim_seconds))
            finally:
                if vp.executor is not None:
                    vp.executor.shutdown()
            finished = (vp.all_halted or vp.simctl.shutdown_requested
                        or (stop_on_boot and vp.simctl.boot_done_at is not None))
            run.modeled = _modeled_outputs(vp, end_time)
            if not finished:
                run.error = f"hit the {max_sim_seconds} s sim-time guard"
            else:
                run.error = check(vp)
            run.ok = run.error is None
            if ctx.layer_counts is not None:
                _count_layers(vp, ctx.layer_counts)
        except Exception:  # noqa: BLE001 - one failed run, the benchmark goes on
            run.error = traceback.format_exc(limit=-3)
        ended = clock()
        if dispatched is None:
            run.setup_s = ended - started
        else:
            run.setup_s = dispatched - started
            run.wall_s = ended - dispatched
    return run


def _count_layers(vp, counts: Dict) -> None:
    """Public per-platform counters, read at the end of a traced run."""
    for cpu in vp.cpus:
        counts["core.mmio_exits"] += cpu.num_mmio
        counts["core.syncs"] += cpu.num_syncs
        counts["vcml.simulate.calls"] += cpu.num_simulate_calls
        stats = cpu.mem.stats()
        counts["fabric.accesses"] += stats["reads"] + stats["writes"]
        counts["fabric.dmi_hits"] += stats["dmi_hits"]
        if vp.software.mode == "interpreter":
            counts["iss.interp.instructions"] += cpu.instructions_retired


class Workload:
    """A named workload: inputs from a seed, one operation per call."""

    name = ""
    #: observers attached while the workload runs (a subset of OBSERVERS)
    observers: Tuple[str, ...] = ()

    def make_inputs(self, seed: int) -> dict:
        raise NotImplementedError

    def run_op(self, inputs: dict, tracer: Tracer,
               observers: Optional[Tuple[str, ...]] = None) -> OpResult:
        """One operation with ``observers`` (default: the workload's own).

        With ``tracer`` attached, the platforms' public counters are added
        to ``tracer.counts``.
        """
        if observers is None:
            observers = self.observers
        # Start every operation from a collected heap, so the cyclic garbage
        # of the previous platforms is not collected inside this one's timing.
        gc.collect()
        # A traced operation is not sampled: its spans would absorb the
        # sampler, and its times are not end-to-end times anyway.
        sampler = None if tracer.active else SpeedSampler()
        with sampler or nullcontext():
            clock = sampler.clock if sampler else time.perf_counter
            ctx = OpContext(tracer, clock, tracer.counts if tracer.active else None)
            started = clock()
            with tracer.span("bench.op"), ExitStack() as scopes:
                obs = _open_observers(scopes, observers)
                runs, checks = self._platform_runs(inputs, ctx)
                if obs is not None:
                    with tracer.span("obs"):
                        obs.finalize()
            elapsed = clock() - started
        # The ambient kernel outlives the run and keeps the last platform
        # alive, and through telemetry's watchdog closures every platform
        # the scope observed.  Release it, so each operation ends with the
        # memory a one-shot run would leave (see README, known defects).
        set_ambient_kernel(None)
        setup = sum(run.setup_s for run in runs)
        return OpResult(runs, checks, setup, elapsed - setup,
                        speed=sampler.speed if sampler else None)

    def _platform_runs(self, inputs, ctx: OpContext):
        raise NotImplementedError


def _open_observers(scopes: ExitStack, observers: Tuple[str, ...]):
    """Enter the ambient observer scopes; returns the obs engine, if any."""
    unknown = set(observers) - set(OBSERVERS)
    if unknown:
        raise ValueError(f"unknown observers {sorted(unknown)}")
    obs = None
    if "telemetry" in observers:
        scopes.enter_context(collecting())
    if "flight" in observers:
        scopes.enter_context(recording(profile_interval=10_000))
    if "divergence" in observers:
        scopes.enter_context(WindowLedger(SimTime.us(1000)))
    if "obs" in observers:
        obs = scopes.enter_context(observing([]))
    return obs


class BootIdle(Workload):
    name = "boot_idle"
    CORES = 8
    QUANTUM_US = 100.0
    MAX_SIM_SECONDS = 3_000.0

    def make_inputs(self, seed: int) -> dict:
        """Boot parameters: console output 392-408 characters, rootfs
        30-34 blocks (each block is 11 MMIO exits); the rest is the paper
        calibration at scale 1.0."""
        rng = random.Random(seed)
        return {"console_chars": 400 + rng.randint(-8, 8),
                "rootfs_blocks": 32 + rng.randint(-2, 2)}

    def _platform_runs(self, inputs, ctx):
        params = LinuxBootParams(**inputs)
        config = VpConfig(num_cores=self.CORES, quantum=SimTime.us(self.QUANTUM_US),
                          parallel=False, wfi_annotations=False)

        def check(vp):
            if vp.simctl.boot_done_at is None:
                return "boot-done marker not reached"
            return None

        run = run_platform(ctx, "aoa/8c/100us/seq", "aoa", config,
                           lambda: linux_boot_software(self.CORES, params),
                           check, self.MAX_SIM_SECONDS, stop_on_boot=True)
        return [run], []


class DhrySmp(Workload):
    name = "dhry_smp"
    CORES = 2
    QUANTUM_US = 100.0
    MAX_SIM_SECONDS = 10.0

    def make_inputs(self, seed: int) -> dict:
        """Dhrystone iterations: 495-505."""
        rng = random.Random(seed)
        return {"iterations": 500 + rng.randint(-5, 5)}

    def _platform_runs(self, inputs, ctx):
        config = VpConfig(num_cores=self.CORES, quantum=SimTime.us(self.QUANTUM_US),
                          parallel=True)
        expected = {}

        def software():
            guest, expected["checksum"] = functional_dhrystone(inputs["iterations"])
            return guest

        def check(vp):
            got = int.from_bytes(vp.ram.data[RESULT_ADDRESS:RESULT_ADDRESS + 8],
                                 "little")
            if got != expected["checksum"]:
                return f"checksum {got} != oracle {expected['checksum']}"
            return None

        run = run_platform(ctx, "aoa/2c/100us/par", "aoa", config, software,
                           check, self.MAX_SIM_SECONDS)
        return [run], []


class Fig5Observed(Workload):
    name = "fig5_observed"
    observers = OBSERVERS
    SCALE = 0.02
    MAX_SIM_SECONDS = 10_000.0

    def make_inputs(self, seed: int) -> dict:
        """The order of the 48 grid cells, shuffled by the seed."""
        cells = [(platform, cores, quantum_us, parallel)
                 for platform in PLATFORMS for cores in CORE_COUNTS
                 for quantum_us in QUANTA_US for parallel in (False, True)]
        random.Random(seed).shuffle(cells)
        return {"cells": cells}

    def _platform_runs(self, inputs, ctx):
        iterations = max(10_000, int(FULL_ITERATIONS * self.SCALE))
        software_by_cores = {}

        def software_for(cores):
            def software():
                if cores not in software_by_cores:
                    software_by_cores[cores] = dhrystone_software(
                        cores, DhrystoneParams(iterations))
                return software_by_cores[cores]
            return software

        runs, rows = [], []
        for platform, cores, quantum_us, parallel in inputs["cells"]:
            key = f"{platform}/{cores}c/{quantum_us:g}us/{'par' if parallel else 'seq'}"
            config = VpConfig(num_cores=cores, quantum=SimTime.us(quantum_us),
                              parallel=parallel)
            run = run_platform(ctx, key, platform, config, software_for(cores),
                               lambda vp: None, self.MAX_SIM_SECONDS)
            runs.append(run)
            if run.ok:
                wall_s = run.modeled["modeled_wall_ns"] / 1e9
                rows.append(Row(
                    keys={"platform": platform, "cores": cores,
                          "quantum_us": quantum_us, "parallel": parallel},
                    values={"mips": run.modeled["instructions"] / wall_s / 1e6,
                            "wall_s": wall_s,
                            "instructions": run.modeled["instructions"]}))
        with ctx.tracer.span("bench.claims"):
            checks = []
            for expectation in Fig5Dhrystone().expectations(self.SCALE):
                try:
                    passed = bool(expectation.predicate(rows))
                except KeyError:        # a grid cell failed: claim unverifiable
                    passed = False
                checks.append((expectation.description, passed))
        return runs, checks


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (BootIdle(), DhrySmp(), Fig5Observed())
}
