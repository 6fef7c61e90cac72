"""Golden modeled results: the one drift guard for the modeled clock.

Every row runs one scenario and pins what it produces on the modeled
clock — DET001 dispatch digests, ``RunMetrics``/``RunStats`` fields, ledger
wall time, attribution totals.  The rows are the invariant the memory
fabric, the interpreter hot path and every observer must preserve: guest
traffic gets cheaper in Python, but nothing the guest or the cost models
see moves.

* ``interp-*`` — functional Dhrystone in interpreter mode on both
  platforms (two cores, parallel quantum scheme): per-core ``RunStats``,
  the ledger's modeled host wall time and the DET001 digest.  Captured
  before the interpreter's hot path was rewritten.
* ``dhry-aoa-*`` — the modeled Dhrystone on a two-core AoA platform, once
  with a 1 ms quantum in parallel mode and once with a 100 µs quantum in
  sequential mode.
* ``boot-aoa-mmio`` — the synthetic Linux boot (scale 0.01) on a
  two-core AoA platform to the boot-done marker.  The Dhrystone rows
  make no MMIO accesses; this row makes 1314, so it is the one that
  drives KvmCpu MMIO completion through ``MemoryPort`` and the router.
* ``fig5-observed`` — the Fig. 5 experiment at scale 0.002 under
  :func:`repro.obs.observing`, aggregated over its 48 platforms: total
  instructions, modeled wall time, attribution windows, MIPS and the six
  phase totals.

Every row was captured with the memory fabric's decode cache, payload pool
and DMI promotion on *and* off, and both legs agreed, so the fabric is
pinned to the behaviour of the plain transport path it replaced.

A deliberate model change updates this table in the same change: the
failing assertion prints the observed row in the table's literal form.
"""

from pprint import pformat

import pytest

from repro.analysis.determinism import trace_run
from repro.bench.experiment import get_experiment
from repro.bench.measure import make_config, run_workload
from repro.obs import PHASES, observing
from repro.systemc.time import SimTime
from repro.vp import VpConfig, build_platform
from repro.vp.linux import LinuxBootParams, linux_boot_software
from repro.workloads.dhrystone import DhrystoneParams, dhrystone_software
from repro.workloads.guest_programs import RESULT_ADDRESS, functional_dhrystone

GOLDEN = {
    # Core 0 reaches the shutdown before core 1's first simulate call.
    "interp-aoa": {
        "stats": ((19577, 4266, 6182, 16, 0, 0), (0, 0, 0, 0, 0, 0)),
        "wall_ns": 16657.6,
        "digest": "554d8f394bf8719610ea732762c2bfe57cc133cb4c236bccd7b65e83ba9f0069",
    },
    "interp-avp64": {
        "stats": ((19577, 4266, 6182, 16, 0, 0), (0, 0, 0, 0, 0, 0)),
        "wall_ns": 425212.25,
        "digest": "2303b93445a5a3d675f8d8035f8298e4c8d5190e73c762f40eabe5b61cd5861a",
    },
    "dhry-aoa-parallel-1ms": {
        "counters": {
            "num_bus_errors": 0,
            "num_mmio": 0,
            "num_simulate_calls": 2,
            "num_syncs": 2,
            "num_wfi_suspends": 0,
        },
        "digest": "8923aa92c2323ed9a07dea00a57be871a6ef540e048e5381841c1d1f8b7b5512",
        "instructions": 13600002,
        "sim_seconds": 0.0006818,
        "wall_seconds": 0.0006886001000000001,
    },
    "dhry-aoa-sequential-100us": {
        "digest": "2f495a5f8a018de76acaa80b778b1659d24d9cd9c97a9c82ed9a84a61056a830",
    },
    "boot-aoa-mmio": {
        "boot_seconds": 0.095372938,
        "counters": {
            "num_bus_errors": 0,
            "num_mmio": 1314,
            "num_simulate_calls": 1505,
            "num_syncs": 191,
            "num_wfi_suspends": 0,
        },
        "digest": "a97b1ef8f49e81cb188cb96485942930245201b5120b93cb770b47e1e1b57e3e",
        "instructions": 627125487,
        "sim_seconds": 0.095372938,
        "wall_seconds": 0.1975995966,
    },
    "fig5-observed": {
        "instructions": 612000180,
        "mips": 1568.1236972087404,
        "phases": {
            "barrier_idle": 1818265331.0900002,
            "guest": 613657277.22,
            "irq": 0.0,
            "kernel": 56700.0,
            "mmio": 0.0,
            "overhead": 14539800.0,
        },
        "platforms": 48,
        "wall_ns": 390275448.99,
        "windows": 371,
    },
}


def _executor(cpu):
    vcpu = getattr(cpu, "vcpu", None)
    return vcpu.executor if vcpu is not None else cpu.executor


def _interpreted(kind):
    software, expected = functional_dhrystone(60)
    config = VpConfig(num_cores=2, quantum=SimTime.us(100), parallel=True)
    holder = {}

    def action():
        vp = build_platform(kind, config, software)
        holder["vp"] = vp
        vp.run(SimTime.seconds(10))

    trace = trace_run(action)
    vp = holder["vp"]
    checksum = int.from_bytes(vp.ram.data[RESULT_ADDRESS:RESULT_ADDRESS + 8], "little")
    assert checksum == expected
    return {
        "stats": tuple(tuple(_executor(cpu).sample_stats()) for cpu in vp.cpus),
        "wall_ns": vp.ledger.wall_time_ns(),
        "digest": trace.digest(),
    }


def _traced_workload(software, quantum_us, parallel, **run_kwargs):
    """DET001 digest and ``RunMetrics`` of one two-core AoA run."""
    holder = {}

    def action():
        holder["metrics"] = run_workload(
            "aoa", make_config(2, quantum_us, parallel), software(), **run_kwargs)

    trace = trace_run(action)
    return trace.digest(), holder["metrics"]


def _dhrystone(quantum_us, parallel):
    return _traced_workload(
        lambda: dhrystone_software(2, DhrystoneParams(iterations=20_000)),
        quantum_us, parallel)


def _metrics_row(digest, metrics):
    return {
        "counters": metrics.counters,
        "digest": digest,
        "instructions": metrics.instructions,
        "sim_seconds": metrics.sim_seconds,
        "wall_seconds": metrics.wall_seconds,
    }


def _dhrystone_parallel():
    return _metrics_row(*_dhrystone(1000.0, True))


def _dhrystone_sequential():
    digest, _metrics = _dhrystone(100.0, False)
    return {"digest": digest}


def _linux_boot():
    digest, metrics = _traced_workload(
        lambda: linux_boot_software(2, LinuxBootParams().scaled(0.01)),
        1000.0, False, stop_on_boot=True, max_sim_seconds=3_000.0)
    return dict(_metrics_row(digest, metrics), boot_seconds=metrics.boot_seconds)


def _fig5_observed():
    """Fig. 5 totals over every platform, as ``repro.bench --obs-dir`` sees them."""
    with observing() as obs:
        get_experiment("fig5").run(scale=0.002)
        obs.finalize()
        summaries = [summary.to_json() for summary in obs.summaries().values()]
    assert all(summary["consistent"] for summary in summaries)
    instructions = sum(summary["instructions"] for summary in summaries)
    wall_ns = sum(summary["wall_time_ns"] for summary in summaries)
    phases = dict.fromkeys(PHASES, 0.0)
    for summary in summaries:
        for lane in summary["lanes"].values():
            for phase, nanoseconds in lane["phases"].items():
                phases[phase] += nanoseconds
    return {
        "instructions": instructions,
        "mips": instructions / wall_ns * 1e3,
        "phases": phases,
        "platforms": len(summaries),
        "wall_ns": wall_ns,
        "windows": sum(summary["windows"] for summary in summaries),
    }


RUNS = {
    "interp-aoa": lambda: _interpreted("aoa"),
    "interp-avp64": lambda: _interpreted("avp64"),
    "dhry-aoa-parallel-1ms": _dhrystone_parallel,
    "dhry-aoa-sequential-100us": _dhrystone_sequential,
    "boot-aoa-mmio": _linux_boot,
    "fig5-observed": _fig5_observed,
}


@pytest.mark.parametrize("row", list(GOLDEN))
def test_modeled_results_match_golden(row):
    observed = RUNS[row]()
    assert observed == GOLDEN[row], (
        f"modeled results moved; if deliberate, set GOLDEN[{row!r}] to:\n"
        f"{pformat(observed)}")
