"""Golden modeled counters for the functional interpreter.

Runs the functional Dhrystone in interpreter mode on both platforms (two
cores, parallel quantum scheme) and pins every modeled quantity the cost
models consume: per-core ``RunStats``, the ledger's modeled host wall time
and the DET001 dispatch digest.  The constants were captured before the
interpreter's hot path was rewritten, so any change to the interpreter that
moves a modeled result — not just its Python speed — fails here.
"""

import pytest

from repro.analysis.determinism import trace_run
from repro.systemc.time import SimTime
from repro.vp import VpConfig, build_platform
from repro.workloads.guest_programs import RESULT_ADDRESS, functional_dhrystone

ITERATIONS = 60

#: (kind, backend) -> (per-core RunStats, ledger wall_time_ns, DET001 digest).
#: "off" is the inline quantum loop, in which core 0 reaches the shutdown
#: before core 1's first leg; with an executor both cores run in each round.
_SERIAL_STATS = ((19576, 4266, 6182, 16, 0, 0), (19576, 4266, 6182, 16, 0, 0))
GOLDEN = {
    ("aoa", "off"): (
        ((19577, 4266, 6182, 16, 0, 0), (0, 0, 0, 0, 0, 0)),
        16657.6,
        "554d8f394bf8719610ea732762c2bfe57cc133cb4c236bccd7b65e83ba9f0069",
    ),
    ("aoa", "serial"): (
        _SERIAL_STATS,
        17057.5,
        "b2a8407a44df1394c00fa9c0f372a53b9f1f5461db88d73c212f81d4001ef93a",
    ),
    ("avp64", "off"): (
        ((19577, 4266, 6182, 16, 0, 0), (0, 0, 0, 0, 0, 0)),
        425212.25,
        "2303b93445a5a3d675f8d8035f8298e4c8d5190e73c762f40eabe5b61cd5861a",
    ),
    ("avp64", "serial"): (
        _SERIAL_STATS,
        427671.5,
        "7418d188885bece1887aa9ce5151f40e98d07318b54194864c1836348d0ed2a9",
    ),
}
# The threads backend is gated to reproduce the serial reference exactly.
GOLDEN[("aoa", "threads")] = GOLDEN[("aoa", "serial")]
GOLDEN[("avp64", "threads")] = GOLDEN[("avp64", "serial")]


def _executor(cpu):
    vcpu = getattr(cpu, "vcpu", None)
    return vcpu.executor if vcpu is not None else cpu.executor


def _run(kind):
    software, expected = functional_dhrystone(ITERATIONS)
    config = VpConfig(num_cores=2, quantum=SimTime.us(100), parallel=True)
    holder = {}

    def action():
        vp = build_platform(kind, config, software)
        holder["vp"] = vp
        try:
            vp.run(SimTime.seconds(10))
        finally:
            if vp.executor is not None:
                vp.executor.shutdown()

    trace = trace_run(action)
    vp = holder["vp"]
    checksum = int.from_bytes(vp.ram.data[RESULT_ADDRESS:RESULT_ADDRESS + 8], "little")
    assert checksum == expected
    stats = tuple(tuple(_executor(cpu).sample_stats()) for cpu in vp.cpus)
    return stats, vp.ledger.wall_time_ns(), trace.digest()


@pytest.mark.parametrize("backend", ["off", "serial", "threads"])
@pytest.mark.parametrize("kind", ["aoa", "avp64"])
def test_modeled_counters_match_golden(kind, backend, monkeypatch):
    # Through the environment, so "off" also overrides a REPRO_EXEC the
    # suite itself runs under.
    monkeypatch.setenv("REPRO_EXEC", backend)
    stats, wall_ns, digest = _run(kind)
    golden_stats, golden_wall_ns, golden_digest = GOLDEN[(kind, backend)]
    assert stats == golden_stats
    assert wall_ns == golden_wall_ns
    assert digest == golden_digest
