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

#: kind -> (per-core RunStats, ledger wall_time_ns, DET001 digest).  Core 0
#: reaches the shutdown before core 1's first simulate call.
GOLDEN = {
    "aoa": (
        ((19577, 4266, 6182, 16, 0, 0), (0, 0, 0, 0, 0, 0)),
        16657.6,
        "554d8f394bf8719610ea732762c2bfe57cc133cb4c236bccd7b65e83ba9f0069",
    ),
    "avp64": (
        ((19577, 4266, 6182, 16, 0, 0), (0, 0, 0, 0, 0, 0)),
        425212.25,
        "2303b93445a5a3d675f8d8035f8298e4c8d5190e73c762f40eabe5b61cd5861a",
    ),
}


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
        vp.run(SimTime.seconds(10))

    trace = trace_run(action)
    vp = holder["vp"]
    checksum = int.from_bytes(vp.ram.data[RESULT_ADDRESS:RESULT_ADDRESS + 8], "little")
    assert checksum == expected
    stats = tuple(tuple(_executor(cpu).sample_stats()) for cpu in vp.cpus)
    return stats, vp.ledger.wall_time_ns(), trace.digest()


@pytest.mark.parametrize("kind", ["aoa", "avp64"])
def test_modeled_counters_match_golden(kind):
    stats, wall_ns, digest = _run(kind)
    golden_stats, golden_wall_ns, golden_digest = GOLDEN[kind]
    assert stats == golden_stats
    assert wall_ns == golden_wall_ns
    assert digest == golden_digest
