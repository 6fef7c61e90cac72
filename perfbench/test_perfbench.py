"""Tests of the benchmark itself: ``python -m pytest perfbench`` from the root."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_two_runs_give_identical_modeled_outputs(name):
    workload = WORKLOADS[name]
    inputs = workload.make_inputs(7)
    first = workload.run_op(inputs, Tracer())
    second = workload.run_op(inputs, Tracer())
    assert first.failed == 0 and second.failed == 0
    assert first.modeled_outputs() == second.modeled_outputs()
    assert first.instructions > 0 and first.modeled_wall_ns > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_the_inputs(name):
    workload = WORKLOADS[name]
    assert workload.make_inputs(3) == workload.make_inputs(3)
    assert len({json.dumps(workload.make_inputs(seed)) for seed in range(8)}) > 1


def test_traced_spans_tile_the_total():
    workload = WORKLOADS["boot_idle"]
    tracer = Tracer()
    with tracer.attached():
        op = workload.run_op(workload.make_inputs(1), tracer)
    assert op.failed == 0
    self_ns, _inclusive, calls, total_ns = tracer.self_times()
    assert sum(self_ns.values()) == total_ns
    assert calls["bench.op"] == 1 and calls["systemc.kernel"] == 1
    assert calls.get("iss.interp", 0) == 0
    assert tracer.counts["systemc.dispatches"] > 0


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dhry_smp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
