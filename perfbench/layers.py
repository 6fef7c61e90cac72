"""The traced run: per-layer metrics from spans, counts and observer sweeps.

Untraced and traced operations alternate until the time is up or
``MAX_TRACED_OPS`` operations have been traced, so the
tracing overhead (``trace.overhead_ratio``) is measured against runs taken at
the same moment.  Each traced operation also records the DET001 dispatch
digest.  Afterwards one operation runs with no observers and one with each
observer the workload attaches, for the observer overhead ratios; a workload
that attaches no observer runs one plain operation, and its ratios compare
two plain runs (the noise floor, predicted about 1.0).
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

from repro.analysis.determinism import trace_run

from tracer import LAYERS, OBSERVERS, SPAN_METRICS, Tracer

#: traced operations per run at most: spans of a dhry_smp operation take
#: about 30 MB while the run lasts
MAX_TRACED_OPS = 3

#: layer boundaries the workload's design says it never reaches
ZERO_CALL_PREDICTIONS = {
    "boot_idle": ("iss.interp", "arch.mmu", "iss.memmap"),
    "fig5_observed": ("iss.interp", "arch.mmu", "iss.memmap"),
}


def traced_run(workload, inputs, seconds) -> dict:
    tracer = Tracer()
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or (len(traced) < MAX_TRACED_OPS
                         and time.perf_counter() < deadline):
        untraced.append(workload.run_op(inputs, Tracer()))
        with tracer.attached():
            kernel_trace = trace_run(lambda: traced.append(
                workload.run_op(inputs, tracer)))
        traced[-1].trace_digest = kernel_trace.digest()

    plain = workload.run_op(inputs, Tracer(), observers=())
    alone = {name: workload.run_op(inputs, Tracer(), observers=(name,))
             for name in workload.observers}

    def wall(op):
        return op.wall_s * op.speed

    observed_wall = statistics.median(wall(op) for op in untraced)
    ratios = {"observers": observed_wall / wall(plain)}
    for name in OBSERVERS:
        ratios[name] = (wall(alone[name]) if name in alone else observed_wall) / wall(plain)

    self_times = tracer.self_times()
    metrics = layer_metrics(self_times, tracer.counts, len(traced))
    for name in ("observers",) + OBSERVERS:
        metrics[f"{name}.overhead_ratio"] = (ratios[name], "ratio")
    # Neighbouring operations: the traced one has no speed reading.
    metrics["trace.overhead_ratio"] = (statistics.median(
        op.wall_s / before.wall_s for before, op in zip(untraced, traced)), "ratio")

    platform_runs = [{"op": number, "key": run.key}
                     for number, op in enumerate(traced) for run in op.runs]
    return {
        "metrics": metrics, "tracer": tracer, "self_times": self_times,
        "untraced_ops": untraced + [plain] + list(alone.values()),
        "traced_ops": traced, "platform_runs": platform_runs,
        "predictions": predictions(workload.name, metrics),
    }


def layer_metrics(self_times, counts, ops: int) -> dict:
    """Per-operation self times, calls and shares (self time over total)."""
    self_ns, inclusive_ns, calls, total_ns = self_times

    def self_s(name):
        return self_ns.get(name, 0) / ops / 1e9

    def per_op(value):
        return value / ops

    metrics = {}
    for name in SPAN_METRICS:
        metrics[f"{name}.self_s"] = (self_s(name), "s")
        metrics[f"{name}.calls"] = (per_op(calls.get(name, 0)), "count")
    dispatches = counts.get("systemc.dispatches", 0)
    metrics["systemc.dispatches"] = (per_op(dispatches), "count")
    metrics["systemc.ns_per_dispatch"] = (
        self_ns.get("systemc.kernel", 0) / dispatches if dispatches else 0.0, "ns")
    metrics["systemc.time.objects"] = (per_op(counts.get("systemc.time.objects", 0)), "count")
    for name in ("vcml.simulate.calls", "core.mmio_exits", "core.syncs"):
        metrics[name] = (per_op(counts.get(name, 0)), "count")
    instructions = counts.get("iss.interp.instructions", 0)
    metrics["iss.interp.ns_per_inst"] = (
        inclusive_ns.get("iss.interp", 0) / instructions if instructions else 0.0,
        "ns/inst")
    accesses = counts.get("fabric.accesses", 0)
    metrics["fabric.dmi_hit_ratio"] = (
        counts.get("fabric.dmi_hits", 0) / accesses if accesses else 0.0, "ratio")
    layer_ns = defaultdict(int)
    for name, value in self_ns.items():
        layer_ns[name.split(".")[0]] += value
    for layer in LAYERS:
        metrics[f"{layer}.share"] = (layer_ns[layer] / total_ns if total_ns else 0.0,
                                     "ratio")
    metrics["trace.total_s"] = (total_ns / ops / 1e9, "s")
    return metrics


def predictions(workload: str, metrics: dict) -> list:
    """The workload-design predictions this traced run can confirm alone."""
    results = []
    for span in ZERO_CALL_PREDICTIONS.get(workload, ()):
        calls = metrics[f"{span}.calls"][0]
        results.append({"prediction": f"{span} shows no calls", "holds": calls == 0,
                        "measured": calls})
    observed = workload == "fig5_observed"
    for name in ("observers",) + OBSERVERS:
        ratio = metrics[f"{name}.overhead_ratio"][0]
        if observed and name == "observers":
            results.append({"prediction": "all observers cost more than plain",
                            "holds": ratio > 1.0, "measured": ratio})
        elif not observed:
            results.append({"prediction": f"{name}.overhead_ratio about 1.0",
                            "holds": 0.8 <= ratio <= 1.25, "measured": ratio})
    results.append({"prediction": "systemc.kernel share (compare across workloads)",
                    "holds": None, "measured": metrics["systemc.share"][0]})
    return results


def print_breakdown(result: dict) -> None:
    metrics = result["metrics"]
    ops = len(result["traced_ops"])
    self_ns, _inclusive, calls, total_ns = result["self_times"]
    print(f"per-layer self time, per traced operation ({ops} traced; "
          f"trace.overhead_ratio {metrics['trace.overhead_ratio'][0]:.3f}: "
          "traced times are not end-to-end times)")
    print(f"  {'span':20s} {'calls':>12s} {'self_s':>12s} {'share':>8s}")
    for name in sorted(self_ns, key=self_ns.get, reverse=True):
        print(f"  {name:20s} {calls[name] / ops:12.0f} "
              f"{self_ns[name] / ops / 1e9:12.6f} {self_ns[name] / total_ns:8.2%}")
    print(f"  {'total (tiles exactly)':20s} {'':12s} "
          f"{sum(self_ns.values()) / ops / 1e9:12.6f} "
          f"{sum(self_ns.values()) / total_ns:8.2%}")
    print("per-layer metrics:")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:16.6g} {unit}")
    print("predictions:")
    for entry in result["predictions"]:
        verdict = {True: "holds", False: "FAILS", None: "see README"}[entry["holds"]]
        print(f"  {entry['prediction']}: {verdict} (measured {entry['measured']:.6g})")
    digests = sorted({op.trace_digest for op in result["traced_ops"]})
    print(f"DET001 dispatch digest: {', '.join(d[:16] for d in digests)}")
