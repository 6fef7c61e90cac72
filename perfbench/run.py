"""Real-runtime benchmark of the simulator, end to end and layer by layer.

    python3 perfbench/run.py --workload boot_idle --seed 1 --seconds 20 --trace 0

Runs one workload (``boot_idle``, ``dhry_smp`` or ``fig5_observed``; see
``perfbench/README.md``) as a closed batch loop for ``--seconds`` seconds,
checks every run's guest-visible output and the repeatability of its modeled
outputs, and prints a table followed, on the last line, by one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, with times scaled to reference machine speed;
with ``--trace 1`` a traced run reports the per-layer breakdown.  A record of every run (and, when traced, its spans) is
written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("boot_idle", "dhry_smp", "fig5_observed")

#: glibc's mallopt parameter number for the mmap threshold
M_MMAP_THRESHOLD = -3


def pin_malloc_policy() -> bool:
    """Serve every allocation of 128 KiB or more from its own mapping.

    glibc raises its mmap threshold once a large block is freed; after that,
    each platform's 16 MiB of RAM can come from already-touched heap pages
    instead of fresh ones.  When that switch happened varied from run to run,
    and ``fig5_observed``'s set-up time with it (0.55 s or 0.25 s).  A fixed
    threshold makes every operation pay what a one-shot run pays.  Returns
    False where the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt(M_MMAP_THRESHOLD, 128 * 1024) == 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the generated guest inputs (default 1)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long to keep starting operations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run with the per-layer breakdown")
    return parser.parse_args(argv)


def load_simulator() -> None:
    """Put the checkout's ``src`` first on the path; refuse to run without it."""
    package = ROOT / "src" / "repro" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"perfbench: no simulator source at {package.parent}; "
                         "run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


def median(values):
    return statistics.median(values) if values else 0.0


def run_ops(workload, inputs, seconds, tracer):
    """Start operations until ``seconds`` have passed; at least one."""
    ops = []
    deadline = time.perf_counter() + seconds
    while not ops or time.perf_counter() < deadline:
        ops.append(workload.run_op(inputs, tracer))
    return ops


def determinism_failures(ops) -> int:
    """Platform runs whose modeled outputs differ from the first operation's."""
    reference = ops[0].modeled_outputs()
    failures = 0
    for op in ops[1:]:
        outputs = op.modeled_outputs()
        failures += sum(1 for key in reference.keys() | outputs.keys()
                        if reference.get(key) != outputs.get(key))
    return failures


def end_to_end(ops, attempted: int, failed: int) -> dict:
    """The end-to-end metrics; times are at reference speed."""
    first = ops[0]
    return {
        "wall_s": (median([op.wall_s * op.speed for op in ops]), "s"),
        "setup_s": (median([op.setup_s * op.speed for op in ops]), "s"),
        "guest_mips": (median([op.instructions / (op.wall_s * op.speed) / 1e6
                               for op in ops if op.wall_s > 0]), "MIPS"),
        "modeled_mips": (first.instructions / first.modeled_wall_ns * 1e3
                         if first.modeled_wall_ns else 0.0, "MIPS"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "pass_ratio": ((attempted - failed) / attempted if attempted else 0.0, "ratio"),
    }


def op_record(op) -> dict:
    return {
        "setup_s": op.setup_s, "wall_s": op.wall_s, "speed": op.speed,
        "attempted": op.attempted, "failed": op.failed,
        "checks": [{"claim": claim, "passed": passed} for claim, passed in op.checks],
        "runs": [{"key": run.key, "setup_s": run.setup_s, "wall_s": run.wall_s,
                  "ok": run.ok, "error": run.error, "modeled": run.modeled}
                 for run in op.runs],
        "det001_digest": op.trace_digest,
    }


def print_table(title, metrics) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:16.6g} {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get("REPRO_EXEC"):
        print("perfbench: REPRO_EXEC is set; the benchmark measures the default "
              "inline executor only, unset it", file=sys.stderr)
        return 2
    malloc_pinned = pin_malloc_policy()
    load_simulator()
    import layers
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed)
    environment = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "REPRO_EXEC": os.environ.get("REPRO_EXEC"),
        "malloc_mmap_threshold_pinned": malloc_pinned,
    }
    if args.trace:
        result = layers.traced_run(workload, inputs, args.seconds)
        ops = result["untraced_ops"] + result["traced_ops"]
    else:
        ops = run_ops(workload, inputs, args.seconds, Tracer())
    speeds = [op.speed for op in ops if op.speed is not None]
    environment["speed"] = {"median": median(speeds), "min": min(speeds),
                            "max": max(speeds)}

    mismatches = determinism_failures(ops)
    digests = {op.trace_digest for op in ops if op.trace_digest is not None}
    mismatches += max(0, len(digests) - 1)
    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops) + mismatches
    correct = failed == 0
    metrics = (result["metrics"] if args.trace
               else end_to_end(ops, attempted, failed))

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": inputs, "environment": environment,
        "correct": correct, "attempted": attempted, "failed": failed,
        "determinism_mismatches": mismatches,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "ops": [op_record(op) for op in ops],
    }
    if args.trace:
        # One spans file per workload, overwritten: a dhry_smp one is ~30 MB.
        spans_path = OUT_DIR / f"{args.workload}.spans.jsonl.gz"
        record["spans"] = {"path": str(spans_path.relative_to(ROOT)),
                           "count": result["tracer"].write(
                               str(spans_path), result["platform_runs"])}
        record["predictions"] = result["predictions"]
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True, default=str)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(ops)} operations, inputs {json.dumps(inputs)[:120]}")
    print(f"environment: python {environment['python']}, nproc "
          f"{environment['nproc']}, REPRO_EXEC unset, machine speed over "
          f"reference {environment['speed']['median']:.3f} (median; "
          f"{environment['speed']['min']:.3f}-{environment['speed']['max']:.3f})")
    if args.trace:
        layers.print_breakdown(result)
    else:
        print_table("end-to-end (median over operations, times at reference "
                    "speed):", metrics)
        print(f"  {'real wall_s / setup_s':32s} "
              f"{median([op.wall_s for op in ops]):16.6g} / "
              f"{median([op.setup_s for op in ops]):.6g} s")
        print(f"  {'fail_ratio':32s} {failed / attempted:16.6g} ratio "
              f"({failed} failed of {attempted} attempted)")
    print(f"modeled outputs repeat across operations: {mismatches == 0}; "
          f"correct: {correct}")
    for op in ops:
        for run in op.runs:
            if not run.ok:
                print(f"FAILED {run.key}: {run.error}")
        for claim, passed in op.checks:
            if not passed:
                print(f"FAILED claim: {claim}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
