"""edmdmap benchmark: figure-recipe workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload finite_grid --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the same checkout; without it the
run exits non-zero and prints no result line. BLAS is pinned to one thread.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``tracing.py``). The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. Outputs and span files go to ``.perfbench_out/``.
"""

import os

# Pin BLAS before numpy can be imported, here and in the set-up probes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 15
MIN_PASSES = 3
# Deltas below this are float64 rounding of unit-scale eigenvalues; exact
# (zero) and rounding-level matches count alike in the geometric mean.
DELTA_FLOOR = 1e-15

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "delta_max": "1",
    "delta_gmean": "1",
    "ok_ratio": "1",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: span self times (ms per pass), exact counts per pass,
# and the derived values. A span name maps to "<name>_ms".
SPAN_METRICS = (
    "maps.forward", "maps.analyticity", "maps.build", "maps.exact",
    "observables.eval_basis", "observables.gram", "observables.fourier_cross",
    "edmd.nodes", "edmd.gemm", "edmd.quadrature", "edmd.build_infinite", "edmd.solve",
    "spectral.eig_lapack", "spectral.qr_ext", "spectral.solve_gauss", "spectral.pinv",
    "transfer.cauchy", "transfer.affine",
    "bench.config", "bench.match", "bench.csv_write", "bench.sweep", "bench.radius",
    "cli.main",
)
COUNT_METRICS = {
    "maps.forward_points": "count",
    "observables.eval_basis_calls": "count",
    "observables.basis_values": "count",
    "edmd.gemm_flops": "flop",
    "edmd.ext_route_cells": "count",
    "edmd.truncated_cells": "count",
    "spectral.eig_lapack_calls": "count",
    "spectral.eig_n3": "count",
    "spectral.qr_ext_calls": "count",
    "transfer.circle_samples": "count",
    "bench.csv_bytes": "bytes",
}


def import_program():
    """Import edmdmap from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import edmdmap
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import edmdmap from {src}: {exc}")
    if src.resolve() not in Path(edmdmap.__file__).resolve().parents:
        raise SystemExit(f"perfbench: edmdmap imported from {edmdmap.__file__}, not {src}")


def blas_facts() -> dict:
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {"blas": blas.get("name"), "blas_version": blas.get("version"), "blas_threads": threads}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def machine_facts(args, passes: int) -> dict:
    import numpy as np

    a, mu = workloads.draw_params(args.seed)
    return {
        "numpy": np.__version__,
        **blas_facts(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "a": a,
        "mu": mu,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
    }


def probe_setup(args) -> None:
    """Child mode: time importing edmdmap and building the inputs once."""
    start = time.perf_counter()
    import_program()
    workloads.build_inputs(args.workload, args.seed, OUT / f"probe-{args.workload}-{args.seed}")
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def probe_setup_once(args) -> float:
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
         "--workload", args.workload, "--seed", str(args.seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(child.stdout.strip().splitlines()[-1])["setup_s"]


class Tally:
    """Cells and output checks attempted and failed over a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: set[str] = set()

    def add(self, result: workloads.PassResult, extra_checks: dict | None = None) -> None:
        checks = {**result.checks, **(extra_checks or {})}
        self.attempted += result.cells + len(checks)
        self.failed += result.failed_cells + sum(not ok for ok in checks.values())
        self.failures |= {name for name, ok in checks.items() if not ok}
        if result.failed_cells:
            self.failures.add(f"{result.failed_cells} failed cells")


def timed_pass(inputs) -> tuple[float, dict]:
    start = time.perf_counter()
    out = workloads.run_pass(inputs)
    return time.perf_counter() - start, out


def accuracy(deltas: list[float]) -> tuple[float, float]:
    logs = [math.log(max(d, DELTA_FLOOR)) for d in deltas]
    return max(deltas), math.exp(statistics.fmean(logs))


def end_to_end_run(args, tally: Tally) -> tuple[dict, int]:
    start = time.perf_counter()
    inputs = workloads.build_inputs(args.workload, args.seed, OUT / f"{args.workload}-{args.seed}")
    # delta metrics come from the reference parameters (the paper's figures)
    reference = inputs
    if args.seed != 0:
        reference = workloads.build_inputs(args.workload, 0, OUT / f"{args.workload}-0")
    ref_result = workloads.check_pass(reference, workloads.run_pass(reference))
    tally.add(ref_result)
    delta_max, delta_gmean = accuracy(ref_result.deltas)

    # Set-up probes are spread over the run, so that they sample the same
    # machine load as the passes rather than one moment of it.
    walls, setups = [], []
    while len(walls) < MIN_PASSES or time.perf_counter() < start + args.seconds:
        if time.perf_counter() >= start + len(setups) * args.seconds / SETUP_PROBES:
            setups.append(probe_setup_once(args))
        wall, out = timed_pass(inputs)
        walls.append(wall)
        tally.add(workloads.check_pass(inputs, out))
    while len(setups) < SETUP_PROBES:
        setups.append(probe_setup_once(args))
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "delta_max": delta_max,
        "delta_gmean": delta_gmean,
        "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}, len(walls)


def layer_metrics(spans: list, counts, wall_s: float) -> tuple[dict[str, float], float]:
    """Per-layer values of one traced pass, and self times plus other_ms."""
    import tracing

    self_ms = tracing.self_times_ms(spans)
    values = {f"{name}_ms": self_ms.get(name, 0.0) for name in SPAN_METRICS}
    values.update({name: float(counts.get(name, 0)) for name in COUNT_METRICS})
    basis_values = values["observables.basis_values"]
    values["observables.ns_per_value"] = (
        values["observables.eval_basis_ms"] * 1e6 / basis_values if basis_values else 0.0
    )
    values["other_ms"] = wall_s * 1e3 - tracing.root_ms(spans)
    return values, sum(self_ms.values()) + values["other_ms"]


def traced_run(args, tally: Tally) -> tuple[dict, int]:
    import tracing

    inputs = workloads.build_inputs(args.workload, args.seed, OUT / f"{args.workload}-{args.seed}")
    tracer = tracing.Tracer()
    plain, traced, per_pass, saved = [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while len(traced) < MIN_PASSES or time.perf_counter() < deadline:
        use_trace = len(plain) > len(traced)
        if use_trace:
            tracer.install()
            tracer.reset()
        try:
            wall, out = timed_pass(inputs)
        finally:
            tracer.uninstall()
        extra = {}
        if use_trace:
            traced.append(wall)
            values, covered_ms = layer_metrics(tracer.spans, tracer.counts, wall)
            extra["trace.self_time_sum"] = math.isclose(
                covered_ms, wall * 1e3, rel_tol=1e-9, abs_tol=1e-6
            )
            per_pass.append(values)
            saved.append({"wall_ms": wall * 1e3, "spans": tracer.spans})
        else:
            plain.append(wall)
        tally.add(workloads.check_pass(inputs, out), extra)

    OUT.mkdir(parents=True, exist_ok=True)
    span_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    span_file.write_text(json.dumps({"columns": ["name", "start", "end", "parent"],
                                     "passes": saved}))
    metrics = {}
    for name in per_pass[0]:
        unit = COUNT_METRICS.get(name, "ns" if name.endswith("ns_per_value") else "ms")
        metrics[name] = {"value": statistics.median(p[name] for p in per_pass), "unit": unit}
    metrics["trace_overhead_s"] = {
        "value": statistics.median(traced) - statistics.median(plain), "unit": "s"
    }
    return metrics, len(traced) + len(plain)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.probe_setup:
        probe_setup(args)
        return 0

    import_program()
    tally = Tally()
    run = traced_run if args.trace else end_to_end_run
    metrics, passes = run(args, tally)
    print("facts " + json.dumps(machine_facts(args, passes)))
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:.6g} {metric['unit']}")
    print(f"fail_ratio {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted}) {sorted(tally.failures)}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
