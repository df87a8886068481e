"""clarkekit benchmark: end-to-end and per-layer timings of three workloads.

    python3 bench/run.py --workload {demo,experiments,latent} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from the repository root; the package is imported from ``src/``.  The
workload seed makes all inputs.  With ``--trace 0`` the workload runs
untraced for S seconds and the end-to-end metrics are reported, as times at
reference speed (see ``refclock.py``); with ``--trace 1`` a fixed number of
operations (derived from S) runs twice each, untraced and traced, and the
per-layer metrics from the trace are reported per operation, with the trace
written to ``.bench_out/``.  ``--smoke`` runs one operation at tiny size.
Every operation's outputs are checked; the last stdout line is one JSON
object ``{correct, attempted, failed, metrics}`` and the exit code is 1 when
any check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from refclock import ReferenceClock, Region

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_out"
# numpy links a threaded OpenBLAS; one thread keeps the timings steady on a
# small shared machine.  Set before numpy is imported.
BLAS_THREADS = 1
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5

END_TO_END = {
    "op_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "trajectory.plan_trajectory.calls": "count",
    "trajectory.plan_trajectory.self_s": "s",
    "trajectory.peak_abs.calls": "count",
    "trajectory.peak_abs.self_s": "s",
    "trajectory.evaluate.calls": "count",
    "trajectory.evaluate.points": "count",
    "trajectory.evaluate.self_s": "s",
    "simulate.desired_stream.calls": "count",
    "simulate.desired_stream.self_s": "s",
    "simulate.run.calls": "count",
    "simulate.run.ticks": "count",
    "simulate.run.self_s": "s",
    "simulate.run.ticks_per_s": "1/s",
    "fileio.write_csv.calls": "count",
    "fileio.write_csv.bytes": "B",
    "fileio.write_csv.self_s": "s",
    "fileio.write_csv.mb_per_s": "MB/s",
    "fileio.sha256_file.self_s": "s",
    "fileio.write_json.self_s": "s",
    "cli.cmd_demo.self_s": "s",
    "core.transform_pair.calls": "count",
    "core.arc_forward_matrix.calls": "count",
    "core.to_arc.self_s": "s",
    "retarget.make_transfer_map.calls": "count",
    "retarget.TransferMap.apply.vectors": "count",
    "retarget.TransferMap.apply.self_s": "s",
    "retarget.perturbation_analysis.points": "count",
    "retarget.perturbation_analysis.self_s": "s",
    "sampling.sample_joints.draws": "count",
    "sampling.sample_joints.self_s": "s",
    "sampling.sample_clarke_disk.self_s": "s",
    "designs.builtin_designs.calls": "count",
    "designs.design_report.self_s": "s",
    "trace.ops": "count",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("demo", "experiments", "latent"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one operation per workload at tiny size")
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one set-up in this process and print it (internal)")
    parser.add_argument("--write-reference", action="store_true",
                        help="rewrite the default-seed reference metrics and exit")
    args = parser.parse_args(argv)
    if args.workload is None and not (args.setup_probe or args.write_reference):
        parser.error("--workload is required")
    return args


def set_up() -> float:
    """Import clarkekit, build the designs and warm every layer; seconds
    taken at reference speed."""
    with ReferenceClock().running() as clock:
        region = Region(clock)
        with region():
            import clarkekit
            if Path(clarkekit.__file__).resolve().parent != SRC / "clarkekit":
                raise SystemExit(f"clarkekit was imported from {clarkekit.__file__}, not {SRC}")
            import workloads
            workloads.warm_up(WORK_DIR)
    return region.reference_s()


def setup_seconds(first: float, samples: int) -> float:
    """Median set-up time: this process's own, plus fresh-process probes."""
    times = [first]
    for _ in range(samples - 1):
        probe = subprocess.run([sys.executable, __file__, "--setup-probe"], cwd=ROOT,
                               capture_output=True, text=True, check=True, timeout=120)
        times.append(float(probe.stdout.split()[-1]))
    return statistics.median(times)


class Traced(Region):
    """A region whose tracer records spans only inside its blocks."""

    def __init__(self, tracer):
        super().__init__()
        self.tracer = tracer

    @contextlib.contextmanager
    def __call__(self):
        self.tracer.active = True
        try:
            with super().__call__():
                yield
        finally:
            self.tracer.active = False


class Loop:
    """Closed loop over a workload's operations, counting failed checks."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def run(self, i: int, region: Region) -> Region | None:
        """Run operation i, timing its calls into the program in ``region``;
        the region, or None if the operation failed."""
        self.attempted += 1
        try:
            problems = self.workload.run_op(i, region)
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            self.failed += 1
            print(f"operation {i} failed:", *problems, sep="\n  ", file=sys.stderr)
            return None
        return region


def measure(loop: Loop, seconds: float, once: bool) -> tuple[dict, dict]:
    """End-to-end metrics of a timed closed loop, and its raw wall times."""
    regions = []
    start = time.perf_counter()
    with ReferenceClock().running() as clock:
        while not (loop.attempted and (once or time.perf_counter() - start >= seconds)):
            region = loop.run(loop.attempted, Region(clock))
            if region is not None:
                regions.append(region)
    if not regions:
        return {}, {}
    reference = [region.reference_s() for region in regions]
    kernel = [sample for region in regions for sample in region.kernel_s]
    raw = {
        "wall_op_ms_p50": statistics.median(region.wall_s for region in regions) * 1e3,
        "kernel_ms_p50": statistics.median(kernel) * 1e3,
        "kernel_samples": len(kernel),
    }
    return {
        "op_ms_p50": statistics.median(reference) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, raw


def trace(loop: Loop, ops: int, spans_path: Path) -> dict:
    """Run ops operations untraced and traced in turn; per-layer metrics per op."""
    from tracer import Tracer

    tracer = Tracer()
    untraced = traced = 0.0
    for i in range(ops):
        plain = loop.run(i, Region())
        tracer.install()
        try:
            timed = loop.run(i, Traced(tracer))
        finally:
            tracer.uninstall()
        if plain is not None and timed is not None:
            untraced += plain.wall_s
            traced += timed.wall_s
    tracer.write_spans(spans_path)
    values = {"trace.ops": ops, "trace.overhead_ratio": traced / untraced if untraced else 0.0}
    calls, own = tracer.call_counts(), tracer.self_times()
    for name in calls:
        values[f"{name}.calls"] = calls[name] / ops
        values[f"{name}.self_s"] = own[name] / ops
    for key, amount in tracer.counts.items():
        values[key] = amount / ops
    run_s, csv_s = own["simulate.run"], own["fileio.write_csv"]
    values["simulate.run.ticks_per_s"] = (
        tracer.counts.get("simulate.run.ticks", 0) / run_s if run_s else 0.0)
    values["fileio.write_csv.mb_per_s"] = (
        tracer.counts.get("fileio.write_csv.bytes", 0) / 1e6 / csv_s if csv_s else 0.0)
    return {name: values.get(name, 0.0) for name in PER_LAYER}


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "clarkekit" / "__init__.py").is_file():
        print(f"error: no clarkekit sources under {SRC}", file=sys.stderr)
        return 2
    for variable in THREAD_VARIABLES:
        os.environ[variable] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    WORK_DIR.mkdir(exist_ok=True)
    first_setup = set_up()
    if args.setup_probe:
        print(first_setup)
        return 0
    import workloads

    if args.write_reference:
        workloads.write_reference(WORK_DIR)
        return 0

    workload = workloads.WORKLOADS[args.workload](args.seed, WORK_DIR, args.smoke)
    loop = Loop(workload)
    if args.trace:
        ops = 1 if args.smoke else max(1, round(args.seconds / (2 * workload.nominal_op_s)))
        spans = WORK_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        metrics, raw = trace(loop, ops, spans), {}
        units = PER_LAYER
    else:
        metrics, raw = measure(loop, args.seconds, args.smoke)
        metrics["setup_s"] = setup_seconds(first_setup, 1 if args.smoke else SETUP_SAMPLES)
        units = END_TO_END
    print(json.dumps({"env": environment(), "raw": raw}))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics.get(name), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if loop.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
