"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One process, no threads, one call at a time (a closed loop with
a single caller).  With ``--trace 0`` it runs whole passes of the workload
until the next pass would end after S seconds (at least one) and reports
the end-to-end metrics, with the sweeps stopped at order 9 so that a run
holds several passes; with ``--trace 1`` it runs one untraced pass and
two traced passes to order 10 and reports the per-layer metrics.  Set-up
time is the median of several fresh interpreters that import the package
and build the workload's inputs.  The end-to-end times are scaled to a reference host
speed measured while they run (``calibrate.py``); the raw times are
printed beside them.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 1 when any output is
wrong, 2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = Path(__file__).resolve().parent / "out"
SETUP_PROBES = 15

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))


def import_package() -> bool:
    """Put src/ first on sys.path and import pathclique from it."""
    if not (SRC / "pathclique" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import pathclique

    return Path(pathclique.__file__).resolve().is_relative_to(SRC)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "timed", "small"), default="full",
                        help="full runs the sweeps to order 10 when traced and to 9 "
                             "(timed) when not; small runs orders <= 8, for the self-check")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _setup_seconds(args, factor: float) -> tuple[list[float], list[float]]:
    """(scaled, raw) set-up times of fresh interpreters.  A child cannot be
    sampled from here, so the times are scaled by the median host speed
    factor of the run's passes, which just precede them."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    raw = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls with sleeps of up to 50 ms
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        raw.append(time.perf_counter() - t0)
    return [t * factor for t in raw], raw


def _timed_pass(workload, inputs, size, sampler=None):
    """(wall, cpu, checked result) of one pass, run under sampler if given."""
    from workloads import check

    with sampler or contextlib.nullcontext():
        t0, c0 = time.perf_counter(), time.process_time()
        result = workload.run_pass(inputs)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return wall, cpu, check(workload.name, size, result)


def _measure(args, workload, inputs):
    """Untraced passes for about args.seconds; end-to-end metrics."""
    walls, cpus, results, raws, factors = [], [], [], [], []
    start = time.perf_counter()
    while True:
        sampler = calibrate.Sampler()
        wall, cpu, result = _timed_pass(workload, inputs, args.size, sampler)
        raws.append((wall, cpu))
        factors.append(sampler.factor())
        wall, cpu = sampler.scale(wall, cpu)
        walls.append(wall)
        cpus.append(cpu)
        results.append(result)
        if time.perf_counter() - start + statistics.median(r[0] for r in raws) > args.seconds:
            break
    setup, setup_raw = _setup_seconds(args, statistics.median(factors))
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    summary = {
        "wall_s": (quartiles(walls), [r[0] for r in raws]),
        "cpu_s": (quartiles(cpus), [r[1] for r in raws]),
        "setup_s": (quartiles(setup), setup_raw),
    }
    for name, ((q1, med, q3), raw) in summary.items():
        print(f"{name}: median {med:.4f} s, quartiles {q1:.4f} .. {q3:.4f}, "
              f"samples {len(raw)} (unscaled median {statistics.median(raw):.4f} s)")
    print(f"peak_rss_mb: {peak_mib:.2f} MiB")
    metrics = {name: summary[name][0][1] for name in summary}
    metrics["peak_rss_mb"] = peak_mib
    return results, metrics


def _traced(args, workload, inputs):
    """One untraced and two traced passes; per-layer metrics."""
    from tracing import LAYER_METRICS, Tracer

    wall_plain, _, plain = _timed_pass(workload, inputs, args.size)
    results, problems = [plain], []
    tracer = Tracer()
    tracer.install()
    runs, walls = [], []
    try:
        for run_id in (1, 2):
            tracer.begin_run()
            wall, _, result = _timed_pass(workload, inputs, args.size)
            runs.append(tracer.end_run(run_id))
            walls.append(wall)
            results.append(result)
    finally:
        tracer.uninstall()
    for name in tracer.missing:
        print(f"warning: {name} not found, its layer metrics read 0", file=sys.stderr)

    for result in results[1:]:
        if result.digests != plain.digests:
            problems.append("traced outputs differ from the untraced pass")
    first, second = runs
    units = dict(LAYER_METRICS)
    for name in sorted(set(first) | set(second)):
        is_count = units.get(name, "count" if name.endswith(".calls") else "s") != "s"
        if is_count and first.get(name) != second.get(name):
            problems.append(f"{name} differs between traced runs: "
                            f"{first.get(name)} != {second.get(name)}")

    metrics = {}
    for name, unit in LAYER_METRICS:
        values = [run.get(name, 0) for run in runs]
        metrics[name] = values[0] if unit == "count" else statistics.median(values)
    metrics["trace.wall_s"] = statistics.median(walls)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - wall_plain

    SPAN_DIR.mkdir(exist_ok=True)
    span_path = SPAN_DIR / f"{workload.name}.spans"
    tracer.write_spans(span_path)
    print(f"spans: {len(tracer.starts)} written to {span_path.relative_to(ROOT)}")
    return results, metrics, problems


def main(argv=None) -> int:
    args = _parse(argv)
    if not import_package():
        print(f"error: no pathclique package under {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    # a timed run stops the sweeps one order lower than a traced run
    if args.size == "full" and not args.trace:
        args.size = "timed"
    inputs = workload.build(args.seed, args.size)
    if args.setup_probe:
        return 0

    if args.trace:
        from tracing import LAYER_METRICS

        results, values, problems = _traced(args, workload, inputs)
        units = dict(LAYER_METRICS)
    else:
        results, values = _measure(args, workload, inputs)
        problems = []
        units = dict(END_TO_END)

    attempted = sum(len(r.outcomes) for r in results)
    failed = sum(r.failed for r in results)
    for result in results:
        problems += result.errors()
    for problem in dict.fromkeys(problems):
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"workload {workload.name}: {len(results)} passes, "
          f"failed_frac {failed / attempted:.4f} ({failed}/{attempted})")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
