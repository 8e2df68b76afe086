"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--workload NAME ...]
        [--seeds 10] [--first-seed 1] [--seconds 30] [--out FILE]

For every workload it runs ``run.py --trace 0`` once per seed, one run at
a time, and prints for each end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the
distance between the quartiles as a share of the median, also for the
unscaled times that run.py prints beside the scaled ones.  With --out the
same numbers go to a JSON file, the form of ``baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

from run import ROOT, quartiles

HERE = Path(__file__).resolve().parent
UNSCALED = re.compile(r"^(\w+): median .*\(unscaled median ([0-9.]+) s\)$", re.M)


def _run(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n{proc.stderr}")
    # run.py prints the unscaled median beside each scaled time
    for name, value in UNSCALED.findall(proc.stdout):
        result["metrics"][f"{name}.unscaled"] = {"value": float(value), "unit": "s"}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    summary = {}
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = _run(workload, seed, args.seconds)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name} {m['value']:.4f}" for name, m in result["metrics"].items()),
                flush=True)
        summary[workload] = {}
        for name, vals in values.items():
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            summary[workload][name] = {"unit": units[name], "median": med, "q1": q1,
                                       "q3": q3, "spread": spread, "samples": len(vals),
                                       "values": vals}
            print(f"  {name:12s} median {med:.4f} {units[name]}, quartiles {q1:.4f} .. "
                  f"{q3:.4f}, spread {spread:.3f}, samples {len(vals)}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
