"""Reduced-size self-check of the benchmark (orders <= 8, about a minute).

    python3 perfbench/selfcheck.py

Checks, without touching anything outside perfbench/out:
- BENCHMARK.json has the required form and lists exactly the workloads
  and metrics that run.py and tracing.py produce;
- for every workload, ``run.py --size small`` prints a final JSON line
  with exactly the keys correct, attempted, failed and metrics, and every
  metric of its mode by name and unit, with correct outputs;
- the traced run's outputs equal the untraced run's (run.py fails the run
  otherwise), its counts repeat between its two traced runs, and the span
  file it writes reads back with one root span per run;
- a wrong reference digest makes run.py exit 1 with correct false;
- without src/ next to it, run.py exits nonzero and prints no result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = HERE / "out" / "selfcheck"

sys.path.insert(0, str(ROOT / "src"))
from run import END_TO_END  # noqa: E402
from tracing import LAYER_METRICS, PASS_SPAN, load_spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def _fail(message: str) -> None:
    raise SystemExit(f"selfcheck FAILED: {message}")


def check_manifest(manifest: dict) -> None:
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(manifest) != keys:
        _fail(f"BENCHMARK.json keys {sorted(manifest)}")
    command = manifest["command"]
    if not (1 <= len(command) <= 32 and all(isinstance(a, str) and len(a) <= 200 for a in command)):
        _fail("command must be 1..32 strings of at most 200 characters")
    paths = manifest["paths"]
    if not 1 <= len(paths) <= 16 or not all(PATH.fullmatch(p) and ".." not in p.split("/")
                                          and not p.startswith("/") for p in paths):
        _fail(f"paths {paths}")
    if not (isinstance(manifest["run_seconds"], int) and 1 <= manifest["run_seconds"] <= 60):
        _fail("run_seconds must be a whole number from 1 to 60")
    workloads = manifest["workloads"]
    if not 2 <= len(workloads) <= 8:
        _fail("need 2 to 8 workloads")
    names = []
    for w in workloads:
        if set(w) != {"name", "why"} or "\n" in w["why"] or len(w["why"]) > 200:
            _fail(f"workload entry {w}")
        names.append(w["name"])
    if names != list(WORKLOADS):
        _fail(f"workloads {names} != {list(WORKLOADS)}")
    e2e = manifest["end_to_end"]
    for m in e2e:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            _fail(f"end_to_end entry {m}")
    if [(m["name"], m["unit"]) for m in e2e] != list(END_TO_END):
        _fail("end_to_end metrics differ from run.END_TO_END")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower" \
            or setup[0]["bound"] < max(m["bound"] for m in e2e):
        _fail("setup_s must be in s, lower is better, with the largest bound")
    layer = manifest["per_layer"]
    if not 1 <= len(layer) <= 128 or any(set(m) != {"name", "unit", "better"} for m in layer):
        _fail("per_layer must hold 1..128 entries of name, unit and better")
    if [(m["name"], m["unit"]) for m in layer] != LAYER_METRICS:
        _fail("per_layer metrics differ from tracing.LAYER_METRICS")
    every = names + [m["name"] for m in e2e] + [m["name"] for m in layer]
    if len(set(every)) != len(every) or not all(NAME.fullmatch(n) for n in every):
        _fail("names must be unique and well formed")
    if not all(UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
               for m in e2e + layer):
        _fail("bad unit or better")
    if len(json.dumps(manifest)) > 64 * 1024:
        _fail("BENCHMARK.json larger than 64 KiB")


def run_bench(cwd: Path, *args: str) -> tuple[int, str, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--size", "small", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout, proc.stderr


def check_run(workload: str, trace: int, expected: list[tuple[str, str]]) -> dict:
    rc, out, err = run_bench(ROOT, "--workload", workload, "--seed", "7", "--trace", str(trace))
    if rc != 0:
        _fail(f"{workload} trace {trace}: exit {rc}\n{err}")
    result = json.loads(out.splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        _fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        _fail(f"{workload} trace {trace}: {result['correct']=} {result['failed']=}")
    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    if got != expected or any(set(m) != {"value", "unit"} for m in result["metrics"].values()):
        _fail(f"{workload} trace {trace}: metric names or units differ")
    return result["metrics"]


def check_spans(workload: str, metrics: dict) -> None:
    spans = load_spans(HERE / "out" / f"{workload}.spans")
    for run_id in (1, 2):
        run = [s for s in spans if s[0] == run_id]
        if len(run) != metrics["trace.spans"]["value"]:
            _fail(f"{workload}: run {run_id} has {len(run)} spans in the file")
        roots = [s for s in run if s[2] == -1]
        if [s[1] for s in roots] != [PASS_SPAN] or any(s[4] < s[3] for s in run):
            _fail(f"{workload}: run {run_id} spans are malformed")


def copy_checkout(dest: Path, with_src: bool) -> None:
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))


def main() -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_manifest(manifest)
    print("manifest ok")

    e2e = [(m["name"], m["unit"]) for m in manifest["end_to_end"]]
    layer = [(m["name"], m["unit"]) for m in manifest["per_layer"]]
    for workload in WORKLOADS:
        check_run(workload, 0, e2e)
        check_spans(workload, check_run(workload, 1, layer))
        print(f"{workload}: untraced and traced runs ok")

    broken = SCRATCH / "wrong-reference"
    copy_checkout(broken, with_src=True)
    ref_path = broken / "perfbench" / "reference.json"
    reference = json.loads(ref_path.read_text())
    reference["small"]["classify_sweep"]["classify_n7"] = "0" * 64
    ref_path.write_text(json.dumps(reference))
    rc, out, _ = run_bench(broken, "--workload", "classify_sweep", "--seed", "1", "--trace", "0")
    if rc != 1 or json.loads(out.splitlines()[-1])["correct"] is not False:
        _fail("a wrong digest did not fail the run")
    print("digest gate ok")

    bare = SCRATCH / "no-source"
    copy_checkout(bare, with_src=False)
    rc, out, _ = run_bench(bare, "--workload", "extremal_sweep", "--seed", "1", "--trace", "0")
    if rc == 0 or out.strip():
        _fail("run.py without src/ must exit nonzero and print no result")
    print("missing-source check ok")
    shutil.rmtree(SCRATCH)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
