"""Record the output digests that every later pass is checked against.

    python3 perfbench/record_reference.py

Runs one untraced pass of every workload at every size and writes
reference.json beside this file.  Run it only at a commit whose outputs
are known to be right; the digests are what "correct" means afterwards.
"""

from __future__ import annotations

import json
import sys

from run import import_package

if not import_package():
    sys.exit("error: no pathclique package under src/")

from workloads import REFERENCE_PATH, WORKLOADS  # noqa: E402

reference = {}
for size in ("full", "timed", "small"):
    reference[size] = {}
    for name, workload in WORKLOADS.items():
        result = workload.run_pass(workload.build(0, size))
        if result.failed:
            sys.exit(f"{size} {name}: " + "; ".join(result.errors()))
        # seed-dependent outputs are checked by invariance, not by digest
        reference[size][name] = {k: v for k, v in result.digests.items() if k != "b_random"}
        print(size, name, "ok", file=sys.stderr)
REFERENCE_PATH.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
