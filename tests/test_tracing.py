"""The benchmark tracer (perfbench/tracing.py) wraps names that pathclique
modules bind at import.  A binding that no longer resolves is skipped
there, and its per-layer metrics read 0, so every one must resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_tracer_bindings_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{attr}"
        for module, attr, _span, _kind in tracing.BINDINGS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert tracing.BINDINGS and not missing, missing
