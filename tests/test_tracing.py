"""The benchmark tracer (perfbench/tracing.py) wraps names that pathclique
modules bind at import.  A binding that no longer resolves is skipped
there, and its per-layer metrics read 0, so every one must resolve.  No
module imports a name it does not use, except the names the tracer
rebinds on it."""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def _bindings():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.BINDINGS


def test_tracer_bindings_resolve():
    bindings = _bindings()
    missing = [
        f"{module}.{attr}"
        for module, attr, _span, _kind in bindings
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert bindings and not missing, missing


def test_no_unused_imports():
    """Every name bound by a top-level import of a module in
    src/pathclique is read in that module.  __init__.py is exempt, as its
    imports are the export list, and so is a name the tracer's BINDINGS
    rebinds on that module (oracle.has_path)."""
    rebound = {(module, attr) for module, attr, _span, _kind in _bindings()}
    unused = []
    for path in sorted((ROOT / "src" / "pathclique").glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = f"pathclique.{path.stem}"
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read and (module, name) not in rebound:
                        unused.append(f"{module}.{name}")
    assert not unused, unused
